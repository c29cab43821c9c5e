(* Tests for the schedule explorer and the happens-before race
   detector: schedule invariance of the FS state machines, liveness of
   the detector (negative control), and the explorer catching the
   pre-fix with_lock leak as a deadlock. *)

open Simurgh_sim
module Sched = Simurgh_core.Sched_explore
module Explore = Simurgh_core.Explore

exception Poison

(* --- DFS enumerator ----------------------------------------------------- *)

(* The enumerator must visit every leaf of a fixed decision tree exactly
   once: 3 binary decisions per run -> 8 distinct runs, then exhausted. *)
let test_dfs_enumerates_tree () =
  let dfs = Schedule.Dfs.create () in
  let seen = Hashtbl.create 8 in
  let cont = ref true in
  let runs = ref 0 in
  while !cont do
    Schedule.Dfs.start dfs;
    let path =
      List.init 3 (fun _ -> Schedule.Dfs.choose dfs ~alts:2)
    in
    Alcotest.(check bool) "leaf not repeated" false (Hashtbl.mem seen path);
    Hashtbl.replace seen path ();
    incr runs;
    cont := Schedule.Dfs.advance dfs
  done;
  Alcotest.(check int) "all 2^3 leaves" 8 !runs;
  Alcotest.(check bool) "exhausted" true (Schedule.Dfs.exhausted dfs)

(* --- explorer oracles ---------------------------------------------------- *)

let check_invariant sc =
  let st = Sched.run ~budget:16 sc in
  Alcotest.(check bool) "several distinct schedules" true (st.Sched.distinct >= 2);
  (match st.Sched.failures with
  | [] -> ()
  | (label, detail) :: _ ->
      Alcotest.failf "oracle failure under %s: %s" label detail);
  Alcotest.(check int) "no races on the decentralized workload" 0
    (List.length st.Sched.races)

(* Every gated scenario, one test per plain scenario (the default
   config's shared-directory ones and its append vs truncate and
   O_TRUNC included) and one per configuration gate: the scaled
   shared-directory paths, the byte-range data-path scenarios
   (disjoint writes, overlapping read/write, concurrent appends, append
   vs truncate and O_TRUNC) for the range_locks configuration,
   and the concurrent renames over one directory's rename-log ring
   (independent slot claims, plus the threads > slots contention
   fallback) for the log_ring format. *)
let invariance_cases =
  let title (sc : Sched.scenario) =
    let c = sc.Sched.config in
    if c.Explore.ring > 0 then "log ring"
    else if c.Explore.range then "data range"
    else if c.Explore.scaled then "striped"
    else sc.Sched.name
  in
  List.fold_right
    (fun sc groups ->
      match groups with
      | (t, scs) :: rest when t = title sc -> (t, sc :: scs) :: rest
      | _ -> (title sc, [ sc ]) :: groups)
    (Sched.gated ~threads:2) []
  |> List.map (fun (t, scs) ->
         Alcotest.test_case t `Quick (fun () -> List.iter check_invariant scs))

(* Fig. 5b step 6 against an insert holding a probed slot in the block
   it frees: every schedule must keep the new entry (namespace and fsck
   oracles).  The budget reaches both halves of the protocol: without
   the pin check every scenario loses the entry, and without the retire
   mark one striped-rename schedule does (a probe between step 6's check
   and its unlink store).  The lock-free chain and row reads race
   benignly; their reports are printed, not asserted. *)
let step6_cases =
  List.map
    (fun (sc : Sched.scenario) ->
      Alcotest.test_case sc.Sched.name `Quick (fun () ->
          let st = Sched.run ~budget:4096 sc in
          List.iter
            (fun r ->
              Printf.printf "  %s RACE %s\n" sc.Sched.name
                (Race.report_to_string r))
            st.Sched.races;
          match st.Sched.failures with
          | [] -> ()
          | (label, detail) :: _ ->
              Alcotest.failf "%d schedules fail; first, %s: %s"
                (List.length st.Sched.failures) label detail))
    Sched.step6_scenarios

(* --- parallel recovery --------------------------------------------------- *)

(* Fiber-mode recovery over a crashed image: every random worker
   schedule must produce the sequential reference's durable media and
   report, stay fsck-clean and race-free — including with a poisoned
   subtree forcing quarantine escalation mid-mark. *)
let check_recovery ~poison () =
  let st = Sched.recovery_run ~budget:8 ~poison () in
  (match st.Sched.rfailures with
  | [] -> ()
  | (label, detail) :: _ ->
      Alcotest.failf "oracle failure under %s: %s" label detail);
  Alcotest.(check int) "no races in parallel recovery" 0
    (List.length st.Sched.rraces);
  Alcotest.(check bool) "several distinct interleavings" true
    (st.Sched.rdistinct >= 2);
  Alcotest.(check bool) "preemption points offered" true (st.Sched.ryields > 0)

let test_recovery_schedule_independent () = check_recovery ~poison:false ()
let test_recovery_poison_schedule_independent () = check_recovery ~poison:true ()

(* --- race detector ------------------------------------------------------- *)

let test_negative_control_fires () =
  let reports = Sched.negative_control () in
  Alcotest.(check bool) "unlocked racing stores are reported" true
    (reports <> [])

(* --- lock-leak detection -------------------------------------------------- *)

(* Two fibers contend on one spin lock; fiber 0's critical section
   raises (caught inside the body, like an EIO path would).  [impl] is
   the with_lock implementation under test. *)
let run_lock_pair impl =
  let m = Machine.create () in
  let l = Vlock.Spin.create () in
  let bodies =
    Array.init 2 (fun tid () ->
        let thr = Sthread.create tid in
        let ctx = Machine.ctx m thr in
        try
          impl ctx l (fun () ->
              Machine.cpu ctx 100.0;
              if tid = 0 then raise Poison)
        with Poison -> ())
  in
  (Engine.explore ~schedule:Schedule.legacy bodies, l)

(* the pre-fix with_lock: no release when the body raises *)
let leaky_with_lock ctx l f =
  Vlock.Spin.acquire ctx l;
  f ();
  Vlock.Spin.release ctx l

let test_explorer_catches_lock_leak () =
  match run_lock_pair leaky_with_lock with
  | _ -> Alcotest.fail "leaked lock went unnoticed"
  | exception Engine.Deadlock _ -> ()

let test_fixed_with_lock_survives_raise () =
  let o, l = run_lock_pair Vlock.Spin.with_lock in
  Alcotest.(check bool) "fibers interleaved" true (o.Engine.yields > 0);
  Alcotest.(check bool) "lock released" false (Vlock.Spin.locked l)

let () =
  Alcotest.run "sched"
    [
      ( "dfs",
        [ Alcotest.test_case "enumerates tree" `Quick test_dfs_enumerates_tree ]
      );
      ( "invariance",
        invariance_cases
        @ [
          Alcotest.test_case "parallel recovery" `Quick
            test_recovery_schedule_independent;
          Alcotest.test_case "parallel recovery with poison" `Quick
            test_recovery_poison_schedule_independent;
        ] );
      ("step6", step6_cases);
      ( "race-detector",
        [
          Alcotest.test_case "negative control" `Quick
            test_negative_control_fires;
        ] );
      ( "lock-leak",
        [
          Alcotest.test_case "leak deadlocks explorer" `Quick
            test_explorer_catches_lock_leak;
          Alcotest.test_case "fixed with_lock survives" `Quick
            test_fixed_with_lock_survives_raise;
        ] );
    ]
