(* Tests for the schedule explorer and the happens-before race
   detector: schedule invariance of the FS state machines, liveness of
   the detector (negative control), and the explorer catching the
   pre-fix with_lock leak as a deadlock. *)

open Simurgh_sim
module Explore = Simurgh_core.Explore

let run ~budget sc =
  Explore.explore Explore.single (Explore.schedules ~budget ()) sc

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

(* Each gated scenario's schedules, distinct schedules and yield points
   at a budget of 16: they move only when what the explorer explores
   moves. *)
let coverage =
  [
    ("create", (16, 16, 2497));
    ("unlink", (16, 16, 1731));
    ("rename", (16, 16, 2947));
    ("read-write", (16, 16, 743));
    ("shared-create", (16, 16, 2497));
    ("shared-row", (16, 16, 2518));
    ("shared-rename", (16, 16, 1482));
    ("shared-xrename", (16, 16, 1482));
    ("striped-create", (16, 16, 2305));
    ("striped-row", (16, 16, 2326));
    ("striped-rename", (16, 16, 1386));
    ("striped-xrename", (16, 16, 1386));
    ("range-write", (16, 16, 528));
    ("range-rw", (16, 16, 536));
    ("range-append", (16, 16, 1049));
    ("range-append-trunc", (16, 16, 1040));
    ("range-append-otrunc", (16, 16, 1072));
    ("append-trunc", (16, 16, 800));
    ("append-otrunc", (16, 16, 832));
    ("ring-rename", (16, 16, 1378));
    ("ring-xrename", (16, 16, 1378));
    ("recovery", (9, 8, 294));
    ("recovery-poison", (9, 8, 960));
  ]

let check_coverage name got =
  Alcotest.(check (triple int int int))
    (name ^ ": schedules, distinct, yields")
    (List.assoc name coverage) got

let check_invariant sc =
  let st = run ~budget:16 sc in
  check_coverage st.Explore.name
    (st.Explore.runs, st.Explore.distinct, st.Explore.yields);
  (match st.Explore.failures with
  | [] -> ()
  | (label, detail) :: _ ->
      Alcotest.failf "oracle failure under %s: %s" label detail);
  Alcotest.(check int) "no races on the decentralized workload" 0
    (List.length st.Explore.races)

(* Every gated scenario, one test per plain scenario (the default
   config's shared-directory ones and its append vs truncate and
   O_TRUNC included) and one per configuration gate: the scaled
   shared-directory paths, the byte-range data-path scenarios
   (disjoint writes, overlapping read/write, concurrent appends, append
   vs truncate and O_TRUNC) for the range_locks configuration,
   and the concurrent renames over one directory's 4-slot rename-log
   ring (independent slot claims) for the log_ring format; the
   default one-slot format's renames take the threads > slots
   fallback. *)
let invariance_cases =
  let title (sc : _ Explore.scenario) =
    let c = sc.Explore.config in
    if c.Explore.ring > 1 then "log ring"
    else if c.Explore.range then "data range"
    else if c.Explore.scaled then "striped"
    else sc.Explore.name
  in
  List.fold_right
    (fun sc groups ->
      match groups with
      | (t, scs) :: rest when t = title sc -> (t, sc :: scs) :: rest
      | _ -> (title sc, [ sc ]) :: groups)
    (Explore.gated ~threads:2) []
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
    (fun (sc : _ Explore.scenario) ->
      Alcotest.test_case sc.Explore.name `Quick (fun () ->
          let st = run ~budget:4096 sc in
          List.iter
            (fun r ->
              Printf.printf "  %s RACE %s\n" sc.Explore.name
                (Race.report_to_string r))
            st.Explore.races;
          match st.Explore.failures with
          | [] -> ()
          | (label, detail) :: _ ->
              Alcotest.failf "%d schedules fail; first, %s: %s"
                (List.length st.Explore.failures) label detail))
    Explore.step6_scenarios

(* --- parallel recovery --------------------------------------------------- *)

(* Fiber-mode recovery over a crashed image: every random worker
   schedule must produce the sequential reference's durable media and
   report, stay fsck-clean and race-free — including with a poisoned
   subtree forcing quarantine escalation mid-mark. *)
let check_recovery ~poison () =
  let st = Explore.parallel_recovery ~budget:8 ~poison () in
  (match st.Explore.failures with
  | [] -> ()
  | (label, detail) :: _ ->
      Alcotest.failf "oracle failure under %s: %s" label detail);
  Alcotest.(check int) "no races in parallel recovery" 0
    (List.length st.Explore.races);
  check_coverage st.Explore.name
    (st.Explore.runs, st.Explore.distinct, st.Explore.yields)

let test_recovery_schedule_independent () = check_recovery ~poison:false ()
let test_recovery_poison_schedule_independent () = check_recovery ~poison:true ()

(* --- race detector ------------------------------------------------------- *)

let test_negative_control_fires () =
  let reports = Explore.negative_control () in
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
