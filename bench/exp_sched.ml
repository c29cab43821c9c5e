(** Run id [sched]: the concurrency plane — systematic schedule
    exploration with happens-before race detection.

    Mirrors run id [crash] ({!Exp_crash}): where that one enumerates
    crash images of the Fig. 5 state machines, this one enumerates
    thread interleavings of the same operations
    ({!Simurgh_core.Explore}).  Every schedule must produce the
    same final namespace and a clean fsck; the race detector
    ({!Simurgh_sim.Race}) must stay silent on every gated scenario
    ({!Simurgh_core.Explore.gated}: the decentralized
    private-directory machines, the shared-directory ones on the
    default and the scaled configuration, the byte-range data-path ones for the [range_locks]
    configuration, an append racing truncate and O_TRUNC on both
    data-path disciplines and the concurrent renames on a rename-log
    ring)
    and on parallel recovery.  Three extra parts keep the tooling
    honest:

    + {b shared-dir}: disjoint names in one directory — real
      cross-thread lock traffic plus the lock-free lookup path; its
      race reports are informational (Simurgh's by-design benign
      8-byte slot publish), not asserted zero;
    + {b step6}: an unlink whose Fig. 5b step 6 frees a chain block
      while a create or rename holds a probed slot there
      ({!Simurgh_core.Explore.step6_scenarios}); oracle-gated,
      its races informational like shared-dir's;
    + {b negative control}: two fibers storing to one word with no
      lock; the detector {e must} report it.

    With [--json] the counters go to [BENCH_sched.json]:
    [sched/schedules_explored], [sched/schedules_distinct],
    [sched/yield_points], [sched/switches], [sched/oracle_failures],
    [race/lines_tracked], [race/reports], [race/accesses],
    [race/negative_control_reports], [race/shared_dir_reports]. *)

module Explore = Simurgh_core.Explore
module Obs = Simurgh_obs

(* Exploration budget per scenario.  [Util.scaled] floors at 64 region
   accesses — too coarse here, where each schedule is a full FS run; at
   the default scale the DFS half typically exhausts the two-thread
   trees anyway and the rest is seeded sampling. *)
let budget_of ~scale = max 24 (int_of_float (120.0 *. scale))

type results = {
  gated : Explore.stats list;
  recovery : Explore.stats list;
      (** fiber-mode mark-and-sweep over a crashed image, then a
          poisoned one *)
  informational : Explore.stats list;
      (** one shared directory, and step 6 against an in-flight insert:
          oracles gated, races informational *)
  negative : Simurgh_sim.Race.report list;  (** must be non-empty *)
}

(* Explore every scenario once, printing one line each. *)
let explore ~scale =
  let budget = budget_of ~scale in
  let run ~budget sc =
    let st = Explore.explore Explore.single (Explore.schedules ~budget ()) sc in
    Util.print_explored st;
    st
  in
  let gated = List.map (run ~budget) (Explore.gated ~threads:2) in
  let recovery =
    List.map
        (fun poison ->
          let st =
            Explore.parallel_recovery ~budget:(max 8 (budget / 4)) ~poison ()
          in
          Util.print_explored st;
          st)
        [ false; true ]
  in
  let shared =
    run ~budget:(max 12 (budget / 2)) (Explore.shared_scenario ~threads:3)
  in
  let informational =
    shared :: List.map (run ~budget) Explore.step6_scenarios
  in
  let negative = Explore.negative_control () in
  Printf.printf "  negative control (unlocked stores): %s\n"
    (match negative with
    | [] -> "MISSED -- detector is broken"
    | rs ->
        Printf.sprintf "caught (%d report%s)" (List.length rs)
          (if List.length rs = 1 then "" else "s"));
  { gated; recovery; informational; negative }

(* The gate over one exploration: every gated scenario and parallel
   recovery must be oracle-clean and race-free over at least two
   distinct interleavings, the informational ones oracle-clean, and the
   negative control must fire.  One message per violation. *)
let gate r =
  List.concat_map (Util.explore_gate ~race_free:true) (r.gated @ r.recovery)
  @ List.concat_map Util.explore_gate r.informational
  @ if r.negative = [] then [ "negative control: detector is broken" ] else []

let run ~scale =
  Util.header
    "sched: schedule exploration + happens-before race detection";
  let r = explore ~scale in
  let n = List.length in
  let sum f = List.fold_left (fun acc (st : Explore.stats) -> acc + f st) 0 in
  let gated f = sum f (r.gated @ r.recovery) in
  let failures =
    sum
      (fun st -> n st.Explore.failures)
      (r.gated @ r.recovery @ r.informational)
  and races = gated (fun st -> n st.Explore.races) in
  Obs.Collect.add
    (List.map
       (fun (k, v) -> (k, float_of_int v))
       [
         ("sched/schedules_explored", gated (fun st -> st.Explore.runs));
         ("sched/schedules_distinct", gated (fun st -> st.Explore.distinct));
         ("sched/yield_points", gated (fun st -> st.Explore.yields));
         ("sched/switches", gated (fun st -> st.Explore.switches));
         ("sched/oracle_failures", failures);
         ( "race/lines_tracked",
           List.fold_left (fun m st -> max m st.Explore.lines_tracked) 0 r.gated
         );
         ("race/reports", races);
         ("race/accesses", gated (fun st -> st.Explore.accesses));
         ("race/negative_control_reports", n r.negative);
         ("race/shared_dir_reports", n (List.hd r.informational).Explore.races);
         ( "sched/recovery_failures",
           sum (fun st -> n st.Explore.failures) r.recovery );
         ("sched/recovery_races", sum (fun st -> n st.Explore.races) r.recovery);
       ]);
  Printf.printf
    "  total: %d schedules (%d distinct), %d oracle failures, %d races on \
     decentralized scenarios%s\n"
    (gated (fun st -> st.Explore.runs))
    (gated (fun st -> st.Explore.distinct))
    failures races
    (if gate r = [] then " -- schedule-invariant and race-free" else " (BUG)")

(** Standalone self-check, used by [--races] / [make races]: the gate
    over {!explore} (so a trivially silent detector cannot pass).
    Returns a process exit code. *)
let selfcheck ~scale () =
  match gate (explore ~scale) with
  | [] ->
      print_endline "races: gate passed";
      0
  | bad ->
      List.iter (fun m -> print_endline ("races: FAIL " ^ m)) bad;
      1
