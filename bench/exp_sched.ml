(** Run id [sched]: the concurrency plane — systematic schedule
    exploration with happens-before race detection.

    Mirrors run id [crash] ({!Exp_crash}): where that one enumerates
    crash images of the Fig. 5 state machines, this one enumerates
    thread interleavings of the same operations
    ({!Simurgh_core.Sched_explore}).  Every schedule must produce the
    same final namespace and a clean fsck; the race detector
    ({!Simurgh_sim.Race}) must stay silent on every gated scenario
    ({!Simurgh_core.Sched_explore.gated}: the decentralized
    private-directory machines, the shared-directory ones on the
    default and the scaled configuration, the byte-range data-path ones for the [range_locks]
    configuration and the concurrent renames on a rename-log ring)
    and on parallel recovery.  Three extra parts keep the tooling
    honest:

    + {b shared-dir}: disjoint names in one directory — real
      cross-thread lock traffic plus the lock-free lookup path; its
      race reports are informational (Simurgh's by-design benign
      8-byte slot publish), not asserted zero;
    + {b step6}: an unlink whose Fig. 5b step 6 frees a chain block
      while a create or rename holds a probed slot there
      ({!Simurgh_core.Sched_explore.step6_scenarios}); oracle-gated,
      its races informational like shared-dir's;
    + {b negative control}: two fibers storing to one word with no
      lock; the detector {e must} report it.

    With [--json] the counters go to [BENCH_sched.json]:
    [sched/schedules_explored], [sched/schedules_distinct],
    [sched/yield_points], [sched/switches], [sched/oracle_failures],
    [race/lines_tracked], [race/reports], [race/accesses],
    [race/negative_control_reports], [race/shared_dir_reports]. *)

module Sched = Simurgh_core.Sched_explore
module Race = Simurgh_sim.Race
module Obs = Simurgh_obs

let print_stats (st : Sched.stats) =
  Printf.printf
    "  %-11s %4d schedules (%4d distinct%s), %6d yield points, %5d \
     switches, oracle failures %d, races %d, lines tracked %d\n"
    st.Sched.scenario st.Sched.schedules st.Sched.distinct
    (if st.Sched.exhaustive then ", exhaustive" else "")
    st.Sched.yields st.Sched.switches
    (List.length st.Sched.failures)
    (List.length st.Sched.races)
    st.Sched.lines_tracked;
  List.iter
    (fun (label, detail) -> Printf.printf "    FAIL %s: %s\n" label detail)
    st.Sched.failures;
  List.iter
    (fun r -> Printf.printf "    RACE %s\n" (Race.report_to_string r))
    st.Sched.races

(* Exploration budget per scenario.  [Util.scaled] floors at 64 region
   accesses — too coarse here, where each schedule is a full FS run; at
   the default scale the DFS half typically exhausts the two-thread
   trees anyway and the rest is seeded sampling. *)
let budget_of ~scale = max 24 (int_of_float (120.0 *. scale))

let print_recovery (st : Sched.recovery_stats) =
  Printf.printf
    "  %-11s %4d schedules (%4d distinct), %6d yield points, oracle \
     failures %d, races %d\n"
    st.Sched.rscenario st.Sched.rschedules st.Sched.rdistinct
    st.Sched.ryields
    (List.length st.Sched.rfailures)
    (List.length st.Sched.rraces);
  List.iter
    (fun (label, detail) -> Printf.printf "    FAIL %s: %s\n" label detail)
    st.Sched.rfailures;
  List.iter
    (fun r -> Printf.printf "    RACE %s\n" (Race.report_to_string r))
    st.Sched.rraces

type results = {
  gated : Sched.stats list;
  recovery : Sched.recovery_stats list;
      (** fiber-mode mark-and-sweep over a crashed image, then a
          poisoned one *)
  shared : Sched.stats;  (** informational: one shared directory *)
  step6 : Sched.stats list;
      (** step 6 against an in-flight insert: oracles gated, races
          informational *)
  negative : Race.report list;  (** must be non-empty *)
}

(* Explore every scenario once, printing one line each. *)
let explore ~scale =
  let budget = budget_of ~scale in
  let gated =
    List.map
      (fun sc ->
        let st = Sched.run ~budget sc in
        print_stats st;
        st)
      (Sched.gated ~threads:2)
  in
  let recovery =
    List.map
      (fun poison ->
        let st = Sched.recovery_run ~budget:(max 8 (budget / 4)) ~poison () in
        print_recovery st;
        st)
      [ false; true ]
  in
  let shared =
    Sched.run ~budget:(max 12 (budget / 2)) (Sched.shared_scenario ~threads:3)
  in
  print_stats shared;
  let step6 =
    List.map
      (fun sc ->
        let st = Sched.run ~budget sc in
        print_stats st;
        st)
      Sched.step6_scenarios
  in
  let negative = Sched.negative_control () in
  Printf.printf "  negative control (unlocked stores): %s\n"
    (match negative with
    | [] -> "MISSED -- detector is broken"
    | rs ->
        Printf.sprintf "caught (%d report%s)" (List.length rs)
          (if List.length rs = 1 then "" else "s"));
  { gated; recovery; shared; step6; negative }

(* The gate over one exploration: every gated scenario and parallel
   recovery must be oracle-clean and race-free over at least two
   distinct interleavings, the shared-dir scenario oracle-clean, and
   the negative control must fire.  One message per violation. *)
let gate r =
  let scenario name ~failures ~races ~distinct =
    (if failures + races > 0 then
       [ Printf.sprintf "%s: %d oracle failures, %d races" name failures races ]
     else [])
    @
    if distinct < 2 then
      [ Printf.sprintf "%s: only %d distinct schedule(s) explored" name distinct ]
    else []
  in
  List.concat_map
    (fun (st : Sched.stats) ->
      scenario st.Sched.scenario ~failures:(List.length st.Sched.failures)
        ~races:(List.length st.Sched.races) ~distinct:st.Sched.distinct)
    r.gated
  @ List.concat_map
      (fun (st : Sched.recovery_stats) ->
        scenario st.Sched.rscenario ~failures:(List.length st.Sched.rfailures)
          ~races:(List.length st.Sched.rraces) ~distinct:st.Sched.rdistinct)
      r.recovery
  @ List.concat_map
      (fun (st : Sched.stats) ->
        match st.Sched.failures with
        | [] -> []
        | l ->
            [
              Printf.sprintf "%s: %d oracle failures" st.Sched.scenario
                (List.length l);
            ])
      (r.shared :: r.step6)
  @ if r.negative = [] then [ "negative control: detector is broken" ] else []

let run ~scale =
  Util.header
    "sched: schedule exploration + happens-before race detection";
  let r = explore ~scale in
  let n = List.length in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 in
  let gated f = sum f r.gated and recovery f = sum f r.recovery in
  let rec_failures = recovery (fun st -> n st.Sched.rfailures)
  and rec_races = recovery (fun st -> n st.Sched.rraces) in
  let schedules =
    gated (fun st -> st.Sched.schedules) + recovery (fun st -> st.Sched.rschedules)
  and distinct =
    gated (fun st -> st.Sched.distinct) + recovery (fun st -> st.Sched.rdistinct)
  and failures =
    gated (fun st -> n st.Sched.failures)
    + sum (fun st -> n st.Sched.failures) (r.shared :: r.step6)
    + rec_failures
  and races = gated (fun st -> n st.Sched.races) + rec_races in
  Obs.Collect.add
    (List.map
       (fun (k, v) -> (k, float_of_int v))
       [
         ("sched/schedules_explored", schedules);
         ("sched/schedules_distinct", distinct);
         ( "sched/yield_points",
           gated (fun st -> st.Sched.yields)
           + recovery (fun st -> st.Sched.ryields) );
         ("sched/switches", gated (fun st -> st.Sched.switches));
         ("sched/oracle_failures", failures);
         ( "race/lines_tracked",
           List.fold_left (fun m st -> max m st.Sched.lines_tracked) 0 r.gated
         );
         ("race/reports", races);
         ("race/accesses", gated (fun st -> st.Sched.accesses));
         ("race/negative_control_reports", n r.negative);
         ("race/shared_dir_reports", n r.shared.Sched.races);
         ("sched/recovery_failures", rec_failures);
         ("sched/recovery_races", rec_races);
       ]);
  Printf.printf
    "  total: %d schedules (%d distinct), %d oracle failures, %d races on \
     decentralized scenarios%s\n"
    schedules distinct failures races
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
