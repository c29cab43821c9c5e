(** Shared helpers for the experiment harness.

    Every printed table is mirrored into {!Simurgh_obs.Report} so that a
    [--json DIR] run exports the same numbers machine-readably; when no
    report is active the mirroring is a no-op. *)

module Report = Simurgh_obs.Report

let thread_counts = [ 1; 2; 4; 7; 10 ]

let last_header = ref ""

let header title =
  last_header := title;
  Printf.printf "\n=== %s ===\n" title

let row_header name = Printf.printf "%-18s" name

let print_series fmt values =
  List.iter (fun v -> Printf.printf fmt v) values;
  print_newline ()

let print_thread_header () =
  Report.table ~title:!last_header
    ~columns:(List.map (Printf.sprintf "t%d") thread_counts);
  Printf.printf "%-18s" "threads";
  List.iter (fun t -> Printf.printf " %9d" t) thread_counts;
  print_newline ()

(** Print one labeled row and mirror it into the current report table. *)
let series name fmt values =
  row_header name;
  print_series fmt values;
  Report.row name values

(** ops per thread scaled by the experiment scale factor. *)
let scaled ~scale base = max 64 (int_of_float (float_of_int base *. scale))

let kops v = v /. 1000.0
let mops v = v /. 1.0e6

let pp_breakdown name (app, copy, fs) =
  Report.ensure_table ~title:"breakdown (% of execution time)"
    ~columns:[ "app%"; "copy%"; "fs%" ];
  Report.row name [ 100.0 *. app; 100.0 *. copy; 100.0 *. fs ];
  Printf.printf "%-12s  app %5.1f%%   data-copy %5.1f%%   file-system %5.1f%%\n"
    name (100.0 *. app) (100.0 *. copy) (100.0 *. fs)

module Explore = Simurgh_core.Explore

(** One line per explored scenario (its non-zero counts), then a line per
    failure and per race report.  Crash exploration judges images;
    schedule exploration, which has no crash points, runs schedules. *)
let print_explored (st : Explore.stats) =
  let crash = st.Explore.points > 0 in
  let counts =
    List.filter
      (fun (_, n) -> n > 0)
      [
        ("crash points", st.Explore.points);
        ("fences", st.Explore.fences);
        ((if crash then "images" else "schedules"), st.Explore.runs);
        ("distinct", st.Explore.distinct);
        ("max pending lines", st.Explore.max_pending);
        ("fixpoint passes", st.Explore.max_passes);
        ("yield points", st.Explore.yields);
        ("switches", st.Explore.switches);
        ("lines tracked", st.Explore.lines_tracked);
      ]
    @ [ ("failures", List.length st.Explore.failures) ]
    @ if crash then [] else [ ("races", List.length st.Explore.races) ]
  in
  Printf.printf "  %-20s %s%s\n" st.Explore.name
    (String.concat ", "
       (List.map (fun (label, n) -> Printf.sprintf "%s %d" label n) counts))
    (if st.Explore.exhaustive then ", exhaustive" else "");
  List.iter
    (fun (label, what) -> Printf.printf "    FAIL %s: %s\n" label what)
    st.Explore.failures;
  List.iter
    (fun r ->
      Printf.printf "    RACE %s\n" (Simurgh_sim.Race.report_to_string r))
    st.Explore.races

(** The gate over one explored scenario, one message per violation: any
    failure, and for a [race_free] scenario any race report or fewer than
    two distinct schedules. *)
let explore_gate ?(race_free = false) (st : Explore.stats) =
  let failures = List.length st.Explore.failures
  and races = if race_free then List.length st.Explore.races else 0 in
  (if failures + races > 0 then
     [
       Printf.sprintf "%s: %d failures, %d races" st.Explore.name failures
         races;
     ]
   else [])
  @
  if race_free && st.Explore.distinct < 2 then
    [
      Printf.sprintf "%s: only %d distinct schedule(s) explored"
        st.Explore.name st.Explore.distinct;
    ]
  else []
