(** The repository benchmark: four workloads over Simurgh's shipped
    configuration ([Fs.mkfs ~euid:0], protected entry, every feature
    flag at its default), scored on the virtual clock (the paper's
    claims) and the host clock (what the simulator costs).

    {v
    main.exe --workload W [--seed N] [--seconds S] [--trace 0|1|DIR] [--out FILE]
    main.exe --smoke [--spec BENCHMARK.json]
    main.exe --compare A.json ... -- B.json ... [--spec BENCHMARK.json]
    v}

    A run is a fixed number of trials — set-up plus timed phases — each
    on its own inputs, drawn from a seed derived from [--seed] and the
    trial's index; [--seconds] sets the number.  The virtual-time
    metrics pool the trials ({!Common.pooled}).  Every trial's host
    times are scaled to a reference speed measured around it
    ({!Common.local_reference}); host time per request is then the lower
    quartile over trials and set-up time the median set-up; memory is a
    median.  [--trace 0] prints every end-to-end metric with its unit,
    [--trace 1] runs half as many trials, each untraced and then traced,
    and prints every per-layer metric; either way a one-line JSON result
    comes last.  Any oracle violation, and any traced trial whose virtual
    results differ in the least from its untraced twin's, makes the
    result incorrect and the exit code 1. *)

open Common

module Raw = Probe.Raw (Fs)
module Traced = Probe.Traced (Fs)
module Ycsb_raw = Ycsb_a.Make (Raw)
module Ycsb_traced = Ycsb_a.Make (Traced)
module Meta_raw = Meta_churn.Make (Raw)
module Meta_traced = Meta_churn.Make (Traced)
module Data_raw = Data_openloop.Make (Raw)
module Data_traced = Data_openloop.Make (Traced)
module Recovery_raw = Recovery_wl.Make (Raw)
module Recovery_traced = Recovery_wl.Make (Traced)

let workloads = [ "ycsb-a"; "meta-churn"; "data-openloop"; "recovery" ]

(** Host CPU seconds one trial of each workload takes on the machine the
    baseline was measured on.  A run's number of trials is [--seconds]
    over this: it follows from the arguments, never from how fast the
    run goes, so virtual metrics depend on the seed and [--seconds]
    only. *)
let trial_s = function
  | "ycsb-a" -> 0.65
  | "meta-churn" -> 0.55
  | "data-openloop" -> 0.9
  | _ -> 1.3

let trials ~name ~seconds = max 2 (int_of_float (Float.round (seconds /. trial_s name)))

(** One trial's inputs, generated here before any timing; the result
    runs the trial, traced or not. *)
let prepare name ~seed ~small =
  let pick full sm = if small then sm else full in
  match name with
  | "ycsb-a" ->
      let inp = Ycsb_a.prepare ~seed (pick Ycsb_a.full Ycsb_a.small) in
      fun ~traced -> if traced then Ycsb_traced.trial inp else Ycsb_raw.trial inp
  | "meta-churn" ->
      let inp = Meta_churn.prepare ~seed (pick Meta_churn.full Meta_churn.small) in
      fun ~traced -> if traced then Meta_traced.trial inp else Meta_raw.trial inp
  | "data-openloop" ->
      let inp = Data_openloop.prepare ~seed (pick Data_openloop.full Data_openloop.small) in
      fun ~traced -> if traced then Data_traced.trial inp else Data_raw.trial inp
  | "recovery" ->
      let inp = Recovery_wl.prepare ~seed (pick Recovery_wl.full Recovery_wl.small) in
      fun ~traced -> if traced then Recovery_traced.trial inp else Recovery_raw.trial inp
  | w -> invalid_arg ("unknown workload " ^ w)

let cost_model_digest () = Digest.to_hex (Digest.string (Marshal.to_string Cost_model.default []))

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  lines : string list;  (** the human-readable report *)
}

let median_of f l = Stats.median (List.map f l)

(** The lower quartile, as Python's [statistics.quantiles(x, n=4)]
    gives it. *)
let q1 l = fst (Stats.quartiles l)

(* Traced runs trace half as many trials as an untraced run has, each
   right after its untraced twin, so both see the same machine
   conditions and the run takes about as long. *)
let run_workload ~name ~seed ~seconds ~trace ~small ~trace_file =
  let k = trials ~name ~seconds in
  let k = if trace then max 2 (k / 2) else k in
  let cm = Cost_model.default in
  let t0 = cpu () in
  let bad = ref [] in
  (* a trial with the factor that scales its host times to the
     reference speed (see {!Common.local_reference}) *)
  let run trial ~traced =
    let r0 = local_reference () in
    let t = trial ~traced in
    let r1 = local_reference () in
    (t, reference_s /. Float.min r0 r1)
  in
  let pairs =
    List.init k (fun i ->
        let trial = prepare name ~seed:(Gen.trial_seed ~seed i) ~small in
        let u = run trial ~traced:false in
        let t = if trace then Some (run trial ~traced:true) else None in
        Option.iter
          (fun (t, _) ->
            if t.virt <> (fst u).virt then
              bad := Printf.sprintf "trial %d: traced virtual results differ from untraced" i :: !bad)
          t;
        (u, t))
  in
  (* [Trace] holds the last traced trial's spans *)
  Option.iter (fun path -> Trace.write_chrome ~cm path) trace_file;
  let untraced = List.map fst pairs and traced = List.filter_map snd pairs in
  let u_trials = List.map fst untraced and t_trials = List.map fst traced in
  let all = u_trials @ t_trials in
  bad := List.concat_map (fun t -> t.violations) all @ List.rev !bad;
  (* host CPU seconds per scored request at the reference speed, the
     lower quartile over trials: the quartile of a fixed share of the
     trials, whatever their number, that the machine disturbed least *)
  let host ts = q1 (List.map (fun (t, x) -> t.scored_s *. x /. fi t.scored) ts) in
  let host_u = host untraced in
  let virt, note = pooled cm (List.map (fun t -> t.virt) u_trials) in
  let e2e =
    virt
    @ [
        ("host_ns_per_op", host_u *. 1e9);
        ("host_heap_mb", median_of (fun t -> t.heap_mb) u_trials);
        ("setup_s", Stats.median (List.concat_map (fun (t, x) -> List.map (fun s -> s *. x) t.setup_s) untraced));
      ]
  in
  let layers =
    List.map
      (fun (name, _) ->
        let v =
          match name with
          | "host.minor_words_per_op" -> median_of (fun t -> t.cost.minor_words /. fi t.requests) u_trials
          | "host.major_gcs" -> median_of (fun t -> fi t.cost.major_gcs) u_trials
          | "trace.overhead_pct" -> 100.0 *. (host traced -. host_u) /. host_u
          | _ -> median_of (fun t -> Option.value ~default:0.0 (List.assoc_opt name t.layers)) t_trials
        in
        (name, v))
      per_layer
  in
  let metrics =
    if trace then List.map (fun (n, v) -> (n, v, List.assoc n per_layer)) layers
    else List.map (fun (n, u, _, _) -> (n, List.assoc n e2e, u)) end_to_end
  in
  let attempted = List.fold_left (fun a (t : trial) -> a + t.requests) 0 all in
  let failed = List.fold_left (fun a (t : trial) -> a + t.failed) 0 all in
  let lines =
    [
      Printf.sprintf "benchmark %s: seed %d, %d trials%s, %.1f host CPU s" name seed k
        (if trace then " each untraced and traced" else "")
        (cpu () -. t0);
      Printf.sprintf "cost model digest %s (a change here is a model change, not a gain)" (cost_model_digest ());
      "  pooled " ^ note;
    ]
    @ List.map (fun l -> "  " ^ l) (List.hd u_trials).notes
    @ List.map
        (fun (n, v, u) ->
          match List.find_opt (fun (n', _, _, _) -> n' = n) end_to_end with
          | Some (_, _, higher, bound) ->
              Printf.sprintf "  %-34s %16.6f %-7s %s is better, bound %g%%" n v u
                (if higher then "higher" else "lower") (100.0 *. bound)
          | None -> Printf.sprintf "  %-34s %16.6f %s" n v u)
        metrics
    @ [
        Printf.sprintf "  untraced trials, host CPU s of the scored work and (x) the factor to the reference speed: %s"
          (String.concat " " (List.map (fun (t, x) -> Printf.sprintf "%.3fx%.3f" t.scored_s x) untraced));
        Printf.sprintf "  set-up host CPU s: %s"
          (String.concat " " (List.concat_map (fun t -> List.map (Printf.sprintf "%.4f") t.setup_s) u_trials));
        Printf.sprintf "  requests: %d attempted, %d failed%s" attempted failed
          (if !errors = [] then "" else ", e.g. " ^ String.concat "; " !errors);
      ]
    @ List.map (fun v -> "  VIOLATION " ^ v) !bad
  in
  { correct = !bad = []; attempted; failed; metrics; lines }

let result_json o =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.correct o.attempted
    o.failed
    (String.concat ", "
       (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (Json.num v) u) o.metrics))

(* ---- smoke: every workload small, traced against untraced ------------ *)

let check_spec path =
  let j = Json.read_file path in
  let names key = List.map (fun e -> Json.to_str (Json.member "name" e)) (Json.to_list (Json.member key j)) in
  let want_e2e = List.map (fun (n, _, _, _) -> n) end_to_end in
  let want_layers = List.map fst per_layer in
  (if names "end_to_end" <> want_e2e then [ path ^ ": end_to_end names differ from the program's" ] else [])
  @ if names "per_layer" <> want_layers then [ path ^ ": per_layer names differ from the program's" ] else []

let smoke ~spec =
  let problems = ref (match spec with Some p -> check_spec p | None -> []) in
  List.iter
    (fun name ->
      let o = run_workload ~name ~seed:1 ~seconds:0.0 ~trace:true ~small:true ~trace_file:None in
      List.iter print_endline o.lines;
      if not o.correct then problems := (name ^ ": incorrect") :: !problems;
      if o.failed > 0 then problems := (name ^ ": failed requests") :: !problems)
    workloads;
  List.iter (fun p -> Printf.printf "SMOKE FAILURE %s\n" p) (List.rev !problems);
  if !problems = [] then print_endline "smoke: ok";
  exit (if !problems = [] then 0 else 1)

(* ---- command line ----------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload {ycsb-a|meta-churn|data-openloop|recovery} [--seed N] [--seconds S] \
     [--trace 0|1|DIR] [--out FILE]\n\
    \       main.exe --smoke [--spec BENCHMARK.json]\n\
    \       main.exe --compare A.json... -- B.json... [--spec BENCHMARK.json]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 and trace = ref "0" in
  let out = ref None and spec = ref None and smoke_mode = ref false in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec parse = function
    | [] -> None
    | "--compare" :: rest ->
        let rec split a = function "--" :: b -> (List.rev a, b) | x :: r -> split (x :: a) r | [] -> usage () in
        let a, rest = split [] rest in
        let rec files b = function
          | x :: r when not (String.starts_with ~prefix:"--" x) -> files (x :: b) r
          | r -> (List.rev b, r)
        in
        let b, rest = files [] rest in
        ignore (parse rest);
        if a = [] || b = [] then usage ();
        Some (a, b)
    | "--workload" :: w :: r -> workload := Some w; parse r
    | "--seed" :: n :: r -> seed := num int_of_string_opt n; parse r
    | "--seconds" :: n :: r -> seconds := num float_of_string_opt n; parse r
    | "--trace" :: t :: r -> trace := t; parse r
    | "--out" :: f :: r -> out := Some f; parse r
    | "--spec" :: f :: r -> spec := Some f; parse r
    | "--smoke" :: r -> smoke_mode := true; parse r
    | _ -> usage ()
  in
  match parse args with
  | Some (a, b) ->
      let spec = Option.value ~default:"BENCHMARK.json" !spec in
      exit (if Compare.run ~spec a b > 0 then 1 else 0)
  | None ->
      if !smoke_mode then smoke ~spec:!spec;
      let name = match !workload with Some w when List.mem w workloads -> w | _ -> usage () in
      let trace_file =
        match !trace with
        | "0" -> None
        | t ->
            let dir = if t = "1" then Filename.concat "_build" "benchmark-trace" else t in
            mkdir_p dir;
            Some (Filename.concat dir (Printf.sprintf "%s-seed%d.json" name !seed))
      in
      let o =
        run_workload ~name ~seed:!seed ~seconds:!seconds ~trace:(trace_file <> None) ~small:false ~trace_file
      in
      List.iter print_endline o.lines;
      Option.iter (fun f -> Printf.printf "  spans written to %s\n" f) trace_file;
      let line = result_json o in
      Option.iter
        (fun f ->
          let oc = open_out f in
          Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, %s\n" name !seed
            (String.sub line 1 (String.length line - 1));
          close_out oc)
        !out;
      print_endline line;
      exit (if o.correct && o.failed = 0 then 0 else 1)
