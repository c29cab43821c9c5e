(** [--compare A... -- B...]: the medians and spreads of two sets of
    result files (written by [--out]), metric by metric and workload by
    workload, judged against the bounds in [BENCHMARK.json].

    A pair is [regressed] when B's median is worse than A's by more than
    the bound, [improved] when better by more than the bound, and
    [unchanged] otherwise — unless either set's spread (interquartile
    range over median) exceeds the bound, which makes it [unresolved],
    except that B reading better than A on every run is [improved].
    Per-layer metrics have no bound and are only listed. *)

type spec = { higher : bool; bound : float option }

let load_spec path =
  let j = Json.read_file path in
  let entries key = try Json.to_list (Json.member key j) with Json.Error _ -> [] in
  let one e =
    let name = Json.to_str (Json.member "name" e) in
    let higher = Json.to_str (Json.member "better" e) = "higher" in
    let bound = match e with Json.Obj l -> Option.map Json.to_num (List.assoc_opt "bound" l) | _ -> None in
    (name, { higher; bound })
  in
  List.map one (entries "end_to_end" @ entries "per_layer")

(** (workload, metric values) of one result file. *)
let load_result path =
  let j = Json.read_file path in
  let workload = Json.to_str (Json.member "workload" j) in
  let metrics =
    List.map
      (fun (k, v) -> (k, Json.to_num (Json.member "value" v)))
      (Json.to_obj (Json.member "metrics" j))
  in
  (workload, metrics)

let label sp a b =
  let ma = Stats.median a and mb = Stats.median b in
  (* > 0 when B is worse *)
  let worse =
    let d = if sp.higher then ma -. mb else mb -. ma in
    if ma = 0.0 then (if d = 0.0 then 0.0 else Float.copy_sign infinity d) else d /. Float.abs ma
  in
  match sp.bound with
  | None -> ("-", worse)
  | Some bound ->
      let better_everywhere =
        if sp.higher then List.fold_left min infinity b > List.fold_left max neg_infinity a
        else List.fold_left max neg_infinity b < List.fold_left min infinity a
      in
      if Float.max (Stats.spread a) (Stats.spread b) > bound then
        ((if better_everywhere then "improved" else "unresolved"), worse)
      else if worse > bound then ("regressed", worse)
      else if -.worse > bound then ("improved", worse)
      else ("unchanged", worse)

(** Prints the table; returns the number of regressed pairs. *)
let run ~spec a_files b_files =
  let spec = load_spec spec in
  let a = List.map load_result a_files and b = List.map load_result b_files in
  let workloads = List.sort_uniq compare (List.map fst (a @ b)) in
  let values set w m =
    List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt m ms else None) set
  in
  Printf.printf "%-14s %-36s %12s %7s %12s %7s %8s %6s  %s\n" "workload" "metric" "A median" "A iqr"
    "B median" "B iqr" "B worse" "bound" "label";
  let regressed = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, sp) ->
          match (values a w m, values b w m) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let l, worse = label sp va vb in
              if l = "regressed" then incr regressed;
              Printf.printf "%-14s %-36s %12.5g %6.2f%% %12.5g %6.2f%% %7.2f%% %6s  %s\n" w m
                (Stats.median va) (100.0 *. Stats.spread va) (Stats.median vb)
                (100.0 *. Stats.spread vb) (100.0 *. worse)
                (match sp.bound with Some x -> Printf.sprintf "%g%%" (100.0 *. x) | None -> "-")
                l)
        spec)
    workloads;
  !regressed
