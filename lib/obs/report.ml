(** Per-experiment result capture and JSON export.

    Experiments keep printing their human-readable tables exactly as
    before; the bench helpers mirror every table row in here, and at the
    end of the experiment [finish ~dir] serializes the tables plus the
    merged observability snapshot to [BENCH_<id>.json].  When no
    experiment is active (library/test use) every call is a no-op.

    This is the one result format of the harness: the committed
    [BENCH_*.json] files are written by this writer and no other.

    Schema ("simurgh-bench-v1") — see DESIGN.md "Observability":
    {v
    { "schema": "simurgh-bench-v1",
      "run": "<experiment id>", "scale": <float>,
      "host": { "wall_s": num, "peak_rss_mb": num | null },
      "tables": [ { "title": str, "columns": [str...],
                    "rows": [ { "label": str, "values": [num...] } ] } ],
      "notes": [str...],
      "obs": { "counters": { name: num, ... },
               "spans": { "fs_cycles": num, "lock_wait_cycles": num,
                          "flush_cycles": num, "copy_bytes": int },
               "lock_sites": [ { "site": str, "kind": str,
                                 "acquisitions": int, "contended": int,
                                 "uncontended": int, "wait_cycles": num,
                                 "hold_cycles": num } ],
               "op_latency_cycles": { "<fs>/<op>":
                 { "count": int, "mean": num, "min": num, "max": num,
                   "p50": num, "p90": num, "p99": num, "p999": num } } } }
    v} *)

type table = {
  title : string;
  columns : string list;
  mutable rows : (string * float list) list;  (** reversed *)
}

type exp = {
  id : string;
  mutable tables : table list;  (** reversed; head = current *)
  mutable notes : string list;  (** reversed *)
}

let current : exp option ref = ref None

let begin_exp id = current := Some { id; tables = []; notes = [] }
let active () = !current <> None

(** Open a new table; subsequent [row] calls append to it. *)
let table ~title ~columns =
  match !current with
  | Some e -> e.tables <- { title; columns; rows = [] } :: e.tables
  | None -> ()

(** Open a new table only if the current one has a different title. *)
let ensure_table ~title ~columns =
  match !current with
  | Some e -> (
      match e.tables with
      | t :: _ when t.title = title -> ()
      | _ -> table ~title ~columns)
  | None -> ()

let row label values =
  match !current with
  | Some { tables = t :: _; _ } -> t.rows <- (label, values) :: t.rows
  | _ -> ()

let note s =
  match !current with Some e -> e.notes <- s :: e.notes | None -> ()

let table_to_json t =
  Json.Obj
    [
      ("title", Json.Str t.title);
      ("columns", Json.List (List.map (fun c -> Json.Str c) t.columns));
      ( "rows",
        Json.List
          (List.rev_map
             (fun (label, values) ->
               Json.Obj
                 [
                   ("label", Json.Str label);
                   ( "values",
                     Json.List (List.map (fun v -> Json.Float v) values) );
                 ])
             t.rows) );
    ]

(* Filenames keep [a-zA-Z0-9._-]; anything else ("tab2+fig8") maps to '_'. *)
let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    id

(** The process's peak resident set ([VmHWM] of /proc/self/status) in
    MB; [None] where that file is missing. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb ->
                 float_of_int kb /. 1024.))

(** Write BENCH_<id>.json into [dir] and close the experiment.  [wall_s]
    is the experiment's host wall-clock time; the host block also
    records the process's peak RSS, which belongs to this experiment
    when it is the only one the process ran.  Returns the path
    written. *)
let finish ~dir ~scale ~wall_s ~obs =
  match !current with
  | None -> None
  | Some e ->
      current := None;
      let path = Filename.concat dir ("BENCH_" ^ sanitize e.id ^ ".json") in
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "simurgh-bench-v1");
            ("run", Json.Str e.id);
            ("scale", Json.Float scale);
            ( "host",
              Json.Obj
                [
                  ("wall_s", Json.Float wall_s);
                  ( "peak_rss_mb",
                    match peak_rss_mb () with
                    | Some mb -> Json.Float mb
                    | None -> Json.Null );
                ] );
            ("tables", Json.List (List.rev_map table_to_json e.tables));
            ( "notes",
              Json.List (List.rev_map (fun n -> Json.Str n) e.notes) );
            ("obs", Run.to_json obs);
          ]
      in
      let oc = open_out path in
      Json.to_channel oc doc;
      close_out oc;
      Some path

(** Close the experiment without writing anything. *)
let discard () = current := None
