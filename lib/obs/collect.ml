(** Ambient per-experiment collector.

    The bench driver installs a collector around each experiment; while
    one is active, every freshly created machine registers its
    observability run and every region / file system registers a counter
    source.  [drain] merges everything into one snapshot for the
    experiment's JSON export and uninstalls the collector.  Sources
    hold counter records, never the region or file system they count,
    so collecting keeps no region image alive.

    When no collector is installed (unit tests, library use) all
    registration calls are no-ops, so nothing is retained and runs stay
    strictly per-machine. *)

type collector = {
  mutable runs : Run.t list;
  mutable sources : (unit -> (string * float) list) list;
  added : Metrics.t;  (** counters given by [add] *)
  named : (string, unit) Hashtbl.t;
      (** names claimed by [note_source ~name] registrations *)
}

exception Duplicate_source of string

let () =
  Printexc.register_printer (function
    | Duplicate_source n ->
        Some (Printf.sprintf "Collect.Duplicate_source(%S)" n)
    | _ -> None)

let current : collector option ref = ref None

let install () =
  current :=
    Some
      {
        runs = [];
        sources = [];
        added = Metrics.create ();
        named = Hashtbl.create 8;
      }

let active () = !current <> None

(** Register a machine's run (idempotent per run). *)
let note_run r =
  match !current with
  | Some c -> if not (List.memq r c.runs) then c.runs <- r :: c.runs
  | None -> ()

(** Register a thunk producing (counter, value) pairs sampled at drain
    time (region stats, allocator stats, lock registry sizes...).

    Anonymous registrations keep the historical behavior: same-named
    counters from different sources are {e summed} at drain (every
    region of an experiment contributes to one aggregate [region/...]
    family).  A [~name]d registration claims its name exclusively for
    the current collector — a second registration under the same name
    raises {!Duplicate_source}, catching the two-live-regions (or
    two-machines) shadowing bug instead of silently merging streams
    that were meant to stay apart. *)
let note_source ?name f =
  match !current with
  | None -> ()
  | Some c ->
      (match name with
      | None -> ()
      | Some n ->
          if Hashtbl.mem c.named n then raise (Duplicate_source n);
          Hashtbl.replace c.named n ());
      c.sources <- f :: c.sources

(** Add (counter, value) pairs to the active collector's snapshot now,
    summing with same-named counters — for totals known only once some
    work is done (a recovery run, an explorer sweep). *)
let add pairs =
  match !current with
  | None -> ()
  | Some c -> List.iter (fun (k, v) -> Metrics.add c.added k v) pairs

(** Merge all registered runs and sampled sources into one fresh run,
    then uninstall the collector. *)
let drain () =
  match !current with
  | None -> Run.create ()
  | Some c ->
      current := None;
      let acc = Run.create () in
      List.iter (fun r -> Run.merge_into acc r) (List.rev c.runs);
      List.iter
        (fun src ->
          List.iter (fun (k, v) -> Metrics.add acc.Run.counters k v) (src ()))
        (List.rev c.sources);
      Metrics.merge_into acc.Run.counters c.added;
      acc

(** Abandon the current collector without draining. *)
let discard () = current := None
