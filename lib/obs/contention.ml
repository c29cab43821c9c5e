(** Per-site lock contention profile.

    Replaces the old process-global [Vlock.Spin.total_wait] /
    [wait_by_site] refs: a registry lives inside one {!Run.t} (one
    engine run / one machine), so consecutive experiments cannot bleed
    wait cycles into each other.  Sites are the call-site labels the
    locks are created with ("dir-row", "balloc-seg", "vfs-rwsem", ...).

    Recording is hash-free: each lock resolves its site once per
    (lock, registry) through a {!handle}, after which an acquisition
    costs two integer adds and one float add, and the float adds go to
    an all-float record (stored unboxed, no allocation). *)

type kind = Spin | Mutex | Rwlock

let kind_name = function
  | Spin -> "spin"
  | Mutex -> "mutex"
  | Rwlock -> "rwlock"

type cycles = {
  mutable wait : float;  (** virtual cycles spent waiting *)
  mutable hold : float;  (** virtual cycles the lock was held *)
}

type site = {
  kind : kind;
  mutable acquisitions : int;
  mutable contended : int;  (** acquisitions that had to wait *)
  cycles : cycles;
}

let hold_cycles s = s.cycles.hold

type t = {
  sites : (string, site) Hashtbl.t;
  mutable generation : int;
      (** bumped by {!clear}: sites resolved before it are stale *)
}

let create () : t = { sites = Hashtbl.create 16; generation = 0 }

let clear (t : t) =
  Hashtbl.reset t.sites;
  t.generation <- t.generation + 1

let site (t : t) name kind =
  match Hashtbl.find_opt t.sites name with
  | Some s -> s
  | None ->
      let s =
        {
          kind;
          acquisitions = 0;
          contended = 0;
          cycles = { wait = 0.0; hold = 0.0 };
        }
      in
      Hashtbl.replace t.sites name s;
      s

(** A lock's handle on its site: the label and kind it reports under,
    and the site last resolved, valid while it names the same registry
    (physical equality) at the same generation. *)
type handle = {
  name : string;
  site_kind : kind;
  mutable reg : t;
  mutable gen : int;
  mutable cached : site;
}

(* Placeholders of a fresh handle: generation -1 never matches. *)
let unresolved = create ()
let no_site = site (create ()) "" Spin

let handle name site_kind =
  { name; site_kind; reg = unresolved; gen = -1; cached = no_site }

(** [h]'s site in [reg]: a hash lookup (and, on first use in [reg], an
    insertion — so registry order is the order of first use, as with a
    lookup on every acquisition) only when [h] is stale. *)
let resolve h (reg : t) =
  if h.reg == reg && h.gen = reg.generation then h.cached
  else begin
    let s = site reg h.name h.site_kind in
    h.reg <- reg;
    h.gen <- reg.generation;
    h.cached <- s;
    s
  end

(** One acquisition: [wait] virtual cycles spent blocked (0 when the
    lock was free). *)
let[@inline] acquired s ~wait =
  s.acquisitions <- s.acquisitions + 1;
  if wait > 0.0 then begin
    s.contended <- s.contended + 1;
    s.cycles.wait <- s.cycles.wait +. wait
  end

let[@inline] held s ~hold =
  if hold > 0.0 then s.cycles.hold <- s.cycles.hold +. hold

(** {!acquired} by site name. *)
let record_acquire t ~site:name ~kind ~wait = acquired (site t name kind) ~wait

let total_wait (t : t) =
  Hashtbl.fold (fun _ s acc -> acc +. s.cycles.wait) t.sites 0.0

let total_acquisitions (t : t) =
  Hashtbl.fold (fun _ s acc -> acc + s.acquisitions) t.sites 0

let wait_of (t : t) name =
  match Hashtbl.find_opt t.sites name with
  | Some s -> s.cycles.wait
  | None -> 0.0

(** Aggregate (acquisitions, contended, wait_cycles) over every site
    whose name starts with [prefix] — striped lock families (e.g. the
    per-row "file-range/" sites) report per-row for attribution but are
    usually summarized as one line. *)
let sum_of_prefix (t : t) prefix =
  Hashtbl.fold
    (fun name s ((acq, cont, wait) as acc) ->
      if String.starts_with ~prefix name then
        (acq + s.acquisitions, cont + s.contended, wait +. s.cycles.wait)
      else acc)
    t.sites (0, 0, 0.0)

(** Sorted (site, stats) pairs — deterministic export order. *)
let to_list (t : t) =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.sites []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into (dst : t) (src : t) =
  Hashtbl.iter
    (fun name s ->
      let d = site dst name s.kind in
      d.acquisitions <- d.acquisitions + s.acquisitions;
      d.contended <- d.contended + s.contended;
      d.cycles.wait <- d.cycles.wait +. s.cycles.wait;
      d.cycles.hold <- d.cycles.hold +. s.cycles.hold)
    src.sites

let to_json t =
  Json.List
    (List.map
       (fun (name, s) ->
         Json.Obj
           [
             ("site", Json.Str name);
             ("kind", Json.Str (kind_name s.kind));
             ("acquisitions", Json.Int s.acquisitions);
             ("contended", Json.Int s.contended);
             ("uncontended", Json.Int (s.acquisitions - s.contended));
             ("wait_cycles", Json.Float s.cycles.wait);
             ("hold_cycles", Json.Float s.cycles.hold);
           ])
       (to_list t))
