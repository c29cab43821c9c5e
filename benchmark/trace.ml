(** Spans recorded by the traced run, around the benchmark's own calls
    into each layer ([Db] and [Fs_intf.S]).

    Counts, durations and per-call latencies are kept for every call;
    full span records (name, virtual and host start and end, parent,
    request id) only for 1 request in 16, chosen by request id.  Spans
    stay in memory and are written once, as Chrome trace-event JSON, at
    exit.  Recording charges no virtual time. *)

(* A growable float buffer: per-call latencies are kept raw so the
   percentiles are exact. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;
  client : int;
  name : string;
  v0 : float;  (** virtual start, cycles *)
  v1 : float;
  h0 : float;  (** host start, seconds since the epoch *)
  h1 : float;
}

(** Totals of one span name. *)
type stat = {
  mutable calls : int;
  mutable vtime : float;  (** virtual cycles inside the span *)
  mutable vself : float;  (** the same minus the time child spans cover *)
  mutable host : float;  (** host seconds inside the span *)
  mutable bytes : int;  (** payload bytes written (append, pwrite) *)
  lat : Fbuf.t;  (** every call's virtual duration, cycles *)
}

type frame = { fid : int; mutable child_v : float }

type t = {
  stats : (string, stat) Hashtbl.t;
  mutable spans : span list;  (** sampled, newest first *)
  mutable next_id : int;
  mutable stack : frame list;
  mutable req : int;
  mutable client : int;
}

let st =
  { stats = Hashtbl.create 32; spans = []; next_id = 1; stack = []; req = 0; client = 0 }

let reset () =
  Hashtbl.reset st.stats;
  st.spans <- [];
  st.next_id <- 1;
  st.stack <- []

(** The request the next spans belong to. *)
let request ~client req =
  st.client <- client;
  st.req <- req

let sampled req = req land 15 = 0

let stat name =
  match Hashtbl.find_opt st.stats name with
  | Some s -> s
  | None ->
      let s = { calls = 0; vtime = 0.0; vself = 0.0; host = 0.0; bytes = 0; lat = Fbuf.create () } in
      Hashtbl.replace st.stats name s;
      s

(** [with_span name ~now f] runs [f] inside a span; [now] reads the
    virtual clock of whoever makes the call. *)
let with_span name ~now f =
  let v0 = now () in
  let h0 = Unix.gettimeofday () in
  let id = st.next_id in
  st.next_id <- id + 1;
  let parent = match st.stack with [] -> 0 | p :: _ -> p.fid in
  let fr = { fid = id; child_v = 0.0 } in
  st.stack <- fr :: st.stack;
  let finish () =
    let v1 = now () in
    let h1 = Unix.gettimeofday () in
    st.stack <- List.tl st.stack;
    let dv = v1 -. v0 and dh = h1 -. h0 in
    (match st.stack with p :: _ -> p.child_v <- p.child_v +. dv | [] -> ());
    let s = stat name in
    s.calls <- s.calls + 1;
    s.vtime <- s.vtime +. dv;
    s.vself <- s.vself +. (dv -. fr.child_v);
    s.host <- s.host +. dh;
    Fbuf.push s.lat dv;
    if sampled st.req then
      st.spans <-
        { id; parent; req = st.req; client = st.client; name; v0; v1; h0; h1 } :: st.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let add_bytes name n =
  let s = stat name in
  s.bytes <- s.bytes + n

(** Sum of [f] over the stats whose name starts with [prefix]. *)
let sum prefix f =
  Hashtbl.fold
    (fun name s acc -> if String.starts_with ~prefix name then acc +. f s else acc)
    st.stats 0.0

(** Write the sampled spans as Chrome trace-event JSON (Perfetto opens
    it): one lane per client on the virtual timeline, host times and
    the span tree in [args]. *)
let write_chrome ~cm path =
  let us c = Simurgh_sim.Cost_model.seconds cm c *. 1e6 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.4f, \"dur\": %.4f, \
         \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d, \"host_start_us\": %.3f, \
         \"host_dur_us\": %.3f}}\n"
        (if i = 0 then "" else ",")
        s.name s.client (us s.v0) (us (s.v1 -. s.v0)) s.id s.parent s.req (s.h0 *. 1e6)
        ((s.h1 -. s.h0) *. 1e6))
    (List.rev st.spans);
  output_string oc "]}\n";
  close_out oc
