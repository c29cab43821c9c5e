(** Allocation-free helpers for the paths every file-system call runs:
    the lock and entry-gate bracket, and integer hashing for the tables
    those paths probe. *)

(** [bracket release a b c body] runs [body ()], then [release a b c]
    on the return path and on the raise path alike; a raise is
    re-raised with the body's original backtrace.  Unlike [Fun.protect]
    the release is a function applied to its arguments, so a caller
    passing a closed (toplevel) function allocates nothing for it.
    Callers whose release needs fewer arguments pass [()]. *)
let[@inline] bracket release a b c body =
  match body () with
  | v ->
      release a b c;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release a b c;
      Printexc.raise_with_backtrace e bt

(** Integer hash mix: multiply by an odd 63-bit constant, then fold the
    high half down.  The fold matters for keys that are block- or
    page-aligned: the product alone keeps their low bits zero, and a
    table's bucket comes from the low bits. *)
let mix x =
  let h = x * 0x1e37_79b9_7f4a_7c15 in
  h lxor (h lsr 32)

(** Hash tables over [int] keys, with monomorphic equality and {!mix}. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)
