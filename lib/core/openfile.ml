(** Per-process open-file map (paper Section 4.3, "Open file map").

    Each entry stores the open mode, the current position, the path and
    the persistent pointer to the inode.  Lives in process-private DRAM;
    allocation is a lock-free free-list pop in the real system, modeled
    here by an uncontended atomic charge. *)

type mode = Rdonly | Wronly | Rdwr

type entry = {
  mutable pos : int;
  mode : mode;
  path : string;
  inode : int;  (** persistent pointer *)
  mutable append : bool;
}

type t = {
  mutable table : entry option array;
  mutable free : int list;  (** recycled descriptors *)
  mutable next : int;
}

let create () = { table = Array.make 64 None; free = []; next = 0 }

let grow t =
  let bigger = Array.make (2 * Array.length t.table) None in
  Array.blit t.table 0 bigger 0 (Array.length t.table);
  t.table <- bigger

let alloc ?ctx t ~mode ~path ~inode ~append =
  Charge.atomic ?ctx ~contended:false ();
  let fd =
    match t.free with
    | fd :: rest ->
        t.free <- rest;
        fd
    | [] ->
        let fd = t.next in
        t.next <- t.next + 1;
        if fd >= Array.length t.table then grow t;
        fd
  in
  t.table.(fd) <- Some { pos = 0; mode; path; inode; append };
  fd

let get t fd =
  if fd < 0 || fd >= Array.length t.table then None else t.table.(fd)

let close ?ctx t fd =
  Charge.atomic ?ctx ~contended:false ();
  match get t fd with
  | None -> false
  | Some _ ->
      t.table.(fd) <- None;
      t.free <- fd :: t.free;
      true
