(** Per-process page table with the paper's proposed [ep]
    (execute-protected) bit (Section 3.1).

    Invariants enforced here:
    - the [ep] bit can only be set while running in kernel mode;
    - a page with [ep] set can only be written from kernel mode;
    - kernel pages (file-system data/metadata and protected code) are
      inaccessible to user-mode loads and stores;
    - protected mappings cannot be replaced via [remap] (the paper's
      hardened [mmap]). *)

let page_size = 4096
let page_shift = 12

type pte = {
  mutable present : bool;
  mutable kernel : bool;  (** supervisor page: no user access *)
  mutable ep : bool;  (** execute-protected: jmpp target allowed *)
  mutable writable : bool;
}

module Tbl = Simurgh_util.Int_tbl

type t = { entries : pte Tbl.t }

let create () = { entries = Tbl.create 64 }
let page_of_addr addr = addr lsr page_shift
let offset_of_addr addr = addr land (page_size - 1)

let find t page =
  match Tbl.find_opt t.entries page with
  | Some pte when pte.present -> pte
  | _ -> Fault.raise_ (Page_not_present page)

let find_opt t page = Tbl.find_opt t.entries page

(** Install a mapping for [page]. *)
let map t ~page ~kernel ~writable =
  match Tbl.find_opt t.entries page with
  | Some pte when pte.present && pte.ep ->
      Fault.raise_ (Write_to_protected_mapping page)
  | _ ->
      Tbl.replace t.entries page
        { present = true; kernel; ep = false; writable }

(** Replace a mapping (the [mmap] path applications control).  Refuses to
    touch pages carrying protected functions. *)
let remap t ~page ~kernel ~writable =
  (match Tbl.find_opt t.entries page with
  | Some pte when pte.present && pte.ep ->
      Fault.raise_ (Write_to_protected_mapping page)
  | _ -> ());
  Tbl.replace t.entries page
    { present = true; kernel; ep = false; writable }

(** Set the execute-protected bit; only legal in kernel mode. *)
let set_ep t ~mode ~page =
  (match mode with
  | Privilege.User -> Fault.raise_ (Ep_set_from_user page)
  | Privilege.Kernel -> ());
  let pte = find t page in
  pte.ep <- true

(** Hardware access check for a load/store at [addr] in [mode]. *)
let check_access t ~mode ~addr ~write =
  let page = page_of_addr addr in
  let pte = find t page in
  (match mode with
  | Privilege.User when pte.kernel ->
      Fault.raise_ (Kernel_page_access { page; write })
  | _ -> ());
  if write && pte.ep && mode = Privilege.User then
    Fault.raise_ (Kernel_page_access { page; write });
  if write && not pte.writable then
    Fault.raise_ (Kernel_page_access { page; write })
