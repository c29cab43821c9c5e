type privileged = { cpu_ref : Cpu.t }

type slot = Nop | Fn of string

module Tbl = Simurgh_util.Int_tbl

type t = {
  cpu : Cpu.t;
  witness : privileged;  (** the one witness every protected call presents *)
  mutable code_pages : int list;  (** pages holding protected code *)
  mutable stack_pages : int list;  (** pages holding protected stacks *)
  slots : slot Tbl.t;  (** address -> slot *)
  by_name : (string, int) Hashtbl.t;
  bodies : (privileged -> unit) Tbl.t;
      (** monomorphic trampoline per address; the typed closure is
          captured by the stub returned from [register] *)
  mutable next_page : int;
  mutable next_slot : int;  (** 0..3 within [current code page] *)
  mutable sealed : bool;
  mutable euid : int;
  mutable egid : int;
}

let entry_offsets = [ 0x000; 0x400; 0x800; 0xc00 ]
let slots_per_page = List.length entry_offsets

(* Protected code lives in a reserved high range of the address space;
   the concrete value only matters for page-table bookkeeping.  Protected
   stacks sit just below the code range (Section 3.2). *)
let code_base_page = 0x7f000
let stack_base_page = 0x7e000
let stack_page_count = 2

let bootstrap cpu ~euid ~egid =
  (* Fig. 2: the preload library calls load_protected(); the kernel
     security module maps the pages, flags them protected and stores the
     caller's credentials inside them. *)
  let t =
    {
      cpu;
      witness = { cpu_ref = cpu };
      code_pages = [];
      stack_pages = [];
      slots = Tbl.create 16;
      by_name = Hashtbl.create 16;
      bodies = Tbl.create 16;
      next_page = code_base_page;
      next_slot = 0;
      sealed = false;
      euid;
      egid;
    }
  in
  (* Section 3.2: each thread's stack pointer is relocated onto a
     protected stack while inside a protected function.  The stack pages
     are supervisor-mapped (writable from kernel mode only, not ep) so a
     sibling user-mode thread can neither read return addresses nor
     overwrite them. *)
  for i = 0 to stack_page_count - 1 do
    let page = stack_base_page + i in
    Page_table.map cpu.Cpu.page_table ~page ~kernel:true ~writable:true;
    t.stack_pages <- page :: t.stack_pages
  done;
  t

let cpu t = t.cpu
let pages t = t.code_pages
let stack_pages t = t.stack_pages

let fresh_code_page t =
  let page = t.next_page in
  t.next_page <- t.next_page + 1;
  (* The kernel module maps the page and sets ep: both require kernel
     mode, which the bootstrap path has. *)
  Page_table.map t.cpu.Cpu.page_table ~page ~kernel:true ~writable:false;
  Page_table.set_ep t.cpu.Cpu.page_table ~mode:Privilege.Kernel ~page;
  (* Unused entry slots start as nop instructions: jmpp to them faults
     (Section 3.1's open() example, Fig. 1). *)
  List.iter
    (fun off ->
      Tbl.replace t.slots ((page * Page_table.page_size) + off) Nop)
    entry_offsets;
  t.code_pages <- page :: t.code_pages;
  page

let assign_address t =
  if t.next_slot = 0 then ignore (fresh_code_page t);
  let page = List.hd t.code_pages in
  let offset = List.nth entry_offsets t.next_slot in
  t.next_slot <- (t.next_slot + 1) mod slots_per_page;
  (page * Page_table.page_size) + offset

(* --- jmpp / pret semantics ------------------------------------------- *)

let rec is_entry_offset offset = function
  | [] -> false
  | o :: rest -> Int.equal offset o || is_entry_offset offset rest

let jmpp_check t addr =
  let page = Page_table.page_of_addr addr in
  let offset = Page_table.offset_of_addr addr in
  (match Page_table.find_opt t.cpu.Cpu.page_table page with
  | Some pte when pte.Page_table.present && pte.Page_table.ep -> ()
  | Some _ | None -> Fault.raise_ (Jmpp_target_not_protected page));
  if not (is_entry_offset offset entry_offsets) then
    Fault.raise_ (Jmpp_bad_entry_offset { page; offset });
  match Tbl.find_opt t.slots addr with
  | Some (Fn _) -> ()
  | Some Nop | None ->
      (* the first instruction at an unused entry is a nop: jumping there
         raises immediately (Section 3.1) *)
      Fault.raise_ (Entry_is_nop { page; offset })

let enter t =
  let c = t.cpu in
  c.Cpu.mode <- Privilege.Kernel;
  c.Cpu.jmpp_nest <- c.Cpu.jmpp_nest + 1;
  (* stack pointer relocated into protected pages so sibling threads
     cannot corrupt the return address (Section 3.2) *)
  c.Cpu.on_protected_stack <- true

let pret t =
  let c = t.cpu in
  if c.Cpu.jmpp_nest <= 0 then Fault.raise_ Pret_without_jmpp;
  c.Cpu.jmpp_nest <- c.Cpu.jmpp_nest - 1;
  if c.Cpu.jmpp_nest = 0 then begin
    c.Cpu.mode <- Privilege.User;
    c.Cpu.on_protected_stack <- false
  end

let pret_bracket t () () = pret t

(* Exception-safe unwinding (same shape as Vlock's [with_lock]): [enter]
   and [pret] bracket the body via [Simurgh_util.bracket], and nothing
   that can raise runs between [enter] and the handler installation.  A
   fault inside the body therefore always restores the privilege level
   and never leaves the nesting counter stuck in kernel mode. *)
let protected_call t body =
  enter t;
  Simurgh_util.bracket pret_bracket t () () body

let jmpp_raw t addr =
  jmpp_check t addr;
  (* The body lookup must happen before [enter]: a raise after the CPL
     switch but before the unwinding handler is installed would strand the
     CPU in kernel mode (the with_lock leak pattern fixed in the locking
     layer). *)
  let body = Tbl.find t.bodies addr in
  protected_call t (fun () -> body t.witness)

let register t ~name f =
  if t.sealed then
    invalid_arg "Protected.register: universe sealed after bootstrap";
  let addr = assign_address t in
  Tbl.replace t.slots addr (Fn name);
  Hashtbl.replace t.by_name name addr;
  (* Monomorphic trampoline used by jmpp_raw (argument-less). *)
  Tbl.replace t.bodies addr (fun _witness -> ());
  fun arg ->
    jmpp_check t addr;
    protected_call t (fun () -> f t.witness arg)

let seal t = t.sealed <- true
let address_of t name = Hashtbl.find t.by_name name
let euid w t = ignore w; t.euid
let egid w t = ignore w; t.egid

let check_privileged w cpu =
  assert (w.cpu_ref == cpu);
  assert (Cpu.mode cpu = Privilege.Kernel)
