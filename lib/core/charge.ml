(** Virtual-time charging helpers.  Every file-system entry point takes
    an optional [Machine.ctx]; with [None] (unit tests) charging is a
    no-op and only the real data-structure work happens. *)

open Simurgh_sim

type ctx = Machine.ctx option

let cpu ?ctx cycles =
  match ctx with None -> () | Some c -> Machine.cpu c cycles

(* Metadata line reads use the blended (partially cached) latency. *)
let read_lines ?ctx n =
  match ctx with None -> () | Some c -> Machine.nvmm_meta_read_lines c n

let write_lines ?ctx n =
  match ctx with None -> () | Some c -> Machine.nvmm_write_lines c n

let nvmm_read ?ctx bytes =
  match ctx with None -> () | Some c -> Machine.nvmm_read c bytes

let nvmm_write ?ctx bytes =
  match ctx with None -> () | Some c -> Machine.nvmm_write c bytes

let memcpy ?ctx bytes =
  match ctx with None -> () | Some c -> Machine.memcpy_cpu c bytes

let fence ?ctx () = match ctx with None -> () | Some c -> Machine.fence c

let atomic ?ctx ~contended () =
  match ctx with None -> () | Some c -> Machine.atomic c ~contended

(** One atomic on a word whose last toucher is [last], charged by
    {!Vlock.touch_word}; returns the word's next last toucher ([last]
    itself without a context). *)
let touch_word ?ctx last =
  match ctx with None -> last | Some c -> Vlock.touch_word c ~last

(** Run [f] with NVMM line writes charged as posted ntstores (see
    {!Machine.with_posted_writes}); identity without a context. *)
let posted ?ctx f =
  match ctx with None -> f () | Some c -> Machine.with_posted_writes c f

(* exception-safe: a media fault mid-critical-section must not leave the
   lock held (the process keeps running after EIO) *)
let with_spin = Simurgh_alloc.Ctx_util.with_spin
