(** Helpers shared by the allocators: all allocator entry points accept
    an optional virtual-time context so the same code paths serve both
    benchmarks (with time accounting) and unit tests (without). *)

let with_spin ?ctx lock f =
  match ctx with
  | None -> f ()
  | Some ctx ->
      (* exception-safe: errors (e.g. media faults) must release locks *)
      Simurgh_sim.Vlock.Spin.with_lock ctx lock f
