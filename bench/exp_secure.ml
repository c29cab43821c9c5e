(** Run id [secure]: cost of the security plane.

    Every public FS operation now runs between jmpp and pret on the
    mount's protected universe (DESIGN.md Section 16).  This experiment
    prices that choice across FxMark workloads at 1-40 threads, three
    configurations of the same file system:

    - [Simurgh-plain]: [call_mode Plain] — the entry point is an
      ordinary library call (the insecure upper bound the paper argues
      protected functions nearly match);
    - [Simurgh]: the published configuration — protected entry
      (jmpp/pret + protected stack) on legacy media, root credentials,
      so per-user checks never fire;
    - [Simurgh-secure]: full enforcement — secure media (per-fentry
      owner words), a non-root tenant whose credentials are checked
      against the owner word on every resolve hop, and a live per-uid
      block quota charged on every allocation.

    The headline gate is the protected-vs-plain overhead on fig7a at the
    top thread count, which must stay at or below 15%.  Results are
    printed as the usual per-thread tables and mirrored into
    {!Simurgh_obs.Report}, the gate as a table of its own.

    A flag-off self-check asserts that a default (non-secure) format
    leaves the security plane entirely out of the media: superblock word
    68 reads zero and file entries keep their legacy 72-byte payload, so
    the published figures are reproduced bit-identically (the [make
    check] figure diff enforces that end to end). *)

open Simurgh_workloads
module Fs = Simurgh_core.Fs
module Layout = Simurgh_core.Layout
module Fentry = Simurgh_core.Fentry
module Region = Simurgh_nvmm.Region
module Slab = Simurgh_alloc.Slab_alloc
module Report = Simurgh_obs.Report

let thread_counts = [ 1; 2; 4; 8; 16; 24; 32; 40 ]
let overhead_budget_pct = 15.0

(* (short id, bench, base ops/thread) — the metadata bench the gate
   reads (7a), a resolve-heavy bench where the per-hop permission check
   shows (7e), and a data bench where quota charging rides every
   allocation (7g) *)
let benches =
  [
    ("7a", Fxmark.Create_private, 1000);
    ("7e", Fxmark.Resolve_private, 2000);
    ("7g", Fxmark.Append_private, 750);
  ]

let region_mb_for ~threads ~ops = max 128 (64 + (threads * ops * 6 / 1024))

let fresh_plain ~region_mb () =
  let region = Region.create (region_mb * 1024 * 1024) in
  Fs.mkfs ~euid:0 ~call_mode:Fs.Plain region

let fresh_protected ~region_mb () =
  let region = Region.create (region_mb * 1024 * 1024) in
  Fs.mkfs ~euid:0 region

(* Full enforcement: secure media formatted by a root mount that opens
   the root directory to the tenant and installs a (roomy) quota, then a
   second mount carrying the tenant's credentials runs the workload.
   Every resolve hop pays the owner-word check and every block
   allocation pays the quota charge. *)
let fresh_secure ~region_mb () =
  let region = Region.create (region_mb * 1024 * 1024) in
  let root = Fs.mkfs ~euid:0 ~secure:true region in
  Fs.chmod root "/" 0o777;
  Fs.set_quota root ~uid:1000 ~blocks:(1 lsl 40);
  Fs.mount ~euid:1000 ~egid:1000 region

let sweep fresh bench ~ops =
  List.map
    (fun threads ->
      let region_mb = region_mb_for ~threads ~ops in
      let fs = fresh ~region_mb () in
      let machine = Simurgh_sim.Machine.create () in
      let r = Targets.Fx_simurgh.run machine fs bench ~threads ~ops in
      Util.kops r.Fxmark.throughput)
    thread_counts

let overhead_pct base cost =
  List.map2
    (fun b c -> if b > 0.0 then (b -. c) /. b *. 100.0 else 0.0)
    base cost

let print_thread_header title =
  Report.table ~title
    ~columns:(List.map (Printf.sprintf "t%d") thread_counts);
  Printf.printf "%-22s" "threads";
  List.iter (fun t -> Printf.printf " %9d" t) thread_counts;
  print_newline ()

(* The security plane must be invisible on legacy media: a default
   format writes nothing at the superblock's secure word and keeps the
   72-byte fentry payload, so every published figure replays on
   bit-identical media. *)
let flag_off_selfcheck () =
  let region = Region.create (4 * 1024 * 1024) in
  let layout = Layout.format region ~cores:2 in
  let word = Region.read_u32 region 68 in
  let fe_size = Slab.obj_size layout.Layout.fentry_slab in
  if word <> 0 then failwith "secure: legacy format wrote the secure word";
  if fe_size <> Fentry.payload_size then
    failwith "secure: legacy format widened the fentry payload";
  let secure_region = Region.create (4 * 1024 * 1024) in
  let secure_layout = Layout.format ~secure:true secure_region ~cores:2 in
  if Slab.obj_size secure_layout.Layout.fentry_slab <> Fentry.secure_payload_size
  then failwith "secure: secure format kept the legacy fentry payload";
  Printf.printf
    "flag-off self-check: legacy media untouched (secure word 0, fentry \
     payload %d B; secure format widens to %d B)\n"
    fe_size Fentry.secure_payload_size

let run ~scale =
  Report.note
    "kops: virtual-time Kops/s; plain: call_mode Plain (library call, \
     insecure); protected: published configuration (jmpp/pret entry, root \
     creds, legacy media); secure: protected entry + secure media owner \
     words + non-root tenant + live per-uid quota; overhead_pct is \
     relative to plain";
  flag_off_selfcheck ();
  let tmax = List.fold_left max 1 thread_counts in
  let last l = List.nth l (List.length l - 1) in
  let gate = ref nan in
  List.iter
    (fun (id, bench, base_ops) ->
      let ops = Util.scaled ~scale base_ops in
      let title =
        Printf.sprintf
          "secure %s: %s plain vs protected vs full enforcement (Kops/s; %d \
           ops/thread)"
          id (Fxmark.bench_name bench) ops
      in
      Util.header title;
      print_thread_header title;
      let plain_kops = sweep fresh_plain bench ~ops in
      Util.series "Simurgh-plain" " %9.0f" plain_kops;
      let protected_kops = sweep fresh_protected bench ~ops in
      Util.series "Simurgh" " %9.0f" protected_kops;
      let secure_kops = sweep fresh_secure bench ~ops in
      Util.series "Simurgh-secure" " %9.0f" secure_kops;
      let protected_overhead_pct = overhead_pct plain_kops protected_kops in
      Util.series "protected ovh %" " %9.2f" protected_overhead_pct;
      Util.series "secure ovh %" " %9.2f" (overhead_pct plain_kops secure_kops);
      if id = "7a" then gate := last protected_overhead_pct)
    benches;
  (* --- the acceptance gate -------------------------------------------- *)
  let gate = !gate in
  let gate_ok = gate <= overhead_budget_pct in
  Printf.printf
    "gate: fig7a protected-vs-plain overhead at t%d = %.2f%% (budget %.0f%%) \
     -> %s\n"
    tmax gate overhead_budget_pct
    (if gate_ok then "PASS" else "FAIL");
  Report.table
    ~title:
      (Printf.sprintf "secure gate: fig7a protected-vs-plain overhead at t%d"
         tmax)
    ~columns:[ "overhead_pct"; "budget_pct"; "pass" ];
  Report.row "7a" [ gate; overhead_budget_pct; (if gate_ok then 1.0 else 0.0) ];
  if not gate_ok then
    failwith
      (Printf.sprintf
         "secure: protected-path overhead %.2f%% exceeds the %.0f%% budget"
         gate overhead_budget_pct)
