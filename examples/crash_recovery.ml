(* Crash-recovery scenario: a power failure in the middle of a rename on
   a strict-persistence region, followed by Simurgh's mark-and-sweep
   recovery (paper Sections 4.3 and 5.5).

   The strict region keeps unflushed cache lines in a volatile overlay:
   Region.crash drops everything that was not explicitly persisted, the
   adversarial model of a power cut.

   Run with: dune exec examples/crash_recovery.exe *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery

exception Power_failure

let require what ok =
  if not ok then begin
    prerr_endline ("crash_recovery: invariant failed: " ^ what);
    exit 1
  end

let () =
  let region =
    Simurgh_nvmm.Region.create ~mode:Simurgh_nvmm.Region.Strict
      (64 * 1024 * 1024)
  in
  let fs = Fs.mkfs ~euid:0 region in

  (* a small population *)
  Fs.mkdir fs "/inbox";
  Fs.mkdir fs "/archive";
  for i = 0 to 19 do
    Fs.create_file fs (Printf.sprintf "/inbox/mail%02d" i)
  done;
  let fd = Fs.openf fs Types.wronly "/inbox/mail07" in
  ignore (Fs.append fs fd (Bytes.of_string "do not lose this"));
  Fs.close fs fd;
  print_endline "populated /inbox with 20 messages";

  (* crash in the middle of a cross-directory rename: the FS exposes a
     hook at every persist point; we cut power at the 4th step *)
  let steps = ref 0 in
  Fs.set_crash_hook fs (fun label ->
      incr steps;
      if !steps = 4 then begin
        Printf.printf "power failure at rename step %d (%s)!\n" !steps label;
        raise Power_failure
      end);
  (try Fs.rename fs "/inbox/mail07" "/archive/mail07"
   with Power_failure -> Simurgh_nvmm.Region.crash region);

  (* recover: scan all metadata, finish or roll back the rename, rebuild
     the allocators *)
  print_endline "running mark-and-sweep recovery...";
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  Fmt.pr "recovery report: %a\n" Recovery.pp_report report;

  let in_inbox = Fs.exists fs' "/inbox/mail07" in
  let in_archive = Fs.exists fs' "/archive/mail07" in
  Printf.printf "mail07: inbox=%b archive=%b (exactly one must hold)\n"
    in_inbox in_archive;
  require "mail07 is in exactly one directory" (in_inbox <> in_archive);
  let where = if in_inbox then "/inbox/mail07" else "/archive/mail07" in
  let fd = Fs.openf fs' Types.rdonly where in
  let content = Bytes.to_string (Fs.pread fs' fd ~pos:0 ~len:100) in
  Printf.printf "its content survived: %S\n" content;
  require "mail07's content survived" (content = "do not lose this");
  Fs.close fs' fd;
  let others = List.length (Fs.readdir fs' "/inbox") in
  Printf.printf "other messages intact: %d in /inbox\n" others;
  require "/inbox keeps its other messages"
    (others = if in_inbox then 20 else 19);
  print_endline "crash recovery done"
