(* Quickstart: create a Simurgh file system in a simulated NVMM region
   and exercise the POSIX-style API.

   Run with: dune exec examples/quickstart.exe *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs

let require what ok =
  if not ok then begin
    prerr_endline ("quickstart: invariant failed: " ^ what);
    exit 1
  end

let () =
  (* 1. A 64 MiB simulated NVMM region (stands in for an mmap'ed
        /dev/dax namespace). *)
  let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in

  (* 2. Format it: superblock, allocators, root directory.  Like any
        mkfs, the root directory belongs to uid 0, so we format and use
        it as root here; see examples/secure_mode.ml for per-user
        credentials. *)
  let fs = Fs.mkfs ~euid:0 ~egid:0 region in
  print_endline "formatted a Simurgh file system";

  (* 3. Build a small hierarchy. *)
  Fs.mkdir fs "/projects";
  Fs.mkdir fs "/projects/simurgh";
  Fs.create_file fs "/projects/simurgh/notes.txt";

  (* 4. Write and read data. *)
  let fd = Fs.openf fs Types.rdwr "/projects/simurgh/notes.txt" in
  let text = "NVMM file systems bypass the kernel for every operation.\n" in
  let n = Fs.append fs fd (Bytes.of_string text) in
  Printf.printf "wrote %d bytes\n" n;
  let back = Fs.pread fs fd ~pos:0 ~len:n in
  Printf.printf "read back: %s" (Bytes.to_string back);
  require "the bytes read back are the bytes written"
    (Bytes.to_string back = text);
  Fs.close fs fd;

  (* 5. Metadata operations. *)
  let st = Fs.stat fs "/projects/simurgh/notes.txt" in
  Printf.printf "stat: kind=%s size=%d perm=%o nlink=%d\n"
    (Fmt.str "%a" Types.pp_kind st.Types.kind)
    st.Types.size st.Types.perm st.Types.nlink;
  Fs.rename fs "/projects/simurgh/notes.txt" "/projects/simurgh/README";
  Fs.symlink fs ~target:"/projects/simurgh/README" "/readme-link";
  Printf.printf "symlink resolves to %d bytes\n"
    (Fs.stat fs "/readme-link").Types.size;

  (* 6. Directory listing. *)
  Printf.printf "ls /projects/simurgh: %s\n"
    (String.concat ", " (Fs.readdir fs "/projects/simurgh"));

  (* 7. Remount: everything is persistent in the region. *)
  Fs.unmount fs;
  let fs2 = Fs.mount ~euid:0 ~egid:0 region in
  let size = (Fs.stat fs2 "/projects/simurgh/README").Types.size in
  Printf.printf "after remount, README still has %d bytes\n" size;
  require "README keeps its size across the remount" (size = n);
  print_endline "quickstart done"
