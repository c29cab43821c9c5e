(* simurgh_cli: a small command-line front end over a file-backed region
   image, so the file system can be used interactively:

     simurgh_cli mkfs img.simurgh --size-mb 64
     simurgh_cli mkdir img.simurgh /docs
     simurgh_cli write img.simurgh /docs/a.txt "hello"
     simurgh_cli import img.simurgh /docs/b.txt ./local-file
     simurgh_cli ls img.simurgh /docs
     simurgh_cli cat img.simurgh /docs/a.txt
     simurgh_cli stat img.simurgh /docs/a.txt
     simurgh_cli rm / mv / fsck ...

   The image file holds exactly the persistent bytes; fsck runs the
   mark-and-sweep recovery on it. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Region = Simurgh_nvmm.Region
open Cmdliner

(* A cleanly saved image mounts directly; any other is recovered first. *)
let load_fs img =
  let region = Region.load_from_file img in
  fst (Simurgh_core.Recovery.mount_auto ~euid:0 region)

(* Unmount before saving: the last unmount checkpoints the block free
   lists and sets the clean flag, so the saved image needs no recovery. *)
let save fs img =
  Fs.unmount fs;
  Region.save_to_file (Fs.region fs) img

let img_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"IMAGE" ~doc:"Region image file.")

let path_arg n =
  Arg.(
    required
    & pos n (some string) None
    & info [] ~docv:"PATH" ~doc:"Path inside the file system.")

let wrap f =
  try
    f ();
    0
  with
  | Errno.Err (e, msg) ->
      Printf.eprintf "error: %s (%s)\n" (Errno.to_string e) msg;
      1
  | Sys_error m ->
      Printf.eprintf "error: %s\n" m;
      1

(* --- commands ------------------------------------------------------------ *)

let mkfs_cmd =
  let size_mb =
    Arg.(value & opt int 64 & info [ "size-mb" ] ~doc:"Region size in MiB.")
  in
  let run img size_mb =
    wrap (fun () ->
        let region = Region.create (size_mb * 1024 * 1024) in
        save (Fs.mkfs ~euid:0 region) img;
        Printf.printf "formatted %s (%d MiB)\n" img size_mb)
  in
  Cmd.v (Cmd.info "mkfs" ~doc:"Create and format a region image.")
    Term.(const run $ img_arg $ size_mb)

let ls_cmd =
  let run img path =
    wrap (fun () ->
        let fs = load_fs img in
        List.iter print_endline (List.sort compare (Fs.readdir fs path)))
  in
  Cmd.v (Cmd.info "ls" ~doc:"List a directory.")
    Term.(const run $ img_arg $ path_arg 1)

let mkdir_cmd =
  let run img path =
    wrap (fun () ->
        let fs = load_fs img in
        Fs.mkdir fs path;
        save fs img)
  in
  Cmd.v (Cmd.info "mkdir" ~doc:"Create a directory.")
    Term.(const run $ img_arg $ path_arg 1)

let write_cmd =
  let data =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"DATA" ~doc:"Data to write.")
  in
  let run img path data =
    wrap (fun () ->
        let fs = load_fs img in
        if not (Fs.exists fs path) then Fs.create_file fs path;
        Fs.truncate fs path 0;
        let fd = Fs.openf fs Types.rdwr path in
        ignore (Fs.pwrite fs fd ~pos:0 (Bytes.of_string data));
        Fs.close fs fd;
        save fs img)
  in
  Cmd.v (Cmd.info "write" ~doc:"Write a string to a file (replacing it).")
    Term.(const run $ img_arg $ path_arg 1 $ data)

let import_cmd =
  let src =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"LOCAL" ~doc:"Local file to import.")
  in
  let run img path src =
    wrap (fun () ->
        let fs = load_fs img in
        let ic = open_in_bin src in
        let len = in_channel_length ic in
        let buf = Bytes.create len in
        really_input ic buf 0 len;
        close_in ic;
        if not (Fs.exists fs path) then Fs.create_file fs path;
        Fs.truncate fs path 0;
        let fd = Fs.openf fs Types.rdwr path in
        ignore (Fs.pwrite fs fd ~pos:0 buf);
        Fs.close fs fd;
        save fs img;
        Printf.printf "imported %d bytes\n" len)
  in
  Cmd.v (Cmd.info "import" ~doc:"Import a local file.")
    Term.(const run $ img_arg $ path_arg 1 $ src)

let cat_cmd =
  let run img path =
    wrap (fun () ->
        let fs = load_fs img in
        let st = Fs.stat fs path in
        let fd = Fs.openf fs Types.rdonly path in
        print_bytes (Fs.pread fs fd ~pos:0 ~len:st.Types.size);
        Fs.close fs fd)
  in
  Cmd.v (Cmd.info "cat" ~doc:"Print a file's contents.")
    Term.(const run $ img_arg $ path_arg 1)

let stat_cmd =
  let run img path =
    wrap (fun () ->
        let fs = load_fs img in
        let st = Fs.stat fs path in
        Printf.printf "%s: %s size=%d perm=%o uid=%d gid=%d nlink=%d mtime=%d\n"
          path
          (Fmt.str "%a" Types.pp_kind st.Types.kind)
          st.Types.size st.Types.perm st.Types.uid st.Types.gid st.Types.nlink
          st.Types.mtime)
  in
  Cmd.v (Cmd.info "stat" ~doc:"Show file metadata.")
    Term.(const run $ img_arg $ path_arg 1)

let rm_cmd =
  let run img path =
    wrap (fun () ->
        let fs = load_fs img in
        (match (Fs.stat fs path).Types.kind with
        | Types.Dir -> Fs.rmdir fs path
        | _ -> Fs.unlink fs path);
        save fs img)
  in
  Cmd.v (Cmd.info "rm" ~doc:"Remove a file or an empty directory.")
    Term.(const run $ img_arg $ path_arg 1)

let mv_cmd =
  let run img a b =
    wrap (fun () ->
        let fs = load_fs img in
        Fs.rename fs a b;
        save fs img)
  in
  Cmd.v (Cmd.info "mv" ~doc:"Rename/move.")
    Term.(const run $ img_arg $ path_arg 1 $ path_arg 2)

let fsck_cmd =
  let run img =
    wrap (fun () ->
        let region = Region.load_from_file img in
        let _, report = Simurgh_core.Recovery.run region in
        Fmt.pr "%a\n" Simurgh_core.Recovery.pp_report report;
        Region.save_to_file region img)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Run full mark-and-sweep recovery on the image (repairs \
             crash-interrupted operations, reclaims orphans).")
    Term.(const run $ img_arg)

let df_cmd =
  let run img =
    wrap (fun () ->
        let fs = load_fs img in
        let st = Fs.statfs fs in
        let used = st.Fs.total_blocks - st.Fs.free_blocks in
        Printf.printf
          "block size %d B; blocks: %d total, %d used (%.1f%%), %d free\n\
           live metadata objects: %d inodes, %d file entries\n"
          st.Fs.block_size st.Fs.total_blocks used
          (100.0 *. float_of_int used /. float_of_int st.Fs.total_blocks)
          st.Fs.free_blocks st.Fs.live_inodes st.Fs.live_fentries)
  in
  Cmd.v (Cmd.info "df" ~doc:"Show space and metadata-object usage.")
    Term.(const run $ img_arg)

let () =
  let doc = "Simurgh NVMM file system on a file-backed region image" in
  let cmds =
    [
      mkfs_cmd; ls_cmd; mkdir_cmd; write_cmd; import_cmd; cat_cmd; stat_cmd;
      rm_cmd; mv_cmd; fsck_cmd; df_cmd;
    ]
  in
  exit (Cmd.eval' (Cmd.group (Cmd.info "simurgh_cli" ~doc) cmds))
