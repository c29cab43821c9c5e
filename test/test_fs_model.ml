(* Model-based testing: Simurgh against a pure functional specification
   (a map from paths to contents) under random operation sequences, on
   both data-path disciplines (whole-file and byte-range locking). *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs

module M = Map.Make (String)

(* The model: directories and files with contents. *)
type model = { dirs : unit M.t; files : string M.t }

let empty_model = { dirs = M.add "/" () M.empty; files = M.empty }

let parent_of path = Path.dirname path

type op =
  | Create of string
  | Mkdir of string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Write of string * string
  | Append of string * string
  | Pwrite of string * int * string
      (** positional write: may start past EOF (the hole reads back as
          zeros) and may write nothing *)
  | Truncate of string * int  (** shrink, grow (zero-filled) or keep *)
  | StatCheck of string

let pp_op = function
  | Create p -> "create " ^ p
  | Mkdir p -> "mkdir " ^ p
  | Unlink p -> "unlink " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | Write (p, s) -> Printf.sprintf "write %s (%d bytes)" p (String.length s)
  | Append (p, s) -> Printf.sprintf "append %s (%d bytes)" p (String.length s)
  | Pwrite (p, pos, s) ->
      Printf.sprintf "pwrite %s @%d (%d bytes)" p pos (String.length s)
  | Truncate (p, n) -> Printf.sprintf "truncate %s %d" p n
  | StatCheck p -> "stat " ^ p

(* Candidate paths: two directory levels, small name space, so ops
   frequently collide with existing state. *)
let path_gen =
  QCheck.Gen.(
    let name = map (Printf.sprintf "n%d") (int_range 0 5) in
    let dir = map (Printf.sprintf "/d%d") (int_range 0 2) in
    oneof
      [
        map (fun n -> "/" ^ n) name;
        map2 (fun d n -> d ^ "/" ^ n) dir name;
      ])

let dir_gen = QCheck.Gen.(map (Printf.sprintf "/d%d") (int_range 0 2))

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun p -> Create p) path_gen);
        (2, map (fun d -> Mkdir d) dir_gen);
        (2, map (fun p -> Unlink p) path_gen);
        (1, map (fun d -> Rmdir d) dir_gen);
        (2, map2 (fun a b -> Rename (a, b)) path_gen path_gen);
        ( 2,
          map2
            (fun p n -> Write (p, String.make (n + 1) 'w'))
            path_gen (int_range 0 200) );
        ( 2,
          map2
            (fun p n -> Append (p, String.make (n + 1) 'a'))
            path_gen (int_range 0 100) );
        ( 2,
          map3
            (fun p pos n ->
              let c i = Char.chr (97 + ((pos + i) mod 26)) in
              Pwrite (p, pos, String.init n c))
            path_gen (int_range 0 6000)
            (frequency [ (1, return 0); (4, int_range 1 100) ]) );
        (1, map2 (fun p n -> Truncate (p, n)) path_gen (int_range 0 6000));
        (2, map (fun p -> StatCheck p) path_gen);
      ])

(* Apply to the model, mirroring POSIX semantics; returns updated model +
   whether the op should succeed. *)
let model_apply m op =
  let dir_exists d = M.mem d m.dirs in
  let parent_ok p = dir_exists (parent_of p) in
  let exists p = M.mem p m.files || M.mem p m.dirs in
  match op with
  | Create p ->
      if (not (parent_ok p)) || exists p then (m, false)
      else ({ m with files = M.add p "" m.files }, true)
  | Mkdir d ->
      if exists d then (m, false)
      else ({ m with dirs = M.add d () m.dirs }, true)
  | Unlink p ->
      if M.mem p m.files then ({ m with files = M.remove p m.files }, true)
      else (m, false)
  | Rmdir d ->
      if
        M.mem d m.dirs && d <> "/"
        && not
             (M.exists (fun p _ -> parent_of p = d) m.files
             || M.exists
                  (fun p _ -> p <> "/" && p <> d && parent_of p = d)
                  m.dirs)
      then ({ m with dirs = M.remove d m.dirs }, true)
      else (m, false)
  | Rename (a, b) ->
      (* file-to-file renames only (directory renames are tested in
         test_fs); destination may be replaced if it is a file *)
      if a = b then (m, M.mem a m.files)
      else if M.mem a m.files && parent_ok b && not (M.mem b m.dirs) then
        let content = M.find a m.files in
        ({ m with files = M.add b content (M.remove a m.files) }, true)
      else (m, false)
  | Write (p, s) ->
      if M.mem p m.files then ({ m with files = M.add p s m.files }, true)
      else (m, false)
  | Append (p, s) ->
      if M.mem p m.files then
        let old = M.find p m.files in
        ({ m with files = M.add p (old ^ s) m.files }, true)
      else (m, false)
  | Pwrite (p, pos, s) -> (
      match M.find_opt p m.files with
      | None -> (m, false)
      | Some _ when s = "" -> (m, true)
      | Some old ->
          let n = String.length old and len = String.length s in
          let b = Bytes.make (max n (pos + len)) '\000' in
          Bytes.blit_string old 0 b 0 n;
          Bytes.blit_string s 0 b pos len;
          ({ m with files = M.add p (Bytes.to_string b) m.files }, true))
  | Truncate (p, len) -> (
      match M.find_opt p m.files with
      | None -> (m, false)
      | Some old ->
          let n = String.length old in
          let c =
            if len <= n then String.sub old 0 len
            else old ^ String.make (len - n) '\000'
          in
          ({ m with files = M.add p c m.files }, true))
  | StatCheck _ -> (m, true)

let is_file fs p =
  match Fs.stat fs p with
  | st -> st.Types.kind = Types.File
  | exception Errno.Err _ -> false

let fs_apply fs op =
  match op with
  | Create p -> ( try Fs.create_file fs p; true with Errno.Err _ -> false)
  | Mkdir d -> ( try Fs.mkdir fs d; true with Errno.Err _ -> false)
  | Unlink p -> ( try Fs.unlink fs p; true with Errno.Err _ -> false)
  | Rmdir d -> ( try Fs.rmdir fs d; true with Errno.Err _ -> false)
  | Rename (a, b) ->
      (* mirror the model's file-only rename semantics *)
      if not (is_file fs a) then false
      else if a <> b && Fs.exists fs b && not (is_file fs b) then false
      else ( try Fs.rename fs a b; true with Errno.Err _ -> false)
  | Write (p, s) -> (
      if not (is_file fs p) then false
      else
        try
          Fs.truncate fs p 0;
          let fd = Fs.openf fs Types.rdwr p in
          ignore (Fs.pwrite fs fd ~pos:0 (Bytes.of_string s));
          Fs.close fs fd;
          true
        with Errno.Err _ -> false)
  | Append (p, s) -> (
      if not (is_file fs p) then false
      else
        try
          let fd = Fs.openf fs Types.wronly p in
          ignore (Fs.append fs fd (Bytes.of_string s));
          Fs.close fs fd;
          true
        with Errno.Err _ -> false)
  | Pwrite (p, pos, s) -> (
      if not (is_file fs p) then false
      else
        try
          let fd = Fs.openf fs Types.wronly p in
          let n = Fs.pwrite fs fd ~pos (Bytes.of_string s) in
          Fs.close fs fd;
          n = String.length s
        with Errno.Err _ -> false)
  | Truncate (p, n) -> ( try Fs.truncate fs p n; true with Errno.Err _ -> false)
  | StatCheck _ -> true

let read_file fs p =
  let st = Fs.stat fs p in
  let fd = Fs.openf fs Types.rdonly p in
  let b = Fs.pread fs fd ~pos:0 ~len:st.Types.size in
  Fs.close fs fd;
  Bytes.to_string b

(* Final consistency: every model file exists in the FS with the same
   content; every model dir exists. *)
let check_against_model fs m =
  M.for_all
    (fun p content ->
      match read_file fs p with
      | c -> c = content
      | exception Errno.Err _ -> false)
    m.files
  && M.for_all
       (fun d () ->
         d = "/"
         ||
         match Fs.stat fs d with
         | st -> st.Types.kind = Types.Dir
         | exception Errno.Err _ -> false)
       m.dirs

let run_ops ~format fs ops ~remount_every =
  let fsr = ref fs in
  let region = Fs.region fs in
  let count = ref 0 in
  let final_model =
    List.fold_left
      (fun m op ->
        incr count;
        if remount_every > 0 && !count mod remount_every = 0 then begin
          Fs.unmount !fsr;
          fsr := Fs.mount ~euid:0 region
        end;
        let m', model_ok = model_apply m op in
        let fs_ok = fs_apply !fsr op in
        if model_ok <> fs_ok then
          QCheck.Test.fail_reportf
            "%s format: divergence on %s: model=%b fs=%b" format (pp_op op)
            model_ok fs_ok;
        m')
      empty_model ops
  in
  check_against_model !fsr final_model

(* Every operation sequence runs on a default format (whole-file
   locking) and on a [range_locks] one (byte-range locking, whose
   volatile reservation words a remount rebuilds). *)
let formats =
  [
    ("default", fun r -> Fs.mkfs ~euid:0 r);
    ("range_locks", fun r -> Fs.mkfs ~euid:0 ~range_locks:true r);
  ]

let on_every_format ops ~remount_every =
  List.for_all
    (fun (format, mkfs) ->
      let fs = mkfs (Simurgh_nvmm.Region.create (64 * 1024 * 1024)) in
      run_ops ~format fs ops ~remount_every)
    formats

let prop_model =
  QCheck.Test.make ~name:"Simurgh matches the map model" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops -> on_every_format ops ~remount_every:0)

let prop_model_with_remounts =
  QCheck.Test.make ~name:"model holds across remounts" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 20 80) op_gen))
    (fun ops -> on_every_format ops ~remount_every:20)

let () =
  Alcotest.run "fs-model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_model_with_remounts;
        ] );
    ]
