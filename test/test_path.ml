(* Path parsing: split/basename/dirname/concat, with the POSIX corner
   cases that used to go wrong (dirname "/" raised EINVAL instead of
   returning "/"). *)

open Simurgh_fs_common

let check_s = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

let test_split () =
  check_sl "plain" [ "a"; "b" ] (Path.split "/a/b");
  check_sl "root" [] (Path.split "/");
  check_sl "double slash" [] (Path.split "//");
  check_sl "empty components" [ "a"; "b" ] (Path.split "//a///b//");
  check_sl "dot dropped" [ "a"; "b" ] (Path.split "/a/./b/.");
  check_sl "dotdot kept" [ "a"; ".."; "b" ] (Path.split "/a/../b")

(* dirname must behave like POSIX dirname(1) on every spelling of a
   path; the table pins the regression where "/" raised EINVAL *)
let test_dirname () =
  List.iter
    (fun (p, want) -> check_s (Printf.sprintf "dirname %S" p) want (Path.dirname p))
    [
      ("/", "/");
      ("//", "/");
      ("/.", "/");
      ("/a", "/");
      ("//a", "/");
      ("/a/", "/");
      ("/a/b", "/a");
      ("/a/b/", "/a");
      ("/a//b", "/a");
      ("/a/b/c", "/a/b");
      ("/a/./b", "/a");
    ]

let test_basename () =
  check_s "plain" "b" (Path.basename "/a/b");
  check_s "trailing slash" "b" (Path.basename "/a/b/");
  check_s "single" "a" (Path.basename "/a");
  (match Path.basename "/" with
  | _ -> Alcotest.fail "basename \"/\" must raise EINVAL"
  | exception Errno.Err (Errno.EINVAL, _) -> ())

let test_concat () =
  check_s "at root" "/a" (Path.concat "/" "a");
  check_s "nested" "/a/b" (Path.concat "/a" "b")

(* dirname/basename recompose: for any normal path, resolving
   (dirname p)/(basename p) yields the same components as p *)
let prop_dirname_basename =
  let gen_path =
    QCheck.Gen.(
      map
        (fun comps -> "/" ^ String.concat "/" comps)
        (list_size (int_range 1 6)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 4))))
  in
  QCheck.Test.make ~name:"split (dirname p @ basename p) = split p" ~count:200
    (QCheck.make gen_path) (fun p ->
      Path.split (Path.concat (Path.dirname p) (Path.basename p))
      = Path.split p)

(* The one-pass parser against the definitions it replaced: split on
   every '/', drop empty and "." components, and reverse twice to peel
   off the final one. *)
let old_split p =
  String.split_on_char '/' p |> List.filter (fun c -> c <> "" && c <> ".")

let old_parse p =
  match List.rev (old_split p) with
  | [] -> None
  | name :: rev_parents -> Some (List.rev rev_parents, name)

let prop_parse_matches_old =
  let gen_path =
    QCheck.Gen.(
      map2
        (fun lead comps -> (if lead then "/" else "") ^ String.concat "/" comps)
        bool
        (list_size (int_range 0 8)
           (oneof
              [
                oneofl [ ""; "."; ".."; "..."; ".a"; "a." ];
                string_size ~gen:(oneofl [ 'a'; 'b'; '.'; '/' ]) (int_range 0 4);
              ])))
  in
  QCheck.Test.make ~name:"split/parse/dirname match the two-pass definitions"
    ~count:2000 (QCheck.make ~print:Fun.id gen_path) (fun p ->
      Path.split p = old_split p
      && Path.parse p = old_parse p
      && Path.dirname p
         = (match old_parse p with
           | None -> "/"
           | Some (parents, _) -> "/" ^ String.concat "/" parents)
      &&
      match (Path.split_parent p, old_parse p) with
      | got, Some want -> got = want
      | _, None -> false
      | exception Errno.Err (Errno.EINVAL, _) -> old_parse p = None)

let () =
  Alcotest.run "path"
    [
      ( "path",
        [
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "dirname" `Quick test_dirname;
          Alcotest.test_case "basename" `Quick test_basename;
          Alcotest.test_case "concat" `Quick test_concat;
          QCheck_alcotest.to_alcotest prop_dirname_basename;
          QCheck_alcotest.to_alcotest prop_parse_matches_old;
        ] );
    ]
