(** Just enough JSON for the benchmark's own files: [BENCHMARK.json]
    and the result files [--out] writes and [--compare] reads. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !i)) in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t') then begin
      incr i;
      ws ()
    end
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected '%c'" c) in
  let lit word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word then begin
      i := !i + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !i >= n then fail "bad escape";
          let e = s.[!i] in
          incr i;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !i + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !i 4) in
              i := !i + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let start = !i in
        while !i < n && String.contains "+-.eE0123456789" s.[!i] do
          incr i
        done;
        (match float_of_string_opt (String.sub s start (!i - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing data";
  v

let read_file path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  try parse s with Error m -> raise (Error (path ^ ": " ^ m))

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> raise (Error ("missing key " ^ k)))
  | _ -> raise (Error ("not an object looking for " ^ k))

let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_num = function Num f -> f | _ -> raise (Error "expected a number")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")
let to_obj = function Obj l -> l | _ -> raise (Error "expected an object")

(** A float with all its digits (17 significant), as JSON. *)
let num f = if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f else Printf.sprintf "%.17g" f
