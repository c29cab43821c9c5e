(** Path parsing shared by all implementations.  Paths are
    absolute-style strings; empty components and ["."] are dropped,
    [".."] is kept for the resolver to interpret. *)

(* One right-to-left pass over the string, no intermediate list or
   reversal: [slash_before p i] is the index of the last '/' before [i]
   (-1 if none), and the component between it and [i] is kept unless it
   is empty or ["."]. *)
let rec slash_before p i =
  if i <= 0 || String.unsafe_get p (i - 1) = '/' then i - 1
  else slash_before p (i - 1)

let keep p j i = i - j > 2 || (i - j = 2 && String.unsafe_get p (j + 1) <> '.')

(* the components of [p] before position [i], prepended to [acc] *)
let rec components p i acc =
  if i <= 0 then acc
  else
    let j = slash_before p i in
    components p j
      (if keep p j i then String.sub p (j + 1) (i - j - 1) :: acc else acc)

let split p = components p (String.length p) []

(** [Some (parent components, final name)], or [None] when the path has
    no final component (any spelling of the root). *)
let parse p =
  let rec last i =
    if i <= 0 then None
    else
      let j = slash_before p i in
      if keep p j i then Some (components p j [], String.sub p (j + 1) (i - j - 1))
      else last j
  in
  last (String.length p)

(** Split into (parent components, final name).  Raises [EINVAL] when the
    path has no final component (e.g. "/"). *)
let split_parent p =
  match parse p with
  | None -> Errno.raise_ EINVAL (Printf.sprintf "path %S has no final component" p)
  | Some pf -> pf

let basename p = snd (split_parent p)

(** POSIX dirname: the path with its final component removed.  The root
    (and any spelling of it: "/", "//", "/./") has no final component to
    remove, so its dirname is "/" rather than an EINVAL from
    {!split_parent}. *)
let dirname p =
  match parse p with
  | None -> "/"
  | Some (parents, _) -> "/" ^ String.concat "/" parents

let concat dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name
