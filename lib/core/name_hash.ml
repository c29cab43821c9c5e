(** FNV-1a hash for directory entry names.  Deterministic across runs so
    persistent directory rows survive remounts. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash64 (s : string) =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

(** Non-negative 62-bit hash. *)
let hash s = Int64.to_int (Int64.shift_right_logical (hash64 s) 2)

let row s ~rows = hash s mod rows

(** Home region of a top-level directory name in an N-region namespace.
    Uses the {e high} hash bits, so a name's region is uncorrelated with
    the row its entry occupies inside a directory block ([row] consumes
    the low bits): a directory's subtree lands on one region without
    skewing the row distribution there. *)
let home s ~regions =
  if regions <= 1 then 0
  else
    Int64.to_int (Int64.shift_right_logical (hash64 s) 40) mod regions
