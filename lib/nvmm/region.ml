(** Simulated byte-addressable non-volatile memory region.

    The region stands in for the mmap'ed Optane DIMMs of the paper.  Two
    modes:

    - [Fast]: stores hit the persistent image directly.  Used for
      benchmarks, where persistence ordering is charged in virtual time
      but not checked.
    - [Strict]: stores land in a volatile overlay keyed by 64-byte cache
      line; [clwb] marks lines write-back pending, [sfence] commits
      pending lines to the persistent image, and [crash] discards the
      overlay.  Non-temporal stores ([ntstore]) bypass the cache but
      still require [sfence] to be ADR-safe, matching x86 semantics.
      Dropping *all* unflushed lines at a crash is the adversarial choice
      (real caches may evict early), which is what recovery code must
      survive.

    The persistent image is sparse, like the DAX mapping it stands for:
    an array of 4 KiB pages, each the shared all-zero {!zero_page} until
    the first store of a non-zero byte allocates it.  A load reads
    through whatever page is there, so an absent page reads zeros;
    [zero] leaves an absent page absent; a page once allocated stays.
    A region therefore costs host memory only for the pages written.

    The data path is word- and line-granular: scalar accessors are
    single-shot [Bytes.get_int64_le]-style loads/stores (one guard check,
    one bounds check, one stats update per access), bulk accessors walk
    the pages (Fast) or cache lines (Strict) they cover with one blit
    each, and [sfence] walks an explicit pending-flush worklist instead
    of the whole overlay, so a fence costs O(lines actually marked by
    [clwb] since the previous fence).  Every layer above (allocators,
    directory blocks, the file data path, the baselines, the KV store)
    funnels through here, so the substrate must run at memcpy speed to
    avoid hiding the mechanisms being measured.  A region with nothing
    to intercept — [Fast], no guard, no store or access hook, no
    poisoned line — is [plain]: every accessor then tests that flag and
    the range, bumps the same statistics and touches the pages directly
    (a word also needs to lie inside one page, and a word store needs
    its page allocated); anything else takes the checked path.

    An optional [guard] models the protected-page check: when installed,
    every access calls it first, and the Simurgh security layer makes it
    fault unless the CPU runs in kernel mode via jmpp. *)

let line_size = 64

(* Every [min]/[max] here is on ints: these compare inline, where the
   polymorphic ones call the generic compare. *)
let[@inline] min (a : int) b = if a <= b then a else b
let[@inline] max (a : int) b = if a >= b then a else b

(* Little-endian words without a bounds check.  Every caller has checked
   the range against the region and the page (or buffer), and the check
   would read the page's header, one more cache line per access. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_u16 b o =
  if Sys.big_endian then swap16 (get16u b o) else get16u b o

let[@inline] set_u16 b o v = set16u b o (if Sys.big_endian then swap16 v else v)

let[@inline] get_u32 b o =
  Int32.to_int (if Sys.big_endian then swap32 (get32u b o) else get32u b o)
  land 0xffffffff

let[@inline] set_u32 b o v =
  let x = Int32.of_int v in
  set32u b o (if Sys.big_endian then swap32 x else x)

(* 62 usable bits: offsets, sizes and persistent pointers all fit.
   [Int64.to_int] keeps the low 63 bits with OCaml-int wraparound —
   bit-identical to composing the word from byte loads. *)
let[@inline] get_u62 b o =
  Int64.to_int (if Sys.big_endian then swap64 (get64u b o) else get64u b o)

let u62_mask = 0x3fff_ffff_ffff_ffff

(* Stores drop the two bits that do not survive a round-trip, exactly as
   the byte-at-a-time encoding did (bits 0-61 land in the image, the
   top two image bytes' bits stay zero). *)
let[@inline] set_u62 b o v =
  let x = Int64.of_int (v land u62_mask) in
  set64u b o (if Sys.big_endian then swap64 x else x)

(* The image, its versions and checkpoints are kept a page at a time. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Every absent image page, and every checkpoint page that was never
   written; never mutated. *)
let zero_page = Bytes.make page_size '\000'

type mode = Fast | Strict

type line_state = Dirty | Flushing

(** Uncorrectable media error: an access touched a poisoned cache line.
    The payload is the byte offset of the poisoned line's start.  Models
    the machine-check / bad-block behaviour of real NVMM DIMMs
    conservatively: both loads and stores fault (as a PM-aware driver
    reports EIO on known-bad blocks), and only an explicit [scrub]
    clears the poison. *)
exception Media_error of int

let () =
  Printexc.register_printer (function
    | Media_error off ->
        Some (Printf.sprintf "Region.Media_error(line at %#x)" off)
    | _ -> None)

(* Kept in a record of their own so an observability source can read
   them without keeping the region (and its image) alive. *)
type counters = {
  mutable stores : int;  (** store operations *)
  mutable loads : int;  (** load operations *)
  mutable store_bytes : int;  (** bytes written across all stores *)
  mutable load_bytes : int;  (** bytes read across all loads *)
  mutable flushes : int;  (** clwb/ntstore, in cache lines covered *)
  mutable fences : int;
  mutable media_errors : int;  (** loads that hit a poisoned line *)
  mutable crash_images : int;  (** crash / crash_image applications *)
  mutable resident_pages : int;  (** image pages allocated *)
}

type t = {
  pages : Bytes.t array;
      (** the persistent image, [page_size] bytes a page; {!zero_page}
          stands for a page no non-zero byte was ever stored to *)
  size : int;
  mode : mode;
  overlay : (int, Bytes.t * line_state ref) Hashtbl.t;
      (** line number -> volatile contents + state (Strict mode only) *)
  mutable pending : int list;
      (** worklist of lines moved to [Flushing] since the last [sfence];
          may hold stale or duplicate entries (filtered at the fence),
          but every Flushing line is on it *)
  poisoned : (int, unit) Hashtbl.t;
      (** line number -> (); lines with uncorrectable media errors *)
  mutable on_store : (unit -> unit) option;
      (** fault-injection hook: called before every store operation, so a
          crash-image explorer can cut power between any two stores *)
  mutable on_access : (off:int -> len:int -> write:bool -> unit) option;
      (** tracing hook: called before every load/store with the byte
          range touched — the schedule explorer's race detector attaches
          here (the region stays ignorant of the sim layer) *)
  mutable on_fence : (unit -> unit) option;
      (** tracing hook: called on every [sfence] (and hence [persist]) *)
  mutable guard : (write:bool -> unit) option;
  mutable plain : bool;
      (** derived: [mode = Fast], no [guard], no [on_store] or
          [on_access] hook and no poisoned line.  Kept current by
          {!refresh_plain}, which every function changing one of those
          calls; the accessors' fast path is taken only when it holds. *)
  mutable user_slot : exn option;
      (** opaque per-region slot for a higher layer's shared volatile
          state (the FS stores its shared-DRAM structures here so every
          mount of the region finds them; an exception constructor makes
          the slot type-safe without a dependency) *)
  c : counters;  (** access and fault statistics *)
  versions : int array;
      (** per page: the epoch of the last change to the persistent image,
          0 if it never changed since {!create} *)
  mutable epoch : int;  (** stamps changes; above every checkpoint's epoch *)
  mutable last_epoch : int;  (** epoch of the latest checkpoint, 0 if none *)
  mutable last_pages : Bytes.t array;  (** that checkpoint's pages *)
  mutable page_copies : int;
      (** pages that checkpoint captured and restore rewound *)
}

let create ?(mode = Fast) ?name size =
  let n_pages = (size + page_size - 1) / page_size in
  let t =
    {
      pages = Array.make n_pages zero_page;
      size;
      mode;
      overlay = Hashtbl.create 1024;
      pending = [];
      poisoned = Hashtbl.create 8;
      on_store = None;
      on_access = None;
      on_fence = None;
      guard = None;
      plain = mode = Fast;
      user_slot = None;
      c =
        {
          stores = 0;
          loads = 0;
          store_bytes = 0;
          load_bytes = 0;
          flushes = 0;
          fences = 0;
          media_errors = 0;
          crash_images = 0;
          resident_pages = 0;
        };
      versions = Array.make n_pages 0;
      epoch = 1;
      last_epoch = 0;
      last_pages = [||];
      page_copies = 0;
    }
  in
  (* fold the region's access statistics into the active experiment's
     observability snapshot (no-op outside the bench driver).  Unnamed
     regions keep the historical aggregate [region/...] counter family
     (same-named sources sum at drain); a [~name]d region — the
     multi-region substrate passes ["region0"], ["region1"], ... —
     gets its own exclusive per-region namespace, and registering two
     regions under one name is an error
     ({!Simurgh_obs.Collect.Duplicate_source}). *)
  let prefix = match name with None -> "region" | Some n -> n in
  let c = t.c and poisoned = t.poisoned in
  Simurgh_obs.Collect.note_source ?name (fun () ->
      let k n = prefix ^ "/" ^ n in
      let f k = match name with None -> "faults/" ^ k | Some n -> n ^ "/faults/" ^ k in
      [
        (k "loads", float_of_int c.loads);
        (k "stores", float_of_int c.stores);
        (k "load_bytes", float_of_int c.load_bytes);
        (k "store_bytes", float_of_int c.store_bytes);
        (k "flush_lines", float_of_int c.flushes);
        (k "fences", float_of_int c.fences);
        (k "bytes", float_of_int size);
        (k "resident_bytes", float_of_int (c.resident_pages * page_size));
        (f "poisoned_lines", float_of_int (Hashtbl.length poisoned));
        (f "media_errors", float_of_int c.media_errors);
        (f "crash_images", float_of_int c.crash_images);
      ]);
  t

let size t = t.size
let mode t = t.mode
let user_slot t = t.user_slot
let set_user_slot t v = t.user_slot <- v

let refresh_plain t =
  t.plain <-
    t.mode = Fast && Option.is_none t.guard && Option.is_none t.on_store
    && Option.is_none t.on_access
    && Hashtbl.length t.poisoned = 0

let set_guard t g =
  t.guard <- Some g;
  refresh_plain t

let clear_guard t =
  t.guard <- None;
  refresh_plain t

let check t ~write =
  match t.guard with None -> () | Some g -> g ~write

let line_of off = off / line_size

(* --- the paged image --------------------------------------------------- *)

(* The image page under [off]; {!zero_page} if absent, which reads as
   zeros.  The caller has range-checked [off]. *)
let[@inline] page t off = Array.unsafe_get t.pages (off lsr page_bits)

(* [off, off+len) lies in one page: its last byte's page is its first's.
   False for an empty range at a page boundary, so a range that [fits]
   and passes always names a page of the region. *)
let[@inline] in_page off len = (off lxor (off + len - 1)) lsr page_bits = 0

(* The same for a [w]-byte word, [w >= 1]: one mask and one compare. *)
let[@inline] word_in_page off w = off land page_mask <= page_size - w

let alloc_page t p =
  let b = Bytes.make page_size '\000' in
  Array.unsafe_set t.pages p b;
  t.c.resident_pages <- t.c.resident_pages + 1;
  b

(* The page under [off] to store into, allocated if absent and [nz] (the
   store writes a non-zero byte); otherwise an absent page stays absent
   and {!zero_page} comes back, which the caller must leave alone. *)
let store_page t off nz =
  let b = page t off in
  if b != zero_page || not nz then b else alloc_page t (off lsr page_bits)

(* Are the [n] bytes of [b] from [pos] all zero? *)
let is_zero b pos n =
  let rec go i = i >= pos + n || (Bytes.unsafe_get b i = '\000' && go (i + 1)) in
  go pos

(* --- page walks over the image ------------------------------------------

   Each visits the pages under [off, off+len) once, one blit or fill
   each.  The caller has checked both ranges. *)

(* Copy [len] image bytes at [off] into [dst] at [pos]. *)
let image_read_into t off dst pos len =
  let cur = ref off and stop = off + len in
  while !cur < stop do
    let o = !cur land page_mask in
    let n = min (page_size - o) (stop - !cur) in
    Bytes.unsafe_blit (page t !cur) o dst (pos + (!cur - off)) n;
    cur := !cur + n
  done

(* --- bounds / accounting ---------------------------------------------- *)

let bounds t off len =
  if off < 0 || len < 0 || off > t.size - len then
    invalid_arg
      (Printf.sprintf "Region: access [%d, %d) outside region of %d bytes"
         off (off + len) t.size)

(* [off, off+len) lies inside the region (no overflow for any ints). *)
let[@inline] fits t off len = off >= 0 && len >= 0 && off <= t.size - len

let[@inline] note_load t len =
  t.c.loads <- t.c.loads + 1;
  t.c.load_bytes <- t.c.load_bytes + len

let[@inline] note_store t len =
  t.c.stores <- t.c.stores + 1;
  t.c.store_bytes <- t.c.store_bytes + len

(* The persistent image under [off, off+len) changed in this epoch.  The
   caller has range-checked the access. *)
let[@inline] stamp t off len =
  if len > 0 then
    for p = off lsr page_bits to (off + len - 1) lsr page_bits do
      Array.unsafe_set t.versions p t.epoch
    done

(* Store [len] bytes of [src] from [pos] at [off] of the image.  An
   absent page is allocated first unless the bytes bound for it are all
   zero. *)
let image_write_from t off src pos len =
  let cur = ref off and stop = off + len in
  while !cur < stop do
    let o = !cur land page_mask in
    let n = min (page_size - o) (stop - !cur) in
    let from = pos + (!cur - off) in
    let b = page t !cur in
    let b =
      if b == zero_page && not (is_zero src from n) then
        alloc_page t (!cur lsr page_bits)
      else b
    in
    if b != zero_page then Bytes.unsafe_blit src from b o n;
    cur := !cur + n
  done;
  stamp t off len

(* Zero [len] image bytes at [off]; an absent page already reads zeros
   and stays absent. *)
let image_zero t off len =
  let cur = ref off and stop = off + len in
  while !cur < stop do
    let o = !cur land page_mask in
    let n = min (page_size - o) (stop - !cur) in
    let b = page t !cur in
    if b != zero_page then Bytes.unsafe_fill b o n '\000';
    cur := !cur + n
  done;
  stamp t off len

let count_load t off len =
  (match t.on_access with None -> () | Some f -> f ~off ~len ~write:false);
  note_load t len

let count_store t off len =
  (match t.on_store with None -> () | Some f -> f ());
  (match t.on_access with None -> () | Some f -> f ~off ~len ~write:true);
  note_store t len

(* Raise [Media_error] when [off, off+len) touches a poisoned line.  The
   empty-table fast path keeps the check to one length read per load. *)
let check_poison t off len =
  if Hashtbl.length t.poisoned > 0 then begin
    let first = line_of off and last = line_of (off + max (len - 1) 0) in
    for ln = first to last do
      if Hashtbl.mem t.poisoned ln then begin
        t.c.media_errors <- t.c.media_errors + 1;
        raise (Media_error (ln * line_size))
      end
    done
  end

(* The checked path's prologue: hooks and statistics, guard, bounds,
   poison, in that order. *)
let enter_load t off len =
  count_load t off len;
  check t ~write:false;
  bounds t off len;
  check_poison t off len

let enter_store t off len =
  count_store t off len;
  check t ~write:true;
  bounds t off len;
  check_poison t off len

(* --- line-granular bulk helpers (Strict mode) --------------------------

   Each walks the lines overlapping [off, off+len) once, doing one
   overlay lookup and one [Bytes.blit]/[fill] per line.  A line never
   crosses a page. *)

(* Fetch (creating from the persistent image) the overlay line. *)
let overlay_line t ln =
  match Hashtbl.find_opt t.overlay ln with
  | Some (buf, st) -> (buf, st)
  | None ->
      let buf = Bytes.create line_size in
      let base = ln * line_size in
      let len = min line_size (t.size - base) in
      Bytes.blit (page t base) (base land page_mask) buf 0 len;
      let cell = (buf, ref Dirty) in
      Hashtbl.replace t.overlay ln cell;
      cell

(* Copy [len] bytes at [off] into [dst] at [pos], merging the overlay. *)
let strict_read_into t off dst pos len =
  let last = off + len - 1 in
  let ln = ref (line_of off) in
  let cur = ref off in
  while !cur <= last do
    let base = !ln * line_size in
    let stop = min last (base + line_size - 1) in
    let n = stop - !cur + 1 in
    (match Hashtbl.find_opt t.overlay !ln with
    | Some (buf, _) -> Bytes.blit buf (!cur - base) dst (pos + (!cur - off)) n
    | None ->
        Bytes.blit (page t !cur) (!cur land page_mask) dst (pos + (!cur - off)) n);
    cur := stop + 1;
    incr ln
  done

(* Generic per-line store walk: [write_line buf boff doff n] copies [n]
   source bytes starting at source offset [doff] into the overlay line
   buffer [buf] at [boff]. *)
let strict_write_lines t off len write_line =
  let last = off + len - 1 in
  let ln = ref (line_of off) in
  let cur = ref off in
  while !cur <= last do
    let base = !ln * line_size in
    let stop = min last (base + line_size - 1) in
    let n = stop - !cur + 1 in
    let buf, st = overlay_line t !ln in
    st := Dirty;
    write_line buf (!cur - base) (!cur - off) n;
    cur := stop + 1;
    incr ln
  done

(* The checked path's bulk moves: [len] bytes at [off] into [dst] at
   [pos], and [len] bytes of [src] from [pos] to [off] — page by page in
   the image (Fast), line by line through the overlay (Strict). *)
let read_into t off dst pos len =
  match t.mode with
  | Fast -> image_read_into t off dst pos len
  | Strict -> strict_read_into t off dst pos len

let write_from t off src pos len =
  match t.mode with
  | Fast -> image_write_from t off src pos len
  | Strict ->
      strict_write_lines t off len (fun buf boff doff n ->
          Bytes.blit src (pos + doff) buf boff n)

(* --- raw byte access --------------------------------------------------

   Every accessor [f] is a one-test fast path for a [plain] region and an
   in-range access, and otherwise [f_checked]: hooks, guard, bounds,
   poison, then the paged image or the Strict overlay.  A word's fast
   path also needs the word inside one page (and, for a store, that page
   allocated); a bulk access walks the pages it covers.  Both paths bump
   the same statistics, so [loads]/[stores]/[load_bytes]/[store_bytes]
   do not depend on which ran.

   Words are single-shot loads/stores when they lie within one cache
   line (always the case for naturally aligned accesses, since the line
   size is a multiple of 8, and a line lies within a page); an unaligned
   straddler goes through a small buffer and the bulk walk. *)

(* A [len]-byte word at [off] crosses a line boundary? *)
let straddles_line off len = off land (line_size - 1) > line_size - len

(* A [w]-byte word at [off] that [get b o] reads in place. *)
let load_word t off w get =
  if straddles_line off w then begin
    let tmp = Bytes.create w in
    read_into t off tmp 0 w;
    get tmp 0
  end
  else
    match t.mode with
    | Fast -> get (page t off) (off land page_mask)
    | Strict -> (
        let ln = line_of off in
        match Hashtbl.find_opt t.overlay ln with
        | Some (buf, _) -> get buf (off - (ln * line_size))
        | None -> get (page t off) (off land page_mask))

(* Store the [w]-byte word [v] at [off] with [set b o v]; [nz] says the
   stored bytes are not all zero. *)
let store_word t off w set v nz =
  if straddles_line off w then begin
    let tmp = Bytes.create w in
    set tmp 0 v;
    write_from t off tmp 0 w
  end
  else
    match t.mode with
    | Fast ->
        let b = store_page t off nz in
        if b != zero_page then set b (off land page_mask) v;
        stamp t off w
    | Strict ->
        let ln = line_of off in
        let buf, st = overlay_line t ln in
        st := Dirty;
        set buf (off - (ln * line_size)) v

let get_u8 b o = Char.code (Bytes.unsafe_get b o)
let set_u8 b o v = Bytes.unsafe_set b o (Char.unsafe_chr v)

let read_byte_checked t off =
  enter_load t off 1;
  load_word t off 1 get_u8

let read_byte t off =
  if t.plain && fits t off 1 then begin
    note_load t 1;
    get_u8 (page t off) (off land page_mask)
  end
  else read_byte_checked t off

let write_byte_checked t off v =
  enter_store t off 1;
  let v = v land 0xff in
  store_word t off 1 set_u8 v (v <> 0)

let write_byte t off v =
  if t.plain && fits t off 1 then begin
    let b = page t off in
    if b != zero_page then begin
      note_store t 1;
      set_u8 b (off land page_mask) (v land 0xff);
      Array.unsafe_set t.versions (off lsr page_bits) t.epoch
    end
    else write_byte_checked t off v
  end
  else write_byte_checked t off v

let read_bytes_into_checked t off dst ~pos ~len =
  enter_load t off len;
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    invalid_arg "Region.read_bytes_into: destination range";
  read_into t off dst pos len

(** Read [len] bytes at [off] into [dst] starting at [pos] — the
    allocation-free variant of {!read_bytes} for hot loops. *)
let read_bytes_into t off dst ~pos ~len =
  if t.plain && fits t off len && pos >= 0 && pos <= Bytes.length dst - len
  then begin
    note_load t len;
    if in_page off len then
      Bytes.unsafe_blit (page t off) (off land page_mask) dst pos len
    else image_read_into t off dst pos len
  end
  else read_bytes_into_checked t off dst ~pos ~len

let read_bytes t off len =
  let out = Bytes.create len in
  read_bytes_into t off out ~pos:0 ~len;
  out

let write_bytes_from_checked t off src ~pos ~len =
  enter_store t off len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Region.write_bytes_from: source range";
  write_from t off src pos len

(** Write [len] bytes of [src] starting at [pos] to [off] — the
    allocation-free variant of {!write_bytes} for hot loops (no
    intermediate [Bytes.sub]). *)
let write_bytes_from t off src ~pos ~len =
  if t.plain && fits t off len && pos >= 0 && pos <= Bytes.length src - len
  then begin
    note_store t len;
    if in_page off len && page t off != zero_page then begin
      Bytes.unsafe_blit src pos (page t off) (off land page_mask) len;
      stamp t off len
    end
    else image_write_from t off src pos len
  end
  else write_bytes_from_checked t off src ~pos ~len

let write_bytes t off src =
  write_bytes_from t off src ~pos:0 ~len:(Bytes.length src)

(* Write straight from a string: no [Bytes.of_string] copy. *)
let write_string t off s =
  write_bytes_from t off (Bytes.unsafe_of_string s) ~pos:0
    ~len:(String.length s)

let zero_checked t off len =
  enter_store t off len;
  match t.mode with
  | Fast -> image_zero t off len
  | Strict ->
      strict_write_lines t off len (fun buf boff _ n ->
          Bytes.fill buf boff n '\000')

(* An absent page is left absent: it already reads zeros. *)
let zero t off len =
  if t.plain && fits t off len then begin
    note_store t len;
    image_zero t off len
  end
  else zero_checked t off len

(** Do the [String.length s] bytes at [off] equal [s]?  Compares in
    place and accounts exactly like a {!read_byte} loop that stops at
    the first mismatch: one 1-byte load per byte read, the mismatching
    byte included. *)
let equal_string t off s =
  let len = String.length s in
  if t.plain && fits t off len && in_page off len then begin
    let b = page t off and o = off land page_mask in
    let i = ref 0 in
    while !i < len && Bytes.unsafe_get b (o + !i) = String.unsafe_get s !i do
      incr i
    done;
    let n = if !i < len then !i + 1 else len in
    t.c.loads <- t.c.loads + n;
    t.c.load_bytes <- t.c.load_bytes + n;
    !i = len
  end
  else
    let rec go i =
      i >= len
      || (read_byte t (off + i) = Char.code (String.unsafe_get s i) && go (i + 1))
    in
    go 0

let read_u8 = read_byte
let write_u8 = write_byte

let read_u16_checked t off =
  enter_load t off 2;
  load_word t off 2 get_u16

let read_u16 t off =
  if t.plain && fits t off 2 && word_in_page off 2 then begin
    note_load t 2;
    get_u16 (page t off) (off land page_mask)
  end
  else read_u16_checked t off

let write_u16_checked t off v =
  enter_store t off 2;
  let v = v land 0xffff in
  store_word t off 2 set_u16 v (v <> 0)

let write_u16 t off v =
  if t.plain && fits t off 2 && word_in_page off 2 then begin
    let b = page t off in
    if b != zero_page then begin
      note_store t 2;
      set_u16 b (off land page_mask) (v land 0xffff);
      Array.unsafe_set t.versions (off lsr page_bits) t.epoch
    end
    else write_u16_checked t off v
  end
  else write_u16_checked t off v

let read_u32_checked t off =
  enter_load t off 4;
  load_word t off 4 get_u32

let read_u32 t off =
  if t.plain && fits t off 4 && word_in_page off 4 then begin
    note_load t 4;
    get_u32 (page t off) (off land page_mask)
  end
  else read_u32_checked t off

let write_u32_checked t off v =
  enter_store t off 4;
  store_word t off 4 set_u32 v (v land 0xffffffff <> 0)

let write_u32 t off v =
  if t.plain && fits t off 4 && word_in_page off 4 then begin
    let b = page t off in
    if b != zero_page then begin
      note_store t 4;
      set_u32 b (off land page_mask) v;
      Array.unsafe_set t.versions (off lsr page_bits) t.epoch
    end
    else write_u32_checked t off v
  end
  else write_u32_checked t off v

let read_u62_checked t off =
  enter_load t off 8;
  load_word t off 8 get_u62

let read_u62 t off =
  if t.plain && fits t off 8 && word_in_page off 8 then begin
    note_load t 8;
    get_u62 (page t off) (off land page_mask)
  end
  else read_u62_checked t off

let write_u62_checked t off v =
  enter_store t off 8;
  store_word t off 8 set_u62 v (v land u62_mask <> 0)

let write_u62 t off v =
  if t.plain && fits t off 8 && word_in_page off 8 then begin
    let b = page t off in
    if b != zero_page then begin
      note_store t 8;
      set_u62 b (off land page_mask) v;
      Array.unsafe_set t.versions (off lsr page_bits) t.epoch
    end
    else write_u62_checked t off v
  end
  else write_u62_checked t off v

let read_u62_pair_checked t off =
  enter_load t off 16;
  if straddles_line off 16 then begin
    let tmp = Bytes.create 16 in
    read_into t off tmp 0 16;
    (get_u62 tmp 0, get_u62 tmp 8)
  end
  else
    let b, o =
      match t.mode with
      | Fast -> (page t off, off land page_mask)
      | Strict -> (
          let ln = line_of off in
          match Hashtbl.find_opt t.overlay ln with
          | Some (buf, _) -> (buf, off - (ln * line_size))
          | None -> (page t off, off land page_mask))
    in
    (get_u62 b o, get_u62 b (o + 8))

(** Load two adjacent u62 words (e.g. a free-list node's next/count pair)
    with one guard/bounds/stats round and, in Strict mode, a single
    overlay lookup when the pair does not straddle a line. *)
let read_u62_pair t off =
  if t.plain && fits t off 16 && word_in_page off 16 then begin
    note_load t 16;
    let b = page t off and o = off land page_mask in
    (get_u62 b o, get_u62 b (o + 8))
  end
  else read_u62_pair_checked t off

let write_u62_pair_checked t off v0 v1 =
  enter_store t off 16;
  let tmp = Bytes.create 16 in
  set_u62 tmp 0 v0;
  set_u62 tmp 8 v1;
  write_from t off tmp 0 16

(** Store two adjacent u62 words in one round (see {!read_u62_pair}). *)
let write_u62_pair t off v0 v1 =
  if t.plain && fits t off 16 && word_in_page off 16 && page t off != zero_page
  then begin
    note_store t 16;
    let b = page t off and o = off land page_mask in
    set_u62 b o v0;
    set_u62 b (o + 8) v1;
    Array.unsafe_set t.versions (off lsr page_bits) t.epoch
  end
  else write_u62_pair_checked t off v0 v1
(* --- persistence primitives ------------------------------------------ *)

(** [clwb t off len]: initiate write-back of the lines covering
    [off, off+len).  Persistence is only guaranteed after [sfence].
    Lines transitioning to [Flushing] join the pending worklist that
    [sfence] walks. *)
let clwb t off len =
  bounds t off (max len 1);
  let first = line_of off and last = line_of (off + max (len - 1) 0) in
  t.c.flushes <- t.c.flushes + (last - first + 1);
  match t.mode with
  | Fast -> ()
  | Strict ->
      for ln = first to last do
        match Hashtbl.find_opt t.overlay ln with
        | Some (_, st) ->
            if !st <> Flushing then begin
              st := Flushing;
              t.pending <- ln :: t.pending
            end
        | None -> ()
      done

(** Non-temporal store of [src] at [off]: bypasses the cache (write
    combining); still needs [sfence] before it is guaranteed durable. *)
let ntstore t off src =
  write_bytes t off src;
  clwb t off (Bytes.length src)

(** [ntstore] from a sub-range of [src] — the allocation-free variant
    for hot loops (no [Bytes.sub]).  One call per contiguous extent run
    plus a single trailing [sfence] is the batched-writeback data path:
    every covered line ends up Flushing, so the one fence persists the
    whole span. *)
let ntstore_from t off src ~pos ~len =
  write_bytes_from t off src ~pos ~len;
  clwb t off len

(* Commit one overlay line to the persistent image (a fence, or an early eviction). *)
let commit_line t ln buf =
  let base = ln * line_size in
  let len = min line_size (t.size - base) in
  let b = page t base in
  let b =
    if b == zero_page && not (is_zero buf 0 len) then
      alloc_page t (base lsr page_bits)
    else b
  in
  if b != zero_page then Bytes.blit buf 0 b (base land page_mask) len;
  stamp t base 1

(** Commit all pending (Flushing) lines to the persistent image.  Walks
    only the worklist built up by [clwb] — O(lines actually pending),
    not O(overlay size).  A line re-dirtied after its [clwb] is skipped
    (it needs another [clwb]), exactly as on real hardware. *)
let sfence t =
  (match t.on_fence with None -> () | Some f -> f ());
  t.c.fences <- t.c.fences + 1;
  match t.mode with
  | Fast -> ()
  | Strict ->
      let work = t.pending in
      t.pending <- [];
      List.iter
        (fun ln ->
          match Hashtbl.find_opt t.overlay ln with
          | Some (buf, st) when !st = Flushing ->
              commit_line t ln buf;
              Hashtbl.remove t.overlay ln
          | Some _ | None -> ())
        work

(** Convenience: flush + fence a range (persist barrier). *)
let persist t off len =
  clwb t off len;
  sfence t

(** Power failure with an eviction adversary.  On real NVMM the cache
    may evict any dirty line to media *before* the fence, so at a crash
    point every unpersisted line is independently either lost or already
    durable.  [keep ln] (ln = cache-line index, [off / line_size])
    decides the fate of each Dirty/Flushing line: [true] = the line was
    evicted early and survives, [false] = it is lost.  The classic
    drop-all [crash] is [~keep:(fun _ -> false)].  Raises
    [Invalid_argument] in [Fast] mode, where there is no volatile state
    to lose and any "crash test" would vacuously pass. *)
let crash_image t ~keep =
  match t.mode with
  | Fast -> invalid_arg "Region.crash_image: region is in Fast mode"
  | Strict ->
      Hashtbl.iter
        (fun ln (buf, _st) -> if keep ln then commit_line t ln buf)
        t.overlay;
      Hashtbl.reset t.overlay;
      t.pending <- [];
      t.c.crash_images <- t.c.crash_images + 1

(** Power failure: every line not yet committed by [sfence] is lost.
    Raises [Invalid_argument] in [Fast] mode (see [crash_image]). *)
let crash t = crash_image t ~keep:(fun _ -> false)

(** Number of dirty (not yet durable) lines; 0 means fully persisted. *)
let unpersisted_lines t = Hashtbl.length t.overlay

(** Cache-line indices of every unpersisted (Dirty or Flushing) line,
    sorted ascending — the domain a crash-image explorer enumerates. *)
let pending_lines t =
  Hashtbl.fold (fun ln _ acc -> ln :: acc) t.overlay []
  |> List.sort compare

(** Force every unpersisted line durable (as if each had been clwb'd and
    fenced).  Used by crash explorers to establish a known-persisted
    baseline before the operation under test.  No-op in [Fast] mode. *)
let persist_all t =
  match t.mode with
  | Fast -> ()
  | Strict ->
      Hashtbl.iter (fun ln (buf, _st) -> commit_line t ln buf) t.overlay;
      Hashtbl.reset t.overlay;
      t.pending <- []

(** Digest of the region's prospective durable contents: the durable
    image with every unpersisted overlay line applied — exactly what
    {!persist_all} would make durable.  Statistics, hooks and poison
    bookkeeping are excluded, so two regions with the same would-be
    media bytes digest equal regardless of access history.  Oracles use
    this to assert media no-ops (an already-clean image must be
    bit-identical across a second recovery pass) and schedule
    independence (parallel recovery must produce one media image under
    every interleaving). *)
let media_digest t =
  let merged = Bytes.create t.size in
  image_read_into t 0 merged 0 t.size;
  Hashtbl.iter
    (fun ln (buf, _st) ->
      let base = ln * line_size in
      let len = min line_size (t.size - base) in
      Bytes.blit buf 0 merged base len)
    t.overlay;
  Digest.bytes merged

(* --- media-error plane ------------------------------------------------ *)

(** Mark the lines covering [off, off+len) as uncorrectable: subsequent
    loads and stores raise [Media_error] (real DIMMs clear poison on a
    full-line write only via management commands; we keep the
    conservative model: only [scrub] heals). *)
let poison t off len =
  bounds t off (max len 1);
  let first = line_of off and last = line_of (off + max (len - 1) 0) in
  for ln = first to last do
    Hashtbl.replace t.poisoned ln ()
  done;
  refresh_plain t

(** Clear poison from the lines covering [off, off+len). *)
let scrub t off len =
  bounds t off (max len 1);
  let first = line_of off and last = line_of (off + max (len - 1) 0) in
  for ln = first to last do
    Hashtbl.remove t.poisoned ln
  done;
  refresh_plain t

(** Does any line covering [off, off+len) carry poison? *)
let range_poisoned t off len =
  Hashtbl.length t.poisoned > 0
  && begin
       bounds t off (max len 1);
       let first = line_of off and last = line_of (off + max (len - 1) 0) in
       let rec go ln =
         ln <= last && (Hashtbl.mem t.poisoned ln || go (ln + 1))
       in
       go first
     end

(** Number of currently poisoned lines. *)
let poisoned_lines t = Hashtbl.length t.poisoned

(** Visit the byte offset of every currently poisoned line (unordered).
    Lets the allocator account quarantined blocks exactly — a block is
    quarantined iff any of its lines carries poison. *)
let iter_poisoned_lines t f =
  Hashtbl.iter (fun ln () -> f (ln * line_size)) t.poisoned

(* --- fault-injection hooks & checkpoints ------------------------------ *)

(** Install [f] to run before every store; a crash explorer uses this to
    cut power between any two stores of an operation. *)
let set_store_hook t f =
  t.on_store <- Some f;
  refresh_plain t

let clear_store_hook t =
  t.on_store <- None;
  refresh_plain t

(** Install [f] to run before every load/store with the byte range and
    direction — the schedule explorer's race detector and preemption
    points attach here without the region depending on the sim layer. *)
let set_access_hook t f =
  t.on_access <- Some f;
  refresh_plain t

let clear_access_hook t =
  t.on_access <- None;
  refresh_plain t

(** Install [f] to run on every [sfence] (and hence every [persist]). *)
let set_fence_hook t f = t.on_fence <- Some f

let clear_fence_hook t = t.on_fence <- None

(** Snapshot of the region state (image, overlay, pending worklist,
    poison set, user slot) so an explorer can replay many crash images
    from one crash point without re-running the workload.  The image is
    held as immutable pages: an absent page shares {!zero_page}, a page
    unchanged since the region's previous checkpoint shares that
    checkpoint's page, and only the allocated pages written since are
    copied.  A checkpoint can only be restored into the region it came
    from. *)
type checkpoint = {
  cp_region : t;
  cp_epoch : int;  (** pages with a newer version changed after it *)
  cp_pages : Bytes.t array;
  cp_overlay : (int * Bytes.t * line_state) list;
  cp_pending : int list;
  cp_poisoned : int list;
  cp_user_slot : exn option;
}

let checkpoint t =
  let pages =
    Array.mapi
      (fun p v ->
        if v = 0 then zero_page
        else if v <= t.last_epoch then t.last_pages.(p)
        else begin
          t.page_copies <- t.page_copies + 1;
          let b = t.pages.(p) in
          if b == zero_page then zero_page else Bytes.copy b
        end)
      t.versions
  in
  let cp =
    {
      cp_region = t;
      cp_epoch = t.epoch;
      cp_pages = pages;
      cp_overlay =
        Hashtbl.fold
          (fun ln (buf, st) acc -> (ln, Bytes.copy buf, !st) :: acc)
          t.overlay [];
      cp_pending = t.pending;
      cp_poisoned = Hashtbl.fold (fun ln () acc -> ln :: acc) t.poisoned [];
      cp_user_slot = t.user_slot;
    }
  in
  t.last_epoch <- t.epoch;
  t.last_pages <- pages;
  t.epoch <- t.epoch + 1;
  cp

(** Rewind [t] to [cp]: only the pages changed since [cp] are copied
    back (or zero-filled, if blank in [cp] and allocated since), and each
    is stamped with the current epoch, so later checkpoints see it as
    changed.  A page allocated since [cp] stays allocated.  Raises
    [Invalid_argument] if [cp] was taken of another region. *)
let restore t cp =
  if cp.cp_region != t then
    invalid_arg "Region.restore: checkpoint of another region";
  Array.iteri
    (fun p v ->
      if v > cp.cp_epoch then begin
        let src = cp.cp_pages.(p) in
        if src != zero_page || t.pages.(p) != zero_page then
          Bytes.blit src 0 (store_page t (p lsl page_bits) true) 0 page_size;
        t.versions.(p) <- t.epoch;
        t.page_copies <- t.page_copies + 1
      end)
    t.versions;
  Hashtbl.reset t.overlay;
  List.iter
    (fun (ln, buf, st) -> Hashtbl.replace t.overlay ln (Bytes.copy buf, ref st))
    cp.cp_overlay;
  t.pending <- cp.cp_pending;
  Hashtbl.reset t.poisoned;
  List.iter (fun ln -> Hashtbl.replace t.poisoned ln ()) cp.cp_poisoned;
  refresh_plain t;
  t.user_slot <- cp.cp_user_slot

(* --- file-backed persistence ------------------------------------------ *)

(** Write the persistent image to [path] (the volatile overlay of a
    strict region is NOT included — exactly what would survive power
    loss). *)
let page_len t p = min page_size (t.size - (p lsl page_bits))

let save_to_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Array.iteri (fun p b -> output oc b 0 (page_len t p)) t.pages)

(** Load a region image previously written by [save_to_file]; its
    all-zero pages stay absent. *)
let load_from_file ?(mode = Fast) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      let t = create ~mode size in
      (* [buf] is all zeros whenever a page is read into it *)
      let buf = ref (Bytes.make page_size '\000') in
      for p = 0 to Array.length t.pages - 1 do
        really_input ic !buf 0 (page_len t p);
        if not (is_zero !buf 0 page_size) then begin
          t.pages.(p) <- !buf;
          t.c.resident_pages <- t.c.resident_pages + 1;
          buf := Bytes.make page_size '\000'
        end
      done;
      stamp t 0 size;
      t)

type stats = {
  loads : int;  (** load operations *)
  stores : int;  (** store operations (including [zero]) *)
  load_bytes : int;  (** bytes read across all loads *)
  store_bytes : int;  (** bytes written across all stores *)
  flushes : int;  (** cache lines covered by clwb/ntstore *)
  fences : int;
  media_errors : int;  (** loads that hit a poisoned line *)
  crash_images : int;  (** crash / crash_image applications *)
  page_copies : int;
      (** pages that checkpoint captured and restore rewound *)
  resident_pages : int;  (** image pages allocated by a non-zero store *)
}

let stats (t : t) : stats =
  {
    loads = t.c.loads;
    stores = t.c.stores;
    load_bytes = t.c.load_bytes;
    store_bytes = t.c.store_bytes;
    flushes = t.c.flushes;
    fences = t.c.fences;
    media_errors = t.c.media_errors;
    crash_images = t.c.crash_images;
    page_copies = t.page_copies;
    resident_pages = t.c.resident_pages;
  }
