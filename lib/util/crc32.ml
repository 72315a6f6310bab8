(* CRC-32 with the IEEE 802.3 polynomial (reflected, 0xedb88320), computed
   by slicing-by-8.

   Table 0 is the classic bytewise table: it advances the register over one
   byte.  Table [k] advances a byte's contribution over [k] further zero
   bytes: [T_k.(n) = (T_{k-1}.(n) lsr 8) lxor T_0.(T_{k-1}.(n) land 0xff)].
   One step then folds 8 input bytes with two little-endian 32-bit loads
   and eight independent lookups, instead of eight dependent ones; a tail
   of 0-7 bytes goes bytewise through table 0.  The eight tables sit in
   one flat array (table [k] at [k * 256]), built on first use so a run
   that never checksums does not pay 2048 words of heap for them. *)

let table =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for i = 256 to (8 * 256) - 1 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
     done;
     t)

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Unsigned little-endian 32-bit load with no bounds check: [update]
   checks the whole range once, up front. *)
let[@inline] load32 b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffffffff

(* A running CRC is a 32-bit value (what [update] returns); the mask
   keeps every table index in range whatever the caller passes. *)
let update crc b off len =
  if len <= 0 then crc
  else if off < 0 || off > Bytes.length b - len then invalid_arg "Crc32.update"
  else begin
    let t = Lazy.force table in
    let c = ref ((crc lxor 0xffffffff) land 0xffffffff) in
    let i = ref off in
    let stop = off + (len land lnot 7) in
    while !i < stop do
      let lo = !c lxor load32 b !i and hi = load32 b (!i + 4) in
      c :=
        Array.unsafe_get t (1792 + (lo land 0xff))
        lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xff))
        lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xff))
        lxor Array.unsafe_get t (1024 + (lo lsr 24))
        lxor Array.unsafe_get t (768 + (hi land 0xff))
        lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xff))
        lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
        lxor Array.unsafe_get t (hi lsr 24);
      i := !i + 8
    done;
    for j = stop to off + len - 1 do
      c :=
        Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
        lxor (!c lsr 8)
    done;
    !c lxor 0xffffffff
  end

let digest_sub b off len = update 0 b off len
let digest b = digest_sub b 0 (Bytes.length b)
