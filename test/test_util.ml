(* Unit and property tests for the utility substrate. *)

module Prng = Cffs_util.Prng
module Stats = Cffs_util.Stats
module Bitmap = Cffs_util.Bitmap
module Lru = Cffs_util.Lru
module Codec = Cffs_util.Codec
module Crc32 = Cffs_util.Crc32
module Tablefmt = Cffs_util.Tablefmt
module Units = Cffs_util.Units

let check = Alcotest.check
let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_prng_int_range () =
  let t = Prng.create 7 in
  for _ = 1 to 10000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let test_prng_int_in () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int_in t (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "out of range"
  done

let test_prng_float_range () =
  let t = Prng.create 9 in
  for _ = 1 to 10000 do
    let v = Prng.float t 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.fail "float out of range"
  done

let test_prng_uniformity () =
  let t = Prng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100000 in
  for _ = 1 to n do
    let i = Prng.int t 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      if freq < 0.08 || freq > 0.12 then Alcotest.fail "bucket frequency off")
    counts

let test_prng_chance () =
  let t = Prng.create 13 in
  check Alcotest.bool "p=0 never" false (Prng.chance t 0.0);
  check Alcotest.bool "p=1 always" true (Prng.chance t 1.0);
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Prng.chance t 0.25 then incr hits
  done;
  let f = float_of_int !hits /. 10000.0 in
  check Alcotest.bool "p=0.25 approx" true (f > 0.22 && f < 0.28)

let test_prng_split_independent () =
  let t = Prng.create 21 in
  let a = Prng.split t in
  let b = Prng.split t in
  check Alcotest.bool "split streams differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_exponential_mean () =
  let t = Prng.create 23 in
  let acc = ref 0.0 in
  let n = 50000 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential t 5.0
  done;
  let mean = !acc /. float_of_int n in
  check Alcotest.bool "exponential mean ~5" true (mean > 4.8 && mean < 5.2)

let test_prng_shuffle_permutation () =
  let t = Prng.create 31 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 100 Fun.id) sorted

let test_prng_bytes_len () =
  let t = Prng.create 33 in
  check Alcotest.int "length" 37 (Bytes.length (Prng.bytes t 37))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "total" 10.0 (Stats.total s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-6) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean empty" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "percentile empty" 0.0 (Stats.percentile s 50.0);
  (* min/max are 0.0 (not infinities) when nothing was observed. *)
  check (Alcotest.float 0.0) "min empty" 0.0 (Stats.min s);
  check (Alcotest.float 0.0) "max empty" 0.0 (Stats.max s)

let test_stats_reservoir () =
  let s = Stats.create ~reservoir:10 () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  (* Moments are exact regardless of the cap... *)
  check Alcotest.int "count" 1000 (Stats.count s);
  check (Alcotest.float 1e-9) "mean exact" 500.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min exact" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max exact" 1000.0 (Stats.max s);
  (* ...while sample storage stays bounded. *)
  check Alcotest.int "retained capped" 10 (Stats.retained s);
  let p = Stats.percentile s 50.0 in
  check Alcotest.bool "percentile from retained samples" true
    (p >= 1.0 && p <= 1000.0)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-6) "p50" 50.5 (Stats.percentile s 50.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  check Alcotest.int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m);
  (* Moments combine exactly, same as adding all four samples in order. *)
  check (Alcotest.float 1e-6) "merged variance" (5.0 /. 3.0) (Stats.variance m);
  check (Alcotest.float 1e-9) "merged min" 1.0 (Stats.min m);
  check (Alcotest.float 1e-9) "merged max" 4.0 (Stats.max m)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -3.0; 42.0 ];
  let counts = Stats.Histogram.counts h in
  check Alcotest.int "bucket 0 (incl clamped low)" 2 counts.(0);
  check Alcotest.int "bucket 1" 2 counts.(1);
  check Alcotest.int "bucket 9 (incl clamped high)" 2 counts.(9);
  check Alcotest.int "total" 6 (Stats.Histogram.total h);
  let lo, hi = Stats.Histogram.bucket_bounds h 3 in
  check (Alcotest.float 1e-9) "bound lo" 3.0 lo;
  check (Alcotest.float 1e-9) "bound hi" 4.0 hi

let qcheck_stats_mean_welford =
  qtest "stats: Welford mean matches naive mean"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6 *. (1.0 +. Float.abs naive))

(* ------------------------------------------------------------------ *)
(* Bitmap: the on-disk format, addressed in place at a non-zero offset. *)

let bm_base = 5

(* A header-like buffer: [bm_base] leading bytes, the bitmap, two
   trailing bytes. *)
let bm_buf nbits = Bytes.make (bm_base + ((nbits + 7) / 8) + 2) '\000'

let clear_count b n = Bitmap.count_clear b bm_base ~off:0 ~len:n

let test_bitmap_basic () =
  let b = bm_buf 100 in
  check Alcotest.int "all clear" 100 (clear_count b 100);
  Bitmap.set b bm_base 7;
  Bitmap.set b bm_base 99;
  check Alcotest.bool "get 7" true (Bitmap.get b bm_base 7);
  check Alcotest.bool "get 8" false (Bitmap.get b bm_base 8);
  check Alcotest.int "count" 98 (clear_count b 100);
  Bitmap.clear b bm_base 7;
  check Alcotest.int "count after clear" 99 (clear_count b 100);
  Bitmap.set b bm_base 99;
  check Alcotest.int "idempotent set" 99 (clear_count b 100);
  Bitmap.clear b bm_base 7;
  check Alcotest.int "idempotent clear" 99 (clear_count b 100)

let test_bitmap_ranges () =
  let b = bm_buf 64 in
  for i = 10 to 29 do
    Bitmap.set b bm_base i
  done;
  check Alcotest.int "range count" 44 (clear_count b 64);
  check Alcotest.int "none clear inside" 0 (Bitmap.count_clear b bm_base ~off:10 ~len:20);
  check Alcotest.bool "run check" true (Bitmap.all_clear b bm_base ~off:30 ~len:34);
  check Alcotest.bool "run overlap" false (Bitmap.all_clear b bm_base ~off:25 ~len:10);
  check Alcotest.bool "empty run" true (Bitmap.all_clear b bm_base ~off:12 ~len:0)

let test_bitmap_find_clear () =
  let b = bm_buf 16 in
  for i = 0 to 15 do
    Bitmap.set b bm_base i
  done;
  let find hint = Bitmap.find_clear b bm_base ~len:16 ~hint in
  check (Alcotest.option Alcotest.int) "full" None (find 3);
  Bitmap.clear b bm_base 5;
  check (Alcotest.option Alcotest.int) "finds 5 from 3" (Some 5) (find 3);
  check (Alcotest.option Alcotest.int) "wraps from 10" (Some 5) (find 10);
  check (Alcotest.option Alcotest.int) "hint taken mod len" (Some 5) (find 21)

let test_bitmap_find_clear_in () =
  let b = bm_buf 64 in
  for i = 0 to 63 do
    if i < 30 || (i >= 40 && i < 50) then Bitmap.set b bm_base i
  done;
  (* free: 30..39 and 50..63 *)
  let find lo hi = Bitmap.find_clear_in b bm_base ~lo ~hi in
  check (Alcotest.option Alcotest.int) "first free" (Some 30) (find 0 64);
  check (Alcotest.option Alcotest.int) "from inside a free run" (Some 35) (find 35 64);
  check (Alcotest.option Alcotest.int) "none in a full range" None (find 40 50);
  check (Alcotest.option Alcotest.int) "skips the full range" (Some 50) (find 45 60)

(* Bit i is bit (i mod 8) of byte (base + i / 8); bytes around the bitmap
   are never touched. *)
let test_bitmap_serialise () =
  let b = bm_buf 77 in
  List.iter (Bitmap.set b bm_base) [ 0; 13; 64; 76 ];
  let expect = bm_buf 77 in
  List.iter
    (fun (byte, v) -> Bytes.set expect (bm_base + byte) (Char.chr v))
    [ (0, 0x01); (1, 0x20); (8, 0x01); (9, 0x10) ];
  check Alcotest.bytes "set layout" expect b;
  let b = Bytes.make (Bytes.length b) '\xff' in
  List.iter (Bitmap.clear b bm_base) [ 0; 13; 64; 76 ];
  check Alcotest.bytes "clear layout"
    (Bytes.map (fun c -> Char.chr (lnot (Char.code c) land 0xff)) expect)
    b

let qcheck_bitmap_model =
  qtest "bitmap: set/clear agrees with a boolean-array model"
    QCheck.(list (pair (int_bound 199) bool))
    (fun ops ->
      let b = bm_buf 200 in
      let model = Array.make 200 false in
      List.iter
        (fun (i, set) ->
          if set then Bitmap.set b bm_base i else Bitmap.clear b bm_base i;
          model.(i) <- set)
        ops;
      let ok = ref true in
      Array.iteri (fun i v -> if Bitmap.get b bm_base i <> v then ok := false) model;
      !ok
      && clear_count b 200
         = Array.fold_left (fun a v -> if v then a else a + 1) 0 model)

(* Random header bytes (mostly-full bytes, so the hinted scan often has
   to wrap), a random base and random ranges: every scan agrees with a
   naive reference that reads the bits by hand. *)
let qcheck_bitmap_naive =
  let gen =
    QCheck.Gen.(
      let* base = int_range 1 16 in
      let* nbytes = int_range 1 24 in
      let byte = frequency [ (3, return '\xff'); (1, char) ] in
      let* hdr = string_size ~gen:byte (return (base + nbytes)) in
      let bits = nbytes * 8 in
      let* len = int_range 1 bits in
      let* hint = int_bound (3 * len) in
      let* lo = int_bound len in
      let* n = int_bound (len - lo) in
      return (base, hdr, len, hint, lo, n))
  in
  let print (base, hdr, len, hint, lo, n) =
    Printf.sprintf "base=%d hdr=%S len=%d hint=%d lo=%d n=%d" base hdr len hint lo n
  in
  qtest "bitmap: hinted find and range checks agree with a naive scan"
    (QCheck.make ~print gen)
    (fun (base, hdr, len, hint, lo, n) ->
      let b = Bytes.of_string hdr in
      let bit i = (Char.code hdr.[base + (i / 8)] lsr (i mod 8)) land 1 = 1 in
      let first_clear idxs = List.find_opt (fun i -> not (bit i)) idxs in
      let h = hint mod len in
      let range lo n = List.init n (fun k -> lo + k) in
      Bitmap.find_clear b base ~len ~hint = first_clear (range h (len - h) @ range 0 h)
      && Bitmap.find_clear_in b base ~lo ~hi:(lo + n) = first_clear (range lo n)
      && Bitmap.all_clear b base ~off:lo ~len:n = List.for_all (fun i -> not (bit i)) (range lo n)
      && Bitmap.count_clear b base ~off:lo ~len:n
         = List.length (List.filter (fun i -> not (bit i)) (range lo n))
      && List.for_all (fun i -> Bitmap.get b base i = bit i) (range 0 len)
      && Bytes.to_string b = hdr)

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_order () =
  let l = Lru.create () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.add l 3 "c";
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "lru is 1"
    (Some (1, "a")) (Lru.lru l);
  ignore (Lru.use l 1);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "lru is 2 after touch"
    (Some (2, "b")) (Lru.lru l);
  check Alcotest.int "length" 3 (Lru.length l)

let test_lru_pop () =
  let l = Lru.create () in
  Lru.add l 1 1;
  Lru.add l 2 2;
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "pop 1" (Some (1, 1))
    (Lru.pop_lru l);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "pop 2" (Some (2, 2))
    (Lru.pop_lru l);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "empty" None
    (Lru.pop_lru l)

let test_lru_replace () =
  let l = Lru.create () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.add l 1 "a2";
  check Alcotest.int "no dup" 2 (Lru.length l);
  check (Alcotest.option Alcotest.string) "replaced" (Some "a2") (Lru.find l 1);
  (* replacing touched key 1, so 2 is now LRU *)
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "2 is lru"
    (Some (2, "b")) (Lru.lru l)

let test_lru_remove () =
  let l = Lru.create () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.remove l 1;
  check Alcotest.bool "gone" false (Lru.mem l 1);
  check Alcotest.int "length" 1 (Lru.length l);
  Lru.remove l 42 (* removing a missing key is fine *)

let test_lru_iter_order () =
  let l = Lru.create () in
  List.iter (fun i -> Lru.add l i i) [ 1; 2; 3; 4 ];
  ignore (Lru.use l 2);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "lru-to-mru"
    [ (1, 1); (3, 3); (4, 4); (2, 2) ]
    (Lru.to_list l)

let qcheck_lru_model =
  qtest "lru: agrees with a list-based model"
    QCheck.(list (pair (int_bound 20) (int_bound 2)))
    (fun ops ->
      let l = Lru.create () in
      (* model: association list in LRU order (head = LRU) *)
      let model = ref [] in
      let model_add k v =
        model := List.filter (fun (k', _) -> k' <> k) !model @ [ (k, v) ]
      in
      let model_use k =
        match List.assoc_opt k !model with
        | Some v ->
            model := List.filter (fun (k', _) -> k' <> k) !model @ [ (k, v) ]
        | None -> ()
      in
      let model_remove k = model := List.filter (fun (k', _) -> k' <> k) !model in
      List.iter
        (fun (k, op) ->
          match op with
          | 0 ->
              Lru.add l k k;
              model_add k k
          | 1 ->
              ignore (Lru.use l k);
              model_use k
          | _ ->
              Lru.remove l k;
              model_remove k)
        ops;
      Lru.to_list l = !model)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip () =
  let b = Bytes.make 64 '\000' in
  Codec.set_u8 b 0 0xAB;
  Codec.set_u16 b 1 0xBEEF;
  Codec.set_u32 b 4 0xDEADBEEF;
  Codec.set_u64 b 8 0x1122334455667788;
  check Alcotest.int "u8" 0xAB (Codec.get_u8 b 0);
  check Alcotest.int "u16" 0xBEEF (Codec.get_u16 b 1);
  check Alcotest.int "u32" 0xDEADBEEF (Codec.get_u32 b 4);
  check Alcotest.int "u64" 0x1122334455667788 (Codec.get_u64 b 8)

let test_codec_cstring () =
  let b = Bytes.make 32 '\xff' in
  Codec.set_cstring b 4 10 "hello";
  check Alcotest.string "cstring" "hello" (Codec.get_cstring b 4 10);
  Codec.set_cstring b 4 10 "0123456789";
  check Alcotest.string "full-width" "0123456789" (Codec.get_cstring b 4 10);
  check Alcotest.bool "too long rejected" true
    (try
       Codec.set_cstring b 4 10 "0123456789x";
       false
     with Invalid_argument _ -> true)

let qcheck_codec_u32 =
  qtest "codec: u32 roundtrips"
    QCheck.(int_bound 0xFFFFFFF)
    (fun v ->
      let b = Bytes.make 8 '\000' in
      Codec.set_u32 b 2 v;
      Codec.get_u32 b 2 = v)

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_vectors () =
  (* Standard IEEE CRC-32 check value. *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.digest (Bytes.of_string "123456789"));
  check Alcotest.int "empty" 0 (Crc32.digest Bytes.empty)

let test_crc32_incremental () =
  let data = Bytes.of_string "hello, world" in
  let whole = Crc32.digest data in
  let sub = Crc32.digest_sub data 0 (Bytes.length data) in
  check Alcotest.int "digest_sub whole" whole sub

let qcheck_crc32_detects_flip =
  qtest "crc32: single-byte flips change the checksum"
    QCheck.(pair (string_of_size (Gen.int_range 1 64)) (int_bound 63))
    (fun (s, i) ->
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      let before = Crc32.digest b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
      Crc32.digest b <> before)

(* The sliced kernel against the bytewise original (test/crc32_oracle.ml):
   buffers of 0-9000 bytes, unaligned offsets, every tail length 0-7 past
   the last 8-byte step, an arbitrary running CRC, and a split point at
   which the same range is checksummed in two chained calls. *)
let crc_case_gen =
  QCheck.Gen.(
    let* n = int_range 0 9000 in
    let* s = string_size (return n) in
    let* off = int_range 0 n in
    let* tail = int_range 0 (min 7 (n - off)) in
    let* steps = int_range 0 ((n - off - tail) / 8) in
    let len = (8 * steps) + tail in
    let* split = int_range 0 len in
    let* hi = int_bound 0xffff and* lo = int_bound 0xffff in
    return (Bytes.of_string s, off, len, split, (hi lsl 16) lor lo))

let qcheck_crc32_matches_oracle =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 1997 |])
    (QCheck.Test.make ~count:5000
       ~name:"crc32: sliced kernel equals the bytewise oracle, chained or not"
       (QCheck.make
          ~print:(fun (b, off, len, split, crc) ->
            Printf.sprintf "size=%d off=%d len=%d split=%d crc=0x%08x"
              (Bytes.length b) off len split crc)
          crc_case_gen)
       (fun (b, off, len, split, crc) ->
         let whole = Crc32.update crc b off len in
         whole = Crc32_oracle.update crc b off len
         && Crc32.update (Crc32.update crc b off split) b (off + split) (len - split)
            = whole))

(* Argument handling is the oracle's: [len <= 0] returns the running CRC
   untouched whatever [off] is, and a positive range reaching outside the
   buffer raises [Invalid_argument]. *)
let test_crc32_arguments () =
  let b = Bytes.of_string "0123456789" in
  let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None in
  List.iter
    (fun (off, len) ->
      check
        Alcotest.(option int)
        (Printf.sprintf "off=%d len=%d" off len)
        (outcome (fun () -> Crc32_oracle.update 0x1234abcd b off len))
        (outcome (fun () -> Crc32.update 0x1234abcd b off len)))
    [ (0, 0); (0, -1); (-5, 0); (11, -3); (20, 0); (0, 10); (3, 7); (9, 1);
      (-1, 1); (-1, 11); (0, 11); (5, 6); (10, 1); (11, 1) ];
  (* The oracle's loop bound [off + len - 1] wraps for a huge [len] and
     silently checksums nothing; the up-front check rejects it. *)
  check
    Alcotest.(option int)
    "len max_int" None
    (outcome (fun () -> Crc32.update 0 b 3 max_int))

(* ------------------------------------------------------------------ *)
(* Tablefmt and Units *)

let test_tablefmt_render () =
  let t = Tablefmt.create ~title:"T" [ ("a", Tablefmt.Left); ("b", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_row t [ "long"; "22" ];
  let s = Tablefmt.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && s.[0] = 'T');
  check Alcotest.bool "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "x      1" || l = "x      1 ") lines)

let test_tablefmt_arity () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  check Alcotest.bool "wrong arity rejected" true
    (try
       Tablefmt.add_row t [ "x"; "y" ];
       false
     with Invalid_argument _ -> true)

let test_units () =
  check Alcotest.string "bytes" "4.0 KB" (Tablefmt.fmt_bytes 4096);
  check Alcotest.string "mb" "2.0 MB" (Tablefmt.fmt_bytes (2 * 1024 * 1024));
  check (Alcotest.float 1e-9) "ms" 0.005 (Units.ms 5.0);
  check (Alcotest.float 1e-9) "rev" 0.01 (Units.rpm_to_rev_time 6000.0)

let () =
  Alcotest.run "cffs_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed independence" `Quick test_prng_different_seeds;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "chance" `Quick test_prng_chance;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "reservoir" `Quick test_stats_reservoir;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          qcheck_stats_mean_welford;
        ] );
      ( "bitmap",
        [
          Alcotest.test_case "basic" `Quick test_bitmap_basic;
          Alcotest.test_case "ranges" `Quick test_bitmap_ranges;
          Alcotest.test_case "find_clear" `Quick test_bitmap_find_clear;
          Alcotest.test_case "find_clear_in" `Quick test_bitmap_find_clear_in;
          Alcotest.test_case "serialise" `Quick test_bitmap_serialise;
          qcheck_bitmap_model;
          qcheck_bitmap_naive;
        ] );
      ( "lru",
        [
          Alcotest.test_case "recency order" `Quick test_lru_order;
          Alcotest.test_case "pop" `Quick test_lru_pop;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "iter order" `Quick test_lru_iter_order;
          qcheck_lru_model;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "cstring" `Quick test_codec_cstring;
          qcheck_codec_u32;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
          qcheck_crc32_detects_flip;
          Alcotest.test_case "argument handling" `Quick test_crc32_arguments;
          qcheck_crc32_matches_oracle;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "arity" `Quick test_tablefmt_arity;
          Alcotest.test_case "units" `Quick test_units;
        ] );
    ]
