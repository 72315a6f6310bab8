(* Differential oracle for [Cffs_util.Crc32]: the original bytewise
   implementation, kept verbatim (apart from this header) so test_util can
   check that the table-sliced kernel computes the same checksums.  It
   reads one byte per table lookup, so it is only fit for tests. *)
let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc b off len =
  let table = Lazy.force table in
  let c = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let digest_sub b off len = update 0 b off len
let digest b = digest_sub b 0 (Bytes.length b)
