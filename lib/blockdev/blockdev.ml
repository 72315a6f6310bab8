open Cffs_disk
module Io_error = Cffs_util.Io_error

(* Uniform request accounting for both backends; the timed backend's drive
   additionally keeps its own (timed) [Request.Stats]. *)
let m_reads = Cffs_obs.Registry.counter "blockdev.reads"
let m_writes = Cffs_obs.Registry.counter "blockdev.writes"
let m_read_sectors = Cffs_obs.Registry.counter "blockdev.read_sectors"
let m_write_sectors = Cffs_obs.Registry.counter "blockdev.write_sectors"
let m_io_errors = Cffs_obs.Registry.counter "blockdev.io_errors"
let m_host = Cffs_obs.Registry.fcounter "blockdev.host_s"

type outcome = Proceed | Torn of int | Fail of Io_error.cause
type injector = Io_error.op -> blk:int -> nblocks:int -> outcome
type write_observer = blk:int -> data:bytes -> torn:int option -> unit

type backend =
  | Memory of { mutable clock : float; stats : Request.Stats.s }
  | Timed of { drive : Drive.t; policy : Scheduler.policy; host_overhead : float }
  | Multi of multi

(* A composite device: logical blocks mapped onto N subdevices (simulated
   spindles) by an extent table.  Each subdevice keeps its own Ioqueue, so
   scheduling, tagged queuing, coalescing and fault isolation apply
   per-spindle; the composite clock is the {e maximum} of the sub clocks
   (spindles service their queues concurrently), which is what makes
   multi-drain throughput scale.  Requests are split at extent boundaries
   into per-spindle fragments and reassembled on completion. *)
and multi = {
  subs : t array;
  extents : extent array;  (* sorted by lstart; tiles [0, nblocks) *)
  sub_extents : extent array array;  (* per subdevice, sorted by pstart *)
  frags : (int * int, frag) Hashtbl.t;  (* (sub index, sub tag) -> fragment *)
  parents : (int, parent) Hashtbl.t;  (* composite tag -> assembly state *)
  mutable next_tag : int;
}

and extent = { lstart : int; xlen : int; xsub : int; pstart : int }

and tag_chunks = int array array

and frag = { fr_parent : int; fr_off : int (* blocks into the parent *); fr_len : int; fr_lblk : int }

and parent = {
  p_tag : int;
  p_op : Io_error.op;
  p_blk : int;
  p_n : int;
  p_data : bytes;  (* reads: assembly buffer; writes: empty *)
  mutable p_left : int;  (* fragments outstanding *)
  mutable p_err : Io_error.t option;  (* first fragment failure, logical blocks *)
}

(* Payload carried through the tagged queue: reads want data back, writes
   carry the data in. *)
and qpayload = Pread | Pwrite of bytes

and cqe = {
  cq_tag : Ioqueue.tag;
  cq_op : Io_error.op;
  cq_blk : int;
  cq_nblocks : int;
  cq_result : (bytes, Io_error.t) result;
      (* [Ok data] for reads, [Ok Bytes.empty] for writes *)
}

and t = {
  backend : backend;
  store : (int, bytes) Hashtbl.t;
  block_size : int;
  nblocks : int;
  queue : qpayload Ioqueue.t;
  mutable completed : cqe list;  (* reverse completion order *)
  mutable injector : injector option;
  mutable write_observer : write_observer option;
  (* Out-of-band per-block integrity tags, the software analogue of
     T10-DIF / 520-byte-sector protection information: a tag travels with
     the block through the same request that persists it, so the pair is
     updated atomically and a torn request leaves the old tag in place —
     which is exactly what makes the tear detectable.  Maintained only
     when [tags_enabled]; the Integrity layer owns the at-rest encoding
     (the on-disk checksum region) and all verification.  Kept in
     lazily allocated chunks (see "the tag store" below). *)
  mutable tags : tag_chunks;
  mutable tags_enabled : bool;
  (* One byte per tag page — the tags of [block_size / 4] consecutive
     logical blocks, one block of the at-rest encoding — set whenever a
     tag in the page is written, even with an unchanged value, and
     cleared by the Integrity layer when it writes the page back. *)
  tag_dirty : bytes;
  (* A composite's spindle: the composite and this spindle's extents
     (sorted by [pstart]), through which its physical tag writes mark the
     composite's logical tag pages. *)
  mutable tag_owner : (t * extent array) option;
}

type flat_image = {
  img_blocks : (int, bytes) Hashtbl.t;
  img_tags : tag_chunks;
  img_tags_enabled : bool;
}

type image =
  | Iflat of flat_image
  | Imulti of { parts : image array; iextents : extent array }

let sectors_per_block t = t.block_size / Cffs_util.Units.sector_size

(* --- extent mapping (composite devices) ---------------------------------- *)

(* The extent holding logical block [lblk], plus the offset into it.
   Extents tile the logical space, so the search always lands. *)
let locate (m : multi) lblk =
  let a = m.extents in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if a.(mid).lstart <= lblk then lo := mid else hi := mid - 1
  done;
  let e = a.(!lo) in
  (e, lblk - e.lstart)

(* Split the logical range [blk, blk+n) into per-spindle fragments
   [(sub, pstart, off_blocks, len)] in logical order. *)
let frags_of m blk n =
  let rec go acc blk n off =
    if n = 0 then List.rev acc
    else
      let e, eoff = locate m blk in
      let run = min n (e.xlen - eoff) in
      go ((e.xsub, e.pstart + eoff, off, run) :: acc) (blk + run) (n - run)
        (off + run)
  in
  go [] blk n 0

(* The logical runs a {e physical} range on subdevice [i] covers:
   [(off_blocks_into_request, logical_start, len)] in physical order.
   Physical blocks outside every extent yield no run. *)
let runs_of m i pblk n =
  let a = m.sub_extents.(i) in
  let pend = pblk + n in
  let out = ref [] in
  Array.iter
    (fun e ->
      let s = max pblk e.pstart and e' = min pend (e.pstart + e.xlen) in
      if s < e' then out := (s - pblk, e.lstart + (s - e.pstart), e' - s) :: !out)
    a;
  List.rev !out

(* --- the tag store ------------------------------------------------------- *)

(* Tags are kept in chunks of [tag_chunk] blocks, [no_tag] where none is
   recorded; a chunk is allocated by the first tag written into it, so
   memory and scan cost follow the blocks ever tagged, not the device
   size.  Lookups never allocate. *)
let tag_chunk_bits = 10
let tag_chunk = 1 lsl tag_chunk_bits
let no_tag = -1
let tag_chunks_for nblocks = Array.make ((nblocks + tag_chunk - 1) / tag_chunk) [||]

let tag_get (c : tag_chunks) blk =
  let ch = c.(blk lsr tag_chunk_bits) in
  if Array.length ch = 0 then no_tag else ch.(blk land (tag_chunk - 1))

let tag_put (c : tag_chunks) blk v =
  let i = blk lsr tag_chunk_bits in
  if Array.length c.(i) = 0 then c.(i) <- Array.make tag_chunk no_tag;
  c.(i).(blk land (tag_chunk - 1)) <- v

(* [f blk v] for every tagged block of [blk, blk+n), ascending, skipping
   unallocated chunks whole. *)
let tag_scan (c : tag_chunks) blk n f =
  let stop = blk + n in
  let b = ref blk in
  while !b < stop do
    let ch = c.(!b lsr tag_chunk_bits) in
    let next = min stop ((!b lor (tag_chunk - 1)) + 1) in
    if Array.length ch > 0 then
      for x = !b to next - 1 do
        let v = ch.(x land (tag_chunk - 1)) in
        if v <> no_tag then f x v
      done;
    b := next
  done

let copy_tag_chunks (c : tag_chunks) = Array.map Array.copy c

let tag_pages_of ~block_size ~nblocks = ((nblocks * 4) + block_size - 1) / block_size

let of_drive ?(policy = Scheduler.Clook) ?(host_overhead = 0.5e-3) drive ~block_size =
  if block_size <= 0 || block_size mod Cffs_util.Units.sector_size <> 0 then
    invalid_arg "Blockdev.of_drive: block size";
  let nblocks = Drive.total_sectors drive * Cffs_util.Units.sector_size / block_size in
  {
    backend = Timed { drive; policy; host_overhead };
    store = Hashtbl.create 4096;
    block_size;
    nblocks;
    queue = Ioqueue.create ~policy ();
    completed = [];
    injector = None;
    write_observer = None;
    tags = tag_chunks_for nblocks;
    tags_enabled = false;
    tag_dirty = Bytes.make (tag_pages_of ~block_size ~nblocks) '\000';
    tag_owner = None;
  }

let memory ~block_size ~nblocks =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Blockdev.memory";
  {
    backend = Memory { clock = 0.0; stats = Request.Stats.create () };
    store = Hashtbl.create 4096;
    block_size;
    nblocks;
    queue = Ioqueue.create ();
    completed = [];
    injector = None;
    write_observer = None;
    tags = tag_chunks_for nblocks;
    tags_enabled = false;
    tag_dirty = Bytes.make (tag_pages_of ~block_size ~nblocks) '\000';
    tag_owner = None;
  }

let block_size t = t.block_size
let nblocks t = t.nblocks
let set_injector t inj = t.injector <- inj
let set_write_observer t obs = t.write_observer <- obs

let subdevices t =
  match t.backend with Multi m -> Array.copy m.subs | _ -> [||]

(* Tags live with the media, so on a composite they live in the
   subdevices' tables, keyed by physical block; the composite translates. *)
let rec enable_tags t =
  t.tags_enabled <- true;
  match t.backend with
  | Multi m -> Array.iter enable_tags m.subs
  | _ -> ()

let tags_enabled t = t.tags_enabled

let rec tag t blk =
  match t.backend with
  | Multi m ->
      let e, off = locate m blk in
      tag m.subs.(e.xsub) (e.pstart + off)
  | _ ->
      let v = tag_get t.tags blk in
      if v = no_tag then None else Some v

(* --- tag pages ------------------------------------------------------------ *)

let tag_pages t = Bytes.length t.tag_dirty
let tag_page_dirty t p = Bytes.get t.tag_dirty p <> '\000'
let set_tag_page_dirty t p d = Bytes.set t.tag_dirty p (if d then '\001' else '\000')
let set_all_tag_pages_dirty t d =
  Bytes.fill t.tag_dirty 0 (tag_pages t) (if d then '\001' else '\000')

(* Mark the pages holding the tags of logical blocks [lblk, lblk+n). *)
let mark_pages t lblk n =
  let per = t.block_size / 4 in
  for p = lblk / per to (lblk + n - 1) / per do
    Bytes.set t.tag_dirty p '\001'
  done

(* Tags of blocks [start, start+n) of [t]'s own address space were just
   written.  A spindle maps the range back through its extents (as
   {!runs_of} does) and marks its composite's pages; physical blocks
   outside every extent have no logical address and mark nothing.  No
   allocation: one search for the first extent, then a forward walk. *)
let tags_written t start n =
  match t.tag_owner with
  | None -> mark_pages t start n
  | Some (comp, exts) ->
      let stop = start + n in
      let lo = ref 0 and hi = ref (Array.length exts) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let e = exts.(mid) in
        if e.pstart + e.xlen <= start then lo := mid + 1 else hi := mid
      done;
      let i = ref !lo in
      while !i < Array.length exts && exts.(!i).pstart < stop do
        let e = exts.(!i) in
        let s = if start > e.pstart then start else e.pstart in
        let s' = if stop < e.pstart + e.xlen then stop else e.pstart + e.xlen in
        mark_pages comp (e.lstart + s - e.pstart) (s' - s);
        incr i
      done

let set_tag t blk v =
  let rec go t blk =
    match t.backend with
    | Multi m ->
        let e, off = locate m blk in
        go m.subs.(e.xsub) (e.pstart + off)
    | _ -> tag_put t.tags blk v
  in
  go t blk;
  mark_pages t blk 1

let iter_tags t ~blk ~n f =
  let scan dev pblk len lblk =
    tag_scan dev.tags pblk len (fun p v -> f (lblk + p - pblk) v)
  in
  match t.backend with
  | Multi m ->
      List.iter
        (fun (si, pblk, off, len) -> scan m.subs.(si) pblk len (blk + off))
        (frags_of m blk n)
  | _ -> scan t blk n blk

let check_range t op blk n =
  if blk < 0 || n <= 0 || blk + n > t.nblocks then
    let spb = t.block_size / Cffs_util.Units.sector_size in
    Io_error.raise_error ~op ~blk ~nblocks:n
      ~range:
        {
          Io_error.start_sector = blk * spb;
          sector_count = n * spb;
          dev_sectors = t.nblocks * spb;
          dev_blocks = t.nblocks;
        }
      Io_error.Out_of_bounds

let consult t op ~blk ~nblocks =
  match t.injector with None -> Proceed | Some f -> f op ~blk ~nblocks

let copy_out t blk dst off =
  match Hashtbl.find_opt t.store blk with
  | Some b -> Bytes.blit b 0 dst off t.block_size
  | None -> Bytes.fill dst off t.block_size '\000'

let store_block t blk src off =
  let b =
    match Hashtbl.find_opt t.store blk with
    | Some b -> b
    | None ->
        let b = Bytes.create t.block_size in
        Hashtbl.replace t.store blk b;
        b
  in
  Bytes.blit src off b 0 t.block_size

(* Persist a write request's payload, possibly torn: only the first
   [keep_sectors] 512-byte sectors reach the media, the rest of the range
   keeps its previous contents.  Sectors are atomic — the assumption C-FFS
   builds its name+inode atomicity on.

   Tag discipline: a fully persisted block gets the CRC of its new
   contents; a torn block keeps its {e old} tag — the request died before
   the out-of-band tag could be updated — so unless the mixed contents
   happen to equal the previous contents, a later verified read flags the
   tear. *)
let persist_request t start data ~keep_sectors =
  let ss = Cffs_util.Units.sector_size in
  let spb = sectors_per_block t in
  let n = Bytes.length data / t.block_size in
  let keep =
    match keep_sectors with
    | None -> n * spb
    | Some k -> max 0 (min (n * spb) k)
  in
  let full = keep / spb in
  for i = 0 to full - 1 do
    store_block t (start + i) data (i * t.block_size);
    if t.tags_enabled then
      tag_put t.tags (start + i)
        (Cffs_util.Crc32.digest_sub data (i * t.block_size) t.block_size)
  done;
  if t.tags_enabled && full > 0 then tags_written t start full;
  let rem = keep mod spb in
  if rem > 0 then begin
    let old = Bytes.create t.block_size in
    copy_out t (start + full) old 0;
    Bytes.blit data (full * t.block_size) old 0 (rem * ss);
    store_block t (start + full) old 0
  end

let time_request t (req : Request.t) =
  (match req.kind with
  | Read ->
      Cffs_obs.Registry.incr m_reads;
      Cffs_obs.Registry.incr ~by:req.sectors m_read_sectors
  | Write ->
      Cffs_obs.Registry.incr m_writes;
      Cffs_obs.Registry.incr ~by:req.sectors m_write_sectors);
  match t.backend with
  | Memory m -> (
      let s = m.stats in
      match req.kind with
      | Read ->
          s.reads <- s.reads + 1;
          s.read_sectors <- s.read_sectors + req.sectors
      | Write ->
          s.writes <- s.writes + 1;
          s.write_sectors <- s.write_sectors + req.sectors)
  | Timed { drive; host_overhead; _ } ->
      Cffs_obs.Registry.fadd m_host host_overhead;
      Drive.advance drive host_overhead;
      ignore (Drive.service drive req)
  | Multi _ -> assert false (* composites never service requests themselves *)

let rec dev_now t =
  match t.backend with
  | Memory m -> m.clock
  | Timed { drive; _ } -> Drive.now drive
  | Multi m ->
      (* the composite clock: spindles run concurrently, so elapsed time is
         the maximum of the sub clocks, not their sum *)
      Array.fold_left (fun acc s -> Float.max acc (dev_now s)) 0.0 m.subs

let err op ~blk ~nblocks cause =
  { Io_error.op; blk; nblocks; cause; range = None }

(* One read request against the media: consult the fault injector, account
   the request (reads are timed even when they fail — the head still moved),
   then copy out. *)
let read_service t blk n : (bytes, Io_error.t) result =
  let spb = sectors_per_block t in
  let outcome = consult t Io_error.Read ~blk ~nblocks:n in
  time_request t (Request.read ~lba:(blk * spb) ~sectors:(n * spb));
  match outcome with
  | Proceed | Torn _ ->
      let out = Bytes.create (n * t.block_size) in
      for i = 0 to n - 1 do
        copy_out t (blk + i) out (i * t.block_size)
      done;
      Ok out
  | Fail cause ->
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Read ~blk ~nblocks:n cause)

(* One write request: consult the fault injector, account the request, then
   persist.  A torn request persists its prefix and then fails with
   [Power_cut] — a tear is only ever caused by losing power mid-request, so
   nothing after it completes either.  The write observer sees every request
   that persisted anything (full or torn), with the full intended payload. *)
let write_service t start data : (unit, Io_error.t) result =
  let n = Bytes.length data / t.block_size in
  let spb = sectors_per_block t in
  let outcome = consult t Io_error.Write ~blk:start ~nblocks:n in
  (match outcome with
  | Fail Io_error.Power_cut -> ()
  | _ -> time_request t (Request.write ~lba:(start * spb) ~sectors:(n * spb)));
  match outcome with
  | Proceed ->
      persist_request t start data ~keep_sectors:None;
      (match t.write_observer with
      | Some f -> f ~blk:start ~data ~torn:None
      | None -> ());
      Ok ()
  | Torn k ->
      let keep = max 0 (min (n * spb) k) in
      persist_request t start data ~keep_sectors:(Some keep);
      (match t.write_observer with
      | Some f -> f ~blk:start ~data ~torn:(Some keep)
      | None -> ());
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Write ~blk:start ~nblocks:n Io_error.Power_cut)
  | Fail cause ->
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Write ~blk:start ~nblocks:n cause)

(* --- the tagged-queue pipeline ------------------------------------------- *)

let h_wait = Cffs_obs.Registry.histogram "ioqueue.wait_s"
let m_wait_total = Cffs_obs.Registry.fcounter "ioqueue.wait_total_s"

let set_queue t ?depth ?policy ?coalesce () =
  Option.iter (Ioqueue.set_depth t.queue) depth;
  Option.iter (Ioqueue.set_policy t.queue) policy;
  Option.iter (Ioqueue.set_coalesce t.queue) coalesce

let queue_depth t = Ioqueue.depth t.queue
let queue_policy t = Ioqueue.policy t.queue
let queue_coalesce t = Ioqueue.coalesce t.queue
let pending t = Ioqueue.pending t.queue

let submit_read t blk n =
  check_range t Io_error.Read blk n;
  let spb = sectors_per_block t in
  Ioqueue.submit t.queue
    (Request.read ~lba:(blk * spb) ~sectors:(n * spb))
    Pread ~now:(dev_now t)

let submit_write t blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Blockdev.submit_write: partial block";
  let n = len / t.block_size in
  check_range t Io_error.Write blk n;
  let spb = sectors_per_block t in
  Ioqueue.submit t.queue
    (Request.write ~lba:(blk * spb) ~sectors:(n * spb))
    (Pwrite data) ~now:(dev_now t)

let geom_of t =
  match t.backend with
  | Memory _ | Multi _ -> None
  | Timed { drive; _ } -> Some (Drive.geometry drive)

let head_cyl t =
  match t.backend with
  | Memory _ | Multi _ -> 0
  | Timed { drive; _ } -> Drive.current_cyl drive

let push_cqe t c = t.completed <- c :: t.completed

let item_blk t (it : qpayload Ioqueue.item) =
  let spb = sectors_per_block t in
  (it.req.Request.lba / spb, it.req.Request.sectors / spb)

let item_op (it : qpayload Ioqueue.item) =
  match it.req.Request.kind with
  | Request.Read -> Io_error.Read
  | Request.Write -> Io_error.Write

let cqe_of_item t (it : qpayload Ioqueue.item) result =
  let blk, n = item_blk t it in
  { cq_tag = it.tag; cq_op = item_op it; cq_blk = blk; cq_nblocks = n;
    cq_result = result }

(* Service one dispatch group as a single contiguous request.  When a
   merged request fails with a retryable cause, fall back to servicing the
   members individually so only the member actually covering the fault
   fails its waiter — the isolation the tagged queue promises.  Returns
   the group's cqes (also pushed to the completion list) and whether the
   device lost power. *)
let service_group t (group : qpayload Ioqueue.item list) =
  let now = dev_now t in
  List.iter
    (fun (it : qpayload Ioqueue.item) ->
      let wait = now -. it.Ioqueue.submitted_at in
      Cffs_obs.Registry.observe h_wait wait;
      Cffs_obs.Registry.fadd m_wait_total wait)
    group;
  let singles () =
    List.map
      (fun (it : qpayload Ioqueue.item) ->
        let blk, n = item_blk t it in
        match it.Ioqueue.payload with
        | Pread -> cqe_of_item t it (read_service t blk n)
        | Pwrite data ->
            cqe_of_item t it
              (Result.map (fun () -> Bytes.empty) (write_service t blk data)))
      group
  in
  let cqes =
    match group with
    | [] -> []
    | [ _ ] -> singles ()
    | first :: _ -> (
        (* contiguous ascending by construction *)
        let start, _ = item_blk t first in
        let total =
          List.fold_left
            (fun acc it -> acc + snd (item_blk t it))
            0 group
        in
        match first.Ioqueue.payload with
        | Pread -> (
            match read_service t start total with
            | Ok data ->
                List.map
                  (fun it ->
                    let blk, n = item_blk t it in
                    let part = Bytes.sub data ((blk - start) * t.block_size)
                        (n * t.block_size) in
                    cqe_of_item t it (Ok part))
                  group
            | Error e when e.Io_error.cause = Io_error.Power_cut ->
                List.map (fun it -> cqe_of_item t it (Error e)) group
            | Error _ -> singles ())
        | Pwrite _ -> (
            let data = Bytes.create (total * t.block_size) in
            List.iter
              (fun (it : qpayload Ioqueue.item) ->
                match it.Ioqueue.payload with
                | Pwrite d ->
                    let blk, _ = item_blk t it in
                    Bytes.blit d 0 data ((blk - start) * t.block_size)
                      (Bytes.length d)
                | Pread -> assert false)
              group;
            match write_service t start data with
            | Ok () ->
                List.map (fun it -> cqe_of_item t it (Ok Bytes.empty)) group
            | Error e when e.Io_error.cause = Io_error.Power_cut ->
                (* torn or cut mid-request: the merged request died as one *)
                List.map (fun it -> cqe_of_item t it (Error e)) group
            | Error _ -> singles ()))
  in
  List.iter (push_cqe t) cqes;
  let power_cut =
    List.exists
      (fun c ->
        match c.cq_result with
        | Error e -> e.Io_error.cause = Io_error.Power_cut
        | Ok _ -> false)
      cqes
  in
  (cqes, power_cut)

(* The device lost power (or the queue is being torn down): every request
   still queued fails its waiter without touching the media or the clock —
   and without counting as a device error, since the device never saw it. *)
let fail_pending t cause =
  List.iter
    (fun (it : qpayload Ioqueue.item) ->
      let blk, n = item_blk t it in
      push_cqe t (cqe_of_item t it (Error (err (item_op it) ~blk ~nblocks:n cause))))
    (Ioqueue.clear t.queue)

let reset_queue t =
  let n = Ioqueue.pending t.queue in
  fail_pending t Io_error.Power_cut;
  n

(* Drain loop.  The head-position convention matches the batch scheduler
   this replaces: the cylinder used for the next pick is the cylinder of
   the previous dispatch's first lba (the drive's resting position at the
   start of the drain for the first pick). *)
let take_group t cyl =
  match Ioqueue.take t.queue ~geom:(geom_of t) ~current_cyl:!cyl with
  | None -> None
  | Some group ->
      (match (geom_of t, group) with
      | Some g, (it : qpayload Ioqueue.item) :: _ ->
          cyl := Geometry.cyl_of_lba g it.req.Request.lba
      | _ -> ());
      Some group

let drain t =
  let cyl = ref (head_cyl t) in
  let rec loop () =
    match take_group t cyl with
    | None -> ()
    | Some group ->
        let _, power_cut = service_group t group in
        if power_cut then fail_pending t Io_error.Power_cut else loop ()
  in
  loop ();
  let out = List.rev t.completed in
  t.completed <- [];
  out

(* Drain until [tag] completes, leaving any other pending requests queued
   and any other completions for a later [drain]. *)
let drain_tag t tag =
  let find () =
    match List.find_opt (fun c -> c.cq_tag = tag) t.completed with
    | None -> None
    | Some c ->
        t.completed <- List.filter (fun x -> x != c) t.completed;
        Some c
  in
  let cyl = ref (head_cyl t) in
  let rec loop () =
    match find () with
    | Some c -> c
    | None -> (
        match take_group t cyl with
        | None -> invalid_arg "Blockdev.drain_tag: unknown tag"
        | Some group ->
            let _, power_cut = service_group t group in
            if power_cut then fail_pending t Io_error.Power_cut;
            loop ())
  in
  loop ()

(* Issue a set of contiguous units, each submitted as one tagged write and
   drained through the queue under the mount's scheduling policy.  Each
   request persists (and notifies the write observer) as it is serviced; on
   the first failure the remaining queue is torn down unserviced, so a
   failure mid-batch leaves exactly the already-serviced prefix on the
   media — the crash semantics the fault harness depends on.  The memory
   backend services units in the order given (FIFO queue, no geometry). *)
let issue_units t units =
  match units with
  | [] -> ()
  | _ ->
      List.iter
        (fun (start, blocks) ->
          check_range t Io_error.Write start (List.length blocks))
        units;
      let mine = Hashtbl.create 16 in
      List.iter
        (fun (start, blocks) ->
          let n = List.length blocks in
          let data = Bytes.create (n * t.block_size) in
          List.iteri
            (fun i b -> Bytes.blit b 0 data (i * t.block_size) t.block_size)
            blocks;
          Hashtbl.replace mine (submit_write t start data) ())
        units;
      let cyl = ref (head_cyl t) in
      let rec loop () =
        match take_group t cyl with
        | None -> None
        | Some group ->
            let cqes, power_cut = service_group t group in
            let first_err =
              List.find_map
                (fun c ->
                  match c.cq_result with
                  | Error e when Hashtbl.mem mine c.cq_tag -> Some e
                  | _ -> None)
                cqes
            in
            match first_err with
            | Some e ->
                fail_pending t Io_error.Power_cut;
                Some e
            | None ->
                if power_cut then begin
                  fail_pending t Io_error.Power_cut;
                  None
                end
                else loop ()
      in
      let looped = loop () in
      (* strip our completions; foreign async completions stay for their
         own [drain] *)
      let ours, others =
        List.partition (fun c -> Hashtbl.mem mine c.cq_tag) (List.rev t.completed)
      in
      t.completed <- List.rev others;
      let raise_first e = raise (Io_error.E e) in
      (match looped with Some e -> raise_first e | None -> ());
      List.iter
        (fun c -> match c.cq_result with Error e -> raise_first e | Ok _ -> ())
        ours

(* --- multi-volume fan-out ------------------------------------------------- *)

(* A dependent (synchronous) operation on the composite is a barrier: every
   spindle must have reached the composite clock before new work is charged,
   so idle spindles account their idle time.  Batched drains then let each
   spindle advance independently — overlapping service is what produces the
   near-linear scaling. *)
let sub_advance s dt =
  match s.backend with
  | Memory mm -> mm.clock <- mm.clock +. dt
  | Timed { drive; _ } -> Drive.advance drive dt
  | Multi _ -> assert false

let m_sync m =
  let now = Array.fold_left (fun acc s -> Float.max acc (dev_now s)) 0.0 m.subs in
  Array.iter
    (fun s ->
      let d = now -. dev_now s in
      if d > 0.0 then sub_advance s d)
    m.subs

(* The per-spindle hooks installed at composite creation: a subdevice
   consults/notifies the {e composite's} injector and observer with logical
   addresses, so Faultdev and Integrity attach to the composite unchanged
   (their journals and fault sets live in logical space, and a materialized
   crash image is an ordinary flat device).  A physical request that spans
   extents (possible only through sub-queue coalescing) is consulted one
   logical run at a time: the first non-[Proceed] outcome wins, with torn
   sector counts rebased to the physical request. *)
let sub_injector comp m i : injector =
 fun op ~blk ~nblocks ->
  match comp.injector with
  | None -> Proceed
  | Some f ->
      let spb = sectors_per_block comp in
      let rec go sectors = function
        | [] -> Proceed
        | (_, lblk, len) :: rest -> (
            match f op ~blk:lblk ~nblocks:len with
            | Proceed -> go (sectors + (len * spb)) rest
            | Torn k -> Torn (sectors + k)
            | Fail c -> Fail c)
      in
      go 0 (runs_of m i blk nblocks)

let sub_observer comp m i : write_observer =
 fun ~blk ~data ~torn ->
  match comp.write_observer with
  | None -> ()
  | Some f ->
      let bs = comp.block_size in
      let spb = sectors_per_block comp in
      let n = Bytes.length data / bs in
      List.iter
        (fun (off, lblk, len) ->
          let part = Bytes.sub data (off * bs) (len * bs) in
          let torn =
            match torn with
            | None -> None
            | Some k -> Some (max 0 (min (len * spb) (k - (off * spb))))
          in
          f ~blk:lblk ~data:part ~torn)
        (runs_of m i blk n)

(* Submit one logical request as per-spindle fragments.  All sub clocks are
   synced first so queue-wait accounting starts from the composite now. *)
let m_submit t m op blk n data =
  check_range t op blk n;
  m_sync m;
  let tag = m.next_tag in
  m.next_tag <- tag + 1;
  let frl = frags_of m blk n in
  let p =
    {
      p_tag = tag;
      p_op = op;
      p_blk = blk;
      p_n = n;
      p_data =
        (match data with
        | None -> Bytes.create (n * t.block_size)
        | Some _ -> Bytes.empty);
      p_left = List.length frl;
      p_err = None;
    }
  in
  Hashtbl.replace m.parents tag p;
  List.iter
    (fun (si, pblk, off, len) ->
      let sub = m.subs.(si) in
      let stag =
        match data with
        | None -> submit_read sub pblk len
        | Some d ->
            submit_write sub pblk
              (Bytes.sub d (off * t.block_size) (len * t.block_size))
      in
      Hashtbl.replace m.frags (si, stag)
        { fr_parent = tag; fr_off = off; fr_len = len; fr_lblk = blk + off })
    frl;
  tag

(* Fold one spindle's completions into their parents; a parent whose last
   fragment lands becomes a composite completion.  Fragment errors are
   rebased to the fragment's logical range. *)
let m_absorb t m si cqes =
  List.iter
    (fun c ->
      match Hashtbl.find_opt m.frags (si, c.cq_tag) with
      | None -> () (* direct submission to a subdevice; not ours *)
      | Some fr -> (
          Hashtbl.remove m.frags (si, c.cq_tag);
          match Hashtbl.find_opt m.parents fr.fr_parent with
          | None -> ()
          | Some p ->
              (match c.cq_result with
              | Ok data ->
                  if p.p_op = Io_error.Read && Bytes.length data > 0 then
                    Bytes.blit data 0 p.p_data (fr.fr_off * t.block_size)
                      (fr.fr_len * t.block_size)
              | Error e ->
                  if p.p_err = None then
                    p.p_err <-
                      Some
                        {
                          e with
                          Io_error.blk = fr.fr_lblk;
                          nblocks = fr.fr_len;
                          range = None;
                        });
              p.p_left <- p.p_left - 1;
              if p.p_left = 0 then begin
                Hashtbl.remove m.parents p.p_tag;
                let result =
                  match p.p_err with
                  | Some e -> Error e
                  | None ->
                      Ok (if p.p_op = Io_error.Read then p.p_data else Bytes.empty)
                in
                push_cqe t
                  {
                    cq_tag = p.p_tag;
                    cq_op = p.p_op;
                    cq_blk = p.p_blk;
                    cq_nblocks = p.p_n;
                    cq_result = result;
                  }
              end))
    cqes

let m_drain t m =
  m_sync m;
  Array.iteri (fun i s -> m_absorb t m i (drain s)) m.subs;
  let out = List.rev t.completed in
  t.completed <- [];
  out

(* Drain only the spindles holding fragments of [tag]; other spindles'
   pending requests stay queued (and their clocks stay put). *)
let m_drain_tag t m tag =
  let find () =
    match List.find_opt (fun c -> c.cq_tag = tag) t.completed with
    | None -> None
    | Some c ->
        t.completed <- List.filter (fun x -> x != c) t.completed;
        Some c
  in
  match find () with
  | Some c -> c
  | None ->
      if not (Hashtbl.mem m.parents tag) then
        invalid_arg "Blockdev.drain_tag: unknown tag";
      m_sync m;
      let needed = Array.make (Array.length m.subs) false in
      Hashtbl.iter
        (fun (si, _) fr -> if fr.fr_parent = tag then needed.(si) <- true)
        m.frags;
      Array.iteri
        (fun i need -> if need then m_absorb t m i (drain m.subs.(i)))
        needed;
      (match find () with
      | Some c -> c
      | None -> invalid_arg "Blockdev.drain_tag: unknown tag")

let m_reset t m =
  let n = Array.fold_left (fun acc s -> acc + reset_queue s) 0 m.subs in
  (* subdevices report their torn-down requests as completions on the next
     drain; absorb them now so the composite's next drain reports the
     failed parents, matching the single-device contract *)
  Array.iteri (fun i s -> m_absorb t m i (drain s)) m.subs;
  n

(* Batched synchronous writes: every unit's fragments are submitted before
   any spindle drains, so spindles service their shares concurrently.  A
   power cut stops every spindle at the same global request boundary (the
   injector goes dead for all of them); other faults stay confined to the
   spindle that hit them.  The first failed unit's error is raised after
   the drain, in submission order. *)
let m_issue_units t m units =
  match units with
  | [] -> ()
  | _ ->
      List.iter
        (fun (start, blocks) ->
          check_range t Io_error.Write start (List.length blocks))
        units;
      let order = ref [] in
      List.iter
        (fun (start, blocks) ->
          let n = List.length blocks in
          let data = Bytes.create (n * t.block_size) in
          List.iteri
            (fun i b -> Bytes.blit b 0 data (i * t.block_size) t.block_size)
            blocks;
          order := m_submit t m Io_error.Write start n (Some data) :: !order)
        units;
      let mine = Hashtbl.create 16 in
      List.iter (fun tag -> Hashtbl.replace mine tag ()) !order;
      m_sync m;
      Array.iteri (fun i s -> m_absorb t m i (drain s)) m.subs;
      let ours, others =
        List.partition (fun c -> Hashtbl.mem mine c.cq_tag) (List.rev t.completed)
      in
      t.completed <- List.rev others;
      let failed =
        List.filter_map
          (fun tag ->
            List.find_map
              (fun c ->
                if c.cq_tag = tag then
                  match c.cq_result with Error e -> Some e | Ok _ -> None
                else None)
              ours)
          (List.rev !order)
      in
      (match failed with e :: _ -> raise (Io_error.E e) | [] -> ())

let multi ~subs ~extents =
  if Array.length subs = 0 then invalid_arg "Blockdev.multi: no subdevices";
  let block_size = subs.(0).block_size in
  Array.iter
    (fun s ->
      if s.block_size <> block_size then
        invalid_arg "Blockdev.multi: subdevice block sizes differ";
      match s.backend with
      | Multi _ -> invalid_arg "Blockdev.multi: nested composite"
      | _ -> ())
    subs;
  let exts =
    List.map (fun (lstart, xlen, xsub, pstart) -> { lstart; xlen; xsub; pstart })
      extents
    |> List.sort (fun a b -> compare a.lstart b.lstart)
  in
  let nblocks =
    List.fold_left
      (fun expect e ->
        if e.lstart <> expect || e.xlen <= 0 then
          invalid_arg "Blockdev.multi: extents must tile the logical space";
        if e.xsub < 0 || e.xsub >= Array.length subs then
          invalid_arg "Blockdev.multi: bad subdevice index";
        if e.pstart < 0 || e.pstart + e.xlen > subs.(e.xsub).nblocks then
          invalid_arg "Blockdev.multi: extent exceeds its subdevice";
        expect + e.xlen)
      0 exts
  in
  if nblocks = 0 then invalid_arg "Blockdev.multi: no extents";
  let sub_extents =
    Array.init (Array.length subs) (fun i ->
        let mine =
          List.filter (fun e -> e.xsub = i) exts
          |> List.sort (fun a b -> compare a.pstart b.pstart)
        in
        ignore
          (List.fold_left
             (fun last e ->
               if e.pstart < last then
                 invalid_arg "Blockdev.multi: overlapping extents on a subdevice";
               e.pstart + e.xlen)
             0 mine);
        Array.of_list mine)
  in
  let m =
    {
      subs;
      extents = Array.of_list exts;
      sub_extents;
      frags = Hashtbl.create 64;
      parents = Hashtbl.create 32;
      next_tag = 1;
    }
  in
  let t =
    {
      backend = Multi m;
      store = Hashtbl.create 1;
      block_size;
      nblocks;
      queue = Ioqueue.create ();
      completed = [];
      injector = None;
      write_observer = None;
      tags = [||];  (* a composite's tags live on its spindles *)
      tags_enabled = false;
      tag_dirty = Bytes.make (tag_pages_of ~block_size ~nblocks) '\000';
      tag_owner = None;
    }
  in
  Array.iteri
    (fun i s ->
      set_injector s (Some (sub_injector t m i));
      set_write_observer s (Some (sub_observer t m i));
      s.tag_owner <- Some (t, sub_extents.(i)))
    subs;
  t

(* --- public pipeline operations, composite-aware -------------------------- *)

let submit_read t blk n =
  match t.backend with
  | Multi m -> m_submit t m Io_error.Read blk n None
  | _ -> submit_read t blk n

let submit_write t blk data =
  match t.backend with
  | Multi m ->
      let len = Bytes.length data in
      if len = 0 || len mod t.block_size <> 0 then
        invalid_arg "Blockdev.submit_write: partial block";
      m_submit t m Io_error.Write blk (len / t.block_size) (Some data)
  | _ -> submit_write t blk data

let drain t = match t.backend with Multi m -> m_drain t m | _ -> drain t

let drain_tag t tag =
  match t.backend with Multi m -> m_drain_tag t m tag | _ -> drain_tag t tag

let reset_queue t =
  match t.backend with Multi m -> m_reset t m | _ -> reset_queue t

let pending t =
  match t.backend with
  | Multi m -> Array.fold_left (fun acc s -> acc + pending s) 0 m.subs
  | _ -> pending t

let set_queue t ?depth ?policy ?coalesce () =
  match t.backend with
  | Multi m -> Array.iter (fun s -> set_queue s ?depth ?policy ?coalesce ()) m.subs
  | _ -> set_queue t ?depth ?policy ?coalesce ()

let queue_depth t =
  match t.backend with Multi m -> queue_depth m.subs.(0) | _ -> queue_depth t

let queue_policy t =
  match t.backend with Multi m -> queue_policy m.subs.(0) | _ -> queue_policy t

let queue_coalesce t =
  match t.backend with
  | Multi m -> queue_coalesce m.subs.(0)
  | _ -> queue_coalesce t

let issue_units t units =
  match t.backend with
  | Multi m -> m_issue_units t m units
  | _ -> issue_units t units

let read t blk n =
  check_range t Io_error.Read blk n;
  let tag = submit_read t blk n in
  match (drain_tag t tag).cq_result with
  | Ok data -> data
  | Error e -> raise (Io_error.E e)

let write t blk data =
  let len = Bytes.length data in
  if len mod t.block_size <> 0 then invalid_arg "Blockdev.write: partial block";
  let n = len / t.block_size in
  check_range t Io_error.Write blk n;
  let tag = submit_write t blk data in
  match (drain_tag t tag).cq_result with
  | Ok _ -> ()
  | Error e -> raise (Io_error.E e)

let write_batch_units t units =
  List.iter
    (fun (start, blocks) ->
      List.iteri
        (fun i data ->
          if Bytes.length data <> t.block_size then
            invalid_arg "Blockdev.write_batch_units: data must be one block";
          check_range t Io_error.Write (start + i) 1)
        blocks)
    units;
  issue_units t units

let rec store_raw t blk data ~keep_sectors =
  let len = Bytes.length data in
  if len mod t.block_size <> 0 then invalid_arg "Blockdev.store_raw: partial block";
  let n = len / t.block_size in
  check_range t Io_error.Write blk n;
  match t.backend with
  | Multi m ->
      let spb = sectors_per_block t in
      List.iter
        (fun (si, pblk, off, flen) ->
          let keep =
            match keep_sectors with
            | None -> None
            | Some k -> Some (max 0 (min (flen * spb) (k - (off * spb))))
          in
          store_raw m.subs.(si) pblk
            (Bytes.sub data (off * t.block_size) (flen * t.block_size))
            ~keep_sectors:keep)
        (frags_of m blk n)
  | _ -> persist_request t blk data ~keep_sectors

let now t = dev_now t

let advance t dt =
  match t.backend with
  | Memory m -> m.clock <- m.clock +. dt
  | Timed { drive; _ } -> Drive.advance drive dt
  | Multi m ->
      (* think time passes for every spindle: sync to the composite clock,
         then move the whole array forward together *)
      let target = dev_now t +. dt in
      Array.iter
        (fun s ->
          let d = target -. dev_now s in
          if d > 0.0 then sub_advance s d)
        m.subs

let rec stats t =
  match t.backend with
  | Memory m -> m.stats
  | Timed { drive; _ } -> Drive.stats drive
  | Multi m ->
      let open Request.Stats in
      let acc = create () in
      Array.iter
        (fun sub ->
          let s = stats sub in
          acc.reads <- acc.reads + s.reads;
          acc.writes <- acc.writes + s.writes;
          acc.read_sectors <- acc.read_sectors + s.read_sectors;
          acc.write_sectors <- acc.write_sectors + s.write_sectors;
          acc.cache_hits <- acc.cache_hits + s.cache_hits;
          acc.busy_time <- acc.busy_time +. s.busy_time;
          acc.seek_time <- acc.seek_time +. s.seek_time;
          acc.rotation_time <- acc.rotation_time +. s.rotation_time;
          acc.transfer_time <- acc.transfer_time +. s.transfer_time;
          acc.overhead_time <- acc.overhead_time +. s.overhead_time;
          acc.cachehit_time <- acc.cachehit_time +. s.cachehit_time)
        m.subs;
      acc

let drive t =
  match t.backend with
  | Memory _ | Multi _ -> None
  | Timed { drive; _ } -> Some drive

let rec flush_device_cache t =
  match t.backend with
  | Memory _ -> ()
  | Timed { drive; _ } -> Drive.flush_cache drive
  | Multi m -> Array.iter flush_device_cache m.subs

let rec snapshot t =
  match t.backend with
  | Multi m -> Imulti { parts = Array.map snapshot m.subs; iextents = m.extents }
  | _ ->
      let blocks = Hashtbl.create (Hashtbl.length t.store) in
      Hashtbl.iter (fun k v -> Hashtbl.replace blocks k (Bytes.copy v)) t.store;
      Iflat
        {
          img_blocks = blocks;
          img_tags = copy_tag_chunks t.tags;
          img_tags_enabled = t.tags_enabled;
        }

(* Flatten a composite image into logical space: the reverse extent walk
   makes a crash image materialized from a multi-volume run an ordinary
   flat device image, which is what mount/fsck consume. *)
let rec flat_of_image img =
  match img with
  | Iflat f -> f
  | Imulti { parts; iextents } ->
      let blocks = Hashtbl.create 4096 in
      let nblocks = Array.fold_left (fun acc e -> max acc (e.lstart + e.xlen)) 0 iextents in
      let tags = tag_chunks_for nblocks in
      let enabled = ref false in
      Array.iteri
        (fun i part ->
          let pf = flat_of_image part in
          if pf.img_tags_enabled then enabled := true;
          Array.iter
            (fun e ->
              if e.xsub = i then begin
                for off = 0 to e.xlen - 1 do
                  match Hashtbl.find_opt pf.img_blocks (e.pstart + off) with
                  | Some b -> Hashtbl.replace blocks (e.lstart + off) (Bytes.copy b)
                  | None -> ()
                done;
                tag_scan pf.img_tags e.pstart e.xlen (fun p v ->
                    tag_put tags (e.lstart + p - e.pstart) v)
              end)
            iextents)
        parts;
      { img_blocks = blocks; img_tags = tags; img_tags_enabled = !enabled }

let rec restore_media t img =
  match (t.backend, img) with
  | Multi m, Imulti { parts; _ } when Array.length parts = Array.length m.subs ->
      Array.iteri (fun i p -> restore_media m.subs.(i) p) parts;
      t.tags_enabled <-
        t.tags_enabled || Array.exists (fun s -> s.tags_enabled) m.subs
  | Multi m, _ ->
      (* a flat (or differently shaped) image onto a composite: split each
         logical block to its spindle *)
      let f = flat_of_image img in
      Array.iter
        (fun s ->
          Hashtbl.reset s.store;
          s.tags <- tag_chunks_for s.nblocks)
        m.subs;
      Hashtbl.iter
        (fun blk b ->
          let e, off = locate m blk in
          store_block m.subs.(e.xsub) (e.pstart + off) (Bytes.copy b) 0)
        f.img_blocks;
      tag_scan f.img_tags 0
        (min t.nblocks (Array.length f.img_tags * tag_chunk))
        (fun blk v ->
          let e, off = locate m blk in
          tag_put m.subs.(e.xsub).tags (e.pstart + off) v);
      if f.img_tags_enabled then enable_tags t
  | _, _ ->
      let f = flat_of_image img in
      Hashtbl.reset t.store;
      Hashtbl.iter (fun k v -> Hashtbl.replace t.store k (Bytes.copy v)) f.img_blocks;
      t.tags <-
        Array.init (Array.length t.tags) (fun i ->
            if i < Array.length f.img_tags then Array.copy f.img_tags.(i) else [||]);
      t.tags_enabled <- t.tags_enabled || f.img_tags_enabled

(* The image does not say which of its tag pages were written back, so
   every page counts as dirty: the next write-back rewrites them all. *)
let restore t img =
  restore_media t img;
  set_all_tag_pages_dirty t true

let rec blocks_written img =
  match img with
  | Iflat f -> Hashtbl.length f.img_blocks
  | Imulti { parts; _ } ->
      Array.fold_left (fun acc p -> acc + blocks_written p) 0 parts

let write_torn t blk data ~keep_sectors =
  check_range t Io_error.Write blk 1;
  if Bytes.length data <> t.block_size then invalid_arg "Blockdev.write_torn";
  match t.backend with
  | Multi m ->
      let e, off = locate m blk in
      persist_request m.subs.(e.xsub) (e.pstart + off) data
        ~keep_sectors:(Some keep_sectors)
  | _ -> persist_request t blk data ~keep_sectors:(Some keep_sectors)

let corrupt_block t blk prng =
  check_range t Io_error.Write blk 1;
  match t.backend with
  | Multi m ->
      let e, off = locate m blk in
      Hashtbl.replace m.subs.(e.xsub).store (e.pstart + off)
        (Cffs_util.Prng.bytes prng t.block_size)
  | _ -> Hashtbl.replace t.store blk (Cffs_util.Prng.bytes prng t.block_size)

let save_file t path =
  let oc = open_out_bin path in
  (try
     (* Fix the file's extent first so unwritten tails stay sparse. *)
     seek_out oc ((t.nblocks * t.block_size) - 1);
     output_char oc '\000';
     (match t.backend with
     | Multi m ->
         Array.iter
           (fun e ->
             let sub = m.subs.(e.xsub) in
             for off = 0 to e.xlen - 1 do
               match Hashtbl.find_opt sub.store (e.pstart + off) with
               | Some data ->
                   seek_out oc ((e.lstart + off) * t.block_size);
                   output_bytes oc data
               | None -> ()
             done)
           m.extents
     | _ ->
         Hashtbl.iter
           (fun blk data ->
             seek_out oc (blk * t.block_size);
             output_bytes oc data)
           t.store);
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e)

let load_file ?(block_size = 4096) path =
  let ic = open_in_bin path in
  let t =
    try
      let len = in_channel_length ic in
      if len = 0 || len mod block_size <> 0 then
        invalid_arg "Blockdev.load_file: image size is not a block multiple";
      let nblocks = len / block_size in
      let t = memory ~block_size ~nblocks in
      let buf = Bytes.create block_size in
      let zero = Bytes.make block_size '\000' in
      for blk = 0 to nblocks - 1 do
        really_input ic buf 0 block_size;
        if not (Bytes.equal buf zero) then store_block t blk buf 0
      done;
      t
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  t
