(* Host-cost benchmark for the C-FFS simulator.

   The simulator's own cost — host wall-clock time and allocated words per
   file-system call — measured on four named workloads, next to the
   simulated-time figures the paper reports (which must not move under a
   host-only optimisation).  One caller issues each file-system call only
   after the previous one returns (a closed loop, one client, no threads).

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest

   Every run repeats whole iterations (fresh format, unmeasured populate,
   measured phases) until [--seconds] of host time have passed, then
   prints one JSON object as the last line of standard output: the
   end-to-end metrics with [--trace 0]; with [--trace 1], one further
   iteration runs with every observation hook installed and the per-layer
   metrics are printed instead.  A human-readable report goes to standard
   error. *)

module Blockdev = Cffs_blockdev.Blockdev
module Drive = Cffs_disk.Drive
module Ioqueue = Cffs_disk.Ioqueue
module Request = Cffs_disk.Request
module Geometry = Cffs_disk.Geometry
module Profile = Cffs_disk.Profile
module Scheduler = Cffs_disk.Scheduler
module Cache = Cffs_cache.Cache
module Journal = Cffs_cache.Journal
module Volume = Cffs_volume.Volume
module R = Cffs_obs.Registry
module Otrace = Cffs_obs.Trace
module Prng = Cffs_util.Prng
module Stats = Cffs_util.Stats
module Errno = Cffs_vfs.Errno
module Fs_intf = Cffs_vfs.Fs_intf
module Setup = Cffs_harness.Setup
module Env = Cffs_workload.Env
module Smallfile = Cffs_workload.Smallfile

(* Host seconds from the monotonic clock (nanosecond resolution; the
   fastest ops take about a microsecond). *)
let host_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------------------------------------------------------------------- *)
(* Op classes and the per-op record                                       *)

type cls =
  | Write_file
  | Write
  | Read_file
  | Unlink
  | Stat
  | List_dir_plus
  | File_runs
  | Prefetch
  | Sync
  | Remount

let classes =
  [ Write_file; Write; Read_file; Unlink; Stat; List_dir_plus; File_runs;
    Prefetch; Sync; Remount ]

let cls_index = function
  | Write_file -> 0
  | Write -> 1
  | Read_file -> 2
  | Unlink -> 3
  | Stat -> 4
  | List_dir_plus -> 5
  | File_runs -> 6
  | Prefetch -> 7
  | Sync -> 8
  | Remount -> 9

let cls_name = function
  | Write_file -> "write_file"
  | Write -> "write"
  | Read_file -> "read_file"
  | Unlink -> "unlink"
  | Stat -> "stat"
  | List_dir_plus -> "list_dir_plus"
  | File_runs -> "file_runs"
  | Prefetch -> "prefetch"
  | Sync -> "sync"
  | Remount -> "remount"

let nclasses = List.length classes

(* What one iteration's measured phases did.  Host figures vary run to
   run; everything else must repeat exactly at a fixed seed. *)
type iter = {
  mutable ops : int;
  mutable failed : int;
  mutable words : float;  (** minor words allocated inside ops *)
  mutable sim_s : float;  (** simulated seconds spent inside ops *)
  mutable requests : int;  (** device requests in the measured phases *)
  mutable wall_s : float;  (** host seconds of the measured phases *)
  mutable user_bytes : int;  (** payload bytes handed to writes *)
  mutable ref_s : float;  (** host seconds of [reference] before the iteration *)
  times : Stats.t;  (** host seconds per op *)
  cls_times : Stats.t array;
  cls_words : float array;
  cls_count : int array;
  mutable windows : float list;
      (** simulated seconds of each smallfile phase window, latest first *)
  mutable snaps : R.snapshot list;  (** per-phase registry deltas *)
  mutable spindle_busy : float array;
  mutable spindle_reqs : int array;
  mutable errors : string list;
}

let new_iter () =
  {
    ops = 0;
    failed = 0;
    words = 0.0;
    sim_s = 0.0;
    requests = 0;
    wall_s = 0.0;
    user_bytes = 0;
    ref_s = 0.0;
    times = Stats.create ();
    cls_times = Array.init nclasses (fun _ -> Stats.create ());
    cls_words = Array.make nclasses 0.0;
    cls_count = Array.make nclasses 0;
    windows = [];
    snaps = [];
    spindle_busy = [||];
    spindle_reqs = [||];
    errors = [];
  }

(* ---------------------------------------------------------------------- *)
(* Instances                                                              *)

let profile = Profile.seagate_st31200
let block_size = 4096
let cpu_per_op = 100e-6
let host_overhead = 0.5e-3

type ctx = {
  dev : Blockdev.t;
  fs : Cffs.t;
  cache : Cache.t;
  spindles : Blockdev.t array;  (** [[|dev|]] for a single drive *)
  drives : Drive.t array;
  extents : (int * int * int * int) array;  (** [[||]] for a single drive *)
  it : iter;
}

type fs_shape = {
  config : Cffs.config;
  policy : Cache.policy;
  integrity : bool;
  ndrives : int;
  cache_blocks : int;
}

(* The device half of [Setup.instantiate], built here so that observation
   hooks can be installed before the format writes anything: the drive
   replay needs each drive's complete request history. *)
let make_device shape =
  if shape.ndrives <= 1 then begin
    let drive = Drive.create profile in
    let dev =
      Blockdev.of_drive ~policy:Scheduler.Clook ~host_overhead drive ~block_size
    in
    (dev, [| dev |], [| drive |], [||])
  end
  else begin
    let meta_per_chunk = Setup.meta_per_chunk (Setup.Cffs_fs shape.config) in
    let v =
      Volume.create ~profile ~scheduler:Scheduler.Clook ~host_overhead
        ~block_size ~stripe_unit:Setup.stripe_unit ~meta_per_chunk
        ~drives:shape.ndrives ~layout:Volume.Striped ()
    in
    let extents =
      Volume.plan Volume.Striped ~drives:shape.ndrives
        ~stripe_unit:Setup.stripe_unit ~meta_per_chunk
        ~caps:(Array.map Blockdev.nblocks v.Volume.subs)
    in
    let drives =
      Array.map (fun s -> Option.get (Blockdev.drive s)) v.Volume.subs
    in
    (v.Volume.dev, v.Volume.subs, drives, Array.of_list extents)
  end

let format_fs shape dev =
  let striped = shape.ndrives > 1 in
  Cffs.format ~config:shape.config ~policy:shape.policy
    ~cache_blocks:shape.cache_blocks ~integrity:shape.integrity
    ~vol_drives:shape.ndrives
    ~vol_layout:
      (Volume.layout_code (if striped then Volume.Striped else Volume.Single))
    ~vol_stripe_unit:(if striped then Setup.stripe_unit else 0)
    dev

(* ---------------------------------------------------------------------- *)
(* Observation hooks for the traced iteration                             *)

(* One drive's request history, in service order: enough to replay it on
   a fresh drive and to check the replay reproduces every clock value. *)
type drive_ev =
  | Svc of { t_start : float; t_end : float; req : Request.t; measured : bool }
  | Flush_cache

(* A queue segment: the dispatches one spindle made from a non-empty queue
   until the queue next read empty, all inside measured ops. *)
type segment = {
  spindle : int;
  start_cyl : int;
  mutable dispatched : Request.t list;  (** reversed *)
  mutable submitted : Request.t list option;
      (** the recorded submissions in order, when the trace holds them *)
}

type trace = {
  drive_log : drive_ev list ref array;  (** reversed *)
  drive_reqs : int array;  (** requests seen per drive *)
  drive_cyl : int array;  (** head cylinder after the last service *)
  open_seg : segment option array;
  mutable segments : segment list;  (** reversed *)
  mutable awaiting : segment list;
      (** closed segments whose submission order is still to come *)
  wb_subs : Request.t list array;
      (** per-spindle writes the cache reported since the last drive
          event, reversed *)
  mutable in_op : bool;
  mutable prefetch_subs : Request.t list array option;
      (** per-spindle submissions of the running prefetch, in order *)
  mutable inj_t0 : float option;
  req_host : Stats.t;
  (* cache observer *)
  mutable misses : int;
  mutable miss_blocks : int;
  mutable group_misses : int;
  mutable wb_units : int;
  mutable wb_blocks : int;
  mutable flushes : int;
  mutable flush_host : float;
  mutable last_cache_t : float;
  mutable flush_t0 : float option;
  mutable splits : int;
  mutable log_blocks : int;
  mutable bad_trace : string option;
}

let tr : trace option ref = ref None

let new_trace ndrives =
  {
    drive_log = Array.init ndrives (fun _ -> ref []);
    drive_reqs = Array.make ndrives 0;
    drive_cyl = Array.make ndrives 0;
    open_seg = Array.make ndrives None;
    segments = [];
    awaiting = [];
    wb_subs = Array.make ndrives [];
    in_op = false;
    prefetch_subs = None;
    inj_t0 = None;
    req_host = Stats.create ();
    misses = 0;
    miss_blocks = 0;
    group_misses = 0;
    wb_units = 0;
    wb_blocks = 0;
    flushes = 0;
    flush_host = 0.0;
    last_cache_t = 0.0;
    flush_t0 = None;
    splits = 0;
    log_blocks = 0;
    bad_trace = None;
  }

let extent_of extents blk =
  let lo = ref 0 and hi = ref (Array.length extents - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    let ls, _, _, _ = extents.(mid) in
    if ls <= blk then lo := mid else hi := mid - 1
  done;
  !lo

(* Logical range -> per-spindle physical fragments, in address order: the
   split the composite device performs at submission. *)
let fragments extents blk n =
  if Array.length extents = 0 then [ (0, blk, n) ]
  else begin
    let out = ref [] in
    let b = ref blk and left = ref n in
    while !left > 0 do
      let ls, len, sub, ps = extents.(extent_of extents !b) in
      let take = min !left (ls + len - !b) in
      out := (sub, ps + (!b - ls), take) :: !out;
      b := !b + take;
      left := !left - take
    done;
    List.rev !out
  end

let note_split ctx blk n =
  match !tr with
  | Some t when List.length (fragments ctx.extents blk n) > 1 ->
      t.splits <- t.splits + 1
  | _ -> ()

let spb = block_size / 512

(* A flush drains its whole batch before the cache reports the units it
   wrote, in the order it submitted them, so a segment that closes takes
   its submission order from the [Writeback] events that follow it: at the
   next drive event, or at the end of the iteration.  The recorded order
   is kept only when it holds exactly the dispatched requests. *)
let settle t =
  List.iter
    (fun seg ->
      let wb = List.rev t.wb_subs.(seg.spindle) in
      if
        seg.submitted = None
        && List.sort compare wb = List.sort compare seg.dispatched
      then seg.submitted <- Some wb)
    t.awaiting;
  t.awaiting <- [];
  Array.fill t.wb_subs 0 (Array.length t.wb_subs) []

(* Drive events come from the obs trace sink: the drive that just serviced
   is the one whose request counter moved. *)
let drive_sink ~drives ~spindles t (ev : Otrace.event) =
  if ev.Otrace.name = "drive.read" || ev.Otrace.name = "drive.write" then begin
    let now = host_now () in
    settle t;
    (match t.inj_t0 with
    | Some t0 -> Stats.add t.req_host (now -. t0)
    | None -> ());
    t.inj_t0 <- None;
    let moved = ref [] in
    Array.iteri
      (fun i d ->
        let n = Request.Stats.requests (Drive.stats d) in
        if n <> t.drive_reqs.(i) then moved := i :: !moved)
      drives;
    match !moved with
    | [ i ] ->
        t.drive_reqs.(i) <- t.drive_reqs.(i) + 1;
        let req =
          Scanf.sscanf ev.Otrace.target "lba:%d+%d" (fun lba sectors ->
              if ev.Otrace.name = "drive.read" then Request.read ~lba ~sectors
              else Request.write ~lba ~sectors)
        in
        let log = t.drive_log.(i) in
        log :=
          Svc
            { t_start = ev.Otrace.t_start; t_end = ev.Otrace.t_end; req;
              measured = t.in_op }
          :: !log;
        if t.in_op then begin
          let seg =
            match t.open_seg.(i) with
            | Some s -> s
            | None ->
                let s =
                  { spindle = i; start_cyl = t.drive_cyl.(i); dispatched = [];
                    submitted = None }
                in
                t.open_seg.(i) <- Some s;
                t.segments <- s :: t.segments;
                s
          in
          seg.dispatched <- req :: seg.dispatched;
          if Blockdev.pending spindles.(i) = 0 then begin
            (match t.prefetch_subs with
            | Some subs ->
                if seg.submitted <> None then
                  t.bad_trace <- Some "two queue segments in one prefetch";
                seg.submitted <- Some subs.(i)
            | None -> t.awaiting <- seg :: t.awaiting);
            t.open_seg.(i) <- None
          end
        end;
        t.drive_cyl.(i) <- Drive.current_cyl drives.(i)
    | _ -> t.bad_trace <- Some "drive event not attributable to one drive"
  end

let cache_observer ctx t ev =
  let now = host_now () in
  if t.in_op then
  match ev with
  | Cache.Read_miss { blk; nblocks } ->
      t.misses <- t.misses + 1;
      t.miss_blocks <- t.miss_blocks + nblocks;
      if nblocks > 1 then t.group_misses <- t.group_misses + 1;
      note_split ctx blk nblocks;
      t.last_cache_t <- now
  | Cache.Writeback { blk; nblocks } ->
      t.wb_units <- t.wb_units + 1;
      t.wb_blocks <- t.wb_blocks + nblocks;
      note_split ctx blk nblocks;
      List.iter
        (fun (sub, pblk, n) ->
          t.wb_subs.(sub) <- Request.write ~lba:(pblk * spb) ~sectors:(n * spb) :: t.wb_subs.(sub))
        (fragments ctx.extents blk nblocks);
      if t.flush_t0 = None then t.flush_t0 <- Some t.last_cache_t
  | Cache.Flush _ ->
      t.flushes <- t.flushes + 1;
      (match t.flush_t0 with
      | Some t0 -> t.flush_host <- t.flush_host +. (now -. t0)
      | None -> ());
      t.flush_t0 <- None;
      t.last_cache_t <- now
  | Cache.Read_hit _ | Cache.Write _ | Cache.Evict _ | Cache.Order _ ->
      if t.flush_t0 = None then t.last_cache_t <- now

let install_device_hooks ~drives ~spindles t =
  Otrace.set_capacity 1;
  Otrace.add_sink ~name:"perfbench" (drive_sink ~drives ~spindles t);
  Otrace.set_enabled true

let install_fs_hooks ctx t =
  let log_range =
    match Cache.journal ctx.cache with
    | Some j -> (Journal.log_start j, Journal.log_start j + Journal.log_blocks j)
    | None -> (0, 0)
  in
  Blockdev.set_injector ctx.dev
    (Some
       (fun op ~blk ~nblocks ->
         if t.inj_t0 = None && t.in_op then t.inj_t0 <- Some (host_now ());
         (if op = Cffs_util.Io_error.Write && t.in_op then
            let lo, hi = log_range in
            if blk >= lo && blk < hi then t.log_blocks <- t.log_blocks + nblocks);
         Blockdev.Proceed));
  Cache.set_observer ctx.cache (Some (cache_observer ctx t))

let remove_hooks ctx =
  Otrace.set_enabled false;
  Otrace.remove_sink "perfbench";
  Blockdev.set_injector ctx.dev None;
  Cache.set_observer ctx.cache None

(* ---------------------------------------------------------------------- *)
(* Ops and phases                                                         *)

(* One file-system call: charge the per-call CPU think time on the
   simulated clock where the paper's drivers do, time it on the host
   clock, count its allocation, and check its result. *)
let op ctx ?(charge = true) cls f check =
  let it = ctx.it in
  let s0 = Blockdev.now ctx.dev in
  if charge then Blockdev.advance ctx.dev cpu_per_op;
  (match !tr with
  | Some t ->
      t.in_op <- true;
      t.last_cache_t <- host_now ()
  | None -> ());
  let t0 = host_now () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = host_now () in
  (match !tr with Some t -> t.in_op <- false | None -> ());
  let dt = t1 -. t0 and dw = w1 -. w0 in
  let c = cls_index cls in
  it.ops <- it.ops + 1;
  it.words <- it.words +. dw;
  it.sim_s <- it.sim_s +. (Blockdev.now ctx.dev -. s0);
  Stats.add it.times dt;
  Stats.add it.cls_times.(c) dt;
  it.cls_words.(c) <- it.cls_words.(c) +. dw;
  it.cls_count.(c) <- it.cls_count.(c) + 1;
  match check r with
  | None -> ()
  | Some why ->
      it.failed <- it.failed + 1;
      if List.length it.errors < 5 then
        it.errors <- Printf.sprintf "%s: %s" (cls_name cls) why :: it.errors

let spindle_counters ctx =
  match Volume.spindles ctx.dev with
  | [] ->
      let s = Blockdev.stats ctx.dev in
      ([| s.Request.Stats.busy_time |], [| Request.Stats.requests s |])
  | sp ->
      ( Array.of_list (List.map (fun s -> s.Volume.s_busy_s) sp),
        Array.of_list (List.map (fun s -> s.Volume.s_reads + s.Volume.s_writes) sp) )

(* A measured phase: its own registry window (reset at the start, so
   histogram extremes are the phase's own) and host wall-clock span. *)
let phase ctx f =
  let it = ctx.it in
  let busy0, reqs0 = spindle_counters ctx in
  R.reset ();
  let t0 = host_now () in
  f ();
  it.wall_s <- it.wall_s +. (host_now () -. t0);
  let snap = R.snapshot () in
  it.requests <-
    it.requests + R.get_counter snap "blockdev.reads"
    + R.get_counter snap "blockdev.writes";
  it.snaps <- snap :: it.snaps;
  let busy1, reqs1 = spindle_counters ctx in
  if it.spindle_busy = [||] then begin
    it.spindle_busy <- Array.make (Array.length busy1) 0.0;
    it.spindle_reqs <- Array.make (Array.length reqs1) 0
  end;
  Array.iteri
    (fun i b -> it.spindle_busy.(i) <- it.spindle_busy.(i) +. (b -. busy0.(i)))
    busy1;
  Array.iteri
    (fun i r -> it.spindle_reqs.(i) <- it.spindle_reqs.(i) + (r - reqs0.(i)))
    reqs1

let ok_unit = function Ok () -> None | Error e -> Some (Errno.to_string e)

let must what = function
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "populate %s: %s" what (Errno.to_string e))

let same_bytes expected = function
  | Ok data when Bytes.equal data expected -> None
  | Ok _ -> Some "content differs from the file's payload"
  | Error e -> Some (Errno.to_string e)

let payloads prng n len = Array.init n (fun _ -> Prng.bytes prng len)

let remount ctx =
  phase ctx (fun () ->
      op ctx ~charge:false Remount
        (fun () -> Cffs.remount ctx.fs)
        (fun () -> None));
  match !tr with
  | Some t -> Array.iter (fun log -> log := Flush_cache :: !log) t.drive_log
  | None -> ()

(* ---------------------------------------------------------------------- *)
(* Workload: the LFS small-file benchmark (Smallfile's four phases)       *)

type smallfile_in = {
  nfiles : int;
  files_per_dir : int;
  data : bytes array;  (** what create writes, and read must return *)
  data2 : bytes array;  (** what overwrite writes *)
}

let smallfile_inputs ~nfiles seed =
  let prng = Prng.create seed in
  let data = payloads prng nfiles 1024 in
  let data2 = payloads prng nfiles 1024 in
  { nfiles; files_per_dir = 100; data; data2 }

let sf_path inp i =
  Printf.sprintf "/smallfile/d%03d/f%05d" (i / inp.files_per_dir) i

let smallfile_setup inp ctx =
  let ndirs = (inp.nfiles + inp.files_per_dir - 1) / inp.files_per_dir in
  must "mkdir" (Cffs.mkdir ctx.fs "/smallfile");
  for d = 0 to ndirs - 1 do
    must "mkdir" (Cffs.mkdir ctx.fs (Printf.sprintf "/smallfile/d%03d" d))
  done;
  Cffs.sync ctx.fs

let smallfile_run inp ctx =
  let fs = ctx.fs in
  let paths = Array.init inp.nfiles (sf_path inp) in
  (* A phase ends with the sync that makes it durable; its simulated
     window matches Smallfile's, which the self-test compares. *)
  let window body =
    phase ctx (fun () ->
        let s0 = Blockdev.now ctx.dev in
        body ();
        op ctx Sync (fun () -> Cffs.sync fs) (fun () -> None);
        ctx.it.windows <- (Blockdev.now ctx.dev -. s0) :: ctx.it.windows)
  in
  (* create *)
  window (fun () ->
      Array.iteri
        (fun i p ->
          ctx.it.user_bytes <- ctx.it.user_bytes + Bytes.length inp.data.(i);
          op ctx Write_file (fun () -> Cffs.write_file fs p inp.data.(i)) ok_unit)
        paths);
  remount ctx;
  (* cold read *)
  window (fun () ->
      Array.iteri
        (fun i p ->
          op ctx Read_file
            (fun () -> Cffs.read_file fs p)
            (same_bytes inp.data.(i)))
        paths);
  (* in-place overwrite *)
  window (fun () ->
      Array.iteri
        (fun i p ->
          ctx.it.user_bytes <- ctx.it.user_bytes + Bytes.length inp.data2.(i);
          op ctx Write (fun () -> Cffs.write fs p ~off:0 inp.data2.(i)) ok_unit)
        paths);
  (* delete *)
  window (fun () ->
      Array.iter (fun p -> op ctx Unlink (fun () -> Cffs.unlink fs p) ok_unit) paths)

(* ---------------------------------------------------------------------- *)
(* Workload: the stat-heavy phases (Statbench's shape, A5 cache size)     *)

type stat_in = {
  dirs : int;
  per_dir : int;
  repeats : int;
  entries : int;
  depth : int;
  sdata : bytes array;
  order : int array;  (** the stat sweep's shuffled file order *)
  probe : int array;  (** the big-directory sample *)
}

let stat_inputs seed =
  let dirs = 96 and per_dir = 32 and entries = 2000 in
  let prng = Prng.create seed in
  let n = dirs * per_dir in
  let sdata = payloads prng n 1024 in
  let order = Array.init n (fun i -> i) in
  Prng.shuffle prng order;
  let nprobe = 200 in
  let probe = Array.init nprobe (fun k -> k * (entries / nprobe)) in
  Prng.shuffle prng probe;
  { dirs; per_dir; repeats = 5; entries; depth = 8; sdata; order; probe }

let st_dir d = Printf.sprintf "/statbench/d%03d" d
let st_path inp i = Printf.sprintf "%s/f%05d" (st_dir (i / inp.per_dir)) i
let big_path i = Printf.sprintf "/statbench/big/e%06d" i

let deep_path depth =
  let b = Buffer.create 64 in
  Buffer.add_string b "/statbench/deep";
  for level = 0 to depth - 1 do
    Buffer.add_string b (Printf.sprintf "/p%02d" level)
  done;
  Buffer.add_string b "/leaf";
  Buffer.contents b

let stat_setup inp ctx =
  let fs = ctx.fs in
  must "mkdir" (Cffs.mkdir fs "/statbench");
  for d = 0 to inp.dirs - 1 do
    must "mkdir" (Cffs.mkdir fs (st_dir d))
  done;
  Array.iteri (fun i data -> must "write" (Cffs.write_file fs (st_path inp i) data)) inp.sdata;
  must "mkdir" (Cffs.mkdir fs "/statbench/big");
  for i = 0 to inp.entries - 1 do
    must "create" (Cffs.create fs (big_path i))
  done;
  let dir = ref "/statbench/deep" in
  must "mkdir" (Cffs.mkdir fs !dir);
  for level = 0 to inp.depth - 1 do
    dir := Printf.sprintf "%s/p%02d" !dir level;
    must "mkdir" (Cffs.mkdir fs !dir)
  done;
  must "write" (Cffs.write_file fs (deep_path inp.depth) inp.sdata.(0));
  Cffs.sync fs

let stat_size expected kind = function
  | Ok (st : Fs_intf.stat) when st.Fs_intf.st_size = expected && st.Fs_intf.st_kind = kind
    ->
      None
  | Ok st -> Some (Printf.sprintf "stat size %d, expected %d" st.Fs_intf.st_size expected)
  | Error e -> Some (Errno.to_string e)

let stat_run inp ctx =
  let fs = ctx.fs in
  let file_bytes = Bytes.length inp.sdata.(0) in
  let reg = Cffs_vfs.Inode.Regular in
  let ls () =
    for d = 0 to inp.dirs - 1 do
      op ctx List_dir_plus
        (fun () -> Cffs.list_dir_plus fs (st_dir d))
        (function
          | Ok entries
            when List.length entries = inp.per_dir
                 && List.for_all
                      (fun (_, (st : Fs_intf.stat)) -> st.Fs_intf.st_size = file_bytes)
                      entries ->
              None
          | Ok _ -> Some "listing differs from the populated directory"
          | Error e -> Some (Errno.to_string e))
    done
  in
  let sweep () =
    Array.iter
      (fun i ->
        op ctx Stat (fun () -> Cffs.stat fs (st_path inp i)) (stat_size file_bytes reg))
      inp.order
  in
  remount ctx;
  phase ctx ls (* walk: cold ls -l *);
  phase ctx ls (* ls_warm *);
  remount ctx;
  phase ctx sweep (* stat_cold *);
  phase ctx (fun () ->
      for _ = 1 to inp.repeats do
        sweep ()
      done) (* stat_warm *);
  remount ctx;
  phase ctx (fun () ->
      Array.iter
        (fun i -> op ctx Stat (fun () -> Cffs.stat fs (big_path i)) (stat_size 0 reg))
        inp.probe) (* bigdir_cold *);
  let deep = deep_path inp.depth in
  phase ctx (fun () ->
      for _ = 1 to inp.repeats * 100 do
        op ctx Stat (fun () -> Cffs.stat fs deep) (stat_size file_bytes reg)
      done) (* deep_warm *)

(* ---------------------------------------------------------------------- *)
(* Workload: multi-client prefetch rounds (the A9 shape)                  *)

type mc_in = {
  nstreams : int;
  per_stream : int;
  batch : int;
  mdata : bytes array array;  (** stream -> file -> payload *)
}

let mc_inputs seed =
  let prng = Prng.create seed in
  let nstreams = 8 and per_stream = 200 in
  let mdata = Array.init nstreams (fun _ -> payloads prng per_stream (8 * 4096)) in
  { nstreams; per_stream; batch = 8; mdata }

let mc_dir s = Printf.sprintf "/mc/s%02d" s
let mc_path s i = Printf.sprintf "/mc/s%02d/f%05d" s i

let mc_setup inp ctx =
  let fs = ctx.fs in
  must "mkdir" (Cffs.mkdir_p fs "/mc");
  Array.iteri
    (fun s files ->
      must "mkdir" (Cffs.mkdir fs (mc_dir s));
      Array.iteri (fun i data -> must "write" (Cffs.write_file fs (mc_path s i) data)) files)
    inp.mdata;
  Cffs.sync fs;
  Blockdev.set_queue ctx.dev ~depth:16 ~policy:Scheduler.Clook ~coalesce:true ()

(* Round-robin merge: one element from each list in turn — the arrival
   order of concurrent clients. *)
let interleave lists =
  let rec go acc = function
    | [] -> List.rev acc
    | lists ->
        let heads, tails =
          List.fold_left
            (fun (hs, ts) l -> match l with [] -> (hs, ts) | x :: r -> (x :: hs, r :: ts))
            ([], []) lists
        in
        go (List.rev_append heads acc) (List.rev tails)
  in
  go [] lists

(* What [Cache.prefetch] will submit: every non-resident sub-range of each
   run, in order, split per spindle as the composite splits it. *)
let prefetch_submissions ctx runs =
  let subs = Array.make (Array.length ctx.spindles) [] in
  let emit start stop =
    if start < stop then begin
      let frs = fragments ctx.extents start (stop - start) in
      (match !tr with
      | Some t when List.length frs > 1 -> t.splits <- t.splits + 1
      | _ -> ());
      List.iter
        (fun (sub, pblk, n) ->
          subs.(sub) <- Request.read ~lba:(pblk * spb) ~sectors:(n * spb) :: subs.(sub))
        frs
    end
  in
  List.iter
    (fun (blk, n) ->
      let start = ref blk in
      for i = 0 to n - 1 do
        if Cache.resident_block ctx.cache (blk + i) then begin
          emit !start (blk + i);
          start := blk + i + 1
        end
      done;
      emit !start (blk + n))
    runs;
  Array.map List.rev subs

let mc_run inp ctx =
  let fs = ctx.fs in
  let rounds = (inp.per_stream + inp.batch - 1) / inp.batch in
  remount ctx;
  phase ctx (fun () ->
      for r = 0 to rounds - 1 do
        let lo = r * inp.batch in
        let hi = min inp.per_stream (lo + inp.batch) - 1 in
        let per_stream =
          List.init inp.nstreams (fun s ->
              let runs = ref [] in
              for i = lo to hi do
                op ctx File_runs
                  (fun () -> Cffs.file_runs fs (mc_path s i))
                  (function
                    | Ok rs ->
                        runs := !runs @ rs;
                        None
                    | Error e -> Some (Errno.to_string e))
              done;
              !runs)
        in
        let runs = interleave per_stream in
        (match !tr with
        | Some t -> t.prefetch_subs <- Some (prefetch_submissions ctx runs)
        | None -> ());
        op ctx ~charge:false Prefetch
          (fun () -> Cache.prefetch ctx.cache runs)
          (fun () -> None);
        (match !tr with Some t -> t.prefetch_subs <- None | None -> ());
        for s = 0 to inp.nstreams - 1 do
          for i = lo to hi do
            op ctx Read_file
              (fun () -> Cffs.read_file fs (mc_path s i))
              (same_bytes inp.mdata.(s).(i))
          done
        done
      done;
      op ctx ~charge:false Sync (fun () -> Cffs.sync fs) (fun () -> None))

(* ---------------------------------------------------------------------- *)
(* Workload table                                                         *)

type workload = {
  wname : string;
  shape : fs_shape;
  setup : ctx -> unit;
  run : ctx -> unit;
}

let smallfile_ungrouped_files = 500
let smallfile_grouped_files = 2500

(* The standard testbed of [Setup.standard]: 64 MB cache, one drive. *)
let standard =
  { config = Cffs.config_default; policy = Cache.Sync_metadata; integrity = false;
    ndrives = 1; cache_blocks = 16384 }

let workload name seed =
  let make shape setup run = Some { wname = name; shape; setup; run } in
  match name with
  | "smallfile-ungrouped" ->
      let inp = smallfile_inputs ~nfiles:smallfile_ungrouped_files seed in
      make { standard with config = Cffs.config_ffs_like }
        (smallfile_setup inp) (smallfile_run inp)
  | "smallfile-grouped-journal" ->
      let inp = smallfile_inputs ~nfiles:smallfile_grouped_files seed in
      make { standard with policy = Cache.Journaled; integrity = true }
        (smallfile_setup inp) (smallfile_run inp)
  | "stat-namei" ->
      let inp = stat_inputs seed in
      make { standard with cache_blocks = 128 } (stat_setup inp) (stat_run inp)
  | "mclient-striped4" ->
      let inp = mc_inputs seed in
      make { standard with ndrives = 4 } (mc_setup inp) (mc_run inp)
  | _ -> None

let workload_names =
  [ "smallfile-ungrouped"; "smallfile-grouped-journal"; "stat-namei";
    "mclient-striped4" ]

(* ---------------------------------------------------------------------- *)
(* Iterations                                                             *)

(* Format and populate a fresh instance; returns it with the host seconds
   the set-up took.  [trace] installs the traced iteration's observers. *)
let instantiate ?trace w =
  let t0 = host_now () in
  let dev, spindles, drives, extents = make_device w.shape in
  (match trace with Some t -> install_device_hooks ~drives ~spindles t | None -> ());
  let fs = format_fs w.shape dev in
  let ctx =
    { dev; fs; cache = Cffs.cache fs; spindles; drives; extents; it = new_iter () }
  in
  (match trace with Some t -> install_fs_hooks ctx t | None -> ());
  w.setup ctx;
  (ctx, host_now () -. t0)

let finish_iteration ctx =
  let report = Cffs_fsck.Fsck_cffs.check ctx.fs in
  if not (Cffs_fsck.Report.clean report) then
    ctx.it.errors <-
      Format.asprintf "fsck: %a" Cffs_fsck.Report.pp report :: ctx.it.errors;
  let crc =
    List.fold_left (fun a s -> a + R.get_counter s "integrity.checksum_failures") 0 ctx.it.snaps
  in
  if crc > 0 then
    ctx.it.errors <- "integrity checksum failures" :: ctx.it.errors

(* Drop the previous instance first, so the heap peak is one iteration's,
   whatever the number of iterations, and so every set-up starts from the
   same collected heap. *)
let fresh_instance ?trace w =
  Gc.full_major ();
  instantiate ?trace w

(* A fixed computation that uses none of the simulator's code: build a
   hash table of 32768 small byte strings, probe it 131072 times, sort an
   array.  Its host time measures the host's current speed, so no change
   to the simulator can move it.  20 to 35 ms on a 2-core x86-64 host,
   depending on the host's load. *)
let reference () =
  let n = 1 lsl 15 in
  let h = Hashtbl.create 16 in
  let x = ref 12345 in
  let next () = x := ((!x * 1103515245) + 12345) land 0x3fffffff in
  for _ = 1 to n do
    next ();
    Hashtbl.replace h !x (Bytes.make 64 'x')
  done;
  let hits = ref 0 in
  for _ = 1 to 4 * n do
    next ();
    if Hashtbl.mem h (!x land 0x3ffffff) then incr hits
  done;
  let a = Array.init n (fun i -> (i * 7919) land 0xffff) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!hits, a))

let run_iteration ?trace w =
  Gc.full_major ();
  let t0 = host_now () in
  reference ();
  let ref_s = host_now () -. t0 in
  let ctx, setup_s = fresh_instance ?trace w in
  ctx.it.ref_s <- ref_s;
  (match trace with Some t -> tr := Some t | None -> ());
  Fun.protect ~finally:(fun () -> tr := None) (fun () -> w.run ctx);
  finish_iteration ctx;
  (ctx, setup_s)

(* ---------------------------------------------------------------------- *)
(* Replays: Ioqueue and Drive self time, isolated                         *)

type replay = {
  ok : bool;
  why : string;
  recorded : int;  (** queue segments replayed in recorded submission order *)
  takes : int;
  take_host_s : float;
  queue_host_s : float;  (** submits + takes *)
  services : int;
  service_host_s : float;
  service_sim_s : float;
}

let replay_queue ctx t =
  let geoms = Array.map Drive.geometry ctx.drives in
  let queues =
    Array.map
      (fun s ->
        Ioqueue.create ~depth:(Blockdev.queue_depth s) ~policy:(Blockdev.queue_policy s)
          ~coalesce:(Blockdev.queue_coalesce s) ())
      ctx.spindles
  in
  let takes = ref 0 and take_host = ref 0.0 and total_host = ref 0.0 in
  let recorded = ref 0 in
  let bad = ref None in
  List.iter
    (fun seg ->
      let q = queues.(seg.spindle) in
      let dispatched = List.rev seg.dispatched in
      (* A lone request needs no recorded order; several must have one,
         or the replay would not be the traced stream. *)
      let subs =
        match seg.submitted with
        | Some subs ->
            incr recorded;
            subs
        | None ->
            if List.length dispatched > 1 && !bad = None then
              bad := Some "a queue segment has no recorded submission order";
            dispatched
      in
      let t0 = host_now () in
      List.iter (fun r -> ignore (Ioqueue.submit q r () ~now:0.0)) subs;
      let cyl = ref seg.start_cyl in
      let rec go = function
        | [] ->
            if (not (Ioqueue.is_empty q)) && !bad = None then
              bad := Some "replay queue holds more requests than were dispatched"
        | (expect : Request.t) :: rest -> (
            let a = host_now () in
            let g = Ioqueue.take q ~geom:(Some geoms.(seg.spindle)) ~current_cyl:!cyl in
            take_host := !take_host +. (host_now () -. a);
            incr takes;
            match g with
            | None -> bad := Some "replay queue ran dry before the traced dispatches"
            | Some group ->
                let first = List.hd group in
                let sectors =
                  List.fold_left (fun acc (i : unit Ioqueue.item) -> acc + i.Ioqueue.req.Request.sectors) 0 group
                in
                if
                  first.Ioqueue.req.Request.lba <> expect.Request.lba
                  || sectors <> expect.Request.sectors
                  || first.Ioqueue.req.Request.kind <> expect.Request.kind
                then bad := Some "replay dispatch order differs from the trace"
                else begin
                  (* the drain loop's convention: the next pick starts
                     from the cylinder of this dispatch's first lba *)
                  cyl := Geometry.cyl_of_lba geoms.(seg.spindle) first.Ioqueue.req.Request.lba;
                  go rest
                end)
      in
      if !bad = None then go dispatched;
      total_host := !total_host +. (host_now () -. t0))
    (List.rev t.segments);
  (!bad, !takes, !take_host, !total_host, !recorded)

let replay_drives ctx t =
  let services = ref 0 and host = ref 0.0 and sim = ref 0.0 in
  let bad = ref None in
  Array.iteri
    (fun i log ->
      let d = Drive.create (Drive.profile ctx.drives.(i)) in
      List.iter
        (function
          | Flush_cache -> Drive.flush_cache d
          | Svc { t_start; t_end; req; measured } ->
              (* A second step lands exactly: once the clocks are within a
                 factor of two their difference is exact (Sterbenz). *)
              for _ = 1 to 2 do
                let gap = t_start -. Drive.now d in
                if gap <> 0.0 then Drive.advance d gap
              done;
              if Drive.now d <> t_start && !bad = None then
                bad := Some "drive replay clock cannot reach a traced start time";
              let a = host_now () in
              let dur = Drive.service d req in
              let b = host_now () in
              if Drive.now d <> t_end && !bad = None then
                bad := Some "drive replay service time differs from the trace";
              if measured then begin
                incr services;
                host := !host +. (b -. a);
                sim := !sim +. dur
              end)
        (List.rev !log))
    t.drive_log;
  (!bad, !services, !host, !sim)

let replay ctx t =
  settle t;
  let qbad, takes, take_host_s, queue_host_s, recorded = replay_queue ctx t in
  let dbad, services, service_host_s, service_sim_s = replay_drives ctx t in
  let bad =
    match (t.bad_trace, qbad, dbad) with
    | Some w, _, _ | None, Some w, _ | None, None, Some w -> Some w
    | None, None, None -> None
  in
  {
    ok = bad = None;
    why = Option.value bad ~default:"";
    recorded;
    takes;
    take_host_s;
    queue_host_s;
    services;
    service_host_s;
    service_sim_s;
  }

(* ---------------------------------------------------------------------- *)
(* Metrics                                                                *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value =
  { name; value = (if Float.is_finite value then value else 0.0); unit_ }

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* The highest of these percentiles that leaves at least ten samples
   beyond it, chosen from the per-iteration op count so that the choice
   does not depend on how many iterations the host managed. *)
let tail_percentile per_iter_ops =
  List.find_opt
    (fun p -> fi per_iter_ops *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.99; 99.9; 99.0; 90.0; 50.0 ]
  |> Option.value ~default:50.0

let median s = Stats.percentile s 50.0

let stats_of xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

(* The median, estimated as the mean of the central tenth of the samples
   (the 45th to 55th percentile, read in steps of a tenth).  Where one
   class of op fills the lower half and another the upper half —
   mclient's file_runs and read_file — the plain median flips between the
   two clusters from iteration to iteration; the band mean moves smoothly
   instead. *)
let central_median s =
  let steps = 100 in
  let sum = ref 0.0 in
  for k = 0 to steps do
    sum := !sum +. Stats.percentile s (45.0 +. (10.0 *. fi k /. fi steps))
  done;
  !sum /. fi (steps + 1)

type summary = {
  iters : iter list;  (** the host-timed iterations, oldest first *)
  setups : float list;
  first : iter;  (** the warm-up iteration: the determinism reference *)
  ops_total : int;  (** every op attempted, warm-up included *)
  failed_total : int;
  errors : string list;
  peak_words : int;
}

(* Every iteration of one run must reproduce the first one's simulated
   figures and allocation exactly; drift is an error, not noise. *)
let drift_errors first iters =
  List.concat_map
    (fun it ->
      let d what a b = if a <> b then [ Printf.sprintf "determinism drift in %s" what ] else [] in
      d "op count" (fi first.ops) (fi it.ops)
      @ d "simulated time" first.sim_s it.sim_s
      @ d "device requests" (fi first.requests) (fi it.requests)
      @ d "allocation" first.words it.words)
    iters
  |> List.sort_uniq compare

let iter_rate it = ratio (fi it.ops) it.wall_s

(* Host figures are per-iteration (or per-set-up) statistics; the run
   reports their median, scaled to a host on which [reference] takes
   [reference_s].  The host this was built on alternates between fast and
   slow periods lasting minutes, and every host figure, [reference]'s
   too, moves by up to 1.7x between them; the scaled figures move by a
   few percent.  The unscaled medians go to standard error. *)
let reference_s = 0.02

let host_scale s = reference_s /. median (stats_of (List.map (fun it -> it.ref_s) s.iters))

let end_to_end s =
  let p = tail_percentile s.first.ops in
  let k = host_scale s in
  let time f = k *. median (stats_of (List.map f s.iters)) in
  let f = s.first in
  ( [
      m "setup_s" "s" (k *. median (stats_of s.setups));
      m "host_ops_per_s" "ops/s" (median (stats_of (List.map iter_rate s.iters)) /. k);
      m "host_op_p50_us" "us" (1e6 *. time (fun it -> central_median it.times));
      m "host_op_tail_us" "us" (1e6 *. time (fun it -> Stats.percentile it.times p));
      m "alloc_words_per_op" "words/op" (ratio f.words (fi f.ops));
      m "peak_heap_mb" "MB" (fi (s.peak_words * (Sys.word_size / 8)) /. 1e6);
      m "sim_ops_per_s" "ops/sim_s" (ratio (fi f.ops) f.sim_s);
      m "disk_requests_per_op" "req/op" (ratio (fi f.requests) (fi f.ops));
    ],
    (p, f.ops - int_of_float (Float.ceil (p /. 100.0 *. fi f.ops))) )

let per_layer (s : summary) ~untraced_ops_per_s ctx (t : trace) (rp : replay) =
  let it = ctx.it in
  let c name = List.fold_left (fun a s -> a + R.get_counter s name) 0 it.snaps in
  let fc name = List.fold_left (fun a s -> a +. R.get_fcounter s name) 0.0 it.snaps in
  let hist name =
    List.fold_left
      (fun (cnt, sum, mx) s ->
        match R.get_histogram s name with
        | Some h when h.R.count > 0 -> (cnt + h.R.count, sum +. h.R.sum, Float.max mx h.R.max)
        | _ -> (cnt, sum, mx))
      (0, 0.0, 0.0) it.snaps
  in
  let ops = fi it.ops in
  (* Per-class op costs come from the untraced iterations: the hooks would
     otherwise be billed to the op they observe.  Host time is each
     host-timed iteration's median, aggregated and scaled as [end_to_end]
     does; the deterministic figures come from the first warm-up
     iteration.  The traced iteration's own host figures are unscaled. *)
  let fs_metrics =
    let it = s.first in
    List.concat_map
      (fun cls ->
        let i = cls_index cls in
        let n = it.cls_count.(i) in
        let base = "fs." ^ cls_name cls in
        let p50 =
          host_scale s *. median (stats_of (List.map (fun it -> median it.cls_times.(i)) s.iters))
        in
        [
          m (base ^ ".host_us_p50") "us" (1e6 *. p50);
          m (base ^ ".alloc_words") "words/op" (ratio it.cls_words.(i) (fi n));
          m (base ^ ".count") "count" (fi n);
        ])
      classes
  in
  let hit_ratio hits misses = ratio (fi hits) (fi (hits + misses)) in
  let reads = c "blockdev.reads" and writes = c "blockdev.writes" in
  let requests = reads + writes in
  let sectors = c "blockdev.read_sectors" + c "blockdev.write_sectors" in
  let _, svc_sum, _ = hist "drive.service_s" in
  let dcount, dsum, dmax = hist "ioqueue.depth" in
  let busy = it.spindle_busy and sreqs = it.spindle_reqs in
  let busy_mean = Array.fold_left ( +. ) 0.0 busy /. fi (max 1 (Array.length busy)) in
  let busy_max = Array.fold_left Float.max 0.0 busy in
  let sreq_total = Array.fold_left ( + ) 0 sreqs in
  let sreq_max = Array.fold_left max 0 sreqs in
  let tags_on = Blockdev.tags_enabled ctx.dev in
  let written_blocks = c "blockdev.write_sectors" / (block_size / 512) in
  (* Replay self-times are withheld unless the replay matched the trace. *)
  let replay_metrics =
    if not rp.ok then []
    else
      [
        m "ioqueue.host_us_per_take" "us" (1e6 *. ratio rp.take_host_s (fi rp.takes));
        m "ioqueue.replay_host_s" "s" rp.queue_host_s;
        m "drive.host_us_per_service" "us" (1e6 *. ratio rp.service_host_s (fi rp.services));
      ]
  in
  fs_metrics
  @ [
      m "core.grouped_fraction" "ratio" (ratio (fi t.group_misses) (fi t.misses));
      m "namei.dentry_hit_ratio" "ratio" (hit_ratio (c "namei.dentry_hits") (c "namei.dentry_misses"));
      m "namei.attr_hit_ratio" "ratio" (hit_ratio (c "namei.attr_hits") (c "namei.attr_misses"));
      m "namei.shortcut_hit_ratio" "ratio"
        (hit_ratio (c "namei.shortcut_hits") (c "namei.shortcut_misses"));
      m "vfs.components_per_resolve" "count" (ratio (fi (c "vfs.path_components")) (fi (c "vfs.resolves")));
      m "cache.hit_ratio" "ratio"
        (hit_ratio (c "cache.phys_hits" + c "cache.logical_hits") (c "cache.misses"));
      m "cache.group_blocks_per_miss" "blocks" (ratio (fi t.miss_blocks) (fi t.misses));
      m "cache.writeback_units_per_flush" "units" (ratio (fi t.wb_units) (fi t.flushes));
      m "cache.blocks_per_writeback_unit" "blocks" (ratio (fi t.wb_blocks) (fi t.wb_units));
      m "cache.evictions" "count" (fi (c "cache.evictions"));
      m "cache.flush_host_ms" "ms" (1e3 *. ratio t.flush_host (fi t.flushes));
      m "journal.log_blocks_per_user_kb" "blocks/KB"
        (ratio (fi t.log_blocks) (fi it.user_bytes /. 1024.0));
      m "journal.checkpoints" "count" (fi (c "journal.checkpoints"));
      m "journal.overflow_syncs" "count" (fi (c "journal.overflow_syncs"));
      m "integrity.tagged_blocks_per_op" "blocks/op"
        (if tags_on then ratio (fi written_blocks) ops else 0.0);
      m "integrity.checksum_failures" "count" (fi (c "integrity.checksum_failures"));
      m "blockdev.requests_per_op" "req/op" (ratio (fi requests) ops);
      m "blockdev.sectors_per_request" "sectors" (ratio (fi sectors) (fi requests));
      m "blockdev.host_us_per_request" "us" (1e6 *. median t.req_host);
      m "blockdev.retries" "count" (fi (c "blockdev.retries"));
      m "ioqueue.dispatched" "count" (fi (c "ioqueue.dispatched"));
      m "ioqueue.coalesced" "count" (fi (c "ioqueue.coalesced"));
      m "ioqueue.sweeps" "count" (fi (c "ioqueue.sweeps"));
      m "ioqueue.window_mean" "requests" (ratio dsum (fi dcount));
      m "ioqueue.window_max" "requests" dmax;
      m "drive.cache_hit_ratio" "ratio" (ratio (fi (c "drive.cache_hits")) (fi (c "drive.reads")));
      m "drive.seek_share" "ratio" (ratio (fc "drive.seek_s") svc_sum);
      m "drive.rotation_share" "ratio" (ratio (fc "drive.rotation_s") svc_sum);
      m "drive.transfer_share" "ratio" (ratio (fc "drive.transfer_s") svc_sum);
      m "volume.busy_spread" "ratio" (ratio busy_max busy_mean);
      m "volume.max_spindle_request_share" "ratio" (ratio (fi sreq_max) (fi sreq_total));
      m "volume.split_requests" "count" (fi t.splits);
      m "obs.trace_overhead_ratio" "ratio" (ratio untraced_ops_per_s (ratio ops it.wall_s));
    ]
  @ replay_metrics

(* The drive replay's simulated service sum must match the traced
   drive.service_s histogram delta (summed in another order, hence the
   relative tolerance of a few ulps per request). *)
let check_service_sum ctx (rp : replay) =
  let sum =
    List.fold_left
      (fun a s ->
        match R.get_histogram s "drive.service_s" with Some h -> a +. h.R.sum | None -> a)
      0.0 ctx.it.snaps
  in
  if not rp.ok then rp
  else if Float.abs (sum -. rp.service_sim_s) > 1e-9 *. Float.max 1.0 sum then
    { rp with ok = false; why = "drive replay service-time sum differs from drive.service_s" }
  else rp

(* One iteration with every observer installed, then the replays. *)
let traced_iteration w =
  let t = new_trace (max 1 w.shape.ndrives) in
  let ctx, _ = run_iteration ~trace:t w in
  remove_hooks ctx;
  (ctx, t, check_service_sum ctx (replay ctx t))

(* ---------------------------------------------------------------------- *)
(* Output                                                                 *)

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let report_table title metrics =
  Printf.eprintf "%s\n" title;
  List.iter (fun x -> Printf.eprintf "  %-36s %16.6g %s\n" x.name x.value x.unit_) metrics;
  flush stderr

(* ---------------------------------------------------------------------- *)
(* Driver                                                                 *)

let min_setups = 5

let measure w ~seconds =
  (* Warm-up iterations first: the heap grows and fresh memory is first
     touched while they run, a cost that would otherwise land on whichever
     run managed the fewest iterations.  Warm-up lasts two iterations or
     three seconds, whichever comes first.  Warm-up iterations are
     output-checked like the others, and the first is the determinism
     reference, but they are not host-timed.  The heap peak is read after
     the first: GC pacing follows allocation, so that reading does not
     depend on how many iterations the host managed. *)
  let warm_until = host_now () +. 3.0 in
  let warm, warm_setup =
    let ctx, s = run_iteration w in
    (ctx.it, s)
  in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let warm_iters, warm_setups =
    if host_now () >= warm_until then ([ warm ], [ warm_setup ])
    else
      let ctx, s = run_iteration w in
      ([ warm; ctx.it ], [ warm_setup; s ])
  in
  let deadline = host_now () +. seconds in
  let rec loop acc setups =
    let ctx, s = run_iteration w in
    let acc = ctx.it :: acc and setups = s :: setups in
    if host_now () < deadline then loop acc setups else (List.rev acc, setups)
  in
  let iters, setups = loop [] warm_setups in
  (* Set-up is short and noisy: take its median over several instances. *)
  let rec extra setups =
    if List.length setups >= min_setups then setups
    else
      let _, s = fresh_instance w in
      extra (s :: setups)
  in
  let setups = extra setups in
  let all = warm_iters @ iters in
  let errors =
    drift_errors warm (List.tl all)
    @ List.concat_map (fun (it : iter) -> List.rev it.errors) all
  in
  {
    iters;
    setups;
    first = warm;
    ops_total = List.fold_left (fun a (it : iter) -> a + it.ops) 0 all;
    failed_total = List.fold_left (fun a (it : iter) -> a + it.failed) 0 all;
    errors;
    peak_words;
  }

let run_benchmark w ~seconds ~trace =
  let s = measure w ~seconds in
  let e2e, (tail_p, beyond) = end_to_end s in
  let untraced_ops_per_s = median (stats_of (List.map iter_rate s.iters)) in
  Printf.eprintf "workload %s: %d iterations, %d ops, %d failed (failed_op_ratio %g)\n"
    w.wname (List.length s.iters) s.ops_total s.failed_total
    (ratio (fi s.failed_total) (fi s.ops_total));
  Printf.eprintf "  host_op_tail_us is p%g, with %d of an iteration's ops beyond it\n" tail_p beyond;
  Printf.eprintf
    "  host figures scaled by %.4f (reference computation %.2f ms, nominal %.0f ms); \
     unscaled host_ops_per_s %.6g\n"
    (host_scale s) (1e3 *. reference_s /. host_scale s) (1e3 *. reference_s) untraced_ops_per_s;
  List.iter (fun e -> Printf.eprintf "  ERROR %s\n" e) s.errors;
  report_table "end-to-end (untraced)" e2e;
  if not trace then
    print_result
      ~correct:(s.failed_total = 0 && s.errors = [])
      ~attempted:s.ops_total ~failed:s.failed_total e2e
  else begin
    let ctx, t, rp = traced_iteration w in
    Printf.eprintf "  replay: %d queue segments in recorded submission order\n"
      rp.recorded;
    if not rp.ok then Printf.eprintf "  replay withheld: %s\n" rp.why;
    let layers = per_layer s ~untraced_ops_per_s ctx t rp in
    report_table "per-layer (traced iteration)" layers;
    let errors = s.errors @ List.rev ctx.it.errors in
    let failed = s.failed_total + ctx.it.failed in
    (* The traced iteration must reproduce the untraced simulation. *)
    let fidelity =
      if ctx.it.sim_s <> s.first.sim_s || ctx.it.requests <> s.first.requests then
        [ "traced iteration's simulation differs from the untraced one" ]
      else []
    in
    List.iter (fun e -> Printf.eprintf "  ERROR %s\n" e) fidelity;
    print_result
      ~correct:(failed = 0 && errors = [] && fidelity = [])
      ~attempted:(s.ops_total + ctx.it.ops) ~failed layers
  end

(* ---------------------------------------------------------------------- *)
(* Self-test: fidelity against the library drivers, and replay fidelity  *)

let selftest () =
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; Printf.printf "FAIL %s\n%!" s) fmt in
  (* The benchmark's smallfile driver must reproduce Smallfile.run's
     simulated per-phase files/s exactly at seed 7. *)
  let fidelity name ~nfiles lib_env =
    let shape = (Option.get (workload name 7)).shape in
    let inp = smallfile_inputs ~nfiles 7 in
    let w = { wname = name; shape; setup = smallfile_setup inp; run = smallfile_run inp } in
    let ctx, _ = run_iteration w in
    let mine = List.rev_map (fun secs -> fi nfiles /. secs) ctx.it.windows in
    let lib =
      List.map (fun r -> r.Smallfile.files_per_sec)
        (Smallfile.run ~nfiles ~prng_seed:7 (lib_env shape))
    in
    Printf.printf "%s at %d files, files/s per phase (create/read/overwrite/delete):\n" name nfiles;
    Printf.printf "  benchmark: %s\n  Smallfile: %s\n%!"
      (String.concat " / " (List.map (Printf.sprintf "%.1f") mine))
      (String.concat " / " (List.map (Printf.sprintf "%.1f") lib));
    if mine <> lib then fail "%s: simulated files/s differ from Smallfile.run" name
  in
  (* The library's own set-up where it can build the instance; the
     integrity-formatted one it cannot, so that uses this file's. *)
  fidelity "smallfile-ungrouped" ~nfiles:1000 (fun _ ->
      Setup.env (Setup.Cffs_fs Cffs.config_ffs_like));
  fidelity "smallfile-grouped-journal" ~nfiles:10000 (fun shape ->
      let dev, _, _, _ = make_device shape in
      Env.make ~cpu_per_op (Fs_intf.Packed ((module Cffs), format_fs shape dev)) dev);
  (* Replays must reproduce the traced dispatch order and service times. *)
  List.iter
    (fun name ->
      let ctx, _, rp = traced_iteration (Option.get (workload name 7)) in
      Printf.printf "%s replay: %d takes (%d segments in recorded order), %d services: %s\n%!"
        name rp.takes rp.recorded rp.services
        (if rp.ok then "matches the trace" else rp.why);
      if not rp.ok then fail "%s replay" name;
      if ctx.it.failed > 0 || ctx.it.errors <> [] then fail "%s output checks" name)
    workload_names;
  if !ok then print_endline "selftest: ok" else exit 1

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 print per-layer metrics from a traced iteration");
      ("--selftest", Arg.Set self, " fidelity and replay checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else
    match workload !workload_name !seed with
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload_name
          (String.concat ", " workload_names);
        exit 2
    | Some w -> run_benchmark w ~seconds:!seconds ~trace:(!trace = 1)
