(* Property tests for the tagged command queue and the async pipeline:
   exactly-once completion, bounded starvation under the sweep scheduler,
   bit-identical final state across scheduling policies, and the
   overlap-order invariant for writes. *)

module Ioqueue = Cffs_disk.Ioqueue
module Scheduler = Cffs_disk.Scheduler
module Request = Cffs_disk.Request
module Geometry = Cffs_disk.Geometry
module Blockdev = Cffs_blockdev.Blockdev
module Drive = Cffs_disk.Drive
module Profile = Cffs_disk.Profile
module Prng = Cffs_util.Prng
module Io_error = Cffs_util.Io_error

let check = Alcotest.check

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let mem () = Blockdev.memory ~block_size:4096 ~nblocks:1024
let timed () = Blockdev.of_drive (Drive.create Profile.seagate_st31200) ~block_size:4096

let block c = Bytes.make 4096 c
let blocki i = Bytes.make 4096 (Char.chr (i land 0xff))

let policies = [ Scheduler.Fcfs; Scheduler.Sstf; Scheduler.Clook ]

(* ------------------------------------------------------------------ *)
(* Exactly-once completion: every submitted tag completes exactly once,
   whatever the policy, depth and coalescing say — including duplicate and
   overlapping block ranges. *)

(* (kind, blk, n) triples decoded from bounded ints so QCheck's built-in
   shrinker works on the raw tuples. *)
let ops_gen = QCheck.(list_of_size Gen.(int_range 1 60) (triple (int_bound 1) (int_bound 200) (int_bound 3)))

let submit_decoded dev ops =
  List.map
    (fun (kind, blk, n) ->
      let n = 1 + n in
      if kind = 0 then Blockdev.submit_read dev blk n
      else Blockdev.submit_write dev blk (Bytes.create (n * 4096)))
    ops

let prop_exactly_once (depth, policy_i, coalesce, ops) =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:(1 + depth)
    ~policy:(List.nth policies (policy_i mod 3))
    ~coalesce ();
  let tags = submit_decoded dev ops in
  let cqes = Blockdev.drain dev in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (c : Blockdev.cqe) ->
      if Hashtbl.mem seen c.Blockdev.cq_tag then
        QCheck.Test.fail_reportf "tag %d completed twice" c.Blockdev.cq_tag;
      Hashtbl.replace seen c.Blockdev.cq_tag ())
    cqes;
  List.length cqes = List.length tags
  && List.for_all (Hashtbl.mem seen) tags
  && Blockdev.pending dev = 0

let qcheck_exactly_once =
  qtest ~count:200 "every tag completes exactly once"
    QCheck.(quad (int_bound 15) (int_bound 2) bool ops_gen)
    prop_exactly_once

(* ------------------------------------------------------------------ *)
(* Bounded starvation: the sweep (FSCAN) discipline guarantees no window
   entry is passed over more than 2*depth times, even under a continuous
   stream of newly arriving requests that the policy would prefer. *)

let test_starvation_bound () =
  let depth = 4 in
  let q : unit Ioqueue.t =
    Ioqueue.create ~depth ~policy:Scheduler.Clook ()
  in
  let now = ref 0.0 in
  (* Undispatched tags in submission order, each with the number of takes
     that passed it over while it sat in the window.  The window holds the
     [depth] oldest undispatched requests (promotion is FIFO). *)
  let waiting = ref [] in
  let submit blk =
    now := !now +. 1.0;
    let tag = Ioqueue.submit q (Request.read ~lba:(blk * 8) ~sectors:8) () ~now:!now in
    waiting := !waiting @ [ (tag, ref 0) ]
  in
  (* A far-away victim, then an adversarial stream of low-lba requests that
     C-LOOK always prefers within a sweep. *)
  submit 900;
  for i = 0 to depth - 1 do submit i done;
  let worst = ref 0 in
  let served = ref 0 in
  let hot = ref 100 in
  while Ioqueue.pending q > 0 && !served < 200 do
    (match Ioqueue.take q ~geom:None ~current_cyl:0 with
    | None -> ()
    | Some group ->
        let dispatched (tag, _) =
          List.exists (fun (it : unit Ioqueue.item) -> it.Ioqueue.tag = tag) group
        in
        List.iteri
          (fun i ((_, passes) as w) ->
            if dispatched w then worst := max !worst !passes
            else if i < depth then incr passes)
          !waiting;
        waiting := List.filter (fun w -> not (dispatched w)) !waiting;
        incr served);
    (* keep the queue hot so a non-sweeping scheduler would starve blk 900 *)
    if !served < 50 then begin
      decr hot;
      submit (max 1 !hot)
    end
  done;
  check Alcotest.bool "drained" true (Ioqueue.pending q = 0 || !served >= 200);
  check Alcotest.bool
    (Printf.sprintf "worst pass count %d <= 2*depth %d" !worst (2 * depth))
    true
    (!worst <= 2 * depth)

(* ------------------------------------------------------------------ *)
(* Policy equivalence: the same submissions produce bit-identical final
   device state (and identical read payloads) under FIFO and under a deep
   coalescing C-LOOK window, because overlapping requests never reorder
   around a write. *)

let final_state dev =
  List.map (fun blk -> Bytes.to_string (Blockdev.read dev blk 1))
    (List.init 220 (fun i -> i))

let prop_policy_equivalent ops =
  let run ~depth ~policy ~coalesce =
    let dev = mem () in
    Blockdev.set_queue dev ~depth ~policy ~coalesce ();
    (* seed every write payload deterministically from its submission index *)
    let tags =
      List.mapi
        (fun i (kind, blk, n) ->
          let n = 1 + n in
          if kind = 0 then (Blockdev.submit_read dev blk n, true)
          else
            ( Blockdev.submit_write dev blk
                (Bytes.concat Bytes.empty (List.init n (fun _ -> blocki i))),
              false ))
        ops
    in
    let cqes = Blockdev.drain dev in
    let reads =
      List.filter_map
        (fun (tag, is_read) ->
          if not is_read then None
          else
            List.find_map
              (fun (c : Blockdev.cqe) ->
                if c.Blockdev.cq_tag = tag then
                  Some (Bytes.to_string (Result.get_ok c.Blockdev.cq_result))
                else None)
              cqes)
        tags
    in
    (final_state dev, reads)
  in
  let fifo = run ~depth:max_int ~policy:Scheduler.Fcfs ~coalesce:false in
  List.for_all
    (fun policy ->
      run ~depth:8 ~policy ~coalesce:true = fifo
      && run ~depth:2 ~policy ~coalesce:false = fifo)
    policies

let qcheck_policy_equivalent =
  qtest ~count:200 "final state and read data identical across policies"
    ops_gen prop_policy_equivalent

(* ------------------------------------------------------------------ *)
(* Overlap order: for any two overlapping requests where either is a
   write, service order equals submission order.  Observed through the
   write observer on a timed device under the greediest configuration. *)

let prop_overlap_order ops =
  let dev = timed () in
  Blockdev.set_queue dev ~depth:8 ~policy:Scheduler.Clook ~coalesce:true ();
  let log = ref [] in
  Blockdev.set_write_observer dev
    (Some (fun ~blk ~data ~torn:_ -> log := (blk, Bytes.length data / 4096) :: !log));
  let subs =
    List.mapi
      (fun i (kind, blk, n) ->
        let n = 1 + n in
        if kind = 0 then begin
          ignore (Blockdev.submit_read dev blk n);
          (i, Request.Read, blk, n)
        end
        else begin
          ignore
            (Blockdev.submit_write dev blk
               (Bytes.concat Bytes.empty (List.init n (fun _ -> blocki i))));
          (i, Request.Write, blk, n)
        end)
      ops
  in
  ignore (Blockdev.drain dev);
  (* Every pair of overlapping submissions with a write must appear in the
     final state as if serviced in submission order: the later write's
     payload wins on the overlap. *)
  let writes = List.filter (fun (_, k, _, _) -> k = Request.Write) subs in
  List.for_all
    (fun (i, _, blk, n) ->
      (* the last write covering each block wins *)
      List.for_all
        (fun b ->
          let covering =
            List.filter (fun (_, _, wb, wn) -> wb <= b && b < wb + wn) writes
          in
          match List.rev covering with
          | [] -> true
          | (last, _, _, _) :: _ ->
              (* only check via our own write: others checked on their turn *)
              last <> i
              || Bytes.equal (Blockdev.read dev b 1) (blocki i))
        (List.init n (fun j -> blk + j)))
    writes

let qcheck_overlap_order =
  qtest ~count:100 "overlapping writes persist in submission order" ops_gen
    prop_overlap_order

(* ------------------------------------------------------------------ *)
(* Fault isolation: one bad tagged request fails only its own waiter; the
   rest of the batch completes with data. *)

let test_fault_isolation () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:8 ~policy:Scheduler.Clook ~coalesce:false ();
  Blockdev.write dev 10 (block 'a');
  Blockdev.write dev 50 (block 'b');
  Blockdev.write dev 90 (block 'c');
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks:_ ->
         if op = Io_error.Read && blk = 50 then Blockdev.Fail Io_error.Bad_sector
         else Blockdev.Proceed));
  let t1 = Blockdev.submit_read dev 10 1 in
  let t2 = Blockdev.submit_read dev 50 1 in
  let t3 = Blockdev.submit_read dev 90 1 in
  let cqes = Blockdev.drain dev in
  let result tag =
    (List.find (fun (c : Blockdev.cqe) -> c.Blockdev.cq_tag = tag) cqes)
      .Blockdev.cq_result
  in
  (match result t1 with
  | Ok d -> check Alcotest.bytes "t1 data" (block 'a') d
  | Error _ -> Alcotest.fail "t1 failed");
  (match result t2 with
  | Ok _ -> Alcotest.fail "t2 should fail"
  | Error e ->
      check Alcotest.bool "t2 bad sector" true (e.Io_error.cause = Io_error.Bad_sector));
  (match result t3 with
  | Ok d -> check Alcotest.bytes "t3 data" (block 'c') d
  | Error _ -> Alcotest.fail "t3 failed")

(* A fault inside a coalesced group degrades to per-member service: only
   the member covering the fault fails. *)
let test_fault_in_coalesced_group () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:8 ~policy:Scheduler.Clook ~coalesce:true ();
  Blockdev.write dev 20 (block 'x');
  Blockdev.write dev 21 (block 'y');
  Blockdev.write dev 22 (block 'z');
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks ->
         (* fail any read whose range covers block 21 *)
         if op = Io_error.Read && blk <= 21 && 21 < blk + nblocks then
           Blockdev.Fail Io_error.Bad_sector
         else Blockdev.Proceed));
  let t1 = Blockdev.submit_read dev 20 1 in
  let t2 = Blockdev.submit_read dev 21 1 in
  let t3 = Blockdev.submit_read dev 22 1 in
  let cqes = Blockdev.drain dev in
  let ok tag =
    match
      (List.find (fun (c : Blockdev.cqe) -> c.Blockdev.cq_tag = tag) cqes)
        .Blockdev.cq_result
    with
    | Ok _ -> true
    | Error _ -> false
  in
  check Alcotest.bool "t1 ok" true (ok t1);
  check Alcotest.bool "t2 failed" false (ok t2);
  check Alcotest.bool "t3 ok" true (ok t3)

(* Queue teardown: pending requests fail with Power_cut without touching
   the media; their completions surface through drain. *)
let test_reset_queue_teardown () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:1 ~policy:Scheduler.Fcfs ~coalesce:false ();
  let t1 = Blockdev.submit_write dev 5 (block 'p') in
  let t2 = Blockdev.submit_write dev 6 (block 'q') in
  let n = Blockdev.reset_queue dev in
  check Alcotest.int "two torn down" 2 n;
  let cqes = Blockdev.drain dev in
  check Alcotest.int "two completions" 2 (List.length cqes);
  List.iter
    (fun (c : Blockdev.cqe) ->
      check Alcotest.bool "tagged" true
        (c.Blockdev.cq_tag = t1 || c.Blockdev.cq_tag = t2);
      match c.Blockdev.cq_result with
      | Ok _ -> Alcotest.fail "teardown must fail waiters"
      | Error e ->
          check Alcotest.bool "power cut" true
            (e.Io_error.cause = Io_error.Power_cut))
    cqes;
  (* nothing reached the media *)
  check Alcotest.bytes "block 5 untouched" (block '\000') (Blockdev.read dev 5 1);
  check Alcotest.bytes "block 6 untouched" (block '\000') (Blockdev.read dev 6 1)

(* Pinned failed-write buffers survive a queue teardown: the cache keeps
   them dirty, and a later flush (fault cleared) persists them. *)
let test_pinned_survive_teardown () =
  let module Cache = Cffs_cache.Cache in
  let dev = mem () in
  let cache = Cache.create ~policy:Cache.Delayed dev ~capacity_blocks:64 in
  Cache.write cache ~kind:`Data 7 (block 'd');
  Blockdev.set_injector dev
    (Some (fun op ~blk:_ ~nblocks:_ ->
         if op = Io_error.Write then Blockdev.Fail Io_error.Transient
         else Blockdev.Proceed));
  Cache.flush cache;
  check Alcotest.bool "pinned after failed flush" true (Cache.pinned_count cache > 0);
  (* tear down whatever the pipeline still holds; the pinned buffer is the
     cache's, not the queue's *)
  ignore (Blockdev.reset_queue dev);
  ignore (Blockdev.drain dev);
  check Alcotest.bool "still pinned" true (Cache.pinned_count cache > 0);
  Blockdev.set_injector dev None;
  Cache.flush cache;
  check Alcotest.int "unpinned" 0 (Cache.pinned_count cache);
  check Alcotest.bytes "persisted" (block 'd') (Blockdev.read dev 7 1)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the indexed queue against the original list
   implementation (test/ioqueue_oracle.ml).  Random interleavings of
   submit, take and the three setters, over every policy, coalescing on
   and off, depth 1 / 2-16 / unbounded and no geometry / the ST31200.
   Requests come from a narrow span so that duplicate and partly
   overlapping same-kind requests compete for the same coalescing
   boundary.  Every take must return the same group (tags in order), and
   every step the same [pending] and the same counter increments. *)

module Oracle = Ioqueue_oracle
module Registry = Cffs_obs.Registry

type op =
  | Submit of Request.kind * int * int  (* kind, lba, sectors *)
  | Take of int  (* current cylinder *)
  | Set_policy of Scheduler.policy
  | Set_coalesce of bool
  | Set_depth of int

let st31200 = Drive.geometry (Drive.create Profile.seagate_st31200)

let pp_op = function
  | Submit (k, lba, n) ->
      Printf.sprintf "%s %d+%d" (if k = Request.Read then "R" else "W") lba n
  | Take c -> Printf.sprintf "take@%d" c
  | Set_policy p -> Scheduler.policy_name p
  | Set_coalesce c -> Printf.sprintf "coalesce=%b" c
  | Set_depth d -> Printf.sprintf "depth=%d" d

let depth_gen =
  QCheck.Gen.(frequency [ (1, return 1); (2, int_range 2 16); (1, return max_int) ])

let policy_gen = QCheck.Gen.oneofl policies

(* Every request lies in a 56-sector span (one per cylinder band when a
   geometry is in play); half are block-aligned 4 KB multiples so that
   adjacency, and therefore coalescing, is common. *)
let op_gen ~geom =
  let open QCheck.Gen in
  let band = if geom then map (fun b -> b * 960) (int_bound 3) else return 0 in
  let submit =
    map3
      (fun kind base (lba, n) -> Submit (kind, base + lba, n))
      (oneofl [ Request.Read; Request.Write ])
      band
      (oneof
         [
           map2 (fun b n -> (8 * b, 8 * n)) (int_bound 5) (int_range 1 2);
           pair (int_bound 40) (int_range 1 12);
         ])
  in
  frequency
    [
      (10, submit);
      (5, map (fun c -> Take c) (if geom then int_bound 4 else int_bound 60));
      (1, map (fun p -> Set_policy p) policy_gen);
      (1, map (fun c -> Set_coalesce c) bool);
      (1, map (fun d -> Set_depth d) depth_gen);
    ]

let case_gen =
  let open QCheck.Gen in
  bool >>= fun geom ->
  map2
    (fun cfg ops -> (geom, cfg, ops))
    (triple policy_gen bool depth_gen)
    (list_size (int_range 1 80) (op_gen ~geom))

let print_case (geom, (policy, coalesce, depth), ops) =
  Printf.sprintf "geom=%b policy=%s coalesce=%b depth=%d ops=[%s]" geom
    (Scheduler.policy_name policy) coalesce depth
    (String.concat "; " (List.map pp_op ops))

let counters =
  List.map Registry.counter
    [ "ioqueue.submitted"; "ioqueue.dispatched"; "ioqueue.coalesced"; "ioqueue.sweeps" ]

let counts () = List.map Registry.counter_value counters

(* Run [f] and return its result with the counter increments it made. *)
let counted f =
  let before = counts () in
  let r = f () in
  (r, List.map2 ( - ) (counts ()) before)

let prop_matches_oracle (geom, (policy, coalesce, depth), ops) =
  let geom = if geom then Some st31200 else None in
  let q : unit Ioqueue.t = Ioqueue.create ~depth ~policy ~coalesce () in
  let o : unit Oracle.t = Oracle.create ~depth ~policy ~coalesce () in
  let step what fq fo =
    let rq, cq = counted fq and ro, co = counted fo in
    if rq <> ro then QCheck.Test.fail_reportf "%s: queue %s, oracle %s" what rq ro;
    if cq <> co then QCheck.Test.fail_reportf "%s: counter increments differ" what;
    if Ioqueue.pending q <> Oracle.pending o then
      QCheck.Test.fail_reportf "%s: pending %d vs %d" what (Ioqueue.pending q)
        (Oracle.pending o)
  in
  let show tags = function
    | None -> "none"
    | Some g -> String.concat "," (List.map string_of_int (tags g))
  in
  let qtags = List.map (fun (it : unit Ioqueue.item) -> it.Ioqueue.tag)
  and otags = List.map (fun (it : unit Oracle.item) -> it.Oracle.tag) in
  let take cyl =
    let g = ref None in
    step (Printf.sprintf "take@%d" cyl)
      (fun () ->
        let r = Ioqueue.take q ~geom ~current_cyl:cyl in
        g := Option.map (fun grp -> (List.hd grp : unit Ioqueue.item).Ioqueue.req) r;
        show qtags r)
      (fun () -> show otags (Oracle.take o ~geom ~current_cyl:cyl));
    !g
  in
  List.iter
    (fun op ->
      match op with
      | Submit (kind, lba, sectors) ->
          let req = { Request.lba; sectors; kind } in
          step (pp_op op)
            (fun () -> string_of_int (Ioqueue.submit q req () ~now:0.0))
            (fun () -> string_of_int (Oracle.submit o req () ~now:0.0))
      | Take cyl -> ignore (take cyl)
      | Set_policy p ->
          Ioqueue.set_policy q p;
          Oracle.set_policy o p
      | Set_coalesce c ->
          Ioqueue.set_coalesce q c;
          Oracle.set_coalesce o c
      | Set_depth d ->
          Ioqueue.set_depth q d;
          Oracle.set_depth o d)
    ops;
  (* drain the rest with the drain loop's head convention *)
  let rec drain cyl =
    match take cyl with
    | None -> ()
    | Some r -> drain (match geom with Some g -> Geometry.cyl_of_lba g r.Request.lba | None -> r.Request.lba)
  in
  drain 0;
  Ioqueue.is_empty q && Oracle.is_empty o

let qcheck_matches_oracle =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 1997 |])
    (QCheck.Test.make ~count:3000
       ~name:"same groups, pending and counters as the list oracle"
       (QCheck.make ~print:print_case case_gen)
       prop_matches_oracle)

(* ------------------------------------------------------------------ *)
(* Retention: a dispatched request's payload must not stay reachable from
   the queue.  500 writes whose buffers are tracked by a weak array are
   drained under a coalescing C-LOOK window with overlaps; once the caller
   drops them, a full major collection must free every buffer while the
   queue itself is still alive. *)

let[@inline never] submit_tracked q weak =
  let prng = Prng.create 11 in
  for i = 0 to Weak.length weak - 1 do
    let buf = Bytes.make 64 'w' in
    Weak.set weak i (Some buf);
    let lba = 8 * Prng.int prng 300 in
    ignore (Ioqueue.submit q (Request.write ~lba ~sectors:(8 * (1 + (i mod 2)))) buf ~now:0.0)
  done

let[@inline never] drain_dropping q =
  let rec go cyl n =
    match Ioqueue.take q ~geom:None ~current_cyl:cyl with
    | None -> n
    | Some group ->
        go (List.hd group).Ioqueue.req.Request.lba (n + List.length group)
  in
  go 0 0

let test_no_retention () =
  let weak = Weak.create 500 in
  let q : Bytes.t Ioqueue.t = Ioqueue.create ~policy:Scheduler.Clook ~coalesce:true () in
  submit_tracked q weak;
  check Alcotest.int "all dispatched" 500 (drain_dropping q);
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to Weak.length weak - 1 do
    if Weak.check weak i then incr live
  done;
  check Alcotest.int "payloads still reachable" 0 !live;
  check Alcotest.bool "queue alive and empty" true (Ioqueue.is_empty (Sys.opaque_identity q))

(* ------------------------------------------------------------------ *)
(* Bounded time: a deep window drains in O(n log n).  32 000 shuffled,
   non-overlapping 4 KB writes in one unbounded window, under FCFS and
   under C-LOOK; each drain must finish within 2 s of CPU time (the list
   implementation needs hours). *)

let test_deep_drain policy () =
  let n = 32_000 in
  let blocks = Array.init n (fun i -> i) in
  Prng.shuffle (Prng.create 5) blocks;
  let q : unit Ioqueue.t = Ioqueue.create ~policy () in
  let t0 = Sys.time () in
  Array.iter
    (fun b -> ignore (Ioqueue.submit q (Request.write ~lba:(8 * b) ~sectors:8) () ~now:0.0))
    blocks;
  let rec go cyl k =
    match Ioqueue.take q ~geom:None ~current_cyl:cyl with
    | None -> k
    | Some group -> go (List.hd group).Ioqueue.req.Request.lba (k + List.length group)
  in
  let served = go 0 0 in
  let dt = Sys.time () -. t0 in
  check Alcotest.int "all dispatched" n served;
  check Alcotest.bool (Printf.sprintf "drain took %.2f s, budget 2 s" dt) true (dt < 2.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ioqueue"
    [
      ( "properties",
        [
          qcheck_exactly_once;
          Alcotest.test_case "bounded starvation" `Quick test_starvation_bound;
          qcheck_policy_equivalent;
          qcheck_overlap_order;
          qcheck_matches_oracle;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "dispatched payloads are not retained" `Quick
            test_no_retention;
          Alcotest.test_case "32000-request drain, FCFS" `Quick
            (test_deep_drain Scheduler.Fcfs);
          Alcotest.test_case "32000-request drain, C-LOOK" `Quick
            (test_deep_drain Scheduler.Clook);
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
          Alcotest.test_case "fault in coalesced group" `Quick
            test_fault_in_coalesced_group;
          Alcotest.test_case "reset_queue teardown" `Quick
            test_reset_queue_teardown;
          Alcotest.test_case "pinned buffers survive teardown" `Quick
            test_pinned_survive_teardown;
        ] );
    ]
