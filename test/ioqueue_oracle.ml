(* Differential oracle for [Cffs_disk.Ioqueue]: the original list-based
   implementation of the tagged command queue, kept verbatim (apart from
   this header and the [open]) so test_ioqueue can check that the indexed
   queue dispatches the same groups in the same order.  It rescans the
   whole window on every take, so it is only fit for small queues. *)

open Cffs_disk

(* Tagged command queue: the sliding-window request model behind the
   asynchronous I/O pipeline.

   Submissions enter an unbounded arrival FIFO and are promoted, still in
   FIFO order, into a window of at most [depth] in-flight (tagged)
   requests — the drive only ever sees, and may only reorder, the window.
   [take] picks the next request to service according to the scheduling
   policy and optionally coalesces physically adjacent same-kind window
   entries into a single dispatch group.

   Two guarantees temper the reordering:

   - Overlap order: a request is never dispatched before an
     earlier-submitted request whose range overlaps it when either of the
     two is a write.  Reads against reads commute; anything involving a
     write does not.

   - Bounded starvation: scheduling is sweep-based (FSCAN / N-step SCAN).
     When no sweep is active the current window is frozen as the sweep
     set and served to completion in policy order; requests promoted into
     the window afterwards wait for the next sweep.  However adversarial
     the arrival pattern, a window entry is dispatched within the
     remainder of the current sweep plus one full sweep — at most
     [2 * depth] window passes. *)

type tag = int

type 'a item = {
  tag : tag;
  req : Request.t;
  payload : 'a;
  seq : int;
  submitted_at : float;
}

type 'a t = {
  mutable depth : int;
  mutable policy : Scheduler.policy;
  mutable coalesce : bool;
  mutable next_tag : int;
  mutable next_seq : int;
  arrival : 'a item Queue.t;
  mutable window : 'a item list;  (* submission order *)
  mutable sweep : 'a item list;  (* frozen subset of the window being served *)
}

let m_submitted = Cffs_obs.Registry.counter "ioqueue.submitted"
let m_dispatched = Cffs_obs.Registry.counter "ioqueue.dispatched"
let m_coalesced = Cffs_obs.Registry.counter "ioqueue.coalesced"
let m_sweeps = Cffs_obs.Registry.counter "ioqueue.sweeps"
let g_pending = Cffs_obs.Registry.gauge "ioqueue.pending"
let h_depth = Cffs_obs.Registry.histogram "ioqueue.depth"

let create ?(depth = max_int) ?(policy = Scheduler.Fcfs) ?(coalesce = false) () =
  if depth < 1 then invalid_arg "Ioqueue.create: depth";
  {
    depth;
    policy;
    coalesce;
    next_tag = 1;
    next_seq = 0;
    arrival = Queue.create ();
    window = [];
    sweep = [];
  }

let depth t = t.depth
let policy t = t.policy
let coalesce t = t.coalesce
let set_depth t d = if d < 1 then invalid_arg "Ioqueue.set_depth" else t.depth <- d
let set_policy t p = t.policy <- p
let set_coalesce t c = t.coalesce <- c
let pending t = Queue.length t.arrival + List.length t.window
let is_empty t = Queue.is_empty t.arrival && t.window = []

let submit t req payload ~now =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let item = { tag; req; payload; seq = t.next_seq; submitted_at = now } in
  t.next_seq <- t.next_seq + 1;
  Queue.add item t.arrival;
  Cffs_obs.Registry.incr m_submitted;
  Cffs_obs.Registry.set g_pending (float_of_int (pending t));
  tag

let refill t =
  let win = ref (List.length t.window) in
  let add = ref [] in
  while !win < t.depth && not (Queue.is_empty t.arrival) do
    add := Queue.pop t.arrival :: !add;
    incr win
  done;
  if !add <> [] then t.window <- t.window @ List.rev !add

(* [a] must be dispatched before [b]: earlier submission, overlapping
   ranges, and at least one of the two is a write. *)
let must_precede (a : 'a item) (b : 'a item) =
  a.seq < b.seq
  && (a.req.Request.kind = Request.Write || b.req.Request.kind = Request.Write)
  && Request.overlaps a.req b.req

let blocked t (it : 'a item) =
  List.exists (fun other -> must_precede other it) t.window

(* Cylinder of a request's first lba; identity when no geometry is known
   (a memory device), which degrades C-LOOK to an ascending-lba elevator. *)
let cyl_of geom lba =
  match geom with Some g -> Geometry.cyl_of_lba g lba | None -> lba

let pick_min f items =
  List.fold_left
    (fun acc it ->
      match acc with Some best when f best <= f it -> acc | _ -> Some it)
    None items

let choose t ~geom ~current_cyl eligible =
  match t.policy with
  | Scheduler.Fcfs -> Option.get (pick_min (fun it -> it.seq) eligible)
  | Scheduler.Clook -> (
      let ahead =
        List.filter
          (fun it -> cyl_of geom it.req.Request.lba >= current_cyl)
          eligible
      in
      let key it = (it.req.Request.lba, it.seq) in
      match pick_min key ahead with
      | Some it -> it
      | None -> Option.get (pick_min key eligible))
  | Scheduler.Sstf ->
      let key it =
        (abs (cyl_of geom it.req.Request.lba - current_cyl), it.seq)
      in
      Option.get (pick_min key eligible)

(* Grow a dispatch group from [chosen] by absorbing eligible window
   entries physically adjacent to the group's range, same kind only, so
   the merged range is one contiguous request.  Only window (tagged)
   entries are visible for merging — arrivals beyond the window are not. *)
let absorb eligible chosen =
  let kind = chosen.req.Request.kind in
  let group = ref [ chosen ] in
  let lo = ref chosen.req.Request.lba in
  let hi = ref (chosen.req.Request.lba + chosen.req.Request.sectors) in
  let in_group it = List.memq it !group in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun it ->
        let r = it.req in
        if
          (not (in_group it))
          && r.Request.kind = kind
          && (r.Request.lba + r.Request.sectors = !lo || r.Request.lba = !hi)
        then begin
          group := it :: !group;
          lo := min !lo r.Request.lba;
          hi := max !hi (r.Request.lba + r.Request.sectors);
          Cffs_obs.Registry.incr m_coalesced;
          progress := true
        end)
      eligible
  done;
  List.sort (fun a b -> compare a.req.Request.lba b.req.Request.lba) !group

let take t ~geom ~current_cyl =
  refill t;
  match t.window with
  | [] -> None
  | window ->
      Cffs_obs.Registry.observe h_depth (float_of_int (pending t));
      (* Freeze a new sweep from the whole current window when the
         previous one is exhausted.  The sweep is served to completion in
         policy order; later window entries wait for the next sweep —
         this is what bounds starvation under continuous arrivals. *)
      if t.sweep = [] then begin
        t.sweep <- window;
        Cffs_obs.Registry.incr m_sweeps
      end;
      let eligible = List.filter (fun it -> not (blocked t it)) window in
      let in_sweep =
        List.filter (fun it -> List.memq it t.sweep) eligible
      in
      (* The oldest sweep member is never blocked (a blocker would have a
         smaller seq, and everything older than the sweep has left). *)
      let chosen = choose t ~geom ~current_cyl in_sweep in
      let group =
        (* Coalescing may absorb eligible entries outside the sweep:
           riding along on an adjacent transfer delays nobody. *)
        if t.coalesce then absorb eligible chosen else [ chosen ]
      in
      t.window <- List.filter (fun it -> not (List.memq it group)) t.window;
      t.sweep <- List.filter (fun it -> not (List.memq it group)) t.sweep;
      Cffs_obs.Registry.incr m_dispatched;
      Cffs_obs.Registry.set g_pending (float_of_int (pending t));
      refill t;
      Some group

let clear t =
  let rest = t.window @ List.of_seq (Queue.to_seq t.arrival) in
  t.window <- [];
  t.sweep <- [];
  Queue.clear t.arrival;
  Cffs_obs.Registry.set g_pending 0.0;
  List.sort (fun a b -> compare a.seq b.seq) rest
