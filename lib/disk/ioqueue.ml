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
     [2 * depth] window passes.

   Indexes.  Every queued request is one [entry] record that carries all
   of its links, so a take costs O(log n) and allocates only its result:
   - a doubly linked list in submission order, window first and arrivals
     after it (promotion is FIFO, so the window is always a prefix);
   - [by_lba]: every window entry, in (lba, seq) order — the overlap scan
     at promotion and the coalescing scan walk it;
   - [ready]: the sweep members that nothing holds back, in (lba, seq)
     order — C-LOOK and SSTF search it;
   - per entry, the number of earlier window entries it must wait for
     and the list of later ones it holds back.  A promoted entry has the
     largest seq in the window, so it can only go from blocked to
     unblocked, never back.
   Both ordered indexes are treaps whose nodes live inside the entry.
   None depends on the policy, the geometry or coalescing, which may all
   change while requests are queued.  No index keeps a reference to a
   dispatched entry: its payload (a write buffer) must be collectable as
   soon as its caller lets go. *)

type tag = int

type 'a item = {
  tag : tag;
  req : Request.t;
  payload : 'a;
  seq : int;
  submitted_at : float;
}

type 'a entry = {
  item : 'a item;
  prio : int;  (* treap priority, a hash of seq *)
  mutable me : 'a entry option;  (* [Some] of itself, made once, for links *)
  mutable prev : 'a entry option;  (* submission order *)
  mutable next : 'a entry option;
  mutable blockers : int;  (* earlier window entries that must precede it *)
  mutable blocks : 'a entry list;  (* later window entries it holds back *)
  mutable in_sweep : bool;
  mutable mark : bool;  (* scratch while a dispatch group is gathered *)
  mutable wl : 'a entry option;  (* children in [by_lba] *)
  mutable wr : 'a entry option;
  mutable rl : 'a entry option;  (* children in [ready] *)
  mutable rr : 'a entry option;
}

type 'a t = {
  mutable depth : int;
  mutable policy : Scheduler.policy;
  mutable coalesce : bool;
  mutable next_tag : int;
  mutable next_seq : int;
  mutable oldest : 'a entry option;
  mutable newest : 'a entry option;
  mutable arrivals : 'a entry option;  (* first entry not yet promoted *)
  mutable queued : int;  (* arrivals plus window *)
  mutable in_window : int;
  mutable sweep_left : int;  (* live sweep members not yet dispatched *)
  mutable max_sectors : int;  (* bound on window request length *)
  mutable by_lba : 'a entry option;
  mutable ready : 'a entry option;
}

let m_submitted = Cffs_obs.Registry.counter "ioqueue.submitted"
let m_dispatched = Cffs_obs.Registry.counter "ioqueue.dispatched"
let m_coalesced = Cffs_obs.Registry.counter "ioqueue.coalesced"
let m_sweeps = Cffs_obs.Registry.counter "ioqueue.sweeps"
let g_pending = Cffs_obs.Registry.gauge "ioqueue.pending"
let h_depth = Cffs_obs.Registry.histogram "ioqueue.depth"

(* ---- Treaps: (lba, seq) order, max-heap on [prio] ---- *)

(* Which of an entry's two link pairs a treap uses. *)
type side = Win | Ready

let left s e = match s with Win -> e.wl | Ready -> e.rl
let right s e = match s with Win -> e.wr | Ready -> e.rr
let set_left s e v = match s with Win -> e.wl <- v | Ready -> e.rl <- v
let set_right s e v = match s with Win -> e.wr <- v | Ready -> e.rr <- v

let lba (e : 'a entry) = e.item.req.Request.lba
let end_of (e : 'a entry) = e.item.req.Request.lba + e.item.req.Request.sectors

let before a b =
  let la = lba a and lb = lba b in
  la < lb || (la = lb && a.item.seq < b.item.seq)

(* Child-link stores go through the write barrier, so [insert] and
   [remove] store only the links that change. *)
let rec insert s root e =
  match root with
  | None -> e.me
  | Some m ->
      if before e m then begin
        let sub = insert s (left s m) e in
        match sub with
        | Some c when c.prio > m.prio ->
            set_left s m (right s c);
            set_right s c root;
            sub
        | _ ->
            if sub != left s m then set_left s m sub;
            root
      end
      else begin
        let sub = insert s (right s m) e in
        match sub with
        | Some c when c.prio > m.prio ->
            set_right s m (left s c);
            set_left s c root;
            sub
        | _ ->
            if sub != right s m then set_right s m sub;
            root
      end

let rec join s a b =
  match (a, b) with
  | None, t | t, None -> t
  | Some x, Some y ->
      if x.prio > y.prio then begin
        set_right s x (join s (right s x) b);
        a
      end
      else begin
        set_left s y (join s a (left s y));
        b
      end

(* The removed entry keeps its own links: nothing in the queue points
   at it any more, and it is never inserted again. *)
let rec remove s root e =
  match root with
  | None -> None
  | Some m when m == e -> join s (left s e) (right s e)
  | Some m ->
      if before e m then begin
        let sub = remove s (left s m) e in
        if sub != left s m then set_left s m sub
      end
      else begin
        let sub = remove s (right s m) e in
        if sub != right s m then set_right s m sub
      end;
      root

(* The ready treap's first entry. *)
let rec leftmost = function
  | Some { rl = Some _ as l; _ } -> leftmost l
  | t -> t

(* Cylinder of a request's first lba; identity when no geometry is known
   (a memory device), which degrades C-LOOK to an ascending-lba elevator.
   Monotone in lba, so "cylinder >= c" splits (lba, seq) order in two. *)
let cyl_of geom lba =
  match geom with Some g -> Geometry.cyl_of_lba g lba | None -> lba

(* The ready treap's first entry whose cylinder is >= [cyl], or [best]. *)
let rec first_from geom cyl root best =
  match root with
  | None -> best
  | Some e ->
      if cyl_of geom (lba e) >= cyl then first_from geom cyl e.rl root
      else first_from geom cyl e.rr best

(* Its last entry whose cylinder is < [cyl], or [best]. *)
let rec last_below geom cyl root best =
  match root with
  | None -> best
  | Some e ->
      if cyl_of geom (lba e) < cyl then last_below geom cyl e.rr root
      else last_below geom cyl e.rl best

(* Its lowest-seq entry on cylinder [cyl], or [best]: visits that
   cylinder's entries and one path on either side of them. *)
let rec oldest_on geom cyl root best =
  match root with
  | None -> best
  | Some e ->
      let c = cyl_of geom (lba e) in
      let best = if c >= cyl then oldest_on geom cyl e.rl best else best in
      let best =
        match best with
        | Some b when c = cyl && e.item.seq < b.item.seq -> root
        | None when c = cyl -> root
        | _ -> best
      in
      if c <= cyl then oldest_on geom cyl e.rr best else best

(* ---- Queue ---- *)

let create ?(depth = max_int) ?(policy = Scheduler.Fcfs) ?(coalesce = false) () =
  if depth < 1 then invalid_arg "Ioqueue.create: depth";
  {
    depth;
    policy;
    coalesce;
    next_tag = 1;
    next_seq = 0;
    oldest = None;
    newest = None;
    arrivals = None;
    queued = 0;
    in_window = 0;
    sweep_left = 0;
    max_sectors = 0;
    by_lba = None;
    ready = None;
  }

let depth t = t.depth
let policy t = t.policy
let coalesce t = t.coalesce
let set_depth t d = if d < 1 then invalid_arg "Ioqueue.set_depth" else t.depth <- d
let set_policy t p = t.policy <- p
let set_coalesce t c = t.coalesce <- c
let pending t = t.queued
let is_empty t = t.queued = 0

(* A splitmix-style mix of seq: treap priorities that look random
   whatever order requests arrive in. *)
let prio_of seq =
  let x = (seq lxor (seq lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let entry item =
  let e =
    {
      item;
      prio = prio_of item.seq;
      me = None;
      prev = None;
      next = None;
      blockers = 0;
      blocks = [];
      in_sweep = false;
      mark = false;
      wl = None;
      wr = None;
      rl = None;
      rr = None;
    }
  in
  e.me <- Some e;
  e

let submit t req payload ~now =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let e = entry { tag; req; payload; seq = t.next_seq; submitted_at = now } in
  t.next_seq <- t.next_seq + 1;
  (match t.newest with
  | None -> t.oldest <- e.me
  | Some n ->
      n.next <- e.me;
      e.prev <- t.newest);
  t.newest <- e.me;
  if Option.is_none t.arrivals then t.arrivals <- e.me;
  t.queued <- t.queued + 1;
  Cffs_obs.Registry.incr m_submitted;
  Cffs_obs.Registry.set g_pending (float_of_int t.queued);
  tag

(* [a] (earlier, in the window) must be dispatched before [b]: ranges
   overlap and at least one of the two is a write. *)
let must_precede (a : 'a entry) (b : 'a entry) =
  (a.item.req.Request.kind = Request.Write || b.item.req.Request.kind = Request.Write)
  && Request.overlaps a.item.req b.item.req

(* Record every window entry with lba in [lo, hi] that must precede [x]. *)
let rec add_blockers x lo hi root =
  match root with
  | None -> ()
  | Some e ->
      let l = lba e in
      if l >= lo then add_blockers x lo hi e.wl;
      if l >= lo && l <= hi && must_precede e x then begin
        x.blockers <- x.blockers + 1;
        e.blocks <- x :: e.blocks
      end;
      if l <= hi then add_blockers x lo hi e.wr

let rec refill t =
  match t.arrivals with
  | Some e when t.in_window < t.depth ->
      t.arrivals <- e.next;
      t.in_window <- t.in_window + 1;
      let r = e.item.req in
      t.max_sectors <- max t.max_sectors r.Request.sectors;
      (* any window entry overlapping [r] starts no more than
         [max_sectors - 1] sectors before it *)
      add_blockers e (r.Request.lba - t.max_sectors + 1) (Request.last_lba r) t.by_lba;
      t.by_lba <- insert Win t.by_lba e;
      refill t
  | _ -> ()

(* Make the first [n] entries from [e] on, the whole window, the sweep. *)
let rec freeze t n = function
  | Some e when n > 0 ->
      e.in_sweep <- true;
      if e.blockers = 0 then t.ready <- insert Ready t.ready e;
      freeze t (n - 1) e.next
  | _ -> ()

(* SSTF's candidate on one side: the oldest request on [side]'s cylinder. *)
let oldest_beside geom ready = function
  | Some e -> oldest_on geom (cyl_of geom (lba e)) ready None
  | None -> None

let choose t ~geom ~current_cyl =
  let ready = t.ready in
  match t.policy with
  | Scheduler.Fcfs ->
      (* the oldest window entry: a sweep member (everything promoted
         after the freeze is younger) and blocked by nothing older *)
      Option.get t.oldest
  | Scheduler.Clook -> (
      match first_from geom current_cyl ready None with
      | Some e -> e
      | None -> Option.get (leftmost ready))
  | Scheduler.Sstf -> (
      (* nearest cylinder on each side, oldest request within it; a tie
         on distance goes to the older request *)
      let ahead = oldest_beside geom ready (first_from geom current_cyl ready None)
      and behind = oldest_beside geom ready (last_below geom current_cyl ready None) in
      match (ahead, behind) with
      | Some a, Some b ->
          let da = cyl_of geom (lba a) - current_cyl
          and db = current_cyl - cyl_of geom (lba b) in
          if da < db || (da = db && a.item.seq < b.item.seq) then a else b
      | Some e, None | None, Some e -> e
      | None, None -> assert false)

(* Coalescing candidates: unblocked same-kind window entries (sweep or
   not) that start at [e]'s end or end at its start.  Found entries are
   marked, so each is added once. *)
let joinable kind (e : 'a entry) =
  (not e.mark) && e.blockers = 0 && e.item.req.Request.kind = kind

(* Collect the joinable entries with lba in [lo, hi] that start or end
   at [pos]. *)
let rec touching kind lo hi pos root acc =
  match root with
  | None -> acc
  | Some e ->
      let l = lba e in
      let acc = if l >= lo then touching kind lo hi pos e.wl acc else acc in
      let acc =
        if l >= lo && l <= hi && (l = pos || end_of e = pos) && joinable kind e
        then begin
          e.mark <- true;
          e :: acc
        end
        else acc
      in
      if l <= hi then touching kind lo hi pos e.wr acc else acc

(* Every entry a group grown from a [kind] request could ever absorb:
   the closure over "starts at a reachable end" ([rights] still to
   explore) and "ends at a reachable start" ([lefts]). *)
let rec reachable t kind rights lefts acc =
  match (rights, lefts) with
  | e :: rights, _ ->
      let pos = end_of e in
      let found = touching kind pos pos pos t.by_lba [] in
      reachable t kind (List.rev_append found rights) lefts (List.rev_append found acc)
  | [], e :: lefts ->
      let pos = lba e in
      let found = touching kind (pos - t.max_sectors) (pos - 1) pos t.by_lba [] in
      reachable t kind rights (List.rev_append found lefts) (List.rev_append found acc)
  | [], [] -> acc

(* Grow a dispatch group from [chosen] by absorbing eligible window
   entries physically adjacent to the group's range, same kind only, so
   the merged range is one contiguous request.  Repeated passes over the
   candidates in submission order, as when every eligible window entry
   was scanned: when duplicate or overlapping reads compete for one
   boundary, the pass order decides which joins. *)
let absorb t chosen =
  chosen.mark <- true;
  match reachable t chosen.item.req.Request.kind [ chosen ] [ chosen ] [] with
  | [] ->
      chosen.mark <- false;
      [ chosen ]
  | found ->
      let cands = List.sort (fun a b -> compare a.item.seq b.item.seq) found in
      (* a candidate still [mark]ed has not joined yet *)
      let rec pass lo hi progress group = function
        | [] -> if progress then pass lo hi false group cands else group
        | e :: rest ->
            let r = e.item.req in
            if e.mark && (r.Request.lba + r.Request.sectors = lo || r.Request.lba = hi)
            then begin
              e.mark <- false;
              Cffs_obs.Registry.incr m_coalesced;
              pass (min lo r.Request.lba)
                (max hi (r.Request.lba + r.Request.sectors))
                true (e :: group) rest
            end
            else pass lo hi progress group rest
      in
      let group = pass (lba chosen) (end_of chosen) false [ chosen ] cands in
      chosen.mark <- false;
      List.iter (fun e -> e.mark <- false) cands;
      List.sort (fun a b -> compare (lba a) (lba b)) group

let rec release t = function
  | [] -> ()
  | b :: rest ->
      b.blockers <- b.blockers - 1;
      if b.blockers = 0 && b.in_sweep then t.ready <- insert Ready t.ready b;
      release t rest

(* Take a dispatched entry out of every index and drop every reference to
   it from the queue. *)
let dispatch t e =
  t.by_lba <- remove Win t.by_lba e;
  if e.in_sweep then begin
    t.ready <- remove Ready t.ready e;
    t.sweep_left <- t.sweep_left - 1
  end;
  (match e.prev with None -> t.oldest <- e.next | Some p -> p.next <- e.next);
  (match e.next with None -> t.newest <- e.prev | Some n -> n.prev <- e.prev);
  release t e.blocks;
  t.queued <- t.queued - 1;
  t.in_window <- t.in_window - 1;
  if t.in_window = 0 then t.max_sectors <- 0

let rec dispatch_all t = function
  | [] -> []
  | e :: rest ->
      dispatch t e;
      e.item :: dispatch_all t rest

let take t ~geom ~current_cyl =
  refill t;
  if t.in_window = 0 then None
  else begin
    Cffs_obs.Registry.observe h_depth (float_of_int t.queued);
    (* Freeze a new sweep from the whole current window when the
       previous one is exhausted.  The sweep is served to completion in
       policy order; later window entries wait for the next sweep —
       this is what bounds starvation under continuous arrivals. *)
    if t.sweep_left = 0 then begin
      freeze t t.in_window t.oldest;
      t.sweep_left <- t.in_window;
      Cffs_obs.Registry.incr m_sweeps
    end;
    let chosen = choose t ~geom ~current_cyl in
    let group =
      (* Coalescing may absorb eligible entries outside the sweep:
         riding along on an adjacent transfer delays nobody. *)
      if t.coalesce then absorb t chosen else [ chosen ]
    in
    let items = dispatch_all t group in
    Cffs_obs.Registry.incr m_dispatched;
    Cffs_obs.Registry.set g_pending (float_of_int t.queued);
    refill t;
    Some items
  end

let clear t =
  let rec items acc = function
    | Some e -> items (e.item :: acc) e.next
    | None -> List.rev acc
  in
  let rest = items [] t.oldest in
  t.oldest <- None;
  t.newest <- None;
  t.arrivals <- None;
  t.queued <- 0;
  t.in_window <- 0;
  t.sweep_left <- 0;
  t.max_sectors <- 0;
  t.by_lba <- None;
  t.ready <- None;
  Cffs_obs.Registry.set g_pending 0.0;
  rest
