module Cache = Cffs_cache.Cache
module Codec = Cffs_util.Codec
module Bitmap = Cffs_util.Bitmap
module Inode = Cffs_vfs.Inode
module Bmap = Cffs_vfs.Bmap
module Layout = Ffs.Layout
module Dirent = Ffs.Dirent

(* Everything one walk of the namespace learns. *)
type survey = {
  refs : (int, int) Hashtbl.t;
  inodes : (int, Inode.t) Hashtbl.t;
  used : (int, int) Hashtbl.t; (* block -> first owner *)
  mutable dangling : (int * string * int) list;
  mutable dups : (int * int) list; (* blk, ino *)
  mutable out_of_range : (int * int) list; (* ino, blk *)
  mutable bad_dir_blocks : (int * int) list;
  mutable files : int;
  mutable dirs : int;
}

let block_in_data_area sb blk =
  let total = 1 + (sb.Layout.cg_count * sb.Layout.cg_size) in
  if blk < 1 || blk >= total then false
  else begin
    let cg = Layout.cg_of_block sb blk in
    let rel = blk - Layout.cg_start sb cg in
    rel > sb.Layout.itable_blocks
  end

let note_blocks t sb survey ~ino inode =
  let mark blk =
    if not (block_in_data_area sb blk) then
      survey.out_of_range <- (ino, blk) :: survey.out_of_range
    else if Hashtbl.mem survey.used blk then survey.dups <- (blk, ino) :: survey.dups
    else Hashtbl.replace survey.used blk ino
  in
  Bmap.iter (Ffs.cache t) inode ~data:mark ~meta:mark

let rec walk_dir t sb survey ~dir dinode =
  let cache = Ffs.cache t in
  let bsz = sb.Layout.block_size in
  let nblocks = (dinode.Inode.size + bsz - 1) / bsz in
  for lblk = 0 to nblocks - 1 do
    match Bmap.read cache dinode lblk with
    | Error _ -> survey.bad_dir_blocks <- (dir, lblk) :: survey.bad_dir_blocks
    | Ok None -> ()
    | Ok (Some p) ->
        let b = Cache.read cache p in
        Dirent.iter b (fun ~off:_ ~ino name -> visit t sb survey ~dir ~name ino)
  done

and visit t sb survey ~dir ~name ino =
  if not (Layout.valid_ino sb ino) then
    survey.dangling <- (dir, name, ino) :: survey.dangling
  else begin
    match Hashtbl.find_opt survey.refs ino with
    | Some n -> Hashtbl.replace survey.refs ino (n + 1)
    | None -> begin
        match Ffs.read_inode t ino with
        | Error _ -> survey.dangling <- (dir, name, ino) :: survey.dangling
        | Ok inode ->
            Hashtbl.replace survey.refs ino 1;
            Hashtbl.replace survey.inodes ino inode;
            note_blocks t sb survey ~ino inode;
            (match inode.Inode.kind with
            | Inode.Directory ->
                survey.dirs <- survey.dirs + 1;
                if name <> "." && name <> ".." then walk_dir t sb survey ~dir:ino inode
            | Inode.Regular -> survey.files <- survey.files + 1
            | Inode.Free ->
                survey.dangling <- (dir, name, ino) :: survey.dangling)
      end
  end

let run_survey t =
  let sb = Ffs.superblock t in
  let survey =
    {
      refs = Hashtbl.create 1024;
      inodes = Hashtbl.create 1024;
      used = Hashtbl.create 4096;
      dangling = [];
      dups = [];
      out_of_range = [];
      bad_dir_blocks = [];
      files = 0;
      dirs = 0;
    }
  in
  (* Seed the root without a reference: its own ".." entry plays the role
     of the missing parent link, so reference counting still comes out as
     nlink = 2 + subdirectories. *)
  (match Ffs.read_inode t (Ffs.root t) with
  | Error _ -> ()
  | Ok inode ->
      Hashtbl.replace survey.refs (Ffs.root t) 0;
      Hashtbl.replace survey.inodes (Ffs.root t) inode;
      note_blocks t sb survey ~ino:(Ffs.root t) inode;
      survey.dirs <- 1;
      walk_dir t sb survey ~dir:(Ffs.root t) inode);
  survey

(* Compare the on-disk bitmaps against what the walk found. *)
let bitmap_problems t survey =
  let sb = Ffs.superblock t in
  let cache = Ffs.cache t in
  let problems = ref [] in
  let orphans = ref [] in
  for cg = 0 to sb.Layout.cg_count - 1 do
    let hdr = Cache.read cache (Layout.cg_start sb cg) in
    (* Inode bitmap and orphan detection: read every slot of the table. *)
    let found_free_inodes =
      Bitmap.count_clear hdr Layout.hdr_inode_bitmap_off ~off:0 ~len:sb.Layout.inodes_per_cg
    in
    let expected_free_inodes = ref 0 in
    for idx = 0 to sb.Layout.inodes_per_cg - 1 do
      let ino = (cg * sb.Layout.inodes_per_cg) + idx in
      let reserved = ino < 2 in
      let referenced = Hashtbl.mem survey.refs ino in
      if referenced || reserved then ()
      else begin
        let blk, off = Layout.ino_location sb ino in
        let inode = Inode.decode (Cache.read cache blk) off in
        if inode.Inode.kind <> Inode.Free then
          orphans := (ino, inode.Inode.kind) :: !orphans
        else incr expected_free_inodes
      end
    done;
    if found_free_inodes <> !expected_free_inodes then
      problems :=
        Report.Inode_bitmap_mismatch
          { cg; expected_free = !expected_free_inodes; found_free = found_free_inodes }
        :: !problems;
    (* Block bitmap. *)
    let found_free =
      Bitmap.count_clear hdr (Layout.hdr_block_bitmap_off sb) ~off:0 ~len:sb.Layout.cg_size
    in
    let expected_free = ref 0 in
    for rel = 0 to sb.Layout.cg_size - 1 do
      let blk = Layout.cg_start sb cg + rel in
      let is_meta = rel <= sb.Layout.itable_blocks in
      if (not is_meta) && not (Hashtbl.mem survey.used blk) then incr expected_free
    done;
    if found_free <> !expected_free then
      problems :=
        Report.Block_bitmap_mismatch
          { cg; expected_free = !expected_free; found_free }
        :: !problems
  done;
  (!problems, !orphans)

(* Expected link count: every directory entry referencing the inode, with
   the root's synthetic parent ref already seeded by the walk. *)
let nlink_problems survey =
  Hashtbl.fold
    (fun ino inode acc ->
      let expected = Hashtbl.find survey.refs ino in
      if inode.Inode.nlink <> expected then
        Report.Wrong_nlink { ino; expected; found = inode.Inode.nlink } :: acc
      else acc)
    survey.inodes []

let build_report t ~repaired =
  match Layout.decode_sb (Cache.read (Ffs.cache t) 0) with
  | None ->
      {
        Report.problems = [ Report.Bad_superblock ];
        files = 0;
        dirs = 0;
        data_blocks = 0;
        repaired;
      }
  | Some _ ->
      let survey = run_survey t in
      let bitmap_probs, orphans = bitmap_problems t survey in
      let problems =
        List.map
          (fun (dir, name, ino) -> Report.Dangling_entry { dir; name; ino })
          survey.dangling
        @ List.map (fun (ino, kind) -> Report.Orphan_inode { ino; kind }) orphans
        @ List.map (fun (blk, ino) -> Report.Block_multiply_used { blk; ino }) survey.dups
        @ List.map (fun (ino, blk) -> Report.Block_out_of_range { ino; blk })
            survey.out_of_range
        @ List.map (fun (dir, lblk) -> Report.Bad_directory_block { dir; lblk })
            survey.bad_dir_blocks
        @ nlink_problems survey
        @ bitmap_probs
      in
      {
        Report.problems;
        files = survey.files;
        dirs = survey.dirs;
        data_blocks = Hashtbl.length survey.used;
        repaired;
      }

let check t = build_report t ~repaired:0

(* ------------------------------------------------------------------ *)
(* Repair. *)

let remove_dangling t ~dir ~name =
  let sb = Ffs.superblock t in
  let cache = Ffs.cache t in
  match Ffs.read_inode t dir with
  | Error _ -> ()
  | Ok dinode ->
      let bsz = sb.Layout.block_size in
      let nblocks = (dinode.Inode.size + bsz - 1) / bsz in
      let rec loop lblk =
        if lblk >= nblocks then ()
        else begin
          match Bmap.read cache dinode lblk with
          | Ok (Some p) ->
              let b = Cache.read cache p in
              if Dirent.remove b name <> None then Cache.write cache ~kind:`Meta p b
              else loop (lblk + 1)
          | Ok None | Error _ -> loop (lblk + 1)
        end
      in
      loop 0

let clear_inode t ino =
  let sb = Ffs.superblock t in
  let cache = Ffs.cache t in
  let blk, off = Layout.ino_location sb ino in
  let b = Cache.read cache blk in
  let old = Inode.decode b off in
  let cleared = Inode.empty () in
  cleared.Inode.generation <- old.Inode.generation + 1;
  Inode.encode cleared b off;
  Cache.write cache ~kind:`Meta blk b

let attach_lost_found t ino =
  (match Ffs.resolve t "/lost+found" with
  | Ok _ -> ()
  | Error _ -> ignore (Ffs.mkdir t "/lost+found"));
  match Ffs.resolve t "/lost+found" with
  | Error _ -> ()
  | Ok dir -> begin
      let name = Printf.sprintf "ino%06d" ino in
      match Ffs.hardlink t ~dir name ~ino with Ok () | Error _ -> ()
    end

(* A doubly-claimed or out-of-range block: punch the pointer out of the
   claimant recorded in the problem (the later one, for duplicates), leaving
   a hole; the bitmap rebuild then settles ownership on the survivor. *)
let punch_block t ~ino ~blk =
  let sb = Ffs.superblock t in
  let cache = Ffs.cache t in
  if Layout.valid_ino sb ino then begin
    let iblk, off = Layout.ino_location sb ino in
    let b = Cache.read cache iblk in
    let di = Inode.decode b off in
    if Bmap.punch cache di ~target:blk then begin
      Inode.encode di b off;
      Cache.write cache ~kind:`Meta iblk b
    end
  end

(* Recompute both bitmaps and the free counts of every group from a fresh
   survey, and write corrected inode link counts. *)
let rebuild_metadata t =
  let sb = Ffs.superblock t in
  let cache = Ffs.cache t in
  let survey = run_survey t in
  (* Link counts. *)
  Hashtbl.iter
    (fun ino inode ->
      let expected = Hashtbl.find survey.refs ino in
      if inode.Inode.nlink <> expected then begin
        let blk, off = Layout.ino_location sb ino in
        let b = Cache.read cache blk in
        let di = Inode.decode b off in
        di.Inode.nlink <- expected;
        Inode.encode di b off;
        Cache.write cache ~kind:`Meta blk b
      end)
    survey.inodes;
  (* Bitmaps. *)
  for cg = 0 to sb.Layout.cg_count - 1 do
    let hdr = Cache.read cache (Layout.cg_start sb cg) in
    let ibm_off = Layout.hdr_inode_bitmap_off in
    let bbm_off = Layout.hdr_block_bitmap_off sb in
    let free_inodes = ref 0 and free_blocks = ref 0 in
    Codec.zero hdr ibm_off ((sb.Layout.inodes_per_cg + 7) / 8);
    Codec.zero hdr bbm_off ((sb.Layout.cg_size + 7) / 8);
    for idx = 0 to sb.Layout.inodes_per_cg - 1 do
      let ino = (cg * sb.Layout.inodes_per_cg) + idx in
      if ino < 2 || Hashtbl.mem survey.refs ino then Bitmap.set hdr ibm_off idx
      else incr free_inodes
    done;
    for rel = 0 to sb.Layout.cg_size - 1 do
      let blk = Layout.cg_start sb cg + rel in
      if rel <= sb.Layout.itable_blocks || Hashtbl.mem survey.used blk then
        Bitmap.set hdr bbm_off rel
      else incr free_blocks
    done;
    Codec.set_u32 hdr Layout.hdr_free_blocks_off !free_blocks;
    Codec.set_u32 hdr Layout.hdr_free_inodes_off !free_inodes;
    Cache.write cache ~kind:`Meta (Layout.cg_start sb cg) hdr
  done

let repair t =
  let before = check t in
  (* An already-clean volume needs no repair writes at all: hand back the
     fresh report as-is, which also makes repair idempotent (a second run
     reports zero repairs). *)
  if Report.is_clean before then before
  else begin
    List.iter
      (fun p ->
        match p with
        | Report.Dangling_entry { dir; name; _ } -> remove_dangling t ~dir ~name
        | Report.Orphan_inode { ino; kind = Cffs_vfs.Inode.Regular } ->
            attach_lost_found t ino
        | Report.Orphan_inode { ino; _ } -> clear_inode t ino
        | Report.Block_multiply_used { blk; ino } -> punch_block t ~ino ~blk
        | Report.Block_out_of_range { ino; blk } -> punch_block t ~ino ~blk
        | Report.Bad_superblock | Report.Wrong_nlink _
        | Report.Block_bitmap_mismatch _ | Report.Inode_bitmap_mismatch _
        | Report.Bad_directory_block _ -> ())
      before.Report.problems;
    rebuild_metadata t;
    Ffs.sync t;
    let after = check t in
    { after with Report.repaired = max 0 (Report.count before - Report.count after) }
  end
