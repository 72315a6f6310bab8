module Cache = Cffs_cache.Cache
module Codec = Cffs_util.Codec
module Bitmap = Cffs_util.Bitmap
module Inode = Cffs_vfs.Inode
module Bmap = Cffs_vfs.Bmap
module Csb = Cffs.Csb
module Cdir = Cffs.Cdir
module Dirent = Ffs.Dirent

type survey = {
  refs : (int, int) Hashtbl.t;
  inodes : (int, Inode.t) Hashtbl.t;
  subdirs : (int, int) Hashtbl.t; (* dir ino -> child-directory count *)
  used : (int, int) Hashtbl.t;
  mutable dangling : (int * string * int) list;
  mutable dups : (int * int) list;
  mutable out_of_range : (int * int) list;
  mutable bad_dir_blocks : (int * int) list;
  mutable files : int;
  mutable dirs : int;
}

let block_in_data_area (sb : Csb.t) blk =
  let total = 1 + Csb.total_blocks sb in
  if blk < 1 || blk >= total then false
  else begin
    let cg = Csb.cg_of_block sb blk in
    blk - Csb.cg_start sb cg > 0
  end

let mark_used sb survey ~ino blk =
  if not (block_in_data_area sb blk) then
    survey.out_of_range <- (ino, blk) :: survey.out_of_range
  else if Hashtbl.mem survey.used blk then survey.dups <- (blk, ino) :: survey.dups
  else Hashtbl.replace survey.used blk ino

let note_blocks t sb survey ~ino inode =
  let mark blk = mark_used sb survey ~ino blk in
  Bmap.iter (Cffs.cache t) inode ~data:mark ~meta:mark

(* Entries of one directory data block, under either on-disk format. *)
let block_entries t ~pblock b =
  if (Cffs.superblock t).Csb.embed_inodes then
    Cdir.fold b ~init:[] ~f:(fun acc e ->
        let ino =
          if e.Cdir.embedded then
            Csb.embed_bit
            + (pblock * Cdir.chunks_per_block ~block_size:(Bytes.length b))
            + e.Cdir.chunk
          else e.Cdir.ext_ino
        in
        (e.Cdir.name, ino) :: acc)
  else Dirent.fold b ~init:[] ~f:(fun acc ~ino name -> (name, ino) :: acc)

let rec walk_dir t sb survey ~dir dinode =
  if Cffs.dir_indexed t dinode then walk_indexed_dir t sb survey ~dir dinode
  else walk_linear_dir t sb survey ~dir dinode

(* An indexed directory's table blocks and leaves are reached through the
   root's hash table, not the inode's block map, so the shared index walk
   both enumerates entries and claims those blocks for the bitmap survey. *)
and walk_indexed_dir t sb survey ~dir dinode =
  let entries = ref [] in
  Cffs.index_walk t dinode
    ~entry:(fun ~pblock b e ->
      let ino =
        if e.Cdir.embedded then
          Csb.embed_bit
          + (pblock * Cdir.chunks_per_block ~block_size:(Bytes.length b))
          + e.Cdir.chunk
        else e.Cdir.ext_ino
      in
      entries := (e.Cdir.name, ino) :: !entries)
    ~meta:(fun blk -> mark_used sb survey ~ino:dir blk)
    ~bad:(fun blk -> survey.bad_dir_blocks <- (dir, blk) :: survey.bad_dir_blocks);
  List.iter (fun (name, ino) -> visit t sb survey ~dir ~name ino) !entries

and walk_linear_dir t sb survey ~dir dinode =
  let cache = Cffs.cache t in
  let bsz = sb.Csb.block_size in
  let nblocks = (dinode.Inode.size + bsz - 1) / bsz in
  for lblk = 0 to nblocks - 1 do
    match Bmap.read cache dinode lblk with
    | Error _ -> survey.bad_dir_blocks <- (dir, lblk) :: survey.bad_dir_blocks
    | Ok None -> ()
    | Ok (Some p) -> (
        (* A directory block the media can no longer produce (sticky bad
           sector, checksum mismatch) is a survey finding, not a crash:
           record it and keep walking the rest of the tree. *)
        match Cache.read cache p with
        | exception Cffs_util.Io_error.E _ ->
            survey.bad_dir_blocks <- (dir, lblk) :: survey.bad_dir_blocks
        | b ->
            List.iter
              (fun (name, ino) -> visit t sb survey ~dir ~name ino)
              (block_entries t ~pblock:p b))
  done

and visit t sb survey ~dir ~name ino =
  match Hashtbl.find_opt survey.refs ino with
  | Some n -> Hashtbl.replace survey.refs ino (n + 1)
  | None -> begin
      match Cffs.read_inode t ino with
      | Error _ -> survey.dangling <- (dir, name, ino) :: survey.dangling
      | Ok inode ->
          Hashtbl.replace survey.refs ino 1;
          Hashtbl.replace survey.inodes ino inode;
          note_blocks t sb survey ~ino inode;
          (match inode.Inode.kind with
          | Inode.Directory ->
              survey.dirs <- survey.dirs + 1;
              Hashtbl.replace survey.subdirs dir
                (1 + Option.value ~default:0 (Hashtbl.find_opt survey.subdirs dir));
              walk_dir t sb survey ~dir:ino inode
          | Inode.Regular -> survey.files <- survey.files + 1
          | Inode.Free -> survey.dangling <- (dir, name, ino) :: survey.dangling)
    end

let run_survey t =
  let sb = Cffs.superblock t in
  let survey =
    {
      refs = Hashtbl.create 1024;
      inodes = Hashtbl.create 1024;
      subdirs = Hashtbl.create 64;
      used = Hashtbl.create 4096;
      dangling = [];
      dups = [];
      out_of_range = [];
      bad_dir_blocks = [];
      files = 0;
      dirs = 0;
    }
  in
  (match Cffs.read_inode t Csb.root_ino with
  | Error _ -> ()
  | Ok inode ->
      Hashtbl.replace survey.refs Csb.root_ino 0;
      Hashtbl.replace survey.inodes Csb.root_ino inode;
      note_blocks t sb survey ~ino:Csb.root_ino inode;
      survey.dirs <- 1;
      walk_dir t sb survey ~dir:Csb.root_ino inode);
  (* The external inode file's own blocks are metadata in use. *)
  (match Cffs.read_inode t Csb.ifile_ino with
  | Ok ifile -> note_blocks t sb survey ~ino:Csb.ifile_ino ifile
  | Error _ -> ());
  survey

(* C-FFS directories have no physical dot entries: a directory is referenced
   once by its parent, and the convention is nlink = 2 + subdirectories. *)
let expected_nlink survey ino (inode : Inode.t) =
  match inode.Inode.kind with
  | Inode.Directory ->
      let parent_refs = if ino = Csb.root_ino then 2 else 1 + Hashtbl.find survey.refs ino in
      parent_refs + Option.value ~default:0 (Hashtbl.find_opt survey.subdirs ino)
  | Inode.Regular | Inode.Free -> Hashtbl.find survey.refs ino

let nlink_problems survey =
  Hashtbl.fold
    (fun ino inode acc ->
      if ino = Csb.ifile_ino then acc
      else begin
        let expected = expected_nlink survey ino inode in
        if inode.Inode.nlink <> expected then
          Report.Wrong_nlink { ino; expected; found = inode.Inode.nlink } :: acc
        else acc
      end)
    survey.inodes []

(* The survey only records blocks of a group's data area (every relative
   block but the header at 0), so a group's expected free count is its
   data-area size minus the surveyed blocks that fall in it: one pass over
   the used set, not a probe per block of the volume. *)
let bitmap_problems t survey =
  let sb = Cffs.superblock t in
  let cache = Cffs.cache t in
  let used = Array.make sb.Csb.cg_count 0 in
  Hashtbl.iter
    (fun blk _ ->
      let cg = Csb.cg_of_block sb blk in
      used.(cg) <- used.(cg) + 1)
    survey.used;
  let problems = ref [] in
  for cg = 0 to sb.Csb.cg_count - 1 do
    let hdr = Cache.read cache (Csb.cg_start sb cg) in
    let found_free =
      Bitmap.count_clear hdr Csb.hdr_block_bitmap_off ~off:0 ~len:sb.Csb.cg_size
    in
    let expected_free = sb.Csb.cg_size - 1 - used.(cg) in
    if found_free <> expected_free then
      problems :=
        Report.Block_bitmap_mismatch { cg; expected_free; found_free }
        :: !problems
  done;
  !problems

(* Sweep the external inode file for allocated slots no entry references. *)
let orphan_externals t survey =
  let sb = Cffs.superblock t in
  let orphans = ref [] in
  for slot = 0 to sb.Csb.ext_high - 1 do
    let ino = Csb.ext_base + slot in
    if not (Hashtbl.mem survey.refs ino) then begin
      match Cffs.read_inode t ino with
      | Ok inode -> orphans := (ino, inode.Inode.kind) :: !orphans
      | Error _ -> ()
    end
  done;
  !orphans

let build_report t ~repaired =
  match
    try Csb.decode (Cache.read (Cffs.cache t) 0)
    with Cffs_util.Io_error.E _ -> None
  with
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
      let problems =
        List.map
          (fun (dir, name, ino) -> Report.Dangling_entry { dir; name; ino })
          survey.dangling
        @ List.map (fun (ino, kind) -> Report.Orphan_inode { ino; kind })
            (orphan_externals t survey)
        @ List.map (fun (blk, ino) -> Report.Block_multiply_used { blk; ino }) survey.dups
        @ List.map (fun (ino, blk) -> Report.Block_out_of_range { ino; blk })
            survey.out_of_range
        @ List.map (fun (dir, lblk) -> Report.Bad_directory_block { dir; lblk })
            survey.bad_dir_blocks
        @ nlink_problems survey
        @ bitmap_problems t survey
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

(* Remove a name from a directory by rewriting the block that holds it. *)
let remove_dangling t ~dir ~name =
  let sb = Cffs.superblock t in
  let cache = Cffs.cache t in
  match Cffs.read_inode t dir with
  | Error _ -> ()
  | Ok dinode when Cffs.dir_indexed t dinode -> begin
      let target = ref None in
      Cffs.index_walk t dinode
        ~entry:(fun ~pblock _b e ->
          if !target = None && e.Cdir.name = name then
            target := Some (pblock, e.Cdir.chunk))
        ~meta:(fun _ -> ())
        ~bad:(fun _ -> ());
      match !target with
      | None -> ()
      | Some (p, chunk) ->
          let b = Cache.read cache p in
          Cdir.clear b chunk;
          Cache.write cache ~kind:`Meta p b
    end
  | Ok dinode ->
      let bsz = sb.Csb.block_size in
      let nblocks = (dinode.Inode.size + bsz - 1) / bsz in
      let rec loop lblk =
        if lblk >= nblocks then ()
        else begin
          match Bmap.read cache dinode lblk with
          | Ok (Some p) ->
              let b = Cache.read cache p in
              let removed =
                if sb.Csb.embed_inodes then begin
                  match Cdir.find b name with
                  | Some e ->
                      Cdir.clear b e.Cdir.chunk;
                      true
                  | None -> false
                end
                else Dirent.remove b name <> None
              in
              if removed then Cache.write cache ~kind:`Meta p b else loop (lblk + 1)
          | Ok None | Error _ -> loop (lblk + 1)
        end
      in
      loop 0

let attach_lost_found t ino =
  (match Cffs.resolve t "/lost+found" with
  | Ok _ -> ()
  | Error _ -> ignore (Cffs.mkdir t "/lost+found"));
  match Cffs.resolve t "/lost+found" with
  | Error _ -> ()
  | Ok dir -> begin
      let name = Printf.sprintf "ino%06d" ino in
      match Cffs.hardlink t ~dir name ~ino with Ok () | Error _ -> ()
    end

let clear_external t ino =
  let cleared = Inode.empty () in
  match Cffs.write_inode_raw t ino cleared with Ok () | Error _ -> ()

(* A doubly-claimed or out-of-range block: punch the pointer out of the
   claimant recorded in the problem (the later one, for duplicates), leaving
   a hole; the bitmap rebuild then settles ownership on the survivor. *)
let punch_block t ~ino ~blk =
  match Cffs.read_inode t ino with
  | Error _ -> ()
  | Ok inode ->
      if Bmap.punch (Cffs.cache t) inode ~target:blk then begin
        match Cffs.write_inode_raw t ino inode with Ok () | Error _ -> ()
      end

(* Rebuild per-group bitmaps and link counts from a fresh survey. *)
let rebuild_metadata t =
  let sb = Cffs.superblock t in
  let cache = Cffs.cache t in
  let survey = run_survey t in
  Hashtbl.iter
    (fun ino inode ->
      if ino <> Csb.ifile_ino then begin
        let expected = expected_nlink survey ino inode in
        if inode.Inode.nlink <> expected then begin
          inode.Inode.nlink <- expected;
          match Cffs.write_inode_raw t ino inode with Ok () | Error _ -> ()
        end
      end)
    survey.inodes;
  for cg = 0 to sb.Csb.cg_count - 1 do
    let hdr = Cache.read cache (Csb.cg_start sb cg) in
    Codec.zero hdr Csb.hdr_block_bitmap_off ((sb.Csb.cg_size + 7) / 8);
    let free = ref 0 in
    for rel = 0 to sb.Csb.cg_size - 1 do
      let blk = Csb.cg_start sb cg + rel in
      if rel = 0 || Hashtbl.mem survey.used blk then Bitmap.set hdr Csb.hdr_block_bitmap_off rel
      else incr free
    done;
    Codec.set_u32 hdr Csb.hdr_free_blocks_off !free;
    Cache.write cache ~kind:`Meta (Csb.cg_start sb cg) hdr
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
        | Report.Orphan_inode { ino; _ } -> clear_external t ino
        | Report.Block_multiply_used { blk; ino } -> punch_block t ~ino ~blk
        | Report.Block_out_of_range { ino; blk } -> punch_block t ~ino ~blk
        | Report.Bad_superblock | Report.Wrong_nlink _
        | Report.Block_bitmap_mismatch _ | Report.Inode_bitmap_mismatch _
        | Report.Bad_directory_block _ -> ())
      before.Report.problems;
    rebuild_metadata t;
    Cffs.sync t;
    let after = check t in
    { after with Report.repaired = max 0 (Report.count before - Report.count after) }
  end
