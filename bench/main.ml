(* The benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. Regenerates every table and figure of the paper's evaluation at full
      scale on the simulated testbed (the same entry points as
      `cffs experiment all`).  This is the reproduction itself: compare the
      printed tables against EXPERIMENTS.md.

   2. Runs one Bechamel micro-benchmark per table/figure (at quick scale) and
      a few core-data-structure benchmarks, reporting how long the
      {e simulator machinery} takes on the host — useful for tracking
      performance regressions of this repository itself.

   `--quick` shrinks part 1 to smoke-test size; `--no-bechamel` skips part 2;
   `--bechamel-only` skips part 1.  `--json` skips both and instead emits
   the machine-readable telemetry document (quick-scale small-file runs
   with the full obs-counter delta) on stdout — the artifact CI tracks. *)

open Bechamel
open Toolkit
module Experiments = Cffs_harness.Experiments
module Cache = Cffs_cache.Cache

let quick_flag = Array.exists (( = ) "--quick") Sys.argv
let no_bechamel = Array.exists (( = ) "--no-bechamel") Sys.argv
let bechamel_only = Array.exists (( = ) "--bechamel-only") Sys.argv
let json_flag = Array.exists (( = ) "--json") Sys.argv

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures. *)

let print_paper_tables () =
  let scale = if quick_flag then Experiments.quick else Experiments.full in
  Printf.printf
    "==============================================================\n\
     C-FFS reproduction: every table and figure of the evaluation\n\
     (simulated Seagate ST31200 testbed; see EXPERIMENTS.md)\n\
     ==============================================================\n\n%!";
  Experiments.run_all scale

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel benchmarks of the machinery. *)

let q = Experiments.quick

(* One Test.make per table/figure: each run regenerates that table at quick
   scale. *)
let table_tests =
  Test.make_grouped ~name:"tables"
    [
      Test.make ~name:"table1_drives"
        (Staged.stage (fun () -> ignore (Experiments.table1_drives ())));
      Test.make ~name:"fig2_access_time"
        (Staged.stage (fun () -> ignore (Experiments.fig2_access_time q)));
      Test.make ~name:"table2_setup_drive"
        (Staged.stage (fun () -> ignore (Experiments.table2_setup_drive ())));
      Test.make ~name:"fig4_smallfile_sync"
        (Staged.stage (fun () -> ignore (Experiments.smallfile q Cache.Sync_metadata)));
      Test.make ~name:"fig6_smallfile_delayed"
        (Staged.stage (fun () -> ignore (Experiments.smallfile q Cache.Delayed)));
      Test.make ~name:"fig7_size_sweep"
        (Staged.stage (fun () -> ignore (Experiments.fig7_size_sweep q)));
      Test.make ~name:"fig8_aging"
        (Staged.stage (fun () -> ignore (Experiments.fig8_aging q)));
      Test.make ~name:"table3_apps"
        (Staged.stage (fun () -> ignore (Experiments.table3_apps q)));
      Test.make ~name:"table_dirsize"
        (Staged.stage (fun () -> ignore (Experiments.table_dirsize ())));
      Test.make ~name:"table_large"
        (Staged.stage (fun () -> ignore (Experiments.table_large q)));
      Test.make ~name:"ablation_scheduler"
        (Staged.stage (fun () -> ignore (Experiments.ablation_scheduler q)));
      Test.make ~name:"ablation_group_size"
        (Staged.stage (fun () -> ignore (Experiments.ablation_group_size q)));
      Test.make ~name:"table_breakdown"
        (Staged.stage (fun () -> ignore (Experiments.table_breakdown q)));
      Test.make ~name:"ablation_readahead"
        (Staged.stage (fun () -> ignore (Experiments.ablation_readahead q)));
      Test.make ~name:"ablation_namei"
        (Staged.stage (fun () -> ignore (Experiments.ablation_namei q)));
    ]

(* Core machinery micro-benchmarks. *)
let core_tests =
  let module Drive = Cffs_disk.Drive in
  let module Profile = Cffs_disk.Profile in
  let module Request = Cffs_disk.Request in
  let module Blockdev = Cffs_blockdev.Blockdev in
  Test.make_grouped ~name:"core"
    [
      Test.make ~name:"drive_random_4k_service"
        (Staged.stage
           (let drive = Drive.create Profile.seagate_st31200 in
            let prng = Cffs_util.Prng.create 3 in
            let total = Drive.total_sectors drive in
            fun () ->
              let lba = Cffs_util.Prng.int prng (total - 8) in
              ignore (Drive.service drive (Request.read ~lba ~sectors:8))));
      Test.make ~name:"cffs_create_write_1k"
        (Staged.stage
           (let dev = Blockdev.memory ~block_size:4096 ~nblocks:262144 in
            let fs = Cffs.format dev in
            let payload = Bytes.make 1024 'x' in
            let i = ref 0 in
            ignore (Cffs.mkdir fs "/b");
            fun () ->
              incr i;
              ignore (Cffs.write_file fs (Printf.sprintf "/b/f%08d" !i) payload)));
      Test.make ~name:"cffs_lookup_read_1k"
        (Staged.stage
           (let dev = Blockdev.memory ~block_size:4096 ~nblocks:65536 in
            let fs = Cffs.format dev in
            let payload = Bytes.make 1024 'x' in
            ignore (Cffs.mkdir fs "/b");
            for i = 0 to 99 do
              ignore (Cffs.write_file fs (Printf.sprintf "/b/f%03d" i) payload)
            done;
            let i = ref 0 in
            fun () ->
              incr i;
              ignore (Cffs.read_file fs (Printf.sprintf "/b/f%03d" (!i mod 100)))));
      Test.make ~name:"ffs_create_write_1k"
        (Staged.stage
           (let dev = Blockdev.memory ~block_size:4096 ~nblocks:262144 in
            let fs = Ffs.format dev in
            let payload = Bytes.make 1024 'x' in
            let i = ref 0 in
            ignore (Ffs.mkdir fs "/b");
            fun () ->
              incr i;
              ignore (Ffs.write_file fs (Printf.sprintf "/b/f%08d" !i) payload)));
      (* C-FFS's aligned free-frame scan ([alloc_frame]) over a half-full
         bitmap that sits in a cylinder-group header, as on disk. *)
      Test.make ~name:"bitmap_find_clear_run"
        (Staged.stage
           (let base = Cffs.Csb.hdr_block_bitmap_off and bits = 16384 and gb = 16 in
            let b = Bytes.make (base + (bits / 8)) '\000' in
            let prng = Cffs_util.Prng.create 5 in
            for _ = 0 to 8000 do
              Cffs_util.Bitmap.set b base (Cffs_util.Prng.int prng bits)
            done;
            let rec scan off =
              if off + gb > bits then None
              else if Cffs_util.Bitmap.all_clear b base ~off ~len:gb then Some off
              else scan (off + gb)
            in
            fun () -> ignore (scan 1)));
      (* One cache-flush-sized window: 2000 shuffled, non-overlapping 4 KB
         writes submitted to an unbounded FCFS queue and drained, with no
         geometry (a memory device). *)
      Test.make ~name:"ioqueue_drain_2000"
        (Staged.stage
           (let module Ioqueue = Cffs_disk.Ioqueue in
            let blocks = Array.init 2000 (fun i -> i) in
            Cffs_util.Prng.shuffle (Cffs_util.Prng.create 7) blocks;
            let reqs = Array.map (fun b -> Request.write ~lba:(8 * b) ~sectors:8) blocks in
            fun () ->
              let q : unit Ioqueue.t = Ioqueue.create () in
              Array.iter (fun r -> ignore (Ioqueue.submit q r () ~now:0.0)) reqs;
              while Option.is_some (Ioqueue.take q ~geom:None ~current_cyl:0) do
                ()
              done));
      (* The CRC-32 kernel over one 4 KB block: the per-block cost of a
         tagged write and of a verified read. *)
      Test.make ~name:"crc32_4k"
        (Staged.stage
           (let b = Bytes.init 4096 (fun i -> Char.chr ((i * 131) land 0xff)) in
            fun () -> ignore (Cffs_util.Crc32.digest b)));
      (* One sync barrier's checksum-region write-back on an
         ST31200-sized memory device after tag writes to as many blocks
         (3 400, spread over the data area) as one
         smallfile-grouped-journal iteration tags.  The tags are written
         again before every flush, so each flush finds their pages dirty;
         [set_tag] marks a page just as a persisted write does, without
         timing 3 400 block CRCs as well. *)
      Test.make ~name:"integrity_flush_tags"
        (Staged.stage
           (let module Integrity = Cffs_blockdev.Integrity in
            let nblocks =
              Drive.total_sectors (Drive.create Profile.seagate_st31200)
              * Cffs_util.Units.sector_size / 4096
            in
            let dev = Blockdev.memory ~block_size:4096 ~nblocks in
            let ig = Integrity.format dev in
            let prng = Cffs_util.Prng.create 11 in
            let spread =
              Array.init 3400 (fun _ ->
                  ( Cffs_util.Prng.int prng (Integrity.data_blocks ig),
                    Cffs_util.Prng.int prng 0x3fffffff ))
            in
            fun () ->
              Array.iter (fun (blk, v) -> Blockdev.set_tag dev blk v) spread;
              Integrity.flush_tags ig));
    ]

let run_bechamel () =
  Printf.printf
    "\n==============================================================\n\
     Bechamel: host-side cost of the machinery (quick-scale runs)\n\
     ==============================================================\n\n%!";
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let t =
    Cffs_util.Tablefmt.create
      [
        ("Benchmark", Cffs_util.Tablefmt.Left);
        ("time/run", Cffs_util.Tablefmt.Right);
        ("r²", Cffs_util.Tablefmt.Right);
      ]
  in
  let analyze test =
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Instance.monotonic_clock results in
    Hashtbl.iter
      (fun name ols_result ->
        let time_str =
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
              if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
          | _ -> "?"
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        Cffs_util.Tablefmt.add_row t [ name; time_str; r2 ])
      results
  in
  analyze core_tests;
  analyze table_tests;
  Cffs_util.Tablefmt.print t

let () =
  if json_flag then begin
    let doc = Cffs_harness.Telemetry.document () in
    (* Smoke-level contract: the self-healing counters are part of
       cffs-telemetry-v2 and must be present (zeros included) in every
       document, integrity-formatted volume or not. *)
    let integrity_ok =
      match doc with
      | Cffs_obs.Json.Obj fields -> (
          match List.assoc_opt "integrity" fields with
          | Some (Cffs_obs.Json.Obj section) ->
              List.for_all
                (fun k -> List.mem_assoc k section)
                [
                  "integrity.checksum_failures";
                  "integrity.remaps";
                  "integrity.degraded_reads";
                  "scrub.blocks_verified";
                ]
          | _ -> false)
      | _ -> false
    in
    if not integrity_ok then begin
      prerr_endline
        "telemetry document is missing the integrity counter section";
      exit 1
    end;
    (* Same contract for the dentry/attribute cache section. *)
    let namei_ok =
      match doc with
      | Cffs_obs.Json.Obj fields -> (
          match List.assoc_opt "namei" fields with
          | Some (Cffs_obs.Json.Obj section) ->
              List.for_all
                (fun k -> List.mem_assoc k section)
                Cffs_harness.Telemetry.namei_counter_names
          | _ -> false)
      | _ -> false
    in
    if not namei_ok then begin
      prerr_endline "telemetry document is missing the namei counter section";
      exit 1
    end;
    (* v2 sections: the layout introspector's grouping evidence, the per-op
       latency attribution, and the sampled time series. *)
    let v2_ok =
      match doc with
      | Cffs_obs.Json.Obj fields ->
          List.for_all
            (fun k ->
              match List.assoc_opt k fields with
              | Some (Cffs_obs.Json.Obj _) -> true
              | _ -> false)
            [ "grouping"; "latency_breakdown"; "timeseries" ]
      | _ -> false
    in
    if not v2_ok then begin
      prerr_endline
        "telemetry document is missing a v2 section (grouping, \
         latency_breakdown, timeseries)";
      exit 1
    end;
    (* The multi-volume section: the A9 spindle-scaling sweep with
       per-spindle counters must always be present, and every
       multi-spindle point must actually carry its per-spindle
       breakdown. *)
    let volume_ok =
      match doc with
      | Cffs_obs.Json.Obj fields -> (
          match List.assoc_opt "volume" fields with
          | Some (Cffs_obs.Json.Obj section) -> (
              List.mem_assoc "small_read_speedup" section
              &&
              match List.assoc_opt "points" section with
              | Some (Cffs_obs.Json.List points) ->
                  points <> []
                  && List.for_all
                       (fun p ->
                         match p with
                         | Cffs_obs.Json.Obj pf -> (
                             match
                               ( List.assoc_opt "drives" pf,
                                 List.assoc_opt "spindles" pf )
                             with
                             | ( Some (Cffs_obs.Json.Int d),
                                 Some (Cffs_obs.Json.List sp) ) ->
                                 if d > 1 then List.length sp = d else sp = []
                             | _ -> false)
                         | _ -> false)
                       points
              | _ -> false)
          | _ -> false)
      | _ -> false
    in
    if not volume_ok then begin
      prerr_endline
        "telemetry document is missing the volume section (A9 scaling \
         points with per-spindle counters)";
      exit 1
    end;
    print_endline (Cffs_obs.Json.to_string_pretty doc)
  end
  else begin
    if not bechamel_only then print_paper_tables ();
    if not no_bechamel then run_bechamel ()
  end
