(* Three-way engine differential: both paths of the compiled engine must
   produce *bit-identical* results to the reference interpreter — cycles,
   IPC, toggles (via power switching energy), miss classification, power
   report and program output — on every benchmark, for both the ARM and
   FITS streams and both cache geometries.  The two paths ("pre" and
   "cmp" in the test names) are the per-instruction [Step.step] loop —
   what the multicore machine and the FITS [on_step] hook (fault
   injection) run, here with a no-op hook on the FITS side — and the
   block driver [Step.run] behind [Arm_run.run] / [Fits.Run.run].  16 KB
   runs execute all three directly; the 8 KB data points replay each
   one's own recorded trace (the harness's own structure), so a
   divergence in anything the trace captures — including the block
   driver's block-granular recording — shows up there too. *)

module R = Pf_mibench.Registry
module AR = Pf_cpu.Arm_run
module FR = Pf_fits.Run
module C = Pf_cache.Icache

let cache_16k = C.config ~size_bytes:(16 * 1024) ()
let cache_8k = C.config ~size_bytes:(8 * 1024) ()

let pp_arm (r : AR.result) =
  Printf.sprintf
    "{instrs=%d cycles=%d ipc=%.17g fetches=%d accesses=%d misses=%d \
     switching=%.17g total=%.17g peak=%.17g out=%d}"
    r.AR.instructions r.AR.cycles r.AR.ipc r.AR.fetch_accesses
    r.AR.cache_accesses r.AR.cache_misses
    r.AR.power.Pf_power.Account.switching r.AR.power.Pf_power.Account.total
    r.AR.power.Pf_power.Account.peak_power (String.length r.AR.output)

let pp_fits (r : FR.result) =
  Printf.sprintf
    "{fits=%d arm=%d cycles=%d ipc=%.17g fetches=%d accesses=%d misses=%d \
     switching=%.17g total=%.17g peak=%.17g out=%d}"
    r.FR.fits_instructions r.FR.arm_instructions r.FR.cycles r.FR.ipc
    r.FR.fetch_accesses r.FR.cache_accesses r.FR.cache_misses
    r.FR.power.Pf_power.Account.switching r.FR.power.Pf_power.Account.total
    r.FR.power.Pf_power.Account.peak_power (String.length r.FR.output)

(* [Arm_run.run]'s result, from the same core driven by [Step.step]
   alone; without [cache] the core gets the default 16 KB I-cache. *)
let arm_per_step ?cache ?max_steps ?trace image =
  let core = Pf_cpu.Step.of_image ?cache ?max_steps ?trace image in
  while not (Pf_cpu.Step.halted core) do
    Pf_cpu.Step.step core
  done;
  let r = Pf_cpu.Step.result core in
  {
    AR.instructions = r.Pf_cpu.Step.instructions;
    cycles = r.Pf_cpu.Step.cycles;
    ipc = r.Pf_cpu.Step.ipc;
    fetch_accesses = r.Pf_cpu.Step.fetch_accesses;
    output = r.Pf_cpu.Step.output;
    cache_accesses = r.Pf_cpu.Step.cache_accesses;
    cache_misses = r.Pf_cpu.Step.cache_misses;
    miss_rate_per_million = r.Pf_cpu.Step.miss_rate_per_million;
    dcache_miss_rate_pm = r.Pf_cpu.Step.dcache_miss_rate_pm;
    power = r.Pf_cpu.Step.power;
  }

(* [Fits.Run.run] with a no-op [on_step] hook takes the per-instruction
   path (default 16 KB I-cache, as [arm_per_step]). *)
let fits_per_step ?cache ?max_steps ?trace tr =
  FR.run ?cache ?max_steps ?trace
    ~on_step:(fun _ ~steps:_ -> ()) tr

let check_arm what ~oracle a b =
  if a <> b then
    Alcotest.failf "%s: engines diverge\n  %s: %s\n  candidate: %s" what
      oracle (pp_arm a) (pp_arm b)

let check_fits what ~oracle a b =
  if a <> b then
    Alcotest.failf "%s: engines diverge\n  %s: %s\n  candidate: %s" what
      oracle (pp_fits a) (pp_fits b)

let translate_benchmark (b : R.benchmark) =
  let p = b.R.program ~scale:1 in
  let image = Pf_armgen.Compile.program ~unroll:b.R.unroll p in
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  (image, tr)

let test_benchmark (b : R.benchmark) () =
  let name = b.R.name in
  let image, tr = translate_benchmark b in
  (* ARM stream: direct 16 KB runs on all three paths, replayed 8 KB runs
     from each one's own recording *)
  let tr_ref = Pf_cpu.Trace.create ~isize:4 () in
  let tr_pre = Pf_cpu.Trace.create ~isize:4 () in
  let tr_cmp = Pf_cpu.Trace.create ~isize:4 () in
  let a_ref =
    AR.run ~engine:AR.Reference ~cache_cfg:cache_16k ~trace:tr_ref image
  in
  let a_pre = arm_per_step ~trace:tr_pre image in
  let a_cmp =
    AR.run ~engine:AR.Compiled ~cache_cfg:cache_16k ~trace:tr_cmp image
  in
  check_arm (name ^ "/arm/16k/pre") ~oracle:"reference" a_ref a_pre;
  check_arm (name ^ "/arm/16k/cmp") ~oracle:"reference" a_ref a_cmp;
  let a_ref8 =
    AR.replay ~cache_cfg:cache_8k ~output:a_ref.AR.output image tr_ref
  in
  let a_pre8 =
    AR.replay ~cache_cfg:cache_8k ~output:a_pre.AR.output image tr_pre
  in
  let a_cmp8 =
    AR.replay ~cache_cfg:cache_8k ~output:a_cmp.AR.output image tr_cmp
  in
  check_arm (name ^ "/arm/8k/pre") ~oracle:"reference" a_ref8 a_pre8;
  check_arm (name ^ "/arm/8k/cmp") ~oracle:"reference" a_ref8 a_cmp8;
  (* FITS stream *)
  let ft_ref = Pf_cpu.Trace.create ~isize:2 () in
  let ft_pre = Pf_cpu.Trace.create ~isize:2 () in
  let ft_cmp = Pf_cpu.Trace.create ~isize:2 () in
  let f_ref =
    FR.run ~engine:FR.Reference ~cache_cfg:cache_16k ~trace:ft_ref tr
  in
  let f_pre = fits_per_step ~trace:ft_pre tr in
  let f_cmp =
    FR.run ~engine:FR.Compiled ~cache_cfg:cache_16k ~trace:ft_cmp tr
  in
  check_fits (name ^ "/fits/16k/pre") ~oracle:"reference" f_ref f_pre;
  check_fits (name ^ "/fits/16k/cmp") ~oracle:"reference" f_ref f_cmp;
  let f_ref8 = FR.replay ~cache_cfg:cache_8k ~like:f_ref tr ft_ref in
  let f_pre8 = FR.replay ~cache_cfg:cache_8k ~like:f_pre tr ft_pre in
  let f_cmp8 = FR.replay ~cache_cfg:cache_8k ~like:f_cmp tr ft_cmp in
  check_fits (name ^ "/fits/8k/pre") ~oracle:"reference" f_ref8 f_pre8;
  check_fits (name ^ "/fits/8k/cmp") ~oracle:"reference" f_ref8 f_cmp8

(* Miss classification goes through the shadow-LRU path that the plain
   runs skip: compare compulsory/capacity/conflict on a subset, for all
   three paths, each with a pre-built classifying I-cache. *)
let test_classification () =
  let subset = List.filteri (fun i _ -> i mod 7 = 0) R.all in
  List.iter
    (fun (b : R.benchmark) ->
      let image, tr = translate_benchmark b in
      let classes run =
        let cache = C.create ~classify:true cache_16k in
        run cache;
        (C.stats_compulsory cache, C.stats_capacity cache,
         C.stats_conflict cache)
      in
      let arm engine cache =
        ignore (AR.run ~engine ~cache image)
      in
      let fits engine cache =
        ignore (FR.run ~engine ~cache tr)
      in
      let ref_c = classes (arm AR.Reference) in
      Alcotest.(check (triple int int int))
        (b.R.name ^ ": arm miss classes pre")
        ref_c
        (classes (fun cache -> ignore (arm_per_step ~cache image)));
      Alcotest.(check (triple int int int))
        (b.R.name ^ ": arm miss classes cmp")
        ref_c (classes (arm AR.Compiled));
      let fref_c = classes (fits FR.Reference) in
      Alcotest.(check (triple int int int))
        (b.R.name ^ ": fits miss classes pre")
        fref_c
        (classes (fun cache -> ignore (fits_per_step ~cache tr)));
      Alcotest.(check (triple int int int))
        (b.R.name ^ ": fits miss classes cmp")
        fref_c (classes (fits FR.Compiled)))
    subset

(* A jump out of the code that lands exactly on an exhausted step budget:
   every path checks the watchdog before the fetch, as the reference
   interpreter does, so all three raise [Watchdog_timeout]. *)
let test_watchdog_before_fetch_fault () =
  let imm v = Option.get (Pf_arm.Insn.encode_imm_operand v) in
  let image =
    Pf_arm.Image.make ~entry:0x8000
      [| Pf_arm.Encode.encode
           (Pf_arm.Insn.Dp
              { cond = Pf_arm.Insn.AL; op = Pf_arm.Insn.MOV; s = false;
                rd = 15; rn = 0; op2 = imm 0x100000 }) |]
  in
  let kind run =
    match run () with
    | _ -> "no error"
    | exception Pf_util.Sim_error.Error e ->
        Pf_util.Sim_error.kind_name e.Pf_util.Sim_error.kind
  in
  let expected = "watchdog-timeout" in
  Alcotest.(check string) "ref" expected
    (kind (fun () -> AR.run ~engine:AR.Reference ~max_steps:1 image));
  Alcotest.(check string) "pre" expected
    (kind (fun () -> arm_per_step ~max_steps:1 image));
  Alcotest.(check string) "cmp" expected
    (kind (fun () -> AR.run ~engine:AR.Compiled ~max_steps:1 image))

let tests =
  List.map
    (fun (b : R.benchmark) ->
      Alcotest.test_case
        ("ref=pre=cmp: " ^ b.R.name)
        `Quick (test_benchmark b))
    R.all
  @ [ Alcotest.test_case "miss classification ref=pre=cmp" `Quick
        test_classification;
      Alcotest.test_case "watchdog before fetch fault ref=pre=cmp" `Quick
        test_watchdog_before_fetch_fault ]
