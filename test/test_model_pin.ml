(* Golden pin of the shared timing/power model.

   Every engine — reference interpreters, the compiled driver, trace
   replays — charges retirements through the same Pipeline, Icache and
   Account, so the engine differentials cannot see a change to that model:
   all sides move together.  This test hashes the model's outputs for a
   fixed set of runs (every integer counter, every float by its IEEE bits)
   and compares the digest against a committed constant.  A deliberate
   model change must update [expected] and say why. *)

let buf = Buffer.create 4096
let int n = Buffer.add_string buf (string_of_int n); Buffer.add_char buf ';'

let flt f =
  Buffer.add_string buf (Printf.sprintf "%Lx" (Int64.bits_of_float f));
  Buffer.add_char buf ';'

let report (r : Pf_power.Account.report) =
  flt r.Pf_power.Account.switching;
  flt r.Pf_power.Account.internal;
  flt r.Pf_power.Account.leakage;
  flt r.Pf_power.Account.total;
  flt r.Pf_power.Account.peak_power;
  int r.Pf_power.Account.cycles

let per_config (c : Pf_harness.Experiment.per_config) =
  let open Pf_harness.Experiment in
  int c.instructions;
  int c.cycles;
  flt c.ipc;
  int c.fetch_accesses;
  int c.cache_misses;
  flt c.miss_rate_pm;
  flt c.dcache_miss_rate_pm;
  report c.power

let image_of name =
  let b = Pf_mibench.Registry.find name in
  Pf_armgen.Compile.program ~unroll:b.Pf_mibench.Registry.unroll
    (b.Pf_mibench.Registry.program ~scale:1)

let digest () =
  Buffer.clear buf;
  (* the paper's four configurations: two recordings, two replays *)
  List.iter
    (fun name ->
      let r =
        Pf_harness.Experiment.run_benchmark (Pf_mibench.Registry.find name)
      in
      let open Pf_harness.Experiment in
      List.iter per_config [ r.arm16; r.arm8; r.fits16; r.fits8 ])
    [ "crc32"; "sha"; "qsort" ];
  let image = image_of "crc32" in
  (* the fetch-buffer ablation: every 16-bit instruction re-reads the
     cache *)
  let dyn_counts, _ = Pf_fits.Synthesis.dyn_counts_of_run image in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
  let f =
    Pf_fits.Run.run
      ~pipeline_cfg:
        { Pf_cpu.Pipeline.sa1100 with Pf_cpu.Pipeline.fetch_buffer = false }
      tr
  in
  let open Pf_fits.Run in
  int f.fits_instructions;
  int f.arm_instructions;
  int f.cycles;
  int f.fetch_accesses;
  int f.cache_accesses;
  int f.cache_misses;
  flt f.miss_rate_per_million;
  flt f.dcache_miss_rate_pm;
  report f.power;
  (* scheduled tag flips: the cache falls back to per-access probing
     until every flip has landed *)
  let cache = Pf_cache.Icache.create Pf_cpu.Step.default_cache_cfg in
  List.iter
    (fun (at_access, slot, bit) ->
      Pf_cache.Icache.schedule_tag_flip cache ~at_access ~slot ~bit)
    [ (50, 0, 0); (3_000, 1, 2); (20_000, 5, 1); (60_000, 2, 4) ];
  let a = Pf_cpu.Arm_run.run ~cache image in
  let open Pf_cpu.Arm_run in
  int a.instructions;
  int a.cycles;
  int a.fetch_accesses;
  int a.cache_accesses;
  int a.cache_misses;
  flt a.miss_rate_per_million;
  flt a.dcache_miss_rate_pm;
  report a.power;
  int (Pf_cache.Icache.flips_applied cache);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let expected = "e335efe65c35555eb58c2b2423e802a1"

let test_pin () =
  Alcotest.(check string) "model digest" expected (digest ())

let tests =
  [ Alcotest.test_case "timing/power model digest" `Quick test_pin ]
