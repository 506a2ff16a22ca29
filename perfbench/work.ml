(* The four benchmark workloads.  Each one has an untraced pass, which is
   one call of the library entry point a user's command makes, and a
   traced replica, which makes the same pipeline's calls one layer at a
   time through each module's public functions inside [Span.span].  Both
   return the same digest over every simulated statistic, so the replica
   is checked to measure the very program the pass runs. *)

module E = Pf_harness.Experiment
module X = Pf_dse.Explore
module Space = Pf_dse.Space
module P = Pf_workgen.Population
module L = Pf_mc.Litmus
module R = Pf_mibench.Registry
module Arm_run = Pf_cpu.Arm_run
module Trace = Pf_cpu.Trace
module Frun = Pf_fits.Run

(* ---- digests: every statistic, floats by their IEEE bits -------------- *)

module Dg = struct
  let int b i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ';'

  let float b f = int b (Int64.to_int (Int64.bits_of_float f))

  let str b s =
    int b (String.length s);
    Buffer.add_string b s

  let bool b x = int b (Bool.to_int x)

  let run f =
    let b = Buffer.create 65536 in
    f b;
    Digest.to_hex (Digest.string (Buffer.contents b))
end

let dg_power b (p : Pf_power.Account.report) =
  Dg.float b p.switching;
  Dg.float b p.internal;
  Dg.float b p.leakage;
  Dg.float b p.total;
  Dg.float b p.peak_power;
  Dg.int b p.cycles

(* Marks one part of an untraced pass (a benchmark, a litmus test); the
   measuring process times the host factor after each part. *)
type timer = { part : 'a. (unit -> 'a) -> 'a }

let untimed = { part = (fun f -> f ()) }

type pass = {
  events : float;  (** the workload's unit of simulated work *)
  failed : bool;
  digest : string;
  modelled : (string * float) list;
      (** modelled results and other per-pass totals, reported as context *)
  counts : (string * float) list;  (** replicas only *)
}

(* ---- counts gathered by the replicas ----------------------------------- *)

type tally = {
  mutable insns : float;       (* source insns, every config incl. replays *)
  mutable exec_insns : float;  (* source insns of executing runs only *)
  mutable fetch : float;
  mutable caccess : float;
  mutable misses : float;
  mutable trace_events : float;
  mutable static_map : float list;
  mutable dyn_map : float list;
  mutable sweep_events : float;
  mutable shared_dict : float;
  mutable interleavings : float;
}

let tally () =
  {
    insns = 0.; exec_insns = 0.; fetch = 0.; caccess = 0.; misses = 0.;
    trace_events = 0.; static_map = []; dyn_map = []; sweep_events = 0.;
    shared_dict = 0.; interleavings = 0.;
  }

let note ta ~exec ~insns ~fetch ~caccess ~misses =
  let f = float_of_int in
  ta.insns <- ta.insns +. f insns;
  if exec then ta.exec_insns <- ta.exec_insns +. f insns;
  ta.fetch <- ta.fetch +. f fetch;
  ta.caccess <- ta.caccess +. f caccess;
  ta.misses <- ta.misses +. f misses

let note_arm ta ~exec (r : Arm_run.result) =
  note ta ~exec ~insns:r.instructions ~fetch:r.fetch_accesses
    ~caccess:r.cache_accesses ~misses:r.cache_misses

let note_fits ta ~exec (r : Frun.result) =
  note ta ~exec ~insns:r.arm_instructions ~fetch:r.fetch_accesses
    ~caccess:r.cache_accesses ~misses:r.cache_misses

let ratio a b = if b = 0. then 0. else a /. b
let mean = function [] -> 0. | l -> Pf_util.Stats.mean l

(* Layers whose minor-heap allocation is reported per executed source
   instruction. *)
let gc_layers =
  [
    "armgen.compile"; "cpu.arm_run.record"; "cpu.arm_run.replay";
    "fits.synthesis"; "fits.translate"; "fits.run.record"; "fits.run.replay";
    "fits.run.direct"; "multi.synthesize_shared"; "dse.explore.record";
    "dse.sweep";
  ]

let count_names =
  [
    "cpu.fetch_accesses_per_insn"; "cache.icache.accesses_per_insn";
    "cache.icache.miss_rate_pm"; "cpu.trace.events"; "dse.sweep.events";
    "fits.static_map_pct"; "fits.dyn_map_pct"; "multi.shared_dict_entries";
    "mc.litmus.interleavings";
  ]
  @ List.map (fun l -> "gc.minor_words_per_insn." ^ l) gc_layers

let counts_of ta sp =
  [
    ("cpu.fetch_accesses_per_insn", ratio ta.fetch ta.insns);
    ("cache.icache.accesses_per_insn", ratio ta.caccess ta.insns);
    ("cache.icache.miss_rate_pm", 1e6 *. ratio ta.misses ta.caccess);
    ("cpu.trace.events", ta.trace_events);
    ("dse.sweep.events", ta.sweep_events);
    ("fits.static_map_pct", mean ta.static_map);
    ("fits.dyn_map_pct", mean ta.dyn_map);
    ("multi.shared_dict_entries", ta.shared_dict);
    ("mc.litmus.interleavings", ta.interleavings);
  ]
  @ List.map
      (fun l ->
        ("gc.minor_words_per_insn." ^ l, ratio (Span.words sp l) ta.exec_insns))
      gc_layers

(* ---- suite: the `powerfits figures` sweep ------------------------------ *)

let dg_config b (c : E.per_config) =
  Dg.int b c.instructions;
  Dg.int b c.cycles;
  Dg.float b c.ipc;
  Dg.int b c.fetch_accesses;
  Dg.int b c.cache_misses;
  Dg.float b c.miss_rate_pm;
  Dg.float b c.dcache_miss_rate_pm;
  dg_power b c.power

let dg_bench b (r : E.bench_result) =
  Dg.str b r.name;
  Dg.str b r.category;
  List.iter (dg_config b) [ r.arm16; r.arm8; r.fits16; r.fits8 ];
  Dg.float b r.static_map_pct;
  Dg.float b r.dyn_map_pct;
  List.iter
    (fun (k, v) ->
      Dg.int b k;
      Dg.int b v)
    r.expansion_hist;
  List.iter (Dg.int b) [ r.code_arm; r.code_thumb; r.code_fits ];
  Dg.float b r.datapath_off;
  Dg.int b r.ais_ops;
  Dg.int b r.dict_entries;
  Dg.bool b r.outputs_consistent

let suite_digest results errors =
  Dg.run (fun b ->
      List.iter (dg_bench b) results;
      List.iter (Dg.str b) errors)

let series_average (f : Pf_harness.Figures.figure) name =
  let rec go = function
    | s :: ss, a :: aa -> if s = name then a else go (ss, aa)
    | _ -> nan
  in
  go (f.series, f.average)

(* fig11's FITS8 AVERAGE and fig14's FITS8 AVERAGE, as `figures` prints
   them, over the power suite *)
let suite_modelled results =
  match E.power_rows results with
  | [] -> []
  | rows ->
      [
        ( "power_saving_pct",
          series_average (Pf_harness.Figures.fig11 rows) "FITS8" );
        ("fits8_ipc", series_average (Pf_harness.Figures.fig14 rows) "FITS8");
      ]

let suite_events results =
  List.fold_left
    (fun acc (r : E.bench_result) ->
      acc
      +. float_of_int
           (r.arm16.instructions + r.arm8.instructions + r.fits16.instructions
          + r.fits8.instructions))
    0. results

(* [run_all] one benchmark at a time, so that each row is a part;
   the rows are the ones a single call returns *)
let suite_pass ?max_steps ?(benchmarks = R.all) (t : timer) =
  let rows =
    List.concat_map
      (fun (b : R.benchmark) ->
        t.part (fun () ->
            (E.run_all ~jobs:1 ~engine:Arm_run.Compiled ?max_steps
               ~benchmarks:[ b ] ())
              .rows))
      benchmarks
  in
  let results =
    List.filter_map (fun (r : E.sweep_row) -> Result.to_option r.outcome) rows
  in
  let errors =
    List.filter_map
      (fun (r : E.sweep_row) ->
        match r.outcome with
        | Ok _ -> None
        | Error e -> Some (r.bench ^ ": " ^ Pf_util.Sim_error.to_string e))
      rows
  in
  {
    events = suite_events results;
    failed =
      errors <> []
      || List.exists (fun (r : E.bench_result) -> not r.outputs_consistent)
           results;
    digest = suite_digest results errors;
    modelled = suite_modelled results;
    counts = [];
  }

(* [Experiment.run_benchmark] with the compiled engine, one span per
   layer call *)
let suite_bench sp ta (b : R.benchmark) : E.bench_result =
  let span name f = Span.span sp name f in
  let p = span "mibench.program" (fun () -> b.program ~scale:1) in
  let image =
    span "armgen.compile" (fun () ->
        Pf_armgen.Compile.program ~unroll:b.unroll p)
  in
  let arm_trace = Trace.create ~isize:4 () in
  let arm16 =
    span "cpu.arm_run.record" (fun () ->
        Arm_run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k
          ~trace:arm_trace image)
  in
  Span.add_units sp "cpu.arm_run.record" (float_of_int arm16.instructions);
  let arm8 =
    span "cpu.arm_run.replay" (fun () ->
        Arm_run.replay ~cache_cfg:E.cache_8k ~output:arm16.output image
          arm_trace)
  in
  Span.add_units sp "cpu.arm_run.replay" (float_of_int arm8.instructions);
  let dyn_counts =
    span "cpu.trace.exec_counts" (fun () ->
        Trace.exec_counts arm_trace ~base:image.code_base
          ~n:(Array.length image.words))
  in
  let syn =
    span "fits.synthesis" (fun () ->
        Pf_fits.Synthesis.synthesize image ~dyn_counts)
  in
  let tr =
    span "fits.translate" (fun () -> Pf_fits.Translate.translate syn.spec image)
  in
  let thumb = span "thumb.estimate" (fun () -> Pf_thumb.Translate.estimate image) in
  let fits_trace = Trace.create ~isize:2 () in
  let fits16 =
    span "fits.run.record" (fun () ->
        Frun.run ~engine:Frun.Compiled ~cache_cfg:E.cache_16k ~trace:fits_trace
          tr)
  in
  Span.add_units sp "fits.run.record" (float_of_int fits16.arm_instructions);
  let fits8 =
    span "fits.run.replay" (fun () ->
        Frun.replay ~cache_cfg:E.cache_8k ~like:fits16 tr fits_trace)
  in
  Span.add_units sp "fits.run.replay" (float_of_int fits8.arm_instructions);
  note_arm ta ~exec:true arm16;
  note_arm ta ~exec:false arm8;
  note_fits ta ~exec:true fits16;
  note_fits ta ~exec:false fits8;
  ta.trace_events <-
    ta.trace_events +. float_of_int (Trace.length arm_trace + Trace.length fits_trace);
  span "harness.assemble" (fun () ->
      let r : E.bench_result =
        {
          name = b.name;
          category = b.category;
          arm16 = E.of_arm arm16;
          arm8 = E.of_arm arm8;
          fits16 = E.of_fits fits16;
          fits8 = E.of_fits fits8;
          static_map_pct = Pf_fits.Translate.static_mapping_rate tr;
          dyn_map_pct = fits16.dyn_one_to_one_pct;
          expansion_hist = tr.stats.expansion_hist;
          code_arm = Pf_arm.Image.code_size_bytes image;
          code_thumb = thumb.thumb_bytes;
          code_fits = tr.stats.code_bytes_fits;
          datapath_off = syn.datapath_off;
          ais_ops = List.length syn.ais;
          dict_entries = Array.length tr.spec.dict;
          outputs_consistent =
            arm8.output = arm16.output && fits16.output = arm16.output
            && fits8.output = arm16.output;
        }
      in
      ta.static_map <- r.static_map_pct :: ta.static_map;
      ta.dyn_map <- r.dyn_map_pct :: ta.dyn_map;
      r)

let suite_replica sp =
  let ta = tally () in
  let results = List.map (suite_bench sp ta) R.all in
  {
    events = suite_events results;
    failed =
      List.exists (fun (r : E.bench_result) -> not r.outputs_consistent) results;
    digest = suite_digest results [];
    modelled = suite_modelled results;
    counts = counts_of ta sp;
  }

(* ---- dense: the Mattson sweep over the dense geometry grid ------------- *)

let dense_names = [ "crc32"; "sha" ]

let dg_point b (p : X.point) =
  let m = p.metrics in
  Dg.str b (X.variant_label p.variant);
  Dg.str b (Space.label p.geometry);
  List.iter (Dg.int b)
    [ m.instructions; m.cycles; m.fetch_accesses; m.cache_accesses;
      m.cache_misses; m.gate_count ];
  List.iter (Dg.float b) [ m.ipc; m.miss_rate_pm; m.dcache_miss_rate_pm ];
  dg_power b m.power

let dense_finish (t : X.t) =
  let agg = X.aggregate t in
  (agg, X.frontier_of agg)

let dense_digest (t : X.t) (agg, (front : X.point Pf_dse.Pareto.front)) =
  Dg.run (fun b ->
      List.iter
        (fun (row : X.row) ->
          Dg.str b row.bench;
          match row.outcome with
          | Error e -> Dg.str b (Pf_util.Sim_error.to_string e)
          | Ok r ->
              Dg.str b r.category;
              List.iter (dg_point b) r.points;
              Dg.int b r.replayed_events;
              Dg.bool b r.outputs_consistent)
        t.rows;
      List.iter (dg_point b) agg;
      List.iter (fun (p, _) -> dg_point b p) front.frontier;
      Dg.int b front.dominated;
      Dg.int b front.total)

let dense_result (t : X.t) fin counts =
  {
    events = float_of_int (X.replayed_events t);
    failed =
      List.exists (fun (r : X.row) -> Result.is_error r.outcome) t.rows
      || X.diverged t;
    digest = dense_digest t fin;
    modelled = [];
    counts;
  }

(* [Explore.run] one benchmark at a time, as timed parts, then the suite
   aggregate and frontier over all rows *)
let dense_pass benchmarks (t : timer) =
  let runs =
    List.map
      (fun (b : R.benchmark) ->
        t.part (fun () ->
            X.run ~jobs:1 ~benchmarks:[ b ] Space.dense))
      benchmarks
  in
  let rows = List.concat_map (fun (x : X.t) -> x.rows) runs in
  let x =
    {
      (List.hd runs) with
      rows;
      completed =
        List.length (List.filter (fun (r : X.row) -> Result.is_ok r.outcome) rows);
      total = List.length rows;
    }
  in
  dense_result x (t.part (fun () -> dense_finish x)) []

(* [Explore.run] on one domain: record, then sweep, per benchmark *)
let dense_replica benchmarks sp =
  let span name f = Span.span sp name f in
  let space = Space.dense in
  Space.validate space;
  let geometries = Space.geometries space in
  let dict_budgets = space.dict_budgets in
  let engine = Space.choose_engine space in
  let ta = tally () in
  let rows =
    List.map
      (fun (b : R.benchmark) ->
        let recording =
          span "dse.explore.record" (fun () -> X.record ~dict_budgets b)
        in
        let r =
          span "dse.sweep" (fun () ->
              X.sweep_recording ~engine ~geometries recording)
        in
        Span.add_units sp "dse.sweep" (float_of_int r.replayed_events);
        List.iter
          (fun (p : X.point) ->
            let m = p.metrics in
            note ta ~exec:false ~insns:m.instructions ~fetch:m.fetch_accesses
              ~caccess:m.cache_accesses ~misses:m.cache_misses)
          r.points;
        ta.sweep_events <- ta.sweep_events +. float_of_int r.replayed_events;
        { X.bench = b.name; outcome = Ok r; elapsed_s = 0. })
      benchmarks
  in
  let n = List.length rows in
  let ngeom = float_of_int (List.length geometries) in
  (* every geometry of a variant evaluates the same recorded stream *)
  ta.exec_insns <- ta.insns /. ngeom;
  ta.trace_events <- ta.sweep_events /. ngeom;
  let t : X.t =
    {
      space; geometries;
      variants = X.Arm :: List.map (fun d -> X.Fits d) dict_budgets;
      rows; completed = n; total = n; jobs = 1; engine;
    }
  in
  let fin = span "dse.pareto" (fun () -> dense_finish t) in
  dense_result t fin (counts_of ta sp)

(* ---- population: generated programs and one shared ISA ----------------- *)

let population_count = 100

let dg_row b (r : P.row) =
  Dg.int b r.r_index;
  Dg.str b r.r_name;
  List.iter (Dg.int b) [ r.r_arm_insns; r.r_steps; r.r_spilled; r.r_reload_bits ];
  List.iter (Dg.float b)
    [ r.r_per_app_saving; r.r_shared_saving; r.r_degradation_pp;
      r.r_static_map_pct; r.r_shared_energy ];
  Array.iter (Dg.float b) r.r_mix;
  Dg.bool b r.r_output_ok

let population_result ~digest ~calib_max_distance ~calib_report
    ~shared_dict_entries ~shared_static_map_mean ~failures ~total_steps rows
    counts =
  {
    events = float_of_int total_steps;
    failed =
      failures <> [] || List.exists (fun (r : P.row) -> not r.r_output_ok) rows;
    digest =
      Dg.run (fun b ->
          Dg.str b digest;
          Dg.float b calib_max_distance;
          Dg.str b calib_report;
          Dg.int b shared_dict_entries;
          Dg.float b shared_static_map_mean;
          List.iter (dg_row b) rows;
          List.iter
            (fun (i, e) ->
              Dg.int b i;
              Dg.str b e)
            failures);
    modelled =
      [
        ( "power_saving_pct",
          mean (List.map (fun (r : P.row) -> r.r_per_app_saving) rows) );
      ];
    counts;
  }

let population_pass ~count ~seed (timer : timer) =
  let t = timer.part (fun () -> P.run ~jobs:1 ~count ~seed ()) in
  population_result ~digest:t.digest ~calib_max_distance:t.calib_max_distance
    ~calib_report:t.calib_report ~shared_dict_entries:t.shared_dict_entries
    ~shared_static_map_mean:t.shared_static_map_mean ~failures:t.failures
    ~total_steps:t.total_steps t.rows []

let avg_power = Pf_power.Account.avg_power

(* [Population.run] on one domain, one span per layer call *)
let population_replica ~count ~seed sp =
  let span name f = Span.span sp name f in
  let module G = Pf_workgen.Generate in
  let module C = Pf_workgen.Calibrate in
  let module S = Pf_multi.Suite in
  let ta = tally () in
  let model = span "workgen.calibrate" C.reference in
  let programs =
    span "workgen.generate" (fun () ->
        List.init count (fun index -> G.program ~model ~seed ~index))
  in
  let digest, calib_max_distance, calib_report =
    span "workgen.calibrate" (fun () ->
        let feats = C.merge_all (List.map C.features_of_program programs) in
        ( G.digest programs,
          C.max_distance ~reference:model feats,
          C.report ~reference:model feats ))
  in
  let prep index program =
    let image = span "armgen.compile" (fun () -> Pf_armgen.Compile.program program) in
    let trace = Trace.create ~isize:4 () in
    let arm16 =
      span "cpu.arm_run.record" (fun () ->
          Arm_run.run ~cache_cfg:E.cache_16k ~trace image)
    in
    Span.add_units sp "cpu.arm_run.record" (float_of_int arm16.instructions);
    note_arm ta ~exec:true arm16;
    ta.trace_events <- ta.trace_events +. float_of_int (Trace.length trace);
    let dyn_counts =
      span "cpu.trace.exec_counts" (fun () ->
          Trace.exec_counts trace ~base:image.code_base
            ~n:(Array.length image.words))
    in
    let profile =
      span "fits.profile" (fun () ->
          Pf_fits.Profile.of_image_counts image ~counts:dyn_counts)
    in
    let syn =
      span "fits.synthesis" (fun () ->
          Pf_fits.Synthesis.synthesize image ~dyn_counts)
    in
    let tr =
      span "fits.translate" (fun () -> Pf_fits.Translate.translate syn.spec image)
    in
    let fits8 =
      span "fits.run.direct" (fun () -> Frun.run ~cache_cfg:E.cache_8k tr)
    in
    Span.add_units sp "fits.run.direct" (float_of_int fits8.arm_instructions);
    note_fits ta ~exec:true fits8;
    ta.static_map <- Pf_fits.Translate.static_mapping_rate tr :: ta.static_map;
    ta.dyn_map <- fits8.dyn_one_to_one_pct :: ta.dyn_map;
    let name = G.name ~index in
    let bench : R.benchmark =
      {
        name; result_name = name; category = "generated";
        program = (fun ~scale:_ -> program); power_study = false; unroll = 1;
      }
    in
    let prepared : S.prepared =
      { bench; image; dyn_counts; profile; reference_output = arm16.output }
    in
    let baseline = avg_power arm16.power in
    let mix = span "fits.profile" (fun () -> Pf_workgen.Phase.mix_of_profile profile) in
    (index, prepared, arm16, baseline, fits8, mix)
  in
  let preps = List.mapi prep programs in
  let shared =
    span "multi.synthesize_shared" (fun () ->
        S.synthesize_shared (List.map (fun (_, p, _, _, _, _) -> p) preps))
  in
  let shared_spec = shared.spec in
  ta.shared_dict <- float_of_int (Array.length shared_spec.dict);
  let rows =
    List.map2
      (fun (index, (prepared : S.prepared), (arm16 : Arm_run.result), baseline,
            (per_app : Frun.result), mix)
           (cov : S.coverage) ->
        let tr =
          span "fits.translate" (fun () ->
              Pf_fits.Translate.translate shared_spec prepared.image)
        in
        let fits8 =
          span "fits.run.direct" (fun () -> Frun.run ~cache_cfg:E.cache_8k tr)
        in
        Span.add_units sp "fits.run.direct" (float_of_int fits8.arm_instructions);
        note_fits ta ~exec:true fits8;
        let per_app_saving =
          Pf_util.Stats.saving ~baseline (avg_power per_app.power)
        in
        let shared_saving = Pf_util.Stats.saving ~baseline (avg_power fits8.power) in
        let row : P.row =
          {
            r_index = index;
            r_name = S.name prepared;
            r_arm_insns = Array.length prepared.image.words;
            r_steps =
              arm16.instructions + per_app.arm_instructions
              + fits8.arm_instructions;
            r_per_app_saving = per_app_saving;
            r_shared_saving = shared_saving;
            r_degradation_pp = per_app_saving -. shared_saving;
            r_static_map_pct = cov.static_map_pct;
            r_spilled = cov.spilled_imms;
            r_reload_bits = tr.reload.reload_bits;
            r_shared_energy = fits8.power.total;
            r_mix = mix;
            r_output_ok =
              String.equal per_app.output arm16.output
              && String.equal fits8.output prepared.reference_output;
          }
        in
        row)
      preps shared.coverage
  in
  population_result ~digest ~calib_max_distance ~calib_report
    ~shared_dict_entries:(Array.length shared_spec.dict)
    ~shared_static_map_mean:
      (Pf_util.Stats.mean (List.map (fun (r : P.row) -> r.r_static_map_pct) rows))
    ~failures:[]
    ~total_steps:(List.fold_left (fun acc (r : P.row) -> acc + r.r_steps) 0 rows)
    rows (counts_of ta sp)

(* ---- litmus: the multicore machine under seeded interleavings ---------- *)

let litmus_seeds = 100

(* metric-safe test name: "SB+fences" -> "SB_fences" *)
let test_key (t : Pf_mc.Model.test) =
  String.map (fun c -> if c = '+' then '_' else c) t.name

let litmus_result (rs : L.result list) counts =
  {
    events = float_of_int (List.fold_left (fun acc (r : L.result) -> acc + r.seeds) 0 rs);
    failed = List.exists (fun (r : L.result) -> r.forbidden <> []) rs;
    digest =
      Dg.run (fun b ->
          List.iter
            (fun (r : L.result) ->
              let pairs =
                List.iter (fun (o, c) ->
                    Dg.str b o;
                    Dg.int b c)
              in
              Dg.str b r.name;
              Dg.int b r.seeds;
              Dg.str b (Pf_mc.Sched.policy_to_string r.policy);
              pairs r.observed;
              List.iter (Dg.str b) r.allowed;
              pairs r.forbidden)
            rs);
    modelled = [];
    counts;
  }

let litmus_pass ~seeds (timer : timer) =
  litmus_result
    (List.map
       (fun t -> timer.part (fun () -> L.run ~jobs:1 ~seeds t))
       L.tests)
    []

let litmus_replica ~seeds sp =
  let ta = tally () in
  let rs =
    List.map
      (fun (t : Pf_mc.Model.test) ->
        let r =
          Span.span sp ("mc.litmus.run." ^ test_key t) (fun () ->
              L.run ~jobs:1 ~seeds t)
        in
        ignore
          (Span.span sp "mc.model.allowed" (fun () ->
               Pf_mc.Model.allowed ~sb_capacity:0 t));
        ta.interleavings <- ta.interleavings +. float_of_int r.seeds;
        r)
      L.tests
  in
  litmus_result rs (counts_of ta sp)

(* ---- the workload table ------------------------------------------------ *)

type workload = {
  run : timer -> pass;
  replica : Span.t -> pass;
  event_unit : string;  (** what [pass.events] counts *)
}

(* Builds the workload's inputs.  None of them varies with the
   benchmark's seed: suite and dense run fixed programs, [Litmus.run]
   fixes its interleaving seeds to 0..N-1, and the population is pinned
   to one seed because its work per pass swings by about a fifth from
   seed to seed (15.4 to 25.0 M source instructions over seeds 1-10 at
   100 programs), more than the bound on a timing. *)
let population_seed = 1

let setup = function
  | "suite" ->
      { run = suite_pass ?max_steps:None ?benchmarks:None; replica = suite_replica;
        event_unit = "sim_insns" }
  | "dense" ->
      let benchmarks = List.map R.find dense_names in
      Space.validate Space.dense;
      { run = dense_pass benchmarks; replica = dense_replica benchmarks;
        event_unit = "geom_events" }
  | "population" ->
      let count = population_count in
      let seed = population_seed in
      { run = population_pass ~count ~seed;
        replica = population_replica ~count ~seed; event_unit = "sim_insns" }
  | "litmus" ->
      let seeds = litmus_seeds in
      { run = litmus_pass ~seeds; replica = litmus_replica ~seeds;
        event_unit = "interleavings" }
  | w -> invalid_arg ("unknown workload " ^ w)

(* span layers whose share of the traced pass is reported *)
let layers =
  [
    "mibench.program"; "armgen.compile"; "cpu.arm_run.record";
    "cpu.arm_run.replay"; "cpu.trace.exec_counts"; "fits.profile";
    "fits.synthesis"; "fits.translate"; "thumb.estimate"; "fits.run.record";
    "fits.run.replay"; "fits.run.direct"; "harness.assemble";
    "workgen.generate"; "workgen.calibrate"; "multi.synthesize_shared";
    "dse.explore.record"; "dse.sweep"; "dse.pareto"; "mc.model.allowed";
  ]
  @ List.map (fun t -> "mc.litmus.run." ^ test_key t) L.tests
