(** Evaluate a {!Space} over the benchmark suite via trace replay or the
    single-pass sweep kernel.

    Each benchmark executes {e once per ISA variant} at the fixed
    {!Space.recording_point}, recording the retired stream; every grid
    geometry is then evaluated from that recording, either by a cheap
    {!Pf_cpu.Trace} replay per geometry (2 executions + 2·N replays per
    benchmark on the default variant axis, never 2 + 2·N executions) or —
    for dense grids — by ONE {!Sweep} pass per trace that measures all
    geometries simultaneously with bit-identical results.  The engine is
    chosen per space ({!Space.choose_engine}) unless forced via
    [?engine].  Every point is priced by its own geometry, as every
    charging stack is ({!Pf_power.Account.create}): coefficients scale
    analytically with the read width while both paper geometries see the
    calibrated defaults unchanged — the ARM16/ARM8/FITS16/FITS8 grid
    points reproduce the harness numbers bit-for-bit (asserted by
    test/test_dse.ml), and a direct run at any geometry reports the
    same power as its grid point.

    Benchmarks fan out on {!Pf_util.Pool} with per-benchmark fault
    isolation ({!Pf_util.Sim_error.protect} + a monotonic deadline), and
    every reported artifact — points, aggregates, frontiers, emitters —
    is a deterministic function of the space and suite, independent of
    [--jobs]. *)

type variant = Arm | Fits of int option
(** An instruction-stream variant: the source ARM stream, or a FITS
    synthesis with the given dictionary budget ([None] = uncapped). *)

val variant_label : variant -> string
(** ["arm"], ["fits"], or ["fits@<budget>"]. *)

val variant_is_arm : variant -> bool

type metrics = {
  instructions : int;   (** source (ARM) instructions for both ISAs *)
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_pm : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
  gate_count : int;     (** area proxy of this geometry *)
}

type point = {
  variant : variant;
  geometry : Pf_cache.Icache.config;
  metrics : metrics;
}

type bench_run = {
  name : string;
  category : string;
  points : point list;
      (** variant-major ({!variant} order), geometry order within —
          the canonical {!Space.geometries} order *)
  replayed_events : int;
      (** trace events evaluated: Σ trace length × geometries — counted
          identically under both engines (the sweep evaluates every
          geometry per pass), so it stays the unit of explore throughput
          in the bench gate *)
  outputs_consistent : bool;
      (** every recording run printed the reference output *)
}

type row = {
  bench : string;
  outcome : (bench_run, Pf_util.Sim_error.t) result;
  elapsed_s : float;
}

type t = {
  space : Space.t;
  geometries : Pf_cache.Icache.config list;
  variants : variant list;
  rows : row list;       (** one per benchmark, in suite order *)
  completed : int;
  total : int;
  jobs : int;
  engine : Space.engine; (** how geometries were evaluated *)
}

val default_wall_clock_s : float
(** Per-benchmark wall-clock budget (600 s), as in the harness sweep. *)

val run :
  ?scale:int ->
  ?max_steps:int ->
  ?wall_clock_s:float ->
  ?jobs:int ->
  ?engine:Space.engine ->
  ?benchmarks:Pf_mibench.Registry.benchmark list ->
  Space.t ->
  t
(** Explore the space over [benchmarks] (default: the full 21-benchmark
    suite) with [jobs] worker domains.  [engine] forces the evaluation
    engine; by default {!Space.choose_engine} picks per space (replay
    for sparse grids, single-pass sweep for dense ones) — results are
    bit-identical either way.  A failing benchmark is isolated into its
    row ([Error]); it never aborts the sweep. *)

type recording
(** A benchmark's recorded executions — image, per-ISA traces,
    translations, recording-run results — separated from the geometry
    sweeps.  A recording is a function of (program, [max_steps],
    [dict_budgets]) alone; cache geometry never enters, so one recording
    serves any number of geometry evaluations.  Immutable once built:
    sweeping only reads it, so a recording may be shared across domains
    (the serve daemon shares them across explore-point requests). *)

val record :
  ?scale:int ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  dict_budgets:int option list ->
  Pf_mibench.Registry.benchmark ->
  recording
(** The expensive half of {!run_benchmark}: 1 + |dict_budgets| recording
    executions under the block-compiled engine (results are
    engine-invariant), with the synthesis profile derived from the ARM
    trace ({!Pf_cpu.Trace.exec_counts}) instead of a dedicated counting
    run.  Unprotected; exceptions (including watchdogs) propagate. *)

val sweep_recording :
  ?engine:Space.engine ->
  geometries:Pf_cache.Icache.config list ->
  recording ->
  bench_run
(** The geometry half: evaluate every grid point from the recording, by
    per-geometry replay (default) or the single-pass [Sweep] kernel —
    bit-identical either way.  Read-only on the recording. *)

val run_benchmark :
  ?scale:int ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?engine:Space.engine ->
  ?recording:recording ->
  geometries:Pf_cache.Icache.config list ->
  dict_budgets:int option list ->
  Pf_mibench.Registry.benchmark ->
  bench_run
(** One benchmark, unprotected (exceptions propagate) — {!run} wraps
    this.  [engine] defaults to [Replay].  [recording] substitutes an
    existing {!record} result (its [scale]/[max_steps]/[dict_budgets]
    must match the arguments, which then go unused). *)

val arm_sweep :
  image:Pf_arm.Image.t ->
  output:string ->
  geometries:Pf_cache.Icache.config list ->
  Pf_cpu.Trace.t ->
  point list
(** Replay a recorded ARM trace through every geometry — the DSE inner
    loop, exposed so test/test_alloc.ml can assert it allocates O(grid),
    not O(trace events). *)

val fits_sweep :
  dict_budget:int option ->
  like:Pf_fits.Run.result ->
  geometries:Pf_cache.Icache.config list ->
  Pf_fits.Translate.t ->
  Pf_cpu.Trace.t ->
  point list
(** FITS counterpart of {!arm_sweep}; [like] is the recording run. *)

(** {2 Derived views} *)

val completed_runs : t -> bench_run list
val replayed_events : t -> int
val diverged : t -> bool
(** True when any completed benchmark printed non-reference output —
    the CLI maps this to exit code 3, as [run]/[figures] do. *)

val banner : t -> string
(** Completion summary plus any failed or diverged benchmarks. *)

val aggregate : t -> point list
(** Suite-aggregate point per (variant, geometry), in point order:
    counts, energies and cycles sum over completed benchmarks (in suite
    order, so float sums are order-fixed); IPC and the I-cache miss rate
    are recomputed from the sums; the (geometry-invariant) D-cache rate
    is an instruction-weighted mean. *)

val objectives : point -> Pareto.objectives
(** (total energy, IPC, miss rate, gate count) of one point. *)

val frontier_of : point list -> point Pareto.front
(** {!Pareto.frontier} over {!objectives}, preserving point order. *)

(** {2 Emitters} *)

val to_csv : t -> string
(** One row per (benchmark, variant, geometry) plus a ["suite"] aggregate
    group; the [pareto] column marks frontier membership within each
    group.  Floats print with ["%.17g"] (lossless round-trip). *)

val to_json : t -> string
(** Same content as {!to_csv}, as a single JSON document with per-
    benchmark point arrays, the suite aggregate, and failed rows. *)
