(** Execute a translated FITS program on the simulated SA-1100-class core:
    the FITS16/FITS8 configurations of the paper's evaluation.

    The programmable decoder is modeled by the per-instruction micro-
    operations produced at translation time; architectural state and
    semantics are shared with the ARM runner ({!Pf_arm.Exec}), and the
    timing, I-cache and power models are the same {!Pf_cpu.Pipeline} /
    {!Pf_cache.Icache} / {!Pf_power.Account} instances the ARM runner
    uses.  The only differences are the ones the paper studies: 16-bit
    instructions (two per 32-bit fetch) and the synthesized encodings on
    the fetch path. *)

type result = {
  fits_instructions : int;    (** 16-bit instructions retired *)
  arm_instructions : int;     (** source instructions they implement *)
  dyn_one_to_one_pct : float; (** Figure 4: dynamic 1-to-1 mapping rate *)
  cycles : int;
  ipc : float;                (** source (ARM) instructions per cycle *)
  fetch_accesses : int;
  output : string;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
      (** the fixed 8 KB data cache (constant across configurations) *)
  power : Pf_power.Account.report;
}

type engine = Pf_cpu.Arm_run.engine = Reference | Compiled
(** Interpreter choice, shared with the ARM runner: [Compiled] (default)
    is the one fast engine, {!Pf_cpu.Step.run}, dispatching the
    predecoded stream per basic block (when [on_step] is supplied,
    {!Pf_cpu.Step.step} drives it one instruction at a time, since the
    hook observes every step); [Reference] dispatches {!Mapping.micro}
    through {!Pf_arm.Exec.execute} each step and is kept as the
    differential oracle.  Bit-identical results across both. *)

val predecode : Translate.t -> Pf_arm.Pexec.uop array
(** Predecode the translated 16-bit stream: one micro-op per slot
    (indexed like [Translate.insns]), with the same pipeline metadata the
    reference runner attaches. *)

val stepper :
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pf_cpu.Pipeline.config ->
  ?classify:bool ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Pf_cpu.Trace.t ->
  Translate.t ->
  Pf_cpu.Step.t
(** The translated program as a FITS core: its {!predecode}d stream with
    the per-slot source-retirement flags ([Translate.first], singleton
    groups) behind the ARM-instruction counts.  {!run} drives one; the
    multicore machine ({!Pf_mc.Machine}) interleaves several. *)

val run :
  ?engine:engine ->
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pf_cpu.Pipeline.config ->
  ?classify:bool ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?on_step:(Pf_arm.Exec.t -> steps:int -> unit) ->
  ?trace:Pf_cpu.Trace.t ->
  Translate.t ->
  result
(** The I-cache, its power account and the pipeline come from
    {!Pf_cpu.Pipeline.stack}, priced by the run's own geometry.  [cache]
    supplies a pre-built I-cache instance (the fault injector uses this to
    schedule tag flips) and brings its own geometry; otherwise a fresh one
    of [cache_cfg] (default 16 KB / 32 B / 32-way) is built.  [on_step]
    is called after every retired 16-bit instruction with the
    architectural state — the register-file injection hook.  Both
    default to off and cost nothing when unused.  [deadline] is the
    wall-clock watchdog, polled in the execute loop every
    [Pf_arm.Exec.deadline_mask + 1] steps.  [trace] (created with
    [isize:2]) records the retired stream for {!replay}. *)

val replay :
  ?pipeline_cfg:Pf_cpu.Pipeline.config ->
  ?classify:bool ->
  cache_cfg:Pf_cache.Icache.config ->
  like:result ->
  Translate.t ->
  Pf_cpu.Trace.t ->
  result
(** Replay a recorded FITS stream through a fresh cache/pipeline/power
    stack of another geometry, priced by that geometry; bit-identical to
    a direct {!run} with the same [cache_cfg].  Execution-derived fields
    (instruction counts, mapping rate, program output) are carried over
    from [like], the result of the recording run. *)
