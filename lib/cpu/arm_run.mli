(** Run an ARM image through the full stack: architectural interpreter +
    I-cache + pipeline timing + power accounting.  This produces the ARM16
    and ARM8 data points of the paper's four simulated configurations. *)

type result = {
  instructions : int;
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  output : string;              (** program's printed output *)
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
      (** the fixed 8 KB data cache (constant across configurations) *)
  power : Pf_power.Account.report;
}

(** Which interpreter drives the run.  [Compiled] (the default) is the
    one fast engine, {!Step.run}: {!Pf_arm.Pexec} micro-ops grouped into
    basic blocks ({!Pf_arm.Bexec}) and dispatched per block, with dead
    flag writes elided and watchdog/deadline checks honored at exact
    per-instruction granularity.  [Reference] walks {!Pf_arm.Exec.run},
    re-deriving everything per dynamic step; it is kept as the
    differential-testing oracle.  Results — cycles, toggles, every power
    float, recorded traces, outputs, fault pcs — are bit-identical across
    both. *)
type engine = Reference | Compiled

val run :
  ?engine:engine ->
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pipeline.config ->
  ?classify:bool ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Trace.t ->
  Pf_arm.Image.t ->
  result
(** The I-cache, its power account and the pipeline come from
    {!Pipeline.stack}, so the run is priced by its own geometry.  Default
    cache: 16 KB, 32-byte blocks, 32-way (the SA-1100 I-cache).  [cache]
    substitutes a pre-built I-cache instance (e.g. one created with
    [~classify:true] for miss-class inspection) and brings its own
    geometry; otherwise a fresh one is built from [cache_cfg].
    [deadline] is the wall-clock watchdog, polled inside the execute loop.
    [trace] (created with [isize:4]) additionally records every retired
    instruction so other cache geometries can be {!replay}ed without
    re-executing. *)

val replay :
  ?pipeline_cfg:Pipeline.config ->
  ?classify:bool ->
  cache_cfg:Pf_cache.Icache.config ->
  output:string ->
  Pf_arm.Image.t ->
  Trace.t ->
  result
(** Re-run a recorded trace through a fresh cache/pipeline/power stack of
    a (typically different) geometry, priced by that geometry.  Produces
    bit-identical statistics to a direct {!run} of the same image with
    [cache_cfg]: the recorded events are the very words the live run
    charged, and replay charges them through the same pipeline body.
    [output] is the program output captured by the recording run (replay
    does not execute). *)

(** Per-instruction metadata used by the timing model; exposed for the FITS
    runner which shares the pipeline. *)
module Meta : sig
  val classify : Pf_arm.Insn.t -> Pipeline.insn_class
  val read_mask : Pf_arm.Insn.t -> int
  val write_mask : Pf_arm.Insn.t -> int
end
