(** The one fast engine, for both ISAs: a per-core object that runs a
    predecoded instruction stream through the full I-cache + pipeline +
    power stack.

    Each [t] is one core: architectural state, predecoded micro-ops,
    private I-cache, private D-cache, pipeline and power account.  It is
    driven two ways:
    - {!run} is the block-compiled driver behind [Arm_run.run] and
      [Pf_fits.Run.run] (their [Compiled] engine): one dispatch per basic
      block, fused ALU runs charged by one {!Pipeline.issue_events} call,
      block-granular trace events;
    - {!step} retires exactly one instruction.  A multicore scheduler
      ({!Pf_mc.Machine}) interleaves cores with it, and the FITS runner's
      [on_step] hook path loops it.
    {!run} executes {!step} itself whenever a watchdog exhaustion or a
    deadline poll (every [Exec.deadline_mask + 1] steps) would land inside
    the next block, so faults, polls and every statistic are identical
    either way.  Every other retirement walks the core's D-cache and packs
    its meta word once ({!Trace.live_meta}), then hands that same word to
    {!Pipeline.issue} and, when recording, to {!Trace.record_packed}.
    Both drivers are pinned bit-identical to the [Reference] oracles
    field by field, floats by their IEEE bits. *)

type result = {
  instructions : int;       (** retired instructions at this core's isize *)
  src_instructions : int;
      (** ARM-source instructions: equals [instructions] on ARM cores,
          counts first-of-group slots on FITS cores *)
  src_one_to_one : int;
      (** source instructions whose FITS group is a single instruction
          (the dynamic 1-to-1 mapping numerator); 0 on ARM cores *)
  cycles : int;
  ipc : float;              (** source instructions per cycle *)
  fetch_accesses : int;
  output : string;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

type t

val default_cache_cfg : Pf_cache.Icache.config
(** The I-cache a core gets without [cache] or [cache_cfg]:
    {!Pipeline.default_cache_cfg}, the SA-1100's 16 KB / 32 B / 32-way
    ARM16 baseline. *)

val create :
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pipeline.config ->
  ?classify:bool ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Trace.t ->
  ?src:bool array * bool array ->
  isize:int ->
  code_base:int ->
  words:int array ->
  entry:int ->
  uops:Pf_arm.Pexec.uop array ->
  Pf_arm.Exec.t ->
  t
(** Build a core over an already-predecoded stream.  [isize] is 4 (ARM)
    or 2 (FITS); [words] is the code segment the I-cache fetches from,
    indexed from [code_base] in 32-bit words.  [src], for FITS cores,
    gives per-slot (first-of-group, group-is-singleton) flags indexed
    like [uops] — they drive the source-instruction counts the FITS
    runner reports.  The I-cache, power account and pipeline come from
    {!Pipeline.stack}: [cache] substitutes a pre-built I-cache (one
    created with [~classify:true], or with scheduled tag flips) whose own
    geometry prices the account, otherwise a fresh one of [cache_cfg] is
    built.  [max_steps] (default 500 million) is the per-core watchdog;
    [trace] must be created with the matching [isize]. *)

val of_image :
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  ?pipeline_cfg:Pipeline.config ->
  ?classify:bool ->
  ?max_steps:int ->
  ?deadline:Pf_util.Deadline.t ->
  ?trace:Trace.t ->
  Pf_arm.Image.t ->
  t
(** ARM convenience: predecode the image ({!Pf_arm.Pexec.compile}), make
    a fresh {!Pf_arm.Exec.t} and wrap them as an [isize]-4 core. *)

val run : t -> unit
(** Run the core to completion with the block-compiled driver.  Raises
    exactly what a loop of {!step} would raise, at the same step. *)

val step : t -> unit
(** Advance the core by exactly one instruction (or by the halt
    transition when the pc reaches the sentinel).  No-op once halted.
    Raises the sequential runners' structured errors: [Watchdog_timeout],
    [Decode_fault] and deadline expiry under [where = "arm.exec"] on ARM
    cores and [where = "fits.run"] on FITS cores, with their messages. *)

val halted : t -> bool

val steps : t -> int
(** Instructions retired so far (the watchdog counter). *)

val pc : t -> int

val state : t -> Pf_arm.Exec.t
(** The architectural state — shared-memory layers read and write its
    [mem] directly. *)

val dcache : t -> Pf_cache.Icache.t
(** The private D-cache, exposed so a coherence layer can snoop
    ({!Pf_cache.Icache.invalidate_addr}). *)

val stored_addr : t -> int
(** Lowest byte address written by the most recent {!step}, or [-1] if it
    executed no store.  Multi-word stores (push) cover
    [\[stored_addr, stored_addr + 4 * stored_words)]. *)

val stored_words : t -> int
(** Words written by the most recent step's store ([0] if none; byte and
    half stores report [1] — the containing word). *)

val result : t -> result
(** Snapshot of the core's counters, output and power report, assembled
    exactly as the sequential runners assemble theirs.  Also publishes
    the D-cache miss rate into the core's trace, as the runners do. *)
