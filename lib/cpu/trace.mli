(** Compact instruction-stream traces: execute once, replay through many
    cache geometries.

    The paper's four configurations pair two instruction streams (ARM,
    FITS) with two I-cache sizes (16 KB, 8 KB).  The stream a program
    executes is a function of the ISA alone — cache geometry changes
    timing and power, never architectural behaviour — so the harness
    executes each ISA once, recording everything the timing/power stack
    consumes, and replays the recording through the other geometry.
    "Application Specific Cache Simulation Analysis for ASIP" (PAPERS.md)
    applies the same trace-once/replay-many structure to its cache design
    space sweep.

    A trace stores exactly the events a live run hands {!Pipeline.issue}:
    the fetch address and the packed meta word ({!Pipeline.static_meta}
    [lor] {!Pipeline.dynamic_meta}), whose D-cache miss count lets a
    replay charge the recorded data-side stalls instead of re-simulating
    the (configuration-invariant) D-cache.  A replay feeds the stored
    words to {!Pipeline.issue_events} unchanged.  Storage is a chunked
    flat [int array] — two ints per retired instruction in 65 536-event
    chunks, no per-event allocation — so recording costs a few stores per
    instruction and a 10M-instruction trace takes ~160 MB at worst and
    typically far less. *)

type t

val create : isize:int -> unit -> t
(** Fresh empty trace for instructions of [isize] bytes (4 = ARM,
    2 = FITS). *)

val isize : t -> int

val length : t -> int
(** Retired instructions recorded so far. *)

val record_packed : t -> addr:int -> meta:int -> unit
(** Append one event: the [addr]/[meta] pair just handed to
    {!Pipeline.issue}. *)

val register_pairs : t -> int array -> int
(** Register a compiled block's pairs table — (addr, meta) two ints per
    instruction, [record_packed]'s layout, ALU-shaped and strictly
    sequential — returning the table id {!record_span} references.  The
    table is aliased, not copied: it must not change for the life of the
    trace (the engines' tables are block-compile-time constants). *)

val record_span : t -> tid:int -> pos:int -> n:int -> unit
(** Append a fused ALU run of [n] events as ONE block-granular trace
    event referencing [n] pairs of registered table [tid] starting at int
    offset [pos].  Consumers expand it to exactly the stream [n]
    {!record_packed} calls of those pairs would have recorded; the
    recording itself is two stores regardless of [n]. *)

val set_dcache_rate : t -> float -> unit
(** Store the recording run's final D-cache miss rate (per million);
    replays report it verbatim — the data-side stream is identical in
    every configuration, so re-measuring it would only cost time. *)

val dcache_rate : t -> float
(** The stored D-cache miss rate (per million); what {!replay} reports as
    [dcache_miss_rate_pm]. *)

(** {2 Raw event iteration}

    Trace-level evaluators (the all-geometry DSE sweep kernel) process
    events without driving a pipeline object per geometry.  They read the
    same packed events the pipeline charges. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f addr meta] for every recorded event in order.
    [meta] is the packed metadata word; decode it with the
    [Pipeline.meta_*] accessors. *)

val exec_counts : t -> base:int -> n:int -> int array
(** Per-slot execution counts of the recorded stream: slot
    [(addr - base) / isize] of an [n]-slot code segment.  For an ARM
    recording this is bit-identical to the per-word profile a dedicated
    counting run produces — the trace {e is} the executed sequence —
    letting the harness feed instruction-set synthesis without a separate
    profiling execution. *)

val dcache_cfg : Pf_cache.Icache.config
(** The fixed SA-1100-like 8 KB data cache shared by every configuration
    (simulated by live runs only; replays use the recorded misses). *)

val live_meta :
  Pf_cache.Icache.t ->
  static:int ->
  taken:bool ->
  mem_addr:int ->
  mem_words:int ->
  int
(** The full meta word of one live retirement: walks the [mem_words]
    words from [mem_addr] ([-1] = none) through the run's D-cache when
    [static] ({!Pipeline.static_meta}) is a load or store, and packs the
    misses with the dynamic fields.  Every live engine builds its events
    here and hands the same word to {!Pipeline.issue} and, when
    recording, to {!record_packed}. *)

val replay :
  ?pipeline_cfg:Pipeline.config ->
  ?classify:bool ->
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  words:int array ->
  code_base:int ->
  t ->
  Pipeline.stats
(** Drive a fresh charging stack ({!Pipeline.stack} of [cache] or
    [cache_cfg], priced by that geometry) with the recorded stream;
    data-side stalls come from the recorded miss counts and
    [dcache_miss_rate_pm] is the recording's ({!dcache_rate}).
    [words]/[code_base] must be the code segment the recording run
    fetched from (see {!Pipeline.create}).  Identical to what the same
    instruction stream measures when simulated directly: replay charges
    the same events through the same pipeline body. *)
