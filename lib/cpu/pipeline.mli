(** SA-1100-class in-order dual-issue timing model.

    The paper's simulated core is "a dual-issue, in-order machine" with a
    maximum IPC of 2 (§6.4.2), modeled after the StrongARM SA-1100 at
    200 MHz.  This module charges cycles per retired instruction:

    - up to two instructions issue per cycle when the second has no RAW
      dependence on the first, at most one is a memory operation, and the
      first is neither a branch nor a multiply;
    - a taken branch pays a redirect penalty;
    - a load feeding the immediately following instruction pays a bubble;
    - multiplies and multi-word load/store multiple pay extra cycles;
    - every instruction-fetch word goes through the I-cache; a miss stalls
      the front end for the refill latency.

    The pipeline owns the fetch path: it decides when a new 32-bit word
    must be read from the I-cache.  16-bit (FITS) instructions that fall in
    the word fetched by the previous instruction reuse the fetch buffer —
    the mechanism by which halved code size halves fetch traffic. *)

type insn_class = Alu | Mul | Load | Store | Branch | System

type predictor =
  | No_prediction   (** every taken branch pays the redirect *)
  | Btfn
      (** static backward-taken / forward-not-taken prediction: only
          mispredicted direct branches (and all indirect ones) pay *)

type config = {
  dual_issue : bool;
  miss_penalty : int;       (** cycles to refill a line from memory *)
  branch_penalty : int;     (** redirect cycles on a taken branch *)
  load_use_bubble : int;
  mul_extra : int;
  ldm_word_extra : int;     (** extra cycles per additional LDM/STM word *)
  fetch_buffer : bool;
      (** when false, every instruction re-reads the cache even within the
          same 32-bit word — the ablation that removes FITS' fetch-traffic
          halving *)
  predictor : predictor;
}

val sa1100 : config
(** 200 MHz StrongARM-like defaults: dual issue, 24-cycle miss penalty,
    2-cycle taken-branch redirect, 1-cycle load-use bubble, 2 extra cycles
    per multiply. *)

val mispredicted :
  config -> cls:insn_class -> taken:bool -> backward:bool -> bool
(** Does this retirement pay the redirect penalty?  Pure function of the
    config and geometry-invariant event fields — the exact predicate
    {!issue} applies, exposed so trace-level evaluators (the all-geometry
    DSE sweep) charge identical penalties. *)

val extra_cycles :
  config ->
  cls:insn_class ->
  taken:bool ->
  backward:bool ->
  mem_words:int ->
  int
(** Back-end penalty cycles of one retirement (multiply latency, extra
    LDM/STM words, branch redirect) — exactly what {!issue} spends after
    the issue slot itself.  Like {!mispredicted}, shared with trace-level
    evaluators. *)

(** {2 Packed events}

    One retirement is two ints: its fetch address and a meta word packing
    class, branch bits, memory word count, register masks and the D-cache
    misses the live run observed.  This module owns the layout: live
    engines pack it, {!Trace} stores it unchanged, replays and the DSE
    sweep read it back through the accessors below. *)

val cls_code : insn_class -> int
(** Stable numbering of instruction classes (Alu = 0 ... System = 5),
    shared with {!Pf_arm.Pexec} micro-op metadata. *)

val cls_of_code : int -> insn_class
(** Inverse of {!cls_code}; out-of-range codes map to [System]. *)

val static_meta :
  cls_code:int -> backward:bool -> reads:int -> writes:int -> int
(** The per-static-instruction part of a meta word: class, branch
    direction and register masks, with the dynamic fields zero.
    [reads]/[writes] are register bitmasks; [backward] marks a direct
    backward branch (false otherwise) for the static predictor. *)

val dynamic_meta : taken:bool -> mem_words:int -> dmisses:int -> int
(** The per-retirement part: [taken] marks a taken branch, [mem_words]
    the words a memory instruction transfers, [dmisses] the D-cache
    misses they caused.  A full meta word is [static_meta ... lor
    dynamic_meta ...]. *)

val meta_cls_code : int -> int
val meta_taken : int -> bool
val meta_backward : int -> bool
val meta_mem_words : int -> int
val meta_reads : int -> int
val meta_writes : int -> int
val meta_dmisses : int -> int

(** {2 Charging} *)

type t

val create :
  ?config:config ->
  cache:Pf_cache.Icache.t ->
  account:Pf_power.Account.t ->
  words:int array ->
  code_base:int ->
  isize:int ->
  unit ->
  t
(** A pipeline fetching from the code segment [words] (32-bit words,
    [words.(0)] at byte address [code_base]) — what the cache drives on
    its output bus.  [isize] is 4 (ARM) or 2 (FITS): the distance between
    sequential events.  The data side is not modelled here: events
    arrive with their D-cache misses already in the meta word.  The
    low-level constructor: runs and replays build their stack with
    {!stack}; unit tests drive this one with a hand-built account. *)

val default_cache_cfg : Pf_cache.Icache.config
(** 16 KB, 32-byte blocks, 32-way: the SA-1100 I-cache, the ARM16
    baseline — the geometry a {!stack} gets when given none. *)

val stack :
  ?config:config ->
  ?classify:bool ->
  ?cache:Pf_cache.Icache.t ->
  ?cache_cfg:Pf_cache.Icache.config ->
  words:int array ->
  code_base:int ->
  isize:int ->
  unit ->
  t
(** The charging stack of one run or replay: an I-cache, a power account
    priced by that cache's geometry ({!Pf_power.Account.create}) and a
    pipeline over both.  The I-cache is [cache] when given — a pre-built
    instance, e.g. with scheduled tag flips; its geometry is read back
    from it — and otherwise a fresh one of [cache_cfg] (default
    {!default_cache_cfg}), classifying misses when [classify] (default
    false).  Passing a [cache_cfg] that disagrees with [cache] raises
    [Invalid_config]. *)

val issue : t -> addr:int -> meta:int -> unit
(** Charge one retired instruction of any class. *)

val issue_events : t -> ev:int array -> pos:int -> n:int -> unit
(** Charge [n] per-instruction events packed two ints each into [ev]
    from [pos] — the layout {!Trace} stores.  Bit-identical to [n] {!issue} calls: the
    same charging body runs per event, except that each maximal run of
    sequential ALU events staying inside the just-fetched cache line is
    charged as one bulk cache update with per-event pairing, and the
    power accounting goes to {!Pf_power.Account.on_block} in
    peak-window-bounded batches.  Runs are found here, not by callers;
    they are not batched when the fetch buffer is disabled or tag flips
    are pending. *)

val cycles : t -> int
val instructions : t -> int
val ipc : t -> float
val fetch_accesses : t -> int

(** What a charging stack measured: the cache/timing/power half of a
    runner's result record, read by {!stats} the same way for direct
    runs, replays and multicore cores. *)
type stats = {
  instructions : int;
  cycles : int;
  fetch_accesses : int;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
      (** supplied by the caller: the live run's D-cache, or the rate a
          recording carried to its replays *)
  power : Pf_power.Account.report;
}

val stats : t -> dcache_miss_rate_pm:float -> stats
