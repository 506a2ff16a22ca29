(** Sim-panalyzer-style power accounting for one instruction cache.

    Implements the paper's model (§4.1):  P = A·C·V²·f + V·I_leak, split as

    - {b switching} power: output drivers and address path, proportional to
      per-access bit toggles plus refill traffic on misses;
    - {b internal} power: clock/precharge power of the whole cache block,
      proportional to gate count, accrued every cycle the cache is on;
    - {b leakage} power: proportional to gate count and elapsed time;
    - {b peak} power: maximum power over any accounting window.

    Accounting is {e integer event counting}: accesses, toggles, refill
    words, cycles and retired instructions.  Every energy figure is a
    closed-form function of those counters ({!switching_energy},
    {!window_power}, {!report_of_counts}), evaluated on demand — never an
    accumulation of per-access floats.  Two simulators that count the same
    integers therefore report bit-identical floats, which is what lets the
    single-pass all-geometry DSE kernel reproduce a per-geometry replay
    exactly.  Peak windows close every [peak_window_insns] {e retired
    instructions} ({!on_block}), an event-aligned boundary shared by all
    geometries; a cycle-aligned window would close at geometry-dependent
    points.

    Energies are in arbitrary consistent units; every figure reports
    ratios against the ARM16 baseline, where the units cancel. *)

module Params : sig
  type t = {
    k_access : float;
        (** fixed energy per access: bitline precharge, wordline drive and
            output-bus switching at a constant activity factor — the term
            that makes switching power proportional to fetch count *)
    k_output : float;
        (** energy per data-dependent output/address toggle *)
    k_refill_per_bit : float;
        (** energy per bit written on refill (switching component) *)
    k_internal_per_gate : float;
        (** per-gate per-cycle clock energy (internal component) *)
    k_leakage_per_gate : float;
        (** per-gate per-cycle leakage energy (static component) *)
    peak_window_insns : int;
        (** retired instructions per peak-power evaluation window *)
  }

  val default : t
  (** Calibrated so an ARM16/SA-1100-like run shows the paper's Figure 6
      breakdown: internal > 50 %, switching ≈ a third, leakage ≈ a tenth
      (0.35 um process, where leakage is minor). *)

  val for_geometry : ?base:t -> Geometry.t -> t
  (** Analytic scaling of [base] (default {!default}) to an arbitrary
      cache organization: what {!create} prices every account with.  A
      read probes [assoc] ways of [block_bytes] each, so [k_access]
      scales with [assoc * block_bytes * 8] relative to the reference
      32-way / 32 B organization (8192 bits) the constants were
      calibrated on; at both paper geometries (16 K and 8 K, which share
      ways and block size) the result equals [base] exactly, so grid
      points coincide with the published ARM16/ARM8/FITS16/FITS8
      numbers.  Cache {e size} affects power through the geometry's gate
      count (internal and leakage terms) rather than through any
      coefficient here. *)
end

(** {2 Closed-form energy expressions}

    The single source of the model's float arithmetic, shared by the
    incremental accountant below and by batch evaluators (the DSE sweep
    kernel) that count accesses/toggles/cycles themselves.  Keeping every
    caller on these exact expressions is what makes their reports
    bit-identical. *)

val switching_energy :
  Params.t -> accesses:int -> toggles:int -> refill_words:int -> float
(** [k_access·accesses + k_output·toggles + k_refill_per_bit·32·refill_words]. *)

val internal_per_cycle : Params.t -> Geometry.t -> float
val leakage_per_cycle : Params.t -> Geometry.t -> float

val window_power :
  Params.t ->
  Geometry.t ->
  accesses:int ->
  toggles:int ->
  refill_words:int ->
  cycles:int ->
  float
(** Power of one accounting window: switching energy over the window
    divided by its cycle count, plus the static per-cycle terms.
    [cycles] must be positive (zero-cycle windows carry no sample). *)

type t

val create : ?params:Params.t -> Geometry.t -> t
(** A fresh account for an I-cache of this geometry, priced by it:
    [params] defaults to [Params.for_geometry geometry], so every
    charging stack — direct run, replay, sweep lane — prices one
    geometry identically.  [params] is the seam for hand-checked
    coefficients and short peak windows in unit tests; the lint keeps
    it (and [Params.for_geometry]) out of [lib/] outside this
    library. *)

val params : t -> Params.t
(** The coefficients this account prices with — for batch evaluators
    (the DSE sweep kernel) that evaluate the closed forms themselves. *)

val window_room : t -> int
(** Retirements left before the open peak window closes; always in
    [1, peak_window_insns].  The batch quantum for {!on_block}. *)

val on_block : t -> accesses:int -> toggles:int -> refilled_words:int ->
  cycles:int -> insns:int -> unit
(** Account [insns] retired instructions whose cache activity sums to
    [accesses] accesses with [toggles] output/address toggles and
    [refilled_words] refill words, over [cycles] cycles (internal and
    leakage accrue per cycle).  Every [peak_window_insns] retirements the
    open window is evaluated ({!window_power}) into the running peak and
    a fresh window starts.  Instruction retirement is the one event
    stream shared by every cache geometry replaying the same trace, so
    window boundaries land at identical points across a design-space
    sweep.  A batch is bit-identical to charging its instructions one by
    one {e provided} [insns <= window_room t]: window sums are order-free,
    so the only thing a batch could get wrong is skipping a close that
    falls strictly inside it.  {!Pf_cpu.Pipeline} chunks its batches by
    [window_room]. *)

type report = {
  switching : float;
  internal : float;
  leakage : float;
  total : float;          (** switching + internal + leakage *)
  peak_power : float;     (** max energy/cycle over any closed window *)
  cycles : int;
}

val report : t -> report
(** Read-only: evaluates the closed forms over the counters, folding any
    open partial window into the peak without disturbing it — safe to call
    mid-stream and repeatedly. *)

val report_of_counts :
  t ->
  accesses:int ->
  toggles:int ->
  refill_words:int ->
  cycles:int ->
  peak:float ->
  report
(** The report [t] gives for externally-maintained counters, priced with
    [t]'s params and geometry ([t]'s own counters are ignored) — the
    batch path used by the all-geometry sweep kernel.  Feeding the
    counters an incremental accountant would have accumulated yields the
    bit-identical report. *)

val avg_power : report -> float
(** Mean power in energy units per cycle. *)
