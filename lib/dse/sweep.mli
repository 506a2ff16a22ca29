(** Single-pass all-geometry cache simulation (Mattson stack distances).

    {!run} makes ONE annotated pass over a recorded trace and produces,
    for every cache geometry of a grid simultaneously, statistics that
    are bit-identical to what {!Pf_cpu.Trace.replay} measures geometry
    by geometry — hits, misses, cycle counts, toggle activity, energy
    breakdown and instruction-windowed peak power.

    The kernel exploits three properties of the simulated machine (see
    the implementation header for the correctness argument, and
    DESIGN.md for the full derivation):

    - the I-cache is exact LRU, so one Mattson stack-distance profile
      per (block size, set count) pair resolves hit/miss for all
      associativities at once (LRU inclusion);
    - the instruction stream, fetch filtering, output-bus words and
      data-side stalls are geometry-invariant, so they are computed once
      and shared by all lanes;
    - dual-issue pairing and power accounting admit per-lane recurrences
      evaluated word-parallel over lane bitmasks, with peak windows
      closing on instruction-aligned (hence geometry-invariant) trace
      indices.

    Cost is O(events x profiles) time and O(code span) space per
    profile, instead of replay's O(events x geometries) — on dense
    grids (many associativities and sizes per block size) this is an
    order of magnitude faster than per-geometry replay.  The replay
    path remains the differential-testing oracle. *)

(** Miss classification of one geometry (lane), produced only when
    [classify] is set: same definitions as the {!Pf_cache.Icache}
    shadow-cache classifier (compulsory = first touch of the block;
    conflict = resident in a fully-associative cache of equal capacity;
    capacity = the rest). *)
type miss_classes = { compulsory : int; capacity : int; conflict : int }

type result = {
  stats : Pf_cpu.Pipeline.stats array;
      (** one per input geometry, in input order; each bit-identical to
          [Trace.replay ~cache_cfg:geometry ...] of the same trace *)
  classes : miss_classes array option;
      (** [Some] iff [classify] was set; parallel to [stats] *)
}

val run :
  ?pipeline_cfg:Pf_cpu.Pipeline.config ->
  ?classify:bool ->
  geometries:Pf_cache.Icache.config list ->
  words:int array ->
  code_base:int ->
  Pf_cpu.Trace.t ->
  result
(** Evaluate every geometry of [geometries] against the trace in one
    pass.  [words]/[code_base] must be the code segment the recording
    run fetched from, as {!Pf_cpu.Trace.replay} takes it.  Each lane is
    priced by its own geometry, exactly as the account of its replay
    ({!Pf_power.Account.create}).  [classify] (default false)
    additionally classifies every miss per lane; this engages a slower
    shared-shadow path and is meant for differential tests, not hot
    sweeps.
    Geometries are validated ({!Pf_cache.Icache.validate}); duplicates
    are allowed and evaluated independently. *)
