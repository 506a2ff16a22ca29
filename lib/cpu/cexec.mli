(** Compiled-block tables for the [Compiled] engine: each
    {!Pf_arm.Bexec.block} paired with its precomputed packed (addr,
    static meta) events, so recording drivers emit block-granular trace
    events ({!Trace.record_span} into the registered [pairs] table) and
    charge fused ALU runs as single {!Pipeline.issue_events} calls.
    Lazily built, like the underlying block table. *)

type cblock = {
  bb : Pf_arm.Bexec.block;
  pairs : int array;
      (** [2 * len] ints: slot [2i] the fetch address of instruction [i]
          (a block-compile-time constant — blocks are straight-line),
          slot [2i+1] its {!Pipeline.static_meta} (original micro-op
          metadata), index-aligned with [bb.xuops]/[bb.shapes].  Exactly
          the event layout {!Pipeline.issue_events} consumes and
          {!Trace.register_pairs} aliases for the span of instructions
          \[i, i+n). *)
  mutable tid : int;
      (** {!Trace.register_pairs} id of [pairs] in the run's trace; -1
          until the block first records *)
}

type t

val create : isize:int -> code_base:int -> Pf_arm.Bexec.t -> t
(** [isize] (4 = ARM, 2 = FITS) and [code_base] place each block's
    instructions at their fetch addresses
    [code_base + isize * (bb.start + i)] in the packed [pairs]. *)

val block_at : t -> int -> cblock
(** The compiled block with leader slot [s], built and cached on first
    use. *)

val bexec : t -> Pf_arm.Bexec.t
(** The underlying block table (probe statistics). *)
