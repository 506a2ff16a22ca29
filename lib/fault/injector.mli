(** Seeded single-event-upset injector for the FITS simulation stack.

    The paper's central hardware structures — the programmable decoder
    SRAM, the immediate dictionary, the I-cache tag array — are exactly
    the state most exposed to soft errors, and mis-programming any of
    them silently changes the machine's instruction set.  This module
    plants reproducible bit flips in each of those structures (plus the
    architectural register file), always through an explicit
    {!Pf_util.Rng} stream so a campaign is replayable from its seed.

    The parity variants model a parity-protected array: a flip that
    changes an odd number of bits in one protected entry is {e detected}
    (the entry is poisoned to a trapping state, or the cache line is
    invalidated and refetched); an even number of flips in the same entry
    escapes — the classic coverage gap this subsystem exists to
    measure. *)

type target =
  | Decoder  (** per-instruction control words of the programmable decoder *)
  | Dict     (** 32-bit immediate-dictionary entries *)
  | Icache   (** I-cache tag array *)
  | Regs     (** architectural register file, flipped during execution *)

val target_name : target -> string
val target_of_string : string -> target option

(** Static summary of what one injection pass planted. *)
type trial = {
  flips : int;             (** individual bit flips injected *)
  entries_corrupted : int; (** protected entries (decoder rows, dictionary
                               slots, tag slots) hit by at least one flip *)
  parity_detectable : int; (** of those, entries with an odd flip count —
                               what a parity bit per entry would catch *)
}

val no_trial : trial

val corrupt_decoder :
  Pf_util.Rng.t -> rate:float -> parity:bool -> Pf_fits.Translate.t ->
  Pf_fits.Translate.t * trial
(** Flip each bit of each instruction's control word
    ({!Pf_fits.Decode.word_bits} wide) with probability [rate], then
    re-decode the corrupted fields into new micro-operations.  Entries
    whose stored fields cannot faithfully reproduce their micro-operation
    (see {!Pf_fits.Decode.faithful}) are poisoned to [M_undef] when hit.
    With [parity], detected (odd-flip) entries trap on fetch instead of
    executing corrupted semantics. *)

val corrupt_dict :
  Pf_util.Rng.t -> rate:float -> parity:bool -> Pf_fits.Translate.t ->
  Pf_fits.Translate.t * trial
(** Flip bits of the 32-bit dictionary values, then re-decode every
    instruction whose operand field indexes a corrupted slot. *)

val schedule_icache_flips :
  Pf_util.Rng.t -> rate:float -> parity:bool -> accesses:int ->
  Pf_cache.Icache.t -> trial
(** Plant tag-array flips, each scheduled at a uniformly random access
    count in [\[1, accesses\]].  With [parity], detected (odd-flip) slots
    are invalidated-and-refetched rather than corrupted, so they are not
    scheduled at all. *)

val regs_hook :
  Pf_util.Rng.t -> rate:float ->
  (Pf_arm.Exec.t -> steps:int -> unit) * (unit -> trial)
(** Per-step register-file injector for {!Pf_fits.Run.run}'s [on_step]:
    with probability [rate] per retired instruction, flips one random bit
    of one random architectural register.  The second component reports
    what happened once the run finishes. *)
