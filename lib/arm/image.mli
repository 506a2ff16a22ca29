(** Executable program images.

    An image is the output of the compiler/linker: a word stream at
    [code_base] (encoded instructions interleaved with literal-pool
    constants), initialized data at [data_base], and an entry point.  The
    instruction words are pre-decoded once so the simulator does not pay
    decode cost on every fetch; the raw words remain available because the
    I-cache and power models work on real bit patterns. *)

type t = private {
  code_base : int;
  words : int array;              (** code segment, one 32-bit word each *)
  insns : Insn.t option array;    (** pre-decoded view of [words] *)
  entry : int;                    (** entry address *)
  data_base : int;
  data_init : (int * int array) list;  (** (address, words) blobs *)
  mem_size : int;                 (** total simulated memory, bytes *)
  symbols : (string * int) list;  (** function name -> address *)
}

val make :
  ?code_base:int ->
  ?data_base:int ->
  ?mem_size:int ->
  ?data_init:(int * int array) list ->
  ?symbols:(string * int) list ->
  ?code_mask:bool array ->
  entry:int ->
  int array ->
  t
(** [make ~entry words] builds an image.  Defaults: code at [0x8000], data
    at [0x100000], 8 MiB of memory.  [code_mask] marks which words are
    instructions (default: all); words masked off — literal-pool data —
    pre-decode to [None] so no consumer mistakes pool constants for
    instructions.  Raises [Invalid_argument] if segments overlap, a data
    blob is unaligned or the entry point lies outside the code
    segment. *)

val code_size_bytes : t -> int

val code_end : t -> int
(** First address past the code segment. *)

val in_code : t -> int -> bool

val insn_at : t -> int -> Insn.t option
(** Pre-decoded instruction at an address ([None] for pool data or
    out-of-segment addresses). *)

val word_at : t -> int -> int
(** Raw code word at an aligned code address. *)

val symbol : t -> string -> int
(** @raise Not_found if the symbol is not defined. *)

val disassemble : t -> string
(** Human-readable listing of the whole code segment. *)
