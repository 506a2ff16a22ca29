(** Layout and linking: turn compiled functions into an executable image.

    The linker synthesizes the [_start] stub (call main, SWI #0), assigns
    addresses to globals and functions, places one literal pool after each
    function for the constants it loads, resolves labels and calls into
    PC-relative branches, and packs global initializers into data words. *)

exception Link_error of string

val link :
  ?code_base:int ->
  ?data_base:int ->
  ?mem_size:int ->
  Mach.fundef list ->
  Pf_kir.Ast.global list ->
  Pf_arm.Image.t
(** [link fundefs globals] produces a loadable image.  [fundefs] must
    define ["main"].
    @raise Link_error on branch/pool offsets out of range or missing
    symbols.  A program too big for the address space (globals leaving
    no room for the stack, code overflowing into the data segment) raises
    {!Pf_util.Sim_error.Error} with [Invalid_config]. *)
