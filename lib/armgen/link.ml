open Pf_kir.Ast
module A = Pf_arm.Insn

exception Link_error of string

let error fmt = Format.kasprintf (fun s -> raise (Link_error s)) fmt

(* The program itself does not fit the address space: the client's
   fault, not the linker's. *)
let too_big fmt =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
    ~where:"armgen.link" fmt

(* Pack initializer elements into little-endian words. *)
let pack_words scale length init =
  let bytes = Bytes.make (((length * scale_bytes scale) + 3) land lnot 3) '\000' in
  (match init with
  | None -> ()
  | Some a ->
      Array.iteri
        (fun idx value ->
          let off = idx * scale_bytes scale in
          match scale with
          | W8 -> Bytes.set bytes off (Char.chr (value land 0xFF))
          | W16 -> Bytes.set_uint16_le bytes off (value land 0xFFFF)
          | W32 ->
              Bytes.set_int32_le bytes off
                (Int32.of_int (Pf_util.Bits.u32 value)))
        a);
  Array.init
    (Bytes.length bytes / 4)
    (fun w -> Int32.to_int (Bytes.get_int32_le bytes (w * 4)) land 0xFFFF_FFFF)

let layout_globals ~data_base globals =
  let tbl = Hashtbl.create 16 in
  let next = ref data_base in
  let blobs = ref [] in
  List.iter
    (fun g ->
      let addr = (!next + 3) land lnot 3 in
      Hashtbl.replace tbl g.gname addr;
      (match g.init with
      | Some _ -> blobs := (addr, pack_words g.gscale g.length g.init) :: !blobs
      | None -> ());
      next := addr + (g.length * scale_bytes g.gscale))
    globals;
  (tbl, List.rev !blobs, !next)

let start_stub =
  { Mach.fname = "_start";
    items = [ Mach.Call "main"; Mach.Insn (A.Swi { cond = AL; number = 0 }) ] }

(* LDR literal reach is +-4095 bytes from pc+8; keep a safety margin for
   the pool's own size. *)
let pool_reach = 3600

(* Placed emission stream: every entry occupies one word. *)
type emission =
  | E_insn of Pf_arm.Insn.t
  | E_branch of { cond : A.cond; link : bool; target : [ `Label of Mach.label | `Func of string | `Addr of int ] }
  | E_pool_load of { rd : A.reg; const : int }  (* resolved via pool_of_use *)
  | E_word of int                                (* pool data *)

type placed = {
  fname : string;
  base : int;
  stream : emission array;          (* one word each *)
  label_addr : (Mach.label, int) Hashtbl.t;
  pool_of_use : (int, int) Hashtbl.t;  (* use address -> pool entry address *)
  size_words : int;
}

(* Place one function: assign addresses, insert literal pools on the fly
   (a final pool after the epilogue, plus branch-over pools whenever a
   pending literal would fall out of LDR range). *)
let place ~base (fdef : Mach.fundef) ~global_addr =
  let label_addr = Hashtbl.create 16 in
  let pool_of_use = Hashtbl.create 16 in
  let stream = ref [] in
  let addr = ref base in
  let pending = ref [] in   (* (use_addr, const), oldest first *)
  let push e =
    stream := e :: !stream;
    addr := !addr + 4
  in
  let flush_pool ~jump_over =
    if !pending <> [] then begin
      if jump_over then begin
        let n_distinct =
          List.length
            (List.sort_uniq compare (List.map snd !pending))
        in
        push (E_branch { cond = A.AL; link = false;
                         target = `Addr (!addr + 4 + (4 * n_distinct)) })
      end;
      let consts = List.sort_uniq compare (List.map snd !pending) in
      let entry_addr = Hashtbl.create 8 in
      List.iter
        (fun c ->
          Hashtbl.replace entry_addr c !addr;
          push (E_word c))
        consts;
      List.iter
        (fun (use, c) ->
          let target = Hashtbl.find entry_addr c in
          if target - (use + 8) > 4095 || target - (use + 8) < -4095 then
            error "%s: literal pool out of range even after split"
              fdef.Mach.fname;
          Hashtbl.replace pool_of_use use target)
        !pending;
      pending := []
    end
  in
  let maybe_flush () =
    match List.rev !pending with
    | [] -> ()
    | (oldest, _) :: _ ->
        let projected =
          !addr + 8 + (4 * List.length !pending) - oldest
        in
        if projected > pool_reach then flush_pool ~jump_over:true
  in
  let const_load rd c =
    pending := (!addr, Pf_util.Bits.u32 c) :: !pending;
    push (E_pool_load { rd; const = Pf_util.Bits.u32 c })
  in
  List.iter
    (fun item ->
      (match item with
      | Mach.Label l -> Hashtbl.replace label_addr l !addr
      | Mach.Insn i -> push (E_insn i)
      | Mach.Branch { cond; target } ->
          push (E_branch { cond; link = false; target = `Label target })
      | Mach.Call f -> push (E_branch { cond = A.AL; link = true; target = `Func f })
      | Mach.Load_const (rd, c) -> const_load rd c
      | Mach.Load_global (rd, g) -> (
          let a =
            match Hashtbl.find_opt global_addr g with
            | Some a -> a
            | None -> error "undefined global %s" g
          in
          match A.encode_imm_operand a with
          | Some op2 ->
              push (E_insn (A.Dp { cond = AL; op = MOV; s = false; rd;
                                   rn = 0; op2 }))
          | None -> const_load rd a));
      maybe_flush ())
    fdef.Mach.items;
  flush_pool ~jump_over:false;
  {
    fname = fdef.Mach.fname;
    base;
    stream = Array.of_list (List.rev !stream);
    label_addr;
    pool_of_use;
    size_words = (!addr - base) / 4;
  }

let emit_placed (p : placed) ~func_addr ~out =
  Array.iteri
    (fun idx emission ->
      let addr = p.base + (4 * idx) in
      let word =
        match emission with
        | E_word w -> w
        | E_insn i -> (
            try Pf_arm.Encode.encode i
            with Pf_arm.Encode.Unencodable msg ->
              error "%s: cannot encode %s: %s" p.fname (A.to_string i) msg)
        | E_pool_load { rd; const } ->
            let target =
              match Hashtbl.find_opt p.pool_of_use addr with
              | Some t -> t
              | None -> error "%s: unresolved literal %d" p.fname const
            in
            Pf_arm.Encode.encode
              (A.Mem { cond = AL; load = true; width = Word; signed = false;
                       rd; rn = A.pc; offset = Ofs_imm (target - (addr + 8));
                       writeback = false })
        | E_branch { cond; link; target } ->
            let ta =
              match target with
              | `Addr a -> a
              | `Label l -> (
                  match Hashtbl.find_opt p.label_addr l with
                  | Some a -> a
                  | None -> error "%s: unresolved label L%d" p.fname l)
              | `Func f -> (
                  match Hashtbl.find_opt func_addr f with
                  | Some a -> a
                  | None -> error "call to undefined function %s" f)
            in
            Pf_arm.Encode.encode
              (A.B { cond; link; offset = ta - (addr + 8) })
      in
      out := word :: !out)
    p.stream

let link ?(code_base = 0x8000) ?(data_base = 0x10_0000)
    ?(mem_size = 8 * 1024 * 1024) fundefs globals =
  if not (List.exists (fun f -> f.Mach.fname = "main") fundefs) then
    error "no main function";
  let global_addr, data_init, data_end = layout_globals ~data_base globals in
  if data_end > mem_size - 65536 then
    too_big "globals leave no room for the stack";
  let fundefs = start_stub :: fundefs in
  let placed = ref [] in
  let base = ref code_base in
  List.iter
    (fun fdef ->
      let p = place ~base:!base fdef ~global_addr in
      placed := p :: !placed;
      base := !base + (4 * p.size_words))
    fundefs;
  let placed = List.rev !placed in
  if !base > data_base then
    too_big "code segment overflows into the data segment (%d bytes)"
      (!base - code_base);
  let func_addr = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace func_addr p.fname p.base) placed;
  let out = ref [] in
  List.iter (fun p -> emit_placed p ~func_addr ~out) placed;
  let words = Array.of_list (List.rev !out) in
  let code_mask =
    let mask = ref [] in
    List.iter
      (fun p ->
        Array.iter
          (fun e ->
            mask := (match e with E_word _ -> false | _ -> true) :: !mask)
          p.stream)
      placed;
    Array.of_list (List.rev !mask)
  in
  let symbols =
    List.map (fun p -> (p.fname, p.base)) placed
    @ List.of_seq (Hashtbl.to_seq global_addr)
  in
  Pf_arm.Image.make ~code_base ~data_base ~mem_size ~data_init ~symbols
    ~code_mask
    ~entry:(Hashtbl.find func_addr "_start")
    words
