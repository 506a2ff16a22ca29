type t = {
  code_base : int;
  words : int array;
  insns : Insn.t option array;
  entry : int;
  data_base : int;
  data_init : (int * int array) list;
  mem_size : int;
  symbols : (string * int) list;
}

let make ?(code_base = 0x8000) ?(data_base = 0x10_0000)
    ?(mem_size = 8 * 1024 * 1024) ?(data_init = []) ?(symbols = [])
    ?code_mask ~entry words =
  let code_bytes = Array.length words * 4 in
  if code_base land 3 <> 0 then invalid_arg "Image.make: unaligned code_base";
  if code_base + code_bytes > data_base then
    invalid_arg "Image.make: code overlaps data segment";
  if entry < code_base || entry >= code_base + code_bytes then
    invalid_arg "Image.make: entry outside code";
  if mem_size <= data_base then invalid_arg "Image.make: memory too small";
  List.iter
    (fun (addr, ws) ->
      if addr < data_base || addr + (Array.length ws * 4) > mem_size then
        invalid_arg "Image.make: data blob outside data segment";
      if addr land 3 <> 0 then invalid_arg "Image.make: unaligned data blob")
    data_init;
  (match code_mask with
  | Some m when Array.length m <> Array.length words ->
      invalid_arg "Image.make: code_mask length mismatch"
  | Some _ | None -> ());
  let insns =
    Array.mapi
      (fun idx w ->
        match code_mask with
        | Some m when not m.(idx) -> None
        | Some _ | None -> Decode.decode w)
      words
  in
  { code_base; words; insns; entry; data_base; data_init; mem_size; symbols }

let code_size_bytes t = Array.length t.words * 4
let code_end t = t.code_base + code_size_bytes t
let in_code t addr = addr >= t.code_base && addr < code_end t

let insn_at t addr =
  if (not (in_code t addr)) || addr land 3 <> 0 then None
  else t.insns.((addr - t.code_base) lsr 2)

let word_at t addr =
  if (not (in_code t addr)) || addr land 3 <> 0 then
    invalid_arg "Image.word_at"
  else t.words.((addr - t.code_base) lsr 2)

let symbol t name = List.assoc name t.symbols

let disassemble t =
  let buf = Buffer.create 4096 in
  let sym_at addr =
    List.filter_map
      (fun (name, a) -> if a = addr then Some name else None)
      t.symbols
  in
  Array.iteri
    (fun i word ->
      let addr = t.code_base + (i * 4) in
      List.iter
        (fun name -> Buffer.add_string buf (Printf.sprintf "%s:\n" name))
        (sym_at addr);
      let text =
        match t.insns.(i) with
        | Some insn -> Insn.to_string insn
        | None -> Printf.sprintf ".word 0x%08x" word
      in
      Buffer.add_string buf (Printf.sprintf "  %06x:  %08x  %s\n" addr word text))
    t.words;
  Buffer.contents buf
