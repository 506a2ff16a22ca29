(* Architectural-semantics tests for the interpreter: flags, shifter,
   conditional execution, memory widths, and the 16-bit (isize=2) mode the
   FITS runner depends on. *)

module A = Pf_arm.Insn
module E = Pf_arm.Exec

(* A tiny sandbox state: assemble the given instructions into an image. *)
let state_of insns =
  let words = Array.of_list (List.map Pf_arm.Encode.encode insns) in
  let image = Pf_arm.Image.make ~entry:0x8000 words in
  E.create image

let exec_one st ~pc insn =
  let o = E.outcome () in
  E.execute st ~pc insn o;
  o

let dp ?(cond = A.AL) ?(s = false) op rd rn op2 =
  A.Dp { cond; op; s; rd; rn; op2 }

let imm v = Option.get (A.encode_imm_operand v)

let nop = dp A.MOV 0 0 (A.Reg 0)

let fresh () = state_of [ nop ]

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_add_flags () =
  let st = fresh () in
  st.E.regs.(1) <- 0xFFFFFFFF;
  st.E.regs.(2) <- 1;
  ignore (exec_one st ~pc:0x8000 (dp ~s:true A.ADD 0 1 (A.Reg 2)));
  check_int "wraps" 0 st.E.regs.(0);
  check_bool "Z set" true st.E.zf;
  check_bool "C set (carry out)" true st.E.cf;
  check_bool "V clear" false st.E.vf;
  (* signed overflow: MAX_INT + 1 *)
  st.E.regs.(1) <- 0x7FFFFFFF;
  st.E.regs.(2) <- 1;
  ignore (exec_one st ~pc:0x8000 (dp ~s:true A.ADD 0 1 (A.Reg 2)));
  check_bool "V set" true st.E.vf;
  check_bool "N set" true st.E.nf;
  check_bool "C clear" false st.E.cf

let test_sub_flags () =
  let st = fresh () in
  st.E.regs.(1) <- 5;
  ignore (exec_one st ~pc:0x8000 (dp A.CMP 0 1 (imm 5)));
  check_bool "Z on equal" true st.E.zf;
  check_bool "C = no borrow" true st.E.cf;
  ignore (exec_one st ~pc:0x8000 (dp A.CMP 0 1 (imm 6)));
  check_bool "borrow clears C" false st.E.cf;
  check_bool "N set" true st.E.nf

let test_conditions () =
  let st = fresh () in
  (* after cmp 1, 2 (1 < 2 signed and unsigned) *)
  st.E.regs.(1) <- 1;
  ignore (exec_one st ~pc:0x8000 (dp A.CMP 0 1 (imm 2)));
  let passes cond =
    let o = exec_one st ~pc:0x8000 (dp ~cond A.MOV 3 0 (imm 1)) in
    o.E.executed
  in
  check_bool "LT passes" true (passes A.LT);
  check_bool "GE fails" false (passes A.GE);
  check_bool "CC passes (unsigned <)" true (passes A.CC);
  check_bool "HI fails" false (passes A.HI);
  check_bool "NE passes" true (passes A.NE);
  check_bool "EQ fails" false (passes A.EQ);
  check_bool "AL passes" true (passes A.AL)

let test_shifter_semantics () =
  let st = fresh () in
  st.E.regs.(1) <- 0x80000001;
  let run op2 =
    ignore (exec_one st ~pc:0x8000 (dp A.MOV 0 0 op2));
    st.E.regs.(0)
  in
  check_int "lsl 1" 2 (run (A.Reg_shift (1, A.LSL, 1)));
  check_int "lsr 1" 0x40000000 (run (A.Reg_shift (1, A.LSR, 1)));
  check_int "asr 1" 0xC0000000 (run (A.Reg_shift (1, A.ASR, 1)));
  check_int "ror 1" 0xC0000000 (run (A.Reg_shift (1, A.ROR, 1)));
  (* shift by register: amount >= 32 saturates *)
  st.E.regs.(2) <- 33;
  check_int "lsl by 33" 0 (run (A.Reg_shift_reg (1, A.LSL, 2)));
  check_int "asr by 33" 0xFFFFFFFF (run (A.Reg_shift_reg (1, A.ASR, 2)));
  st.E.regs.(2) <- 0x100;
  (* only the low byte of the amount register counts *)
  check_int "amount masked to low byte" 0x80000001
    (run (A.Reg_shift_reg (1, A.LSL, 2)))

let test_mul () =
  let st = fresh () in
  st.E.regs.(1) <- 100000;
  st.E.regs.(2) <- 100000;
  ignore
    (exec_one st ~pc:0x8000
       (A.Mul { cond = A.AL; s = false; rd = 0; rm = 1; rs = 2; acc = None }));
  check_int "mul wraps to u32" (Pf_util.Bits.u32 10_000_000_000)
    st.E.regs.(0);
  st.E.regs.(3) <- 7;
  ignore
    (exec_one st ~pc:0x8000
       (A.Mul { cond = A.AL; s = false; rd = 0; rm = 1; rs = 2; acc = Some 3 }));
  check_int "mla adds" (Pf_util.Bits.u32 10_000_000_007) st.E.regs.(0)

let test_memory_widths () =
  let st = fresh () in
  let base = 0x20_0000 in
  st.E.regs.(1) <- base;
  st.E.regs.(2) <- 0x8081_8283;
  let mem ?(signed = false) ~load width rd ofs =
    A.Mem { cond = A.AL; load; width; signed; rd; rn = 1;
            offset = A.Ofs_imm ofs; writeback = false }
  in
  ignore (exec_one st ~pc:0x8000 (mem ~load:false A.Word 2 0));
  ignore (exec_one st ~pc:0x8000 (mem ~load:true A.Word 3 0));
  check_int "word round-trip" 0x8081_8283 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true A.Byte 3 0));
  check_int "little-endian byte" 0x83 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true ~signed:true A.Byte 3 0));
  check_int "signed byte" 0xFFFFFF83 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true A.Half 3 2));
  check_int "high half" 0x8081 st.E.regs.(3);
  ignore (exec_one st ~pc:0x8000 (mem ~load:true ~signed:true A.Half 3 2));
  check_int "signed half" 0xFFFF8081 st.E.regs.(3)

let test_unaligned_faults () =
  let st = fresh () in
  st.E.regs.(1) <- 0x20_0001;
  check_bool "unaligned word load faults" true
    (try
       ignore
         (exec_one st ~pc:0x8000
            (A.Mem { cond = A.AL; load = true; width = A.Word; signed = false;
                     rd = 0; rn = 1; offset = A.Ofs_imm 0; writeback = false }));
       false
     with
       Pf_util.Sim_error.Error { kind = Pf_util.Sim_error.Memory_fault; _ } ->
         true)

let test_push_pop () =
  let st = fresh () in
  let sp0 = st.E.regs.(A.sp) in
  st.E.regs.(4) <- 44;
  st.E.regs.(5) <- 55;
  let o = exec_one st ~pc:0x8000 (A.Push { cond = A.AL; regs = [ 4; 5 ] }) in
  check_int "sp dropped" (sp0 - 8) st.E.regs.(A.sp);
  check_int "two words moved" 2 o.E.mem_words;
  st.E.regs.(4) <- 0;
  st.E.regs.(5) <- 0;
  ignore (exec_one st ~pc:0x8000 (A.Pop { cond = A.AL; regs = [ 4; 5 ] }));
  check_int "sp restored" sp0 st.E.regs.(A.sp);
  check_int "r4 restored" 44 st.E.regs.(4);
  check_int "r5 restored" 55 st.E.regs.(5)

let test_pop_pc_branches () =
  let st = fresh () in
  st.E.regs.(0) <- 0x9000;
  ignore (exec_one st ~pc:0x8000 (A.Push { cond = A.AL; regs = [ 0 ] }));
  let o = exec_one st ~pc:0x8000 (A.Pop { cond = A.AL; regs = [ A.pc ] }) in
  check_bool "taken" true o.E.branch_taken;
  check_int "target" 0x9000 o.E.next_pc

let test_branch_semantics () =
  let st = fresh () in
  let o =
    exec_one st ~pc:0x8000 (A.B { cond = A.AL; link = true; offset = 0x100 })
  in
  check_int "target is pc+8+offset" (0x8000 + 8 + 0x100) o.E.next_pc;
  check_int "lr is return address" 0x8004 st.E.regs.(A.lr);
  (* 16-bit mode: FITS semantics *)
  let o2 = E.outcome () in
  E.execute ~isize:2 st ~pc:0x8000
    (A.B { cond = A.AL; link = true; offset = 0x100 })
    o2;
  check_int "fits target is pc+4+offset" (0x8000 + 4 + 0x100) o2.E.next_pc;
  check_int "fits lr is pc+2" 0x8002 st.E.regs.(A.lr)

let test_pc_reads_plus8 () =
  let st = fresh () in
  ignore (exec_one st ~pc:0x8000 (dp A.MOV 0 0 (A.Reg A.pc)));
  check_int "reading pc yields pc+8" 0x8008 st.E.regs.(0)

let test_dp_value_entry_point () =
  let st = fresh () in
  st.E.regs.(1) <- 10;
  let o = E.outcome () in
  E.execute_dp_value ~isize:2 st ~pc:0x8000 ~cond:A.AL ~op:A.ADD ~s:false
    ~rd:0 ~rn:1 ~value:0x12345678 o;
  check_int "dict operand applied" (0x12345678 + 10) st.E.regs.(0);
  check_int "falls through by 2" 0x8002 o.E.next_pc;
  (* flags with s *)
  E.execute_dp_value ~isize:2 st ~pc:0x8000 ~cond:A.AL ~op:A.SUB ~s:true
    ~rd:0 ~rn:1 ~value:10 o;
  check_bool "Z from dict sub" true st.E.zf

let test_swi_output () =
  let st = fresh () in
  st.E.regs.(0) <- 0xFFFFFFFF;
  ignore (exec_one st ~pc:0x8000 (A.Swi { cond = A.AL; number = 1 }));
  st.E.regs.(0) <- Char.code 'x';
  ignore (exec_one st ~pc:0x8000 (A.Swi { cond = A.AL; number = 2 }));
  Alcotest.(check string) "print int then char" "-1\nx" (E.output st);
  ignore (exec_one st ~pc:0x8000 (A.Swi { cond = A.AL; number = 0 }));
  check_bool "swi 0 halts" true st.E.halted

let test_scratch_register () =
  let st = fresh () in
  ignore (exec_one st ~pc:0x8000 (dp A.MOV 16 0 (imm 77)));
  check_int "r16 exists" 77 st.E.regs.(16);
  ignore (exec_one st ~pc:0x8000 (dp A.ADD 0 16 (A.Reg 16)));
  check_int "r16 readable" 154 st.E.regs.(0)

let test_run_halts_on_sentinel () =
  (* mov r0, #7; swi 1; bx lr -> prints then returns to the sentinel *)
  let st =
    state_of
      [
        dp A.MOV 0 0 (imm 7);
        A.Swi { cond = A.AL; number = 1 };
        A.Bx { cond = A.AL; rm = A.lr };
      ]
  in
  E.run st ~on_step:(fun _ ~pc:_ _ _ -> ());
  Alcotest.(check string) "ran to sentinel" "7\n" (E.output st);
  check_int "three instructions" 3 st.E.steps

let test_step_budget () =
  (* b . -> infinite loop; the budget must trip *)
  let st = state_of [ A.B { cond = A.AL; link = false; offset = -8 } ] in
  check_bool "budget exhausts" true
    (try
       E.run ~max_steps:1000 st ~on_step:(fun _ ~pc:_ _ _ -> ());
       false
     with
       Pf_util.Sim_error.Error
         { kind = Pf_util.Sim_error.Watchdog_timeout; _ } ->
         true)

(* ---- chunked memory ---------------------------------------------------- *)

(* Memory is allocated in 64 KB chunks.  This image's address space ends
   inside its third chunk at an address that is not word-aligned, and an
   initialized blob straddles the first chunk boundary. *)
let chunk = 65536
let small_size = (2 * chunk) + 4658
let blob_addr = chunk - 8

let small_image () =
  Pf_arm.Image.make ~data_base:0x9000 ~mem_size:small_size
    ~data_init:
      [ (blob_addr, [| 0x11223344; 0x55667788; 0x99aabbcc; 0xddeeff00 |]) ]
    ~entry:0x8000
    [| Pf_arm.Encode.encode nop |]

(* The reference: one flat [Bytes.t] over the whole address space, with
   the interpreter's alignment and range rules. *)
let flat_of_image (im : Pf_arm.Image.t) =
  let m = Bytes.make im.Pf_arm.Image.mem_size '\000' in
  let put a w = Bytes.set_int32_le m a (Int32.of_int w) in
  Array.iteri (fun k w -> put (im.Pf_arm.Image.code_base + (4 * k)) w)
    im.Pf_arm.Image.words;
  List.iter
    (fun (a, ws) -> Array.iteri (fun k w -> put (a + (4 * k)) w) ws)
    im.Pf_arm.Image.data_init;
  m

type mem_op = Load of A.mem_width * int | Store of A.mem_width * int * int

let width_bytes = function A.Word -> 4 | A.Half -> 2 | A.Byte -> 1
let width_name = function
  | A.Word -> "word"
  | A.Half -> "half"
  | A.Byte -> "byte"

let flat_access m op =
  let fault fmt =
    Pf_util.Sim_error.raisef Pf_util.Sim_error.Memory_fault ~where:"arm.exec"
      fmt
  in
  let check w addr dir =
    let n = width_bytes w in
    if addr land (n - 1) <> 0 then
      fault "unaligned %s %s: 0x%x" (width_name w) dir addr;
    if addr < 0 || addr + n > Bytes.length m then
      fault "memory access out of range: 0x%x" addr
  in
  match op with
  | Load (w, addr) -> (
      check w addr "load";
      match w with
      | A.Word -> Int32.to_int (Bytes.get_int32_le m addr) land 0xFFFF_FFFF
      | A.Half -> Bytes.get_uint16_le m addr
      | A.Byte -> Char.code (Bytes.get m addr))
  | Store (w, addr, v) ->
      check w addr "store";
      (match w with
      | A.Word -> Bytes.set_int32_le m addr (Int32.of_int v)
      | A.Half -> Bytes.set_uint16_le m addr (v land 0xFFFF)
      | A.Byte -> Bytes.set m addr (Char.chr (v land 0xFF)));
      0

let chunked_access st = function
  | Load (A.Word, a) -> E.load_word st a
  | Load (A.Half, a) -> E.load_half st a
  | Load (A.Byte, a) -> E.load_byte st a
  | Store (A.Word, a, v) -> E.store_word st a v; 0
  | Store (A.Half, a, v) -> E.store_half st a v; 0
  | Store (A.Byte, a, v) -> E.store_byte st a v; 0

let outcome f =
  match f () with
  | v -> Ok v
  | exception Pf_util.Sim_error.Error e ->
      Error (e.Pf_util.Sim_error.kind, e.Pf_util.Sim_error.detail)

let addr_gen =
  QCheck.Gen.(
    frequency
      [
        (* on and around every chunk boundary *)
        ( 4,
          map2 (fun k d -> (k * chunk) + d) (int_range 0 3) (int_range (-6) 6)
        );
        (* around the end of the address space *)
        (2, map (fun d -> small_size + d) (int_range (-8) 4));
        (1, int_range (-8) (-1));
        (1, oneofl [ 0x7FFF_FFFF; 0xFFFF_FFFC; 0xFFFF_FFFF ]);
        (3, int_range 0 (small_size - 1));
      ])

let op_gen =
  QCheck.Gen.(
    map3
      (fun (w, load) addr v ->
        if load then Load (w, addr) else Store (w, addr, v))
      (pair (oneofl [ A.Word; A.Half; A.Byte ]) bool)
      addr_gen (int_range 0 0xFFFF_FFFF))

let print_op = function
  | Load (w, a) -> Printf.sprintf "load %s 0x%x" (width_name w) a
  | Store (w, a, v) -> Printf.sprintf "store %s 0x%x <- 0x%x" (width_name w) a v

let prop_chunked_matches_flat =
  QCheck.Test.make ~name:"chunked memory matches a flat reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops ->
      let image = small_image () in
      let st = E.create image and m = flat_of_image image in
      List.iter
        (fun op ->
          if outcome (fun () -> chunked_access st op)
             <> outcome (fun () -> flat_access m op)
          then QCheck.Test.fail_reportf "differs at %s" (print_op op))
        ops;
      (* and every byte agrees afterwards *)
      for a = 0 to small_size - 1 do
        if E.load_byte st a <> Char.code (Bytes.get m a) then
          QCheck.Test.fail_reportf "final byte 0x%x differs" a
      done;
      true)

let test_states_isolated () =
  let image = small_image () in
  let a = E.create image and b = E.create image in
  let addr = chunk + 64 in
  E.store_word a addr 7;
  E.store_byte a (small_size - 1) 9;
  check_int "writer sees its word" 7 (E.load_word a addr);
  check_int "sibling still reads zero" 0 (E.load_word b addr);
  check_int "sibling's last byte still zero" 0 (E.load_byte b (small_size - 1));
  check_int "a later state starts clean" 0 (E.load_word (E.create image) addr)

(* Worker [k] writes [k + 1] at word [k] of sixteen chunks, in parallel
   with the others; a write that reached a shared chunk would show up in
   another state, or in a state created afterwards. *)
let test_states_isolated_across_domains () =
  let image = Pf_arm.Image.make ~entry:0x8000 [| Pf_arm.Encode.encode nop |] in
  let workers = List.init 8 Fun.id in
  let slot c k = (c * 4 * chunk) + 0x40 + (4 * k) in
  let ok =
    Pf_util.Pool.map ~jobs:2
      (fun k ->
        let st = E.create image in
        for c = 0 to 15 do E.store_word st (slot c k) (k + 1) done;
        List.for_all
          (fun j ->
            let want = if j = k then k + 1 else 0 in
            List.for_all (fun c -> E.load_word st (slot c j) = want)
              (List.init 16 Fun.id))
          workers)
      workers
  in
  check_bool "each state sees exactly its own writes" true
    (List.for_all Fun.id ok);
  let fresh = E.create image in
  check_bool "a fresh state reads zero everywhere" true
    (List.for_all
       (fun k ->
         List.for_all (fun c -> E.load_word fresh (slot c k) = 0)
           (List.init 16 Fun.id))
       workers)

let tests =
  [
    Alcotest.test_case "add flags" `Quick test_add_flags;
    Alcotest.test_case "sub/cmp flags" `Quick test_sub_flags;
    Alcotest.test_case "all condition codes" `Quick test_conditions;
    Alcotest.test_case "barrel shifter" `Quick test_shifter_semantics;
    Alcotest.test_case "mul/mla" `Quick test_mul;
    Alcotest.test_case "memory widths" `Quick test_memory_widths;
    Alcotest.test_case "unaligned access faults" `Quick test_unaligned_faults;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "pop into pc" `Quick test_pop_pc_branches;
    Alcotest.test_case "branch and link, both isizes" `Quick
      test_branch_semantics;
    Alcotest.test_case "pc reads as pc+8" `Quick test_pc_reads_plus8;
    Alcotest.test_case "dictionary-operand entry point" `Quick
      test_dp_value_entry_point;
    Alcotest.test_case "swi output and halt" `Quick test_swi_output;
    Alcotest.test_case "over-provisioned r16" `Quick test_scratch_register;
    Alcotest.test_case "run halts on sentinel" `Quick
      test_run_halts_on_sentinel;
    Alcotest.test_case "step budget" `Quick test_step_budget;
    Alcotest.test_case "chunked memory: states are isolated" `Quick
      test_states_isolated;
    Alcotest.test_case "chunked memory: isolated across domains" `Quick
      test_states_isolated_across_domains;
    QCheck_alcotest.to_alcotest prop_chunked_matches_flat;
  ]
