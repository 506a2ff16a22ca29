(* Compiler-internals tests: literal-pool placement (including the
   mid-function pool splitting), ABI/prologue conventions, normalization
   invariants, and error paths. *)

open Pf_kir.Build
module A = Pf_arm.Insn

let compile ?unroll p = Pf_armgen.Compile.program ?unroll p

(* ---- literal pools ---- *)

let big_const k = i (0x10000 + (k * 0x2357))

let test_pool_dedup () =
  (* the same unencodable constant used repeatedly must appear once *)
  let p =
    program []
      [
        func "main" []
          (List.init 6 (fun _ -> print_int (i 0x12345678))
          @ [ print_int (i 0x12345678 +% i 1) ]);
      ]
  in
  let image = compile p in
  let pool_words =
    Array.to_list image.Pf_arm.Image.insns
    |> List.filter (fun x -> x = None)
  in
  (* one pool entry for the constant (0x12345679 is derived via add) *)
  Alcotest.(check int) "single pool entry" 1 (List.length pool_words);
  Alcotest.(check string) "still correct"
    ((Pf_kir.Eval.run p).Pf_kir.Eval.output)
    (Pf_armgen.Compile.run image)

let test_pool_splitting_large_function () =
  (* hundreds of distinct unencodable constants force branch-over pools *)
  let stmts =
    List.concat
      (List.init 400 (fun k ->
           [ set "acc" (bxor (v "acc") (big_const k)) ]))
  in
  let p =
    program []
      [ func "main" [] ((let_ "acc" (i 0) :: stmts) @ [ print_int (v "acc") ]) ]
  in
  let expected = (Pf_kir.Eval.run p).Pf_kir.Eval.output in
  let image = compile p in
  Alcotest.(check string) "split pools execute correctly" expected
    (Pf_armgen.Compile.run image);
  (* there must be more than one data region (pool) inside main *)
  let regions = ref 0 in
  let in_pool = ref false in
  Array.iter
    (fun insn ->
      match insn with
      | None -> if not !in_pool then begin incr regions; in_pool := true end
      | Some _ -> in_pool := false)
    image.Pf_arm.Image.insns;
  Alcotest.(check bool)
    (Printf.sprintf "multiple pools (%d)" !regions)
    true (!regions >= 2)

let test_pool_values_in_memory () =
  (* a literal load must read exactly the constant from the code segment *)
  let p = program [] [ func "main" [] [ print_int (i 0x89ABCDEF) ] ] in
  let image = compile p in
  Alcotest.(check string) "value restored" "-1985229329\n"
    (Pf_armgen.Compile.run image)

(* ---- ABI and structure ---- *)

let test_callee_saved_discipline () =
  (* a function must preserve r4-r11 across calls: exercised by nesting *)
  let p =
    program []
      [
        func "clobber" [ "x" ]
          [
            let_ "a" (v "x" +% i 1);
            let_ "b" (v "a" *% i 3);
            let_ "c" (v "b" -% i 2);
            let_ "d" (v "c" *% v "c");
            ret (v "d");
          ];
        func "main" []
          [
            let_ "p" (i 10);
            let_ "q" (i 20);
            let_ "r" (i 30);
            let_ "s" (i 40);
            let_ "t" (i 50);
            let_ "u" (i 60);
            let_ "w" (i 70);
            do_ "clobber" [ i 5 ];
            (* all seven register-homed locals must survive *)
            print_int
              (v "p" +% v "q" +% v "r" +% v "s" +% v "t" +% v "u" +% v "w");
          ];
      ]
  in
  Alcotest.(check string) "locals survive calls" "280\n"
    (Pf_armgen.Compile.run (compile p))

let test_leaf_function_uses_bx () =
  (* leaf functions return via BX LR (no LR save) *)
  let p =
    program []
      [
        func "leaf" [ "x" ] [ ret (v "x" +% i 1) ];
        func "main" [] [ print_int (call "leaf" [ i 41 ]) ];
      ]
  in
  let image = compile p in
  let has_bx =
    Array.exists
      (function Some (A.Bx _) -> true | _ -> false)
      image.Pf_arm.Image.insns
  in
  Alcotest.(check bool) "bx lr present" true has_bx

let test_start_stub () =
  let p = program [] [ func "main" [] [ print_int (i 1) ] ] in
  let image = compile p in
  Alcotest.(check int) "entry at _start" image.Pf_arm.Image.entry
    (Pf_arm.Image.symbol image "_start");
  Alcotest.(check bool) "main symbol present" true
    (Pf_arm.Image.symbol image "main" > image.Pf_arm.Image.entry);
  (* _start is bl main; swi 0 *)
  match Pf_arm.Image.insn_at image image.Pf_arm.Image.entry with
  | Some (A.B { link = true; _ }) -> ()
  | _ -> Alcotest.fail "start stub must begin with BL main"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go k = k + n <= h && (String.sub hay k n = needle || go (k + 1)) in
  go 0

let test_disassembler_output () =
  let p = program [] [ func "main" [] [ print_int (i 7) ] ] in
  let image = compile p in
  let d = Pf_arm.Image.disassemble image in
  Alcotest.(check bool) "lists symbols" true (contains d "main:");
  Alcotest.(check bool) "shows swi" true (contains d "swi");
  Alcotest.(check bool) "marks pool data" true
    (contains d ".word" || not (contains d "0xdead"))

(* ---- error paths ---- *)

let test_deep_expression_rejected () =
  let rec deep n = if n = 0 then call "f" [ i 1 ] else deep (n - 1) +% deep (n - 1) in
  let p =
    program []
      [
        func "f" [ "x" ] [ ret (v "x") ];
        func "main" [] [ print_int (deep 5) ];
      ]
  in
  (* call-normalization flattens this, so it must actually compile *)
  Alcotest.(check string) "ANF keeps deep call trees compilable"
    (( Pf_kir.Eval.run p).Pf_kir.Eval.output)
    (Pf_armgen.Compile.run (compile p))

let test_runtime_division_linked_once () =
  let p =
    program []
      [
        func "main" []
          [ print_int (i 100 /% i 7); print_int (urem (i 100) (i 7)) ];
      ]
  in
  let image = compile p in
  Alcotest.(check bool) "udiv runtime linked" true
    (try ignore (Pf_arm.Image.symbol image "__udiv32"); true
     with Not_found -> false);
  Alcotest.(check string) "division works" "14\n2\n"
    (Pf_armgen.Compile.run image)

(* A global array larger than the address space is the client's fault:
   a structured [Invalid_config], not an internal linker error. *)
let test_oversized_global_invalid_config () =
  let p =
    program [ garray "huge" Pf_kir.Ast.W32 (4 * 1024 * 1024) ]
      [ func "main" [] [ print_int (i 1) ] ]
  in
  match compile p with
  | _ -> Alcotest.fail "an oversized global must not link"
  | exception Pf_util.Sim_error.Error e ->
      Alcotest.(check string) "kind" "invalid-config"
        (Pf_util.Sim_error.kind_name e.Pf_util.Sim_error.kind);
      Alcotest.(check string) "where" "armgen.link" e.Pf_util.Sim_error.where

(* ---- evaluation order ---- *)

(* Operands evaluate left to right — binary operands, a store's address
   before its value, a for loop's lower bound before its upper bound.
   Call normalization hoists a call out of the right operand ahead of the
   statement, so a load in the left operand must be hoisted before it —
   or it reads memory after the call's stores. *)
let test_load_before_call () =
  let g0 = idx32 "g" (i 0) in
  let p =
    program
      [ garray_init "g" Pf_kir.Ast.W32 [| 5 |];
        garray "h" Pf_kir.Ast.W32 2 ]
      [
        func "f" [] [ setidx32 "g" (i 0) (i 100); ret (i 1) ];
        func "f2" [] [ setidx32 "g" (i 0) (i 0); ret (i 50) ];
        func "f3" [] [ setidx32 "g" (i 0) (i 1); ret (i 9) ];
        func "f4" [] [ setidx32 "g" (i 0) (i 0); ret (i 3) ];
        func "main" []
          [
            print_int (g0 +% call "f" []);
            print_int (g0 <% call "f2" []);
            setidx32 "h" g0 (call "f3" []);
            print_int (idx32 "h" (i 0));
            for_ "k" g0 (call "f4" []) [ print_int (v "k") ];
          ];
      ]
  in
  let expected = (Pf_kir.Eval.run p).Pf_kir.Eval.output in
  Alcotest.(check string) "evaluator" "6\n0\n9\n1\n2\n" expected;
  Alcotest.(check string) "compiled" expected
    (Pf_armgen.Compile.run (compile p))

(* The generated program that exposed the miscompile. *)
let test_generated_load_before_call () =
  let p =
    Pf_workgen.Generate.program
      ~model:(Pf_workgen.Calibrate.reference ())
      ~seed:136688 ~index:936
  in
  let expected = (Pf_kir.Eval.run ~max_steps:50_000_000 p).Pf_kir.Eval.output in
  Alcotest.(check string) "evaluator" "2620\n" expected;
  Alcotest.(check string) "compiled" expected
    (Pf_armgen.Compile.run ~max_steps:50_000_000 (compile p))

let tests =
  [
    Alcotest.test_case "pool dedup" `Quick test_pool_dedup;
    Alcotest.test_case "pool splitting in large functions" `Quick
      test_pool_splitting_large_function;
    Alcotest.test_case "pool values" `Quick test_pool_values_in_memory;
    Alcotest.test_case "callee-saved discipline" `Quick
      test_callee_saved_discipline;
    Alcotest.test_case "leaf returns via bx" `Quick test_leaf_function_uses_bx;
    Alcotest.test_case "start stub" `Quick test_start_stub;
    Alcotest.test_case "disassembler" `Quick test_disassembler_output;
    Alcotest.test_case "deep call trees" `Quick test_deep_expression_rejected;
    Alcotest.test_case "division runtime linking" `Quick
      test_runtime_division_linked_once;
    Alcotest.test_case "oversized global is Invalid_config" `Quick
      test_oversized_global_invalid_config;
    Alcotest.test_case "evaluation order: load before call" `Quick
      test_load_before_call;
    Alcotest.test_case "evaluation order: generated program" `Quick
      test_generated_load_before_call;
  ]
