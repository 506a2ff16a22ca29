(* Timing-model tests: dual-issue pairing rules, hazards, penalties, and
   the 16-bit fetch-buffer behaviour the FITS results hinge on. *)

module P = Pf_cpu.Pipeline

let make_pipe ?config ?(isize = 4) () =
  let cache =
    Pf_cache.Icache.create (Pf_cache.Icache.config ~size_bytes:16384 ())
  in
  let geometry =
    Pf_power.Geometry.of_config (Pf_cache.Icache.config ~size_bytes:16384 ())
  in
  let account = Pf_power.Account.create geometry in
  P.create ?config ~cache ~account ~words:(Array.make 64 0) ~code_base:0x8000
    ~isize ()

let issue ?(cls = P.Alu) ?(reads = 0) ?(writes = 0) ?(taken = false)
    ?(mem_words = 0) ?(backward = false) pipe addr =
  P.issue pipe ~addr
    ~meta:
      (P.static_meta ~cls_code:(P.cls_code cls) ~backward ~reads ~writes
      lor P.dynamic_meta ~taken ~mem_words ~dmisses:0)

let no_miss_cfg = { P.sa1100 with P.miss_penalty = 0 }

let check_int = Alcotest.(check int)

(* every first access misses the cold cache; zero the penalty so cycle
   arithmetic below is about issue slots only *)

let test_dual_issue_pairs () =
  let p = make_pipe ~config:no_miss_cfg () in
  (* two independent ALU ops in consecutive words: 1 cycle *)
  issue p 0x8000 ~writes:0b0010;
  issue p 0x8004 ~reads:0b0100 ~writes:0b1000;
  check_int "paired into one cycle" 1 (P.cycles p)

let test_raw_blocks_pairing () =
  let p = make_pipe ~config:no_miss_cfg () in
  issue p 0x8000 ~writes:0b0010;
  issue p 0x8004 ~reads:0b0010;
  (* reads what the first wrote *)
  check_int "dependent pair takes two cycles" 2 (P.cycles p)

let test_two_mem_ops_no_pair () =
  let p = make_pipe ~config:no_miss_cfg () in
  issue p 0x8000 ~cls:P.Load ~writes:0b0010;
  issue p 0x8004 ~cls:P.Store ~reads:0b1000;
  check_int "single memory port" 2 (P.cycles p)

let test_load_use_bubble () =
  let p = make_pipe ~config:no_miss_cfg () in
  issue p 0x8000 ~cls:P.Load ~writes:0b0010;
  issue p 0x8004 ~reads:0b0010;
  (* 1 (load) + 1 (use) + 1 bubble *)
  check_int "load-use costs a bubble" 3 (P.cycles p)

let test_taken_branch_penalty () =
  let p = make_pipe ~config:no_miss_cfg () in
  (* forward taken: mispredicted under BTFN *)
  issue p 0x8000 ~cls:P.Branch ~taken:true;
  check_int "redirect penalty" (1 + P.sa1100.P.branch_penalty) (P.cycles p);
  (* the fetch buffer is flushed: next instruction re-accesses the cache *)
  issue p 0x8000;
  check_int "refetch after redirect" 2 (P.fetch_accesses p)

let test_not_taken_branch_cheap () =
  let p = make_pipe ~config:no_miss_cfg () in
  issue p 0x8000 ~cls:P.Branch ~taken:false;
  check_int "fall-through branch is one cycle" 1 (P.cycles p)

let test_btfn_prediction () =
  let p = make_pipe ~config:no_miss_cfg () in
  (* backward taken: predicted, no penalty beyond its issue slot *)
  issue p 0x8000 ~cls:P.Branch ~taken:true ~backward:true;
  check_int "loop branch predicted" 1 (P.cycles p);
  (* backward NOT taken: mispredicted *)
  issue p 0x8004 ~cls:P.Branch ~taken:false ~backward:true;
  check_int "loop exit mispredicted"
    (2 + P.sa1100.P.branch_penalty)
    (P.cycles p);
  (* with prediction off, every taken branch pays *)
  let p2 =
    make_pipe ~config:{ no_miss_cfg with P.predictor = P.No_prediction } ()
  in
  issue p2 0x8000 ~cls:P.Branch ~taken:true ~backward:true;
  check_int "no predictor: backward taken pays"
    (1 + P.sa1100.P.branch_penalty)
    (P.cycles p2)

let test_mul_extra () =
  let p = make_pipe ~config:no_miss_cfg () in
  issue p 0x8000 ~cls:P.Mul;
  check_int "multiply latency" (1 + P.sa1100.P.mul_extra) (P.cycles p)

let test_ldm_per_word () =
  let p = make_pipe ~config:no_miss_cfg () in
  issue p 0x8000 ~cls:P.Store ~mem_words:4;
  check_int "stm pays per extra word" 4 (P.cycles p)

let test_miss_penalty () =
  let p = make_pipe () in
  issue p 0x8000;
  (* cold miss *)
  check_int "refill stall charged"
    (1 + P.sa1100.P.miss_penalty)
    (P.cycles p);
  issue p 0x8020;
  (* next block: another miss *)
  check_int "second refill"
    (2 + (2 * P.sa1100.P.miss_penalty))
    (P.cycles p)

let test_fetch_buffer_16bit () =
  let p = make_pipe ~config:no_miss_cfg ~isize:2 () in
  (* four 2-byte instructions spanning two 32-bit words: two accesses *)
  issue p 0x8000;
  issue p 0x8002;
  issue p 0x8004;
  issue p 0x8006;
  check_int "two fetches for four halfwords" 2 (P.fetch_accesses p);
  let p32 = make_pipe ~config:no_miss_cfg () in
  issue p32 0x8000;
  issue p32 0x8004;
  issue p32 0x8008;
  issue p32 0x800C;
  check_int "four fetches for four words" 4 (P.fetch_accesses p32)

let test_fetch_buffer_disabled () =
  let p =
    make_pipe ~config:{ no_miss_cfg with P.fetch_buffer = false } ~isize:2
      ()
  in
  issue p 0x8000;
  issue p 0x8002;
  check_int "ablation refetches every halfword" 2 (P.fetch_accesses p)

let test_single_issue_config () =
  let p = make_pipe ~config:{ no_miss_cfg with P.dual_issue = false } () in
  issue p 0x8000;
  issue p 0x8004;
  check_int "no pairing when single-issue" 2 (P.cycles p)

let test_ipc_accounting () =
  let p = make_pipe ~config:no_miss_cfg () in
  issue p 0x8000;
  issue p 0x8004 ~reads:0;
  Alcotest.(check int) "instructions" 2 (P.instructions p);
  Alcotest.(check (float 0.01)) "ipc" 2.0 (P.ipc p)

(* ---- kernel equivalence: issue_events == one issue per event ---------- *)

(* A random packed stream over a small code segment: mostly sequential
   ALU runs (the batched shape), broken by jumps, loads feeding their
   successor, multi-word memory ops with D-cache misses, and taken or
   untaken branches.  The cache is small so lines are crossed and
   refilled, and the peak window short so batches are cut by it. *)
type kcase = {
  k_isize : int;
  k_fbuf : bool;
  k_dual : bool;
  k_window : int;
  k_words : int array;
  k_flips : (int * int * int) list;     (* at_access, slot, bit *)
  k_ev : int array;
  k_cuts : int list;                    (* issue_events slice lengths *)
}

let k_base = 0x1000
let k_nwords = 96

let kcase_gen =
  let open QCheck.Gen in
  let* k_isize = oneofl [ 2; 4 ] in
  let* k_fbuf = bool in
  let* k_dual = frequencyl [ (4, true); (1, false) ] in
  let* k_window = int_range 1 9 in
  let* k_words = array_repeat k_nwords (int_bound 0x3FFFFFFF) in
  let* nflips = frequencyl [ (2, 0); (1, 1); (1, 3) ] in
  let* k_flips =
    list_repeat nflips
      (triple (int_bound 200) (int_bound 15) (int_bound 3))
  in
  let* n = int_range 1 300 in
  let top = k_base + (4 * k_nwords) in
  let event prev =
    let* jump = frequencyl [ (12, false); (1, true) ] in
    let* addr =
      if jump || prev + k_isize >= top then
        map
          (fun w -> k_base + (k_isize * w))
          (int_bound ((4 * k_nwords / k_isize) - 1))
      else return (prev + k_isize)
    in
    let* cls =
      frequencyl
        [ (10, P.Alu); (1, P.Mul); (2, P.Load); (2, P.Store); (2, P.Branch);
          (1, P.System) ]
    in
    let* reads = int_bound 0x1FFFF and* writes = int_bound 0xF in
    let* taken =
      match cls with P.Branch -> bool | _ -> return false
    and* backward = bool
    and* mem_words = int_range 1 5
    and* dm = int_bound 5 in
    let mem_words, dmisses =
      match cls with
      | P.Load | P.Store -> (mem_words, min dm mem_words)
      | _ -> (0, 0)
    in
    let backward = (match cls with P.Branch -> backward | _ -> false) in
    (* sparse register masks keep pairing possible *)
    let reads = reads land 0x10101 and writes = 1 lsl writes in
    return
      ( addr,
        P.static_meta ~cls_code:(P.cls_code cls) ~backward ~reads ~writes
        lor P.dynamic_meta ~taken ~mem_words ~dmisses )
  in
  let rec events k prev acc =
    if k = 0 then return (List.rev acc)
    else
      let* ((a, _) as e) = event prev in
      events (k - 1) a (e :: acc)
  in
  let* evs = events n (k_base - k_isize) [] in
  let k_ev = Array.make (2 * n) 0 in
  List.iteri
    (fun i (a, m) ->
      k_ev.(2 * i) <- a;
      k_ev.((2 * i) + 1) <- m)
    evs;
  let* k_cuts = list_size (int_range 1 6) (int_range 1 80) in
  return { k_isize; k_fbuf; k_dual; k_window; k_words; k_flips; k_ev; k_cuts }

let kcase_print c =
  Printf.sprintf "isize=%d fbuf=%b dual=%b window=%d flips=%d events=%d"
    c.k_isize c.k_fbuf c.k_dual c.k_window (List.length c.k_flips)
    (Array.length c.k_ev / 2)

let kpipe c =
  let cfg =
    Pf_cache.Icache.config ~block_bytes:16 ~assoc:2 ~size_bytes:128 ()
  in
  let cache = Pf_cache.Icache.create ~classify:true cfg in
  List.iter
    (fun (at_access, slot, bit) ->
      Pf_cache.Icache.schedule_tag_flip cache ~at_access
        ~slot:(slot mod Pf_cache.Icache.slots cache) ~bit)
    c.k_flips;
  let params =
    { Pf_power.Account.Params.default with
      Pf_power.Account.Params.peak_window_insns = c.k_window }
  in
  let account =
    Pf_power.Account.create ~params (Pf_power.Geometry.of_config cfg)
  in
  let config =
    { P.sa1100 with P.fetch_buffer = c.k_fbuf; P.dual_issue = c.k_dual }
  in
  let pipe =
    P.create ~config ~cache ~account ~words:c.k_words ~code_base:k_base
      ~isize:c.k_isize ()
  in
  (pipe, cache, account)

let kfingerprint (pipe, cache, account) =
  let module C = Pf_cache.Icache in
  let r = Pf_power.Account.report account in
  let b = Int64.bits_of_float in
  ( [ P.cycles pipe; P.instructions pipe; P.fetch_accesses pipe;
      C.stats_accesses cache; C.stats_misses cache; C.output_toggles cache;
      C.addr_toggles cache; C.refill_words cache; C.stats_compulsory cache;
      C.stats_capacity cache; C.stats_conflict cache; C.flips_applied cache;
      r.Pf_power.Account.cycles ],
    List.map b
      Pf_power.Account.
        [ r.switching; r.internal; r.leakage; r.total; r.peak_power ] )

let prop_issue_events_equiv =
  QCheck.Test.make ~count:400
    ~name:"issue_events is bit-identical to one issue per event"
    (QCheck.make ~print:kcase_print kcase_gen)
    (fun c ->
      let n = Array.length c.k_ev / 2 in
      let single = kpipe c in
      let p1, _, _ = single in
      for i = 0 to n - 1 do
        P.issue p1 ~addr:c.k_ev.(2 * i) ~meta:c.k_ev.((2 * i) + 1)
      done;
      let batched = kpipe c in
      let p2, _, _ = batched in
      (* cut the stream into slices: pipeline state must carry across
         calls *)
      let rec feed pos cuts =
        if pos < n then begin
          let len, rest =
            match cuts with [] -> (n - pos, []) | l :: r -> (l, r)
          in
          let len = min len (n - pos) in
          P.issue_events p2 ~ev:c.k_ev ~pos:(2 * pos) ~n:len;
          feed (pos + len) rest
        end
      in
      feed 0 c.k_cuts;
      kfingerprint single = kfingerprint batched)

(* [stack] prices its account by the geometry of the I-cache it fetches
   through — built from [cache_cfg] or handed over pre-built — and refuses
   a [cache_cfg] that disagrees with a pre-built cache. *)
let test_stack_priced_by_geometry () =
  let g = Pf_cache.Icache.config ~size_bytes:4096 ~assoc:8 () in
  let geometry = Pf_power.Geometry.of_config g in
  let words = Array.make 64 0 and code_base = 0x8000 in
  let power pipe =
    issue pipe 0x8000;
    issue pipe 0x8024;
    (P.stats pipe ~dcache_miss_rate_pm:0.0).P.power
  in
  let by_hand =
    P.create ~cache:(Pf_cache.Icache.create g)
      ~account:
        (Pf_power.Account.create
           ~params:(Pf_power.Account.Params.for_geometry geometry)
           geometry)
      ~words ~code_base ~isize:4 ()
  in
  let expected = power by_hand in
  Alcotest.(check bool)
    "from cache_cfg" true
    (power (P.stack ~cache_cfg:g ~words ~code_base ~isize:4 ()) = expected);
  Alcotest.(check bool)
    "from a pre-built cache" true
    (power
       (P.stack ~cache:(Pf_cache.Icache.create g) ~words ~code_base ~isize:4
          ())
    = expected);
  match
    P.stack ~cache:(Pf_cache.Icache.create g) ~cache_cfg:P.default_cache_cfg
      ~words ~code_base ~isize:4 ()
  with
  | _ -> Alcotest.fail "a disagreeing cache_cfg was accepted"
  | exception Pf_util.Sim_error.Error e ->
      Alcotest.(check bool)
        "Invalid_config" true
        (e.Pf_util.Sim_error.kind = Pf_util.Sim_error.Invalid_config)

let tests =
  [
    Alcotest.test_case "dual issue pairs" `Quick test_dual_issue_pairs;
    Alcotest.test_case "RAW blocks pairing" `Quick test_raw_blocks_pairing;
    Alcotest.test_case "one memory port" `Quick test_two_mem_ops_no_pair;
    Alcotest.test_case "load-use bubble" `Quick test_load_use_bubble;
    Alcotest.test_case "taken-branch penalty" `Quick
      test_taken_branch_penalty;
    Alcotest.test_case "untaken branch" `Quick test_not_taken_branch_cheap;
    Alcotest.test_case "BTFN prediction" `Quick test_btfn_prediction;
    Alcotest.test_case "multiply latency" `Quick test_mul_extra;
    Alcotest.test_case "ldm per-word cost" `Quick test_ldm_per_word;
    Alcotest.test_case "miss penalty" `Quick test_miss_penalty;
    Alcotest.test_case "16-bit fetch buffer" `Quick test_fetch_buffer_16bit;
    Alcotest.test_case "fetch-buffer ablation" `Quick
      test_fetch_buffer_disabled;
    Alcotest.test_case "single-issue config" `Quick test_single_issue_config;
    Alcotest.test_case "IPC accounting" `Quick test_ipc_accounting;
    QCheck_alcotest.to_alcotest prop_issue_events_equiv;
    Alcotest.test_case "stack priced by its geometry" `Quick
      test_stack_priced_by_geometry;
  ]
