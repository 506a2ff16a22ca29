type insn_class = Alu | Mul | Load | Store | Branch | System

type predictor = No_prediction | Btfn

type config = {
  dual_issue : bool;
  miss_penalty : int;
  branch_penalty : int;
  load_use_bubble : int;
  mul_extra : int;
  ldm_word_extra : int;
  fetch_buffer : bool;
  predictor : predictor;
}

let sa1100 =
  {
    dual_issue = true;
    miss_penalty = 24;
    branch_penalty = 2;
    load_use_bubble = 1;
    mul_extra = 2;
    ldm_word_extra = 1;
    fetch_buffer = true;
    predictor = Btfn;
  }

(* The back-end penalty arithmetic is exposed as pure functions of the
   config and the (geometry-invariant) event fields: the all-geometry
   sweep kernel (Pf_dse.Sweep) recomputes per-window cycle counts from
   trace events alone and must charge exactly what [issue] charges. *)

let[@inline] mispredicted cfg ~cls ~taken ~backward =
  (* backward-taken/forward-not-taken static prediction: a correctly
     predicted direct branch pays no redirect (the paper leans on MiBench
     branches being "easily predictable"); indirect branches (backward =
     false, taken) always pay *)
  match cfg.predictor with
  | No_prediction -> taken
  | Btfn -> ( match cls with Branch -> taken <> backward | _ -> taken)

let[@inline] extra_cycles cfg ~cls ~taken ~backward ~mem_words =
  (match cls with Mul -> cfg.mul_extra | _ -> 0)
  + (if mem_words > 1 then (mem_words - 1) * cfg.ldm_word_extra else 0)
  + if mispredicted cfg ~cls ~taken ~backward then cfg.branch_penalty else 0

(* Packed events: two ints per retirement.

     addr: fetch pc
     meta: cls(3) | taken(1) | backward(1) | mem_words(6) | reads(17)
           | writes(17) | dmisses(6)

   Register masks are 17 bits wide: r0-r14 plus the over-provisioned FITS
   scratch register (index 16).  [dmisses] is the D-cache miss count the
   live run observed: the data side is identical in every configuration,
   so a replay charges the recorded stalls unchanged.  Live engines,
   traces, replays and the DSE sweep all read this one layout. *)

let cls_code = function
  | Alu -> 0
  | Mul -> 1
  | Load -> 2
  | Store -> 3
  | Branch -> 4
  | System -> 5

let cls_of_code = function
  | 0 -> Alu
  | 1 -> Mul
  | 2 -> Load
  | 3 -> Store
  | 4 -> Branch
  | _ -> System

let[@inline] static_meta ~cls_code ~backward ~reads ~writes =
  cls_code
  lor (Bool.to_int backward lsl 4)
  lor (reads lsl 11)
  lor (writes lsl 28)

let[@inline] dynamic_meta ~taken ~mem_words ~dmisses =
  (Bool.to_int taken lsl 3) lor (mem_words lsl 5) lor (dmisses lsl 45)

let[@inline] meta_cls_code m = m land 0x7
let[@inline] meta_taken m = m land 0x8 <> 0
let[@inline] meta_backward m = m land 0x10 <> 0
let[@inline] meta_mem_words m = (m lsr 5) land 0x3F
let[@inline] meta_reads m = (m lsr 11) land 0x1FFFF
let[@inline] meta_writes m = (m lsr 28) land 0x1FFFF
let[@inline] meta_dmisses m = (m lsr 45) land 0x3F

(* Class Alu, not taken, forward, no memory words, no D-cache misses: an
   event that can never stall past its fetch, redirect or feed a
   load-use bubble. *)
let alu_mask = 0x7FF lor (0x3F lsl 45)

type t = {
  cfg : config;
  cache : Pf_cache.Icache.t;
  account : Pf_power.Account.t;
  words : int array;        (* code words, what the fetch bus drives *)
  code_base : int;
  isize : int;
  seq_tog : int array;
      (* output-bus toggle prefix of [words]: entry [w] is the Hamming
         sum of the transitions words.(0) -> ... -> words.(w), so a
         sequential fetch of words (a, b] toggles [b] minus [a] *)
  lmask : int;              (* I-cache line bytes - 1 *)
  mutable cycles : int;
  mutable instrs : int;
  mutable fetches : int;
  mutable last_fetch_addr : int;       (* aligned word address, -1 = none *)
  mutable last_fetch_line : int;       (* I-cache line of that word, -1 = none *)
  mutable pair_slot_free : bool;       (* current cycle can take a 2nd insn *)
  mutable slot_writes : int;           (* writes of the 1st insn this cycle *)
  mutable slot_mem : bool;
  mutable prev_load_writes : int;      (* writes of the last load *)
  (* the open accounting batch, handed to [Account.on_block] by [flush];
     zero between calls.  Fields rather than locals so the loops capture
     nothing and allocate nothing. *)
  mutable b_acc : int;
  mutable b_tog : int;
  mutable b_ref : int;
  mutable b_cyc : int;
  mutable b_ins : int;
}

let create ?(config = sa1100) ~cache ~account ~words ~code_base ~isize () =
  let n = Array.length words in
  let seq_tog = Array.make (max n 1) 0 in
  for w = 1 to n - 1 do
    seq_tog.(w) <-
      seq_tog.(w - 1) + Pf_util.Bits.hamming words.(w - 1) words.(w)
  done;
  {
    cfg = config;
    cache;
    account;
    words;
    code_base;
    isize;
    seq_tog;
    lmask = Pf_cache.Icache.block_bytes cache - 1;
    cycles = 0;
    instrs = 0;
    fetches = 0;
    last_fetch_addr = -1;
    last_fetch_line = -1;
    pair_slot_free = false;
    slot_writes = 0;
    slot_mem = false;
    prev_load_writes = 0;
    b_acc = 0;
    b_tog = 0;
    b_ref = 0;
    b_cyc = 0;
    b_ins = 0;
  }

let default_cache_cfg = Pf_cache.Icache.config ~size_bytes:(16 * 1024) ()

(* The one place a charging stack is assembled: the account is priced by
   the geometry of the I-cache the pipeline actually fetches through. *)
let stack ?config ?(classify = false) ?cache ?cache_cfg ~words ~code_base
    ~isize () =
  let cache =
    match (cache, cache_cfg) with
    | Some c, Some g when Pf_cache.Icache.config_of c <> g ->
        Pf_util.Sim_error.raisef Pf_util.Sim_error.Invalid_config
          ~where:"cpu.pipeline"
          "cache_cfg %d/%d/%d disagrees with the pre-built cache's geometry"
          g.Pf_cache.Icache.size_bytes g.Pf_cache.Icache.block_bytes
          g.Pf_cache.Icache.assoc
    | Some c, _ -> c
    | None, g ->
        Pf_cache.Icache.create ~classify
          (Option.value g ~default:default_cache_cfg)
  in
  let account =
    Pf_power.Account.create
      (Pf_power.Geometry.of_config (Pf_cache.Icache.config_of cache))
  in
  create ?config ~cache ~account ~words ~code_base ~isize ()

(* One I-cache access for the word at [word_addr], returning the miss
   stall.  Sequential code stays on one cache line for many fetches; when
   the previous fetch touched the same line the access is routed through
   [Icache.access_seq] (guaranteed way-0 hit, no way search / MRU rotate /
   index toggle) — bit-identical counters, a fraction of the cost.  The
   line gate is deliberately {e not} cleared on taken branches: the
   redirect invalidates the fetch-buffer word, but the line it fetched
   from is still the cache's most recent access, so a branch targeting the
   same line (tight loops) keeps the fast path. *)
let fetch t word_addr =
  let data = t.words.((word_addr - t.code_base) lsr 2) in
  let line = Pf_cache.Icache.line_of_addr t.cache ~addr:word_addr in
  let r =
    if line = t.last_fetch_line then
      Pf_cache.Icache.access_seq t.cache ~addr:word_addr ~data
    else Pf_cache.Icache.access_fast t.cache ~addr:word_addr ~data
  in
  t.last_fetch_line <- line;
  t.last_fetch_addr <- word_addr;
  t.fetches <- t.fetches + 1;
  t.b_acc <- t.b_acc + 1;
  t.b_tog <- t.b_tog + (r lsr 16);
  t.b_ref <- t.b_ref + ((r lsr 1) land 0x7FFF);
  if r land 1 = 0 then t.cfg.miss_penalty else 0

(* The charging body: one retirement into the open batch. *)
let charge t addr meta =
  let cfg = t.cfg in
  (* fetch: one I-cache access per new 32-bit word *)
  let word_addr = addr land lnot 3 in
  let fetch_stall =
    if word_addr <> t.last_fetch_addr || not cfg.fetch_buffer then
      fetch t word_addr
    else 0
  in
  let cls = cls_of_code (meta_cls_code meta) in
  (* NB: class tests are pattern matches, not [=] — polymorphic equality
     on a variant is an out-of-line [caml_equal] call *)
  let is_mem = match cls with Load | Store -> true | _ -> false in
  let is_branch = match cls with Branch -> true | _ -> false in
  let reads = meta_reads meta and writes = meta_writes meta in
  (* data side: the D-cache is identical in every configuration (S5: only
     the I-cache varies); its misses stall like instruction refills *)
  let dm = meta_dmisses meta in
  let stall =
    if dm > 0 then fetch_stall + (dm * cfg.miss_penalty) else fetch_stall
  in
  (* load-use bubble against the previous instruction *)
  let bubble =
    if t.prev_load_writes land reads <> 0 then cfg.load_use_bubble else 0
  in
  if
    cfg.dual_issue && t.pair_slot_free && stall = 0 && bubble = 0
    && reads land t.slot_writes = 0
    && (not (is_mem && t.slot_mem))
    && not is_branch
  then begin
    (* issues in the already-open cycle *)
    t.pair_slot_free <- false;
    t.b_cyc <- t.b_cyc + stall
  end
  else begin
    t.b_cyc <- t.b_cyc + 1 + stall + bubble;
    t.pair_slot_free <-
      cfg.dual_issue && (not is_branch)
      && (match cls with Mul -> false | _ -> true);
    t.slot_writes <- writes;
    t.slot_mem <- is_mem
  end;
  (* back-end penalties close the pairing window *)
  let taken = meta_taken meta in
  let extra =
    extra_cycles cfg ~cls ~taken ~backward:(meta_backward meta)
      ~mem_words:(meta_mem_words meta)
  in
  if extra > 0 then begin
    t.b_cyc <- t.b_cyc + extra;
    t.pair_slot_free <- false
  end;
  if taken then
    (* redirect: the fetch buffer does not survive a taken branch *)
    t.last_fetch_addr <- -1;
  t.prev_load_writes <- (match cls with Load -> writes | _ -> 0);
  t.b_ins <- t.b_ins + 1

let flush t =
  Pf_power.Account.on_block t.account ~accesses:t.b_acc ~toggles:t.b_tog
    ~refilled_words:t.b_ref ~cycles:t.b_cyc ~insns:t.b_ins;
  t.cycles <- t.cycles + t.b_cyc;
  t.instrs <- t.instrs + t.b_ins;
  t.b_acc <- 0;
  t.b_tog <- 0;
  t.b_ref <- 0;
  t.b_cyc <- 0;
  t.b_ins <- 0

let issue t ~addr ~meta =
  charge t addr meta;
  flush t

(* A slice of events: each one through [charge], except that after any
   retirement leaving the fetch buffer valid ([last_fetch_addr] not
   cleared by a redirect) and no load-use hazard open, the run of
   sequential ALU-shaped events still inside the just-fetched cache line
   takes the line-batched tail.  Those events are guaranteed way-0 hits
   with zero stall and zero bubble, so their fetches collapse into one
   [Icache.access_seq_run] whose output-bus toggles come from [seq_tog],
   and only the pairing state runs per event.  Batches close at
   peak-window boundaries ([Account.window_room]), so every power window
   closes on the same retirement with the same sums as one [issue] per
   event.  Without the fetch buffer every event re-reads the cache, and
   pending tag flips read the cache's access counter, so both take
   [charge] for every event. *)
let issue_events t ~ev ~pos ~n =
  let cfg = t.cfg in
  let dual = cfg.dual_issue in
  let batch =
    cfg.fetch_buffer && not (Pf_cache.Icache.has_pending_flips t.cache)
  in
  let isize = t.isize and wbase = t.code_base lsr 2 in
  let room = ref (Pf_power.Account.window_room t.account) in
  let i = ref 0 in
  while !i < n do
    let p = pos + (2 * !i) in
    let addr = Array.unsafe_get ev p in
    charge t addr (Array.unsafe_get ev (p + 1));
    incr i;
    if t.b_ins = !room then begin
      flush t;
      room := Pf_power.Account.window_room t.account
    end;
    if batch && t.last_fetch_addr >= 0 && t.prev_load_writes = 0 then begin
      let line_end = t.last_fetch_addr lor t.lmask in
      let cap = min (n - !i) (!room - t.b_ins) in
      let k = ref 0 and expect = ref (addr + isize) in
      while
        !k < cap && !expect <= line_end
        && Array.unsafe_get ev (p + 2 + (2 * !k)) = !expect
        && Array.unsafe_get ev (p + 3 + (2 * !k)) land alu_mask = 0
      do
        let m = Array.unsafe_get ev (p + 3 + (2 * !k)) in
        let reads = meta_reads m in
        if dual && t.pair_slot_free && reads land t.slot_writes = 0 then
          t.pair_slot_free <- false
        else begin
          t.b_cyc <- t.b_cyc + 1;
          t.pair_slot_free <- dual;
          t.slot_writes <- meta_writes m;
          t.slot_mem <- false
        end;
        incr k;
        expect := !expect + isize
      done;
      if !k > 0 then begin
        let last = (!expect - isize) land lnot 3 in
        let wprev = t.last_fetch_addr lsr 2 and wlast = last lsr 2 in
        let nacc = wlast - wprev in
        if nacc > 0 then begin
          let tog =
            Array.unsafe_get t.seq_tog (wlast - wbase)
            - Array.unsafe_get t.seq_tog (wprev - wbase)
          in
          Pf_cache.Icache.access_seq_run t.cache ~naccesses:nacc ~toggles:tog
            ~last_out:(Array.unsafe_get t.words (wlast - wbase));
          t.fetches <- t.fetches + nacc;
          t.b_acc <- t.b_acc + nacc;
          t.b_tog <- t.b_tog + tog;
          t.last_fetch_addr <- last
        end;
        t.b_ins <- t.b_ins + !k;
        i := !i + !k;
        if t.b_ins = !room then begin
          flush t;
          room := Pf_power.Account.window_room t.account
        end
      end
    end
  done;
  if t.b_ins > 0 then flush t

let cycles t = t.cycles
let instructions t = t.instrs
let ipc t = if t.cycles = 0 then 0.0 else float_of_int t.instrs /. float_of_int t.cycles
let fetch_accesses t = t.fetches

type stats = {
  instructions : int;
  cycles : int;
  fetch_accesses : int;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

let stats t ~dcache_miss_rate_pm =
  {
    instructions = t.instrs;
    cycles = t.cycles;
    fetch_accesses = t.fetches;
    cache_accesses = Pf_cache.Icache.stats_accesses t.cache;
    cache_misses = Pf_cache.Icache.stats_misses t.cache;
    miss_rate_per_million = Pf_cache.Icache.miss_rate_per_million t.cache;
    dcache_miss_rate_pm;
    power = Pf_power.Account.report t.account;
  }
