module Px = Pf_arm.Pexec
module E = Pf_arm.Exec
module Err = Pf_util.Sim_error

(* The one fast engine, for both ISAs.

   A [t] is one core: architectural state, predecoded micro-ops, private
   I-cache/D-cache, pipeline and power account.  It is driven two ways:

   - [step] performs exactly one instruction — watchdog, deadline poll,
     fetch and decode faults, [Pexec.exec], [Pipeline.issue], optional
     [Trace.record_packed], FITS source-retirement bookkeeping.  A multicore
     scheduler interleaves cores with it, and the FITS runner's [on_step]
     hook path loops it.
   - [run] is the block-compiled driver behind [Arm_run.run] and
     [Pf_fits.Run.run]: it dispatches once per basic block
     ([Cexec.block_at]), executes fused ALU runs and issues them as one
     [Pipeline.issue_events], records block-granular trace events,
     and falls back to [step] itself for the halt transition, a fetch
     outside the code, a legality-fallback block, or whenever a budget
     exhaustion or a deadline poll would land inside the next block — so
     every raise and every poll happens at exactly the step count and pc
     [step] would reach.

   Both paths retire the identical event stream as the reference
   interpreters ([Exec.run], the FITS [Mapping.micro] loop); the
   differential tests pin results, traces and faults bit for bit.
   Outside fused ALU runs, a retirement builds its meta word once
   ([Trace.live_meta]) and hands the same word to [Pipeline.issue] and,
   when recording, to [Trace.record_packed]. *)

type result = {
  instructions : int;
  src_instructions : int;
  src_one_to_one : int;
  cycles : int;
  ipc : float;
  fetch_accesses : int;
  output : string;
  cache_accesses : int;
  cache_misses : int;
  miss_rate_per_million : float;
  dcache_miss_rate_pm : float;
  power : Pf_power.Account.report;
}

type t = {
  st : E.t;
  o : E.outcome;
  uops : Px.uop array;
  n : int;
  code_base : int;
  isize : int;
  ishift : int;             (* log2 isize: slot = offset lsr ishift *)
  align_mask : int;         (* ARM faults on a misaligned pc; FITS never has *)
  where : string;           (* fault tag of the ISA's sequential runner *)
  pipe : Pipeline.t;
  dcache : Pf_cache.Icache.t;
  max_steps : int;
  deadline : Pf_util.Deadline.t option;
  trace : Trace.t option;
  (* FITS source-retirement bookkeeping; empty arrays on ARM cores (every
     retirement is its own source instruction) *)
  src_first : bool array;
  src_single : bool array;
  mutable pc : int;
  mutable steps : int;
  mutable src_retired : int;
  mutable src_one : int;
}

(* Faults carry the kinds, tags and messages of the ISA's runner. *)
let fetch_fault t pc =
  if t.isize = 4 then
    Err.raisef Err.Decode_fault ~where:t.where
      "undecodable instruction fetch at 0x%x" pc
  else
    Err.raisef Err.Decode_fault ~where:t.where
      "FITS fetch outside code at 0x%x" pc

let undef_fault t pc (u : Px.uop) =
  if t.isize = 4 then fetch_fault t pc
  else
    Err.raisef Err.Decode_fault ~where:t.where
      "corrupted decoder entry at 0x%x: %s" pc u.Px.why

let budget_fault t =
  if t.isize = 4 then
    Err.raisef Err.Watchdog_timeout ~where:t.where
      "step budget exhausted (%d)" t.max_steps
  else
    Err.raisef Err.Watchdog_timeout ~where:t.where
      "FITS step budget exhausted (%d)" t.max_steps

let default_cache_cfg = Pipeline.default_cache_cfg

let create ?cache ?cache_cfg ?pipeline_cfg ?classify
    ?(max_steps = 500_000_000) ?deadline ?trace ?src ~isize ~code_base ~words
    ~entry ~uops st =
  let where = "cpu.step" in
  if isize <> 2 && isize <> 4 then
    Err.raisef Err.Invalid_config ~where
      "isize must be 2 (FITS) or 4 (ARM), got %d" isize;
  let pipe =
    Pipeline.stack ?config:pipeline_cfg ?classify ?cache ?cache_cfg ~words
      ~code_base ~isize ()
  in
  let src_first, src_single =
    match src with
    | Some (f, s) ->
        if Array.length f <> Array.length uops
           || Array.length s <> Array.length uops
        then
          Err.raisef Err.Invalid_config ~where
            "src metadata length %d/%d does not match %d micro-op slots"
            (Array.length f) (Array.length s) (Array.length uops);
        (f, s)
    | None -> ([||], [||])
  in
  {
    st;
    o = E.outcome ();
    uops;
    n = Array.length uops;
    code_base;
    isize;
    ishift = (if isize = 4 then 2 else 1);
    align_mask = (if isize = 4 then 3 else 0);
    where = (if isize = 4 then "arm.exec" else "fits.run");
    pipe;
    dcache = Pf_cache.Icache.create Trace.dcache_cfg;
    max_steps;
    deadline;
    trace;
    src_first;
    src_single;
    pc = entry;
    steps = 0;
    src_retired = 0;
    src_one = 0;
  }

let of_image ?cache ?cache_cfg ?pipeline_cfg ?classify ?max_steps ?deadline
    ?trace (image : Pf_arm.Image.t) =
  let p = Px.compile image in
  create ?cache ?cache_cfg ?pipeline_cfg ?classify ?max_steps ?deadline
    ?trace ~isize:4 ~code_base:p.Px.code_base
    ~words:image.Pf_arm.Image.words ~entry:p.Px.entry ~uops:p.Px.uops
    (E.create image)

let halted t = t.st.E.halted
let steps t = t.steps
let state t = t.st
let dcache t = t.dcache
let pc t = t.pc

let step t =
  let st = t.st in
  if not st.E.halted then begin
    let pc = t.pc in
    if pc = E.halt_sentinel then begin
      st.E.halted <- true;
      (* don't let [stored_addr] report the previous instruction's store *)
      t.o.E.mem_addr <- -1
    end
    else begin
      if t.steps >= t.max_steps then budget_fault t;
      if t.steps land E.deadline_mask = 0 then
        Pf_util.Deadline.check ~where:t.where t.deadline;
      let off = pc - t.code_base in
      if off < 0 || off land t.align_mask <> 0 || off lsr t.ishift >= t.n
      then fetch_fault t pc;
      let idx = off lsr t.ishift in
      let u = t.uops.(idx) in
      if u.Px.code = Px.code_undef then undef_fault t pc u;
      let o = t.o in
      Px.exec st o u;
      t.pc <- o.E.next_pc;
      (* the ARM pc lives in r15; FITS leaves r15 untouched (r15 reads go
         through the precomputed [pc8]) *)
      if t.isize = 4 then st.E.regs.(15) <- o.E.next_pc;
      let meta =
        Trace.live_meta t.dcache
          ~static:
            (Pipeline.static_meta ~cls_code:u.Px.cls ~backward:u.Px.backward
               ~reads:u.Px.reads ~writes:u.Px.writes)
          ~taken:o.E.branch_taken ~mem_addr:o.E.mem_addr
          ~mem_words:o.E.mem_words
      in
      Pipeline.issue t.pipe ~addr:pc ~meta;
      (match t.trace with
      | None -> ()
      | Some tr -> Trace.record_packed tr ~addr:pc ~meta);
      if Array.length t.src_first > 0 && t.src_first.(idx) then begin
        t.src_retired <- t.src_retired + 1;
        if t.src_single.(idx) then t.src_one <- t.src_one + 1
      end;
      t.steps <- t.steps + 1
    end
  end

let run t =
  let st = t.st and o = t.o and pipe = t.pipe and trace = t.trace in
  let dcache = t.dcache in
  let cb = t.code_base and n = t.n and isize = t.isize in
  let ishift = t.ishift and align_mask = t.align_mask in
  let max_steps = t.max_steps and dmask = E.deadline_mask in
  let regs = st.E.regs in
  let cx = Cexec.create ~isize ~code_base:cb (Pf_arm.Bexec.create t.uops) in
  let sh_dp = Pf_arm.Bexec.sh_dp in
  (* per-block source-retirement sums (FITS), filled at first dispatch *)
  let src_first = t.src_first and src_single = t.src_single in
  let has_src = Array.length src_first > 0 in
  let src_tab = Array.make (if has_src then n else 0) (-1) in
  let one_tab = Array.make (if has_src then n else 0) 0 in
  (* run-scan cursors, hoisted so block dispatch allocates nothing *)
  let i = ref 0 and j = ref 0 in
  while not st.E.halted do
    let pc = t.pc in
    let off = pc - cb in
    (* the halt transition and fetch faults go through [step], so they
       happen after the same watchdog and deadline checks *)
    if
      pc = E.halt_sentinel || off < 0
      || off land align_mask <> 0
      || off lsr ishift >= n
    then step t
    else begin
      let idx = off lsr ishift in
      let cbk = Cexec.block_at cx idx in
      let bb = cbk.Cexec.bb in
      let len = bb.Pf_arm.Bexec.len in
      let s0 = t.steps in
      if
        bb.Pf_arm.Bexec.fallback
        || s0 + len > max_steps
        || (s0 + dmask) land lnot dmask < s0 + len
      then step t
      else begin
        bb.Pf_arm.Bexec.execs <- bb.Pf_arm.Bexec.execs + 1;
        let xu = bb.Pf_arm.Bexec.xuops in
        let shapes = bb.Pf_arm.Bexec.shapes in
        let pairs = cbk.Cexec.pairs in
        (* Maximal runs of ALU-shaped instructions execute first, then
           issue as one span: execution never reads the pipeline and the
           span issue never reads architectural state, and neither a dead
           compare nor a straight-line DP op can fault, so the reordering
           within a run is unobservable.  [pairs] holds the block's packed
           (addr, static meta) events, precomputed at block-compile time;
           an ALU run's static meta is its whole meta.  The
           trace is matched once per block: matching it per event
           measured ~11% slower on the suite (EXPERIMENTS.md). *)
        i := 0;
        (match trace with
        | None ->
            while !i < len do
              if Array.unsafe_get shapes !i <= sh_dp then begin
                j := !i + 1;
                while !j < len && Array.unsafe_get shapes !j <= sh_dp do
                  incr j
                done;
                for k = !i to !j - 1 do
                  if Array.unsafe_get shapes k = sh_dp then
                    Px.exec_dp_nr st o (Array.unsafe_get xu k)
                  else st.E.steps <- st.E.steps + 1
                done;
                Pipeline.issue_events pipe ~ev:pairs ~pos:(2 * !i)
                  ~n:(!j - !i);
                i := !j
              end
              else begin
                Px.exec st o (Array.unsafe_get xu !i);
                Pipeline.issue pipe
                  ~addr:(Array.unsafe_get pairs (2 * !i))
                  ~meta:
                    (Trace.live_meta dcache
                       ~static:(Array.unsafe_get pairs ((2 * !i) + 1))
                       ~taken:o.E.branch_taken ~mem_addr:o.E.mem_addr
                       ~mem_words:o.E.mem_words);
                incr i
              end
            done
        | Some tr ->
            (* the same run-scan; each ALU span also bulk-records its
               pairs *)
            while !i < len do
              if Array.unsafe_get shapes !i <= sh_dp then begin
                j := !i + 1;
                while !j < len && Array.unsafe_get shapes !j <= sh_dp do
                  incr j
                done;
                for k = !i to !j - 1 do
                  if Array.unsafe_get shapes k = sh_dp then
                    Px.exec_dp_nr st o (Array.unsafe_get xu k)
                  else st.E.steps <- st.E.steps + 1
                done;
                Pipeline.issue_events pipe ~ev:pairs ~pos:(2 * !i)
                  ~n:(!j - !i);
                if cbk.Cexec.tid < 0 then
                  cbk.Cexec.tid <- Trace.register_pairs tr pairs;
                Trace.record_span tr ~tid:cbk.Cexec.tid ~pos:(2 * !i)
                  ~n:(!j - !i);
                i := !j
              end
              else begin
                let a = Array.unsafe_get pairs (2 * !i) in
                Px.exec st o (Array.unsafe_get xu !i);
                let meta =
                  Trace.live_meta dcache
                    ~static:(Array.unsafe_get pairs ((2 * !i) + 1))
                    ~taken:o.E.branch_taken ~mem_addr:o.E.mem_addr
                    ~mem_words:o.E.mem_words
                in
                Pipeline.issue pipe ~addr:a ~meta;
                Trace.record_packed tr ~addr:a ~meta;
                incr i
              end
            done);
        t.steps <- s0 + len;
        if has_src then begin
          if src_tab.(idx) < 0 then begin
            let a = ref 0 and b = ref 0 in
            for k = idx to idx + len - 1 do
              if src_first.(k) then begin
                incr a;
                if src_single.(k) then incr b
              end
            done;
            src_tab.(idx) <- !a;
            one_tab.(idx) <- !b
          end;
          t.src_retired <- t.src_retired + src_tab.(idx);
          t.src_one <- t.src_one + one_tab.(idx)
        end;
        let npc =
          if bb.Pf_arm.Bexec.has_term then o.E.next_pc
          else pc + (len lsl ishift)
        in
        t.pc <- npc;
        if isize = 4 then regs.(15) <- npc
      end
    end
  done

let stored_addr t =
  let o = t.o in
  if o.E.mem_addr >= 0 && not o.E.mem_is_load then o.E.mem_addr else -1

let stored_words t =
  if stored_addr t < 0 then 0 else max 1 t.o.E.mem_words

let result t =
  let dcache_miss_rate_pm = Pf_cache.Icache.miss_rate_per_million t.dcache in
  (match t.trace with
  | Some tr -> Trace.set_dcache_rate tr dcache_miss_rate_pm
  | None -> ());
  let s = Pipeline.stats t.pipe ~dcache_miss_rate_pm in
  let cycles = s.Pipeline.cycles in
  let src =
    if Array.length t.src_first > 0 then t.src_retired
    else s.Pipeline.instructions
  in
  {
    instructions = s.Pipeline.instructions;
    src_instructions = src;
    src_one_to_one = t.src_one;
    cycles;
    ipc = (if cycles = 0 then 0.0 else float_of_int src /. float_of_int cycles);
    fetch_accesses = s.Pipeline.fetch_accesses;
    output = E.output t.st;
    cache_accesses = s.Pipeline.cache_accesses;
    cache_misses = s.Pipeline.cache_misses;
    miss_rate_per_million = s.Pipeline.miss_rate_per_million;
    dcache_miss_rate_pm;
    power = s.Pipeline.power;
  }
