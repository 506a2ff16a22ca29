module A = Pf_arm.Insn
module Px = Pf_arm.Pexec
module P = Pf_cpu.Pipeline

type result = {
  fits_instructions : int;
  arm_instructions : int;
  dyn_one_to_one_pct : float;
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

(* The static meta word of one translated slot. *)
let meta_of_micro (m : Mapping.micro) =
  let meta cls ~reads ~writes ~backward =
    P.static_meta ~cls_code:(P.cls_code cls) ~backward ~reads ~writes
  in
  match m with
  | Mapping.M_exec insn ->
      meta
        (Pf_cpu.Arm_run.Meta.classify insn)
        ~reads:(A.read_mask insn) ~writes:(A.write_mask insn)
        ~backward:
          (match insn with A.B { offset; _ } -> offset < 0 | _ -> false)
  | Mapping.M_dp32 { rd; rn; op; _ } ->
      let reads = match op with A.MOV | A.MVN -> 0 | _ -> A.reg_bit rn in
      meta P.Alu ~reads ~writes:(A.reg_bit rd) ~backward:false
  | Mapping.M_jalr rm ->
      meta P.Branch ~reads:(A.reg_bit rm) ~writes:(A.reg_bit A.lr)
        ~backward:false
  | Mapping.M_undef _ ->
      (* never issued: dispatch raises before reaching the pipeline *)
      meta P.Alu ~reads:0 ~writes:0 ~backward:false

(* Predecode the translated stream: one micro-op per 16-bit slot, pipeline
   metadata attached (same classes and masks as [meta_of_micro]). *)
let predecode (tr : Translate.t) =
  let code_base = tr.Translate.code_base in
  Array.mapi
    (fun idx fi ->
      let pc = code_base + (2 * idx) in
      match fi.Translate.micro with
      | Mapping.M_exec insn -> Px.of_insn ~isize:2 ~pc insn
      | Mapping.M_dp32 { op; s; rd; rn; value; cond } ->
          Px.dp_value ~isize:2 ~pc ~cond ~op ~s ~rd ~rn ~value
      | Mapping.M_jalr rm -> Px.jalr ~pc ~rm
      | Mapping.M_undef why -> Px.undef ~isize:2 ~pc ~why)
    tr.Translate.insns

type engine = Pf_cpu.Arm_run.engine = Reference | Compiled

let where = "fits.run"

let outside_fault pc =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault ~where
    "FITS fetch outside code at 0x%x" pc

let budget_fault max_steps =
  Pf_util.Sim_error.raisef Pf_util.Sim_error.Watchdog_timeout ~where
    "FITS step budget exhausted (%d)" max_steps

(* A FITS core: the translated stream predecoded, with the per-slot
   source-retirement flags ([Translate.first], singleton groups) that
   drive the ARM-instruction counts and the 1-to-1 mapping rate. *)
let stepper ?cache ?cache_cfg ?pipeline_cfg ?classify ?max_steps ?deadline
    ?trace (tr : Translate.t) =
  let insns = tr.Translate.insns in
  let first = Array.map (fun fi -> fi.Translate.first) insns in
  let single = Array.map (fun fi -> fi.Translate.group_len = 1) insns in
  Pf_cpu.Step.create ?cache ?cache_cfg ?pipeline_cfg ?classify ?max_steps
    ?deadline ?trace ~src:(first, single) ~isize:2
    ~code_base:tr.Translate.code_base ~words:tr.Translate.words
    ~entry:tr.Translate.entry ~uops:(predecode tr)
    (Pf_arm.Exec.create tr.Translate.image)

let one_to_one_pct ~one ~src =
  if src = 0 then 0.0 else 100.0 *. float_of_int one /. float_of_int src

(* The one reader of a stack's counters into this runner's record; the
   execution-derived fields come from the run that executed. *)
let of_stats ~fits_instructions ~arm_instructions ~dyn_one_to_one_pct ~output
    (s : P.stats) =
  {
    fits_instructions;
    arm_instructions;
    dyn_one_to_one_pct;
    cycles = s.P.cycles;
    ipc =
      (if s.P.cycles = 0 then 0.0
       else float_of_int arm_instructions /. float_of_int s.P.cycles);
    fetch_accesses = s.P.fetch_accesses;
    output;
    cache_accesses = s.P.cache_accesses;
    cache_misses = s.P.cache_misses;
    miss_rate_per_million = s.P.miss_rate_per_million;
    dcache_miss_rate_pm = s.P.dcache_miss_rate_pm;
    power = s.P.power;
  }

(* The differential oracle: each step dispatches the slot's
   [Mapping.micro] through [Exec.execute] and feeds the timing model from
   [meta_of_micro]. *)
let run_reference ?cache ?cache_cfg ?pipeline_cfg ?classify ~max_steps
    ?deadline ?on_step ?trace (tr : Translate.t) =
  let code_base = tr.Translate.code_base in
  let pipe =
    P.stack ?config:pipeline_cfg ?classify ?cache ?cache_cfg
      ~words:tr.Translate.words ~code_base ~isize:2 ()
  in
  let dcache = Pf_cache.Icache.create Pf_cpu.Trace.dcache_cfg in
  let insns = tr.Translate.insns in
  let ninsns = Array.length insns in
  let st = Pf_arm.Exec.create tr.Translate.image in
  let o = Pf_arm.Exec.outcome () in
  let pc = ref tr.Translate.entry in
  let steps = ref 0 in
  let src_retired = ref 0 in
  let src_one = ref 0 in
  let metas = Array.map (fun fi -> meta_of_micro fi.Translate.micro) insns in
  while not st.Pf_arm.Exec.halted do
    if !pc = Pf_arm.Exec.halt_sentinel then st.Pf_arm.Exec.halted <- true
    else begin
      if !steps >= max_steps then budget_fault max_steps;
      if !steps land Pf_arm.Exec.deadline_mask = 0 then
        Pf_util.Deadline.check ~where deadline;
      let idx = (!pc - code_base) asr 1 in
      if idx < 0 || idx >= ninsns then outside_fault !pc;
      let fi = insns.(idx) in
      (match fi.Translate.micro with
      | Mapping.M_exec insn -> Pf_arm.Exec.execute ~isize:2 st ~pc:!pc insn o
      | Mapping.M_dp32 { op; s; rd; rn; value; cond } ->
          Pf_arm.Exec.execute_dp_value ~isize:2 st ~pc:!pc ~cond ~op ~s ~rd
            ~rn ~value o
      | Mapping.M_jalr rm ->
          st.Pf_arm.Exec.steps <- st.Pf_arm.Exec.steps + 1;
          st.Pf_arm.Exec.regs.(A.lr) <- !pc + 2;
          o.Pf_arm.Exec.executed <- true;
          o.Pf_arm.Exec.branch_taken <- true;
          o.Pf_arm.Exec.next_pc <- st.Pf_arm.Exec.regs.(rm) land lnot 1;
          o.Pf_arm.Exec.mem_addr <- -1;
          o.Pf_arm.Exec.mem_words <- 0
      | Mapping.M_undef why ->
          Pf_util.Sim_error.raisef Pf_util.Sim_error.Decode_fault ~where
            "corrupted decoder entry at 0x%x: %s" !pc why);
      let meta =
        Pf_cpu.Trace.live_meta dcache ~static:metas.(idx)
          ~taken:o.Pf_arm.Exec.branch_taken ~mem_addr:o.Pf_arm.Exec.mem_addr
          ~mem_words:o.Pf_arm.Exec.mem_words
      in
      P.issue pipe ~addr:!pc ~meta;
      (match trace with
      | Some t -> Pf_cpu.Trace.record_packed t ~addr:!pc ~meta
      | None -> ());
      if fi.Translate.first then begin
        incr src_retired;
        if fi.Translate.group_len = 1 then incr src_one
      end;
      incr steps;
      (match on_step with None -> () | Some f -> f st ~steps:!steps);
      pc := o.Pf_arm.Exec.next_pc
    end
  done;
  let dcache_miss_rate_pm = Pf_cache.Icache.miss_rate_per_million dcache in
  (match trace with
  | Some t -> Pf_cpu.Trace.set_dcache_rate t dcache_miss_rate_pm
  | None -> ());
  of_stats ~fits_instructions:!steps ~arm_instructions:!src_retired
    ~dyn_one_to_one_pct:(one_to_one_pct ~one:!src_one ~src:!src_retired)
    ~output:(Pf_arm.Exec.output st)
    (P.stats pipe ~dcache_miss_rate_pm)

let run ?(engine = Compiled) ?cache ?cache_cfg ?pipeline_cfg ?classify
    ?(max_steps = 500_000_000) ?deadline ?on_step ?trace (tr : Translate.t) =
  match engine with
  | Reference ->
      run_reference ?cache ?cache_cfg ?pipeline_cfg ?classify ~max_steps
        ?deadline ?on_step ?trace tr
  | Compiled ->
      let core =
        stepper ?cache ?cache_cfg ?pipeline_cfg ?classify ~max_steps
          ?deadline ?trace tr
      in
      (match on_step with
      | None -> Pf_cpu.Step.run core
      | Some f ->
          (* the hook observes every retirement: per-instruction path *)
          let st = Pf_cpu.Step.state core in
          while not (Pf_cpu.Step.halted core) do
            let before = Pf_cpu.Step.steps core in
            Pf_cpu.Step.step core;
            let steps = Pf_cpu.Step.steps core in
            if steps > before then f st ~steps
          done);
      let r = Pf_cpu.Step.result core in
      let src = r.Pf_cpu.Step.src_instructions in
      {
        fits_instructions = r.Pf_cpu.Step.instructions;
        arm_instructions = src;
        dyn_one_to_one_pct =
          one_to_one_pct ~one:r.Pf_cpu.Step.src_one_to_one ~src;
        cycles = r.Pf_cpu.Step.cycles;
        ipc = r.Pf_cpu.Step.ipc;
        fetch_accesses = r.Pf_cpu.Step.fetch_accesses;
        output = r.Pf_cpu.Step.output;
        cache_accesses = r.Pf_cpu.Step.cache_accesses;
        cache_misses = r.Pf_cpu.Step.cache_misses;
        miss_rate_per_million = r.Pf_cpu.Step.miss_rate_per_million;
        dcache_miss_rate_pm = r.Pf_cpu.Step.dcache_miss_rate_pm;
        power = r.Pf_cpu.Step.power;
      }

let replay ?pipeline_cfg ?classify ~cache_cfg ~like (tr : Translate.t) trace
    =
  let s =
    Pf_cpu.Trace.replay ?pipeline_cfg ?classify ~cache_cfg
      ~words:tr.Translate.words ~code_base:tr.Translate.code_base trace
  in
  of_stats ~fits_instructions:like.fits_instructions
    ~arm_instructions:like.arm_instructions
    ~dyn_one_to_one_pct:like.dyn_one_to_one_pct ~output:like.output s
