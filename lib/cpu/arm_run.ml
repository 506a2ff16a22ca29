module A = Pf_arm.Insn

module Meta = struct
  let classify (i : A.t) =
    match i with
    | A.B _ | A.Bx _ -> Pipeline.Branch
    | A.Mul _ -> Pipeline.Mul
    | A.Mem { load = true; _ } | A.Pop _ -> Pipeline.Load
    | A.Mem { load = false; _ } | A.Push _ -> Pipeline.Store
    | A.Swi _ -> Pipeline.System
    | A.Dp _ -> if A.writes_pc i then Pipeline.Branch else Pipeline.Alu

  let read_mask = A.read_mask
  let write_mask = A.write_mask
end

(* static meta word per code slot; [backward] marks a direct backward
   branch, for the static predictor *)
let build_meta (image : Pf_arm.Image.t) =
  Array.map
    (Option.map (fun i ->
         Pipeline.static_meta
           ~cls_code:(Pipeline.cls_code (Meta.classify i))
           ~backward:(match i with A.B { offset; _ } -> offset < 0 | _ -> false)
           ~reads:(Meta.read_mask i) ~writes:(Meta.write_mask i)))
    image.Pf_arm.Image.insns

type engine = Reference | Compiled

type result = {
  instructions : int;
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

(* The one reader of a stack's counters into this runner's record. *)
let of_stats ~output (s : Pipeline.stats) =
  {
    instructions = s.Pipeline.instructions;
    cycles = s.Pipeline.cycles;
    ipc =
      (if s.Pipeline.cycles = 0 then 0.0
       else
         float_of_int s.Pipeline.instructions
         /. float_of_int s.Pipeline.cycles);
    fetch_accesses = s.Pipeline.fetch_accesses;
    output;
    cache_accesses = s.Pipeline.cache_accesses;
    cache_misses = s.Pipeline.cache_misses;
    miss_rate_per_million = s.Pipeline.miss_rate_per_million;
    dcache_miss_rate_pm = s.Pipeline.dcache_miss_rate_pm;
    power = s.Pipeline.power;
  }

(* The differential oracle: [Exec.run] re-derives every instruction from
   its encoding each step and feeds the timing model from [build_meta]. *)
let run_reference ?cache ?cache_cfg ?pipeline_cfg ?classify ?max_steps
    ?deadline ?trace (image : Pf_arm.Image.t) =
  let code_base = image.Pf_arm.Image.code_base in
  let pipe =
    Pipeline.stack ?config:pipeline_cfg ?classify ?cache ?cache_cfg
      ~words:image.Pf_arm.Image.words ~code_base ~isize:4 ()
  in
  let dcache = Pf_cache.Icache.create Trace.dcache_cfg in
  let st = Pf_arm.Exec.create image in
  let metas = build_meta image in
  Pf_arm.Exec.run ?max_steps ?deadline st ~on_step:(fun _ ~pc insn o ->
      let static =
        match metas.((pc - code_base) lsr 2) with
        | Some m -> m
        | None ->
            Pf_util.Sim_error.raisef Pf_util.Sim_error.Internal
              ~where:"cpu.arm_run" "no metadata for pc 0x%x" pc
      in
      ignore insn;
      let meta =
        Trace.live_meta dcache ~static ~taken:o.Pf_arm.Exec.branch_taken
          ~mem_addr:o.Pf_arm.Exec.mem_addr ~mem_words:o.Pf_arm.Exec.mem_words
      in
      Pipeline.issue pipe ~addr:pc ~meta;
      match trace with
      | Some t -> Trace.record_packed t ~addr:pc ~meta
      | None -> ());
  let dcache_miss_rate_pm = Pf_cache.Icache.miss_rate_per_million dcache in
  (match trace with
  | Some t -> Trace.set_dcache_rate t dcache_miss_rate_pm
  | None -> ());
  of_stats ~output:(Pf_arm.Exec.output st)
    (Pipeline.stats pipe ~dcache_miss_rate_pm)

let run ?(engine = Compiled) ?cache ?cache_cfg ?pipeline_cfg ?classify
    ?max_steps ?deadline ?trace (image : Pf_arm.Image.t) =
  match engine with
  | Reference ->
      run_reference ?cache ?cache_cfg ?pipeline_cfg ?classify ?max_steps
        ?deadline ?trace image
  | Compiled ->
      let core =
        Step.of_image ?cache ?cache_cfg ?pipeline_cfg ?classify ?max_steps
          ?deadline ?trace image
      in
      Step.run core;
      let r = Step.result core in
      {
        instructions = r.Step.instructions;
        cycles = r.Step.cycles;
        ipc = r.Step.ipc;
        fetch_accesses = r.Step.fetch_accesses;
        output = r.Step.output;
        cache_accesses = r.Step.cache_accesses;
        cache_misses = r.Step.cache_misses;
        miss_rate_per_million = r.Step.miss_rate_per_million;
        dcache_miss_rate_pm = r.Step.dcache_miss_rate_pm;
        power = r.Step.power;
      }

let replay ?pipeline_cfg ?classify ~cache_cfg ~output (image : Pf_arm.Image.t)
    trace =
  of_stats ~output
    (Trace.replay ?pipeline_cfg ?classify ~cache_cfg
       ~words:image.Pf_arm.Image.words ~code_base:image.Pf_arm.Image.code_base
       trace)
