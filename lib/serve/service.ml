(* Request evaluation: cache keys, the compute paths, and the
   degradation ladder.  Pure with respect to the daemon — everything
   stateful (socket, admission queue, counters) lives in {!Daemon}; this
   module maps one request to one response given a store handle, so tests
   can drive it without a socket. *)

module SE = Pf_util.Sim_error

let err fmt = SE.raisef SE.Invalid_config ~where:"serve.service" fmt

(* ---- request resolution ---- *)

type resolved = {
  r_program : Pf_kir.Ast.program;
  r_name : string;
  r_unroll : int;
}

let resolve (req : Proto.request) =
  match req.Proto.program with
  | Proto.Inline p ->
      {
        r_program = p;
        r_name = "inline";
        r_unroll = Option.value ~default:1 req.Proto.unroll;
      }
  | Proto.Named n ->
      let b = Pf_mibench.Registry.find_exn n in
      {
        r_program = b.Pf_mibench.Registry.program ~scale:req.Proto.scale;
        r_name = b.Pf_mibench.Registry.name;
        r_unroll =
          Option.value ~default:b.Pf_mibench.Registry.unroll req.Proto.unroll;
      }

(* ---- cache keys ---- *)

(* The key preimage is a canonical line list over exactly the fields that
   can change the result of the action.  The program enters by *content*
   (MD5 of its canonical KIR encoding, already specialized to the request
   scale), so a registry name and an identical inline shipment share one
   entry; fields irrelevant to an action (geometry for [synthesize]) stay
   out so they cannot fragment the cache. *)
let cache_key (req : Proto.request) =
  let r = resolve req in
  let geom_line (g : Pf_cache.Icache.config) =
    Printf.sprintf "geometry=%d/%d/%d" g.Pf_cache.Icache.size_bytes
      g.Pf_cache.Icache.block_bytes g.Pf_cache.Icache.assoc
  in
  let opt_int name = function
    | None -> name ^ "=none"
    | Some i -> Printf.sprintf "%s=%d" name i
  in
  let common =
    [
      (* the version changes whenever a stored result's meaning does:
         /2 prices direct evaluations by their geometry *)
      "powerfits-serve/2";
      "action=" ^ Proto.action_name req.Proto.action;
      "program=" ^ Kir_codec.digest r.r_program;
      Printf.sprintf "unroll=%d" r.r_unroll;
      opt_int "max_steps" req.Proto.max_steps;
    ]
  in
  let fits_fields =
    [
      "weighting=" ^ Pf_multi.Weighting.to_string req.Proto.weighting;
      opt_int "dict_budget" req.Proto.dict_budget;
    ]
  in
  let lines =
    match req.Proto.action with
    | Proto.Synthesize -> common @ fits_fields
    | Proto.Evaluate ->
        common
        @ [ "isa=" ^ Proto.isa_name req.Proto.isa; geom_line req.Proto.geometry ]
        @ (if req.Proto.isa = Proto.Fits then fits_fields else [])
    | Proto.Explore_point ->
        common @ [ geom_line req.Proto.geometry ] @ fits_fields
    | (Proto.Status | Proto.Shutdown) as a ->
        err "action %s has no cache key" (Proto.action_name a)
  in
  String.concat "\n" lines

(* ---- result encoders ---- *)

let power_json (p : Pf_power.Account.report) =
  Json.Obj
    [
      ("switching", Json.Float p.Pf_power.Account.switching);
      ("internal", Json.Float p.Pf_power.Account.internal);
      ("leakage", Json.Float p.Pf_power.Account.leakage);
      ("total", Json.Float p.Pf_power.Account.total);
      ("peak_power", Json.Float p.Pf_power.Account.peak_power);
      ("cycles", Json.Int p.Pf_power.Account.cycles);
    ]

let output_md5 s = Digest.to_hex (Digest.string s)

(* ---- compute paths ---- *)

let synthesis_of ~(req : Proto.request) ~(r : resolved) ?max_steps ?deadline
    image =
  let dyn_counts, output =
    Pf_fits.Synthesis.dyn_counts_of_run ?max_steps ?deadline image
  in
  let dyn_insns = Array.fold_left ( + ) 0 dyn_counts in
  let p_mult =
    Pf_multi.Weighting.multiplier req.Proto.weighting ~name:r.r_name ~dyn_insns
  in
  let syn =
    Pf_fits.Synthesis.synthesize_suite
      ?dict_budget:req.Proto.dict_budget
      [ { Pf_fits.Synthesis.p_image = image; p_dyn_counts = dyn_counts; p_mult } ]
  in
  (syn, dyn_insns, output)

let compute_synthesize ~(req : Proto.request) ~(r : resolved) ?max_steps
    ?deadline () =
  let image = Pf_armgen.Compile.program ~unroll:r.r_unroll r.r_program in
  let syn, dyn_insns, output = synthesis_of ~req ~r ?max_steps ?deadline image in
  Json.Obj
    [
      ("program", Json.String r.r_name);
      ("ais_opdefs", Json.Int (List.length syn.Pf_fits.Synthesis.ais));
      ( "candidates_considered",
        Json.Int syn.Pf_fits.Synthesis.candidates_considered );
      ("datapath_off", Json.Float syn.Pf_fits.Synthesis.datapath_off);
      ("dict_spilled", Json.Int syn.Pf_fits.Synthesis.dict_spilled);
      ("dyn_insns", Json.Int dyn_insns);
      ("output_md5", Json.String (output_md5 output));
    ]

let compute_evaluate ~(req : Proto.request) ~(r : resolved) ?max_steps ?deadline
    () =
  let image = Pf_armgen.Compile.program ~unroll:r.r_unroll r.r_program in
  match req.Proto.isa with
  | Proto.Arm ->
      let res =
        Pf_cpu.Arm_run.run ~cache_cfg:req.Proto.geometry ?max_steps ?deadline
          image
      in
      Json.Obj
        [
          ("program", Json.String r.r_name);
          ("isa", Json.String "arm");
          ("instructions", Json.Int res.Pf_cpu.Arm_run.instructions);
          ("cycles", Json.Int res.Pf_cpu.Arm_run.cycles);
          ("ipc", Json.Float res.Pf_cpu.Arm_run.ipc);
          ("fetch_accesses", Json.Int res.Pf_cpu.Arm_run.fetch_accesses);
          ("cache_accesses", Json.Int res.Pf_cpu.Arm_run.cache_accesses);
          ("cache_misses", Json.Int res.Pf_cpu.Arm_run.cache_misses);
          ( "miss_rate_pm",
            Json.Float res.Pf_cpu.Arm_run.miss_rate_per_million );
          ( "dcache_miss_rate_pm",
            Json.Float res.Pf_cpu.Arm_run.dcache_miss_rate_pm );
          ("power", power_json res.Pf_cpu.Arm_run.power);
          ("output_md5", Json.String (output_md5 res.Pf_cpu.Arm_run.output));
        ]
  | Proto.Fits ->
      let syn, _, _ = synthesis_of ~req ~r ?max_steps ?deadline image in
      let tr = Pf_fits.Translate.translate syn.Pf_fits.Synthesis.spec image in
      let res =
        Pf_fits.Run.run ~cache_cfg:req.Proto.geometry ?max_steps ?deadline tr
      in
      Json.Obj
        [
          ("program", Json.String r.r_name);
          ("isa", Json.String "fits");
          ("instructions", Json.Int res.Pf_fits.Run.arm_instructions);
          ("fits_instructions", Json.Int res.Pf_fits.Run.fits_instructions);
          ( "dyn_one_to_one_pct",
            Json.Float res.Pf_fits.Run.dyn_one_to_one_pct );
          ("cycles", Json.Int res.Pf_fits.Run.cycles);
          ("ipc", Json.Float res.Pf_fits.Run.ipc);
          ("fetch_accesses", Json.Int res.Pf_fits.Run.fetch_accesses);
          ("cache_accesses", Json.Int res.Pf_fits.Run.cache_accesses);
          ("cache_misses", Json.Int res.Pf_fits.Run.cache_misses);
          ( "miss_rate_pm",
            Json.Float res.Pf_fits.Run.miss_rate_per_million );
          ( "dcache_miss_rate_pm",
            Json.Float res.Pf_fits.Run.dcache_miss_rate_pm );
          ("dict_spilled", Json.Int syn.Pf_fits.Synthesis.dict_spilled);
          ("power", power_json res.Pf_fits.Run.power);
          ("output_md5", Json.String (output_md5 res.Pf_fits.Run.output));
        ]

(* Recording key for explore-point trace sharing: exactly what
   determines a recording — program content (scale-specialized), unroll,
   effective max_steps, dictionary budget.  Geometry deliberately stays
   out: that is the axis requests share across.  A deadline never enters
   either — it aborts a recording, it cannot truncate one. *)
let share_key ~(req : Proto.request) ~(r : resolved) ~max_steps =
  String.concat "\n"
    [
      "powerfits-trace/1";
      "program=" ^ Kir_codec.digest r.r_program;
      Printf.sprintf "unroll=%d" r.r_unroll;
      (match max_steps with
      | None -> "max_steps=none"
      | Some i -> Printf.sprintf "max_steps=%d" i);
      (match req.Proto.dict_budget with
      | None -> "dict_budget=none"
      | Some i -> Printf.sprintf "dict_budget=%d" i);
    ]

let compute_explore_point ?traces ~(req : Proto.request) ~(r : resolved)
    ?max_steps ?deadline () =
  let bench : Pf_mibench.Registry.benchmark =
    {
      Pf_mibench.Registry.name = r.r_name;
      result_name = r.r_name;
      category = "serve";
      program = (fun ~scale:_ -> r.r_program);
      power_study = false;
      unroll = r.r_unroll;
    }
  in
  let dict_budgets = [ req.Proto.dict_budget ] in
  let record () =
    Pf_dse.Explore.record ?max_steps ?deadline ~dict_budgets bench
  in
  let recording, trace_shared =
    match traces with
    | None -> (record (), false)
    | Some ts ->
        Trace_share.find_or_record ts ~key:(share_key ~req ~r ~max_steps)
          record
  in
  let run =
    Pf_dse.Explore.sweep_recording ~geometries:[ req.Proto.geometry ]
      recording
  in
  let point_json (p : Pf_dse.Explore.point) =
    let m = p.Pf_dse.Explore.metrics in
    Json.Obj
      [
        ( "variant",
          Json.String (Pf_dse.Explore.variant_label p.Pf_dse.Explore.variant) );
        ("geometry", Proto.geometry_to_json p.Pf_dse.Explore.geometry);
        ("instructions", Json.Int m.Pf_dse.Explore.instructions);
        ("cycles", Json.Int m.Pf_dse.Explore.cycles);
        ("ipc", Json.Float m.Pf_dse.Explore.ipc);
        ("cache_misses", Json.Int m.Pf_dse.Explore.cache_misses);
        ("miss_rate_pm", Json.Float m.Pf_dse.Explore.miss_rate_pm);
        ("gate_count", Json.Int m.Pf_dse.Explore.gate_count);
        ("power", power_json m.Pf_dse.Explore.power);
      ]
  in
  Json.Obj
    [
      ("program", Json.String r.r_name);
      ( "points",
        Json.List (List.map point_json run.Pf_dse.Explore.points) );
      ("replayed_events", Json.Int run.Pf_dse.Explore.replayed_events);
      ( "outputs_consistent",
        Json.Bool run.Pf_dse.Explore.outputs_consistent );
      ("trace_shared", Json.Bool trace_shared);
    ]

(* ---- degradation ladder ---- *)

let default_budget_s = 60.

let compute ?traces ?(budget_s = default_budget_s) ?default_max_steps
    (req : Proto.request) =
  let attempt (req : Proto.request) =
    SE.protect ~where:"serve.service" (fun () ->
        let r = resolve req in
        let max_steps =
          match req.Proto.max_steps with
          | Some _ as m -> m
          | None -> default_max_steps
        in
        let budget = Option.value ~default:budget_s req.Proto.budget_s in
        let deadline =
          if budget > 0. then Some (Pf_util.Deadline.after ~seconds:budget)
          else None
        in
        match req.Proto.action with
        | Proto.Synthesize -> compute_synthesize ~req ~r ?max_steps ?deadline ()
        | Proto.Evaluate -> compute_evaluate ~req ~r ?max_steps ?deadline ()
        | Proto.Explore_point ->
            compute_explore_point ?traces ~req ~r ?max_steps ?deadline ()
        | (Proto.Status | Proto.Shutdown) as a ->
            err "action %s is not computable" (Proto.action_name a))
  in
  (* over-budget requests degrade to half workload rather than failing:
     halve the scale while possible, each attempt under a fresh budget.
     Only a watchdog trip degrades — a deterministic simulation error
     repeats identically at any scale, so retrying it is pure waste. *)
  let rec ladder req degraded =
    match attempt req with
    | Ok result -> Ok (result, degraded)
    | Error { SE.kind = SE.Watchdog_timeout; _ }
      when req.Proto.scale > 1
           && (match req.Proto.program with
              | Proto.Named _ -> true
              | Proto.Inline _ -> false) ->
        ladder { req with Proto.scale = req.Proto.scale / 2 } true
    | Error e -> Error e
  in
  ladder req false

(* ---- cache envelope ---- *)

(* What a store payload holds: the result plus the degraded flag, so a
   cache hit replays the original reply exactly. *)
let envelope ~degraded result =
  Json.to_string (Json.Obj [ ("degraded", Json.Bool degraded); ("result", result) ])

let of_envelope s =
  match Json.of_string s with
  | Error msg -> err "corrupt cache payload: %s" msg
  | Ok j ->
      let degraded =
        Option.value ~default:false
          (Option.bind (Json.member "degraded" j) Json.to_bool_opt)
      in
      let result = Option.value ~default:Json.Null (Json.member "result" j) in
      (result, degraded)

(* ---- one request end to end ---- *)

let handle ?store ?inflight ?traces ?budget_s ?default_max_steps
    (req : Proto.request) =
  match req.Proto.action with
  | Proto.Status | Proto.Shutdown ->
      Proto.Error_reply
        {
          SE.kind = SE.Invalid_config;
          where = "serve.service";
          detail =
            Proto.action_name req.Proto.action
            ^ " is handled by the daemon, not the compute service";
          backtrace = None;
        }
  | Proto.Synthesize | Proto.Evaluate | Proto.Explore_point -> (
      let use_cache = store <> None && not req.Proto.no_cache in
      match SE.protect ~where:"serve.service" (fun () -> cache_key req) with
      | Error e -> Proto.Error_reply e
      | Ok key ->
          let lookup_or_compute () =
            let cached_hit =
              if not use_cache then None
              else
                Option.bind store (fun s ->
                    Retry.with_backoff ~where:"serve.store" (fun () ->
                        Store.get s ~key))
            in
            match cached_hit with
            | Some payload -> (
                match SE.protect ~where:"serve.service" (fun () ->
                          of_envelope payload)
                with
                | Ok (result, degraded) ->
                    Proto.Ok_reply { result; cached = true; degraded }
                | Error e -> Proto.Error_reply e)
            | None -> (
                match compute ?traces ?budget_s ?default_max_steps req with
                | Error e -> Proto.Error_reply e
                | Ok (result, degraded) ->
                    (if use_cache then
                       match store with
                       | Some s ->
                           Retry.with_backoff ~where:"serve.store" (fun () ->
                               Store.put s ~key (envelope ~degraded result))
                       | None -> ());
                    Proto.Ok_reply { result; cached = false; degraded })
          in
          (* coalescing is safe even under [no_cache]: that flag bypasses
             possibly-stale *store* entries, but a concurrent in-flight
             computation is fresh by definition *)
          (match inflight with
          | None -> lookup_or_compute ()
          | Some infl -> (
              match Inflight.run infl ~key lookup_or_compute with
              | Inflight.Led resp | Inflight.Joined resp -> resp)))
