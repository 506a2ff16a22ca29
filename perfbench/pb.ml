(* pb.exe — the measuring half of the repository benchmark (run.py is the
   runner).

     pb.exe setup    --workload W
     pb.exe run      --workload W --seconds T --trace 0|1
     pb.exe names    per-layer metric names, units and directions
     pb.exe selftest the benchmark's own checks

   Both [setup] and [run] print "ready <unix time>" once the workload's
   inputs are built, so run.py can time set-up from its side of the
   process spawn.  [run] then runs passes until [--seconds] have gone by
   and prints one "PBRESULT {json}" line. *)

let now = Unix.gettimeofday

(* ---- host factor: a fixed loop timed between the parts of a pass ----- *)

(* Random read-modify-writes over a 16 MB array.  It is slowed by the
   memory-system contention that moves the simulator's timings on a shared
   host, more than a pure ALU loop is.  The array is allocated once and never
   freed: freeing a block that large raises glibc's mmap threshold, and
   later large blocks of the workload would then stop coming from fresh,
   page-faulting mappings, as they do in a user's run. *)
let calib_array =
  lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21))

let calib_loop () =
  let a = Lazy.force calib_array in
  let n = Bigarray.Array1.dim a in
  let x = ref 12345 in
  for i = 0 to 4_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (n - 1) in
    a.{j} <- a.{j} + i
  done;
  a.{0} + !x

let host_factor_s () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calib_loop ()));
  now () -. t0

(* The host factor of the reference host.  [wall_s] is a pass's time on a
   host whose factor reads this. *)
let reference_factor_s = 0.025

(* ---- per-layer metric table --------------------------------------------- *)

(* ns metrics measured on the workload's own spans when its pipeline runs
   the layer, else by the fixed probe of that layer *)
let path_ns =
  [
    ("cpu.arm_run.record.ns_per_insn", "cpu.arm_run.record");
    ("cpu.arm_run.replay.ns_per_insn", "cpu.arm_run.replay");
    ("fits.run.record.ns_per_insn", "fits.run.record");
    ("fits.run.replay.ns_per_insn", "fits.run.replay");
    ("fits.run.direct.ns_per_insn", "fits.run.direct");
    ("dse.sweep.ns_per_geom_event", "dse.sweep");
  ]

let count_unit name =
  if String.length name > 3 && String.starts_with ~prefix:"gc." name then
    "words/insn"
  else
    match name with
    | "cpu.fetch_accesses_per_insn" | "cache.icache.accesses_per_insn" ->
        "accesses/insn"
    | "cache.icache.miss_rate_pm" -> "misses/M"
    | "fits.static_map_pct" | "fits.dyn_map_pct" -> "%"
    | _ -> "count"

let count_better = function
  | "fits.static_map_pct" | "fits.dyn_map_pct" -> "higher"
  | _ -> "lower"

(* (name, unit, better), in print order *)
let per_layer_names =
  [
    ("traced_wall_s", "s", "lower");
    ("untraced_wall_s", "s", "lower");
    ("trace.overhead_pct", "%", "lower");
    ("span.coverage_pct", "%", "higher");
  ]
  @ List.map (fun (n, _) -> (n, "ns", "lower")) path_ns
  @ [
      ("arm.pexec.bare.ns_per_insn", "ns", "lower");
      ("cpu.arm_run.run.ns_per_insn", "ns", "lower");
      ("cpu.trace.record_overhead.ns_per_insn", "ns", "lower");
      ("mc.machine.core_create.ms", "ms", "lower");
      ("mc.machine.ns_per_slice", "ns", "lower");
    ]
  @ List.map (fun l -> (l ^ ".self_pct", "%", "lower")) Work.layers
  @ List.map (fun n -> (n, count_unit n, count_better n)) Work.count_names

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* ---- JSON output -------------------------------------------------------- *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let median l = Probe.median l

(* ---- passes ------------------------------------------------------------- *)

type sample = {
  wall : float;
  factors : float list;  (** untraced passes: the host factors timed *)
  top_heap_mb : float;  (** major-heap high-water so far in the process *)
  pass : Work.pass;
}

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let timed f =
  let t0 = now () in
  let pass = f () in
  { wall = now () -. t0; factors = []; top_heap_mb = top_heap_mb (); pass }

(* The host factor is timed before the first part, and after every part
   once per half second the part took, so that a run of few long parts
   gets as many samples as one of many short parts.  Its own time is left
   out of the pass's wall. *)
let timed_parts (w : Work.workload) =
  let factors = ref [ host_factor_s () ] and inside = ref 0. in
  let part f =
    let t0 = now () in
    let r = f () in
    for _ = 0 to int_of_float ((now () -. t0) /. 0.5) do
      let h = host_factor_s () in
      factors := h :: !factors;
      inside := !inside +. h
    done;
    r
  in
  let s = timed (fun () -> w.run { Work.part }) in
  { s with wall = s.wall -. !inside; factors = !factors }

(* A pass fails if its own checks fail or its digest differs from the
   first pass's. *)
let failures ~digest samples =
  List.length
    (List.filter (fun s -> s.pass.Work.failed || s.pass.digest <> digest) samples)

let log_pass kind i s =
  Printf.printf "pass %s %d: wall %.3f s, %.0f events, %s, digest %s\n%!" kind i
    s.wall s.pass.Work.events
    (if s.pass.failed then "FAILED" else "ok")
    s.pass.digest

(* Passes run, at least one, until another would end more than half a
   pass past [seconds]. *)
let more ~t0 ~seconds last = now () -. t0 +. (0.5 *. last) < seconds

let run_untraced (w : Work.workload) ~seconds =
  let t0 = now () in
  let rec loop acc =
    let s = timed_parts w in
    log_pass "untraced" (List.length acc) s;
    let acc = s :: acc in
    if more ~t0 ~seconds s.wall then loop acc else List.rev acc
  in
  loop []

(* untraced and traced passes alternate, so host drift lands on both
   sides of the tracing overhead *)
let run_traced (w : Work.workload) ~seconds =
  let sp = Span.create () in
  let t0 = now () in
  let rec loop us ts =
    let u = timed_parts w in
    log_pass "untraced" (List.length us) u;
    let t = timed (fun () -> w.replica sp) in
    log_pass "traced" (List.length ts) t;
    let us = u :: us and ts = t :: ts in
    if more ~t0 ~seconds (u.wall +. t.wall) then loop us ts
    else (List.rev us, List.rev ts)
  in
  let us, ts = loop [] [] in
  (sp, us, ts)

let best samples = List.fold_left (fun a s -> Float.min a s.wall) infinity samples

let host_factors samples = List.concat_map (fun s -> s.factors) samples

(* Contention from other tenants of a shared host slows the simulator and
   the host factor's loop alike, and it drifts over minutes, longer than
   a run.  So [wall_s] is the run's median pass wall over its median host
   factor, at the reference factor. *)
let scaled_wall samples =
  reference_factor_s
  *. median (List.map (fun s -> s.wall) samples)
  /. median (host_factors samples)

let layer_metrics sp ~untraced ~traced ~probes =
  let traced_total = List.fold_left (fun a s -> a +. s.wall) 0. traced in
  let tw = best traced and uw = best untraced in
  let probe n = List.assoc n probes in
  let sources = ref [] in
  let path (metric, layer) =
    let u = Span.units sp layer in
    if u > 0. then begin
      sources := (metric, "path") :: !sources;
      (metric, 1e9 *. Span.seconds sp layer /. u)
    end
    else begin
      sources := (metric, "probe") :: !sources;
      (metric, probe layer)
    end
  in
  let share l = (l ^ ".self_pct", 100. *. Span.seconds sp l /. traced_total) in
  let last = List.nth traced (List.length traced - 1) in
  let metrics =
    [
      ("traced_wall_s", tw);
      ("untraced_wall_s", uw);
      ("trace.overhead_pct", 100. *. (tw -. uw) /. uw);
      ("span.coverage_pct", 100. *. Span.total_s sp /. traced_total);
    ]
    @ List.map path path_ns
    @ [
        ("arm.pexec.bare.ns_per_insn", probe "arm.pexec.bare");
        ("cpu.arm_run.run.ns_per_insn", probe "cpu.arm_run.run");
        ( "cpu.trace.record_overhead.ns_per_insn",
          probe "cpu.arm_run.record" -. probe "cpu.arm_run.run" );
        ("mc.machine.core_create.ms", probe "mc.machine.core_create");
        ("mc.machine.ns_per_slice", probe "mc.machine.slice");
      ]
    @ List.map share Work.layers
    @ last.pass.counts
  in
  (metrics, List.rev !sources)

let metrics_json metrics =
  json_obj
    (List.map
       (fun (n, unit_, _) ->
         let v = List.assoc n metrics in
         (n, json_obj [ ("value", json_float v); ("unit", json_str unit_) ]))
       per_layer_names)

let arg args name =
  let rec go = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> go rest
    | [] -> failwith ("missing " ^ name)
  in
  go args

let setup args =
  let name = arg args "--workload" in
  let w = Work.setup name in
  Printf.printf "ready %.6f\n%!" (now ());
  (name, w)

let run args =
  let name, w = setup args in
  let seconds = float_of_string (arg args "--seconds") in
  let trace = arg args "--trace" = "1" in
  let untraced, traced, extra =
    if trace then begin
      let sp, us, ts = run_traced w ~seconds in
      let probes = Probe.run () in
      (us, ts, Some (sp, probes))
    end
    else (run_untraced w ~seconds, [], None)
  in
  let all = untraced @ traced in
  let first = List.hd all in
  let failed = failures ~digest:first.pass.digest all in
  let walls = List.map (fun s -> s.wall) untraced in
  let wall = scaled_wall untraced in
  let fields =
    [
      ("workload", json_str name);
      ("event_unit", json_str w.event_unit);
      ("passes", string_of_int (List.length untraced));
      ("traced_passes", string_of_int (List.length traced));
      ("attempted", string_of_int (List.length all));
      ("failed", string_of_int failed);
      ("digest", json_str first.pass.digest);
      ("walls", json_list json_float walls);
      ("median_wall_s", json_float (median walls));
      ("best_pass_s", json_float (best untraced));
      ("wall_s", json_float wall);
      ("host_factor_s", json_float (median (host_factors untraced)));
      ("events", json_float first.pass.events);
      ("events_per_s", json_float (first.pass.events /. wall));
      (* after the first pass only: the heap keeps growing slowly over
         later passes, and their number varies with the host's speed *)
      ("top_heap_mb", json_float first.top_heap_mb);
      ( "modelled",
        json_obj (List.map (fun (k, v) -> (k, json_float v)) first.pass.modelled)
      );
    ]
  in
  let fields =
    match extra with
    | None -> fields
    | Some (sp, probes) ->
        let metrics, sources =
          layer_metrics sp ~untraced ~traced ~probes
        in
        fields
        @ [
            ("per_layer", metrics_json metrics);
            ("ns_source", json_obj (List.map (fun (k, v) -> (k, json_str v)) sources));
          ]
  in
  print_endline ("PBRESULT " ^ json_obj fields)

(* ---- the benchmark's own checks ----------------------------------------- *)

let check ok what =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  ok

let selftest () =
  let crc = Pf_mibench.Registry.find "crc32" in
  let fail_frac samples =
    float_of_int (failures ~digest:(List.hd samples).pass.Work.digest samples)
    /. float_of_int (List.length samples)
  in
  let clean = timed (fun () -> Work.suite_pass ~benchmarks:[ crc ] Work.untimed) in
  let planted =
    timed (fun () -> Work.suite_pass ~max_steps:1000 ~benchmarks:[ crc ] Work.untimed)
  in
  let r = Pf_harness.Experiment.run_benchmark ~engine:Pf_cpu.Arm_run.Compiled crc in
  let d0 = Work.suite_digest [ r ] [] in
  let bumped =
    { r with fits8 = { r.fits8 with ipc = Float.succ r.fits8.ipc } }
  in
  let sp = Span.create () in
  let ta = Work.tally () in
  let replica = Work.suite_bench sp ta crc in
  let pop_pass = Work.population_pass ~count:3 ~seed:7 Work.untimed in
  let pop_replica = Work.population_replica ~count:3 ~seed:7 (Span.create ()) in
  let dense_pass = Work.dense_pass [ crc ] Work.untimed in
  let dense_replica = Work.dense_replica [ crc ] (Span.create ()) in
  let lit = Work.litmus_pass ~seeds:5 Work.untimed in
  let lit_replica = Work.litmus_replica ~seeds:5 (Span.create ()) in
  let sb = Pf_mc.Litmus.run ~jobs:1 ~seeds:5 Pf_mc.Litmus.sb in
  let forged = { sb with forbidden = [ ("0:0 1:0 | x=1 y=1", 1) ] } in
  let pass_of wall h = { clean with wall; factors = [ h; h; 1.5 *. h ] } in
  let results =
    List.map
      (fun (ok, what) -> check ok what)
      [
        (fail_frac [ clean; clean ] = 0., "clean crc32 suite pass: fail_frac 0");
        ( fail_frac [ clean; planted ] > 0.,
          "crc32 under a 1000-step watchdog raises fail_frac" );
        (planted.pass.failed, "the watchdog row alone fails its pass");
        ( d0 <> Work.suite_digest [ bumped ] [],
          "a one-ulp change to FITS8 IPC changes the suite digest" );
        ( Work.suite_digest [ replica ] [] = d0,
          "suite replica of crc32 is bit-identical to Experiment.run_benchmark" );
        ( pop_replica.digest = pop_pass.digest,
          "population replica (3 programs) is bit-identical to Population.run" );
        ( dense_replica.digest = dense_pass.digest,
          "dense replica of crc32 is bit-identical to Explore.run" );
        (lit_replica.digest = lit.digest, "litmus replica digest matches");
        (not lit.failed, "litmus: no forbidden outcome");
        ( (Work.litmus_result [ forged ] []).failed,
          "a forbidden litmus outcome fails the pass" );
        ( (Work.litmus_result [ forged ] []).digest
          <> (Work.litmus_result [ sb ] []).digest,
          "a changed litmus outcome changes the digest" );
        ( scaled_wall [ pass_of 2. 0.04; pass_of 2.5 0.04 ]
          = scaled_wall [ pass_of 1. 0.02; pass_of 1.25 0.02 ],
          "a pass slowed with the host factor leaves wall_s as it is" );
        ( List.for_all (fun (n, _, _) -> valid_name n) per_layer_names,
          "every per-layer metric name matches [A-Za-z0-9_.-]+" );
        ( (not (valid_name "a b")) && (not (valid_name "x+y")) && not (valid_name ""),
          "the name check rejects bad names" );
      ]
  in
  if List.for_all Fun.id results then print_endline "selftest: all ok"
  else begin
    print_endline "selftest: FAILED";
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "setup" :: args -> ignore (setup args)
  | "run" :: args -> run args
  | [ "names" ] ->
      List.iter (fun (n, u, b) -> Printf.printf "%s %s %s\n" n u b) per_layer_names
  | [ "selftest" ] -> selftest ()
  | _ ->
      prerr_endline "usage: pb.exe (setup|run|names|selftest) ...";
      exit 2
