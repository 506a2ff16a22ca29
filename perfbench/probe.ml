(* Fixed layer probes: each layer's cost per unit of work on one small,
   fixed input (crc32 at scale 1, the compiled engine), so every traced
   run reports every layer, including layers its workload does not reach.
   Each probe is timed [reps] times and the median is kept. *)

module E = Pf_harness.Experiment
module Arm_run = Pf_cpu.Arm_run
module Trace = Pf_cpu.Trace
module Frun = Pf_fits.Run
module Machine = Pf_mc.Machine

let reps = 5

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* median seconds of [f], whose result gives the work units it did *)
let per_unit f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        let units = f () in
        (Unix.gettimeofday () -. t0) /. float_of_int units)
  in
  median samples

(* the 128 smallest-index geometries of the dense grid: enough lanes that
   the sweep amortizes as it does on the full grid, small enough to probe *)
let sweep_geometries () =
  List.filteri (fun i _ -> i < 128) (Pf_dse.Space.geometries Pf_dse.Space.dense)

(* probe name -> ns per unit (ms per core for [mc.machine.core_create]) *)
let run () =
  let b = Pf_mibench.Registry.find "crc32" in
  let image = Pf_armgen.Compile.program ~unroll:b.unroll (b.program ~scale:1) in
  let ns f = 1e9 *. per_unit f in
  let arm_record () =
    let trace = Trace.create ~isize:4 () in
    let r =
      Arm_run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k ~trace image
    in
    (trace, r)
  in
  let trace, arm16 = arm_record () in
  let prog = Pf_arm.Pexec.compile image in
  let bare =
    ns (fun () ->
        let st = Pf_arm.Exec.create image in
        Pf_arm.Pexec.run prog st;
        st.steps)
  in
  let run =
    ns (fun () ->
        (Arm_run.run ~engine:Arm_run.Compiled ~cache_cfg:E.cache_16k image)
          .instructions)
  in
  let record = ns (fun () -> (snd (arm_record ())).instructions) in
  let replay =
    ns (fun () ->
        (Arm_run.replay ~cache_cfg:E.cache_8k ~output:arm16.output image trace)
          .instructions)
  in
  let dyn_counts =
    Trace.exec_counts trace ~base:image.code_base ~n:(Array.length image.words)
  in
  let syn = Pf_fits.Synthesis.synthesize image ~dyn_counts in
  let tr = Pf_fits.Translate.translate syn.spec image in
  let fits_record () =
    let ftrace = Trace.create ~isize:2 () in
    let r =
      Frun.run ~engine:Frun.Compiled ~cache_cfg:E.cache_16k ~trace:ftrace tr
    in
    (ftrace, r)
  in
  let ftrace, fits16 = fits_record () in
  let frecord = ns (fun () -> (snd (fits_record ())).arm_instructions) in
  let freplay =
    ns (fun () ->
        (Frun.replay ~cache_cfg:E.cache_8k ~like:fits16 tr ftrace)
          .arm_instructions)
  in
  let fdirect =
    ns (fun () ->
        (Frun.run ~engine:Frun.Compiled ~cache_cfg:E.cache_8k tr)
          .arm_instructions)
  in
  let recording = Pf_dse.Explore.record ~dict_budgets:[ None ] b in
  let geometries = sweep_geometries () in
  let sweep =
    ns (fun () ->
        (Pf_dse.Explore.sweep_recording ~engine:Pf_dse.Space.Sweep ~geometries
           recording)
          .replayed_events)
  in
  let core_create_ms =
    1e3 *. per_unit (fun () ->
        ignore (Machine.arm_core image);
        1)
  in
  let slice =
    ns (fun () ->
        let cores =
          Array.init 2 (fun i -> (Printf.sprintf "c%d" i, Machine.arm_core image))
        in
        let sched = Pf_mc.Sched.create ~ncores:2 0 in
        let m = Machine.create ~sched cores in
        Machine.run m;
        Machine.slices m)
  in
  [
    ("arm.pexec.bare", bare);
    ("cpu.arm_run.run", run);
    ("cpu.arm_run.record", record);
    ("cpu.arm_run.replay", replay);
    ("fits.run.record", frecord);
    ("fits.run.replay", freplay);
    ("fits.run.direct", fdirect);
    ("dse.sweep", sweep);
    ("mc.machine.core_create", core_create_ms);
    ("mc.machine.slice", slice);
  ]
