(* Tests for the power model: geometry scaling, accounting arithmetic,
   peak tracking, and the chip-level model. *)

module G = Pf_power.Geometry
module Acc = Pf_power.Account
module Chip = Pf_power.Chip

let geom kb =
  G.of_config (Pf_cache.Icache.config ~size_bytes:(kb * 1024) ())

let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

let test_geometry_scaling () =
  let g16 = geom 16 and g8 = geom 8 in
  check_bool "half size ~ half gates" true
    (let ratio =
       float_of_int g8.G.gate_count /. float_of_int g16.G.gate_count
     in
     ratio > 0.45 && ratio < 0.55);
  Alcotest.(check int) "data cells exact" (16 * 1024 * 8) g16.G.data_cells;
  check_bool "tags much smaller than data" true
    (g16.G.tag_cells * 4 < g16.G.data_cells)

let params : Acc.Params.t =
  {
    Acc.Params.k_access = 10.0;
    k_output = 1.0;
    k_refill_per_bit = 2.0;
    k_internal_per_gate = 1e-4;
    k_leakage_per_gate = 1e-5;
    peak_window_insns = 4;
  }

(* per-event activity, fed through the batched accounting entry *)
let access a ~toggles ~refilled_words =
  Acc.on_block a ~accesses:1 ~toggles ~refilled_words ~cycles:0 ~insns:0

let spend a n =
  Acc.on_block a ~accesses:0 ~toggles:0 ~refilled_words:0 ~cycles:n ~insns:0

let retire_n a n =
  for _ = 1 to n do
    Acc.on_block a ~accesses:0 ~toggles:0 ~refilled_words:0 ~cycles:0
      ~insns:1
  done

let test_accounting_linearity () =
  let a = Acc.create ~params (geom 16) in
  access a ~toggles:5 ~refilled_words:0;
  access a ~toggles:5 ~refilled_words:0;
  spend a 10;
  let r = Acc.report a in
  checkf "switching = 2 * (k_access + 5)" 30.0 r.Acc.switching;
  let gates = float_of_int (geom 16).G.gate_count in
  checkf "internal = cycles * k * gates" (10.0 *. 1e-4 *. gates)
    r.Acc.internal;
  checkf "leakage = cycles * k * gates" (10.0 *. 1e-5 *. gates) r.Acc.leakage;
  checkf "total is the sum"
    (r.Acc.switching +. r.Acc.internal +. r.Acc.leakage)
    r.Acc.total;
  Alcotest.(check int) "cycles tracked" 10 r.Acc.cycles

let test_refill_energy () =
  let a = Acc.create ~params (geom 16) in
  access a ~toggles:0 ~refilled_words:8;
  let r = Acc.report a in
  checkf "refill charged per bit" (10.0 +. (2.0 *. 8.0 *. 32.0)) r.Acc.switching

let test_peak_exceeds_average () =
  let a = Acc.create ~params (geom 16) in
  (* one busy 4-instruction window, then two idle windows *)
  for _ = 1 to 10 do
    access a ~toggles:10 ~refilled_words:0
  done;
  spend a 4;
  retire_n a 4;
  spend a 12;
  retire_n a 8;
  let r = Acc.report a in
  let avg = Acc.avg_power r in
  check_bool "peak >= average" true (r.Acc.peak_power >= avg);
  check_bool "peak strictly above average for bursty input" true
    (r.Acc.peak_power > avg *. 1.5)

let test_peak_window_boundaries () =
  let a = Acc.create ~params (geom 16) in
  (* switching lands in the open window even before it closes *)
  access a ~toggles:100 ~refilled_words:0;
  spend a 4;
  retire_n a 4;
  let r1 = (Acc.report a).Acc.peak_power in
  check_bool "window closed with switching included" true
    (r1 > (Acc.report a).Acc.internal /. 4.0)

let test_closed_form_equivalence () =
  (* an incremental accountant and the batch closed forms over the same
     integer counters must agree bit-for-bit — the contract the
     all-geometry sweep kernel relies on *)
  let a = Acc.create ~params (geom 8) in
  let acc = ref 0 and tog = ref 0 and rw = ref 0 and cyc = ref 0 in
  List.iter
    (fun (t, w, c) ->
      access a ~toggles:t ~refilled_words:w;
      incr acc;
      tog := !tog + t;
      rw := !rw + w;
      spend a c;
      cyc := !cyc + c;
      retire_n a 1)
    [ (3, 0, 1); (15, 8, 26); (0, 0, 2); (7, 0, 1); (2, 8, 25); (9, 0, 3) ];
  let r = Acc.report a in
  let direct =
    Acc.report_of_counts a ~accesses:!acc ~toggles:!tog
      ~refill_words:!rw ~cycles:!cyc ~peak:r.Acc.peak_power
  in
  check_bool "bit-identical switching" true
    (r.Acc.switching = direct.Acc.switching);
  check_bool "bit-identical internal" true (r.Acc.internal = direct.Acc.internal);
  check_bool "bit-identical total" true (r.Acc.total = direct.Acc.total);
  (* report is read-only: a second call sees the same state *)
  check_bool "report idempotent" true (Acc.report a = r)

let baseline = { Chip.icache_energy = 270.0; cycles = 1000 }

let test_chip_model () =
  (* identical configuration: no saving *)
  checkf "baseline saves nothing" 0.0
    (Chip.chip_saving ~baseline ~icache_energy:270.0 ~cycles:1000 ());
  (* the I-cache is 27% of the chip: eliminating it entirely saves 27% *)
  checkf "cache share bounds the saving" 27.0
    (Chip.chip_saving ~baseline ~icache_energy:0.0 ~cycles:1000 ());
  (* halving cache power saves 13.5% *)
  checkf "half cache power" 13.5
    (Chip.chip_saving ~baseline ~icache_energy:135.0 ~cycles:1000 ());
  (* running 20% longer at the same cache energy: the cache's average
     power drops but the rest of the chip burns the whole time, so the
     saving is well below the half-cache-power case *)
  let slow = Chip.chip_saving ~baseline ~icache_energy:270.0 ~cycles:1200 () in
  check_bool "longer runtime caps the saving" true (slow > 0.0 && slow < 5.0);
  (* datapath deactivation adds savings beyond the cache share *)
  check_bool "deactivation bonus" true
    (Chip.chip_saving ~baseline ~icache_energy:135.0 ~cycles:1000
       ~datapath_off:0.05 ()
    > 13.5)

let test_calibration_breakdown () =
  (* the default parameters must reproduce the Figure 6(a) ARM16 shape:
     internal dominates, switching is about a third, leakage around 12% *)
  let a = Acc.create (geom 16) in
  (* emulate 1000 cycles at ~0.85 fetches/cycle with typical toggles *)
  for _ = 1 to 850 do
    access a ~toggles:15 ~refilled_words:0
  done;
  spend a 1000;
  let r = Acc.report a in
  let share x = 100.0 *. x /. r.Acc.total in
  check_bool "switching ~ a third" true
    (share r.Acc.switching > 25.0 && share r.Acc.switching < 42.0);
  check_bool "internal > half-ish" true
    (share r.Acc.internal > 45.0 && share r.Acc.internal < 65.0);
  check_bool "leakage ~ a tenth" true
    (share r.Acc.leakage > 8.0 && share r.Acc.leakage < 18.0)

let prop_energy_monotone =
  QCheck.Test.make ~name:"energy accumulates monotonically" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 50)
           (pair (int_bound 32) (int_bound 10))))
    (fun events ->
      let a = Acc.create ~params (geom 8) in
      let previous = ref 0.0 in
      List.for_all
        (fun (toggles, cycles) ->
          access a ~toggles ~refilled_words:0;
          spend a cycles;
          let t = (Acc.report a).Acc.total in
          let ok = t >= !previous in
          previous := t;
          ok)
        events)

let tests =
  [
    Alcotest.test_case "geometry scales with size" `Quick
      test_geometry_scaling;
    Alcotest.test_case "accounting linearity" `Quick test_accounting_linearity;
    Alcotest.test_case "refill energy" `Quick test_refill_energy;
    Alcotest.test_case "peak exceeds average" `Quick test_peak_exceeds_average;
    Alcotest.test_case "peak window switching" `Quick
      test_peak_window_boundaries;
    Alcotest.test_case "closed-form equivalence" `Quick
      test_closed_form_equivalence;
    Alcotest.test_case "chip-level model" `Quick test_chip_model;
    Alcotest.test_case "default calibration shape" `Quick
      test_calibration_breakdown;
    QCheck_alcotest.to_alcotest prop_energy_monotone;
  ]
