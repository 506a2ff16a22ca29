(* Compiled-block layer of the block driver ([Step.run], both ISAs): pairs each
   lazily built Bexec block with its packed events (event packing lives up
   here — lib/arm cannot depend on lib/cpu).  [pairs] interleaves each
   instruction's fetch address with its static meta word, which is
   exactly the layout [Pipeline.issue_events] consumes and
   [Trace.register_pairs] aliases — so a fused ALU run costs one
   [issue_events] call and one two-int block-granular trace event instead
   of per-instruction issue and packing. *)

type cblock = {
  bb : Pf_arm.Bexec.block;
  pairs : int array;
      (* (addr, static meta) per instruction, the meta from the ORIGINAL
         uop: identical class/masks/direction whether or not the executed
         form was flag-elided *)
  mutable tid : int;
      (* [Trace.register_pairs] id of [pairs] in the run's trace, -1
         until first recorded (a Cexec.t serves exactly one run, hence at
         most one trace) *)
}

type t = {
  bx : Pf_arm.Bexec.t;
  isize : int;
  code_base : int;
  cblocks : cblock option array;
}

let create ~isize ~code_base bx =
  { bx; isize; code_base; cblocks = Array.make (Pf_arm.Bexec.slots bx) None }

let build t s =
  let bb = Pf_arm.Bexec.block_at t.bx s in
  let len = bb.Pf_arm.Bexec.len in
  let start = t.code_base + (s * t.isize) in
  let pairs = Array.make (2 * len) 0 in
  Array.iteri
    (fun i (u : Pf_arm.Pexec.uop) ->
      pairs.(2 * i) <- start + (i * t.isize);
      pairs.((2 * i) + 1) <-
        Pipeline.static_meta ~cls_code:u.Pf_arm.Pexec.cls
          ~backward:u.Pf_arm.Pexec.backward ~reads:u.Pf_arm.Pexec.reads
          ~writes:u.Pf_arm.Pexec.writes)
    bb.Pf_arm.Bexec.orig;
  { bb; pairs; tid = -1 }

let block_at t s =
  match Array.unsafe_get t.cblocks s with
  | Some cb -> cb
  | None ->
      let cb = build t s in
      t.cblocks.(s) <- Some cb;
      cb

let bexec t = t.bx
