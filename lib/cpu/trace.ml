(* Two ints per event, stored in fixed-size chunks so recording never
   copies what is already written (a doubling flat array would); every
   reader takes a full chunk's length from the chunk itself.  Chunks that
   start small and double measured a larger peak heap on the figures
   sweep (EXPERIMENTS.md), so every chunk is full size.  An event is
   exactly what [Pipeline.issue] charges — the fetch pc and the packed
   meta word whose layout [Pipeline] owns — stored unchanged, so a replay
   feeds the pipeline the very words the live run issued.

   Block-granular events: the block-compiled engines emit a fused ALU run
   as ONE two-int event — slot 0 is [-1 - tid] (negative, so per-insn
   events, whose slot 0 is a non-negative pc, are unambiguous), where
   [tid] indexes a pairs table registered once per static block via
   [register_pairs]; slot 1 packs the run's offset in that table (low 32
   bits) and its event count (high bits).  Every consumer ([iter],
   [replay], and through them the DSE sweep) expands a block event to the
   identical per-instruction (pc, meta) stream the table holds — the
   compression is invisible outside this module, but a recording writes
   and a replay reads two ints per RUN instead of two per instruction,
   and the tables stay cache-hot across the block's executions. *)

let ints_per_event = 2
let chunk_events = 65536

type t = {
  isize : int;
  mutable chunks : int array array;
  mutable nchunks : int;      (* chunks in use *)
  mutable cur : int array;    (* == chunks.(nchunks - 1) *)
  mutable cur_used : int;     (* ints used in [cur] *)
  mutable len : int;          (* total events *)
  mutable dcache_rate_pm : float;
      (* the recording run's D-cache miss rate, carried to replays *)
  mutable ptabs : int array array;  (* registered block pairs tables *)
  mutable nptabs : int;
}

let create ~isize () =
  let first = Array.make (chunk_events * ints_per_event) 0 in
  {
    isize;
    chunks = [| first |];
    nchunks = 1;
    cur = first;
    cur_used = 0;
    len = 0;
    dcache_rate_pm = 0.0;
    ptabs = [||];
    nptabs = 0;
  }

let isize t = t.isize
let length t = t.len
let set_dcache_rate t pm = t.dcache_rate_pm <- pm
let dcache_rate t = t.dcache_rate_pm

let[@inline] span_pos w = w land 0xFFFFFFFF
let[@inline] span_n w = w lsr 32

let iter t f =
  for ci = 0 to t.nchunks - 1 do
    let chunk = t.chunks.(ci) in
    let used = if ci = t.nchunks - 1 then t.cur_used else Array.length chunk in
    let i = ref 0 in
    while !i < used do
      let a = chunk.(!i) in
      if a >= 0 then f a chunk.(!i + 1)
      else begin
        (* block event: expand the referenced run of table pairs *)
        let tab = t.ptabs.(-1 - a) in
        let w = chunk.(!i + 1) in
        let pos = span_pos w and n = span_n w in
        for k = 0 to n - 1 do
          f tab.(pos + (2 * k)) tab.(pos + (2 * k) + 1)
        done
      end;
      i := !i + 2
    done
  done

(* Per-slot execution counts of the recorded stream.  The trace is the
   executed instruction sequence, so for an ARM recording this equals
   what a dedicated counting run ([Synthesis.dyn_counts_of_run]'s
   [Pexec.run_counting]) produces — the harness derives its synthesis
   profile from the trace it just recorded instead of executing the
   program a fifth time. *)
let exec_counts t ~base ~n =
  let counts = Array.make n 0 in
  let shift = if t.isize = 4 then 2 else 1 in
  iter t (fun addr _ ->
      let w = (addr - base) asr shift in
      if w >= 0 && w < n then counts.(w) <- counts.(w) + 1);
  counts

let grow t =
  if t.nchunks = Array.length t.chunks then begin
    let spine = Array.make (2 * t.nchunks) [||] in
    Array.blit t.chunks 0 spine 0 t.nchunks;
    t.chunks <- spine
  end;
  let c = Array.make (chunk_events * ints_per_event) 0 in
  t.chunks.(t.nchunks) <- c;
  t.nchunks <- t.nchunks + 1;
  t.cur <- c;
  t.cur_used <- 0

let record_packed t ~addr ~meta =
  if t.cur_used = Array.length t.cur then grow t;
  let i = t.cur_used in
  t.cur.(i) <- addr;
  t.cur.(i + 1) <- meta;
  t.cur_used <- i + 2;
  t.len <- t.len + 1

(* Block-granular recording: the compiled engines register each static
   block's precomputed (addr, meta) pairs table once, then append a fused
   ALU run as a single two-int reference into it (encoding documented at
   the top of this file).  [iter] and [replay] read the reference as the
   identical per-instruction stream [n] [record_packed] calls would have
   produced. *)
let register_pairs t pairs =
  if t.nptabs = Array.length t.ptabs then begin
    let spine = Array.make (max 8 (2 * t.nptabs)) [||] in
    Array.blit t.ptabs 0 spine 0 t.nptabs;
    t.ptabs <- spine
  end;
  t.ptabs.(t.nptabs) <- pairs;
  t.nptabs <- t.nptabs + 1;
  t.nptabs - 1

let record_span t ~tid ~pos ~n =
  if t.cur_used = Array.length t.cur then grow t;
  let i = t.cur_used in
  t.cur.(i) <- -1 - tid;
  t.cur.(i + 1) <- pos lor (n lsl 32);
  t.cur_used <- i + 2;
  t.len <- t.len + n

(* the SA-1100's 8 KB data cache, identical in all four configurations *)
let dcache_cfg = Pf_cache.Icache.config ~size_bytes:(8 * 1024) ()

(* Count misses of a [words]-word D-cache walk starting at [base].
   Top-level and fully applied so the per-word loop carries its counter in
   a register instead of a heap-allocated [ref]. *)
let rec dcache_walk d base w words acc =
  if w >= words then acc
  else
    let hit =
      Pf_cache.Icache.access_count d ~addr:((base + (4 * w)) land lnot 3)
    in
    dcache_walk d base (w + 1) words (if hit then acc else acc + 1)

let[@inline] live_meta dcache ~static ~taken ~mem_addr ~mem_words =
  let dmisses =
    match Pipeline.cls_of_code (Pipeline.meta_cls_code static) with
    | (Pipeline.Load | Pipeline.Store) when mem_addr >= 0 ->
        dcache_walk dcache mem_addr 0 mem_words 0
    | _ -> 0
  in
  static lor Pipeline.dynamic_meta ~taken ~mem_words ~dmisses

let replay ?pipeline_cfg ?classify ?cache ?cache_cfg ~words ~code_base t =
  let pipe =
    Pipeline.stack ?config:pipeline_cfg ?classify ?cache ?cache_cfg ~words
      ~code_base ~isize:t.isize ()
  in
  (* stored events go to the pipeline unchanged: a block event as its
     table slice, a run of per-instruction events as a chunk slice (a run
     cut by a chunk boundary is two slices, which is equivalent: the
     pipeline carries its state across calls, and where a slice ends
     only limits how far one batch reaches) *)
  let i = ref 0 and j = ref 0 in
  for ci = 0 to t.nchunks - 1 do
    let chunk = t.chunks.(ci) in
    let used = if ci = t.nchunks - 1 then t.cur_used else Array.length chunk in
    i := 0;
    while !i < used do
      let a = chunk.(!i) in
      if a < 0 then begin
        let w = chunk.(!i + 1) in
        Pipeline.issue_events pipe ~ev:t.ptabs.(-1 - a) ~pos:(span_pos w)
          ~n:(span_n w);
        i := !i + 2
      end
      else begin
        j := !i + 2;
        while !j < used && Array.unsafe_get chunk !j >= 0 do
          j := !j + 2
        done;
        Pipeline.issue_events pipe ~ev:chunk ~pos:!i ~n:((!j - !i) lsr 1);
        i := !j
      end
    done
  done;
  Pipeline.stats pipe ~dcache_miss_rate_pm:t.dcache_rate_pm
