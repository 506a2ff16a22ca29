(* Flat layer spans timed from the benchmark's side of each call: wall
   seconds, minor-heap words allocated, work units and call count per
   layer name.  Spans do not nest, so a span's time is its self time. *)

type acc = {
  mutable s : float;
  mutable words : float;
  mutable units : float;
  mutable calls : int;
}

type t = { tbl : (string, acc) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let acc t name =
  match Hashtbl.find_opt t.tbl name with
  | Some a -> a
  | None ->
      let a = { s = 0.; words = 0.; units = 0.; calls = 0 } in
      Hashtbl.replace t.tbl name a;
      a

let span t name f =
  let a = acc t name in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  a.s <- a.s +. (t1 -. t0);
  a.words <- a.words +. (Gc.minor_words () -. w0);
  a.calls <- a.calls + 1;
  r

let add_units t name n = (acc t name).units <- (acc t name).units +. n

let find t name = Hashtbl.find_opt t.tbl name

let seconds t name = match find t name with Some a -> a.s | None -> 0.
let units t name = match find t name with Some a -> a.units | None -> 0.
let words t name = match find t name with Some a -> a.words | None -> 0.

let total_s t = Hashtbl.fold (fun _ a acc -> acc +. a.s) t.tbl 0.
