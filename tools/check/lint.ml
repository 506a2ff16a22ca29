(* Source lint for the library tree.

   Every failure path in lib/ must go through Pf_util.Sim_error so callers
   (the experiment harness, the fault campaigns, the CLI) can classify and
   isolate it.  A bare [failwith] or [assert false] bypasses that contract:
   it surfaces as an anonymous Failure/Assert_failure with no kind, no
   location tag, and no exit-code mapping.  This lint fails the build when
   one sneaks back in.

   Signal-based watchdogs ([Sys.signal], [Unix.setitimer]/ITIMER) are
   forbidden in lib/ for a different reason: POSIX delivers signals to the
   main domain only, so they silently stop working inside Pool worker
   domains.  Wall-clock budgets must use the monotonic Pf_util.Deadline,
   which any domain can poll.

   Deliberate exceptions go in [allowlist] as (path-suffix, line-substring)
   pairs with a justification comment.

   Allocation discipline is NOT a lint: whether a step loop allocates is a
   property of the generated code (tuple returns, closure captures, boxed
   optional arguments, float stores into mixed records), not of any
   greppable source pattern.  The guard for it is behavioural —
   test/test_alloc.ml measures [Gc.minor_words] deltas over ~100k-step
   runs of the one fast engine, both its paths ([Step.step] and the block
   driver [Step.run]) on both ISAs, and fails if a per-step allocation
   creeps back in.  Keep that test in sync when adding fields to the hot
   structs in lib/arm/pexec.ml, lib/cpu/step.ml or lib/cpu/pipeline.ml. *)

let allowlist : (string * string) list =
  [ (* currently empty: lib/ is fully converted to Sim_error *) ]

let sim_error_reason =
  "raise a structured Pf_util.Sim_error instead (or extend the lint \
   allowlist with a justification)"

let domain_safe_reason =
  "signals only reach the main domain; use the monotonic Pf_util.Deadline \
   watchdog, which works inside Pool worker domains"

(* Everything random in lib/ must flow from explicit seeded state
   (Pf_util.Rng): the population digests, the workload generator, the
   fault campaigns and the loadgen plans all promise bit-identical
   replay from a seed, and one stray draw from stdlib Random's global,
   per-domain state silently breaks that for every jobs count. *)
let seeded_rng_reason =
  "unseeded global RNG; thread explicit Pf_util.Rng state from a seed so \
   results replay bit-identically at any --jobs"

let forbidden =
  [
    ("failwith", sim_error_reason);
    ("assert false", sim_error_reason);
    ("Sys.signal", domain_safe_reason);
    ("Sys.set_signal", domain_safe_reason);
    ("setitimer", domain_safe_reason);
    ("ITIMER", domain_safe_reason);
    ("Random.self_init", seeded_rng_reason);
    ("Random.int", seeded_rng_reason);
    ("Random.bits", seeded_rng_reason);
    ("Random.float", seeded_rng_reason);
  ]

(* Tree-scoped rules: (path substring, pattern, reason).  The serve
   stack promises crash safety — every byte it persists must flow
   through Pf_util.Atomic_file (temp + rename + CRC), so a bare
   [open_out] would reintroduce torn writes; and a daemon library must
   never [exit], it reports structured errors and lets bin/ decide the
   process's fate (the injected-crash hook exits from bin/powerfits.ml
   for exactly that reason). *)
let scoped_forbidden =
  [
    ( "lib/serve/",
      "open_out",
      "persist through Pf_util.Atomic_file — bare open_out can tear on crash"
    );
    ( "lib/serve/",
      "exit ",
      "lib/serve must not terminate the process; return a structured error \
       and let bin/ decide" );
  ]
  (* The multicore machine is an INTERLEAVING simulator, not a threaded
     program: determinism (bit-identical runs per scheduler seed, at any
     --jobs) holds only because exactly one core advances per slice on a
     single domain.  Spawning real domains or threads inside lib/mc
     would reintroduce host-machine nondeterminism into the very layer
     whose job is to model concurrency deterministically.  Fan-out
     across seeds/configs goes through Pf_util.Pool, outside the
     machine.  Mutexes are banned for the same reason: nothing in lib/mc
     may need one — shared state is owned by the single-domain machine
     loop, and a Mutex would be a smell that real parallelism leaked
     in. *)
  @ List.concat_map
      (fun pat ->
        [
          ( "lib/mc/",
            pat,
            "lib/mc is a single-domain interleaving engine; one core \
             advances per Sched slice, so runs replay bit-identically \
             from a seed.  Parallelize across machines with \
             Pf_util.Pool, never inside one" );
        ])
      [ "Domain.spawn"; "Thread.create"; "Mutex."; "Condition." ]
  (* The block-compilation engine (basic-block discovery in bexec, the
     block-dispatch driver in cexec) stakes its correctness on closures
     whose captured micro-op arrays the type checker has fully vetted —
     an [Obj.magic] there would let a representation confusion ride into
     every engine and corrupt the bit-identity contract silently.
     Legality failures must fall back to the interpreter via the typed
     fallback path, never "fix" a type with a cast. *)
  @ List.concat_map
      (fun scope ->
        [
          ( scope,
            "Obj.magic",
            "the compiled engine must stay representation-honest; make the \
             block illegal and fall back to the interpreter instead" );
          ( scope,
            "Obj.repr",
            "the compiled engine must stay representation-honest; make the \
             block illegal and fall back to the interpreter instead" );
        ])
      [ "lib/arm/bexec"; "lib/cpu/cexec" ]

(* Rules that hold everywhere in lib/ except under one tree:
   (exempt path substring, pattern, reason).  How power coefficients
   depend on a cache geometry is decided once, in lib/power/:
   [Account.create] prices every charging stack with
   [Params.for_geometry].  A caller elsewhere that picks coefficients
   itself prices one geometry two ways — direct runs and explored points
   once disagreed exactly so.  Hand-checked coefficients stay a unit-test
   seam outside lib/. *)
let pricing_reason =
  "power pricing is decided in lib/power/: build accounts with \
   Account.create geometry (or Pipeline.stack) and let the geometry \
   price them"

let forbidden_outside =
  List.map
    (fun pat -> ("lib/power/", pat, pricing_reason))
    [
      "Params.for_geometry"; "Account.create ~params"; "Account.create ?params";
    ]

let allowed file line =
  List.exists
    (fun (suffix, sub) ->
      Filename.check_suffix file suffix
      && String.length sub <= String.length line
      &&
      let n = String.length sub and m = String.length line in
      let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
      go 0)
    allowlist

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rec source_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then source_files path
         else if
           Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
         then [ path ]
         else [])

(* Every module under lib/ must publish an interface: a missing .mli
   exposes every helper and invites callers to depend on internals the
   module never promised (it also silences the unused-value warnings an
   interface would raise).  The multi-program subsystem was added under
   this rule; keep it that way. *)
let check_interfaces root files violations =
  List.iter
    (fun file ->
      if
        Filename.check_suffix file ".ml"
        && not (Sys.file_exists (Filename.concat root (file ^ "i")))
      then begin
        Printf.eprintf
          "%s: no interface — every module under lib/ needs a .mli\n" file;
        incr violations
      end)
    files

let () =
  let root =
    (* run from the repo root or from anywhere inside _build *)
    if Sys.file_exists "lib" then "."
    else if Sys.file_exists "../../lib" then "../.."
    else (
      prerr_endline "lint: cannot locate the lib/ tree";
      exit 2)
  in
  let violations = ref 0 in
  check_interfaces root (source_files (Filename.concat root "lib")) violations;
  List.iter
    (fun file ->
      let ic = open_in (Filename.concat root file) in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           List.iter
             (fun (pat, reason) ->
               if has_sub ~sub:pat line && not (allowed file line) then begin
                 Printf.eprintf "%s:%d: `%s' in lib/ — %s\n" file !lineno pat
                   reason;
                 incr violations
               end)
             forbidden;
           List.iter
             (fun (scope, pat, reason) ->
               if
                 has_sub ~sub:scope file && has_sub ~sub:pat line
                 && not (allowed file line)
               then begin
                 Printf.eprintf "%s:%d: `%s' in %s — %s\n" file !lineno pat
                   scope reason;
                 incr violations
               end)
             scoped_forbidden;
           List.iter
             (fun (exempt, pat, reason) ->
               if
                 (not (has_sub ~sub:exempt file))
                 && has_sub ~sub:pat line
                 && not (allowed file line)
               then begin
                 Printf.eprintf "%s:%d: `%s' outside %s — %s\n" file !lineno
                   pat exempt reason;
                 incr violations
               end)
             forbidden_outside
         done
       with End_of_file -> ());
      close_in ic)
    (source_files (Filename.concat root "lib"));
  if !violations > 0 then begin
    Printf.eprintf "lint: %d violation(s)\n" !violations;
    exit 1
  end
  else print_endline "lint: lib/ error-handling and interface discipline OK"
