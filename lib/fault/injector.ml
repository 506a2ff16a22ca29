open Pf_util
module T = Pf_fits.Translate
module D = Pf_fits.Decode
module M = Pf_fits.Mapping
module S = Pf_fits.Spec

type target = Decoder | Dict | Icache | Regs

let target_name = function
  | Decoder -> "decoder"
  | Dict -> "dict"
  | Icache -> "icache"
  | Regs -> "regs"

let target_of_string = function
  | "decoder" -> Some Decoder
  | "dict" -> Some Dict
  | "icache" -> Some Icache
  | "regs" -> Some Regs
  | _ -> None

type trial = {
  flips : int;
  entries_corrupted : int;
  parity_detectable : int;
}

let no_trial = { flips = 0; entries_corrupted = 0; parity_detectable = 0 }

(* Which bits of a [width]-wide entry flip this trial.  One draw per bit
   keeps the stream position independent of earlier outcomes, so a given
   seed always corrupts the same bits. *)
let flip_bits rng ~rate ~width =
  let bits = ref [] in
  for b = 0 to width - 1 do
    if Rng.float rng 1.0 < rate then bits := b :: !bits
  done;
  !bits

let mask_of_bits = List.fold_left (fun m b -> m lor (1 lsl b)) 0

(* ---- decoder ----------------------------------------------------------- *)

let corrupt_decoder rng ~rate ~parity (tr : T.t) =
  let spec = tr.T.spec in
  let flips = ref 0 and corrupted = ref 0 and detectable = ref 0 in
  let insns =
    Array.map
      (fun (fi : T.finsn) ->
        match flip_bits rng ~rate ~width:D.word_bits with
        | [] -> fi
        | bits ->
            flips := !flips + List.length bits;
            incr corrupted;
            let odd = List.length bits land 1 = 1 in
            if odd then incr detectable;
            let micro =
              if parity && odd then
                M.M_undef "parity mismatch in decoder entry"
              else
                let f =
                  D.unpack (D.pack (D.fields_of fi) lxor mask_of_bits bits)
                in
                if D.faithful spec fi then
                  match D.decode spec f with
                  | D.Micro m -> m
                  | D.Undefined why -> M.M_undef why
                else M.M_undef "corrupted control word (lossy entry)"
            in
            { fi with T.micro })
      tr.T.insns
  in
  ( { tr with T.insns },
    { flips = !flips; entries_corrupted = !corrupted;
      parity_detectable = !detectable } )

(* ---- dictionary -------------------------------------------------------- *)

let references_dict spec (fi : T.finsn) =
  fi.T.opid >= 0
  && fi.T.opid < Array.length spec.S.ops
  &&
  let od = spec.S.ops.(fi.T.opid) in
  od.S.imm = S.Imm_dict || od.S.fmt = S.Fmt_movd

let corrupt_dict rng ~rate ~parity (tr : T.t) =
  let spec = tr.T.spec in
  let n = Array.length spec.S.dict in
  let hit = Array.make n false in
  let odd = Array.make n false in
  let flips = ref 0 and corrupted = ref 0 and detectable = ref 0 in
  let dict =
    Array.mapi
      (fun i v ->
        match flip_bits rng ~rate ~width:32 with
        | [] -> v
        | bits ->
            flips := !flips + List.length bits;
            incr corrupted;
            hit.(i) <- true;
            odd.(i) <- List.length bits land 1 = 1;
            if odd.(i) then incr detectable;
            Bits.u32 (v lxor mask_of_bits bits))
      spec.S.dict
  in
  let spec' = { spec with S.dict } in
  let insns =
    Array.map
      (fun (fi : T.finsn) ->
        let slot = fi.T.operand in
        if
          references_dict spec fi
          && slot >= 0 && slot < n && hit.(slot)
        then
          let micro =
            if parity && odd.(slot) then
              M.M_undef "parity mismatch in dictionary entry"
            else if D.faithful spec fi then
              match D.decode spec' (D.fields_of fi) with
              | D.Micro m -> m
              | D.Undefined why -> M.M_undef why
            else M.M_undef "corrupted dictionary operand (lossy entry)"
          in
          { fi with T.micro }
        else fi)
      tr.T.insns
  in
  ( { tr with T.spec = spec'; T.insns },
    { flips = !flips; entries_corrupted = !corrupted;
      parity_detectable = !detectable } )

(* ---- I-cache tags ------------------------------------------------------ *)

let schedule_icache_flips rng ~rate ~parity ~accesses cache =
  let nslots = Pf_cache.Icache.slots cache in
  let tag_bits = Pf_cache.Icache.tag_bits (Pf_cache.Icache.config_of cache) in
  let flips = ref 0 and corrupted = ref 0 and detectable = ref 0 in
  for slot = 0 to nslots - 1 do
    match flip_bits rng ~rate ~width:tag_bits with
    | [] -> ()
    | bits ->
        flips := !flips + List.length bits;
        incr corrupted;
        let odd = List.length bits land 1 = 1 in
        if odd then incr detectable;
        (* parity catches odd-flip slots: the line is invalidated and
           refetched clean, so the corrupt tag never serves a probe *)
        if not (parity && odd) then
          List.iter
            (fun bit ->
              let at_access = 1 + Rng.int rng (max 1 accesses) in
              Pf_cache.Icache.schedule_tag_flip cache ~at_access ~slot ~bit)
            bits
  done;
  { flips = !flips; entries_corrupted = !corrupted;
    parity_detectable = !detectable }

(* ---- register file ----------------------------------------------------- *)

let regs_hook rng ~rate =
  let flips = ref 0 in
  let hook (st : Pf_arm.Exec.t) ~steps:_ =
    if Rng.float rng 1.0 < rate then begin
      let r = Rng.int rng 16 in
      let bit = Rng.int rng 32 in
      st.Pf_arm.Exec.regs.(r) <-
        Bits.u32 (st.Pf_arm.Exec.regs.(r) lxor (1 lsl bit));
      incr flips
    end
  in
  let summary () =
    { flips = !flips; entries_corrupted = !flips; parity_detectable = 0 }
  in
  (hook, summary)
