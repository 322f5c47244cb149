(* Template translation tier: mine each decode action through the
   Gen/Dag pipeline once per opcode form with decode fields left
   symbolic, then install blocks by patching sentinel holes —
   see template.mli for the soundness model. *)

module Gen = Ssa.Gen
module Emitter = Ssa.Emitter

exception Patch_failure

(* --- fragments, mining, the table -------------------------------------------- *)

type frag = {
  f_name : string;
  f_pre : Hir.instr array;  (* vreg form, holes unpatched *)
  f_post : Hir.instr array;  (* allocated + dead-filtered, holes unpatched *)
  f_n_slots : int;
  f_vregs : int;
  f_labels : int;
  f_h64 : (int64, Gen.fexpr) Hashtbl.t;  (* sentinel constant -> expression *)
  f_hoff : (int, int * Gen.fexpr) Hashtbl.t;  (* sentinel rf offset -> bank, index *)
}


type variant = { v_pins : (string * int64) list; v_frag : frag }

type form = { mutable fo_variants : variant list; mutable fo_dead : string option }

type t = {
  t_config : mmu_on:bool -> Dag.config;
  t_bank_offset : bank:int -> index:int -> int;
  t_rf_bytes : int;
  t_forms : (string * bool * bool, form) Hashtbl.t;  (* name, ends_block, mmu *)
}

let create ~config ~rf_bytes =
  {
    t_config = config;
    t_bank_offset = (config ~mmu_on:false).Dag.bank_offset;
    t_rf_bytes = rf_bytes;
    t_forms = Hashtbl.create 64;
  }

let variant_cap = 64
let pin_cap = 16

(* Sentinel bases.  Both 64-bit bases are below 2^62, so
   [Int64.to_int] round-trips them exactly through the Inc_pc collapse;
   offset bases are far above any real register-file offset. *)
let magic64_base = 0x3E57_0000_0000_0000L
let magic64_base' = 0x3E58_0000_0000_0000L
let magic64_top = 0x3E59_0000_0000_0000L
let magicoff_base = 0x4000_0000
let magicoff_base' = 0x4800_0000

(* One symbolic pipeline run of [action]; returns the emitted stream and
   the hole tables.  Raises Gen.Need_pin / Gen.Unsupported /
   Dag.Unsupported_lowering. *)
let mine_once t ~action ~inc_pc ~mmu_on ~pinned ~witness ~base64 ~baseoff =
  let dag = Dag.create (t.t_config ~mmu_on) in
  let em = Dag.emitter dag in
  let h64 : (int64, Gen.fexpr) Hashtbl.t = Hashtbl.create 8 in
  let hoff : (int, int * Gen.fexpr) Hashtbl.t = Hashtbl.create 8 in
  (* One sentinel per expression key, numbered in first-use order. *)
  let sentinel holes of_index =
    let by_key = Hashtbl.create 8 in
    fun k hole ->
      match Hashtbl.find_opt by_key k with
      | Some m -> m
      | None ->
        let m = of_index (Hashtbl.length by_key) in
        Hashtbl.replace by_key k m;
        Hashtbl.replace holes m hole;
        m
  in
  let magic = sentinel h64 (fun n -> Int64.add base64 (Int64.of_int n)) in
  let offmagic = sentinel hoff (fun n -> baseoff + n) in
  let bank_key ~bank e = string_of_int bank ^ ":" ^ Gen.key e in
  let mat = function
    | Gen.Fixed c ->
      if c >= magic64_base && c < magic64_top then
        raise (Gen.Unsupported "guest constant inside the sentinel range");
      em.Emitter.const c
    | Gen.Sym e -> em.Emitter.const (magic (Gen.key e) e)
    | Gen.Dyn v -> v
  in
  (* Symbolic-index loads since the last register-file write. *)
  let loaded : (string, Dag.node) Hashtbl.t = Hashtbl.create 8 in
  let sym_load ~bank e =
    let k = bank_key ~bank e in
    match Hashtbl.find_opt loaded k with
    | Some n -> n
    | None ->
      let d = Dag.fresh_vreg dag in
      Dag.raw dag (Hir.Ldrf (d, offmagic k (bank, e)));
      let n = Dag.done_node dag d in
      Hashtbl.replace loaded k n;
      n
  in
  let sym_store ~bank e v =
    let ov = Dag.force dag v in
    Dag.rf_barrier dag;
    Hashtbl.reset loaded;
    Dag.raw dag (Hir.Strf (offmagic (bank_key ~bank e) (bank, e), ov))
  in
  let clear () = Hashtbl.reset loaded in
  Gen.run { Gen.em; mat; sym_load; sym_store; clear } action ~field:witness
    ~pinned:(Hashtbl.mem pinned) ~inc_pc;
  (Dag.finish dag, Dag.vreg_count dag, Dag.label_count dag, h64, hoff)

(* Canonicalize a mined stream for the double-mine comparison: replace
   every hole with a fixed placeholder and list the holes (position,
   kind, expression key) separately, so streams mined under different
   sentinel bases compare equal iff they are the same template. *)
let canon (stream : Hir.instr array) h64 hoff =
  let descr = ref [] in
  let arr =
    Array.mapi
      (fun k i ->
        let i =
          Hir.map_operands
            (fun o ->
              match o with
              | Hir.Imm m when Hashtbl.mem h64 m ->
                descr := (k, "i64", Gen.key (Hashtbl.find h64 m)) :: !descr;
                Hir.Imm 0L
              | o -> o)
            i
        in
        match i with
        | Hir.Ldrf (d, off) when Hashtbl.mem hoff off ->
          let b, e = Hashtbl.find hoff off in
          descr := (k, Printf.sprintf "ld%d" b, Gen.key e) :: !descr;
          Hir.Ldrf (d, -1)
        | Hir.Strf (off, v) when Hashtbl.mem hoff off ->
          let b, e = Hashtbl.find hoff off in
          descr := (k, Printf.sprintf "st%d" b, Gen.key e) :: !descr;
          Hir.Strf (-1, v)
        | Hir.Inc_pc n when Hashtbl.mem h64 (Int64.of_int n) ->
          descr := (k, "ipc", Gen.key (Hashtbl.find h64 (Int64.of_int n))) :: !descr;
          Hir.Inc_pc (-1)
        | i -> i)
      stream
  in
  (arr, List.rev !descr)

(* Mine one variant for this instance, pinning fields as structure
   demands; the instance's own field function is the witness. *)
let mine_variant t ~action ~name ~inc_pc ~mmu_on ~witness =
  let pinned : (string, int64) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace pinned "__el" (witness "__el");
  let rec attempt tries =
    if tries > pin_cap then raise (Gen.Unsupported "pin budget exceeded")
    else
      match
        mine_once t ~action ~inc_pc ~mmu_on ~pinned ~witness ~base64:magic64_base
          ~baseoff:magicoff_base
      with
      | exception Gen.Need_pin fields ->
        let fresh = List.filter (fun f -> not (Hashtbl.mem pinned f)) fields in
        if fresh = [] then raise (Gen.Unsupported "pin made no progress")
        else begin
          List.iter (fun f -> Hashtbl.replace pinned f (witness f)) fresh;
          attempt (tries + 1)
        end
      | pre, vregs, labels, h64, hoff ->
        (* Re-mine under the alternate sentinel bases: the canonical
           streams (and allocations) must agree, which rejects sentinel
           collisions and any emission or regalloc nondeterminism. *)
        let pre', _, _, h64', hoff' =
          match
            mine_once t ~action ~inc_pc ~mmu_on ~pinned ~witness ~base64:magic64_base'
              ~baseoff:magicoff_base'
          with
          | r -> r
          | exception (Gen.Need_pin _ | Gen.Unsupported _) ->
            raise (Gen.Unsupported "nondeterministic mining")
        in
        let ra = Regalloc.run pre in
        let ra' = Regalloc.run pre' in
        let live (r : Regalloc.result) =
          let keep = ref [] in
          Array.iteri
            (fun k i -> if not r.Regalloc.dead.(k) then keep := i :: !keep)
            r.Regalloc.instrs;
          Array.of_list (List.rev !keep)
        in
        let post = live ra and post' = live ra' in
        if
          canon pre h64 hoff <> canon pre' h64' hoff'
          || canon post h64 hoff <> canon post' h64' hoff'
          || ra.Regalloc.n_slots <> ra'.Regalloc.n_slots
        then raise (Gen.Unsupported "sentinel collision or nondeterministic emission");
        let pins =
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) pinned [])
        in
        {
          v_pins = pins;
          v_frag =
            {
              f_name = name;
              f_pre = pre;
              f_post = post;
              f_n_slots = ra.Regalloc.n_slots;
              f_vregs = vregs;
              f_labels = labels;
              f_h64 = h64;
              f_hoff = hoff;
            };
        }
  in
  attempt 0

type lookup = Hit of frag | Mined of frag | Miss of string

let fragment t ~action ~name ~inc_pc ~mmu_on ~field =
  let key = (name, inc_pc = None, mmu_on) in
  let form =
    match Hashtbl.find_opt t.t_forms key with
    | Some f -> f
    | None ->
      let f = { fo_variants = []; fo_dead = None } in
      Hashtbl.replace t.t_forms key f;
      f
  in
  match form.fo_dead with
  | Some r -> Miss r
  | None -> (
    let matches v = List.for_all (fun (f, c) -> field f = c) v.v_pins in
    match List.find_opt matches form.fo_variants with
    | Some v -> Hit v.v_frag
    | None ->
      if List.length form.fo_variants >= variant_cap then Miss "variant budget exceeded"
      else begin
        match mine_variant t ~action ~name ~inc_pc ~mmu_on ~witness:field with
        | v ->
          form.fo_variants <- form.fo_variants @ [ v ];
          Mined v.v_frag
        | exception Gen.Unsupported r ->
          form.fo_dead <- Some r;
          Miss r
        | exception Dag.Unsupported_lowering what ->
          let r = "unsupported lowering: " ^ what in
          form.fo_dead <- Some r;
          Miss r
        | exception Emitter.Dynamic_control_flow ->
          let r = "dynamic control flow escaped the probe" in
          form.fo_dead <- Some r;
          Miss r
      end)

(* --- install-time patching and stitching -------------------------------------- *)

let patch_frag t frag ~field =
  let val64 m = Option.map (Gen.eval ~field) (Hashtbl.find_opt frag.f_h64 m) in
  let off m =
    match Hashtbl.find_opt frag.f_hoff m with
    | None -> None
    | Some (bank, e) ->
      let ix = Int64.to_int (Gen.eval ~field e) in
      let o = t.t_bank_offset ~bank ~index:ix in
      if o < 0 || o > t.t_rf_bytes - 8 then raise Patch_failure;
      Some o
  in
  let sub i =
    let i =
      Hir.map_operands
        (fun o ->
          match o with
          | Hir.Imm m -> ( match val64 m with Some v -> Hir.Imm v | None -> o)
          | o -> o)
        i
    in
    match i with
    | Hir.Ldrf (d, m) -> ( match off m with Some o -> Hir.Ldrf (d, o) | None -> i)
    | Hir.Strf (m, v) -> ( match off m with Some o -> Hir.Strf (o, v) | None -> i)
    | Hir.Inc_pc n -> (
      match val64 (Int64.of_int n) with
      | Some v -> Hir.Inc_pc (Int64.to_int v)
      | None -> i)
    | i -> i
  in
  (Array.map sub frag.f_pre, Array.map sub frag.f_post)

let assemble t items =
  match
    let pre_acc = ref [] and post_acc = ref [] in
    let vbase = ref 0 and lbase = ref 0 and slots = ref 0 in
    List.iter
      (fun (frag, field) ->
        let pre, post = patch_frag t frag ~field in
        let vb = !vbase and lb = !lbase in
        let relv i =
          Hir.map_operands (function Hir.Vreg v -> Hir.Vreg (v + vb) | o -> o) i
        in
        let rell i = Hir.map_labels (fun l -> l + lb) i in
        Array.iter (fun i -> pre_acc := rell (relv i) :: !pre_acc) pre;
        Array.iter (fun i -> post_acc := rell i :: !post_acc) post;
        vbase := vb + frag.f_vregs;
        lbase := lb + frag.f_labels;
        if frag.f_n_slots > !slots then slots := frag.f_n_slots)
      items;
    pre_acc := Hir.Exit 0 :: !pre_acc;
    post_acc := Hir.Exit 0 :: !post_acc;
    let post = Array.of_list (List.rev !post_acc) in
    let ra =
      {
        Regalloc.instrs = post;
        dead = Array.make (Array.length post) false;
        n_slots = !slots;
        n_spilled = 0;
        n_dead = 0;
      }
    in
    (Array.of_list (List.rev !pre_acc), ra)
  with
  | r -> Some r
  | exception (Patch_failure | Division_by_zero | Gen.Unsupported _) -> None
