(* The offline generation stage (paper Sec. 2.2): parse an ADL description,
   type-check it, build and optimize the domain-specific SSA for every
   instruction behaviour, and compile the decoder decision tree.

   The result - a [model] - is the "architecture-specific module" that the
   online runtime loads. *)

type model = {
  arch : Adl.Ast.arch;
  decoder : Adl.Decode.t;
  actions : (string, Ir.action) Hashtbl.t;
  opt_level : int;
}

let opt_context (arch : Adl.Ast.arch) (xname : string) : Opt.context =
  {
    Opt.field_widths = Adl.Typecheck.fields_of_execute arch xname;
    bank_widths = List.map (fun b -> (b.Adl.Ast.b_index, b.Adl.Ast.b_width)) arch.Adl.Ast.a_banks;
    slot_widths = List.map (fun s -> (s.Adl.Ast.s_index, s.Adl.Ast.s_width)) arch.Adl.Ast.a_slots;
    bank_counts = List.map (fun b -> (b.Adl.Ast.b_index, b.Adl.Ast.b_count)) arch.Adl.Ast.a_banks;
    slot_indices = List.map (fun s -> s.Adl.Ast.s_index) arch.Adl.Ast.a_slots;
  }

(* Build a model from ADL source text at the given optimization level.
   [verify] additionally runs the SSA well-formedness checker after
   every optimization pass (and once on the final IR), attributing any
   broken invariant to the offending pass by name. *)
let build ?(opt_level = 4) ?(verify = false) (source : string) : model =
  let arch = Adl.Parser.parse_string source in
  let arch = Adl.Typecheck.check arch in
  let decoder = Adl.Decode.of_arch arch in
  let actions = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let action = Build.execute arch x in
      let ctx = opt_context arch x.Adl.Ast.x_name in
      Opt.optimize ~ctx ~verify ~level:opt_level action;
      if verify then Verify.check_exn ~phase:"optimized pipeline output" action;
      Ir.validate action;
      Hashtbl.replace actions x.Adl.Ast.x_name action)
    arch.Adl.Ast.a_executes;
  { arch; decoder; actions; opt_level }

(* The models of one description at levels 0-4, each built on first use
   and shared from then on: nothing mutates a model once it is built.
   [Lazy] is not domain-safe, so a model is first forced on the main
   domain.  A level outside 0-4 builds a fresh model on every call. *)
let per_level source =
  let memo = Array.init 5 (fun opt_level -> lazy (build ~opt_level source)) in
  fun level ->
    if level < 0 || level >= Array.length memo then build ~opt_level:level source
    else if Lazy.is_val memo.(level) || Domain.is_main_domain () then Lazy.force memo.(level)
    else invalid_arg (Printf.sprintf "Offline.per_level: O%d model first needed off the main domain" level)

let action model name =
  match Hashtbl.find_opt model.actions name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "no execute action %S" name)

(* Total statement count across all actions: the proxy for generated lines
   of code used in the Sec. 3.6.1 experiment. *)
let total_size model = Hashtbl.fold (fun _ a acc -> acc + Ir.size a) model.actions 0

let decode model word = Adl.Decode.decode model.decoder word
