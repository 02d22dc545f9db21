module S = Tt_sparse

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* --------------------------------------------------------- small lexing *)

let tokens s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* [key=value] pairs after the leading keyword(s). *)
let kv_pairs toks =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
          (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> bad "expected key=value, got %S" tok)
    toks

let lookup ?default pairs key =
  match List.assoc_opt key pairs with
  | Some v -> v
  | None -> (
      match default with Some d -> d | None -> bad "missing %s=..." key)

let check_keys pairs allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        bad "unknown key %S (expected one of: %s)" k (String.concat ", " allowed))
    pairs

let int_of ~what s =
  match int_of_string_opt s with Some v -> v | None -> bad "bad %s: %S" what s

let float_of ~what s =
  match float_of_string_opt s with Some v -> v | None -> bad "bad %s: %S" what s

(* ------------------------------------------------------------- sources *)

let ordering_of = function
  | "natural" -> Tt_workloads.Pipeline.Natural
  | "rcm" -> Tt_workloads.Pipeline.Rcm
  | "mindeg" -> Tt_workloads.Pipeline.Min_degree
  | "nd" -> Tt_workloads.Pipeline.Nested_dissection
  | s -> bad "unknown ordering %S" s

let gen_matrix ~kind ~size ~seed =
  let rng = Tt_util.Rng.create seed in
  (* a negative grid side squares to a diagonal matrix; an arrow needs
     a row below its two-row border *)
  let at_least k = if size < k then bad "%s size must be >= %d, got %d" kind k size in
  match kind with
  | "grid2d" -> at_least 0; S.Spgen.grid2d size
  | "grid9" -> at_least 0; S.Spgen.grid2d_9pt size
  | "grid3d" -> at_least 0; S.Spgen.grid3d size
  | "banded" ->
      at_least 0;
      S.Spgen.banded ~rng ~n:size ~bandwidth:(max 2 (size / 50)) ~fill:0.4
  | "random" -> at_least 0; S.Spgen.random_sym ~rng ~n:size ~nnz_per_row:3.0
  | "arrow" ->
      at_least 3;
      S.Spgen.block_arrow ~n:size ~blocks:8 ~border:(max 2 (size / 40))
  | "powerlaw" -> at_least 0; S.Spgen.power_law ~rng ~n:size ~edges_per_node:2
  | "tridiagonal" -> at_least 0; S.Spgen.tridiagonal size
  | other -> bad "unknown matrix kind %S" other

let tree_of_matrix pairs m =
  let ordering = ordering_of (lookup ~default:"mindeg" pairs "ordering") in
  let amalgamation = int_of ~what:"amalgamation" (lookup ~default:"4" pairs "amalgamation") in
  if amalgamation < 1 then bad "amalgamation must be >= 1, got %d" amalgamation;
  (Tt_workloads.Pipeline.assembly_tree ~ordering ~amalgamation m).Tt_etree.Assembly.tree

(* Returns [(short_label, tree)]. Without [files], a [file] source is
   refused before its path is looked at. *)
let parse_source ~files text =
  match tokens text with
  | "file" :: _ when not files ->
      bad "file sources are not accepted here (expected gen or tree)"
  | "file" :: path :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "ordering"; "amalgamation" ];
      let m =
        match S.Matrix_market.read_file path with
        | exception Sys_error e -> bad "cannot read %s: %s" path e
        | exception S.Matrix_market.Parse_error { line; message } ->
            bad "%s: line %d: %s" path line message
        | _header, t -> S.Csr.of_triplet t
      in
      (Filename.remove_extension (Filename.basename path), tree_of_matrix pairs m)
  | "gen" :: kind :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "size"; "seed"; "ordering"; "amalgamation" ];
      let size = int_of ~what:"size" (lookup ~default:"20" pairs "size") in
      let seed = int_of ~what:"seed" (lookup ~default:"42" pairs "seed") in
      ( Printf.sprintf "%s-%d" kind size,
        tree_of_matrix pairs (gen_matrix ~kind ~size ~seed) )
  | "tree" :: rest ->
      let text = String.trim (String.concat " " rest) in
      let text =
        let n = String.length text in
        if n >= 2 && text.[0] = '"' && text.[n - 1] = '"' then String.sub text 1 (n - 2)
        else text
      in
      let tree =
        try Tt_core.Tree.of_string text
        with Invalid_argument e -> bad "bad tree literal: %s" e
      in
      ("tree-" ^ String.sub (Job.tree_digest tree) 0 8, tree)
  | kw :: _ -> bad "unknown source %S (expected file, gen or tree)" kw
  | [] -> bad "empty source"

(* ---------------------------------------------------------------- jobs *)

let policy_of = function
  | "lsnf" -> Tt_core.Minio.Lsnf
  | "first-fit" -> Tt_core.Minio.First_fit
  | "best-fit" -> Tt_core.Minio.Best_fit
  | "first-fill" -> Tt_core.Minio.First_fill
  | "best-fill" -> Tt_core.Minio.Best_fill
  | s -> (
      match int_of_string_opt s with
      | Some k when k >= 1 -> Tt_core.Minio.Best_k k
      | _ -> bad "unknown policy %S" s)

(* memory factors and budgets: finite and not negative *)
let amount_of ~what s =
  let x = float_of ~what s in
  if not (Float.is_finite x && x >= 0.) then bad "%s must be finite and >= 0, got %S" what s;
  x

let budget_of s =
  let n = String.length s in
  if n > 1 && s.[n - 1] = '%' then
    Job.Fraction (amount_of ~what:"budget" (String.sub s 0 (n - 1)) /. 100.)
  else begin
    let w = int_of ~what:"budget" s in
    if w < 0 then bad "budget must be >= 0, got %d" w;
    Job.Words w
  end

let max_steps = 1024

(* the schedulers refuse fewer than one processor *)
let procs_of pairs =
  let procs = int_of ~what:"procs" (lookup pairs "procs") in
  if procs < 1 then bad "procs must be >= 1, got %d" procs;
  procs

let parse_job_spec text =
  match tokens text with
  | [ "minmem" ] -> Job.Min_memory Job.Minmem
  | [ "liu" ] -> Job.Min_memory Job.Liu
  | [ "postorder" ] -> Job.Min_memory Job.Postorder
  | "minio" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "policy"; "budget" ];
      Job.Min_io
        { policy = policy_of (lookup ~default:"first-fit" pairs "policy");
          budget = budget_of (lookup ~default:"50%" pairs "budget")
        }
  | "schedule" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "procs"; "mem" ];
      Job.Schedule
        { procs = procs_of pairs;
          mem_factor = amount_of ~what:"mem" (lookup ~default:"1.5" pairs "mem")
        }
  | "par-schedule" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "algo"; "procs"; "mem" ];
      let algo =
        let name = lookup ~default:"booking" pairs "algo" in
        match Job.par_algo_of_string name with
        | Some a -> a
        | None -> bad "unknown algo %S (expected greedy, booking or split)" name
      in
      Job.Par_schedule
        { algo;
          procs = procs_of pairs;
          mem_factor = amount_of ~what:"mem" (lookup ~default:"1.5" pairs "mem")
        }
  | "pareto" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "procs"; "steps" ];
      let steps = int_of ~what:"steps" (lookup ~default:"8" pairs "steps") in
      if steps < 1 || steps > max_steps then
        bad "steps must be in [1, %d], got %d" max_steps steps;
      Job.Pareto_sweep { procs = procs_of pairs; steps }
  | "minmem-approx" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "cap"; "tol" ];
      let seg_cap = int_of ~what:"cap" (lookup ~default:"8" pairs "cap") in
      if seg_cap < 2 then bad "cap must be >= 2, got %d" seg_cap;
      let tol = float_of ~what:"tol" (lookup ~default:"0.01" pairs "tol") in
      if tol < 0. then bad "tol must be >= 0, got %g" tol;
      Job.Approx_memory { seg_cap; tol }
  | kw :: _ ->
      bad
        "unknown job %S (expected minmem, liu, postorder, minio, schedule, \
         par-schedule, pareto or minmem-approx)"
        kw
  | [] -> bad "empty job spec"

(* ---------------------------------------------------------------- lines *)

let split_on_sep ~sep line =
  (* split on the first occurrence of [sep], compared in place: a tree
     literal before the [::] can be tens of kilobytes *)
  let n = String.length line and m = String.length sep in
  let rec sep_at i k = k = m || (line.[i + k] = sep.[k] && sep_at i (k + 1)) in
  let rec find i =
    if i + m > n then None
    else if sep_at i 0 then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub line 0 i, String.sub line (i + m) (n - i - m))

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_line ~files line =
  match split_on_sep ~sep:"::" line with
  | None -> bad "expected '<source> :: <job> [; <job>]*'"
  | Some (source, jobs) ->
      let name, tree = parse_source ~files source in
      let specs =
        String.split_on_char ';' jobs
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map parse_job_spec
      in
      if specs = [] then bad "no jobs after '::'";
      List.map
        (fun spec ->
          Job.make ~label:(name ^ " " ^ Job.spec_to_string spec) tree spec)
        specs

(* All malformed lines are reported at once — fixing a manifest should
   take one round trip, not one per bad line. *)
let parse_with ~files text =
  let lines = String.split_on_char '\n' text in
  let rec go acc errs lineno = function
    | [] -> (
        match List.rev errs with
        | [] -> Ok (List.concat (List.rev acc))
        | errs -> Error (String.concat "\n" errs))
    | line :: rest -> (
        let line = String.trim (strip_comment line) in
        if line = "" then go acc errs (lineno + 1) rest
        else
          match parse_line ~files line with
          | jobs -> go (jobs :: acc) errs (lineno + 1) rest
          | exception Bad msg ->
              go acc (Printf.sprintf "line %d: %s" lineno msg :: errs) (lineno + 1) rest)
  in
  go [] [] 1 lines

let parse = parse_with ~files:true
let parse_wire = parse_with ~files:false

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> parse (In_channel.input_all ic))
