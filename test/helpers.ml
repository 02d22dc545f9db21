(* Shared test utilities: deterministic tree generators, QCheck
   arbitraries and alcotest glue. *)

module T = Tt_core.Tree

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let case name f = Alcotest.test_case name `Quick f

(* --- deterministic random trees ----------------------------------------- *)

let random_tree ~rng ~size_max ~max_f ~max_n =
  let size = Tt_util.Rng.int_incl rng 1 size_max in
  T.random ~rng ~size ~max_f ~max_n

let tree_list ~seed ~count ~size_max ~max_f ~max_n =
  let rng = Tt_util.Rng.create seed in
  List.init count (fun _ -> random_tree ~rng ~size_max ~max_f ~max_n)

(* --- reference child lists ----------------------------------------------- *)

(* Per-node child arrays derived from [parent] alone: a verbatim copy of
   the builder [Tree] used before it stored its children in CSR form.
   The parity tests' reference kernels read their child lists from here,
   so the CSR kernels are pinned to results computed without the CSR
   build. *)
let children_of_parents parent =
  let p = Array.length parent in
  let counts = Array.make p 0 in
  Array.iter (fun par -> if par >= 0 then counts.(par) <- counts.(par) + 1) parent;
  let children = Array.map (fun c -> Array.make c (-1)) counts in
  let fill = Array.make p 0 in
  (* iterate in index order so children arrays are sorted increasingly *)
  for i = 0 to p - 1 do
    let par = parent.(i) in
    if par >= 0 then begin
      children.(par).(fill.(par)) <- i;
      fill.(par) <- fill.(par) + 1
    end
  done;
  children

(* Total [f] over a child array: a node's output files in Equation (1). *)
let sum_f (t : T.t) cs = Array.fold_left (fun acc c -> acc + t.T.f.(c)) 0 cs

(* Distance from [root] over such child arrays: the breadth-first walk
   [Tree.depth] made before the CSR layout. *)
let depth_of_children children root =
  let d = Array.make (Array.length children) (-1) in
  d.(root) <- 0;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    Array.iter
      (fun j ->
        d.(j) <- d.(i) + 1;
        Queue.add j queue)
      children.(i)
  done;
  d

(* --- QCheck arbitraries -------------------------------------------------- *)

(* A tree encoded by a seed + size bound, printable and shrink-free (the
   seed form keeps counterexamples reproducible). *)
let arb_tree ?(size_max = 12) ?(max_f = 12) ?(max_n = 6) () =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Tt_util.Rng.create seed in
        random_tree ~rng ~size_max ~max_f ~max_n)
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make ~print:T.to_string gen

(* A tree together with a valid traversal of it. *)
let arb_tree_with_order ?(size_max = 12) ?(max_f = 12) ?(max_n = 6) () =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Tt_util.Rng.create seed in
        let tree = random_tree ~rng ~size_max ~max_f ~max_n in
        let order = Tt_core.Traversal.random_order ~rng tree in
        (tree, order))
      (QCheck.Gen.int_bound 1_000_000)
  in
  let print (t, o) =
    Printf.sprintf "%s | order %s" (T.to_string t)
      (String.concat " " (Array.to_list (Array.map string_of_int o)))
  in
  QCheck.make ~print gen

let arb_int_list ?(len = 30) ?(max_v = 100) () =
  QCheck.(list_of_size (Gen.int_bound len) (int_bound max_v))

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

(* --- JSON dumps ----------------------------------------------------------- *)

(* The value at [path] in a nested JSON object, such as a metrics
   module's [to_json]. *)
let json_at j path =
  List.fold_left (fun j k -> Option.bind j (Tt_engine.Telemetry.Json.member k)) (Some j) path

let json_int j path =
  match json_at j path with
  | Some (Tt_engine.Telemetry.Json.Int i) -> i
  | _ -> Alcotest.failf "no integer at %s" (String.concat "." path)

let json_float j path =
  match json_at j path with
  | Some (Tt_engine.Telemetry.Json.Float f) -> f
  | _ -> Alcotest.failf "no float at %s" (String.concat "." path)

(* --- Prometheus exposition conformance ----------------------------------- *)

(* Shared format checker for every [to_prometheus] in the tree: every
   sample belongs to a declared metric family, exactly one TYPE line
   per family, no duplicate series, every value a number. Guards
   against the classic scrape breakers (duplicate names, samples
   without TYPE) as counters get added over time. *)
let check_prometheus_conformance ?(min_samples = 10) text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let types = Hashtbl.create 16 in
  let series_seen = Hashtbl.create 64 in
  let sample_count = ref 0 in
  List.iter
    (fun line ->
      if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        with
        | [ "#"; "TYPE"; name; kind ] ->
            Alcotest.(check bool)
              ("exactly one TYPE for " ^ name)
              false (Hashtbl.mem types name);
            Alcotest.(check bool)
              ("known kind for " ^ name)
              true
              (List.mem kind [ "counter"; "gauge"; "summary"; "histogram" ]);
            Hashtbl.add types name kind
        | _ -> Alcotest.failf "malformed TYPE line: %s" line
      end
      else if line.[0] = '#' then ()  (* HELP / comments: free-form *)
      else begin
        incr sample_count;
        let sp =
          match String.rindex_opt line ' ' with
          | Some i -> i
          | None -> Alcotest.failf "malformed sample line: %s" line
        in
        let series = String.sub line 0 sp in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        Alcotest.(check bool)
          ("numeric value in " ^ line)
          true
          (match float_of_string_opt value with Some _ -> true | None -> false);
        Alcotest.(check bool)
          ("no duplicate series " ^ series)
          false (Hashtbl.mem series_seen series);
        Hashtbl.add series_seen series ();
        let name =
          match String.index_opt series '{' with
          | Some i -> String.sub series 0 i
          | None -> series
        in
        (* A summary's _sum/_count samples belong to the base family. *)
        let base =
          if Hashtbl.mem types name then name
          else
            let strip suffix =
              if String.ends_with ~suffix name then
                Some
                  (String.sub name 0 (String.length name - String.length suffix))
              else None
            in
            match (strip "_sum", strip "_count") with
            | Some b, _ when Hashtbl.mem types b -> b
            | _, Some b when Hashtbl.mem types b -> b
            | _ -> name
        in
        Alcotest.(check bool) ("sample " ^ name ^ " has a TYPE") true
          (Hashtbl.mem types base)
      end)
    lines;
  Alcotest.(check bool) "exposes a useful number of samples" true
    (!sample_count >= min_samples)

(* --- common assertions --------------------------------------------------- *)

let check_valid_traversal tree order =
  Alcotest.(check bool) "valid traversal" true (Tt_core.Traversal.is_valid_order tree order)

let run name suites = Alcotest.run name suites
