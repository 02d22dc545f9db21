(* The repo benchmark: one command per workload.

     bench --workload NAME --seed N --seconds S --trace 0|1

   prints one [metric] line per figure (name, value, unit, sample
   count) and, as its last line, a JSON object with [correct],
   [attempted], [failed] and [metrics]. Untraced runs ([--trace 0])
   report the end-to-end metrics; traced runs report the per-layer
   metrics instead and write their spans to [--spans FILE]. A failed
   answer check exits 1; a run that cannot complete, or whose figures
   are not all finite, exits 2 without a result line. [bench
   serve-cluster] is the cluster process the serving workloads start. *)

open Perfbench

let workloads =
  [ ("cluster-hot", Serving.run Serving.Hot);
    ("cluster-cold", Serving.run Serving.Cold);
    ("batch-corpus", Batch_corpus.run);
    ("huge-1m", Huge_1m.run)
  ]

let usage () =
  prerr_endline
    "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]\n\
    \       bench serve-cluster";
  exit 2

let rec flags acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> flags ((k, v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let int_flag fs k =
  match Option.bind (List.assoc_opt k fs) int_of_string_opt with Some v -> v | None -> usage ()

let run_workload fs =
  let name = Option.value ~default:"" (List.assoc_opt "--workload" fs) in
  let run = match List.assoc_opt name workloads with Some r -> r | None -> usage () in
  let seed = int_flag fs "--seed" and seconds = int_flag fs "--seconds" in
  let trace =
    match int_flag fs "--trace" with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let spans_path =
    match List.assoc_opt "--spans" fs with
    | Some p -> p
    | None ->
        let dir = ".perfbench_out" in
        if trace && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" name seed)
  in
  let r = run ~seed ~seconds:(float_of_int seconds) ~trace ~spans_path in
  List.iteri (fun i e -> if i < 20 then Printf.printf "check failed: %s\n" e) r.Output.errors;
  let metrics =
    if trace then begin
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n Output.per_layer) then failwith ("unlisted per-layer metric " ^ n))
        r.layers;
      let value n = Option.value ~default:0. (List.assoc_opt n r.layers) in
      let ms = List.map (fun (n, u) -> Output.metric n u (value n) ~samples:1) Output.per_layer in
      Output.print_layers ms;
      Printf.printf "spans written to %s\n" spans_path;
      ms
    end
    else begin
      if List.map (fun m -> (m.Output.name, m.Output.unit_)) r.e2e <> Output.end_to_end then
        failwith "end-to-end metrics differ from the listed ones";
      List.iter Output.print_metric (r.e2e @ r.extra);
      r.e2e
    end
  in
  (* A figure that is not a number (a median of no samples) means the run
     could not complete; it is never reported as a score. *)
  List.iter
    (fun m ->
      if not (Float.is_finite m.Output.value) then
        failwith ("metric " ^ m.name ^ " is not finite"))
    metrics;
  let correct = r.errors = [] in
  print_endline (Output.result_line ~correct ~attempted:(max 1 r.attempted) ~failed:r.failed metrics);
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "serve-cluster" ] -> Cluster_proc.serve ()
  | args -> (
      match run_workload (flags [] args) with
      | () -> ()
      | exception e ->
          Printf.eprintf "bench: %s\n" (Printexc.to_string e);
          exit 2)
