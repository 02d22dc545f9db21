(* Answer checks, all run outside the timed window. A reply is wrong when
   its results differ from an in-process Executor run of the same entry,
   or when a traversal it carries fails the paper's Algorithm 1 check. *)

module Job = Tt_engine.Job
module P = Tt_server.Protocol

(* Every MinMemory traversal must be a topological order whose simulated
   peak (Algorithm 1, [Tt_core.Traversal]) is the reported peak; a
   certified-bounds order must achieve its upper bound. *)
let traversal_errors (job : Job.t) (result : Job.result) =
  let what = Job.spec_to_string job.spec in
  let check peak order =
    if not (Tt_core.Traversal.is_valid_order job.tree order) then
      [ what ^ ": order is not a topological traversal" ]
    else
      let sim = Tt_core.Traversal.peak job.tree order in
      if sim <> peak then
        [ Printf.sprintf "%s: reported peak %d, Algorithm 1 gives %d" what peak sim ]
      else []
  in
  match result with
  | Ok (Job.Memory { peak; order }) -> check peak order
  | Ok (Job.Approx { lower; upper; order; _ }) ->
      (if lower > upper then [ Printf.sprintf "%s: lower %d > upper %d" what lower upper ]
       else [])
      @ check upper order
  | _ -> []

(* The reference run: every distinct entry parsed and solved once by an
   in-process Executor. Returns entry -> (jobs, results in job order)
   and the reference value digest. *)
let reference ~domains entries =
  let distinct = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      if not (Hashtbl.mem distinct e) then begin
        match Tt_engine.Manifest.parse e with
        | Ok jobs ->
            Hashtbl.replace distinct e jobs;
            order := e :: !order
        | Error msg -> failwith ("reference: bad entry: " ^ msg)
      end)
    entries;
  let order = List.rev !order in
  let jobs = List.concat_map (Hashtbl.find distinct) order in
  let ex = Tt_engine.Executor.create ~domains () in
  let reports, _ = Tt_engine.Executor.run_batch ex jobs in
  let table = Hashtbl.create (List.length order) in
  let pos = ref 0 in
  List.iter
    (fun e ->
      let js = Hashtbl.find distinct e in
      let n = List.length js in
      let results = List.init n (fun i -> reports.(!pos + i).Tt_engine.Executor.result) in
      pos := !pos + n;
      Hashtbl.replace table e (js, results))
    order;
  (table, Tt_engine.Executor.value_digest reports)

(* Errors of one OK reply against the reference for its entry. *)
let reply_errors (jobs, expected) (reports : P.job_report list) =
  if List.length reports <> List.length jobs then
    [ Printf.sprintf "%d results for %d jobs" (List.length reports) (List.length jobs) ]
  else
    List.concat
      (List.map2
         (fun (job, want) (r : P.job_report) ->
           let value =
             if Job.result_digest_token r.result <> Job.result_digest_token want then
               [ Printf.sprintf "%s: got %s, expected %s" (Job.spec_to_string job.Job.spec)
                   (Job.result_to_string r.result) (Job.result_to_string want) ]
             else []
           in
           value @ traversal_errors job r.result)
         (List.combine jobs expected) reports)

(* The pinned tolerance of the perf suite's [huge/minmem-approx] rows:
   a certified gap (upper - lower) / upper above 5 % fails the run. *)
let huge_gap_threshold = 0.05

let huge_errors name tree (b : Tt_core.Minmem_approx.bounds) =
  let open Tt_core.Minmem_approx in
  let bound =
    if b.lower > b.upper then [ Printf.sprintf "%s: lower %d > upper %d" name b.lower b.upper ]
    else []
  in
  let peak =
    match Tt_core.Flat_tree.peak tree b.order with
    | p when p = b.upper -> []
    | p -> [ Printf.sprintf "%s: order peak %d <> upper %d" name p b.upper ]
    | exception Invalid_argument e -> [ Printf.sprintf "%s: invalid order: %s" name e ]
  in
  let gap =
    if gap b > huge_gap_threshold then
      [ Printf.sprintf "%s: certified gap %.4f above %.2f" name (gap b) huge_gap_threshold ]
    else []
  in
  bound @ peak @ gap
