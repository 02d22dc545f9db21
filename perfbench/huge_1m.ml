(* huge-1m: in-process on one domain, [Huge.caterpillar], [Huge.binary]
   and [Huge.random_attach] build trees at p = 1M (see [Streams] for
   their seeds), then [Minmem_approx.run] solves each, round after round.

   Why: it is the only caller of [Flat_tree] and of the bounded profiles
   of [Minmem_approx], and the only workload where memory is the limit;
   a change to the tree representation must show no loss here. *)

module A = Tt_core.Minmem_approx
open Perfbench

let setups = 5
let now = Unix.gettimeofday

(* One tree's answer once checked; its million-entry order is dropped. *)
type solved = { name : string; lower : int; upper : int; refinements : int; wall : float }

type round = {
  results : solved list;
  errors : string list;
  minor_words : float;
  major_words : float;
}

(* Solves the three trees; each answer is checked right after its run,
   outside the timed call. Each run starts from a collected heap, so it
   does not pay for the garbage of the previous run or check. *)
let solve_round ~spans trees =
  let gc_words = ref (0., 0.) in
  let results, errors =
    List.split
      (List.map
         (fun (name, tree) ->
           Gc.full_major ();
           let g0 = Gc.quick_stat () in
           let t0 = now () in
           let b = Spans.with_span spans "huge.approx" (fun _ -> A.run tree) in
           let wall = now () -. t0 in
           let g1 = Gc.quick_stat () in
           let minor, major = !gc_words in
           gc_words :=
             (minor +. g1.Gc.minor_words -. g0.Gc.minor_words, major +. g1.Gc.major_words -. g0.Gc.major_words);
           ( { name; lower = b.A.lower; upper = b.A.upper; refinements = b.A.rounds; wall },
             Checks.huge_errors name tree b ))
         trees)
  in
  { results;
    errors = List.concat errors;
    minor_words = fst !gc_words;
    major_words = snd !gc_words
  }

(* Rounds until [seconds] have elapsed, each solving the same trees. *)
let rounds ~seconds ~spans trees =
  let deadline = now () +. seconds in
  let rec go acc =
    let acc = solve_round ~spans trees :: acc in
    if now () >= deadline then List.rev acc else go acc
  in
  go []

(* Every [Minmem_approx.run] wall of [rs], one sample per tree and round. *)
let walls rs = Array.of_list (List.concat_map (fun r -> List.map (fun s -> s.wall) r.results) rs)

(* The time to solve the three trees once, one sample per round: the sum
   of the round's three [Minmem_approx.run] walls. A round is the
   workload's request, so its median is the latency; it spans all three
   trees, so a machine slowdown shorter than a round moves it less than
   it moves any single tree's solve. *)
let round_walls rs =
  Array.of_list (List.map (fun r -> List.fold_left (fun a s -> a +. s.wall) 0. r.results) rs)

let solve_s rs = Stats.median_value (round_walls rs)

(* Largest certified gap of a round, (upper - lower) / lower, in %. *)
let gap_pct r =
  List.fold_left
    (fun a s -> Float.max a (100. *. float_of_int (s.upper - s.lower) /. float_of_int (max 1 s.lower)))
    0. r.results

let run ~seed ~seconds ~trace ~spans_path =
  let spans = Spans.create ~enabled:trace in
  let times = Array.make setups 0. in
  let trees = ref [] in
  for k = 0 to setups - 1 do
    (* Free the previous set first, so the peak holds one set of trees. *)
    trees := [];
    Gc.full_major ();
    let t0 = now () in
    trees := Spans.with_span spans "huge.gen" (fun _ -> Streams.huge_trees ~seed ());
    times.(k) <- now () -. t0
  done;
  let trees = !trees in
  Printf.printf "workload huge-1m seed %d: input digest %s (3 trees, p = %d)\n%!" seed
    (Streams.huge_digest trees) Streams.huge_p;
  let off = Spans.create ~enabled:false in
  let rs, untraced =
    Spans.bracket ~trace ~seconds (fun ~traced seconds ->
        rounds ~seconds ~spans:(if traced then spans else off) trees)
  in
  let untraced = List.concat untraced in
  List.iter
    (fun s ->
      Printf.printf "tree %-13s lower %d upper %d refinement rounds %d solve %.3f s\n" s.name s.lower
        s.upper s.refinements s.wall)
    (List.hd rs).results;
  let rss = Cluster_proc.self_peak_rss_mb () in
  let solve = solve_s rs in
  let per_tree = walls rs in
  let all_rounds = rs @ untraced in
  let all_errors = List.concat_map (fun r -> r.errors) all_rounds in
  let nrounds = List.length all_rounds in
  let attempted = 3 * nrounds in
  let failed = min attempted (List.length all_errors) in
  let e2e =
    [ Output.metric "setup_s" "s" (Stats.median_value times) ~samples:setups
        ~note:"the three Huge generators, median";
      Output.metric "throughput_per_s" "1/s"
        (float_of_int (Array.length per_tree) /. Stats.sum per_tree)
        ~samples:(Array.length per_tree)
        ~note:"trees solved / Minmem_approx.run wall, over all rounds";
      Output.metric "latency_p50_ms" "ms" (1000. *. solve)
        ~samples:(List.length rs)
        ~note:"solve_s: the three trees' Minmem_approx.run walls summed, median over rounds";
      Output.metric "peak_rss_mb" "MB" rss ~samples:1 ~note:"VmHWM of the benchmark process"
    ]
  in
  let extra =
    [ Output.metric "gap_pct" "%" (gap_pct (List.hd rs)) ~samples:3
        ~note:"largest certified (upper - lower) / lower";
      Output.metric "error_ratio" "ratio"
        (float_of_int failed /. float_of_int (max 1 attempted))
        ~samples:attempted ~note:"failed instances / instances"
    ]
  in
  let layers =
    if not trace then []
    else begin
      let n = float_of_int (List.length rs) in
      let per_round f = List.fold_left (fun a r -> a +. f r) 0. rs /. n in
      let untraced_solve = solve_s untraced in
      let gc = Gc.quick_stat () in
      [ ("huge.gen_s", Stats.median_value times);
        ("huge.approx_s", solve);
        ( "huge.rounds",
          float_of_int
            (List.fold_left (fun a s -> a + s.refinements) 0 (List.hd rs).results) );
        ("huge.minor_words", per_round (fun r -> r.minor_words));
        ("huge.major_words", per_round (fun r -> r.major_words));
        ( "huge.top_heap_mb",
          float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
        ( "trace.unattributed_s",
          Float.max 0. (Stats.sum (walls rs) -. Spans.total spans "huge.approx") /. n );
        ("trace.overhead_pct", 100. *. (solve -. untraced_solve) /. untraced_solve)
      ]
    end
  in
  if trace then Spans.write spans spans_path;
  { Output.e2e; extra; layers; attempted; failed; errors = all_errors }
