(* Tests for the batch engine: golden content addresses, cache
   behaviour, executor determinism across domain counts, crash
   isolation, telemetry JSONL and the batch manifest parser. *)

module T = Tt_core.Tree
module E = Tt_engine.Executor
module J = Tt_engine.Job
module C = Tt_engine.Cache
module H = Helpers

let some_tree seed = List.hd (H.tree_list ~seed ~count:1 ~size_max:30 ~max_f:12 ~max_n:6)

(* A small mixed-spec batch over a seeded corpus: every spec family,
   with deliberate duplicates so the cache has something to do. *)
let mixed_jobs ?(seed = 11) ?(trees = 8) () =
  let ts = H.tree_list ~seed ~count:trees ~size_max:40 ~max_f:15 ~max_n:8 in
  List.concat_map
    (fun t ->
      [ J.make t (J.Min_memory J.Minmem);
        J.make t (J.Min_memory J.Liu);
        J.make t (J.Min_memory J.Postorder);
        J.make t (J.Min_io { policy = Tt_core.Minio.First_fit; budget = J.Fraction 0.5 });
        J.make t (J.Min_io { policy = Tt_core.Minio.Lsnf; budget = J.Fraction 0.25 });
        J.make t (J.Schedule { procs = 4; mem_factor = 1.5 });
        J.make t (J.Min_memory J.Minmem) (* duplicate: must hit *)
      ])
    ts

(* ------------------------------------------------------------ job ids *)

let test_job_id_content_addressing () =
  let t1 = some_tree 3 in
  let t2 = T.map_weights ~f:(fun i -> t1.T.f.(i)) ~n:(fun i -> t1.T.n.(i)) t1 in
  let j spec tree = J.id (J.make tree spec) in
  Alcotest.(check string)
    "same tree, same spec => same id"
    (j (J.Min_memory J.Liu) t1)
    (j (J.Min_memory J.Liu) t2);
  Alcotest.(check bool)
    "label does not change the id" true
    (J.id (J.make ~label:"a" t1 (J.Min_memory J.Liu))
    = J.id (J.make ~label:"b" t1 (J.Min_memory J.Liu)));
  let bumped =
    T.map_weights ~f:(fun i -> t1.T.f.(i) + if i = 0 then 1 else 0)
      ~n:(fun i -> t1.T.n.(i))
      t1
  in
  Alcotest.(check bool)
    "one f_i changed => different id" false
    (j (J.Min_memory J.Liu) t1 = j (J.Min_memory J.Liu) bumped);
  Alcotest.(check bool)
    "different spec => different id" false
    (j (J.Min_memory J.Liu) t1 = j (J.Min_memory J.Minmem) t1);
  (* Golden content addresses. Persisted caches, journals and shard
     routes are keyed by these ids, so they must not change across
     revisions: the literals below were produced by the Printf-based
     encoder that the exact-size one replaced (the weights assume
     63-bit ints). *)
  let golden_trees =
    [ ( "one node",
        T.make ~parent:[| -1 |] ~f:[| 0 |] ~n:[| 0 |],
        "5f4b0e48fb6196e235aec6c3247d61d7",
        "50631973140a780fde504e9ce1bc5257" );
      ( "negative n",
        T.make ~parent:[| -1; 0; 0 |] ~f:[| 3; 1; 2 |] ~n:[| -4; -1; 0 |],
        "59857336ef07d50ffe869f7a6bfe4374",
        "71ca4f6057df72205a016cd21090e3c7" );
      ( "n = min_int",
        T.make ~parent:[| -1; 0 |] ~f:[| 0; 5 |] ~n:[| min_int; 2 |],
        "682e56d8e76a51832c6dc9888f166c5d",
        "7d1b27cf708c3884dc31fb11ba8fd715" );
      ( "f = max_int",
        T.make ~parent:[| 1; -1 |] ~f:[| max_int; 0 |] ~n:[| 0; max_int |],
        "ea2821b18e5866068156b4e009c4fe86",
        "773cc6d05b98014b8c25606de45248cb" );
      ( "multi-digit",
        T.make ~parent:[| -1; 0; 0; 1; 1; 2 |]
          ~f:[| 10; 1234; 98765; 4096; 100000; 7 |]
          ~n:[| 12; 345; -6789; 0; 1000000007; -10 |],
        "bdba46182e7aef81852d2858f99278b3",
        "ce5d0e8d1d4d6c61ac743a43fd92a6e1" )
    ]
  in
  if Sys.int_size = 63 then
    List.iter
      (fun (name, tree, digest, minmem_id) ->
        Alcotest.(check string) (name ^ ": tree digest") digest (J.tree_digest tree);
        Alcotest.(check string) (name ^ ": minmem id") minmem_id
          (j (J.Min_memory J.Minmem) tree))
      golden_trees;
  let _, multi, _, _ = List.nth golden_trees 4 in
  List.iter
    (fun (spec, id) ->
      Alcotest.(check string) (J.spec_to_string spec) id (j spec multi);
      Alcotest.(check string)
        (J.spec_to_string spec ^ " from the encoding")
        id
        (J.id_of_encoding (T.to_string multi) spec))
    [ (J.Min_memory J.Minmem, "ce5d0e8d1d4d6c61ac743a43fd92a6e1");
      (J.Min_memory J.Liu, "81dd47750a797d6d0e84d524f85ee092");
      (J.Min_memory J.Postorder, "c2ffe2763c36530be67f7ff5a2657150");
      ( J.Min_io { policy = Tt_core.Minio.First_fit; budget = J.Fraction 0.5 },
        "aafc1c37ec0c160ba87863eeaacea892" );
      ( J.Min_io { policy = Tt_core.Minio.Best_k 5; budget = J.Words 1234 },
        "c6d0b738e87c3c8ff599ce119737278d" );
      (J.Schedule { procs = 4; mem_factor = 1.5 }, "5adc7e2de5b4a793a68228a1b6aeb60b");
      ( J.Par_schedule { algo = J.Greedy; procs = 4; mem_factor = 1.5 },
        "c064b2159798e682a473cdb969a97d07" );
      ( J.Par_schedule { algo = J.Booking; procs = 2; mem_factor = 1.0 },
        "716c9cf5de7d40f8820300d35a82b72a" );
      ( J.Par_schedule { algo = J.Split; procs = 8; mem_factor = 2.0 },
        "3ef0b59fdbb86e8ba295a8fce291d278" );
      (J.Pareto_sweep { procs = 4; steps = 8 }, "79513c3b37c088d8d68659b16b8bfcc1");
      (J.Approx_memory { seg_cap = 8; tol = 0.01 }, "b7bcabc71b73538d2a6dc5699ec9af4f")
    ]

(* -------------------------------------------------------------- cache *)

let test_cache_hit_miss_counters () =
  let c : int C.t = C.create () in
  let calls = ref 0 in
  let v, hit = C.find_or_compute c ~key:"a" (fun () -> incr calls; 1) in
  Alcotest.(check (pair int bool)) "first is a miss" (1, false) (v, hit);
  let v, hit = C.find_or_compute c ~key:"a" (fun () -> incr calls; 2) in
  Alcotest.(check (pair int bool)) "second is a hit with the old value" (1, true) (v, hit);
  let _ = C.find_or_compute c ~key:"b" (fun () -> incr calls; 3) in
  Alcotest.(check int) "computation ran once per distinct key" 2 !calls;
  Alcotest.(check (pair int int)) "counters" (1, 2) (C.hits c, C.misses c);
  Alcotest.(check int) "length" 2 (C.length c);
  C.clear c;
  Alcotest.(check (pair int int)) "cleared" (0, 0) (C.hits c, C.misses c)

let test_cache_exception_not_inserted () =
  let c : int C.t = C.create () in
  (try ignore (C.find_or_compute c ~key:"k" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "nothing inserted" 0 (C.length c);
  Alcotest.(check int) "the failed attempt was a miss" 1 (C.misses c);
  let v, hit = C.find_or_compute c ~key:"k" (fun () -> 7) in
  Alcotest.(check (pair int bool)) "recomputes after failure" (7, false) (v, hit)

let test_cache_same_tree_twice () =
  (* the ISSUE's contract: same tree submitted twice hits; a tree
     differing in one f_i misses; counters match. *)
  let exec = E.create ~domains:1 () in
  let t1 = some_tree 5 in
  let job = J.make t1 (J.Min_memory J.Minmem) in
  let reports, _ = E.run_batch exec [ job; job ] in
  Alcotest.(check bool) "first computes" false reports.(0).E.cache_hit;
  Alcotest.(check bool) "second hits" true reports.(1).E.cache_hit;
  let bumped =
    T.map_weights ~f:(fun i -> t1.T.f.(i) + if i = 0 then 1 else 0)
      ~n:(fun i -> t1.T.n.(i))
      t1
  in
  let reports, _ = E.run_batch exec [ J.make bumped (J.Min_memory J.Minmem) ] in
  Alcotest.(check bool) "perturbed tree misses" false reports.(0).E.cache_hit;
  Alcotest.(check (pair int int)) "counters match" (1, 2)
    (C.hits (E.cache exec), C.misses (E.cache exec))

let test_cache_shares_minmem_preprocessing () =
  let exec = E.create ~domains:1 () in
  let t = some_tree 9 in
  let io policy = J.make t (J.Min_io { policy; budget = J.Fraction 0.5 }) in
  let reports, summary =
    E.run_batch exec
      [ io Tt_core.Minio.First_fit; io Tt_core.Minio.Lsnf; J.make t (J.Min_memory J.Minmem) ]
  in
  (* 3 distinct job keys (all misses), but the second and third jobs
     reuse the first job's MinMem preprocessing from the cache. *)
  Alcotest.(check int) "two preprocessing hits" 2 summary.E.cache_hits;
  Alcotest.(check bool) "explicit MinMem job reuses preprocessing" true
    reports.(2).E.cache_hit;
  match (reports.(0).E.result, reports.(1).E.result) with
  | Ok (J.Io { memory = m1; _ }), Ok (J.Io { memory = m2; _ }) ->
      Alcotest.(check int) "same derived budget" m1 m2
  | _ -> Alcotest.fail "expected Io outcomes"

let test_cache_persistence () =
  let dir = Filename.temp_file "tt_cache" "" in
  Sys.remove dir;
  let t = some_tree 13 in
  let job = J.make t (J.Min_memory J.Liu) in
  let exec1 = E.create ~cache:(C.create ~persist:dir ()) () in
  let r1 = E.run exec1 [ job ] in
  (* fresh in-memory cache, same directory: must hit the disk level *)
  let exec2 = E.create ~cache:(C.create ~persist:dir ()) () in
  let reports, _ = E.run_batch exec2 [ job ] in
  Alcotest.(check bool) "disk hit across executors" true reports.(0).E.cache_hit;
  Alcotest.(check bool) "same result" true
    (J.equal_result (List.hd r1) reports.(0).E.result)

(* ----------------------------------------------------------- executor *)

let check_reports_match (a : E.report array) (b : E.report array) =
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i (ra : E.report) ->
      let rb = b.(i) in
      Alcotest.(check string) "same job at same slot" (J.id ra.E.job) (J.id rb.E.job);
      if not (J.equal_result ra.E.result rb.E.result) then
        Alcotest.failf "job %d (%s): %s <> %s" i ra.E.job.J.label
          (J.result_to_string ra.E.result)
          (J.result_to_string rb.E.result))
    a

let test_determinism_across_domains () =
  let jobs = mixed_jobs () in
  let run domains = fst (E.run_batch (E.create ~domains ()) jobs) in
  let seq = run 1 in
  check_reports_match seq (run 4);
  check_reports_match seq (run (E.default_domains ()))

let test_crash_isolated () =
  (* Parallel.list_schedule raises Invalid_argument on procs = 0; the
     executor must degrade that job alone to Error. *)
  let t = some_tree 21 in
  let good = J.make t (J.Min_memory J.Postorder) in
  let crash = J.make t (J.Schedule { procs = 0; mem_factor = 1.5 }) in
  List.iter
    (fun domains ->
      let exec = E.create ~domains () in
      let reports, summary = E.run_batch exec [ good; crash; good ] in
      (match reports.(1).E.result with
      | Error (J.Crashed msg) ->
          Alcotest.(check bool) "message mentions the exception" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "expected Crashed for the bad job");
      (match (reports.(0).E.result, reports.(2).E.result) with
      | Ok _, Ok _ -> ()
      | _ -> Alcotest.fail "good jobs must survive a crashing neighbour");
      Alcotest.(check int) "one error counted" 1 summary.E.errors)
    [ 1; 4 ]

let test_results_in_submission_order () =
  let jobs = mixed_jobs ~seed:7 ~trees:5 () in
  let exec = E.create ~domains:4 () in
  let reports, _ = E.run_batch exec jobs in
  List.iteri
    (fun i job ->
      Alcotest.(check string) "slot i holds job i" (J.id job) (J.id reports.(i).E.job))
    jobs

(* [report.id] comes from each worker's one-entry encoding memo, keyed
   by the physical tree: interleaved trees, and equal trees that are
   distinct values, must still get exactly [Job.id]. *)
let test_report_ids () =
  let a = some_tree 5 and b = some_tree 6 in
  let a' = T.of_string (T.to_string a) in
  let specs =
    [ J.Min_memory J.Liu;
      J.Min_io { policy = Tt_core.Minio.Best_fit; budget = J.Fraction 0.5 };
      J.Par_schedule { algo = J.Booking; procs = 2; mem_factor = 1.0 } ]
  in
  let jobs =
    List.concat_map (fun spec -> List.map (fun t -> J.make t spec) [ a; b; a'; a; b ]) specs
  in
  List.iter
    (fun domains ->
      let reports, _ = E.run_batch (E.create ~domains ()) jobs in
      Array.iter
        (fun (r : E.report) -> Alcotest.(check string) "report id" (J.id r.E.job) r.E.id)
        reports)
    [ 1; 3 ]

(* ---------------------------------------------------------- telemetry *)

let test_telemetry_jsonl () =
  let path = Filename.temp_file "tt_telemetry" ".jsonl" in
  Tt_engine.Telemetry.with_file path (fun sink ->
      let exec = E.create ~domains:2 ~telemetry:sink () in
      ignore (E.run_batch exec (mixed_jobs ~seed:3 ~trees:3 ())));
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per job plus the batch summary" 22 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
      Alcotest.(check bool) "line has an event field" true
        (H.contains line "\"event\":"))
    lines;
  let batch = List.nth lines (List.length lines - 1) in
  List.iter
    (fun key -> Alcotest.(check bool) ("batch has " ^ key) true (H.contains batch key))
    [ "\"event\":\"batch\""; "\"cache_hits\""; "\"utilization\""; "\"busy_s\"" ];
  Sys.remove path

let test_json_escaping () =
  let module Json = Tt_engine.Telemetry.Json in
  Alcotest.(check string) "escapes" "{\"a\\\"b\":\"x\\n\\u0001\"}"
    (Json.to_string (Json.Obj [ ("a\"b", Json.String "x\n\001") ]));
  Alcotest.(check string) "non-finite floats are null" "[null,null,1.5]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity; Json.Float 1.5 ]))

(* ------------------------------------------------- Json round tripping *)

module Json = Tt_engine.Telemetry.Json

(* What to_string normalizes away: non-finite floats render as null
   (JSON has no inf/nan) and integral floats print without a point, so
   they parse back as Int. *)
let rec json_normal = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.Float f when Float.is_integer f -> Json.Int (int_of_float f)
  | Json.List l -> Json.List (List.map json_normal l)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, json_normal v)) kvs)
  | j -> j

let gen_json =
  let open QCheck.Gen in
  (* arbitrary bytes: exercises the escaper on control characters,
     quotes, backslashes and high (raw UTF-8) bytes alike *)
  let str = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12) in
  let leaf =
    frequency
      [ (1, return Json.Null);
        (2, map (fun b -> Json.Bool b) bool);
        (4, map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000));
        (* decimal-literal floats, at most 7 significant digits: the
           %.12g rendering reproduces them exactly *)
        ( 4,
          map2
            (fun m e -> Json.Float (float_of_int m /. (10. ** float_of_int e)))
            (int_range (-999_999) 999_999) (int_bound 4) );
        (1, oneofl [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]);
        (4, map (fun s -> Json.String s) str)
      ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (1, map (fun l -> Json.List l) (list_size (int_bound 4) (go (n / 2))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4) (pair str (go (n / 2)))) )
        ]
  in
  sized (fun n -> go (min n 16))

let prop_json_round_trip =
  H.qcheck ~count:500 "of_string (to_string v) = Ok (normal v)"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v ->
      let n = json_normal v in
      Json.of_string (Json.to_string v) = Ok n
      (* normalization is idempotent: re-encoding the parse is stable *)
      && Json.of_string (Json.to_string n) = Ok n)

let test_json_unicode_degradation () =
  (* \u escapes above 0xFF degrade to '?'; at or below they are bytes *)
  Alcotest.(check bool) "U+0100 degrades" true
    (Json.of_string {|"\u0100"|} = Ok (Json.String "?"));
  Alcotest.(check bool) "U+00E9 is a byte" true
    (Json.of_string {|"\u00e9"|} = Ok (Json.String "\233"));
  Alcotest.(check bool) "escaped controls round trip" true
    (Json.of_string (Json.to_string (Json.String "\000\031\"\\")) =
     Ok (Json.String "\000\031\"\\"))

let test_json_malformed_offsets () =
  let expect_err s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error for %S carries an offset (%s)" s e)
          true (H.contains e "offset")
  in
  List.iter expect_err
    [ ""; "{"; "["; {|{"a":1|}; "[1,]"; {|{"a" 1}|}; {|"unterminated|};
      "truz"; "nul"; {|{"a":}|}; {|{:1}|}; "[1 2]"; {|"bad \escape"|} ]

(* -------------------------------------------------------- cache bound *)

let test_cache_eviction () =
  let c : int C.t = C.create ~max_entries:2 () in
  let get k = C.find_or_compute c ~key:k (fun () -> int_of_string k) in
  ignore (get "1");
  ignore (get "2");
  Alcotest.(check int) "no eviction while under the bound" 0 (C.evictions c);
  ignore (get "1");
  (* "1" was just touched, so "2" is the least-recently-used victim *)
  ignore (get "3");
  Alcotest.(check int) "one eviction" 1 (C.evictions c);
  Alcotest.(check int) "table stays bounded" 2 (C.length c);
  Alcotest.(check bool) "LRU victim dropped" true (C.find c "2" = None);
  Alcotest.(check bool) "recently touched entry kept" true (C.find c "1" = Some 1);
  let _, hit = get "2" in
  Alcotest.(check bool) "an evicted key recomputes" false hit;
  Alcotest.check_raises "max_entries < 1"
    (Invalid_argument "Cache.create: max_entries < 1") (fun () ->
      ignore (C.create ~max_entries:0 () : int C.t))

let test_cache_eviction_disk_backed () =
  (* Persisted files are never evicted: an evicted entry degrades to a
     disk hit, not a recomputation. *)
  let dir = Filename.temp_file "tt_cache_evict" "" in
  Sys.remove dir;
  let c : int C.t = C.create ~persist:dir ~max_entries:1 () in
  ignore (C.find_or_compute c ~key:"a" (fun () -> 1));
  ignore (C.find_or_compute c ~key:"b" (fun () -> 2));
  Alcotest.(check int) "insert over the bound evicts" 1 (C.evictions c);
  let v, hit =
    C.find_or_compute c ~key:"a" (fun () -> Alcotest.fail "recomputed")
  in
  Alcotest.(check bool) "evicted entry served from disk" true hit;
  Alcotest.(check int) "disk value intact" 1 v

(* ----------------------------------------------------------- manifest *)

let test_manifest_parse () =
  let t = some_tree 2 in
  let text =
    Printf.sprintf
      "# a comment\n\n\
       gen grid2d size=8 :: minmem; liu ; postorder\n\
       gen grid2d size=8 seed=42 :: minio policy=lsnf budget=25%%; minio policy=3 budget=100\n\
       tree \"%s\" :: schedule procs=2 mem=1.5  # trailing comment\n"
      (T.to_string t)
  in
  match Tt_engine.Manifest.parse text with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok jobs ->
      Alcotest.(check int) "six jobs" 6 (List.length jobs);
      let specs = List.map (fun (j : J.t) -> J.spec_to_string j.J.spec) jobs in
      Alcotest.(check (list string)) "specs"
        [ "min-memory:minmem";
          "min-memory:liu";
          "min-memory:postorder";
          "min-io:LSNF:frac=0.25";
          "min-io:Best 3 Comb.:words=100";
          "schedule:procs=2:mem=1.5"
        ]
        specs;
      (* the two gen lines denote the same matrix: same tree digest *)
      let d (j : J.t) = J.tree_digest j.J.tree in
      Alcotest.(check string) "same source resolves to the same tree"
        (d (List.nth jobs 0)) (d (List.nth jobs 3));
      let last = List.nth jobs 5 in
      Alcotest.(check string) "tree literal round-trips"
        (T.to_string t) (T.to_string last.J.tree)

let test_manifest_errors () =
  let check_error text fragment =
    match Tt_engine.Manifest.parse text with
    | Ok _ -> Alcotest.failf "expected an error for %S" text
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S (got %S)" text fragment e)
          true (H.contains e fragment)
  in
  check_error "gen grid2d size=8" "line 1";
  check_error "\nfoo bar :: minmem" "line 2";
  check_error "gen grid2d :: fly" "unknown job";
  check_error "gen warp :: minmem" "unknown matrix kind";
  check_error "gen grid2d bogus=1 :: minmem" "unknown key";
  check_error "gen grid2d :: minio policy=nope" "unknown policy";
  (* every malformed line is reported, not just the first *)
  let text = "gen warp :: minmem\ngen grid2d size=6 :: minmem\ngen grid2d :: fly\n" in
  check_error text "line 1";
  check_error text "line 3";
  match Tt_engine.Manifest.parse text with
  | Ok _ -> Alcotest.fail "expected errors"
  | Error e ->
      Alcotest.(check int) "one entry per bad line" 2
        (List.length (String.split_on_char '\n' e))

let test_manifest_runs_through_engine () =
  let text =
    "gen grid2d size=6 :: minmem; minio policy=first-fit budget=0%\n\
     gen tridiagonal size=12 :: postorder\n"
  in
  match Tt_engine.Manifest.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok jobs -> (
      let results = E.run (E.create ~domains:2 ()) jobs in
      Alcotest.(check int) "three results" 3 (List.length results);
      match results with
      | [ Ok (J.Memory { peak; _ }); Ok (J.Io { in_core; memory; io }); Ok (J.Memory _) ]
        ->
          Alcotest.(check int) "budget 0% is the working-set floor"
            (T.max_mem_req (List.nth jobs 1).J.tree)
            memory;
          Alcotest.(check bool) "floor budget is feasible" true (io <> None);
          Alcotest.(check int) "io job derives from the minmem peak" peak in_core
      | _ -> Alcotest.fail "unexpected result shapes")

let test_manifest_sched_jobs () =
  let text =
    "gen grid2d size=8 :: par-schedule algo=booking procs=4 mem=1.0; \
     par-schedule procs=2; par-schedule algo=split procs=4 mem=2.0\n\
     gen tridiagonal size=16 :: pareto procs=4 steps=5; pareto procs=2\n"
  in
  match Tt_engine.Manifest.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok jobs ->
      let specs = List.map (fun (j : J.t) -> J.spec_to_string j.J.spec) jobs in
      Alcotest.(check (list string)) "specs"
        [ "par-schedule:booking:procs=4:mem=1";
          "par-schedule:booking:procs=2:mem=1.5";
          "par-schedule:split:procs=4:mem=2";
          "pareto:procs=4:steps=5";
          "pareto:procs=2:steps=8"
        ]
        specs;
      (* run them and round-trip every result through the telemetry JSON *)
      let results = E.run (E.create ~domains:2 ()) jobs in
      Alcotest.(check int) "five results" 5 (List.length results);
      List.iter
        (fun r ->
          (match r with
          | Ok (J.Par_sched { makespan; _ }) ->
              Alcotest.(check bool) "feasible at >= the optimum" true
                (makespan <> None)
          | Ok (J.Pareto { points; _ }) ->
              Alcotest.(check bool) "sweep produced points" true (points <> [])
          | Ok _ -> Alcotest.fail "unexpected outcome kind"
          | Error (J.Timed_out s) -> Alcotest.failf "job timed out after %.1fs" s
          | Error (J.Crashed msg) -> Alcotest.failf "job crashed: %s" msg);
          match J.result_of_json (J.result_to_json r) with
          | Ok r' ->
              Alcotest.(check bool) "json round trip" true
                (match (r, r') with
                | Ok a, Ok b -> J.equal_outcome a b
                | Error a, Error b -> a = b
                | _ -> false)
          | Error e -> Alcotest.failf "round trip: %s" e)
        results

let test_manifest_approx_jobs () =
  let text =
    "gen grid2d size=8 :: minmem-approx; minmem-approx cap=4 tol=0.1; minmem\n"
  in
  match Tt_engine.Manifest.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok jobs -> (
      let specs = List.map (fun (j : J.t) -> J.spec_to_string j.J.spec) jobs in
      Alcotest.(check (list string)) "specs"
        [ "minmem-approx:cap=8:tol=0.01";
          "minmem-approx:cap=4:tol=0.1";
          "min-memory:minmem"
        ]
        specs;
      (* distinct params -> distinct content addresses *)
      Alcotest.(check bool) "params are part of the job identity" false
        (J.id (List.nth jobs 0) = J.id (List.nth jobs 1));
      let results = E.run (E.create ~domains:2 ()) jobs in
      match results with
      | [ Ok (J.Approx { lower = la; upper = ua; exact = ea; order; _ });
          Ok (J.Approx { lower = lb; upper = ub; exact = eb; _ });
          Ok (J.Memory { peak = opt; _ })
        ] ->
          (* this tree is far below the exact threshold, so the bounds
             collapse onto the exact optimum for any cap/tol *)
          List.iter
            (fun (lower, upper, exact) ->
              Alcotest.(check int) "lower is the exact optimum" opt lower;
              Alcotest.(check int) "upper is the exact optimum" opt upper;
              Alcotest.(check bool) "certified exact" true exact)
            [ (la, ua, ea); (lb, ub, eb) ];
          let tree = (List.nth jobs 0).J.tree in
          Alcotest.(check int) "order achieves the reported peak" ua
            (Tt_core.Traversal.peak tree order);
          List.iter
            (fun r ->
              match J.result_of_json (J.result_to_json r) with
              | Ok r' ->
                  Alcotest.(check bool) "json round trip" true
                    (J.equal_result r r')
              | Error e -> Alcotest.failf "round trip: %s" e)
            results
      | _ -> Alcotest.fail "unexpected result shapes")

let test_manifest_approx_errors () =
  let check_error text fragment =
    match Tt_engine.Manifest.parse text with
    | Ok _ -> Alcotest.failf "expected an error for %S" text
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S (got %S)" text fragment e)
          true (H.contains e fragment)
  in
  check_error "gen grid2d :: minmem-approx cap=1" "cap must be >= 2";
  check_error "gen grid2d :: minmem-approx tol=-0.5" "tol must be >= 0";
  check_error "gen grid2d :: minmem-approx steps=3" "unknown key"

(* An entry the pipeline or a generator would refuse is a manifest
   error: [parse] returns it as [Error] and raises nothing. *)
let test_manifest_source_ranges () =
  let refused text =
    match Tt_engine.Manifest.parse text with
    | Ok _ -> Alcotest.failf "%S: accepted" text
    | Error _ -> ()
    | exception e -> Alcotest.failf "%S: raised %s" text (Printexc.to_string e)
  in
  List.iter refused
    [ "gen grid2d size=8 amalgamation=0 :: liu";
      "gen grid2d size=8 amalgamation=-5 :: liu";
      "gen arrow size=1 :: liu";
      "gen arrow size=2 :: liu";
      "gen grid3d size=-2 :: liu";
      "gen grid2d size=-3 :: liu";
      "gen random size=-1 :: liu"
    ];
  (* the smallest sizes each generator takes still parse *)
  List.iter
    (fun text ->
      match Tt_engine.Manifest.parse text with
      | Ok [ _ ] -> ()
      | Ok _ -> Alcotest.failf "%S: expected one job" text
      | Error e -> Alcotest.failf "%S: %s" text e)
    [ "gen arrow size=3 :: liu";
      "gen grid2d size=0 :: liu";
      "gen grid3d size=1 amalgamation=1 :: liu"
    ]

(* A processor count below 1 is a manifest error naming the line, not a
   job that crashes in the scheduler; one processor still parses. *)
let test_manifest_procs_range () =
  let text =
    "gen grid2d size=6 :: par-schedule procs=0\n\
     gen grid2d size=6 :: pareto procs=-5\n\
     gen grid2d size=6 :: schedule procs=-1 mem=1\n\
     gen grid2d size=6 :: par-schedule algo=split procs=0 mem=2.0\n"
  in
  (match Tt_engine.Manifest.parse text with
  | Ok _ -> Alcotest.fail "procs < 1 accepted"
  | Error e ->
      List.iter
        (fun line ->
          Alcotest.(check bool) (Printf.sprintf "%S names %s" e line) true (H.contains e line))
        [ "line 1"; "line 2"; "line 3"; "line 4"; "procs must be >= 1" ]);
  match
    Tt_engine.Manifest.parse
      "gen grid2d size=6 :: par-schedule procs=1; pareto procs=1; schedule procs=1"
  with
  | Ok [ _; _; _ ] -> ()
  | Ok _ -> Alcotest.fail "expected three jobs"
  | Error e -> Alcotest.failf "procs=1 refused: %s" e

(* A [file] source that is not Matrix Market is a manifest error with
   the file's line, not an exception out of [parse]. *)
let test_manifest_file_not_matrix_market () =
  let path = Filename.temp_file "tt_manifest" ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "not a matrix\n1 2 3\n");
      let text = Printf.sprintf "file %s :: minmem\n" path in
      match Tt_engine.Manifest.parse text with
      | Ok _ -> Alcotest.fail "a malformed file was accepted"
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%S names the banner" e) true
            (H.contains e "line 1" && H.contains e "banner")
      | exception e -> Alcotest.failf "parse raised %s" (Printexc.to_string e))

(* Every memory key at 0, -1, 1e300, nan and inf: a typed error, or a
   job whose budget is what the factor asks for, saturated at max_int
   and never wrapped. *)
let test_manifest_memory_ranges () =
  let values = [ "0"; "-1"; "1e300"; "nan"; "inf" ] in
  (* a tree whose in-core optimum lies above its working-set floor, so a
     percentage budget scales a positive gap *)
  let tree =
    List.find
      (fun t -> Tt_core.Minmem.min_memory t > T.max_mem_req t)
      (H.tree_list ~seed:5 ~count:50 ~size_max:30 ~max_f:12 ~max_n:6)
  in
  let outcome job_text =
    let text = Printf.sprintf "tree \"%s\" :: %s" (T.to_string tree) job_text in
    match Tt_engine.Manifest.parse text with
    | Error _ -> None
    | Ok [ job ] -> (
        match J.compute job with
        | J.Sched { memory; _ } | J.Par_sched { memory; _ } | J.Io { memory; _ } ->
            Some (memory, job.J.tree)
        | _ -> Alcotest.failf "%S: unexpected outcome" text)
    | Ok _ -> Alcotest.failf "%S: expected one job" text
  in
  let expect job_text want =
    match (outcome job_text, want) with
    | None, `Error -> ()
    | Some (m, _), `Words w when m = w -> ()
    | Some (m, t), `Floor when m = T.max_mem_req t -> ()
    | Some (m, _), _ -> Alcotest.failf "%S: budget %d" job_text m
    | None, _ -> Alcotest.failf "%S: refused" job_text
  in
  let factor_wants = [ `Words 0; `Error; `Words max_int; `Error; `Error ] in
  List.iter
    (fun job ->
      List.iter2 (fun v want -> expect (job ^ v) want) values factor_wants)
    [ "schedule procs=2 mem=";
      "par-schedule algo=greedy procs=2 mem=";
      "par-schedule algo=booking procs=2 mem=";
      "par-schedule algo=split procs=2 mem="
    ];
  List.iter2
    (fun v want -> expect ("minio budget=" ^ v ^ "%") want)
    values
    [ `Floor; `Error; `Words max_int; `Error; `Error ];
  List.iter2
    (fun v want -> expect ("minio budget=" ^ v) want)
    values
    [ `Words 0; `Error; `Error; `Error; `Error ];
  (* pareto steps: at least 1, at most the documented cap *)
  List.iter
    (fun (steps, ok) ->
      let text = Printf.sprintf "gen grid2d size=4 :: pareto procs=2 steps=%d" steps in
      match (Tt_engine.Manifest.parse text, ok) with
      | Ok _, true | Error _, false -> ()
      | Ok _, false -> Alcotest.failf "%S: accepted" text
      | Error e, true -> Alcotest.failf "%S: %s" text e)
    [ (0, false);
      (-1, false);
      (1, true);
      (Tt_engine.Manifest.max_steps, true);
      (Tt_engine.Manifest.max_steps + 1, false);
      (max_int, false)
    ]

(* [Job.compute] polls its token on entry, so an expired token proves
   nothing about the solvers below it. This token expires between its
   first poll, which reads the clock before the deadline, and its 64th,
   the next clock read ({!Tt_util.Cancel} amortizes them): the entry
   check passes, and only a solver that polls it many times inside the
   job sees it expire. A split job given its MinMem preprocessing, and a
   Pareto job, poll it only through [Split.run] and [Pareto.sweep]. *)
let test_compute_passes_cancel () =
  let module Cancel = Tt_util.Cancel in
  let rec late_token () =
    let tok = Cancel.create ~deadline_after:0.2 () in
    if Cancel.cancelled tok then late_token () else tok
  in
  let t = T.random ~rng:(Tt_util.Rng.create 29) ~size:2_000 ~max_f:50 ~max_n:9 in
  let minmem = Tt_core.Minmem.run t in
  let cases =
    [ ( "par-schedule algo=split",
        Some minmem,
        J.Par_schedule { algo = J.Split; procs = 3; mem_factor = 1.5 } );
      ("pareto", None, J.Pareto_sweep { procs = 3; steps = 2 })
    ]
  in
  let tokens = List.map (fun _ -> late_token ()) cases in
  Unix.sleepf 0.3;
  List.iter2
    (fun (name, minmem, spec) cancel ->
      match J.compute ~cancel ?minmem (J.make t spec) with
      | _ -> Alcotest.failf "%s: ran to completion past its deadline" name
      | exception Cancel.Cancelled -> ())
    cases tokens

(* ---------------------------------------------------------- entry memo *)

module M = Tt_engine.Entry_memo

let same_parse a b =
  match (a, b) with
  | Ok x, Ok y -> compare x y = 0 && List.map J.id x = List.map J.id y
  | Error x, Error y -> String.equal x y
  | _ -> false

let fresh_key entry =
  match Tt_engine.Manifest.parse_wire entry with
  | Error e -> Error e
  | Ok [] -> Error "entry resolves to no jobs"
  | Ok (j :: _) -> Ok (J.id j)

let literal ?(jobs = "minmem; liu") t = Printf.sprintf "tree \"%s\" :: %s" (T.to_string t) jobs

(* Bad entries of every kind the parser refuses, a [file] source for a
   path that exists among them, and an entry with no jobs. *)
let bad_entries =
  [ "gen nosuch size=4 :: minmem";
    "gen grid2d size=-1 :: liu";
    "gen grid2d size=4 amalgamation=0 :: liu";
    "gen grid2d size=4 :: nosuchjob";
    "gen grid2d size=4";
    "tree \"3 -1:1:1\" :: liu";
    "tree \"2 -1:1:1 0:-4:1\" :: minmem";
    "file " ^ Sys.executable_name ^ " :: minmem";
    "file /nonexistent/a.mtx ordering=rcm :: liu";
    "gen grid2d size=4 :: pareto procs=0";
    "# no jobs here"
  ]

(* The pool the property draws from: every loadgen mix, tree literals
   and the bad entries. *)
let memo_pool =
  let mixes = List.concat_map (fun (_, es) -> Array.to_list es) Tt_server.Loadgen.mixes in
  let trees =
    List.map literal (H.tree_list ~seed:17 ~count:8 ~size_max:60 ~max_f:20 ~max_n:9)
  in
  Array.of_list (List.sort_uniq compare (mixes @ trees @ bad_entries))

(* A run of lookups, with repeats, through [find] and [route_key] on one
   memo: each answer equals a fresh parse of the entry. *)
let prop_memo_equals_fresh_parse =
  let pool = memo_pool in
  H.qcheck ~count:40 "every lookup equals a fresh parse_wire"
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound (Array.length pool - 1)) bool))
    (fun draws ->
      let memo = M.create () in
      List.for_all
        (fun (k, by_key) ->
          let entry = pool.(k) in
          if by_key then M.route_key memo entry = fresh_key entry
          else same_parse (M.find memo entry) (Tt_engine.Manifest.parse_wire entry))
        (* each draw three times: first, second and later sightings *)
        (List.concat_map (fun d -> [ d; d; d ]) draws))

(* Full of route keys, a hit moves its entry to the front and a miss
   evicts the least recently used: once full, each miss is one more
   eviction. *)
let test_memo_lru () =
  let memo = M.create () in
  let entry i = Printf.sprintf "tree \"2 -1:%d:0 0:1:1\" :: liu" i in
  let key i = ignore (M.route_key memo (entry i)) in
  for i = 0 to M.max_entries - 1 do
    key i
  done;
  let evictions n = Alcotest.(check int) "evictions" n (M.evictions memo) in
  evictions 0;
  key 0;
  key M.max_entries;
  evictions 1 (* entry 1, the least recent *);
  key 0;
  evictions 1;
  key 1;
  evictions 2 (* entry 1 again, now evicting entry 2 *);
  key 3;
  evictions 2;
  Alcotest.(check int) "at the entry cap" M.max_entries (M.length memo)

(* A tree literal just under the 1 MiB frame. *)
let big_literal seed =
  let t = T.random ~rng:(Tt_util.Rng.create seed) ~size:76_000 ~max_f:999 ~max_n:99 in
  let e = literal ~jobs:"minmem" t in
  assert (String.length e < 1 lsl 20 && String.length e > 900_000);
  e

let test_memo_word_cap () =
  let under_cap memo what =
    if M.words memo > M.max_words then
      Alcotest.failf "%s: %d words kept, cap %d" what (M.words memo) M.max_words
  in
  (* seen once: a digest each, no tree *)
  let memo = M.create () in
  for seed = 1 to 3 do
    ignore (M.find memo (big_literal seed));
    Alcotest.(check int) "digests only" (seed * M.entry_words) (M.words memo)
  done;
  (* distinct literals, each seen twice: parses kept until the word cap
     evicts the oldest *)
  let memo = M.create () in
  for seed = 1 to 8 do
    let e = big_literal seed in
    ignore (M.find memo e);
    ignore (M.find memo e);
    under_cap memo (Printf.sprintf "literal %d" seed)
  done;
  if M.evictions memo = 0 then Alcotest.fail "eight parsed literals fit under the word cap";
  (* one large literal again and again: kept once, charged its words *)
  let memo = M.create () in
  let e = big_literal 9 in
  let words = Obj.reachable_words (Obj.repr (Tt_engine.Manifest.parse_wire e)) in
  for _ = 1 to 6 do
    ignore (M.find memo e);
    under_cap memo "repeated literal"
  done;
  Alcotest.(check int) "one entry" 1 (M.length memo);
  Alcotest.(check int) "charged its parse" (M.entry_words + words) (M.words memo)

(* A first sighting keeps the digest alone; the second keeps the jobs,
   and the third returns those very jobs. *)
let test_memo_second_sighting () =
  let memo = M.create () in
  let e = "gen grid2d size=10 :: minmem; postorder" in
  let first = M.find memo e in
  Alcotest.(check int) "seen once: a digest" M.entry_words (M.words memo);
  let second = M.find memo e in
  if M.words memo <= M.entry_words then Alcotest.fail "second sighting kept nothing";
  let third = M.find memo e in
  Alcotest.(check bool) "first = second" true (same_parse first second);
  match (second, third) with
  | Ok a, Ok b -> Alcotest.(check bool) "the kept jobs" true (a == b)
  | _ -> Alcotest.fail "grid2d did not parse"

let () =
  H.run "engine"
    [ ( "job",
        [ H.case "content addressing" test_job_id_content_addressing;
          H.case "compute passes its token to split and pareto" test_compute_passes_cancel
        ] );
      ( "cache",
        [ H.case "hit/miss counters" test_cache_hit_miss_counters;
          H.case "exception not inserted" test_cache_exception_not_inserted;
          H.case "same tree twice" test_cache_same_tree_twice;
          H.case "shared minmem preprocessing" test_cache_shares_minmem_preprocessing;
          H.case "disk persistence" test_cache_persistence;
          H.case "bounded eviction" test_cache_eviction;
          H.case "eviction with a disk level" test_cache_eviction_disk_backed
        ] );
      ( "executor",
        [ H.case "determinism 1 vs N domains" test_determinism_across_domains;
          H.case "crash isolation" test_crash_isolated;
          H.case "submission order" test_results_in_submission_order;
          H.case "report ids" test_report_ids
        ] );
      ( "telemetry",
        [ H.case "jsonl shape" test_telemetry_jsonl;
          H.case "json escaping" test_json_escaping;
          prop_json_round_trip;
          H.case "json unicode degradation" test_json_unicode_degradation;
          H.case "json malformed offsets" test_json_malformed_offsets
        ] );
      ( "manifest",
        [ H.case "parse" test_manifest_parse;
          H.case "errors" test_manifest_errors;
          H.case "end to end" test_manifest_runs_through_engine;
          H.case "sched jobs" test_manifest_sched_jobs;
          H.case "minmem-approx jobs" test_manifest_approx_jobs;
          H.case "minmem-approx errors" test_manifest_approx_errors;
          H.case "gen sizes and amalgamation" test_manifest_source_ranges;
          H.case "memory keys saturate or refuse" test_manifest_memory_ranges;
          H.case "procs below 1 refused" test_manifest_procs_range;
          H.case "file that is not Matrix Market" test_manifest_file_not_matrix_market
        ] );
      ( "memo",
        [ prop_memo_equals_fresh_parse;
          H.case "least recently used entries go first" test_memo_lru;
          H.case "word cap under 1 MiB literals" test_memo_word_cap;
          H.case "jobs kept from the second sighting" test_memo_second_sighting
        ] )
    ]
