(* Seeded input generators. Every workload's inputs are a pure function
   of the run's seed; the program under test only ever sees what these
   produce. *)

module Rng = Tt_util.Rng

(* One independent stream per client connection, plus one for warm-up,
   all split in a fixed order from the run seed. *)
let rngs ~seed ~connections =
  let master = Rng.create seed in
  let conns = Array.init connections (fun _ -> Rng.split master) in
  let warmup = Rng.split master in
  (conns, warmup)

(* A seeded deck: every item once per pass, each pass in a fresh seeded
   order. Drawing requests from a deck rather than independently keeps
   the mix of a run the same from seed to seed, so a run's figures vary
   with the system, not with which heavy inputs a seed happened to pick. *)
let deck rng items =
  let order = Array.init (Array.length items) Fun.id in
  let pos = ref (Array.length order) in
  fun () ->
    if !pos = Array.length order then begin
      Rng.shuffle rng order;
      pos := 0
    end;
    let i = order.(!pos) in
    incr pos;
    items.(i)

(* --- cluster-hot: the loadgen [all] mix (9 core + 6 sched [gen]
   entries, trees of 9-94 nodes) in a seeded order. *)

let hot_entries =
  match Tt_server.Loadgen.entries_of_mix "all" with
  | Some e -> e
  | None -> failwith "loadgen mix \"all\" is gone"

let hot_stream rng = deck rng hot_entries

(* --- cluster-cold: a corpus assembly tree, re-weighted per request as
   in the paper's Fig. 9 experiment, sent as a [tree] literal with the
   six jobs a solver integration asks for. *)

let cold_jobs =
  "minmem; liu; postorder; minio policy=first-fit budget=50%; minio \
   policy=best-fill budget=25%; par-schedule algo=booking procs=4 mem=1.0"

let cold_entry tree = Printf.sprintf "tree \"%s\" :: %s" (Tt_core.Tree.to_string tree) cold_jobs

let cold_stream corpus rng =
  let next_tree = deck rng corpus in
  fun () ->
    let inst : Tt_workloads.Dataset.instance = next_tree () in
    cold_entry (Tt_workloads.Random_weights.reweight ~rng inst.tree)

let corpus ~seed = Array.of_list (Tt_workloads.Dataset.corpus ~scale:1 ~seed ())

(* Digest of the first [k] entries of every connection's stream. The
   closed loop consumes a timing-dependent number of entries, so the
   digest covers a fixed prefix: equal seeds give equal digests. *)
let stream_digest ~seed ~connections ~k stream =
  let conns, _ = rngs ~seed ~connections in
  let b = Buffer.create 4096 in
  Array.iter
    (fun rng ->
      let next = stream rng in
      for _ = 1 to k do
        Buffer.add_string b (Digest.string (next ()))
      done)
    conns;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- batch-corpus: per corpus tree, the Fig. 6 trio, the six MinIO
   policies at the four Fig. 7 budgets and the three tt_sched
   schedulers — 30 jobs per tree. *)

let minio_fractions = [ 0.0; 0.25; 0.5; 0.75 ]

let batch_specs =
  let open Tt_engine.Job in
  [ Min_memory Minmem; Min_memory Liu; Min_memory Postorder ]
  @ List.concat_map
      (fun frac ->
        List.map
          (fun (_, policy) -> Min_io { policy; budget = Fraction frac })
          Tt_core.Minio.all_policies)
      minio_fractions
  @ List.map
      (fun algo -> Par_schedule { algo; procs = 4; mem_factor = 1.5 })
      [ Greedy; Booking; Split ]

let batch_jobs corpus =
  Array.to_list corpus
  |> List.concat_map (fun (i : Tt_workloads.Dataset.instance) ->
         List.map (fun spec -> Tt_engine.Job.make ~label:i.name i.tree spec) batch_specs)

let batch_digest corpus =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (i : Tt_workloads.Dataset.instance) ->
      Buffer.add_string b (Tt_engine.Job.tree_digest i.tree))
    corpus;
  List.iter (fun s -> Buffer.add_string b (Tt_engine.Job.spec_to_string s)) batch_specs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- huge-1m: the three streaming generators at p = 1M, one domain.
   Caterpillar and binary trees come from the run seed. Random-attach
   comes from the perf suite's pinned huge seed (1201): whether its
   certified bounds need a refinement round at 1M is a coin flip per
   generator seed (about 1.3 s without one, 2.9 s with one), so a
   seeded random-attach tree would make each run report one of two
   modes rather than the program's speed. *)

let huge_p = 1_000_000
let random_attach_seed = 1201

let huge_trees ?(p = huge_p) ~seed () =
  let module H = Tt_workloads.Huge in
  [ ("caterpillar", H.caterpillar ~domains:1 ~p ~seed ());
    ("binary", H.binary ~domains:1 ~p ~seed ());
    ("random_attach", H.random_attach ~domains:1 ~p ~seed:random_attach_seed ())
  ]

let huge_digest trees =
  List.map (fun (_, t) -> Tt_core.Flat_tree.digest t) trees
  |> String.concat "," |> Digest.string |> Digest.to_hex
