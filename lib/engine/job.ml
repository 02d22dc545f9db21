module T = Tt_core.Tree

type algo = Minmem | Liu | Postorder
type budget = Fraction of float | Words of int
type par_algo = Greedy | Booking | Split

type spec =
  | Min_memory of algo
  | Min_io of { policy : Tt_core.Minio.policy; budget : budget }
  | Schedule of { procs : int; mem_factor : float }
  | Par_schedule of { algo : par_algo; procs : int; mem_factor : float }
  | Pareto_sweep of { procs : int; steps : int }
  | Approx_memory of { seg_cap : int; tol : float }

type t = { label : string; tree : T.t; spec : spec }

let algo_name = function
  | Minmem -> "minmem"
  | Liu -> "liu"
  | Postorder -> "postorder"

let budget_to_string = function
  | Fraction x -> Printf.sprintf "frac=%g" x
  | Words w -> Printf.sprintf "words=%d" w

let par_algo_name = function
  | Greedy -> "greedy"
  | Booking -> "booking"
  | Split -> "split"

let par_algo_of_string = function
  | "greedy" -> Some Greedy
  | "booking" -> Some Booking
  | "split" -> Some Split
  | _ -> None

let spec_to_string = function
  | Min_memory a -> "min-memory:" ^ algo_name a
  | Min_io { policy; budget } ->
      Printf.sprintf "min-io:%s:%s" (Tt_core.Minio.policy_name policy)
        (budget_to_string budget)
  | Schedule { procs; mem_factor } ->
      Printf.sprintf "schedule:procs=%d:mem=%g" procs mem_factor
  | Par_schedule { algo; procs; mem_factor } ->
      Printf.sprintf "par-schedule:%s:procs=%d:mem=%g" (par_algo_name algo)
        procs mem_factor
  | Pareto_sweep { procs; steps } ->
      Printf.sprintf "pareto:procs=%d:steps=%d" procs steps
  | Approx_memory { seg_cap; tol } ->
      Printf.sprintf "minmem-approx:cap=%d:tol=%g" seg_cap tol

let make ?label tree spec =
  let label = match label with Some l -> l | None -> spec_to_string spec in
  { label; tree; spec }

let tree_digest tree = Digest.to_hex (Digest.string (T.to_string tree))

(* The one id formula. Callers that hold a tree's encoding already (the
   executor encodes each tree once per worker) pass it in directly. *)
let id_of_encoding encoding spec =
  Digest.to_hex (Digest.string (encoding ^ "|" ^ spec_to_string spec))

let id job = id_of_encoding (T.to_string job.tree) job.spec

(* ------------------------------------------------------------ outcomes *)

type outcome =
  | Memory of { peak : int; order : int array }
  | Io of { in_core : int; memory : int; io : int option }
  | Sched of { memory : int; makespan : int option; peak : int option }
  | Par_sched of {
      algo : string;
      memory : int;
      makespan : int option;
      peak : int option;
    }
  | Pareto of { procs : int; steps : int; points : Tt_sched.Pareto.point list }
  | Approx of {
      lower : int;
      upper : int;
      rounds : int;
      exact : bool;
      order : int array;
    }

type error = Timed_out of float | Crashed of string
type result = (outcome, error) Stdlib.result

let needs_minmem job =
  match job.spec with
  | Min_memory _ -> false
  | Min_io _ | Schedule _ | Par_schedule _ -> true
  (* the sweep derives its own budget ladder from scratch; the certified
     bounds exist precisely to avoid the exact solvers *)
  | Pareto_sweep _ | Approx_memory _ -> false

(* The bench's duration convention for the parallel extension: heavier
   execution files mean longer factorization of the front. The formula
   lives in [Tt_sched.Work] so every consumer shares it. *)
let work_of = Tt_sched.Work.default

let budget_words ~floor ~in_core = function
  | Words w -> w
  | Fraction x -> floor + int_of_float (x *. float_of_int (in_core - floor))

let compute ?(cancel = Tt_util.Cancel.never) ?minmem job =
  Tt_util.Cancel.check cancel;
  let minmem_run () =
    match minmem with
    | Some pre -> pre
    | None -> Tt_core.Minmem.run ~cancel job.tree
  in
  match job.spec with
  | Min_memory Minmem ->
      let peak, order = minmem_run () in
      Memory { peak; order }
  | Min_memory Liu ->
      let peak, order = Tt_core.Liu_exact.run job.tree in
      Memory { peak; order }
  | Min_memory Postorder ->
      let peak, order = Tt_core.Postorder_opt.run job.tree in
      Memory { peak; order }
  | Min_io { policy; budget } ->
      let in_core, order = minmem_run () in
      let floor = T.max_mem_req job.tree in
      let memory = budget_words ~floor ~in_core budget in
      let io = Tt_core.Minio.io_volume job.tree ~memory ~order policy in
      Io { in_core; memory; io }
  | Schedule { procs; mem_factor } ->
      let in_core, _ = minmem_run () in
      let memory = int_of_float (mem_factor *. float_of_int in_core) in
      let work = work_of job.tree in
      (match Tt_core.Parallel.list_schedule job.tree ~procs ~memory ~work with
      | Some s ->
          Sched
            { memory;
              makespan = Some s.Tt_core.Parallel.makespan;
              peak = Some s.Tt_core.Parallel.peak_memory
            }
      | None -> Sched { memory; makespan = None; peak = None })
  | Par_schedule { algo; procs; mem_factor } -> (
      let in_core, order = minmem_run () in
      let memory = int_of_float (mem_factor *. float_of_int in_core) in
      let work = work_of job.tree in
      let name = par_algo_name algo in
      let module P = Tt_core.Parallel in
      (* every served schedule passes the independent validator; a
         scheduler bug surfaces as a crashed job, never a wrong digest *)
      match algo with
      | Greedy -> (
          match P.list_schedule job.tree ~procs ~memory ~work with
          | Some s ->
              Tt_sched.Validate.check_exn job.tree ~memory ~work s;
              Par_sched
                { algo = name; memory; makespan = Some s.P.makespan;
                  peak = Some s.P.peak_memory }
          | None -> Par_sched { algo = name; memory; makespan = None; peak = None })
      | Booking -> (
          match P.booking_schedule ~order job.tree ~procs ~memory ~work with
          | Some s ->
              Tt_sched.Validate.check_exn ~activation:order job.tree ~memory
                ~work s;
              Par_sched
                { algo = name; memory; makespan = Some s.P.makespan;
                  peak = Some s.P.peak_memory }
          | None -> Par_sched { algo = name; memory; makespan = None; peak = None })
      | Split ->
          let s = Tt_sched.Split.run job.tree ~procs ~work in
          Tt_sched.Validate.check_exn job.tree
            ~memory:(max memory s.P.peak_memory) ~work s;
          (* splitting ignores the budget; it is infeasible when its
             peak overshoots, but the peak is still reported *)
          let makespan =
            if s.P.peak_memory <= memory then Some s.P.makespan else None
          in
          Par_sched
            { algo = name; memory; makespan; peak = Some s.P.peak_memory })
  | Pareto_sweep { procs; steps } ->
      let work = work_of job.tree in
      let points = Tt_sched.Pareto.sweep ~steps job.tree ~procs ~work in
      Pareto { procs; steps; points }
  | Approx_memory { seg_cap; tol } ->
      let b = Tt_core.Minmem_approx.run ~seg_cap ~tol job.tree in
      Approx
        { lower = b.Tt_core.Minmem_approx.lower;
          upper = b.Tt_core.Minmem_approx.upper;
          rounds = b.Tt_core.Minmem_approx.rounds;
          exact = b.Tt_core.Minmem_approx.exact;
          order = b.Tt_core.Minmem_approx.order
        }

(* ------------------------------------------------------------ equality *)

let equal_outcome a b =
  match (a, b) with
  | Memory x, Memory y -> x.peak = y.peak && x.order = y.order
  | Io x, Io y -> x.in_core = y.in_core && x.memory = y.memory && x.io = y.io
  | Sched x, Sched y ->
      x.memory = y.memory && x.makespan = y.makespan && x.peak = y.peak
  | Par_sched x, Par_sched y ->
      x.algo = y.algo && x.memory = y.memory && x.makespan = y.makespan
      && x.peak = y.peak
  | Pareto x, Pareto y ->
      x.procs = y.procs && x.steps = y.steps && x.points = y.points
  | Approx x, Approx y ->
      x.lower = y.lower && x.upper = y.upper && x.rounds = y.rounds
      && x.exact = y.exact && x.order = y.order
  | _ -> false

let equal_result a b =
  match (a, b) with
  | Ok x, Ok y -> equal_outcome x y
  | Error (Timed_out _), Error (Timed_out _) -> true
  | Error (Crashed x), Error (Crashed y) -> x = y
  | _ -> false

(* ----------------------------------------------------------- rendering *)

let result_to_string = function
  | Ok (Memory { peak; _ }) -> Printf.sprintf "peak=%d" peak
  | Ok (Io { memory; io = Some io; _ }) -> Printf.sprintf "io=%d (budget %d)" io memory
  | Ok (Io { memory; io = None; _ }) -> Printf.sprintf "infeasible (budget %d)" memory
  | Ok (Sched { memory; makespan = Some m; _ }) ->
      Printf.sprintf "makespan=%d (budget %d)" m memory
  | Ok (Sched { memory; makespan = None; _ }) ->
      Printf.sprintf "deadlock (budget %d)" memory
  | Ok (Par_sched { algo; memory; makespan = Some m; peak }) ->
      Printf.sprintf "%s makespan=%d peak=%d (budget %d)" algo m
        (Option.value peak ~default:0) memory
  | Ok (Par_sched { algo; memory; makespan = None; _ }) ->
      Printf.sprintf "%s infeasible (budget %d)" algo memory
  | Ok (Pareto { points; _ }) ->
      Printf.sprintf "pareto %d points, %d on frontier, digest %s"
        (List.length points)
        (List.length (Tt_sched.Pareto.frontier points))
        (String.sub (Tt_sched.Pareto.digest points) 0 8)
  | Ok (Approx { upper; exact = true; _ }) ->
      Printf.sprintf "peak=%d (certified exact)" upper
  | Ok (Approx { lower; upper; _ }) ->
      let gap =
        if upper = 0 then 0.
        else 100. *. float_of_int (upper - lower) /. float_of_int upper
      in
      Printf.sprintf "peak in [%d, %d] (gap %.2f%%)" lower upper gap
  | Error (Timed_out s) -> Printf.sprintf "timed out after %.2fs" s
  | Error (Crashed msg) -> "crashed: " ^ msg

let order_digest order =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map string_of_int (Array.to_list order))))

let outcome_fields outcome =
  let module J = Telemetry.Json in
  match outcome with
  | Memory { peak; order } ->
      [ ("kind", J.String "memory");
        ("peak", J.Int peak);
        ("order_digest", J.String (order_digest order))
      ]
  | Io { in_core; memory; io } ->
      [ ("kind", J.String "io");
        ("in_core", J.Int in_core);
        ("memory", J.Int memory);
        ("io", match io with Some v -> J.Int v | None -> J.Null)
      ]
  | Sched { memory; makespan; peak } ->
      [ ("kind", J.String "sched");
        ("memory", J.Int memory);
        ("makespan", match makespan with Some v -> J.Int v | None -> J.Null);
        ("peak", match peak with Some v -> J.Int v | None -> J.Null)
      ]
  | Par_sched { algo; memory; makespan; peak } ->
      [ ("kind", J.String "par-sched");
        ("algo", J.String algo);
        ("memory", J.Int memory);
        ("makespan", match makespan with Some v -> J.Int v | None -> J.Null);
        ("peak", match peak with Some v -> J.Int v | None -> J.Null)
      ]
  | Pareto { procs; steps; points } ->
      [ ("kind", J.String "pareto");
        ("procs", J.Int procs);
        ("steps", J.Int steps);
        ("points", J.Int (List.length points));
        ("digest", J.String (Tt_sched.Pareto.digest points))
      ]
  | Approx { lower; upper; rounds; exact; order } ->
      [ ("kind", J.String "approx");
        ("lower", J.Int lower);
        ("upper", J.Int upper);
        ("rounds", J.Int rounds);
        ("exact", J.Bool exact);
        ("order_digest", J.String (order_digest order))
      ]

let result_fields result =
  let module J = Telemetry.Json in
  match result with
  | Ok outcome -> ("ok", J.Bool true) :: outcome_fields outcome
  | Error (Timed_out s) ->
      [ ("ok", J.Bool false); ("error", J.String "timeout"); ("after_s", J.Float s) ]
  | Error (Crashed msg) ->
      [ ("ok", J.Bool false); ("error", J.String "crash"); ("message", J.String msg) ]

(* --------------------------------------------------- journal round trip *)

(* Unlike [result_fields] (telemetry, order digested), the journal needs
   the full traversal back, so [Memory] serializes its order inline. *)
let result_to_json result =
  let module J = Telemetry.Json in
  match result with
  | Ok (Memory { peak; order }) ->
      J.Obj
        [ ("ok", J.Bool true);
          ("kind", J.String "memory");
          ("peak", J.Int peak);
          ("order", J.List (Array.to_list (Array.map (fun i -> J.Int i) order)))
        ]
  | Ok (Io { in_core; memory; io }) ->
      J.Obj
        [ ("ok", J.Bool true);
          ("kind", J.String "io");
          ("in_core", J.Int in_core);
          ("memory", J.Int memory);
          ("io", match io with Some v -> J.Int v | None -> J.Null)
        ]
  | Ok (Sched { memory; makespan; peak }) ->
      J.Obj
        [ ("ok", J.Bool true);
          ("kind", J.String "sched");
          ("memory", J.Int memory);
          ("makespan", (match makespan with Some v -> J.Int v | None -> J.Null));
          ("peak", match peak with Some v -> J.Int v | None -> J.Null)
        ]
  | Ok (Par_sched { algo; memory; makespan; peak }) ->
      J.Obj
        [ ("ok", J.Bool true);
          ("kind", J.String "par-sched");
          ("algo", J.String algo);
          ("memory", J.Int memory);
          ("makespan", (match makespan with Some v -> J.Int v | None -> J.Null));
          ("peak", match peak with Some v -> J.Int v | None -> J.Null)
        ]
  | Ok (Pareto { procs; steps; points }) ->
      J.Obj
        [ ("ok", J.Bool true);
          ("kind", J.String "pareto");
          ("procs", J.Int procs);
          ("steps", J.Int steps);
          ("points",
           J.List
             (List.map
                (fun (p : Tt_sched.Pareto.point) ->
                  J.List
                    [ J.String p.algo; J.Int p.budget; J.Int p.makespan;
                      J.Int p.peak ])
                points))
        ]
  | Ok (Approx { lower; upper; rounds; exact; order }) ->
      J.Obj
        [ ("ok", J.Bool true);
          ("kind", J.String "approx");
          ("lower", J.Int lower);
          ("upper", J.Int upper);
          ("rounds", J.Int rounds);
          ("exact", J.Bool exact);
          ("order", J.List (Array.to_list (Array.map (fun i -> J.Int i) order)))
        ]
  | Error (Timed_out s) ->
      J.Obj
        [ ("ok", J.Bool false); ("error", J.String "timeout"); ("after_s", J.Float s) ]
  | Error (Crashed msg) ->
      J.Obj
        [ ("ok", J.Bool false); ("error", J.String "crash"); ("message", J.String msg) ]

let result_of_json json =
  let module J = Telemetry.Json in
  let int_field k =
    match J.member k json with
    | Some (J.Int v) -> Ok v
    | _ -> Error (Printf.sprintf "missing int field %S" k)
  in
  let opt_int_field k =
    match J.member k json with
    | Some (J.Int v) -> Ok (Some v)
    | Some J.Null -> Ok None
    | _ -> Error (Printf.sprintf "missing nullable int field %S" k)
  in
  let bool_field k =
    match J.member k json with
    | Some (J.Bool v) -> Ok v
    | _ -> Error (Printf.sprintf "missing bool field %S" k)
  in
  let order_field () =
    match J.member "order" json with
    | Some (J.List items) ->
        let rec ints acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | J.Int i :: rest -> ints (i :: acc) rest
          | _ -> Error "non-integer in order array"
        in
        ints [] items
    | _ -> Error "missing order array"
  in
  let ( let* ) = Result.bind in
  match J.member "ok" json with
  | Some (J.Bool true) -> (
      match J.member "kind" json with
      | Some (J.String "memory") ->
          let* peak = int_field "peak" in
          let* order = order_field () in
          Ok (Ok (Memory { peak; order }))
      | Some (J.String "approx") ->
          let* lower = int_field "lower" in
          let* upper = int_field "upper" in
          let* rounds = int_field "rounds" in
          let* exact = bool_field "exact" in
          let* order = order_field () in
          Ok (Ok (Approx { lower; upper; rounds; exact; order }))
      | Some (J.String "io") ->
          let* in_core = int_field "in_core" in
          let* memory = int_field "memory" in
          let* io = opt_int_field "io" in
          Ok (Ok (Io { in_core; memory; io }))
      | Some (J.String "sched") ->
          let* memory = int_field "memory" in
          let* makespan = opt_int_field "makespan" in
          let* peak = opt_int_field "peak" in
          Ok (Ok (Sched { memory; makespan; peak }))
      | Some (J.String "par-sched") ->
          let* algo =
            match J.member "algo" json with
            | Some (J.String a) -> Ok a
            | _ -> Error "missing algo field"
          in
          let* memory = int_field "memory" in
          let* makespan = opt_int_field "makespan" in
          let* peak = opt_int_field "peak" in
          Ok (Ok (Par_sched { algo; memory; makespan; peak }))
      | Some (J.String "pareto") ->
          let* procs = int_field "procs" in
          let* steps = int_field "steps" in
          let* points =
            match J.member "points" json with
            | Some (J.List items) ->
                let rec parse acc = function
                  | [] -> Ok (List.rev acc)
                  | J.List [ J.String algo; J.Int budget; J.Int makespan;
                             J.Int peak ]
                    :: rest ->
                      parse
                        ({ Tt_sched.Pareto.algo; budget; makespan; peak }
                        :: acc)
                        rest
                  | _ -> Error "malformed pareto point"
                in
                parse [] items
            | _ -> Error "missing points array"
          in
          Ok (Ok (Pareto { procs; steps; points }))
      | _ -> Error "missing outcome kind")
  | Some (J.Bool false) -> (
      match (J.member "error" json, J.member "after_s" json, J.member "message" json) with
      | Some (J.String "timeout"), Some (J.Float s), _ -> Ok (Error (Timed_out s))
      | Some (J.String "timeout"), Some (J.Int s), _ ->
          Ok (Error (Timed_out (float_of_int s)))
      | Some (J.String "crash"), _, Some (J.String msg) -> Ok (Error (Crashed msg))
      | _ -> Error "malformed error result")
  | _ -> Error "missing ok field"

(* ------------------------------------------------------ result digests *)

(* The canonical per-result digest token. Shared by
   [Executor.results_digest] (server side / batch CLI) and the wire
   protocol's client-side digests, so a digest computed from decoded
   responses is byte-identical to the one `treetrav batch` prints for
   the same jobs. [Ok] renders through [result_to_json] — which
   round-trips exactly through [Telemetry.Json.of_string] — while
   errors drop their run-dependent payloads (measured wall time). *)
let result_digest_token = function
  | Ok _ as ok -> Telemetry.Json.to_string (result_to_json ok)
  | Error (Timed_out _) -> "timeout"
  | Error (Crashed msg) -> "crash:" ^ msg

let digest_of_results pairs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (id, result) ->
      Buffer.add_string buf id;
      Buffer.add_char buf '=';
      Buffer.add_string buf (result_digest_token result);
      Buffer.add_char buf '\n')
    pairs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let value_digest_of_results pairs =
  let lines =
    List.sort_uniq compare
      (List.map (fun (id, r) -> id ^ "=" ^ result_digest_token r) pairs)
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines ^ "\n"))
