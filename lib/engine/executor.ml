type t = {
  domains : int;
  timeout : float option;
  cache : Job.outcome Cache.t;
  telemetry : Telemetry.t option;
  faults : Fault.t option;
  retry : Retry.policy;
  journal : Journal.t option;
  completed : (string, Job.result) Hashtbl.t option;
  cancel : Tt_util.Cancel.t option;
  on_job : on_job option;
}

and on_job = job:Job.t -> result:Job.result -> wall:float -> cache_hit:bool -> unit

let default_domains () = min 8 (Domain.recommended_domain_count ())

let create ?(domains = 1) ?timeout ?cache ?telemetry ?faults
    ?(retry = Retry.none) ?journal ?completed ?cancel ?on_job () =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  { domains = max 1 domains;
    timeout;
    cache;
    telemetry;
    faults;
    retry;
    journal;
    completed;
    cancel;
    on_job
  }

let domains t = t.domains
let cache t = t.cache

type report = {
  job : Job.t;
  id : string;
  result : Job.result;
  wall : float;
  cache_hit : bool;
  domain : int;
  attempts : int;
  resumed : bool;
}

type summary = {
  jobs : int;
  errors : int;
  wall : float;
  cache_hits : int;
  cache_misses : int;
  busy : float array;
  retries : int;
  resumed : int;
}

let utilization s =
  let slots = Array.length s.busy in
  if slots = 0 || s.wall <= 0. then 0.
  else Array.fold_left ( +. ) 0. s.busy /. (float_of_int slots *. s.wall)

(* The canonical fingerprint of a batch's results, shared by the bench,
   the CLI and the chaos tests. It covers job identities and result
   values but deliberately no timings (a timeout's measured wall varies
   run to run), so a faulty-but-retried run hashes identically to a
   fault-free one. *)
let result_pairs reports =
  Array.to_list (Array.map (fun r -> (r.id, r.result)) reports)

let results_digest reports = Job.digest_of_results (result_pairs reports)
let value_digest reports = Job.value_digest_of_results (result_pairs reports)

(* A worker's content addresses for the tree it last addressed: an id
   buffer holding that tree's encoding, and the id of its MinMem
   preprocessing (the id of the equivalent [Min_memory Minmem] job),
   hashed on first use. *)
type addresses = {
  ids : Job.id_buffer;
  mutable tree : Tt_core.Tree.t option;  (* the tree [ids] holds *)
  mutable pre_id : string option;
}

(* The jobs of one manifest line share their tree, so each run of jobs
   on one tree encodes it, and hashes its preprocessing id, once. Keyed
   by physical identity and local to one worker and batch, so no
   encoding outlives [run_batch]. *)
let address a tree =
  match a.tree with
  | Some t when t == tree -> ()
  | _ ->
      Job.load_tree a.ids tree;
      a.tree <- Some tree;
      a.pre_id <- None

let pre_id a =
  match a.pre_id with
  | Some id -> id
  | None ->
      let id = Job.id_in a.ids (Job.Min_memory Job.Minmem) in
      a.pre_id <- Some id;
      id

(* One job, through the cache, under its id [id]. [Min_io] and
   [Schedule] jobs route their MinMem preprocessing through the cache
   under [pre_id], the id of the equivalent [Min_memory Minmem] job, so
   it is shared across every job on the same tree. Returns the outcome
   and whether the job's own result was a hit. *)
let compute_cached t ~cancel ~id ~pre_id (job : Job.t) =
  match pre_id with
  | Some pre_id ->
      let pre, _ =
        Cache.find_or_compute t.cache ~key:pre_id (fun () ->
            Job.compute ~cancel { job with Job.spec = Job.Min_memory Job.Minmem })
      in
      let minmem =
        match pre with
        | Job.Memory { peak; order } -> (peak, order)
        | _ -> assert false (* content-addressed: this key is always Memory *)
      in
      Cache.find_or_compute t.cache ~key:id (fun () ->
          Job.compute ~cancel ~minmem job)
  | None ->
      Cache.find_or_compute t.cache ~key:id (fun () -> Job.compute ~cancel job)

let emit_job_event t (r : report) =
  match t.telemetry with
  | None -> ()
  | Some sink ->
      let module J = Telemetry.Json in
      Telemetry.emit sink ~event:"job"
        ([ ("id", J.String r.id);
           ("label", J.String r.job.Job.label);
           ("spec", J.String (Job.spec_to_string r.job.Job.spec));
           ("wall_s", J.Float r.wall);
           ("cache_hit", J.Bool r.cache_hit);
           ("domain", J.Int r.domain);
           ("attempts", J.Int r.attempts);
           ("resumed", J.Bool r.resumed)
         ]
        @ Job.result_fields r.result)

(* Telemetry event + observation hook, in that order, for every
   finished job (computed, cached, or resumed alike). The hook runs on
   the worker domain that finished the job — observers must be
   domain-safe. *)
let notify t (r : report) =
  emit_job_event t r;
  match t.on_job with
  | None -> ()
  | Some f -> f ~job:r.job ~result:r.result ~wall:r.wall ~cache_hit:r.cache_hit

(* The retry loop for one job. Each attempt: roll the (deterministic)
   fault decision, then compute under a fresh deadline token. Timeouts —
   whether the token fired mid-solve or the post-hoc wall check caught a
   solver that never polls — are terminal: the job already consumed its
   budget. Injected faults and genuine crashes consult [Retry.classify_exn]
   and, while backoff delays remain, sleep and re-roll; the re-roll is
   keyed by the attempt number, so an injected crash does not doom the
   job forever. [addr] holds the content addresses of the job's tree
   ({!address}); the job's id is derived from them once, outside the
   retry loop. *)
let run_one t ~slot ~addr (job : Job.t) =
  let id = Job.id_in addr.ids job.Job.spec in
  let resumed_result =
    match t.completed with
    | Some tbl -> Hashtbl.find_opt tbl id
    | None -> None
  in
  match resumed_result with
  | Some result ->
      let r =
        { job; id; result; wall = 0.; cache_hit = false; domain = slot;
          attempts = 0; resumed = true }
      in
      notify t r;
      r
  | None ->
      let pre_id = if Job.needs_minmem job then Some (pre_id addr) else None in
      let t0 = Unix.gettimeofday () in
      let delays =
        if t.retry.Retry.retries = 0 then []
        else Retry.delays t.retry ~key:id
      in
      let rec go attempt remaining =
        let a0 = Unix.gettimeofday () in
        let step =
          try
            (match t.faults with
            | None -> ()
            | Some f -> (
                match Fault.roll f ~key:id ~attempt with
                | None -> ()
                | Some (Fault.Delay d) -> Unix.sleepf d
                | Some a -> raise (Fault.Injected (Fault.describe a))));
            let cancel =
              (* Per-attempt token: the job timeout as its own deadline,
                 linked under the executor's ambient token (a service
                 request's deadline) when one is set. *)
              match (t.timeout, t.cancel) with
              | None, None -> Tt_util.Cancel.never
              | timeout, parent ->
                  Tt_util.Cancel.linked ?parent ?deadline_after:timeout ()
            in
            let v, hit = compute_cached t ~cancel ~id ~pre_id job in
            Ok (v, hit)
          with e -> Error e
        in
        let awall = Unix.gettimeofday () -. a0 in
        match step with
        | Ok (v, hit) -> (
            match t.timeout with
            | Some limit when (not hit) && awall > limit ->
                (Error (Job.Timed_out awall), hit, attempt)
            | _ -> (Ok v, hit, attempt))
        | Error Tt_util.Cancel.Cancelled ->
            (Error (Job.Timed_out awall), false, attempt)
        | Error e -> (
            match (Retry.classify_exn e, remaining) with
            | Retry.Retryable, d :: rest ->
                if d > 0. then Unix.sleepf d;
                go (attempt + 1) rest
            | (Retry.Retryable | Retry.Terminal), _ ->
                (Error (Job.Crashed (Printexc.to_string e)), false, attempt))
      in
      let result, cache_hit, attempts = go 1 delays in
      let wall = Unix.gettimeofday () -. t0 in
      (match t.journal with
      | None -> ()
      | Some j -> Journal.record j ~id ~label:job.Job.label result);
      let r =
        { job; id; result; wall; cache_hit; domain = slot; attempts;
          resumed = false }
      in
      notify t r;
      r

let run_batch t jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let reports = Array.make n None in
  let busy = Array.make t.domains 0. in
  let next = Atomic.make 0 in
  let hits0 = Cache.hits t.cache and misses0 = Cache.misses t.cache in
  let t0 = Unix.gettimeofday () in
  let worker slot =
    let addr = { ids = Job.id_buffer (); tree = None; pre_id = None } in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let job = jobs.(i) in
        address addr job.Job.tree;
        let r = run_one t ~slot ~addr job in
        reports.(i) <- Some r;
        busy.(slot) <- busy.(slot) +. r.wall;
        loop ()
      end
    in
    loop ()
  in
  if t.domains = 1 || n <= 1 then worker 0
  else begin
    let spawned = min (t.domains - 1) (n - 1) in
    let others = Array.init spawned (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
    worker 0;
    Array.iter Domain.join others
  end;
  let wall = Unix.gettimeofday () -. t0 in
  let reports = Array.map Option.get reports in
  let errors =
    Array.fold_left
      (fun acc r -> match r.result with Error _ -> acc + 1 | Ok _ -> acc)
      0 reports
  in
  let retries =
    Array.fold_left (fun acc r -> acc + max 0 (r.attempts - 1)) 0 reports
  in
  let resumed =
    Array.fold_left
      (fun acc (r : report) -> if r.resumed then acc + 1 else acc)
      0 reports
  in
  let summary =
    { jobs = n;
      errors;
      wall;
      cache_hits = Cache.hits t.cache - hits0;
      cache_misses = Cache.misses t.cache - misses0;
      busy;
      retries;
      resumed
    }
  in
  (match t.telemetry with
  | None -> ()
  | Some sink ->
      let module J = Telemetry.Json in
      Telemetry.emit sink ~event:"batch"
        [ ("jobs", J.Int summary.jobs);
          ("errors", J.Int summary.errors);
          ("wall_s", J.Float summary.wall);
          ("domains", J.Int t.domains);
          ("cache_hits", J.Int summary.cache_hits);
          ("cache_misses", J.Int summary.cache_misses);
          ("busy_s", J.List (Array.to_list (Array.map (fun b -> J.Float b) busy)));
          ("utilization", J.Float (utilization summary));
          ("retries", J.Int summary.retries);
          ("resumed", J.Int summary.resumed)
        ]);
  (reports, summary)

let run t jobs =
  let reports, _ = run_batch t jobs in
  Array.to_list (Array.map (fun r -> r.result) reports)
