module Retry = Tt_engine.Retry

type state = Metrics.breaker_state =
  | Breaker_closed
  | Breaker_open
  | Breaker_half_open

type breaker = {
  mutable st : state;
  mutable consecutive_failures : int;
  mutable open_until : float;  (* valid when st = Breaker_open *)
  mutable next_delays : float list;  (* remaining open durations *)
  mutable last_delay : float;  (* reused once next_delays runs dry *)
  mutable trial_taken : bool;  (* half-open: one probe in flight *)
  mutable opens : int;
  mutable closes : int;
}

type t = {
  mu : Mutex.t;
  threshold : int;
  retry : Retry.policy;
  now : unit -> float;
  metrics : Metrics.t;
  breakers : (string, breaker) Hashtbl.t;
}

let default_threshold = 3

(* Open durations: 100 ms doubling to a 2 s cap. Far below the client
   read timeout — the point of the breaker is that skipping a dead
   shard costs a hash lookup, not a connect timeout, and a recovered
   shard is rediscovered within a couple of seconds. *)
let default_retry =
  Retry.create ~retries:8 ~base_delay_s:0.1 ~max_delay_s:2.0 ~jitter:0.25
    ~seed:29 ()

let create ?(threshold = default_threshold) ?(retry = default_retry)
    ?(now = Unix.gettimeofday) ~metrics () =
  if threshold < 1 then invalid_arg "Health.create: threshold < 1";
  { mu = Mutex.create ();
    threshold;
    retry;
    now;
    metrics;
    breakers = Hashtbl.create 8
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let breaker t shard =
  match Hashtbl.find_opt t.breakers shard with
  | Some b -> b
  | None ->
      let b =
        { st = Breaker_closed;
          consecutive_failures = 0;
          open_until = 0.;
          next_delays = [];
          last_delay = 0.;
          trial_taken = false;
          opens = 0;
          closes = 0
        }
      in
      Hashtbl.replace t.breakers shard b;
      b

(* Call with the lock held. *)
let open_locked t shard b =
  let delay =
    match b.next_delays with
    | d :: rest ->
        b.next_delays <- rest;
        b.last_delay <- d;
        d
    | [] ->
        (* Schedule exhausted: keep re-opening at the cap. *)
        if b.last_delay > 0. then b.last_delay
        else Float.max 0.001 t.retry.Retry.max_delay_s
  in
  b.st <- Breaker_open;
  b.open_until <- t.now () +. delay;
  b.trial_taken <- false;
  b.opens <- b.opens + 1;
  Metrics.breaker t.metrics ~shard Breaker_open

let allow t shard =
  locked t (fun () ->
      let b = breaker t shard in
      match b.st with
      | Breaker_closed -> true
      | Breaker_half_open ->
          (* One probe at a time: the first caller since the breaker
             half-opened carries the trial; everyone else keeps
             skipping until it reports back. *)
          if b.trial_taken then false
          else begin
            b.trial_taken <- true;
            true
          end
      | Breaker_open ->
          if t.now () < b.open_until then false
          else begin
            b.st <- Breaker_half_open;
            b.trial_taken <- true;
            Metrics.breaker t.metrics ~shard Breaker_half_open;
            true
          end)

let success t shard =
  locked t (fun () ->
      let b = breaker t shard in
      b.consecutive_failures <- 0;
      b.trial_taken <- false;
      match b.st with
      | Breaker_closed -> ()
      | Breaker_open | Breaker_half_open ->
          b.st <- Breaker_closed;
          (* A recovered shard earns a fresh backoff schedule. *)
          b.next_delays <- [];
          b.last_delay <- 0.;
          b.closes <- b.closes + 1;
          Metrics.breaker t.metrics ~shard Breaker_closed)

let failure t shard =
  locked t (fun () ->
      let b = breaker t shard in
      match b.st with
      | Breaker_open -> ()  (* already open; nothing new learned *)
      | Breaker_half_open ->
          (* The trial probe failed: re-open with the next (longer)
             delay of this outage's schedule. *)
          b.consecutive_failures <- b.consecutive_failures + 1;
          open_locked t shard b
      | Breaker_closed ->
          b.consecutive_failures <- b.consecutive_failures + 1;
          if b.consecutive_failures >= t.threshold then begin
            b.next_delays <- Retry.delays t.retry ~key:shard;
            open_locked t shard b
          end)

let state t shard = locked t (fun () -> (breaker t shard).st)

let forget t shard =
  locked t (fun () ->
      Hashtbl.remove t.breakers shard;
      Metrics.breaker_forget t.metrics ~shard)

type view = {
  shard : string;
  view_state : state;
  failures : int;
  opens : int;
  closes : int;
}

let views t =
  locked t (fun () ->
      Hashtbl.fold
        (fun shard b acc ->
          { shard;
            view_state = b.st;
            failures = b.consecutive_failures;
            opens = b.opens;
            closes = b.closes
          }
          :: acc)
        t.breakers []
      |> List.sort (fun a b -> compare a.shard b.shard))

let to_json t =
  let module Json = Tt_engine.Telemetry.Json in
  Json.Obj
    (List.map
       (fun v ->
         ( v.shard,
           Json.Obj
             [ ("state", Json.Int (Metrics.breaker_state_to_int v.view_state));
               ("failures", Json.Int v.failures);
               ("opens", Json.Int v.opens);
               ("closes", Json.Int v.closes)
             ] ))
       (views t))
