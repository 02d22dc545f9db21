module R = Tt_server.Registry

type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open

let breaker_state_to_int = function
  | Breaker_closed -> 0
  | Breaker_open -> 1
  | Breaker_half_open -> 2

let s = R.schema ~prefix:"tt_shard_"
let forwards = R.family s R.Counter "forwards_total" ~labels:[ "shard" ] [ "forwards" ]
let forwards_total = R.json_int s [ "forwards_total" ]
let failovers = R.counter s "failovers_total" [ "failovers" ]
let rejects = R.counter s "rejects_total" [ "rejects" ]
let no_route = R.counter s "unrouted_total" [ "unrouted" ]
let peer_hits = R.counter s "peer_hits_total" [ "peer_hits" ]
let peer_misses = R.counter s "peer_misses_total" [ "peer_misses" ]
let breaker_opens = R.counter s "breaker_opens_total" [ "breaker_opens" ]
let breaker_closes = R.counter s "breaker_closes_total" [ "breaker_closes" ]
let breaker_states =
  R.family s R.Gauge "breaker_state" ~labels:[ "shard" ] [ "breaker_states" ]

let restarts = R.family s R.Counter "restarts_total" ~labels:[ "shard" ] [ "restarts" ]
let restarts_total = R.json_int s [ "restarts_total" ]
let hedges = R.family s R.Counter "hedges_total" ~labels:[ "outcome" ] [ "hedges" ]
let deadline_rejects = R.counter s "deadline_exceeded_total" [ "deadline_rejects" ]
let downtime = R.seconds s "downtime_seconds_total" [ "downtime_s" ]
let ring_epoch = R.gauge s "ring_epoch" [ "ring_epoch" ]

(* [at_forward] (see there) is guarded by [reg]'s lock. *)
type t = { reg : R.t; mutable at_forward : (int * (unit -> unit)) option }

let create () = { reg = R.create s; at_forward = None }
let update t f = R.locked t.reg (fun () -> f t.reg)

(* The hook runs outside the lock, on the domain that counts the n-th
   forward, before that forward is sent. *)
let forward t ~shard =
  update t (fun r ->
      R.incr_at r forwards [ shard ];
      R.add r forwards_total 1;
      match t.at_forward with
      | Some (n, f) when R.get r forwards_total >= n ->
          t.at_forward <- None;
          Some f
      | _ -> None)
  |> Option.iter (fun f -> f ())

let at_forward t n f =
  update t (fun r ->
      if R.get r forwards_total >= n then Some f
      else begin
        t.at_forward <- Some (n, f);
        None
      end)
  |> Option.iter (fun f -> f ())

let bump t cell = update t (fun r -> R.add r cell 1)
let failover t = bump t failovers
let reject t = bump t rejects
let unrouted t = bump t no_route
let peer_hit t = bump t peer_hits
let peer_miss t = bump t peer_misses

let breaker t ~shard state =
  update t (fun r ->
      R.set_at r breaker_states [ shard ] (breaker_state_to_int state);
      match state with
      | Breaker_open -> R.add r breaker_opens 1
      | Breaker_closed -> R.add r breaker_closes 1
      | Breaker_half_open -> ())

let breaker_forget t ~shard = update t (fun r -> R.remove_at r breaker_states [ shard ])

let restart t ~shard ~downtime_s =
  update t (fun r ->
      R.incr_at r restarts [ shard ];
      R.add r restarts_total 1;
      R.add_seconds r downtime (Float.max 0. downtime_s))

let hedge t ~outcome = update t (fun r -> R.incr_at r hedges [ outcome ])
let deadline_reject t = bump t deadline_rejects
let set_ring_epoch t epoch = update t (fun r -> R.set r ring_epoch epoch)

type snapshot = {
  forwards_total : int;
  failovers : int;
  unrouted : int;
  peer_hits : int;
  peer_misses : int;
  breaker_opens : int;
  breaker_closes : int;
  restarts_total : int;
  downtime_s : float;
  hedges : (string * int) list;
  deadline_rejects : int;
  values : R.snapshot;
}

let of_values v =
  { forwards_total = R.value v forwards_total;
    failovers = R.value v failovers;
    unrouted = R.value v no_route;
    peer_hits = R.value v peer_hits;
    peer_misses = R.value v peer_misses;
    breaker_opens = R.value v breaker_opens;
    breaker_closes = R.value v breaker_closes;
    restarts_total = R.value v restarts_total;
    downtime_s = R.seconds_value v downtime;
    hedges = R.entries v hedges;
    deadline_rejects = R.value v deadline_rejects;
    values = v
  }

let snapshot t = of_values (R.snapshot t.reg)
let add_peers s p =
  of_values (R.plus [ peer_hits; peer_misses ] s.values (R.snapshot p.reg))
let to_json s = R.to_json s.values
let to_prometheus s = R.to_prometheus s.values
