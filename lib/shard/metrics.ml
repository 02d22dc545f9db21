module Json = Tt_engine.Telemetry.Json

type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open

let breaker_state_to_int = function
  | Breaker_closed -> 0
  | Breaker_open -> 1
  | Breaker_half_open -> 2

type t = {
  mu : Mutex.t;
  forwards : (string, int) Hashtbl.t;  (* shard name -> forwarded ops *)
  mutable forwards_total : int;
  mutable at_forward : (int * (unit -> unit)) option;  (* see [at_forward] *)
  mutable failovers : int;
  mutable rejects : int;
  mutable unrouted : int;
  mutable peer_hits : int;
  mutable peer_misses : int;
  mutable breaker_opens : int;
  mutable breaker_closes : int;
  breaker_states : (string, breaker_state) Hashtbl.t;
  restarts : (string, int) Hashtbl.t;  (* shard name -> supervised restarts *)
  hedges : (string, int) Hashtbl.t;  (* outcome -> count *)
  mutable deadline_rejects : int;
  mutable downtime_s : float;
  mutable ring_epoch : int;
}

let create () =
  { mu = Mutex.create ();
    forwards = Hashtbl.create 8;
    forwards_total = 0;
    at_forward = None;
    failovers = 0;
    rejects = 0;
    unrouted = 0;
    peer_hits = 0;
    peer_misses = 0;
    breaker_opens = 0;
    breaker_closes = 0;
    breaker_states = Hashtbl.create 8;
    restarts = Hashtbl.create 8;
    hedges = Hashtbl.create 4;
    deadline_rejects = 0;
    downtime_s = 0.;
    ring_epoch = 0
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* The hook runs outside the lock, on the domain that counts the n-th
   forward, before that forward is sent. *)
let forward t ~shard =
  locked t (fun () ->
      Hashtbl.replace t.forwards shard
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.forwards shard));
      t.forwards_total <- t.forwards_total + 1;
      match t.at_forward with
      | Some (n, f) when t.forwards_total >= n ->
          t.at_forward <- None;
          Some f
      | _ -> None)
  |> Option.iter (fun f -> f ())

let at_forward t n f =
  locked t (fun () ->
      if t.forwards_total >= n then Some f
      else begin
        t.at_forward <- Some (n, f);
        None
      end)
  |> Option.iter (fun f -> f ())

let failover t = locked t (fun () -> t.failovers <- t.failovers + 1)
let reject t = locked t (fun () -> t.rejects <- t.rejects + 1)
let unrouted t = locked t (fun () -> t.unrouted <- t.unrouted + 1)
let peer_hit t = locked t (fun () -> t.peer_hits <- t.peer_hits + 1)
let peer_miss t = locked t (fun () -> t.peer_misses <- t.peer_misses + 1)

let breaker_transition t ~shard state =
  locked t (fun () ->
      (match (Hashtbl.find_opt t.breaker_states shard, state) with
      | (Some Breaker_closed | Some Breaker_half_open | None), Breaker_open ->
          t.breaker_opens <- t.breaker_opens + 1
      | (Some Breaker_open | Some Breaker_half_open), Breaker_closed ->
          t.breaker_closes <- t.breaker_closes + 1
      | _ -> ());
      Hashtbl.replace t.breaker_states shard state)

let breaker_forget t ~shard =
  locked t (fun () -> Hashtbl.remove t.breaker_states shard)

let restart t ~shard ~downtime_s =
  locked t (fun () ->
      Hashtbl.replace t.restarts shard
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.restarts shard));
      t.downtime_s <- t.downtime_s +. Float.max 0. downtime_s)

let hedge t ~outcome =
  locked t (fun () ->
      Hashtbl.replace t.hedges outcome
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.hedges outcome)))

let deadline_reject t =
  locked t (fun () -> t.deadline_rejects <- t.deadline_rejects + 1)

let set_ring_epoch t epoch = locked t (fun () -> t.ring_epoch <- epoch)

type snapshot = {
  forwards : (string * int) list;
  forwards_total : int;
  failovers : int;
  rejects : int;
  unrouted : int;
  peer_hits : int;
  peer_misses : int;
  breaker_opens : int;
  breaker_closes : int;
  breaker_states : (string * breaker_state) list;
  restarts : (string * int) list;
  restarts_total : int;
  hedges : (string * int) list;
  deadline_rejects : int;
  downtime_s : float;
  ring_epoch : int;
}

let snapshot t =
  locked t (fun () ->
      let sorted tbl =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      let restarts = sorted t.restarts in
      { forwards = sorted t.forwards;
        forwards_total = t.forwards_total;
        failovers = t.failovers;
        rejects = t.rejects;
        unrouted = t.unrouted;
        peer_hits = t.peer_hits;
        peer_misses = t.peer_misses;
        breaker_opens = t.breaker_opens;
        breaker_closes = t.breaker_closes;
        breaker_states = sorted t.breaker_states;
        restarts;
        restarts_total = List.fold_left (fun a (_, v) -> a + v) 0 restarts;
        hedges = sorted t.hedges;
        deadline_rejects = t.deadline_rejects;
        downtime_s = t.downtime_s;
        ring_epoch = t.ring_epoch
      })

let to_json s =
  Json.Obj
    [ ( "forwards",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.forwards) );
      ("forwards_total", Json.Int s.forwards_total);
      ("failovers", Json.Int s.failovers);
      ("rejects", Json.Int s.rejects);
      ("unrouted", Json.Int s.unrouted);
      ("peer_hits", Json.Int s.peer_hits);
      ("peer_misses", Json.Int s.peer_misses);
      ("breaker_opens", Json.Int s.breaker_opens);
      ("breaker_closes", Json.Int s.breaker_closes);
      ( "breaker_states",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Int (breaker_state_to_int v)))
             s.breaker_states) );
      ( "restarts",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.restarts) );
      ("restarts_total", Json.Int s.restarts_total);
      ( "hedges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.hedges) );
      ("deadline_rejects", Json.Int s.deadline_rejects);
      ("downtime_s", Json.Float s.downtime_s);
      ("ring_epoch", Json.Int s.ring_epoch)
    ]

(* Same exposition conventions as {!Tt_server.Metrics.to_prometheus}:
   one [# TYPE] line per family, [%d] counters, quoted label values. *)
let to_prometheus s =
  let b = Buffer.create 512 in
  let counter name ?(labels = "") v =
    Buffer.add_string b (Printf.sprintf "tt_shard_%s%s %d\n" name labels v)
  in
  let typ name kind =
    Buffer.add_string b (Printf.sprintf "# TYPE tt_shard_%s %s\n" name kind)
  in
  typ "forwards_total" "counter";
  List.iter
    (fun (shard, v) ->
      counter "forwards_total" ~labels:(Printf.sprintf {|{shard=%S}|} shard) v)
    s.forwards;
  typ "failovers_total" "counter";
  counter "failovers_total" s.failovers;
  typ "rejects_total" "counter";
  counter "rejects_total" s.rejects;
  typ "unrouted_total" "counter";
  counter "unrouted_total" s.unrouted;
  typ "peer_hits_total" "counter";
  counter "peer_hits_total" s.peer_hits;
  typ "peer_misses_total" "counter";
  counter "peer_misses_total" s.peer_misses;
  typ "breaker_opens_total" "counter";
  counter "breaker_opens_total" s.breaker_opens;
  typ "breaker_closes_total" "counter";
  counter "breaker_closes_total" s.breaker_closes;
  if s.breaker_states <> [] then begin
    typ "breaker_state" "gauge";
    List.iter
      (fun (shard, st) ->
        counter "breaker_state"
          ~labels:(Printf.sprintf {|{shard=%S}|} shard)
          (breaker_state_to_int st))
      s.breaker_states
  end;
  typ "restarts_total" "counter";
  List.iter
    (fun (shard, v) ->
      counter "restarts_total" ~labels:(Printf.sprintf {|{shard=%S}|} shard) v)
    s.restarts;
  typ "hedges_total" "counter";
  List.iter
    (fun (outcome, v) ->
      counter "hedges_total"
        ~labels:(Printf.sprintf {|{outcome=%S}|} outcome)
        v)
    s.hedges;
  typ "deadline_exceeded_total" "counter";
  counter "deadline_exceeded_total" s.deadline_rejects;
  typ "downtime_seconds_total" "counter";
  Buffer.add_string b
    (Printf.sprintf "tt_shard_downtime_seconds_total %.9g\n"
       (if Float.is_finite s.downtime_s then s.downtime_s else 0.));
  typ "ring_epoch" "gauge";
  counter "ring_epoch" s.ring_epoch;
  Buffer.contents b
