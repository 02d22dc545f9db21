(* Tests for the self-healing layer: breaker state machine on an
   injected clock, health op over the wire, ring-epoch invalidation of
   the router's sweep memo, supervised restart, live join/leave, plan
   determinism of the nemesis schedule, and a small end-to-end nemesis
   run gating digest parity. *)

module P = Tt_server.Protocol
module Client = Tt_server.Client
module Sh = Tt_shard
module H = Helpers

(* ----------------------------------------------------------- breaker *)

(* Drive the breaker through its whole state machine on a fake clock:
   threshold failures open it, the deadline passes, exactly one trial
   is granted, and the trial's outcome decides closed vs re-opened
   with a longer delay. *)
let test_breaker_state_machine () =
  let clock = ref 0. in
  let metrics = Sh.Metrics.create () in
  (* Zero jitter so the open deadlines are exact powers of the base. *)
  let retry =
    Tt_engine.Retry.create ~retries:4 ~base_delay_s:0.1 ~max_delay_s:0.4
      ~jitter:0. ~seed:1 ()
  in
  let h =
    Sh.Health.create ~threshold:3 ~retry ~now:(fun () -> !clock) ~metrics ()
  in
  let shard = "s0" in
  Alcotest.(check bool) "closed allows" true (Sh.Health.allow h shard);
  Sh.Health.failure h shard;
  Sh.Health.failure h shard;
  Alcotest.(check bool) "still closed below threshold" true
    (Sh.Health.state h shard = Sh.Health.Breaker_closed);
  Sh.Health.failure h shard;
  Alcotest.(check bool) "opens at threshold" true
    (Sh.Health.state h shard = Sh.Health.Breaker_open);
  Alcotest.(check bool) "open refuses" false (Sh.Health.allow h shard);
  (* First open interval is the base delay (jitter 0). *)
  clock := 0.05;
  Alcotest.(check bool) "still open before deadline" false
    (Sh.Health.allow h shard);
  clock := 0.11;
  Alcotest.(check bool) "deadline grants one trial" true
    (Sh.Health.allow h shard);
  Alcotest.(check bool) "half-open" true
    (Sh.Health.state h shard = Sh.Health.Breaker_half_open);
  Alcotest.(check bool) "second caller is refused the trial" false
    (Sh.Health.allow h shard);
  (* Failed trial re-opens with the next, doubled delay. *)
  Sh.Health.failure h shard;
  Alcotest.(check bool) "failed trial re-opens" true
    (Sh.Health.state h shard = Sh.Health.Breaker_open);
  clock := !clock +. 0.11;
  Alcotest.(check bool) "doubled delay not yet up" false
    (Sh.Health.allow h shard);
  clock := !clock +. 0.11;
  Alcotest.(check bool) "second trial granted" true
    (Sh.Health.allow h shard);
  (* Successful trial closes and resets everything. *)
  Sh.Health.success h shard;
  Alcotest.(check bool) "closes on trial success" true
    (Sh.Health.state h shard = Sh.Health.Breaker_closed);
  Alcotest.(check bool) "closed allows again" true (Sh.Health.allow h shard);
  let v = List.hd (Sh.Health.views h) in
  Alcotest.(check int) "two opens counted" 2 v.Sh.Health.opens;
  Alcotest.(check int) "one close counted" 1 v.Sh.Health.closes;
  (* A refusal-style success while closed keeps the failure count at
     zero — partial failure runs never accumulate across successes. *)
  Sh.Health.failure h shard;
  Sh.Health.success h shard;
  Sh.Health.failure h shard;
  Sh.Health.failure h shard;
  Alcotest.(check bool) "successes reset the consecutive count" true
    (Sh.Health.state h shard = Sh.Health.Breaker_closed);
  (* Metrics carry the transitions. *)
  let m = Sh.Metrics.snapshot metrics in
  Alcotest.(check int) "metrics opens" 2 m.Sh.Metrics.breaker_opens;
  Alcotest.(check int) "metrics closes" 1 m.Sh.Metrics.breaker_closes;
  Sh.Health.forget h shard;
  Alcotest.(check (list string)) "forget drops the view" []
    (List.map (fun v -> v.Sh.Health.shard) (Sh.Health.views h))

(* ------------------------------------------------------- health wire *)

let test_health_wire_round_trip () =
  (* Request side. *)
  let encoded = P.encode_request { P.id = "r6"; op = P.Health } in
  (match P.decode_request encoded with
  | Ok { P.id = "r6"; op = P.Health } -> ()
  | Ok _ -> Alcotest.fail "health request decoded to something else"
  | Error (_, _, e) -> Alcotest.failf "health request: %s" e);
  (* Live server answers it with a health object. *)
  let srv = Tt_server.Server.create () in
  Tt_server.Server.start srv;
  Fun.protect
    ~finally:(fun () -> Tt_server.Server.shutdown srv)
    (fun () ->
      Client.with_connection ~port:(Tt_server.Server.port srv) (fun c ->
          match Client.call c P.Health with
          | Ok (P.Health_reply (Tt_engine.Telemetry.Json.Obj fields)) ->
              Alcotest.(check bool) "reports a role" true
                (List.mem_assoc "role" fields);
              Alcotest.(check bool) "reports draining" true
                (List.mem_assoc "draining" fields)
          | Ok _ -> Alcotest.fail "unexpected health reply body"
          | Error e -> Alcotest.failf "health call: %s" e))

(* The typed unavailable code survives the wire. *)
let test_unavailable_round_trip () =
  Alcotest.(check string) "to_string" "unavailable"
    (P.error_code_to_string P.Unavailable);
  match P.error_code_of_string "unavailable" with
  | Some P.Unavailable -> ()
  | _ -> Alcotest.fail "unavailable does not parse back"

(* ---------------------------------------------------------- ring epoch *)

(* A sweep order planned before a ring reconfiguration must not
   survive it. *)
let test_router_plan_follows_ring () =
  let mk name port = { Sh.Ring.name; host = "127.0.0.1"; port } in
  let a = mk "a" 6101 and b = mk "b" 6102 and c = mk "c" 6103 in
  let router = Sh.Router.create ~ring:(Sh.Ring.create [ a; b; c ]) () in
  Fun.protect
    ~finally:(fun () -> Sh.Router.shutdown router)
    (fun () ->
      let key = "some-job-id" in
      let before = Sh.Router.plan router key in
      Alcotest.(check int) "epoch starts at 0" 0 (Sh.Router.epoch router);
      Alcotest.(check int) "full sweep order" 3 (List.length before);
      Alcotest.(check bool) "same plan within an epoch" true
        (Sh.Router.plan router key = before);
      (* Drop whichever node owns the key; the earlier order must not
         resurface it. *)
      let owner = List.hd before in
      let survivors = List.filter (fun n -> n != owner) [ a; b; c ] in
      Sh.Router.reconfigure router (Sh.Ring.create survivors);
      Alcotest.(check int) "epoch bumped" 1 (Sh.Router.epoch router);
      let after = Sh.Router.plan router key in
      Alcotest.(check int) "replanned against the new ring" 2
        (List.length after);
      Alcotest.(check bool) "departed node no longer planned" false
        (List.exists (fun n -> n.Sh.Ring.name = owner.Sh.Ring.name) after);
      (* Breaker state of the departed shard was forgotten. *)
      Alcotest.(check bool) "breaker forgotten" false
        (List.exists
           (fun v -> v.Sh.Health.shard = owner.Sh.Ring.name)
           (Sh.Health.views (Sh.Router.health router))))

(* ------------------------------------------------------- supervision *)

let wait_until ?(timeout_s = 10.) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

(* Kill a shard under supervision: it must come back on the same port
   with restart + downtime telemetry, and the cluster-wide Prometheus
   exposition (breaker/restart/epoch families included) must stay
   conformant. *)
let test_supervised_restart () =
  let events = ref [] in
  let mu = Mutex.create () in
  let t =
    Sh.Cluster.start ~shards:2 ~workers:1 ~supervise:true
      ~restart_delay_s:0.1
      ~on_event:(fun e ->
        Mutex.lock mu;
        events := e :: !events;
        Mutex.unlock mu)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Sh.Cluster.stop t)
    (fun () ->
      let port_before = Sh.Cluster.shard_port t 1 in
      Sh.Cluster.kill_shard t 1;
      Alcotest.(check bool) "shard restarts" true
        (wait_until (fun () -> Sh.Cluster.shard_alive t 1));
      Alcotest.(check int) "same port after restart" port_before
        (Sh.Cluster.shard_port t 1);
      let snap = Sh.Cluster.snapshot t in
      Alcotest.(check bool) "restart counted" true
        (snap.Sh.Metrics.restarts_total >= 1);
      Alcotest.(check bool) "downtime recorded" true
        (snap.Sh.Metrics.downtime_s > 0.);
      let evs = Mutex.lock mu; let e = !events in Mutex.unlock mu; e in
      Alcotest.(check bool) "down event observed" true
        (List.exists (function Sh.Cluster.Shard_down "s1" -> true | _ -> false) evs);
      Alcotest.(check bool) "restart event observed" true
        (List.exists
           (function Sh.Cluster.Shard_restarted ("s1", _) -> true | _ -> false)
           evs);
      H.check_prometheus_conformance (Sh.Cluster.prometheus t))

(* ---------------------------------------------------------- join/leave *)

let solve_ok port entry idem =
  Client.with_connection ~port (fun c ->
      match Client.solve c ~idem entry with
      | Ok reports -> reports
      | Error e -> Alcotest.failf "solve %S: %s" entry e)

let test_live_join_and_leave () =
  let t = Sh.Cluster.start ~shards:2 ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Sh.Cluster.stop t)
    (fun () ->
      let port = Sh.Cluster.router_port t in
      let entry = "gen grid2d size=10 :: minmem; liu" in
      let before = P.value_digest (solve_ok port entry "jl-0") in
      Alcotest.(check int) "epoch 0 at boot" 0 (Sh.Cluster.ring_epoch t);
      let i = Sh.Cluster.join t in
      Alcotest.(check int) "join returns the new index" 2 i;
      Alcotest.(check int) "join bumps the epoch" 1 (Sh.Cluster.ring_epoch t);
      Alcotest.(check int) "ring grew" 3
        (List.length (Sh.Ring.nodes (Sh.Cluster.ring t)));
      let after_join = P.value_digest (solve_ok port entry "jl-1") in
      Alcotest.(check string) "same values after join" before after_join;
      Sh.Cluster.leave t 0;
      Alcotest.(check int) "leave bumps the epoch" 2 (Sh.Cluster.ring_epoch t);
      Alcotest.(check bool) "left shard is out of the ring" false
        (Sh.Cluster.shard_in_ring t 0);
      Alcotest.(check bool) "left shard is down" false
        (Sh.Cluster.shard_alive t 0);
      Alcotest.(check int) "ring shrank" 2
        (List.length (Sh.Ring.nodes (Sh.Cluster.ring t)));
      let after_leave = P.value_digest (solve_ok port entry "jl-2") in
      Alcotest.(check string) "same values after leave" before after_leave;
      (* Idempotent; and the last nodes are protected. *)
      Sh.Cluster.leave t 0;
      Alcotest.(check int) "re-leave is a no-op" 2 (Sh.Cluster.ring_epoch t))

(* ----------------------------------------------------------- schedule *)

let test_plan_determinism () =
  let cfg = Sh.Nemesis.default_config in
  let p1 = Sh.Nemesis.plan cfg and p2 = Sh.Nemesis.plan cfg in
  Alcotest.(check string) "same seed, same plan"
    (Sh.Nemesis.plan_to_string p1)
    (Sh.Nemesis.plan_to_string p2);
  let other = Sh.Nemesis.plan { cfg with seed = cfg.seed + 1 } in
  Alcotest.(check bool) "different seed, different plan" true
    (Sh.Nemesis.plan_to_string other <> Sh.Nemesis.plan_to_string p1)

(* Replay each plan over a model of the cluster and check the safety
   rules the runner depends on: one disturbance in flight at a time,
   joins bounded by max_shards, leaves never below two ring members,
   faults only aimed at in-ring shards, and coverage of all three
   fault classes on long enough schedules. *)
let test_plan_wellformed () =
  List.iter
    (fun seed ->
      let cfg =
        { Sh.Nemesis.default_config with seed; steps = 14; shards = 3 }
      in
      let faults = Sh.Nemesis.plan cfg in
      Alcotest.(check int) "plan length" 14 (List.length faults);
      let ring = ref [ 0; 1; 2 ] in
      let total = ref 3 in
      let gated = ref None in
      let kills = ref 0 and cuts = ref 0 and members = ref 0 in
      List.iter
        (fun f ->
          (match !gated with
          | Some g ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: gate healed before next fault" seed)
                true
                (f = Sh.Nemesis.Heal g)
          | None ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: no spurious heal" seed)
                true
                (match f with Sh.Nemesis.Heal _ -> false | _ -> true));
          match f with
          | Sh.Nemesis.Kill i ->
              incr kills;
              Alcotest.(check bool) "kill targets ring member" true
                (List.mem i !ring)
          | Sh.Nemesis.Stall i | Sh.Nemesis.Partition i ->
              incr cuts;
              Alcotest.(check bool) "cut targets ring member" true
                (List.mem i !ring);
              gated := Some i
          | Sh.Nemesis.Heal _ -> gated := None
          | Sh.Nemesis.Join ->
              incr members;
              ring := !ring @ [ !total ];
              incr total;
              Alcotest.(check bool) "join respects max_shards" true
                (!total <= cfg.Sh.Nemesis.max_shards)
          | Sh.Nemesis.Leave i ->
              incr members;
              Alcotest.(check bool) "leave targets ring member" true
                (List.mem i !ring);
              ring := List.filter (fun j -> j <> i) !ring;
              Alcotest.(check bool) "leave keeps two ring members" true
                (List.length !ring >= 2))
        faults;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d covers kill/cut/membership" seed)
        true
        (!kills >= 1 && !cuts >= 1 && !members >= 1))
    [ 1; 2; 3; 11; 29 ]

(* ---------------------------------------------------------- end to end *)

(* A small nemesis run: every invariant that does not depend on the
   schedule length — digest parity, zero contradicted replies, full
   recovery, a supervised restart — must hold. The full acceptance
   gate (breaker cycle + ring change too) is `make chaos-nemesis`. *)
let test_nemesis_small_run () =
  let cfg =
    { Sh.Nemesis.default_config with
      seed = 11;
      steps = 4;
      requests = 120;
      connections = 2;
      step_gap_s = 0.3
    }
  in
  let r = Sh.Nemesis.run cfg in
  Alcotest.(check bool) "digest parity" true r.Sh.Nemesis.digest_match;
  Alcotest.(check int) "no admitted reply contradicted" 0
    r.Sh.Nemesis.lost_admitted;
  Alcotest.(check bool) "recovered within bound" true r.Sh.Nemesis.recovered;
  Alcotest.(check bool) "supervised restart happened" true
    (r.Sh.Nemesis.restarts >= 1);
  Alcotest.(check bool) "ring changed" true (r.Sh.Nemesis.ring_epoch >= 1)

let () =
  H.run "nemesis"
    [ ( "breaker",
        [ H.case "state machine on an injected clock"
            test_breaker_state_machine
        ] );
      ( "wire",
        [ H.case "health round trip" test_health_wire_round_trip;
          H.case "unavailable code" test_unavailable_round_trip
        ] );
      ( "router",
        [ H.case "plan follows the current ring" test_router_plan_follows_ring ] );
      ("supervisor", [ H.case "restart with telemetry" test_supervised_restart ]);
      ("membership", [ H.case "live join and leave" test_live_join_and_leave ]);
      ( "schedule",
        [ H.case "plan determinism" test_plan_determinism;
          H.case "plan wellformedness" test_plan_wellformed
        ] );
      ("run", [ H.case "small seeded run" test_nemesis_small_run ])
    ]
