module P = Tt_server.Protocol
module Client = Tt_server.Client
module Loadgen = Tt_server.Loadgen
module Netfault = Tt_server.Netfault
module Retry = Tt_engine.Retry

(* ---------------------------------------------------------- schedule *)

type fault =
  | Kill of int
  | Stall of int
  | Partition of int
  | Heal of int
  | Join
  | Leave of int

let fault_to_string = function
  | Kill i -> Printf.sprintf "kill s%d" i
  | Stall i -> Printf.sprintf "stall s%d" i
  | Partition i -> Printf.sprintf "partition s%d" i
  | Heal i -> Printf.sprintf "heal s%d" i
  | Join -> "join"
  | Leave i -> Printf.sprintf "leave s%d" i

let plan_to_string faults =
  String.concat "" (List.map (fun f -> fault_to_string f ^ "\n") faults)

type config = {
  seed : int;
  steps : int;
  shards : int;  (* initial ring size *)
  max_shards : int;  (* Join is only scheduled below this *)
  requests : int;
  connections : int;
  step_gap_s : float;  (* wall time between schedule steps *)
  restart_delay_s : float;  (* supervisor delay — long enough to open breakers *)
  workers : int;
  quiesce_timeout_s : float;
}

let default_config =
  { seed = 11;
    steps = 8;
    shards = 3;
    max_shards = 5;
    requests = 400;
    connections = 4;
    step_gap_s = 0.4;
    restart_delay_s = 0.5;
    workers = 2;
    quiesce_timeout_s = 15.
  }

(* The per-step random source: a pure function of (seed, step), same
   construction as {!Tt_engine.Fault} and {!Tt_engine.Retry} — so the
   whole schedule is reproducible from the seed alone, which is what
   lets `make chaos-nemesis` diff two [--plan-only] runs byte for
   byte. *)
let roll ~seed ~step =
  let d = Digest.string (Printf.sprintf "tt-nemesis-%d-%d" seed step) in
  Char.code d.[0]
  lor (Char.code d.[1] lsl 8)
  lor (Char.code d.[2] lsl 16)

(* Model of the cluster the schedule evolves against. Indices are
   cluster shard indices: joins allocate [total], leaves keep indices
   valid but out of the ring — mirroring {!Cluster} exactly, so a plan
   replays against a live cluster without translation. *)
type model = {
  m_ring : int list;  (* in-ring shard indices, ascending *)
  m_total : int;  (* shards ever created *)
  m_gated : int option;  (* shard whose ingress gate is not open *)
  m_owed : [ `Kill | `Cut | `Member ] list;
      (* coverage debt: the acceptance gate needs ≥1 supervised
         restart, ≥1 breaker cycle and ≥1 membership change per run,
         so the first steps pay these off before free play begins. *)
}

let pick h xs = List.nth xs (h mod List.length xs)

let step_model cfg m step =
  let h = roll ~seed:cfg.seed ~step in
  match m.m_gated with
  (* An open disturbance is always healed before the next one starts:
     one fault in flight at a time keeps every seed's run convergent
     (quorum-less tier — a second overlapping fault could partition
     every replica of a key at once for the whole gap). *)
  | Some i -> (Heal i, { m with m_gated = None })
  | None -> (
      let kill () =
        let i = pick h m.m_ring in
        (Kill i, m)
      in
      let cut () =
        let i = pick h m.m_ring in
        ((if h land 0x10000 = 0 then Partition i else Stall i),
         { m with m_gated = Some i })
      in
      let join () =
        ( Join,
          { m with m_ring = m.m_ring @ [ m.m_total ]; m_total = m.m_total + 1 }
        )
      in
      let leave () =
        let i = pick h m.m_ring in
        (Leave i, { m with m_ring = List.filter (fun j -> j <> i) m.m_ring })
      in
      let member () =
        if m.m_total < cfg.max_shards then join ()
        else if List.length m.m_ring > 2 then leave ()
        else kill ()
        (* membership frozen (max reached, ring too small to shrink):
           a 1-shard bench run still gets a disturbance this step *)
      in
      match m.m_owed with
      | `Kill :: rest ->
          let f, m' = kill () in
          (f, { m' with m_owed = rest })
      | `Cut :: rest ->
          let f, m' = cut () in
          (f, { m' with m_owed = rest })
      | `Member :: rest ->
          let f, m' = member () in
          (f, { m' with m_owed = rest })
      | [] ->
          let feasible =
            [ kill; cut ]
            @ (if m.m_total < cfg.max_shards then [ join ] else [])
            @ if List.length m.m_ring > 2 then [ leave ] else []
          in
          (pick (h lsr 4) feasible) ())

let plan cfg =
  if cfg.shards < 1 then invalid_arg "Nemesis.plan: shards < 1";
  if cfg.max_shards < cfg.shards then
    invalid_arg "Nemesis.plan: max_shards < shards";
  if cfg.steps < 1 then invalid_arg "Nemesis.plan: steps < 1";
  let m0 =
    { m_ring = List.init cfg.shards Fun.id;
      m_total = cfg.shards;
      m_gated = None;
      m_owed = [ `Kill; `Cut; `Member ]
    }
  in
  let rec go m step acc =
    if step >= cfg.steps then List.rev acc
    else
      let f, m' = step_model cfg m step in
      go m' (step + 1) (f :: acc)
  in
  go m0 0 []

(* ------------------------------------------------------------ runner *)

type report = {
  faults : fault list;
  events : Cluster.event list;  (* runtime observations, in order *)
  load : Loadgen.summary;
  timeline : (int * int * int) list;
      (* (second since load start, ok, errors) — the availability
         timeline the bench section plots per shard count *)
  clean_digest : string;
  final_digest : string;
  digest_match : bool;
  lost_admitted : int;
      (* ok replies whose per-entry value digest disagreed with the
         clean reference — results handed out then contradicted *)
  restarts : int;
  breaker_opens : int;
  breaker_closes : int;
  ring_epoch : int;
  recovered : bool;  (* all in-ring shards alive, all breakers closed *)
}

let retry_policy seed =
  { Retry.retries = 10;
    base_delay_s = 0.05;
    max_delay_s = 0.8;
    jitter = 0.25;
    seed
  }

let reference_digests ~workers entries =
  let t = Cluster.start ~shards:1 ~workers ~peering:false () in
  Fun.protect
    ~finally:(fun () -> Cluster.stop t)
    (fun () ->
      Client.with_connection ~port:(Cluster.router_port t) (fun c ->
          let tbl = Hashtbl.create 64 in
          let all =
            List.concat_map
              (fun entry ->
                match Client.solve c ~idem:("ref-" ^ entry) entry with
                | Ok reports ->
                    Hashtbl.replace tbl entry (P.value_digest reports);
                    reports
                | Error e -> failwith (Printf.sprintf "reference solve %S: %s" entry e))
              entries
          in
          (tbl, P.value_digest all)))

let sweep_digest ~port ~seed entries =
  Client.with_connection ~port ~read_timeout_s:30. (fun c ->
      let all =
        Array.to_list entries
        |> List.concat_map (fun entry ->
               match
                 Client.solve c
                   ~idem:(Printf.sprintf "sweep-%d-%s" seed entry)
                   entry
               with
               | Ok reports -> reports
               | Error e ->
                   failwith
                     (Printf.sprintf "nemesis final sweep %S: %s" entry e))
      in
      P.value_digest all)

let apply_fault t = function
  | Kill i -> Cluster.kill_shard t i
  | Stall i -> Cluster.set_partition t i Netfault.Gate_stalled
  | Partition i -> Cluster.partition t i
  | Heal i -> Cluster.heal t i
  | Join -> ignore (Cluster.join t)
  | Leave i -> Cluster.leave t i

let all_recovered t =
  let shards_up =
    List.for_all
      (fun i -> (not (Cluster.shard_in_ring t i)) || Cluster.shard_alive t i)
      (List.init (Cluster.size t) Fun.id)
  in
  let breakers_closed =
    List.for_all
      (fun v -> v.Health.view_state = Health.Breaker_closed)
      (Health.views (Cluster.health t))
  in
  shards_up && breakers_closed

let wait_recovered t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if all_recovered t then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.1;
      go ()
    end
  in
  go ()

let run cfg =
  let faults = plan cfg in
  if cfg.requests < 1 then invalid_arg "Nemesis.run: requests < 1";
  let entries = Loadgen.default_entries in
  let clean_tbl, clean_digest =
    reference_digests ~workers:cfg.workers (Array.to_list entries)
  in
  let events = ref [] in
  let events_mu = Mutex.create () in
  let on_event e =
    Mutex.lock events_mu;
    events := e :: !events;
    Mutex.unlock events_mu
  in
  let router_config =
    { Router.default_config with
      (* Short per-shard deadlines: a stalled ingress must cost a
         request one bounded timeout, not the client-facing 30 s. *)
      connect_timeout_s = 0.25;
      read_timeout_s = 1.0;
      probe_seed = cfg.seed
    }
  in
  let t =
    Cluster.start ~shards:cfg.shards ~workers:cfg.workers ~proxied:true
      ~supervise:true ~restart_delay_s:cfg.restart_delay_s ~on_event
      ~router_config ()
  in
  Fun.protect
    ~finally:(fun () -> Cluster.stop t)
    (fun () ->
      let port = Cluster.router_port t in
      let lost = Atomic.make 0 in
      let record entry reports =
        match Hashtbl.find_opt clean_tbl entry with
        | Some reference when P.value_digest reports <> reference ->
            Atomic.incr lost
        | _ -> ()
      in
      let t0 = Unix.gettimeofday () in
      let buckets = Hashtbl.create 16 in
      let buckets_mu = Mutex.create () in
      let bucket ok =
        let s = int_of_float (Unix.gettimeofday () -. t0) in
        Mutex.lock buckets_mu;
        let o, e = Option.value ~default:(0, 0) (Hashtbl.find_opt buckets s) in
        Hashtbl.replace buckets s (if ok then (o + 1, e) else (o, e + 1));
        Mutex.unlock buckets_mu
      in
      let solver ~tag ~conn =
        let s =
          Client.open_session ~port ~connect_timeout_s:0.5
            ~read_timeout_s:10.
            ~retry:(retry_policy (cfg.seed + conn))
            ~tag:(Printf.sprintf "%s-c%d" tag conn)
            ()
        in
        { Loadgen.sv_solve =
            (fun ?timeout_s ?priority ~idem entry ->
              let r = Client.session_solve s ?timeout_s ?priority ~idem entry in
              (match r with
              | Ok reports ->
                  record entry reports;
                  bucket true
              | Error _ -> bucket false);
              r);
          sv_close = (fun () -> Client.close_session s)
        }
      in
      let lg =
        { Loadgen.default_config with
          port;
          connections = cfg.connections;
          requests = cfg.requests;
          seed = cfg.seed;
          entries;
          tag = "nx";
          solver = Some solver
        }
      in
      let load_domain = Domain.spawn (fun () -> Loadgen.run lg) in
      List.iter
        (fun f ->
          apply_fault t f;
          Unix.sleepf cfg.step_gap_s)
        faults;
      (* Belt and braces: the plan heals every cut it opens, but a
         final sweep over live gates costs nothing and makes the
         quiescence condition independent of schedule endings. *)
      List.iter
        (fun i ->
          if Cluster.shard_in_ring t i then
            try Cluster.heal t i with Invalid_argument _ -> ())
        (List.init (Cluster.size t) Fun.id);
      let load = Domain.join load_domain in
      let recovered = wait_recovered t ~timeout_s:cfg.quiesce_timeout_s in
      let final_digest =
        sweep_digest ~port ~seed:cfg.seed entries
      in
      let snap = Cluster.snapshot t in
      let timeline =
        Hashtbl.fold (fun s (o, e) acc -> (s, o, e) :: acc) buckets []
        |> List.sort compare
      in
      { faults;
        events = List.rev !events;
        load;
        timeline;
        clean_digest;
        final_digest;
        digest_match = final_digest = clean_digest;
        lost_admitted = Atomic.get lost;
        restarts = snap.Metrics.restarts_total;
        breaker_opens = snap.Metrics.breaker_opens;
        breaker_closes = snap.Metrics.breaker_closes;
        ring_epoch = Cluster.ring_epoch t;
        recovered
      })

(* The acceptance gate `make chaos-nemesis` asserts: convergence, no
   contradicted reply, and proof the run actually exercised the
   machinery (a schedule that never hurt anything proves nothing). *)
let check r =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if not r.digest_match then
    fail "final digest %s != clean %s" r.final_digest r.clean_digest
  else if r.lost_admitted > 0 then
    fail "%d admitted replies contradicted the clean values" r.lost_admitted
  else if not r.recovered then fail "cluster did not quiesce"
  else if r.restarts < 1 then fail "no supervised restart happened"
  else if r.breaker_opens < 1 then fail "no breaker opened"
  else if r.breaker_closes < 1 then fail "no breaker closed"
  else if r.ring_epoch < 1 then fail "no ring reconfiguration happened"
  else Ok ()

let report_to_string r =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "nemesis schedule (%d steps):\n" (List.length r.faults);
  List.iter (fun f -> add "  %s\n" (fault_to_string f)) r.faults;
  add "events observed:\n";
  List.iter (fun e -> add "  %s\n" (Cluster.event_to_string e)) r.events;
  add "load: %d requests, %d ok, %d transport errors\n" r.load.Loadgen.requests
    r.load.Loadgen.ok r.load.Loadgen.transport_errors;
  List.iter (fun (c, n) -> add "  error %-18s %d\n" c n) r.load.Loadgen.errors;
  add "availability timeline (1 s buckets, ok/err):";
  List.iter (fun (s, o, e) -> add " t+%ds %d/%d" s o e) r.timeline;
  add "\n";
  add "restarts %d  breaker open %d close %d  ring epoch %d\n" r.restarts
    r.breaker_opens r.breaker_closes r.ring_epoch;
  add "digest clean %s\n" r.clean_digest;
  add "digest final %s (%s)\n" r.final_digest
    (if r.digest_match then "match" else "MISMATCH");
  add "lost admitted %d  recovered %b\n" r.lost_admitted r.recovered;
  Buffer.contents b
