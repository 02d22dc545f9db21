module P = Tt_server.Protocol
module Client = Tt_server.Client
module Loadgen = Tt_server.Loadgen
module Netfault = Tt_server.Netfault
module Server = Tt_server.Server
module Retry = Tt_engine.Retry

(* ------------------------------------------------------------- config *)

type config = {
  seed : int;
  shards : int;
  workers : int;  (* worker domains per shard — 1 keeps capacity small *)
  queue_capacity : int;  (* per-shard admission queue (small → sheds) *)
  cal_requests : int;  (* closed-loop calibration volume *)
  cal_connections : int;
  requests : int;  (* overload-phase volume *)
  connections : int;  (* concurrency — must exceed the cluster's AIMD
                         window for admission control to engage *)
  batch_share : float;  (* fraction of overload traffic sent batch *)
  deadline_s : float;  (* per-request budget during overload *)
  overdrive : float;  (* offered rate as a multiple of measured capacity *)
  stall_shard : int;  (* whose ingress gate goes silent *)
  entry_size : int;  (* generated problem size (per-request distinct) *)
  interactive_floor : float;  (* minimum interactive goodput fraction *)
  late_slack_s : float;  (* grace over deadline before an ok is "late" *)
}

let default_config =
  { seed = 17;
    shards = 3;
    workers = 1;
    queue_capacity = 1;
    cal_requests = 48;
    cal_connections = 3;
    requests = 200;
    connections = 12;
    batch_share = 0.3;
    deadline_s = 1.0;
    overdrive = 4.0;
    stall_shard = 0;
    entry_size = 40;
    interactive_floor = 0.15;
    late_slack_s = 0.5
  }

(* Per-request distinct entries, synthesized from the idempotency key.
   Loadgen idems are a pure function of (tag, seed, connection, index),
   so the issued entry set is identical on every run of the same seed —
   which is what lets the gate diff two runs' full-set digests — while
   the per-request generator seed defeats the content-addressed cache:
   at 4x overdrive the shards must actually compute, not replay. *)
let stable_hash s =
  let d = Digest.string ("tt-overload-" ^ s) in
  Char.code d.[0] lor (Char.code d.[1] lsl 8) lor (Char.code d.[2] lsl 16)

let entry_of cfg idem =
  Printf.sprintf "gen random size=%d seed=%d :: minmem" cfg.entry_size
    (stable_hash idem)

(* ------------------------------------------------------- observations *)

(* Client-side ledger, shared by every loadgen connection. Every issued
   request must land in exactly one bucket: ok (late or not), typed shed
   ([overloaded] / [deadline_exceeded]), or untyped loss — the gate's
   headline invariant is that the last bucket stays empty. *)
type obs = {
  o_mu : Mutex.t;
  mutable issued_i : int;
  mutable issued_b : int;
  mutable ok_i : int;
  mutable ok_b : int;
  mutable shed_i : int;
  mutable shed_b : int;
  mutable late : int;
  mutable untyped : int;
  mutable untyped_example : string option;
  o_entries : (string, unit) Hashtbl.t;  (* every entry issued *)
  o_digests : (string, string) Hashtbl.t;  (* entry -> observed digest *)
}

let obs_create () =
  { o_mu = Mutex.create ();
    issued_i = 0;
    issued_b = 0;
    ok_i = 0;
    ok_b = 0;
    shed_i = 0;
    shed_b = 0;
    late = 0;
    untyped = 0;
    untyped_example = None;
    o_entries = Hashtbl.create 64;
    o_digests = Hashtbl.create 64
  }

let o_locked o f =
  Mutex.lock o.o_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock o.o_mu) f

let record_issue o entry priority =
  o_locked o (fun () ->
      Hashtbl.replace o.o_entries entry ();
      match priority with
      | P.Interactive -> o.issued_i <- o.issued_i + 1
      | P.Batch -> o.issued_b <- o.issued_b + 1)

let record_outcome cfg o entry priority elapsed_s ~deadline r =
  o_locked o (fun () ->
      match r with
      | Ok reports ->
          (match priority with
          | P.Interactive -> o.ok_i <- o.ok_i + 1
          | P.Batch -> o.ok_b <- o.ok_b + 1);
          if deadline && elapsed_s > cfg.deadline_s +. cfg.late_slack_s then
            o.late <- o.late + 1;
          Hashtbl.replace o.o_digests entry (P.value_digest reports)
      | Error (Client.Refused ((P.Overloaded | P.Deadline_exceeded), _)) -> (
          match priority with
          | P.Interactive -> o.shed_i <- o.shed_i + 1
          | P.Batch -> o.shed_b <- o.shed_b + 1)
      | Error f ->
          o.untyped <- o.untyped + 1;
          if o.untyped_example = None then
            o.untyped_example <- Some (Client.failure_to_string f))

(* The pluggable loadgen solver: one resilient session per connection,
   entries synthesized from the idem, every outcome recorded. [deadline]
   selects whether lateness is judged (the calibration phase runs
   without budgets). *)
let solver cfg o ~port ~deadline ~read_timeout_s ~tag ~conn =
  let s =
    Client.open_session ~port ~connect_timeout_s:1.0 ~read_timeout_s
      ~retry:Retry.none
      ~tag:(Printf.sprintf "%s-c%d" tag conn)
      ()
  in
  { Loadgen.sv_solve =
      (fun ?timeout_s ?priority ~idem _entry ->
        let entry = entry_of cfg idem in
        let priority = Option.value ~default:P.Interactive priority in
        record_issue o entry priority;
        let t0 = Unix.gettimeofday () in
        let r = Client.session_solve s ?timeout_s ~priority ~idem entry in
        record_outcome cfg o entry priority
          (Unix.gettimeofday () -. t0)
          ~deadline r;
        r);
    sv_close = (fun () -> Client.close_session s)
  }

(* ------------------------------------------------------------- report *)

type class_report = { cr_issued : int; cr_ok : int; cr_shed : int }

type report = {
  config : config;
  measured_rps : float;  (* clean closed-loop capacity *)
  offered_rps : float;  (* overdrive x measured *)
  issued : int;
  ok : int;
  sheds : int;
  late : int;
  untyped : int;
  untyped_example : string option;
  interactive : class_report;
  batch : class_report;
  contradicted : int;  (* ok replies disagreeing with the clean oracle *)
  hedge_won : int;
  hedge_lost : int;
  hedge_failed : int;
  router_deadline_rejects : int;
  reference_digest : string;  (* clean digest over ALL issued entries *)
  load : Loadgen.summary;
  wall_s : float;
}

let goodput cr = float_of_int cr.cr_ok /. float_of_int (max 1 cr.cr_issued)

let run cfg =
  if cfg.shards < 2 then invalid_arg "Overload_nemesis.run: shards < 2";
  if cfg.stall_shard < 0 || cfg.stall_shard >= cfg.shards then
    invalid_arg "Overload_nemesis.run: stall_shard out of range";
  if cfg.requests < 1 || cfg.cal_requests < 1 then
    invalid_arg "Overload_nemesis.run: requests < 1";
  if cfg.connections < 1 || cfg.cal_connections < 1 then
    invalid_arg "Overload_nemesis.run: connections < 1";
  if cfg.overdrive <= 0. then invalid_arg "Overload_nemesis.run: overdrive <= 0";
  if cfg.deadline_s <= 0. then
    invalid_arg "Overload_nemesis.run: deadline_s <= 0";
  let server_config =
    { Server.default_config with queue_capacity = cfg.queue_capacity }
  in
  let router_config =
    { Router.default_config with
      connect_timeout_s = 0.25;
      (* The shard-facing read timeout is scaled to shard RTT (p99 is
         tens of milliseconds for this workload), NOT to the client
         deadline: a stalled shard answers nothing, and a sweep that
         waits the whole client budget on a silent node burns the very
         deadline it is trying to meet. Failing fast here is also what
         feeds the breaker, which then routes around the stall. *)
      read_timeout_s = 0.35;
      (* One sweep per request: re-sweeping a shedding cluster is a
         retry storm — it multiplies every refusal into ring-size more
         attempts and starves the work that could have completed. *)
      retry = Retry.none;
      probe_seed = cfg.seed;
      hedge_seed = cfg.seed
    }
  in
  let t =
    Cluster.start ~shards:cfg.shards ~workers:cfg.workers ~proxied:true
      ~router_config ~server_config ()
  in
  let t0 = Unix.gettimeofday () in
  let run_report =
    Fun.protect
      ~finally:(fun () -> Cluster.stop t)
      (fun () ->
        let port = Cluster.router_port t in
        (* Phase 1 — calibrate against the healthy cluster: closed-loop
           throughput is the capacity the overload phase overdrives, and
           the traffic warms every shard's RTT window so the hedge
           triggers are armed before the stall. *)
        let cal_obs = obs_create () in
        let cal =
          Loadgen.run
            { Loadgen.default_config with
              port;
              connections = cfg.cal_connections;
              requests = cfg.cal_requests;
              seed = cfg.seed;
              entries = [| "synthesized-per-request" |];
              tag = "oc";
              read_timeout_s = 30.;
              solver =
                Some (solver cfg cal_obs ~port ~deadline:false
                        ~read_timeout_s:30.)
            }
        in
        if cal_obs.untyped > 0 then
          failwith
            (Printf.sprintf "overload calibration lost %d requests (%s)"
               cal_obs.untyped
               (Option.value ~default:"?" cal_obs.untyped_example));
        let measured_rps = cal.Loadgen.throughput_rps in
        let offered_rps = cfg.overdrive *. measured_rps in
        (* Phase 2 — stall one shard's ingress and overdrive the rest:
           open-loop arrivals at [overdrive] x capacity, every request
           carrying the deadline budget, a batch share riding along to
           exercise brownout. *)
        Cluster.set_partition t cfg.stall_shard Netfault.Gate_stalled;
        let o = obs_create () in
        let rate = Float.max 1. (offered_rps /. float_of_int cfg.connections) in
        let load =
          Loadgen.run
            { Loadgen.default_config with
              port;
              connections = cfg.connections;
              requests = cfg.requests;
              seed = cfg.seed;
              entries = [| "synthesized-per-request" |];
              tag = "ox";
              mode = Loadgen.Open rate;
              timeout_s = Some cfg.deadline_s;
              batch_share = cfg.batch_share;
              read_timeout_s = (cfg.deadline_s +. 2.0);
              solver =
                Some (solver cfg o ~port ~deadline:true
                        ~read_timeout_s:(cfg.deadline_s +. 2.0))
            }
        in
        Cluster.heal t cfg.stall_shard;
        let snap = Cluster.snapshot t in
        (* Phase 3 — oracle: re-solve every issued entry on a pristine
           1-shard cluster; any ok reply from the overloaded run that
           disagrees is a contradiction, and the full-set digest is the
           run-invariant identity the byte-diff gate compares. *)
        let entries =
          List.sort compare
            (Hashtbl.fold (fun e () acc -> e :: acc) o.o_entries [])
        in
        let ref_tbl, reference_digest =
          Nemesis.reference_digests ~workers:cfg.workers entries
        in
        let contradicted =
          Hashtbl.fold
            (fun entry dg acc ->
              match Hashtbl.find_opt ref_tbl entry with
              | Some reference when dg <> reference -> acc + 1
              | _ -> acc)
            o.o_digests 0
        in
        let hedge outcome =
          Option.value ~default:0 (List.assoc_opt outcome snap.Metrics.hedges)
        in
        { config = cfg;
          measured_rps;
          offered_rps;
          issued = o.issued_i + o.issued_b;
          ok = o.ok_i + o.ok_b;
          sheds = o.shed_i + o.shed_b;
          late = o.late;
          untyped = o.untyped;
          untyped_example = o.untyped_example;
          interactive =
            { cr_issued = o.issued_i; cr_ok = o.ok_i; cr_shed = o.shed_i };
          batch = { cr_issued = o.issued_b; cr_ok = o.ok_b; cr_shed = o.shed_b };
          contradicted;
          hedge_won = hedge "won";
          hedge_lost = hedge "lost";
          hedge_failed = hedge "failed";
          router_deadline_rejects = snap.Metrics.deadline_rejects;
          reference_digest;
          load;
          wall_s = 0.
        })
  in
  { run_report with wall_s = Unix.gettimeofday () -. t0 }

(* -------------------------------------------------------------- check *)

(* The acceptance gate `make chaos-overload` asserts: zero untyped
   losses, every ok within its deadline, no contradicted value, proof
   the run actually overloaded (sheds happened, batch shed, a hedge
   won), and the interactive class kept a goodput floor through it. *)
let check r =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if r.untyped > 0 then
    fail "%d untyped losses (e.g. %s)" r.untyped
      (Option.value ~default:"?" r.untyped_example)
  else if r.late > 0 then fail "%d ok replies landed past their deadline" r.late
  else if r.contradicted > 0 then
    fail "%d ok replies contradicted the clean oracle" r.contradicted
  else if r.ok < 1 then fail "no request completed at all"
  else if r.sheds < 1 then
    fail "no request was shed — the run never overloaded"
  else if r.batch.cr_shed < 1 then fail "no batch request was shed"
  else if r.hedge_won < 1 then fail "no hedge won its race"
  else if goodput r.interactive < r.config.interactive_floor then
    fail "interactive goodput %.3f below floor %.3f" (goodput r.interactive)
      r.config.interactive_floor
  else Ok ()

(* ------------------------------------------------------------- render *)

(* The [overload-summary] lines are the byte-diff surface: only
   run-invariant facts — the config, the pass/fail shape of every
   invariant, and the full-set clean digest. Wall-clock-dependent counts
   (goodput, shed totals, hedge counts) are real observations but vary
   run to run; they live in the human section above. *)
let report_to_string r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let c = r.config in
  add "overload: measured %.0f rps clean, offered %.0f rps (%.1fx) \
       across %d connections\n"
    r.measured_rps r.offered_rps c.overdrive c.connections;
  add "load: %d issued, %d ok, %d shed, %d late, %d untyped, wall %.2fs\n"
    r.issued r.ok r.sheds r.late r.untyped r.wall_s;
  add "  interactive: %d issued, %d ok, %d shed (goodput %.3f, floor %.3f)\n"
    r.interactive.cr_issued r.interactive.cr_ok r.interactive.cr_shed
    (goodput r.interactive) c.interactive_floor;
  add "  batch:       %d issued, %d ok, %d shed (goodput %.3f)\n"
    r.batch.cr_issued r.batch.cr_ok r.batch.cr_shed (goodput r.batch);
  add "hedges: %d won, %d lost, %d failed; router deadline rejects %d\n"
    r.hedge_won r.hedge_lost r.hedge_failed r.router_deadline_rejects;
  add "oracle: %d contradicted of %d completed\n" r.contradicted r.ok;
  List.iter (fun (code, n) -> add "  error %-18s %d\n" code n)
    r.load.Loadgen.errors;
  add
    "overload-summary v1 seed=%d shards=%d workers=%d queue=%d requests=%d \
     connections=%d batch-share=%.2f deadline-s=%.2f overdrive=%.1f\n"
    c.seed c.shards c.workers c.queue_capacity c.requests c.connections
    c.batch_share c.deadline_s c.overdrive;
  add
    "overload-summary invariants untyped=%s late=%s contradicted=%s \
     overloaded=%s batch-shed=%s hedge-won=%s interactive-floor=%s\n"
    (if r.untyped = 0 then "none" else "LOST")
    (if r.late = 0 then "none" else "LATE")
    (if r.contradicted = 0 then "none" else "CONTRADICTED")
    (if r.sheds > 0 then "yes" else "NO")
    (if r.batch.cr_shed > 0 then "yes" else "NO")
    (if r.hedge_won > 0 then "yes" else "NO")
    (if goodput r.interactive >= c.interactive_floor then "met" else "MISSED");
  add "overload-summary digest %s\n" r.reference_digest;
  Buffer.contents b
