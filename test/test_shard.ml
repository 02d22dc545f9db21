(* Tests for the tt_shard tier: ring placement properties (balance,
   minimal disruption), cluster-map parsing, the cache fetch level,
   peek over the wire, shard metrics exposition, and end-to-end
   cluster behaviour — digest parity with a single shard, failover
   under a mid-run kill with zero lost admitted requests, and
   cross-shard cache peering — and the input bounds: the route-key
   memo cap and the frame cap on server and router. *)

module R = Tt_shard.Ring
module SM = Tt_shard.Metrics
module Cl = Tt_shard.Cluster
module SC = Tt_shard.Shard_client
module P = Tt_server.Protocol
module C = Tt_server.Client
module L = Tt_server.Loadgen
module Srv = Tt_server.Server
module J = Tt_engine.Job
module H = Helpers

let mk_nodes n =
  List.init n (fun i ->
      { R.name = Printf.sprintf "s%d" i; host = "127.0.0.1"; port = 7000 + i })

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

(* --------------------------------------------------------------- ring *)

let test_ring_owner_deterministic () =
  (* Same config, independently built (different node order, different
     ports) — identical placement. Ports and hosts must not matter:
     the router and the peer hook see different ephemeral ports for
     the same logical ring. *)
  let a = R.create (mk_nodes 4) in
  let b =
    R.create
      (List.rev_map
         (fun (n : R.node) -> { n with R.port = n.R.port + 1000 })
         (mk_nodes 4))
  in
  List.iter
    (fun k ->
      Alcotest.(check string) ("owner of " ^ k) (R.owner a k).R.name
        (R.owner b k).R.name)
    (keys 500)

let test_ring_successors () =
  let r = R.create (mk_nodes 5) in
  List.iter
    (fun k ->
      let succ = R.successors r k in
      Alcotest.(check int) "all nodes, once each" 5 (List.length succ);
      Alcotest.(check int) "distinct" 5
        (List.length (List.sort_uniq compare succ));
      Alcotest.(check string) "owner first" (R.owner r k).R.name
        (List.hd succ).R.name)
    (keys 100)

(* Satellite property: at the default 64 vnodes, ownership is balanced
   within a factor-of-two of fair share. *)
let test_ring_balance () =
  List.iter
    (fun nodes ->
      let r = R.create (mk_nodes nodes) in
      let counts = Hashtbl.create nodes in
      let total = 6000 in
      List.iter
        (fun k ->
          let o = (R.owner r k).R.name in
          Hashtbl.replace counts o
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
        (keys total);
      let fair = float_of_int total /. float_of_int nodes in
      List.iter
        (fun (n : R.node) ->
          let c = Option.value ~default:0 (Hashtbl.find_opt counts n.R.name) in
          let share = float_of_int c /. fair in
          if share < 0.5 || share > 2.0 then
            Alcotest.failf "%d nodes: %s owns %.2fx fair share" nodes n.R.name
              share)
        (R.nodes r))
    [ 2; 3; 5; 8 ]

(* Satellite property: removing one shard remaps only the keys it
   owned — everyone else's placement is untouched, and the orphaned
   share is about 1/n. *)
let test_ring_minimal_disruption () =
  let nodes = 4 in
  let r = R.create (mk_nodes nodes) in
  let removed = "s2" in
  let r' = R.remove r removed in
  Alcotest.(check int) "one fewer node" (nodes - 1)
    (List.length (R.nodes r'));
  let total = 4000 and moved = ref 0 and orphaned = ref 0 in
  List.iter
    (fun k ->
      let before = (R.owner r k).R.name and after = (R.owner r' k).R.name in
      if before = removed then begin
        incr orphaned;
        Alcotest.(check bool) "orphan rehomed" false (after = removed)
      end
      else if after <> before then incr moved)
    (keys total);
  Alcotest.(check int) "only the removed node's keys move" 0 !moved;
  let share = float_of_int !orphaned /. (float_of_int total /. float_of_int nodes) in
  Alcotest.(check bool) "orphaned share is ~1/n" true
    (share > 0.5 && share < 2.0)

let test_ring_map_round_trip () =
  let r = R.create ~vnodes:32 (mk_nodes 3) in
  (match R.of_string ~vnodes:32 (R.to_string r) with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok r' ->
      Alcotest.(check string) "map round trips" (R.to_string r)
        (R.to_string r');
      List.iter
        (fun k ->
          Alcotest.(check string) "placement survives" (R.owner r k).R.name
            (R.owner r' k).R.name)
        (keys 200));
  (* Anonymous form: names assigned by input position. *)
  (match R.of_string "127.0.0.1:7100,127.0.0.1:7101" with
  | Error e -> Alcotest.failf "anonymous map: %s" e
  | Ok r ->
      Alcotest.(check string) "positional names" "s0=127.0.0.1:7100,s1=127.0.0.1:7101"
        (R.to_string r));
  List.iter
    (fun bad ->
      match R.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "127.0.0.1"; "host:notaport"; "a=1.2.3.4:70000"; ":7000";
      "x=127.0.0.1:1,x=127.0.0.1:2" ]

let test_ring_invalid () =
  (match R.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ring accepted");
  match R.remove (R.create (mk_nodes 1)) "s0" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removed the last node"

(* -------------------------------------------------------- cache fetch *)

let test_cache_fetch_level () =
  let module Cache = Tt_engine.Cache in
  let fetched = ref [] in
  let cache =
    Cache.create
      ~fetch:(fun key ->
        fetched := key :: !fetched;
        if key = "remote" then Some 42 else None)
      ()
  in
  let computes = ref 0 in
  let compute v () = incr computes; v in
  (* Fetch satisfies the miss: no compute, counted as a hit, and the
     value is now local (the second lookup does not re-fetch). *)
  Alcotest.(check bool) "peer value is a hit" true
    (Cache.find_or_compute cache ~key:"remote" (compute 0) = (42, true));
  Alcotest.(check int) "no compute" 0 !computes;
  Alcotest.(check bool) "peer value cached" true
    (Cache.find_or_compute cache ~key:"remote" (compute 0) = (42, true));
  Alcotest.(check bool) "fetched once" true
    (List.length !fetched = 1);
  (* Fetch miss degrades to the local compute. *)
  Alcotest.(check bool) "local compute" true
    (Cache.find_or_compute cache ~key:"local" (compute 7) = (7, false));
  Alcotest.(check int) "computed once" 1 !computes;
  (* [find] never consults the fetch hook — it is what answers peeks,
     so a peek must not cascade into another peek. *)
  fetched := [];
  Alcotest.(check bool) "find is local-only" true
    (Cache.find cache "elsewhere" = None);
  Alcotest.(check bool) "find did not fetch" true (!fetched = []);
  (* A throwing hook is a miss, not a crash. *)
  let bomb = Cache.create ~fetch:(fun _ -> failwith "peer down") () in
  Alcotest.(check bool) "hook failure degrades" true
    (Cache.find_or_compute bomb ~key:"k" (compute 9) = (9, false))

(* ------------------------------------------------------- peek op *)

let test_peek_over_wire () =
  let config = { Srv.default_config with Srv.port = 0; workers = 1 } in
  let cache = Tt_engine.Cache.create () in
  let server = Srv.create ~config ~cache () in
  Srv.start server;
  Fun.protect
    ~finally:(fun () -> Srv.shutdown server)
    (fun () ->
      let entry = "gen grid2d size=8 :: liu" in
      let key =
        match Tt_engine.Manifest.parse entry with
        | Ok (job :: _) -> J.id job
        | _ -> Alcotest.fail "entry must parse"
      in
      C.with_connection ~port:(Srv.port server) (fun conn ->
          (* Before the solve: a peek is a clean miss. *)
          (match C.call conn (P.Peek { key }) with
          | Ok (P.Peeked None) -> ()
          | _ -> Alcotest.fail "expected a miss before solving");
          (match C.solve conn entry with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "solve: %s" e);
          (* After: the cached outcome comes back, equal to a direct
             cache read. *)
          match C.call conn (P.Peek { key }) with
          | Ok (P.Peeked (Some outcome)) ->
              Alcotest.(check bool) "peek equals cache" true
                (Tt_engine.Cache.find cache key = Some outcome)
          | _ -> Alcotest.fail "expected a hit after solving"))

(* ------------------------------------------------------ shard metrics *)

let test_shard_metrics () =
  let m = SM.create () in
  SM.forward m ~shard:"s0";
  SM.forward m ~shard:"s0";
  SM.forward m ~shard:"s1";
  SM.failover m;
  SM.reject m;
  SM.peer_hit m;
  SM.peer_miss m;
  SM.hedge m ~outcome:"won";
  SM.hedge m ~outcome:"won";
  SM.hedge m ~outcome:"lost";
  SM.deadline_reject m;
  let s = SM.snapshot m in
  Alcotest.(check int) "forwards total" 3 s.SM.forwards_total;
  Alcotest.(check bool) "per-shard forwards" true
    (H.json_at (SM.to_json s) [ "forwards" ]
    = Some (Tt_engine.Telemetry.Json.(Obj [ ("s0", Int 2); ("s1", Int 1) ])));
  Alcotest.(check int) "failovers" 1 s.SM.failovers;
  let text = SM.to_prometheus s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (H.contains text needle))
    [ {|tt_shard_forwards_total{shard="s0"} 2|};
      {|tt_shard_forwards_total{shard="s1"} 1|};
      "tt_shard_failovers_total 1";
      "tt_shard_rejects_total 1";
      "tt_shard_unrouted_total 0";
      "tt_shard_peer_hits_total 1";
      "tt_shard_peer_misses_total 1";
      {|tt_shard_hedges_total{outcome="won"} 2|};
      {|tt_shard_hedges_total{outcome="lost"} 1|};
      "tt_shard_deadline_exceeded_total 1"
    ];
  (* Same exposition-format conformance gate as the server metrics. *)
  H.check_prometheus_conformance ~min_samples:7 text

(* ------------------------------------------------------------ cluster *)

let drive_loadgen ?(connections = 2) ?(requests = 40) ~port ~tag () =
  L.run
    { L.default_config with
      L.port;
      connections;
      requests;
      seed = 7;
      retry = Tt_engine.Retry.create ~retries:6 ~seed:7 ();
      read_timeout_s = 10.;
      connect_timeout_s = Some 2.;
      tag
    }

(* The headline invariant: a 3-shard cluster that loses a shard
   mid-run still answers every admitted request, observes at least one
   failover, and lands the same value digest as one shard alone. *)
let test_cluster_failover_digest_parity () =
  let single = Cl.start ~shards:1 ~workers:2 () in
  let s1 =
    Fun.protect
      ~finally:(fun () -> Cl.stop single)
      (fun () -> drive_loadgen ~port:(Cl.router_port single) ~tag:"one" ())
  in
  Alcotest.(check int) "single: all ok" 40 s1.L.ok;
  let c = Cl.start ~shards:3 ~workers:2 ~kill_after:(1, 12) () in
  let s3 =
    Fun.protect
      ~finally:(fun () -> Cl.stop c)
      (fun () -> drive_loadgen ~port:(Cl.router_port c) ~tag:"three" ())
  in
  Alcotest.(check int) "cluster: zero lost admitted requests" 40 s3.L.ok;
  Alcotest.(check int) "cluster: no transport errors" 0 s3.L.transport_errors;
  Alcotest.(check bool) "cluster: no refusals" true (s3.L.errors = []);
  let snap = Cl.snapshot c in
  Alcotest.(check bool) "shard was killed" false (Cl.shard_alive c 1);
  Alcotest.(check bool) "observed at least one failover" true
    (snap.SM.failovers >= 1);
  Alcotest.(check int) "nothing unroutable" 0 snap.SM.unrouted;
  match (s1.L.value_digest, s3.L.value_digest) with
  | Some a, Some b -> Alcotest.(check string) "value digest parity" a b
  | _ -> Alcotest.fail "missing value digest"

(* Peering: shard B, solving a multi-job entry whose later job was
   already computed on shard A, pulls A's result over a peek instead
   of recomputing — visible as a cache_hit in B's report and a peer
   hit in B's metrics. *)
let test_cluster_cache_peering () =
  (* Pick a tree size whose liu-job owner differs from the owner of
     the minmem-led entry that also contains it. Placement is a pure
     function of names + vnodes, so this search is deterministic and
     settles on the first candidate almost always. *)
  let ring = R.create (mk_nodes 3) in
  let ids size =
    let entry = Printf.sprintf "gen grid2d size=%d :: minmem; liu" size in
    match Tt_engine.Manifest.parse entry with
    | Ok [ m; l ] -> (J.id m, J.id l)
    | _ -> Alcotest.fail "unexpected parse"
  in
  let size =
    List.find
      (fun s ->
        let m, l = ids s in
        (R.owner ring m).R.name <> (R.owner ring l).R.name)
      [ 8; 9; 10; 11; 12; 13; 14; 15; 16 ]
  in
  let _, liu_id = ids size in
  let c = Cl.start ~shards:3 ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Cl.stop c)
    (fun () ->
      C.with_connection ~port:(Cl.router_port c) (fun conn ->
          (* Warm the liu job on its owner... *)
          (match C.solve conn (Printf.sprintf "gen grid2d size=%d :: liu" size) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "warm solve: %s" e);
          (* ...then solve the minmem-led entry on a different shard. *)
          match
            C.solve conn
              (Printf.sprintf "gen grid2d size=%d :: minmem; liu" size)
          with
          | Error e -> Alcotest.failf "peered solve: %s" e
          | Ok reports -> (
              match
                List.find_opt (fun r -> r.P.job_id = liu_id) reports
              with
              | None -> Alcotest.fail "liu report missing"
              | Some r ->
                  Alcotest.(check bool) "peered job is a cache hit" true
                    r.P.cache_hit));
      let snap = Cl.snapshot c in
      Alcotest.(check bool) "at least one peer hit" true
        (snap.SM.peer_hits >= 1);
      (* The exposition carries the shards' peer counters, which only
         the snapshot's merge puts next to the router's own. *)
      let line = Printf.sprintf "tt_shard_peer_hits_total %d" snap.SM.peer_hits in
      Alcotest.(check bool) ("prometheus has " ^ line) true
        (List.mem line (String.split_on_char '\n' (Cl.prometheus c))))

(* The shard-aware client routes directly on the ring (no router hop)
   and agrees with the routed path on results. *)
let test_shard_client_direct () =
  let c = Cl.start ~shards:3 ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Cl.stop c)
    (fun () ->
      let routed = drive_loadgen ~port:(Cl.router_port c) ~tag:"via-router" () in
      let metrics = SM.create () in
      let direct =
        L.run
          { L.default_config with
            L.requests = 40;
            connections = 2;
            seed = 7;
            read_timeout_s = 10.;
            tag = "direct";
            solver =
              Some
                (SC.loadgen_solver ~connect_timeout_s:2.
                   ~retry:(Tt_engine.Retry.create ~retries:3 ~seed:7 ())
                   ~metrics (Cl.ring c))
          }
      in
      Alcotest.(check int) "direct: all ok" 40 direct.L.ok;
      Alcotest.(check int) "direct: no transport errors" 0
        direct.L.transport_errors;
      Alcotest.(check bool) "direct routing reached the shards" true
        ((SM.snapshot metrics).SM.forwards_total >= 40);
      match (routed.L.value_digest, direct.L.value_digest) with
      | Some a, Some b ->
          Alcotest.(check string) "router and direct agree" a b
      | _ -> Alcotest.fail "missing value digest")

(* Router odds and ends over one connection: ping, stats shape,
   unparseable entries refused at the router, restart re-binds. *)
let test_router_misc_and_restart () =
  let c = Cl.start ~shards:2 ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Cl.stop c)
    (fun () ->
      C.with_connection ~port:(Cl.router_port c) (fun conn ->
          (match C.call conn P.Ping with
          | Ok P.Pong -> ()
          | _ -> Alcotest.fail "ping");
          (match C.call conn P.Stats with
          | Ok (P.Stats_reply json) ->
              Alcotest.(check bool) "router stats section" true
                (Tt_engine.Telemetry.Json.member "router" json <> None)
          | _ -> Alcotest.fail "stats");
          (match C.solve conn "gen nosuch size=4 :: minmem" with
          | Error msg ->
              Alcotest.(check bool) "refused at router" true
                (H.contains msg "bad_request")
          | Ok _ -> Alcotest.fail "bad entry accepted");
          (* Kill a shard, restart it on the same port, and solve
             again: the cache survives the restart. *)
          let port_before = Cl.shard_port c 0 in
          (match C.solve conn "gen banded size=16 :: liu" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "pre-restart solve: %s" e);
          Cl.kill_shard c 0;
          Alcotest.(check bool) "shard down" false (Cl.shard_alive c 0);
          Cl.restart_shard c 0;
          Alcotest.(check bool) "shard back" true (Cl.shard_alive c 0);
          Alcotest.(check int) "same port" port_before (Cl.shard_port c 0);
          match C.solve conn "gen banded size=16 :: liu" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "post-restart solve: %s" e))

(* ------------------------------------------------------- input bounds *)

(* The router's route keys come from a bounded LRU memo that holds at
   most [max_entries] entries; past the cap it evicts, and every key,
   kept or recomputed, is still the content address of the entry's
   first job. *)
let test_route_memo_bounded () =
  let module M = Tt_engine.Entry_memo in
  let memo = M.create () in
  let entry i = Printf.sprintf "tree \"2 -1:%d:0 0:1:%d\" :: liu; minmem" i (i mod 7) in
  let first_job_id i =
    J.id
      (J.make
         (Tt_core.Tree.make ~parent:[| -1; 0 |] ~f:[| i; 1 |] ~n:[| 0; i mod 7 |])
         (J.Min_memory J.Liu))
  in
  let total = M.max_entries + 500 in
  let check i =
    match M.route_key memo (entry i) with
    | Ok key -> if key <> first_job_id i then Alcotest.failf "entry %d: wrong route key" i
    | Error e -> Alcotest.failf "entry %d: %s" i e
  in
  for i = 0 to total - 1 do
    check i
  done;
  Alcotest.(check int) "memo capped" M.max_entries (M.length memo);
  check 0;
  check (total - 1);
  Alcotest.(check bool) "bad entry refused" true
    (Result.is_error (M.route_key memo "gen nosuch size=4 :: minmem"))

(* The reply lines [fd] carries until the peer closes it. *)
let read_lines fd =
  let got = Buffer.create 256 and b = Bytes.create 4096 in
  let rec recv () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes got b 0 n;
        recv ()
    | exception Unix.Unix_error _ -> ()
  in
  recv ();
  String.split_on_char '\n' (Buffer.contents got) |> List.filter (( <> ) "")

(* Connect to [port], [send] on the socket, half-close it, and read the
   replies until the peer closes. *)
let exchange ~port send =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      send fd;
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      read_lines fd)

(* Send [bytes] bytes with no newline. A peer that refuses the frame
   closes mid-send, so a write error ends the send. *)
let send_unterminated ~port bytes =
  exchange ~port (fun fd ->
      let chunk = Bytes.make 65536 'x' in
      let rec send left =
        if left > 0 then
          match Unix.write fd chunk 0 (min left (Bytes.length chunk)) with
          | n -> send (left - n)
          | exception Unix.Unix_error _ -> ()
      in
      send bytes)

(* 2 MiB without a newline gets exactly one typed [bad_frame] refusal
   from a shard server and from the router alike. *)
let test_frame_cap () =
  let c = Cl.start ~shards:1 ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Cl.stop c)
    (fun () ->
      List.iter
        (fun (who, port) ->
          match send_unterminated ~port (2 lsl 20) with
          | [ line ] -> (
              match P.decode_response line with
              | Ok { P.body = P.Refused { code = P.Bad_frame; _ }; _ } -> ()
              | _ -> Alcotest.failf "%s: expected bad_frame, got %s" who line)
          | lines -> Alcotest.failf "%s: %d replies, expected one" who (List.length lines))
        [ ("server", Cl.shard_port c 0); ("router", Cl.router_port c) ])

(* A request written 5 bytes at a time, 2 ms apart, through the router
   is framed once and answered exactly once, like the server's own
   [partial frame reassembly]. *)
let test_router_partial_frame () =
  let c = Cl.start ~shards:1 ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Cl.stop c)
    (fun () ->
      let line =
        P.encode_request
          { P.id = "frag";
            op =
              P.Solve
                { entry = "gen grid2d size=8 :: minmem";
                  timeout_s = None;
                  idem = None;
                  priority = P.Interactive
                }
          }
        ^ "\n"
      in
      let dribble fd =
        let rec go i =
          if i < String.length line then begin
            let n = Unix.write_substring fd line i (min 5 (String.length line - i)) in
            Unix.sleepf 0.002;
            go (i + n)
          end
        in
        go 0
      in
      match exchange ~port:(Cl.router_port c) dribble with
      | [ reply ] -> (
          match P.decode_response reply with
          | Ok { P.req_id = Some "frag"; body = P.Results _ } -> ()
          | _ -> Alcotest.failf "unexpected reply %s" reply)
      | lines -> Alcotest.failf "%d replies, expected one" (List.length lines))

(* A [file] source names a path on the serving host. Neither a server
   nor the router opens it: both refuse the entry as [bad_request], even
   for a readable Matrix Market file that [treetrav batch] solves. *)
let test_file_source_refused () =
  let path = Filename.temp_file "tt_wire" ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tt_sparse.Matrix_market.write_file path (Tt_sparse.Spgen.grid2d 4);
      let entry = Printf.sprintf "file %s :: minmem" path in
      (match Tt_engine.Manifest.parse entry with
      | Ok [ _ ] -> ()
      | _ -> Alcotest.fail "the file does not parse as a batch manifest source");
      let refused who port =
        C.with_connection ~port (fun conn ->
            let op = P.Solve { entry; timeout_s = None; idem = None; priority = P.Interactive } in
            match C.call conn op with
            | Ok (P.Refused { code = P.Bad_request; _ }) -> ()
            | Ok body ->
                Alcotest.failf "%s answered %s" who
                  (P.encode_response { P.req_id = None; body })
            | Error e -> Alcotest.failf "%s: %s" who e)
      in
      (* the router refuses it itself, before forwarding to a shard *)
      (match Tt_engine.Entry_memo.route_key (Tt_engine.Entry_memo.create ()) entry with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "the router's route key accepted a file source");
      let srv = Srv.create () in
      Srv.start srv;
      Fun.protect ~finally:(fun () -> Srv.shutdown srv) (fun () -> refused "server" (Srv.port srv));
      let c = Cl.start ~shards:3 ~workers:1 () in
      Fun.protect ~finally:(fun () -> Cl.stop c) (fun () -> refused "cluster" (Cl.router_port c)))

(* The router spawns one domain per client, and OCaml 5 allows 128
   domains per process. Past that cap each surplus client gets exactly
   one typed [overloaded] refusal and the router keeps accepting: once
   the idle clients leave, a fresh client is served and shutdown
   returns. *)
let test_domain_cap () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let c = Cl.start ~shards:1 ~workers:1 () in
  let port = Cl.router_port c in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  in
  let clients = 135 in
  let fds = List.init clients (fun _ -> connect ()) in
  let read_lines fd = Fun.protect ~finally:(fun () -> close fd) (fun () -> read_lines fd) in
  (* A refused client is sent one line and closed; a served one hears
     nothing while it stays idle. Collect until a second passes quietly. *)
  let rec collect idle refused =
    match Unix.select idle [] [] 1.0 with
    | [], _, _ -> (idle, refused)
    | ready, _, _ ->
        collect
          (List.filter (fun fd -> not (List.mem fd ready)) idle)
          (List.map read_lines ready @ refused)
  in
  let idle, refused = collect fds [] in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      List.iter close idle;
      if not !stopped then Cl.stop c)
    (fun () ->
      Alcotest.(check bool) "every client past the cap refused" true
        (List.length refused >= clients - 127);
      List.iter
        (function
          | [ line ] -> (
              match P.decode_response line with
              | Ok { P.body = P.Refused { code = P.Overloaded; _ }; _ } -> ()
              | _ -> Alcotest.failf "expected overloaded, got %s" line)
          | lines -> Alcotest.failf "%d replies, expected one" (List.length lines))
        refused;
      List.iter close idle;
      (* the idle clients' domains exit within their 0.25 s poll tick *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec solve () =
        let r =
          try C.with_connection ~port (fun conn -> C.solve conn "gen banded size=16 :: liu")
          with Unix.Unix_error _ | Failure _ | End_of_file -> Error "transport"
        in
        match r with
        | Ok _ -> ()
        | Error _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.2;
            solve ()
        | Error e -> Alcotest.failf "fresh client after the idle ones left: %s" e
      in
      solve ();
      stopped := true;
      Cl.stop c)

(* The accept loop joins a connection's domain once the connection
   ends: after 300 sequential connect, ping and close cycles the router
   holds at most one connection domain. The wait covers the last
   connections' domains, which may still be seeing their EOF. *)
let test_router_joins_connections () =
  let module Rt = Tt_shard.Router in
  let router =
    Rt.create ~config:{ Rt.default_config with probe_interval_s = 0. }
      ~ring:(R.create (mk_nodes 1)) ()
  in
  Rt.start router;
  Fun.protect
    ~finally:(fun () -> Rt.shutdown router)
    (fun () ->
      for i = 1 to 300 do
        C.with_connection ~port:(Rt.port router) (fun conn ->
            match C.call conn P.Ping with
            | Ok P.Pong -> ()
            | _ -> Alcotest.failf "ping %d" i)
      done;
      let deadline = Unix.gettimeofday () +. 5. in
      while Rt.connections router > 1 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      Alcotest.(check bool) "at most one connection domain held" true
        (Rt.connections router <= 1))

(* ---------------------------------------------------------- allocation *)

(* Major-heap words per request of [requests] repeated solves of
   [entry] through [port], counted from just before [start] to just
   after [stop] returns, so the domains that stop joins are counted. *)
let major_words_per_request ~requests ~entry ~start ~port ~stop =
  let before = (Gc.quick_stat ()).Gc.major_words in
  let x = start () in
  C.with_connection ~port:(port x) (fun conn ->
      for i = 1 to requests do
        match C.solve conn entry with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "solve %d: %s" i e
      done);
  stop x;
  ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int requests

(* A repeated entry is parsed twice, then answered from the entry memo,
   and every socket read lands in a reused buffer. The bound sits far
   below one parse of this entry per request (about 17k major-heap
   words) or one fresh 64 KB read buffer per request (8k words). *)
let test_major_words_per_request () =
  let entry = "gen grid2d size=16 :: minmem; postorder" in
  let requests = 300 and bound = 4_000. in
  let check who words =
    if words > bound then
      Alcotest.failf "%s: %.0f major-heap words per request (bound %.0f)" who words bound
  in
  check "server"
    (major_words_per_request ~requests ~entry
       ~start:(fun () ->
         let srv = Srv.create () in
         Srv.start srv;
         srv)
       ~port:Srv.port ~stop:Srv.shutdown);
  check "3-shard cluster"
    (major_words_per_request ~requests ~entry
       ~start:(fun () -> Cl.start ~shards:3 ~workers:1 ())
       ~port:Cl.router_port ~stop:Cl.stop)

let () =
  H.run "tt_shard"
    [ ( "ring",
        [ H.case "deterministic placement" test_ring_owner_deterministic;
          H.case "successors" test_ring_successors;
          H.case "balance at 64 vnodes" test_ring_balance;
          H.case "minimal disruption" test_ring_minimal_disruption;
          H.case "cluster map round trip" test_ring_map_round_trip;
          H.case "invalid configs" test_ring_invalid
        ] );
      ( "cache",
        [ H.case "fetch level" test_cache_fetch_level;
          H.case "peek over the wire" test_peek_over_wire
        ] );
      ("metrics", [ H.case "shard counters + exposition" test_shard_metrics ]);
      ( "cluster",
        [ H.case "failover digest parity" test_cluster_failover_digest_parity;
          H.case "cache peering" test_cluster_cache_peering;
          H.case "shard-aware client" test_shard_client_direct;
          H.case "router misc + restart" test_router_misc_and_restart
        ] );
      ( "input bounds",
        [ H.case "route memo bounded" test_route_memo_bounded;
          H.case "2 MiB frame cap on server and router" test_frame_cap;
          H.case "partial frame reassembly through the router" test_router_partial_frame;
          H.case "router joins ended connections" test_router_joins_connections;
          H.case "domain cap refuses, then recovers" test_domain_cap;
          H.case "file sources refused by server and router" test_file_source_refused
        ] );
      ( "allocation",
        [ H.case "major-heap words per repeated request" test_major_words_per_request ] )
    ]
