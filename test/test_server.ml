(* Tests for the tt_server network layer: protocol codec round trips,
   the bounded admission queue, metrics, and end-to-end behaviour of a
   live server — digest parity with the batch engine, concurrent load,
   overload rejection, deadlines and graceful drain. *)

module P = Tt_server.Protocol
module LR = Tt_server.Line_reader
module Adm = Tt_server.Admission
module M = Tt_server.Metrics
module Srv = Tt_server.Server
module C = Tt_server.Client
module L = Tt_server.Loadgen
module E = Tt_engine.Executor
module J = Tt_engine.Job
module H = Helpers
module Json = Tt_engine.Telemetry.Json

let all_error_codes =
  [ P.Bad_frame; P.Bad_request; P.Unsupported_version; P.Overloaded;
    P.Deadline_exceeded; P.Shutting_down; P.Internal ]

(* ----------------------------------------------------------- protocol *)

let test_error_code_strings () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("round trip " ^ P.error_code_to_string c)
        true
        (P.error_code_of_string (P.error_code_to_string c) = Some c))
    all_error_codes;
  Alcotest.(check bool) "unknown code" true (P.error_code_of_string "nope" = None)

let test_request_round_trip () =
  List.iter
    (fun op ->
      let req = { P.id = "r-1"; op } in
      match P.decode_request (P.encode_request req) with
      | Ok got -> Alcotest.(check bool) "request round trips" true (got = req)
      | Error (_, _, msg) -> Alcotest.failf "decode failed: %s" msg)
    [ P.Ping; P.Stats; P.Shutdown;
      P.Peek { key = "deadbeef00112233" };
      P.Solve
        { entry = "gen grid2d size=8 :: minmem"; timeout_s = None; idem = None; priority = P.Interactive };
      P.Solve
        { entry = "tree \"x :: y\"";
          timeout_s = Some 2.5;
          idem = None;
          priority = P.Batch
        };
      P.Solve
        { entry = "gen grid2d size=8 :: minmem";
          timeout_s = Some 1.;
          idem = Some "key-42";
          priority = P.Interactive
        }
    ]

let test_request_decode_errors () =
  let expect line id code =
    match P.decode_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error (got_id, got_code, _) ->
        Alcotest.(check bool) ("id of " ^ line) true (got_id = id);
        Alcotest.(check string) ("code of " ^ line)
          (P.error_code_to_string code)
          (P.error_code_to_string got_code)
  in
  expect "not json" None P.Bad_frame;
  expect "[1,2]" None P.Bad_frame;
  expect {|{"id":"x","op":"ping"}|} (Some "x") P.Unsupported_version;
  expect {|{"v":2,"id":"x","op":"ping"}|} (Some "x") P.Unsupported_version;
  expect {|{"v":1,"id":"x","op":"warp"}|} (Some "x") P.Bad_request;
  expect {|{"v":1,"op":"ping"}|} None P.Bad_request;
  expect {|{"v":1,"id":"x","op":"solve"}|} (Some "x") P.Bad_request;
  expect {|{"v":1,"id":"x","op":"peek"}|} (Some "x") P.Bad_request;
  expect {|{"v":1,"id":"x","op":"peek","key":7}|} (Some "x") P.Bad_request;
  (* [idem] is optional but must be a string when present. *)
  expect {|{"v":1,"id":"x","op":"solve","entry":"e","idem":7}|} (Some "x")
    P.Bad_request;
  match P.decode_request {|{"v":1,"id":"x","op":"solve","entry":"e"}|} with
  | Ok { P.op = P.Solve { idem = None; _ }; _ } -> ()
  | _ -> Alcotest.fail "absent idem must decode as None"

let sample_reports =
  [ { P.job_id = "aaaa"; label = "m"; spec = "min-memory:minmem";
      result = Ok (J.Memory { peak = 42; order = [| 2; 0; 1 |] });
      cache_hit = false; wall_s = 0.25 };
    { P.job_id = "bbbb"; label = "io"; spec = "min-io";
      result = Ok (J.Io { in_core = 10; memory = 8; io = None });
      cache_hit = true; wall_s = 0.5 };
    { P.job_id = "cccc"; label = "s"; spec = "schedule";
      result = Ok (J.Sched { memory = 9; makespan = Some 7; peak = Some 9 });
      cache_hit = false; wall_s = 1.5 };
    { P.job_id = "dddd"; label = "t"; spec = "min-memory:liu";
      result = Error (J.Timed_out 0.125); cache_hit = false; wall_s = 0.125 };
    { P.job_id = "eeee"; label = "c"; spec = "min-memory:liu";
      result = Error (J.Crashed "Failure(\"boom\")"); cache_hit = false;
      wall_s = 0.75 }
  ]

let check_response_round_trip resp =
  match P.decode_response (P.encode_response resp) with
  | Error e -> Alcotest.failf "decode_response: %s" e
  | Ok got ->
      Alcotest.(check bool) "req_id round trips" true (got.P.req_id = resp.P.req_id);
      (match (got.P.body, resp.P.body) with
      | P.Results a, P.Results b ->
          Alcotest.(check int) "report count" (List.length b) (List.length a);
          List.iter2
            (fun (x : P.job_report) (y : P.job_report) ->
              Alcotest.(check string) "job_id" y.P.job_id x.P.job_id;
              Alcotest.(check bool) "result" true
                (J.equal_result x.P.result y.P.result);
              Alcotest.(check bool) "cache_hit" y.P.cache_hit x.P.cache_hit)
            a b
      | b1, b2 -> Alcotest.(check bool) "body round trips" true (b1 = b2))

let test_response_round_trip () =
  check_response_round_trip { P.req_id = Some "r9"; body = P.Results sample_reports };
  check_response_round_trip { P.req_id = Some "r0"; body = P.Pong };
  check_response_round_trip { P.req_id = Some "p0"; body = P.Peeked None };
  check_response_round_trip
    { P.req_id = Some "p1";
      body = P.Peeked (Some (J.Memory { peak = 42; order = [| 2; 0; 1 |] }))
    };
  check_response_round_trip { P.req_id = Some "r1"; body = P.Draining };
  check_response_round_trip
    { P.req_id = Some "r2";
      body =
        P.Stats_reply
          (Tt_engine.Telemetry.Json.Obj
             [ ("server", Tt_engine.Telemetry.Json.Int 1) ])
    };
  List.iter
    (fun code ->
      check_response_round_trip
        { P.req_id = None; body = P.Refused { code; msg = "why \"quoted\"" } };
      check_response_round_trip
        { P.req_id = Some "e"; body = P.Refused { code; msg = "" } })
    all_error_codes

let test_digests () =
  (* The sequence digest is order-sensitive, the value digest is not and
     ignores duplicates — the properties the load generator relies on. *)
  let rev = List.rev sample_reports in
  Alcotest.(check bool) "sequence digest is order-sensitive" false
    (P.sequence_digest sample_reports = P.sequence_digest rev);
  Alcotest.(check string) "value digest is order-insensitive"
    (P.value_digest sample_reports) (P.value_digest rev);
  Alcotest.(check string) "value digest ignores duplicates"
    (P.value_digest sample_reports)
    (P.value_digest (sample_reports @ sample_reports));
  (* Wire round trip preserves both digests: the [result] field is the
     lossless Job.result_to_json rendering. *)
  let resp = { P.req_id = Some "d"; body = P.Results sample_reports } in
  match P.decode_response (P.encode_response resp) with
  | Ok { P.body = P.Results got; _ } ->
      Alcotest.(check string) "digest survives the wire"
        (P.sequence_digest sample_reports)
        (P.sequence_digest got)
  | _ -> Alcotest.fail "round trip failed"

(* -------------------------------------------------------- line reader *)

(* The property tests' read size: frames span up to four reads. *)
let read_size = 16

(* Feed [stream] to a fresh reader in reads cut to the sizes [cuts]
   (cyclically), through one reused buffer whose unused tail is filled
   with newlines, so a reader that looked past a read's bytes would
   invent lines. [Error (before, after, lines)] when the read that
   spans [before, after) of the stream is refused. *)
let feed_in_reads ~limit stream cuts =
  let r = LR.create ~limit and buf = Bytes.create read_size in
  let cuts = Array.of_list cuts and lines = ref [] in
  let rec go pos k =
    if pos >= String.length stream then Ok (List.rev !lines)
    else begin
      let n = min cuts.(k mod Array.length cuts) (String.length stream - pos) in
      Bytes.blit_string stream pos buf 0 n;
      Bytes.fill buf n (read_size - n) '\n';
      match LR.feed r buf n (fun l -> lines := l :: !lines) with
      | Ok () -> go (pos + n) (k + 1)
      | Error LR.Too_long -> Error (pos, pos + n, List.rev !lines)
    end
  in
  go 0 0

let trim_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

let arb_frames ~max_len =
  let open QCheck.Gen in
  let frame = string_size ~gen:(oneofl [ 'a'; 'z'; '{'; '"'; ' '; '\r' ]) (0 -- max_len) in
  QCheck.make
    ~print:(fun (frames, cuts) ->
      Printf.sprintf "%S cut every %s" (String.concat "\n" frames)
        (String.concat "," (List.map string_of_int cuts)))
    (pair (list_size (0 -- 12) frame) (list_size (1 -- 40) (1 -- read_size)))

(* Frames joined by newlines, the last one left unfinished, give every
   line but the last that [String.split_on_char] gives, CR-trimmed,
   however the reads cut them. *)
let prop_lines_like_split (frames, cuts) =
  let stream = String.concat "\n" frames in
  let expected =
    match List.rev (String.split_on_char '\n' stream) with
    | _unfinished :: lines -> List.rev_map trim_cr lines
    | [] -> []
  in
  feed_in_reads ~limit:max_int stream cuts = Ok expected

(* Complete frames within the cap, then an unfinished frame past it: the
   complete lines come out, and the one refusal comes with the read
   that first takes the unfinished frame past the cap. *)
let prop_one_too_long ((frames, cuts), extra) =
  let limit = read_size in
  let head = String.concat "" (List.map (fun f -> f ^ "\n") frames) in
  let tail_start = String.length head in
  match feed_in_reads ~limit (head ^ String.make (limit + extra) 'x') cuts with
  | Ok _ -> false
  | Error (before, after, lines) ->
      before - tail_start <= limit
      && after - tail_start > limit
      && lines = List.map trim_cr frames

(* A 1 MiB frame read in 64 KB pieces is kept in one growing buffer and
   copied out once: under 4x its bytes allocated, where the string
   concatenation it replaced ([pending ^ chunk] per read) takes more
   than 8x. *)
let test_line_reader_allocation () =
  let frame = P.max_frame_bytes and read = 65536 in
  let buf = Bytes.make read 'x' in
  let allocated f =
    let before = Gc.allocated_bytes () in
    f ();
    (Gc.allocated_bytes () -. before) /. float_of_int frame
  in
  let r = LR.create ~limit:P.max_frame_bytes and got = ref (-1) in
  let reader =
    allocated (fun () ->
        for _ = 1 to frame / read do
          if LR.feed r buf read ignore <> Ok () then Alcotest.fail "refused within the cap"
        done;
        Bytes.set buf 0 '\n';
        ignore (LR.feed r buf 1 (fun l -> got := String.length l)))
  in
  Alcotest.(check int) "the frame comes out whole" frame !got;
  if reader > 4. then Alcotest.failf "reader allocated %.2fx the frame" reader;
  let concat =
    allocated (fun () ->
        let pending = ref "" in
        for _ = 1 to frame / read do
          pending := !pending ^ Bytes.sub_string buf 0 read
        done)
  in
  if concat <= 8. then Alcotest.failf "concatenation allocated only %.2fx" concat

(* ---------------------------------------------------------- admission *)

let test_admission_fifo () =
  let q = Adm.create ~capacity:8 in
  List.iter (fun i -> Alcotest.(check bool) "push" true (Adm.try_push q i)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Adm.length q);
  Alcotest.(check bool) "fifo" true
    (Adm.pop q = Some 1 && Adm.pop q = Some 2 && Adm.pop q = Some 3)

let test_admission_bounds () =
  let q = Adm.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Adm.try_push q 1);
  Alcotest.(check bool) "push 2" true (Adm.try_push q 2);
  Alcotest.(check bool) "push 3 rejected" false (Adm.try_push q 3);
  Alcotest.(check bool) "pop frees a slot" true (Adm.pop q = Some 1);
  Alcotest.(check bool) "push 4" true (Adm.try_push q 4);
  Alcotest.(check bool) "wraps around" true
    (Adm.pop q = Some 2 && Adm.pop q = Some 4);
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Admission.create: capacity < 1") (fun () ->
      ignore (Adm.create ~capacity:0))

let test_admission_close () =
  let q = Adm.create ~capacity:4 in
  ignore (Adm.try_push q 1);
  ignore (Adm.try_push q 2);
  Adm.close q;
  Alcotest.(check bool) "closed refuses pushes" false (Adm.try_push q 3);
  Alcotest.(check bool) "queued items still delivered" true
    (Adm.pop q = Some 1 && Adm.pop q = Some 2);
  Alcotest.(check bool) "then None" true (Adm.pop q = None);
  (* A consumer blocked in pop is released by close. *)
  let q2 : int Adm.t = Adm.create ~capacity:1 in
  let d = Domain.spawn (fun () -> Adm.pop q2) in
  Unix.sleepf 0.02;
  Adm.close q2;
  Alcotest.(check bool) "blocked pop released with None" true (Domain.join d = None)

(* ------------------------------------------------------------ metrics *)

let dump m = M.to_json (M.snapshot m)

let test_metrics_counters () =
  let m = M.create () in
  M.connection_opened m;
  M.connection_opened m;
  M.connection_closed m;
  M.request m `Solve;
  M.request m `Solve;
  M.request m `Ping;
  M.request m `Stats;
  M.response_ok m;
  M.response_error m ~code:"overloaded";
  M.response_error m ~code:"overloaded";
  M.job m ~cache_hit:true ~error:false ~wall_s:0.5;
  M.job m ~cache_hit:false ~error:true ~wall_s:0.25;
  let s = dump m in
  Alcotest.(check int) "opened" 2 (H.json_int s [ "connections"; "opened" ]);
  Alcotest.(check int) "active" 1 (H.json_int s [ "connections"; "active" ]);
  Alcotest.(check int) "solve" 2 (H.json_int s [ "requests"; "solve" ]);
  Alcotest.(check int) "ping" 1 (H.json_int s [ "requests"; "ping" ]);
  Alcotest.(check int) "stats" 1 (H.json_int s [ "requests"; "stats" ]);
  Alcotest.(check int) "ok" 1 (H.json_int s [ "responses"; "ok" ]);
  Alcotest.(check bool) "errors by code" true
    (H.json_at s [ "responses"; "errors" ] = Some (Json.Obj [ ("overloaded", Json.Int 2) ]));
  Alcotest.(check int) "jobs" 2 (H.json_int s [ "jobs"; "total" ]);
  Alcotest.(check int) "job errors" 1 (H.json_int s [ "jobs"; "errors" ]);
  Alcotest.(check int) "cache hits" 1 (H.json_int s [ "jobs"; "cache_hits" ]);
  Alcotest.(check (float 1e-9)) "job wall" 0.75 (H.json_float s [ "jobs"; "wall_s" ])

(* More samples than the 4096-sample window: the lifetime figures
   count them all, the percentiles only the most recent 4096. *)
let test_metrics_latency () =
  let m = M.create () in
  for i = 1 to 5000 do
    M.observe_solve m ~latency_s:(float_of_int i /. 1000.)
  done;
  let s = dump m in
  let lat k = H.json_float s [ "latency"; k ] in
  Alcotest.(check int) "lifetime count" 5000 (H.json_int s [ "latency"; "count" ]);
  Alcotest.(check int) "window is the ring size" 4096 (H.json_int s [ "latency"; "window" ]);
  Alcotest.(check (float 1e-9)) "lifetime max" 5.0 (lat "max_s");
  Alcotest.(check (float 1e-9)) "lifetime mean" 2.5005 (lat "mean_s");
  Alcotest.(check (float 1e-9)) "median of the latest 4096" 2.9525 (lat "p50_s");
  Alcotest.(check bool) "percentiles ordered" true
    (lat "p50_s" <= lat "p95_s" && lat "p95_s" <= lat "p99_s" && lat "p99_s" <= lat "max_s")

let test_metrics_prometheus () =
  let m = M.create () in
  M.request m `Solve;
  M.response_error m ~code:"overloaded";
  M.observe_solve m ~latency_s:0.5;
  M.worker_restart m;
  M.idle_eviction m;
  M.replay_hit m;
  M.write_overflow m;
  M.shed m ~reason:"brownout" ~priority:"batch";
  M.shed m ~reason:"limit" ~priority:"interactive";
  M.shed m ~reason:"limit" ~priority:"interactive";
  M.deadline_exceeded m;
  M.set_admission m ~queue_depth:3 ~admitted:5 ~limit:8;
  let text = M.to_prometheus (M.snapshot m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (H.contains text needle))
    [ {|tt_server_requests_total{op="solve"} 1|};
      {|tt_server_responses_error_total{code="overloaded"} 1|};
      {|tt_server_solve_latency_seconds{quantile="0.5"} 0.5|};
      "tt_server_solve_latency_seconds_count 1";
      "# TYPE tt_server_requests_total counter";
      "tt_server_worker_restarts_total 1";
      "tt_server_idle_evictions_total 1";
      "tt_server_replay_hits_total 1";
      "tt_server_write_overflows_total 1";
      {|tt_server_sheds_total{reason="brownout",priority="batch"} 1|};
      {|tt_server_sheds_total{reason="limit",priority="interactive"} 2|};
      "tt_server_deadline_exceeded_total 1";
      "# TYPE tt_server_admission_queue_depth gauge";
      "tt_server_admission_queue_depth 3";
      "tt_server_admission_admitted 5";
      "tt_server_admission_limit 8"
    ]

(* Exposition-format conformance, via the shared checker in
   {!Helpers} (the shard tier's metrics run the same one). *)
let test_prometheus_conformance () =
  let m = M.create () in
  M.connection_opened m;
  M.connection_closed m;
  M.request m `Solve;
  M.request m `Ping;
  M.request m `Stats;
  M.request m `Shutdown;
  M.request m `Peek;
  M.response_ok m;
  M.response_error m ~code:"overloaded";
  M.response_error m ~code:"bad_request";
  M.job m ~cache_hit:true ~error:false ~wall_s:0.25;
  M.job m ~cache_hit:false ~error:true ~wall_s:0.5;
  M.observe_solve m ~latency_s:0.125;
  M.worker_restart m;
  M.idle_eviction m;
  M.replay_hit m;
  M.write_overflow m;
  M.shed m ~reason:"queue_wait" ~priority:"interactive";
  M.shed m ~reason:"brownout" ~priority:"batch";
  M.deadline_exceeded m;
  M.set_admission m ~queue_depth:2 ~admitted:4 ~limit:6;
  H.check_prometheus_conformance ~min_samples:11 (M.to_prometheus (M.snapshot m))

(* ------------------------------------------------------------- replay *)

module R = Tt_server.Replay

let test_replay_cache () =
  let r = R.create ~capacity:2 in
  Alcotest.(check bool) "miss on empty" true (R.find r "a" = None);
  R.put r "a" P.Pong;
  R.put r "b" P.Draining;
  Alcotest.(check bool) "hit a" true (R.find r "a" = Some P.Pong);
  Alcotest.(check bool) "hit b" true (R.find r "b" = Some P.Draining);
  (* A key is written once: the first body wins. *)
  R.put r "a" P.Draining;
  Alcotest.(check bool) "first body kept" true (R.find r "a" = Some P.Pong);
  (* Capacity 2: inserting c evicts the oldest key (a). *)
  R.put r "c" P.Pong;
  Alcotest.(check bool) "oldest evicted" true (R.find r "a" = None);
  Alcotest.(check bool) "b survives" true (R.find r "b" <> None);
  Alcotest.(check bool) "c cached" true (R.find r "c" <> None);
  Alcotest.(check int) "length bounded" 2 (R.length r);
  Alcotest.(check int) "evictions counted" 1 (R.evictions r);
  Alcotest.(check int) "capacity" 2 (R.capacity r);
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Replay.create: capacity < 1") (fun () ->
      ignore (R.create ~capacity:0))

(* --------------------------------------------------------- end to end *)

let with_server ?config f =
  let t = Srv.create ?config () in
  Srv.start t;
  Fun.protect ~finally:(fun () -> Srv.shutdown t) (fun () -> f t)

let entries =
  [ "gen grid2d size=10 :: minmem; liu";
    "gen banded size=40 :: liu; postorder";
    "gen tridiagonal size=48 :: minmem; minio policy=first-fit budget=50%"
  ]

let local_jobs () =
  match Tt_engine.Manifest.parse (String.concat "\n" entries) with
  | Ok jobs -> jobs
  | Error e -> Alcotest.failf "manifest: %s" e

let test_ping_and_stats () =
  with_server (fun srv ->
      C.with_connection ~port:(Srv.port srv) (fun c ->
          Alcotest.(check bool) "pong" true (C.call c P.Ping = Ok P.Pong);
          match C.call c P.Stats with
          | Ok (P.Stats_reply j) ->
              Alcotest.(check bool) "has server section" true
                (Tt_engine.Telemetry.Json.member "server" j <> None)
          | _ -> Alcotest.fail "expected a stats reply"))

(* The acceptance criterion: results over the wire are byte-identical to
   `treetrav batch` on the same jobs — same sequence digest. *)
let test_digest_parity_with_batch () =
  let jobs = local_jobs () in
  let reports, _ = E.run_batch (E.create ~domains:1 ()) jobs in
  let expected = E.results_digest reports in
  with_server (fun srv ->
      C.with_connection ~port:(Srv.port srv) (fun c ->
          let all =
            List.concat_map
              (fun entry ->
                match C.solve c entry with
                | Ok r -> r
                | Error e -> Alcotest.failf "solve %S: %s" entry e)
              entries
          in
          Alcotest.(check int) "job count" (List.length jobs) (List.length all);
          Alcotest.(check string) "sequence digest matches treetrav batch"
            expected (P.sequence_digest all)))

let test_concurrent_loadgen () =
  let jobs = local_jobs () in
  let reports, _ = E.run_batch (E.create ~domains:1 ()) jobs in
  let expected_value = E.value_digest reports in
  with_server (fun srv ->
      let s =
        L.run
          { L.default_config with
            L.port = Srv.port srv;
            connections = 3;
            requests = 120;
            seed = 5;
            entries = Array.of_list entries
          }
      in
      Alcotest.(check int) "all requests issued" 120 s.L.requests;
      Alcotest.(check int) "all ok" 120 s.L.ok;
      Alcotest.(check bool) "no protocol errors" true (s.L.errors = []);
      Alcotest.(check int) "no transport errors" 0 s.L.transport_errors;
      Alcotest.(check bool) "value digest matches the batch engine" true
        (s.L.value_digest = Some expected_value);
      (* Server-side metrics agree with the client's observations:
         same request count, and the server's request latency (receipt
         to reply) cannot exceed what the client measured end-to-end. *)
      let m = dump (Srv.metrics srv) in
      Alcotest.(check int) "server counted every solve" 120
        (H.json_int m [ "requests"; "solve" ]);
      Alcotest.(check int) "server replied ok to every solve" 120
        (H.json_int m [ "responses"; "ok" ]);
      Alcotest.(check int) "server observed every latency" 120
        (H.json_int m [ "latency"; "count" ]);
      Alcotest.(check bool) "server p50 <= client p50" true
        (H.json_float m [ "latency"; "p50_s" ] <= s.L.p50_s +. 0.005))

let test_loadgen_transport_breakdown () =
  (* A vacated port: every request dies at connect, and the summary
     buckets the failures by kind instead of only counting them. *)
  let dead_port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    Unix.close fd;
    p
  in
  let s =
    L.run
      { L.default_config with
        L.port = dead_port;
        connections = 1;
        requests = 3;
        read_timeout_s = 1.;
        connect_timeout_s = Some 1.
      }
  in
  Alcotest.(check int) "all transport errors" 3 s.L.transport_errors;
  Alcotest.(check int) "breakdown sums to the total" 3
    (List.fold_left (fun a (_, n) -> a + n) 0 s.L.transport_breakdown);
  Alcotest.(check bool) "refused connections classified" true
    (List.mem_assoc "connect_refused" s.L.transport_breakdown);
  Alcotest.(check bool) "summary prints the breakdown" true
    (H.contains (L.summary_to_string s) "transport: connect_refused=3")

let test_overload () =
  let config =
    { Srv.default_config with Srv.workers = 1; queue_capacity = 1 }
  in
  (* The first request pins the single worker for ~100ms: an explicit tree
     (cheap to parse on the I/O domain) with ten distinct jobs (expensive to
     solve, and each spec distinct so the result cache cannot help).  The 29
     follow-ups are tiny and admitted in a few milliseconds, so with
     [queue_capacity = 1] all but one of them must bounce as [Overloaded]. *)
  let slow_entry =
    let rng = Tt_util.Rng.create 7 in
    let tree = Tt_core.Tree.random ~rng ~size:20_000 ~max_f:40 ~max_n:20 in
    Printf.sprintf
      "tree \"%s\" :: minmem; liu; postorder; \
       minio policy=first-fit budget=25%%; minio policy=first-fit budget=75%%; \
       minio policy=best-fill budget=25%%; minio policy=best-fill budget=75%%; \
       minio policy=lsnf budget=25%%; minio policy=lsnf budget=75%%; \
       schedule procs=4 mem=1.5"
      (Tt_core.Tree.to_string tree)
  in
  let tiny_entry k = Printf.sprintf "gen grid2d size=6 seed=%d :: minmem" k in
  with_server ~config (fun srv ->
      C.with_connection ~port:(Srv.port srv) (fun c ->
          let n = 30 in
          let ids =
            List.init n (fun k ->
                let id = C.fresh_id c in
                let entry = if k = 0 then slow_entry else tiny_entry k in
                C.send c
                  { P.id;
                    op = P.Solve { entry; timeout_s = None; idem = None; priority = P.Interactive }
                  };
                id)
          in
          let seen = Hashtbl.create 32 in
          let ok = ref 0 and overloaded = ref 0 and other = ref 0 in
          for _ = 1 to n do
            match C.recv c with
            | Error e -> Alcotest.failf "recv: %s" e
            | Ok { P.req_id; body } ->
                let id = Option.get req_id in
                Alcotest.(check bool) ("id answered once: " ^ id) false
                  (Hashtbl.mem seen id);
                Hashtbl.add seen id ();
                (match body with
                | P.Results _ -> incr ok
                | P.Refused { code = P.Overloaded; _ } -> incr overloaded
                | _ -> incr other)
          done;
          List.iter
            (fun id ->
              Alcotest.(check bool) ("reply for " ^ id) true (Hashtbl.mem seen id))
            ids;
          Alcotest.(check int) "every reply is ok or overloaded" 0 !other;
          Alcotest.(check bool) "some requests succeeded" true (!ok >= 1);
          Alcotest.(check bool) "full queue rejected some" true (!overloaded >= 1);
          Alcotest.(check int) "nothing lost, nothing duplicated" n (!ok + !overloaded)))

let test_deadline_exceeded () =
  with_server (fun srv ->
      C.with_connection ~port:(Srv.port srv) (fun c ->
          match
            C.call c
              (P.Solve
                 { entry = "gen grid2d size=10 :: minmem";
                   timeout_s = Some 0.;
                   idem = None;
                   priority = P.Interactive
                 })
          with
          | Ok (P.Refused { code = P.Deadline_exceeded; _ }) -> ()
          | Ok _ -> Alcotest.fail "a zero deadline must be refused"
          | Error e -> Alcotest.failf "call: %s" e))

let test_graceful_drain () =
  let config = { Srv.default_config with Srv.workers = 1 } in
  let srv = Srv.create ~config () in
  Srv.start srv;
  let port = Srv.port srv in
  C.with_connection ~port (fun c ->
      (* Pipeline work, then a shutdown frame: every admitted request
         must still be answered with real results. *)
      let solve_ids =
        List.init 3 (fun _ ->
            let id = C.fresh_id c in
            C.send c
              { P.id;
                op =
                  P.Solve
                    { entry = "gen grid2d size=12 :: minmem; liu";
                      timeout_s = None;
                      idem = None;
                      priority = P.Interactive
                    }
              };
            id)
      in
      let shutdown_id = C.fresh_id c in
      C.send c { P.id = shutdown_id; op = P.Shutdown };
      let results = ref 0 and draining = ref 0 in
      for _ = 1 to 4 do
        match C.recv c with
        | Error e -> Alcotest.failf "recv during drain: %s" e
        | Ok { P.req_id; body } -> (
            match body with
            | P.Results _ ->
                Alcotest.(check bool) "results id" true
                  (List.mem (Option.get req_id) solve_ids);
                incr results
            | P.Draining ->
                Alcotest.(check bool) "draining id" true
                  (req_id = Some shutdown_id);
                incr draining
            | _ -> Alcotest.fail "unexpected body during drain")
      done;
      Alcotest.(check int) "all admitted solves completed" 3 !results;
      Alcotest.(check int) "shutdown acknowledged" 1 !draining;
      (* A solve sent after the drain began is refused, not dropped. *)
      match
        C.call c
          (P.Solve
             { entry = "gen grid2d size=8 :: minmem";
               timeout_s = None;
               idem = None;
               priority = P.Interactive
             })
      with
      | Ok (P.Refused { code = P.Shutting_down; _ }) | Error _ ->
          (* Error covers the race where the server already closed the
             connection after draining it. *)
          ()
      | Ok _ -> Alcotest.fail "draining server accepted new work");
  Srv.shutdown srv;
  (* The listener is gone: new connections are refused. *)
  match C.connect ~port () with
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | c ->
      C.close c;
      Alcotest.fail "listener still accepting after shutdown"

(* A request smeared across many tiny TCP writes (with flushes and
   delays between them) is reassembled into one frame, decoded once,
   and replied to exactly once. *)
let test_partial_frame_reassembly () =
  with_server (fun srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Srv.port srv));
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
          let len = String.length line in
          let i = ref 0 in
          while !i < len do
            let n = min 5 (len - !i) in
            assert (Unix.write_substring fd line !i n = n);
            i := !i + n;
            Unix.sleepf 0.002
          done;
          (* Exactly one reply line comes back... *)
          let buf = Bytes.create 65536 in
          let acc = Buffer.create 256 in
          let deadline = Unix.gettimeofday () +. 5. in
          while
            (not (String.contains (Buffer.contents acc) '\n'))
            && Unix.gettimeofday () < deadline
          do
            match Unix.select [ fd ] [] [] 0.5 with
            | [], _, _ -> ()
            | _ ->
                let n = Unix.read fd buf 0 (Bytes.length buf) in
                if n = 0 then Alcotest.fail "server closed before replying";
                Buffer.add_subbytes acc buf 0 n
          done;
          let text = Buffer.contents acc in
          (match String.index_opt text '\n' with
          | None -> Alcotest.fail "no reply within 5s"
          | Some nl -> (
              Alcotest.(check int) "single reply line" nl
                (String.length text - 1);
              match P.decode_response (String.sub text 0 nl) with
              | Ok { P.req_id = Some "frag"; body = P.Results _ } -> ()
              | Ok _ -> Alcotest.fail "unexpected reply to fragmented solve"
              | Error e -> Alcotest.failf "undecodable reply: %s" e));
          (* ... and no second one follows. *)
          (match Unix.select [ fd ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ ->
              Alcotest.(check int) "no extra bytes" 0
                (Unix.read fd buf 0 (Bytes.length buf)));
          let m = dump (Srv.metrics srv) in
          Alcotest.(check int) "decoded exactly one solve" 1 (H.json_int m [ "requests"; "solve" ]);
          Alcotest.(check int) "replied exactly once" 1 (H.json_int m [ "responses"; "ok" ])))

let test_idle_eviction () =
  let config = { Srv.default_config with Srv.idle_timeout_s = 0.2 } in
  with_server ~config (fun srv ->
      let c = C.connect ~read_timeout_s:5. ~port:(Srv.port srv) () in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          Alcotest.(check bool) "alive" true (C.call c P.Ping = Ok P.Pong);
          (* Go quiet past the timeout: the server must cut us loose. *)
          (match C.recv c with
          | Error _ -> ()  (* EOF once evicted *)
          | Ok _ -> Alcotest.fail "unsolicited reply from idle server");
          let m = dump (Srv.metrics srv) in
          Alcotest.(check bool) "eviction counted" true
            (H.json_int m [ "resilience"; "idle_evictions" ] >= 1);
          (* The EOF the client just saw races the server's gauge
             decrement by a few microseconds — poll briefly. *)
          let deadline = Unix.gettimeofday () +. 2. in
          let rec active () =
            let n = H.json_int (dump (Srv.metrics srv)) [ "connections"; "active" ] in
            if n > 0 && Unix.gettimeofday () < deadline then begin
              Unix.sleepf 0.01;
              active ()
            end
            else n
          in
          Alcotest.(check int) "connection reaped" 0 (active ())))

let test_max_inflight () =
  (* One worker pinned by a slow request, [max_inflight = 1]: further
     pipelined solves on the same connection bounce as overloaded even
     though the admission queue has room. *)
  let config =
    { Srv.default_config with
      Srv.workers = 1;
      queue_capacity = 64;
      max_inflight = 1
    }
  in
  let slow_entry =
    let rng = Tt_util.Rng.create 21 in
    let tree = Tt_core.Tree.random ~rng ~size:20_000 ~max_f:40 ~max_n:20 in
    Printf.sprintf
      "tree \"%s\" :: minmem; liu; postorder; \
       minio policy=first-fit budget=25%%; minio policy=best-fill budget=75%%; \
       schedule procs=4 mem=1.5"
      (Tt_core.Tree.to_string tree)
  in
  with_server ~config (fun srv ->
      C.with_connection ~port:(Srv.port srv) (fun c ->
          let n = 6 in
          let ids =
            List.init n (fun k ->
                let id = C.fresh_id c in
                let entry =
                  if k = 0 then slow_entry
                  else Printf.sprintf "gen grid2d size=6 seed=%d :: minmem" k
                in
                C.send c
                  { P.id;
                    op = P.Solve { entry; timeout_s = None; idem = None; priority = P.Interactive }
                  };
                id)
          in
          let seen = Hashtbl.create 16 in
          let ok = ref 0 and overloaded = ref 0 in
          for _ = 1 to n do
            match C.recv c with
            | Error e -> Alcotest.failf "recv: %s" e
            | Ok { P.req_id; body } -> (
                let id = Option.get req_id in
                Alcotest.(check bool) ("one reply for " ^ id) false
                  (Hashtbl.mem seen id);
                Hashtbl.add seen id ();
                match body with
                | P.Results _ -> incr ok
                | P.Refused { code = P.Overloaded; msg } ->
                    Alcotest.(check bool) "refusal names the in-flight limit"
                      true (H.contains msg "in-flight");
                    incr overloaded
                | _ -> Alcotest.fail "unexpected reply body")
          done;
          List.iter
            (fun id ->
              Alcotest.(check bool) ("reply for " ^ id) true
                (Hashtbl.mem seen id))
            ids;
          Alcotest.(check bool) "cap rejected some" true (!overloaded >= 1);
          Alcotest.(check int) "nothing lost" n (!ok + !overloaded)))

let test_replay_dedup () =
  with_server (fun srv ->
      C.with_connection ~port:(Srv.port srv) (fun c ->
          let entry = "gen grid2d size=10 :: minmem; liu" in
          let first =
            match C.solve c ~idem:"dup-1" entry with
            | Ok r -> r
            | Error e -> Alcotest.failf "first solve: %s" e
          in
          let second =
            match C.solve c ~idem:"dup-1" entry with
            | Ok r -> r
            | Error e -> Alcotest.failf "replayed solve: %s" e
          in
          Alcotest.(check string) "replay returns the identical body"
            (P.sequence_digest first) (P.sequence_digest second);
          Alcotest.(check bool) "wall times replayed verbatim" true
            (List.map (fun r -> r.P.wall_s) first
            = List.map (fun r -> r.P.wall_s) second);
          (* A different key executes afresh. *)
          (match C.solve c ~idem:"dup-2" entry with
          | Ok r ->
              Alcotest.(check string) "same results under a new key"
                (P.sequence_digest first) (P.sequence_digest r)
          | Error e -> Alcotest.failf "fresh-key solve: %s" e);
          let m = dump (Srv.metrics srv) in
          Alcotest.(check int) "one replay hit" 1 (H.json_int m [ "resilience"; "replay_hits" ]);
          (* The replayed request never reached the engine: only two
             executions' worth of jobs ran. *)
          Alcotest.(check int) "replay skipped the engine" 4 (H.json_int m [ "jobs"; "total" ])))

let test_worker_crash_supervision () =
  (* Every admitted request rolls a 30% chance of killing its worker
     domain; the supervisor answers [internal] for the in-flight
     request and respawns. Client-side retries (fresh admission, fresh
     roll) must then land every request, with at least one restart
     observed and exactly one reply per request id. *)
  let faults =
    match Tt_engine.Fault.of_string "crash=0.3,seed=11" with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  let config =
    { Srv.default_config with Srv.workers = 2; worker_faults = Some faults }
  in
  with_server ~config (fun srv ->
      let session =
        C.open_session ~port:(Srv.port srv)
          ~retry:
            (Tt_engine.Retry.create ~retries:10 ~base_delay_s:0.005
               ~max_delay_s:0.05 ~seed:3 ())
          ~tag:"crash" ()
      in
      Fun.protect
        ~finally:(fun () -> C.close_session session)
        (fun () ->
          for i = 1 to 20 do
            let entry =
              Printf.sprintf "gen grid2d size=8 seed=%d :: minmem" i
            in
            match C.session_solve session entry with
            | Ok _ -> ()
            | Error f ->
                Alcotest.failf "request %d lost to faults: %s" i
                  (C.failure_to_string f)
          done);
      let m = dump (Srv.metrics srv) in
      Alcotest.(check bool) "at least one worker restart" true
        (H.json_int m [ "resilience"; "worker_restarts" ] >= 1);
      Alcotest.(check bool) "crashes were answered with internal" true
        (H.json_at m [ "responses"; "errors"; "internal" ] <> None))

let test_worker_wedge_supervision () =
  (* Injected delays up to 1.5s against a 0.2s deadline and 0.15s
     wedge grace: wedged workers are detected, their requests answered
     [internal], and replacements staffed. Every request gets exactly
     one reply (results, deadline_exceeded, or internal). *)
  let faults =
    match Tt_engine.Fault.of_string "delay=1.0,max-delay=1.5,seed=4" with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  let config =
    { Srv.default_config with
      Srv.workers = 1;
      wedge_grace_s = 0.15;
      worker_faults = Some faults
    }
  in
  with_server ~config (fun srv ->
      C.with_connection ~read_timeout_s:10. ~port:(Srv.port srv) (fun c ->
          let outcomes = Hashtbl.create 8 in
          let bump k =
            Hashtbl.replace outcomes k
              (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k))
          in
          for i = 1 to 6 do
            let entry =
              Printf.sprintf "gen grid2d size=8 seed=%d :: minmem" i
            in
            match C.call c (P.Solve { entry; timeout_s = Some 0.2; idem = None; priority = P.Interactive }) with
            | Ok (P.Results _) -> bump "ok"
            | Ok (P.Refused { code; _ }) -> bump (P.error_code_to_string code)
            | Ok _ -> Alcotest.fail "unexpected reply body"
            | Error e -> Alcotest.failf "request %d: %s" i e
          done;
          let total = Hashtbl.fold (fun _ v a -> a + v) outcomes 0 in
          Alcotest.(check int) "exactly one reply per request" 6 total;
          Hashtbl.iter
            (fun k _ ->
              Alcotest.(check bool) ("outcome " ^ k) true
                (List.mem k [ "ok"; "deadline_exceeded"; "internal" ]))
            outcomes);
      let m = dump (Srv.metrics srv) in
      Alcotest.(check bool) "wedged worker replaced" true
        (H.json_int m [ "resilience"; "worker_restarts" ] >= 1))

let test_client_read_timeout () =
  (* A listener that accepts (via backlog) but never replies: the
     client's read deadline must fire instead of hanging forever. *)
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen lfd 4;
      let port =
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      let c = C.connect ~read_timeout_s:0.2 ~port () in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          match C.call c P.Ping with
          | Ok _ -> Alcotest.fail "a silent server cannot produce a reply"
          | Error msg ->
              Alcotest.(check bool) "timeout is reported as such" true
                (H.contains msg "timed out");
              Alcotest.(check bool) "returned promptly" true
                (Unix.gettimeofday () -. t0 < 5.)))

let test_stats_sections () =
  with_server (fun srv ->
      C.with_connection ~port:(Srv.port srv) (fun c ->
          (match C.solve c "gen grid2d size=8 :: minmem" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "solve: %s" e);
          match C.call c P.Stats with
          | Ok (P.Stats_reply j) ->
              let module Json = Tt_engine.Telemetry.Json in
              let int_at section field =
                match
                  Option.bind (Json.member section j) (Json.member field)
                with
                | Some (Json.Int n) -> n
                | _ -> Alcotest.failf "missing %s.%s" section field
              in
              Alcotest.(check bool) "admission.pushed counted" true
                (int_at "admission" "pushed" >= 1);
              Alcotest.(check int) "admission.rejected" 0
                (int_at "admission" "rejected");
              Alcotest.(check bool) "admission.high_watermark" true
                (int_at "admission" "high_watermark" >= 1);
              Alcotest.(check bool) "replay.capacity present" true
                (int_at "replay" "capacity" >= 1)
          | _ -> Alcotest.fail "expected a stats reply"))

let () =
  H.run "server"
    [ ( "protocol",
        [ H.case "error codes" test_error_code_strings;
          H.case "request round trip" test_request_round_trip;
          H.case "request decode errors" test_request_decode_errors;
          H.case "response round trip" test_response_round_trip;
          H.case "digests" test_digests
        ] );
      ( "line reader",
        [ H.qcheck "lines as split_on_char gives them" (arb_frames ~max_len:(3 * read_size))
            prop_lines_like_split;
          H.qcheck "one Too_long past the cap"
            (QCheck.pair (arb_frames ~max_len:read_size) (QCheck.int_range 1 (2 * read_size)))
            prop_one_too_long;
          H.case "a 1 MiB frame allocates under 4x" test_line_reader_allocation
        ] );
      ( "admission",
        [ H.case "fifo" test_admission_fifo;
          H.case "bounds" test_admission_bounds;
          H.case "close" test_admission_close
        ] );
      ( "metrics",
        [ H.case "counters" test_metrics_counters;
          H.case "latency" test_metrics_latency;
          H.case "prometheus" test_metrics_prometheus;
          H.case "prometheus conformance" test_prometheus_conformance
        ] );
      ("replay", [ H.case "bounded cache" test_replay_cache ]);
      ( "server",
        [ H.case "ping and stats" test_ping_and_stats;
          H.case "digest parity with batch" test_digest_parity_with_batch;
          H.case "concurrent loadgen" test_concurrent_loadgen;
          H.case "loadgen transport breakdown" test_loadgen_transport_breakdown;
          H.case "overload rejection" test_overload;
          H.case "deadline exceeded" test_deadline_exceeded;
          H.case "graceful drain" test_graceful_drain;
          H.case "partial frame reassembly" test_partial_frame_reassembly;
          H.case "idle eviction" test_idle_eviction;
          H.case "max inflight per connection" test_max_inflight;
          H.case "replay dedup" test_replay_dedup;
          H.case "stats sections" test_stats_sections
        ] );
      ( "supervision",
        [ H.case "worker crash" test_worker_crash_supervision;
          H.case "worker wedge" test_worker_wedge_supervision
        ] );
      ("client", [ H.case "read timeout" test_client_read_timeout ])
    ]
