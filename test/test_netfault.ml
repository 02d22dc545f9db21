(* Tests for the netfault chaos proxy: spec parsing, decision
   determinism, transparent passthrough, and the headline invariant —
   a seeded load run through an injecting proxy converges to the same
   order-insensitive value digest as a clean run. *)

module N = Tt_server.Netfault
module Srv = Tt_server.Server
module L = Tt_server.Loadgen
module E = Tt_engine.Executor
module H = Helpers

(* ------------------------------------------------------------- specs *)

let test_spec_round_trip () =
  let f =
    N.create_faults ~drop:0.05 ~truncate:0.03 ~stall:0.1 ~split:0.3
      ~max_stall_s:0.02 ~window:128 ~seed:9 ()
  in
  (match N.faults_of_string (N.faults_to_string f) with
  | Ok g -> Alcotest.(check bool) "round trips" true (g = f)
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (match N.faults_of_string "seed=3" with
  | Ok g ->
      Alcotest.(check bool) "defaults are transparent" true
        (g = { N.none with N.seed = 3 })
  | Error e -> Alcotest.failf "minimal spec: %s" e);
  (* [truncate] is a synonym for [trunc]. *)
  match (N.faults_of_string "trunc=0.2,seed=1", N.faults_of_string "truncate=0.2,seed=1") with
  | Ok a, Ok b -> Alcotest.(check bool) "trunc synonym" true (a = b)
  | _ -> Alcotest.fail "synonym spec rejected"

let test_spec_errors () =
  let expect_error spec =
    match N.faults_of_string spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
  in
  expect_error "warp=0.5";
  expect_error "drop=1.5";
  expect_error "drop=-0.1";
  expect_error "drop=0.6,stall=0.6";  (* rates sum past 1 *)
  expect_error "window=0";
  expect_error "drop=x";
  expect_error "drop";
  Alcotest.check_raises "create_faults validates too"
    (Invalid_argument "Netfault.create_faults: rates sum to more than 1")
    (fun () -> ignore (N.create_faults ~drop:0.7 ~split:0.7 ~seed:0 ()))

(* ---------------------------------------------------------- decisions *)

let test_decision_determinism () =
  let f =
    N.create_faults ~drop:0.2 ~truncate:0.2 ~stall:0.2 ~split:0.2 ~seed:42 ()
  in
  (* Pure: the same coordinates always yield the same action. *)
  for conn = 0 to 5 do
    List.iter
      (fun dir ->
        for window = 0 to 20 do
          let a = N.decision f ~conn ~dir ~window in
          let b = N.decision f ~conn ~dir ~window in
          Alcotest.(check string) "deterministic" (N.describe a) (N.describe b)
        done)
      [ `Up; `Down ]
  done;
  (* With rates this high, 252 decisions must inject something, and
     distinct coordinates must not all agree (the seed really keys per
     coordinate, not globally). *)
  let actions =
    List.concat_map
      (fun conn ->
        List.init 21 (fun window ->
            N.decision f ~conn ~dir:`Up ~window))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some faults injected" true
    (List.exists (fun a -> a <> N.Forward) actions);
  Alcotest.(check bool) "some windows forward" true
    (List.exists (fun a -> a = N.Forward) actions);
  (* All-zero rates are a transparent wire. *)
  for window = 0 to 50 do
    Alcotest.(check bool) "none is transparent" true
      (N.decision N.none ~conn:0 ~dir:`Up ~window = N.Forward)
  done

(* ------------------------------------------------------- passthrough *)

let entries =
  [| "gen grid2d size=10 :: minmem; liu";
     "gen banded size=40 :: liu; postorder";
     "gen tridiagonal size=48 :: minmem"
  |]

let expected_value_digest () =
  let jobs =
    match
      Tt_engine.Manifest.parse (String.concat "\n" (Array.to_list entries))
    with
    | Ok jobs -> jobs
    | Error e -> Alcotest.failf "manifest: %s" e
  in
  let reports, _ = E.run_batch (E.create ~domains:1 ()) jobs in
  E.value_digest reports

let with_server ?config f =
  let t = Srv.create ?config () in
  Srv.start t;
  Fun.protect ~finally:(fun () -> Srv.shutdown t) (fun () -> f t)

(* A zero-rate proxy in front of a live server is invisible: every
   request succeeds and the digest matches the direct batch engine. *)
let test_transparent_passthrough () =
  let expected = expected_value_digest () in
  with_server (fun srv ->
      let p = N.create ~upstream_port:(Srv.port srv) () in
      N.start p;
      Fun.protect
        ~finally:(fun () -> N.shutdown p)
        (fun () ->
          let s =
            L.run
              { L.default_config with
                L.port = N.port p;
                connections = 1;
                requests = 30;
                seed = 2;
                entries
              }
          in
          Alcotest.(check int) "all ok" 30 s.L.ok;
          Alcotest.(check bool) "digest parity" true
            (s.L.value_digest = Some expected);
          let st = N.stats p in
          Alcotest.(check int) "one connection proxied" 1 st.N.connections;
          Alcotest.(check int) "nothing injected" 0 (N.injected st);
          Alcotest.(check bool) "bytes actually flowed" true
            (st.N.forwarded_bytes > 0)))

let wait_until ?(timeout_s = 5.) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* The server counts a connection closed when its I/O loop reads the
   client's EOF, which can come after the client's run returns: poll. *)
let no_leaked_connections srv =
  wait_until (fun () ->
      let m = Tt_server.Metrics.(to_json (snapshot (Srv.metrics srv))) in
      H.json_int m [ "connections"; "active" ] = 0)

(* The headline invariant: a seeded load run through an injecting
   proxy, with retries and idempotency keys, converges to the same
   value digest as a clean run — and the proxy really did inject. *)
let test_chaos_digest_parity () =
  let expected = expected_value_digest () in
  with_server (fun srv ->
      let clean =
        L.run
          { L.default_config with
            L.port = Srv.port srv;
            connections = 2;
            requests = 60;
            seed = 7;
            entries;
            tag = "nfclean"
          }
      in
      Alcotest.(check bool) "clean run matches batch engine" true
        (clean.L.value_digest = Some expected);
      let faults =
        N.create_faults ~drop:0.04 ~truncate:0.03 ~stall:0.08 ~split:0.25
          ~max_stall_s:0.01 ~seed:13 ()
      in
      let chaos =
        L.run
          { L.default_config with
            L.port = Srv.port srv;
            connections = 2;
            requests = 60;
            seed = 7;
            entries;
            tag = "nfchaos";
            chaos = Some faults;
            retry =
              Tt_engine.Retry.create ~retries:8 ~base_delay_s:0.005
                ~max_delay_s:0.05 ~seed:5 ()
          }
      in
      Alcotest.(check int) "every request eventually succeeded" 60 chaos.L.ok;
      Alcotest.(check bool) "no lost replies" true (chaos.L.errors = []);
      Alcotest.(check bool) "same value digest as the clean run" true
        (chaos.L.value_digest = clean.L.value_digest);
      (match chaos.L.proxy with
      | None -> Alcotest.fail "chaos run must report proxy stats"
      | Some st ->
          Alcotest.(check bool) "faults were actually injected" true
            (N.injected st >= 1));
      (* The server never saw a half-open mess it couldn't clean up. *)
      Alcotest.(check bool) "no connections leaked" true (no_leaked_connections srv))

(* ------------------------------------------------------------- gates *)

(* Severing is symmetric by construction — one gate cuts both
   directions at once. While severed every request dies as a transport
   failure; after healing, the same workload through the same proxy
   converges to the clean digest and nothing is left half-open. *)
let test_gate_sever_heal () =
  let expected = expected_value_digest () in
  with_server (fun srv ->
      let p = N.create ~upstream_port:(Srv.port srv) () in
      N.start p;
      Fun.protect
        ~finally:(fun () -> N.shutdown p)
        (fun () ->
          Alcotest.(check bool) "starts open" true (N.gate p = N.Gate_open);
          N.set_gate p N.Gate_severed;
          let failed =
            try
              Tt_server.Client.with_connection ~port:(N.port p)
                ~read_timeout_s:1.0 (fun c ->
                  match Tt_server.Client.solve c entries.(0) with
                  | Ok _ -> false
                  | Error _ -> true)
            with Unix.Unix_error _ | Failure _ -> true
          in
          Alcotest.(check bool) "request during partition fails" true failed;
          N.set_gate p N.Gate_open;
          let s =
            L.run
              { L.default_config with
                L.port = N.port p;
                connections = 2;
                requests = 40;
                seed = 3;
                entries;
                tag = "nfheal";
                retry =
                  Tt_engine.Retry.create ~retries:6 ~base_delay_s:0.01
                    ~max_delay_s:0.05 ~seed:4 ()
              }
          in
          Alcotest.(check int) "all ok after heal" 40 s.L.ok;
          Alcotest.(check bool) "digest parity restored" true
            (s.L.value_digest = Some expected);
          let st = N.stats p in
          Alcotest.(check bool) "severed connections counted" true
            (st.N.severed >= 1);
          Alcotest.(check bool) "no leaked connections" true
            (no_leaked_connections srv)))

(* A stalled gate parks bytes instead of cutting: the client's read
   times out while the gate is closed, and traffic flows again the
   moment it reopens. *)
let test_gate_stall_resume () =
  let expected = expected_value_digest () in
  with_server (fun srv ->
      let p = N.create ~upstream_port:(Srv.port srv) () in
      N.start p;
      Fun.protect
        ~finally:(fun () -> N.shutdown p)
        (fun () ->
          N.set_gate p N.Gate_stalled;
          let timed_out =
            try
              Tt_server.Client.with_connection ~port:(N.port p)
                ~read_timeout_s:0.3 (fun c ->
                  match Tt_server.Client.solve c entries.(0) with
                  | Ok _ -> false
                  | Error _ -> true)
            with Unix.Unix_error _ | Failure _ -> true
          in
          Alcotest.(check bool) "read times out while stalled" true timed_out;
          N.set_gate p N.Gate_open;
          let s =
            L.run
              { L.default_config with
                L.port = N.port p;
                connections = 1;
                requests = 10;
                seed = 5;
                entries;
                tag = "nfstall"
              }
          in
          Alcotest.(check int) "all ok after reopen" 10 s.L.ok;
          Alcotest.(check bool) "digest parity after reopen" true
            (s.L.value_digest = Some expected);
          Alcotest.(check bool) "no leaked connections" true
            (no_leaked_connections srv)))

let () =
  H.run "netfault"
    [ ( "spec",
        [ H.case "round trip" test_spec_round_trip;
          H.case "errors" test_spec_errors
        ] );
      ("decision", [ H.case "determinism" test_decision_determinism ]);
      ( "proxy",
        [ H.case "transparent passthrough" test_transparent_passthrough;
          H.case "chaos digest parity" test_chaos_digest_parity
        ] );
      ( "gate",
        [ H.case "sever and heal" test_gate_sever_heal;
          H.case "stall and resume" test_gate_stall_resume
        ] )
    ]
