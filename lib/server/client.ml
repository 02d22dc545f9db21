module P = Protocol
module Retry = Tt_engine.Retry

let default_read_timeout_s = 30.

(* ------------------------------------------------------ one connection *)

type t = {
  fd : Unix.file_descr;
  reader : Line_reader.t;
  replies : string Queue.t;  (* framed but not yet returned by [recv] *)
  mutable next_id : int;
  read_timeout_s : float;
  mutable is_closed : bool;
}

(* Bounded connect: non-blocking [connect], wait for writability, then
   read the socket error back. A dead-but-routable endpoint otherwise
   blocks for the kernel's SYN-retry budget (minutes) — too slow for
   failover, which needs to move to the ring successor quickly. *)
let connect_bounded fd addr timeout_s =
  Unix.set_nonblock fd;
  (match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec wait () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then
          raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
        else
          match Unix.select [] [ fd ] [] remaining with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | _, [ _ ], _ -> (
              match Unix.getsockopt_error fd with
              | None -> ()
              | Some e -> raise (Unix.Unix_error (e, "connect", "")))
          | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
      in
      wait ());
  Unix.clear_nonblock fd

let connect ?(host = "127.0.0.1") ?(read_timeout_s = default_read_timeout_s)
    ?connect_timeout_s ~port () =
  (* A write to a connection the server already closed must surface as
     an [Error], not kill the process. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match connect_timeout_s with
  | Some s when s <= 0. -> invalid_arg "Client.connect: connect_timeout_s <= 0"
  | _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     let addr = Unix.ADDR_INET (Reactor.resolve host, port) in
     match connect_timeout_s with
     | None -> Unix.connect fd addr
     | Some s -> connect_bounded fd addr s
   with e ->
     Unix.close fd;
     raise e);
  (* Request/response framing over three hops (client, router, ingress
     proxy): Nagle batching against delayed ACKs adds tens of
     milliseconds per hop to every newline-framed exchange. *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { fd;
    reader = Line_reader.create ~limit:max_int;
    replies = Queue.create ();
    next_id = 0;
    read_timeout_s;
    is_closed = false
  }

let fd t = t.fd

let close t =
  if not t.is_closed then begin
    t.is_closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_connection ?host ?read_timeout_s ?connect_timeout_s ~port f =
  let t = connect ?host ?read_timeout_s ?connect_timeout_s ~port () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let fresh_id t =
  let id = Printf.sprintf "c%d" t.next_id in
  t.next_id <- t.next_id + 1;
  id

let send t req =
  let line = P.encode_request req ^ "\n" in
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring t.fd line !off (len - !off)
  done

(* One read buffer per domain, shared by every connection that domain
   reads: a fresh 64 KB [Bytes] per read went straight to the major
   heap, and a router opens a connection per forward leg, peer peek and
   health probe. A domain reads one connection at a time, so one buffer
   is enough. *)
let read_buf = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* The next reply line, reading more from the socket (bounded by the
   read deadline) as needed. Every failure mode — EOF, timeout,
   ECONNRESET and friends — comes back as [Error], never as an
   exception. *)
let recv t =
  let deadline = Unix.gettimeofday () +. t.read_timeout_s in
  let buf = Domain.DLS.get read_buf in
  let rec line () =
    match Queue.take_opt t.replies with
    | Some raw -> P.decode_response raw
    | None -> fill ()
  and fill () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then
      Error
        (Printf.sprintf "read timed out after %gs waiting for a reply"
           t.read_timeout_s)
    else
      match Unix.select [ t.fd ] [] [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | [], _, _ ->
          Error
            (Printf.sprintf "read timed out after %gs waiting for a reply"
               t.read_timeout_s)
      | _ -> (
          match Unix.read t.fd buf 0 (Bytes.length buf) with
          | 0 -> Error "connection closed by server"
          | n -> (
              (* replies are unbounded: the reader's limit is [max_int] *)
              match Line_reader.feed t.reader buf n (fun l -> Queue.push l t.replies) with
              | Ok () | Error Line_reader.Too_long -> line ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | exception Sys_error e -> Error e)
  in
  line ()

let call t op =
  let id = fresh_id t in
  (* A send failure may still leave a reply (or an error frame) already
     buffered on the wire, so always attempt the read. *)
  (match send t { P.id; op } with
  | () -> ()
  | exception Sys_error _ -> ()
  | exception Unix.Unix_error _ -> ());
  match recv t with
  | Error _ as e -> e
  | Ok { P.req_id; body } ->
      (* [req_id = None] happens only for unparseable frames — ours are
         well-formed, so any reply on this single-outstanding-request
         connection must echo our id. *)
      if req_id <> None && req_id <> Some id then
        Error
          (Printf.sprintf "response id mismatch: sent %s, got %s" id
             (Option.value ~default:"null" req_id))
      else Ok body

let solve t ?timeout_s ?idem ?(priority = P.Interactive) entry =
  match call t (P.Solve { entry; timeout_s; idem; priority }) with
  | Error _ as e -> e
  | Ok (P.Results reports) -> Ok reports
  | Ok (P.Refused { code; msg }) ->
      Error (Printf.sprintf "%s: %s" (P.error_code_to_string code) msg)
  | Ok (P.Stats_reply _ | P.Health_reply _ | P.Pong | P.Draining | P.Peeked _)
    ->
      Error "unexpected response body for solve"

(* --------------------------------------------------- resilient session *)

type failure =
  | Refused of P.error_code * string
  | Transport of string

let failure_to_string = function
  | Refused (code, msg) ->
      Printf.sprintf "%s: %s" (P.error_code_to_string code) msg
  | Transport msg -> "transport: " ^ msg

type session = {
  s_host : string;
  s_port : int;
  s_read_timeout_s : float;
  s_connect_timeout_s : float option;
  s_retry : Retry.policy;
  s_tag : string;
  mutable s_conn : t option;
  mutable s_seq : int;
}

let open_session ?(host = "127.0.0.1") ?(read_timeout_s = default_read_timeout_s)
    ?connect_timeout_s ?(retry = Retry.none) ?(tag = "s") ~port () =
  { s_host = host;
    s_port = port;
    s_read_timeout_s = read_timeout_s;
    s_connect_timeout_s = connect_timeout_s;
    s_retry = retry;
    s_tag = tag;
    s_conn = None;
    s_seq = 0
  }

let close_session s =
  Option.iter close s.s_conn;
  s.s_conn <- None

let session_drop s =
  close_session s

let session_conn s =
  match s.s_conn with
  | Some c -> Ok c
  | None -> (
      match
        connect ~host:s.s_host ~read_timeout_s:s.s_read_timeout_s
          ?connect_timeout_s:s.s_connect_timeout_s ~port:s.s_port ()
      with
      | c ->
          s.s_conn <- Some c;
          Ok c
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | exception Failure msg -> Error msg)

(* Transient refusals: the server is alive and answered, but retrying
   later can succeed. [Deadline_exceeded] is deliberately {e not} here —
   it is retry-hint-free: the budget is spent, and retrying the same
   request under the same (now smaller) budget can only waste server
   work. Everything else ([Bad_request] & co.) is deterministic —
   retrying would just repeat it. *)
let retryable = function
  | P.Overloaded | P.Internal | P.Unavailable -> true
  | P.Bad_frame | P.Bad_request | P.Unsupported_version | P.Deadline_exceeded
  | P.Shutting_down ->
      false

let session_solve s ?timeout_s ?idem ?(priority = P.Interactive) entry =
  let key =
    match idem with
    | Some k -> k
    | None ->
        let k = Printf.sprintf "%s-%d" s.s_tag s.s_seq in
        s.s_seq <- s.s_seq + 1;
        k
  in
  (* The deadline is absolute, fixed at the first attempt: every retry
     forwards only the budget that remains, and the loop refuses
     locally — without burning a connection or a backoff sleep — once
     the budget is gone. *)
  let deadline =
    Option.map (fun t -> Unix.gettimeofday () +. t) timeout_s
  in
  let remaining () =
    Option.map (fun d -> d -. Unix.gettimeofday ()) deadline
  in
  let deadline_error () =
    Error
      (Refused
         (P.Deadline_exceeded, "deadline budget exhausted before attempt"))
  in
  let attempt () =
    match remaining () with
    | Some r when r <= 0. -> deadline_error ()
    | r -> (
        let op = P.Solve { entry; timeout_s = r; idem = Some key; priority } in
        match session_conn s with
        | Error msg -> Error (Transport msg)
        | Ok c -> (
            match call c op with
            | Error msg ->
                (* The connection is in an unknown state (half-written
                   frame, stale buffered bytes): drop it so the next
                   attempt reconnects. The idempotency key makes the
                   retry safe even if the solve actually ran. *)
                session_drop s;
                Error (Transport msg)
            | Ok (P.Results reports) -> Ok reports
            | Ok (P.Refused { code; msg }) -> Error (Refused (code, msg))
            | Ok
                (P.Stats_reply _ | P.Health_reply _ | P.Pong | P.Draining
                | P.Peeked _) ->
                session_drop s;
                Error (Transport "unexpected response body for solve")))
  in
  (* [Retry.delays] yields the gaps between attempts (one per retry);
     seeding by key keeps each request's backoff schedule deterministic
     and decorrelated from its neighbours'. A sleep that would land
     past the deadline is not taken: the attempt after it could only be
     refused, so the loop returns a terminal [Deadline_exceeded]
     instead of burning the budget asleep. *)
  let rec go delays =
    match attempt () with
    | Ok _ as ok -> ok
    | Error (Refused (code, _)) as e when not (retryable code) -> e
    | Error _ as e -> (
        match delays with
        | [] -> e
        | d :: rest -> (
            match remaining () with
            | Some r when r <= d -> deadline_error ()
            | _ ->
                if d > 0. then Unix.sleepf d;
                go rest))
  in
  go (Retry.delays s.s_retry ~key)
