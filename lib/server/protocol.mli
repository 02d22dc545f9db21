(** The `treetrav serve` wire protocol.

    {b Framing.} One frame per line: a single-line JSON object (the
    subset {!Tt_engine.Telemetry.Json} emits) terminated by ['\n'];
    a trailing ['\r'] is tolerated. Frames longer than
    {!max_frame_bytes} are rejected. Requests and responses both carry
    the protocol version [v] (currently {!version}) and a client-chosen
    request id echoed back verbatim, so clients may pipeline requests
    over one connection and match replies by id. Responses to one
    connection's requests come back on that connection, though —
    because requests run concurrently on worker domains — not
    necessarily in request order.

    {b Requests.}
    {v
    {"v":1,"id":"r1","op":"solve","entry":"gen grid2d size=16 :: minmem; liu","timeout_s":5}
    {"v":1,"id":"r2","op":"stats"}
    {"v":1,"id":"r3","op":"ping"}
    {"v":1,"id":"r4","op":"shutdown"}
    v}
    A [solve] entry is one line of the `treetrav batch` manifest
    grammar (see {!Tt_engine.Manifest}) with a [gen] or [tree] source:
    a [file] source is refused with [bad_request] before its path is
    opened ({!Tt_engine.Manifest.parse_wire}). Its jobs run in order on
    one worker. [timeout_s] is the per-request deadline (seconds; 0 means
    already expired), clamped below the server's configured maximum.

    {b Responses.}
    {v
    {"v":1,"id":"r1","ok":true,"results":[{"job":"<hex id>","label":"…",
      "spec":"min-memory:minmem","cache_hit":false,"wall_s":0.0012,
      "result":{"ok":true,"kind":"memory","peak":42,"order":[…]}}]}
    {"v":1,"id":"r2","ok":true,"stats":{…}}
    {"v":1,"id":"r3","ok":true,"pong":true}
    {"v":1,"id":"r4","ok":true,"draining":true}
    {"v":1,"id":null,"ok":false,"error":{"code":"overloaded","msg":"…"}}
    v}
    A [result] field is the lossless {!Tt_engine.Job.result_to_json}
    form, so clients can reproduce the engine's results digest
    byte-for-byte ({!sequence_digest} / {!value_digest}). Error replies
    echo the request id when it could be recovered and [null] when the
    frame never parsed. *)

val version : int
(** Current protocol version (1). Frames carrying any other [v] are
    refused with {!Unsupported_version}. *)

val max_frame_bytes : int
(** Upper bound on one frame's length, terminator excluded (1 MiB). *)

(* ------------------------------------------------------------- errors *)

type error_code =
  | Bad_frame  (** Not a JSON object / oversized / malformed line. *)
  | Bad_request  (** Well-formed JSON, invalid request (bad op, bad
                     manifest entry, missing field). *)
  | Unsupported_version  (** [v] missing or not {!version}. *)
  | Overloaded  (** Admission queue full — retry later, with backoff. *)
  | Deadline_exceeded  (** The request deadline passed while queued. *)
  | Shutting_down  (** Server is draining; no new work admitted. *)
  | Internal  (** Unexpected server-side failure. *)
  | Unavailable
      (** No backend can take the request {e right now} — every shard
          is unreachable or breaker-open (shard tier). Distinct from
          {!Internal}: nothing went wrong with the request itself, and
          retrying after a backoff is expected to succeed once a
          breaker half-opens. *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

(* ----------------------------------------------------------- requests *)

type priority = Interactive | Batch
(** Request class for brownout shedding: under overload the server
    sheds [Batch] traffic first, preserving [Interactive] goodput.
    [Interactive] is the default and is omitted from the wire frame, so
    pre-priority clients and servers interoperate byte-identically. *)

val priority_to_string : priority -> string
val priority_of_string : string -> priority option

type op =
  | Solve of {
      entry : string;
      timeout_s : float option;
      idem : string option;
      priority : priority;
    }
      (** [idem] is a client-chosen idempotency key: the server caches
          the successful reply body under it (bounded {!Replay} cache),
          so a retry of the same solve after a lost reply is answered
          from the cache instead of re-admitted — the client may retry
          freely without double execution. [timeout_s] is the remaining
          deadline budget at the sender: each hop converts it to an
          absolute deadline on receipt and rewrites it to
          [deadline - now] when forwarding, so the budget shrinks by
          real elapsed time across hops and retries. [priority] selects
          the brownout class ({!Batch} sheds first). *)
  | Peek of { key : string }
      (** Cache peering (shard tier): does this server's result cache
          hold [key] (a content address, typically a {!Tt_engine.Job}
          id)? Answered inline from the cache — never admitted, never
          computed — so a peer's miss costs one round trip, not a
          solve. Wire form:
          [{"v":1,"id":"r5","op":"peek","key":"<hex id>"}]. *)
  | Stats
  | Ping
  | Health
      (** Cheap liveness/health check, answered inline by the I/O
          domain (never queued): the health monitor's probe op. Wire
          form: [{"v":1,"id":"r6","op":"health"}]. A server replies
          with its drain state; a router replies with ring epoch and
          per-shard breaker states. *)
  | Shutdown

type request = { id : string; op : op }

val encode_request : request -> string
(** One line, no terminator. *)

val decode_request :
  string -> (request, string option * error_code * string) Stdlib.result
(** The error triple is (request id when recoverable, code, message) —
    enough to send a well-addressed error reply even for frames that
    fail validation. *)

(* ---------------------------------------------------------- responses *)

type job_report = {
  job_id : string;
  label : string;
  spec : string;
  result : Tt_engine.Job.result;
  cache_hit : bool;
  wall_s : float;
}

type body =
  | Results of job_report list
  | Peeked of Tt_engine.Job.outcome option
      (** Reply to [peek]: the cached outcome, or [None] on a miss.
          Wire form: [{"v":1,"id":"r5","ok":true,"peeked":{"found":
          true,"result":{…}}}] (the [result] field only when found). *)
  | Stats_reply of Tt_engine.Telemetry.Json.t
  | Health_reply of Tt_engine.Telemetry.Json.t
      (** Reply to [health]: a small role-specific JSON object (a
          server reports its drain flag and queue depth; a router
          reports ring epoch and breaker states). Wire form:
          [{"v":1,"id":"r6","ok":true,"health":{…}}]. *)
  | Pong
  | Draining  (** Acknowledges [shutdown]; the server then drains. *)
  | Refused of { code : error_code; msg : string }

type response = { req_id : string option; body : body }

val encode_response : response -> string
val decode_response : string -> (response, string) Stdlib.result

(* ------------------------------------------------------------ digests *)

val sequence_digest : job_report list -> string
(** {!Tt_engine.Job.digest_of_results} over the reports in order —
    byte-identical to the ["results digest"] line `treetrav batch`
    prints when the same jobs ran in the same order. *)

val value_digest : job_report list -> string
(** Order-insensitive, duplicate-free variant
    ({!Tt_engine.Job.value_digest_of_results}) for concurrent clients. *)
