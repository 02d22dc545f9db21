(** Server-side counters and latency percentiles, declared once in a
    {!Registry}.

    All mutators are domain-safe (each takes the registry's one mutex
    once) and cheap enough for the per-request hot path. Latencies land
    in a fixed ring holding the most recent 4096 solve latencies — a
    long-lived server keeps constant memory, and the percentiles
    describe {e recent} behaviour, which is what an operator watches.
    Counts and sums cover the whole lifetime.

    Two dump formats: {!to_prometheus} (text exposition, one
    [tt_server_*] family per counter) and {!to_json} (the [stats.
    metrics] object of a [STATS] reply — see DESIGN.md for the
    schema). *)

type t

val create : unit -> t

(* ----------------------------------------------------------- mutators *)

val connection_opened : t -> unit
val connection_closed : t -> unit

val request : t -> [ `Solve | `Stats | `Ping | `Shutdown | `Peek | `Health ] -> unit
(** One received, well-formed request frame. *)

val response_ok : t -> unit

val response_error : t -> code:string -> unit
(** One error reply, keyed by its protocol error code. *)

val observe_solve : t -> latency_s:float -> unit
(** Completion of one [solve] request (ok or not): latency from frame
    receipt to reply written. *)

val job : t -> cache_hit:bool -> error:bool -> wall_s:float -> unit
(** One engine job finished on behalf of a request (the
    {!Tt_engine.Executor} [on_job] hook). *)

val worker_restart : t -> unit
(** One crashed or wedged worker domain detected and replaced. *)

val idle_eviction : t -> unit
(** One connection evicted for exceeding the idle timeout. *)

val replay_hit : t -> unit
(** One solve answered from the idempotency replay cache without
    re-execution. *)

val write_overflow : t -> unit
(** One connection dropped because its reply backlog exceeded the
    write-buffer cap (a reader too slow to keep up). *)

val shed : t -> reason:string -> priority:string -> unit
(** One request shed at admission time, keyed by
    ({!Overload.shed_reason_to_string}, {!Protocol.priority_to_string})
    — the [tt_server_sheds_total{reason,priority}] series. *)

val deadline_exceeded : t -> unit
(** One request refused with [deadline_exceeded] (at admission, at
    dequeue, or after execution outran the budget). *)

val set_admission : t -> queue_depth:int -> admitted:int -> limit:int -> unit
(** Update the admission gauges: current queue depth, the number of
    requests admitted but not yet replied (queued + executing), and the
    current AIMD concurrency limit. *)

(* ----------------------------------------------------------- snapshot *)

type snapshot
(** Every value, copied under the lock. *)

val snapshot : t -> snapshot

val to_json : snapshot -> Tt_engine.Telemetry.Json.t
(** Objects [connections] (opened, active), [requests] (by op),
    [responses] (ok, errors by code), [jobs], [resilience], [overload]
    (sheds keyed ["reason/priority"], deadline_exceeded and the
    admission gauges) and [latency] (count, window, mean and the window
    percentiles in seconds, [null] when undefined). *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition ([# TYPE] comments included); quantile
    gauges are labelled [{quantile="0.5"}] etc. *)
