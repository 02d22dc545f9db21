(** One metrics registry: the only module that knows the exposition
    formats.

    A metrics module declares each metric once, at module
    initialization, into a {!schema}: its Prometheus series or family
    (none for a JSON-only total) and its path in the JSON object. One
    {!to_json} and one {!to_prometheus} walk the declarations in
    order; the declarations whose paths start with one key share one
    object under it.

    An instance ({!create}) holds integer counters and gauges, float
    sums, families keyed by label values and windowed latency
    summaries under one mutex. The update functions do not lock: a
    mutator makes all its updates inside one {!locked} call, so it
    takes the lock once. {!snapshot} copies every value under the
    lock, so a dump is consistent.

    Prometheus: one [# TYPE] line per family (none for a gauge family
    with no series), integers in decimal, floats as [%.9g] ([NaN] when
    not finite), label values quoted with [%S]. JSON: a family is an
    object keyed by its label values joined with ['/'], sorted by the
    values. *)

type schema

val schema : prefix:string -> schema
(** Every Prometheus family name starts with [prefix]. *)

type kind = Counter | Gauge
type int_cell
type float_cell
type family
type summary

val counter : schema -> string -> string list -> int_cell
(** [counter s series path]: an integer at [path], exposed as the
    Prometheus series [series], which may carry a fixed label set
    ([requests_total{op="solve"}]); consecutive series of one family
    share its [# TYPE] line. *)

val gauge : schema -> string -> string list -> int_cell
val json_int : schema -> string list -> int_cell
val seconds : schema -> string -> string list -> float_cell
(** A float sum, typed [counter]. *)

val family : schema -> kind -> string -> labels:string list -> string list -> family
(** Integer series keyed by one value per label name. *)

val summary : schema -> string -> window:int -> string list -> summary
(** Lifetime count, mean and maximum, and the 0.5/0.9/0.95/0.99
    quantiles ({!Tt_util.Statistics.quantile}) of the latest [window]
    observations. JSON: [count], [window], [mean_s], [p50_s], [p90_s],
    [p95_s], [p99_s] and [max_s], [null] when undefined. Prometheus:
    [quantile] series, [_sum] and [_count].
    @raise Invalid_argument when [window < 1]. *)

type t

val create : schema -> t

val locked : t -> (unit -> 'a) -> 'a
(** Runs [f] holding the mutex; the functions below that take a [t]
    must run inside it. *)

val get : t -> int_cell -> int
val add : t -> int_cell -> int -> unit
val set : t -> int_cell -> int -> unit
val add_seconds : t -> float_cell -> float -> unit
val incr_at : t -> family -> string list -> unit
val set_at : t -> family -> string list -> int -> unit
val remove_at : t -> family -> string list -> unit
val observe : t -> summary -> float -> unit

type snapshot

val snapshot : t -> snapshot
val value : snapshot -> int_cell -> int
val seconds_value : snapshot -> float_cell -> float

val entries : snapshot -> family -> (string * int) list
(** Keyed as in the JSON object. *)

val plus : int_cell list -> snapshot -> snapshot -> snapshot
(** [plus cells a b] is [a] with each of [cells] raised by its value
    in [b]. *)

val to_json : snapshot -> Tt_engine.Telemetry.Json.t
val to_prometheus : snapshot -> string
