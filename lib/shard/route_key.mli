(** Routing keys: where a manifest entry is placed on the ring.

    An entry's key is the content address ({!Tt_engine.Job.id}) of its
    first job. The {!Router} and the direct {!Shard_client} both route
    through this module, so routed and direct traffic agree on placement
    and share shard caches. *)

type memo
(** A bounded, domain-safe memo of routing keys. Computing a key parses
    the entry, which materializes its tree source — too slow to redo for
    every request of a repetitive workload. Keys are content addresses,
    independent of the ring, so a memo survives reconfiguration. *)

val max_route_memo : int
(** At most this many entries (4,096) are memoized; past it, new entries
    are computed without being memoized rather than evicting. *)

val create : unit -> memo

val find : memo -> string -> (string, string) result
(** [find memo entry] parses [entry] with
    {!Tt_engine.Manifest.parse_wire} and returns its first job's id, or
    [Error] with the manifest parser's message (or a note that the entry
    has no jobs). A [file] source is such an error: the router refuses
    it with [bad_request] and never opens the path. Results are memoized under the MD5 of [entry]: the
    memo holds 16-byte digests, never the entries themselves, which may
    be up to a frame (1 MiB) each. *)

val length : memo -> int
(** Entries memoized so far, at most {!max_route_memo}. *)
