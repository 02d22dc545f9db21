(** A bounded, domain-safe LRU memo of parsed wire entries.

    An entry's jobs, and so its assembly tree, are a pure function of
    its text: the matrix, the ordering and the amalgamation. A served
    workload repeats entries, and parsing one ({!Manifest.parse_wire})
    generates, orders and eliminates its matrix again each time. This
    memo keys each entry by its MD5 digest, so it never holds the entry
    text itself (which may be up to a frame, 1 MiB), and keeps:

    - for an entry seen once, its digest only: no tree. A stream of
      unique entries (a solver integration sending fresh tree literals)
      costs a few words per entry, not a parse each;
    - for an entry seen again through {!find}, its {!Manifest.parse_wire}
      result, jobs or error message, returned as-is from then on;
    - for an entry routed through {!route_key}, its route key (or the
      parser's error), from the first sighting on.

    A server keeps one memo for {!find}, and a router or shard-aware
    client one for {!route_key}. Separate memos keep separate counts:
    two shards that each see a hedged copy of one request have each
    seen it once.

    Memory is capped twice, with no setting: at most {!max_entries}
    entries, and at most {!max_words} retained words. An entry is
    charged {!entry_words} plus the words reachable from what it keeps
    ([Obj.reachable_words]). Past either cap the least recently used
    entries are dropped, and a parse that alone exceeds {!max_words} is
    kept as a digest only. Each lookup moves its entry to the front.

    Every result equals a fresh {!Manifest.parse_wire} of the same entry:
    jobs equal, ids equal, and errors carry the same message. An
    exception from the parser propagates and stores nothing.

    Domain-safe: one mutex, never held while parsing, so two domains that
    miss on one entry at once both parse it. *)

type t

val max_entries : int
(** 4,096 entries. *)

val max_words : int
(** 2,097,152 retained words (16 MiB on a 64-bit host). *)

val entry_words : int
(** The words charged for an entry on top of what it keeps: its list
    node, its 16-byte digest and its hash-table bucket, 16. *)

val create : unit -> t

val find : t -> string -> (Job.t list, string) result
(** [find memo entry] is [Manifest.parse_wire entry]. The first
    sighting parses and records the digest; the second parses again and
    keeps the result; later ones return it without parsing. *)

val route_key : t -> string -> (string, string) result
(** [route_key memo entry] is the id ({!Job.id}) of the entry's first
    job, where a shard router places it on the ring: [Error] with the
    parser's message for a bad entry (a [file] source among them, never
    opened), or ["entry resolves to no jobs"]. Kept from the first
    sighting; an entry whose parse {!find} keeps is answered from its
    jobs. *)

val length : t -> int
(** Entries held, at most {!max_entries}. *)

val words : t -> int
(** Retained words charged, at most {!max_words}. *)

val evictions : t -> int
(** Entries dropped for a cap so far. *)
