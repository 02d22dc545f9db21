(** Independent schedule validator — the scheduling tier's referee.

    Every schedule emitted by any [tt_sched] algorithm (and by the
    engine's serving path) is re-checked here against the raw
    Equation (1) model, with no state shared with the schedulers:
    well-formedness, precedence (a task starts only after its parent
    finishes — out-tree semantics), processor exclusivity, the booking
    discipline when an activation order is supplied, and the memory
    bound at {e every} instant at which a task runs, reconstructed from
    the events alone. It is the repo's one schedule checker, and it
    names the violated rule.

    {b Cost.} O(p log p) time and O(p) words. The validator sorts the
    events itself, on int keys, rather than trusting any scheduler's
    event order: once by (start, node) and once by finish. The
    processor check is one sweep of the start order that remembers each
    processor's last task, so {!Overlap} reports the earliest
    overlapping pair. The memory replay merges the start order with the
    finish order, applying every change of an instant before observing
    it. *)

type violation =
  | Malformed of string  (** Not a schedule at all (duplicate node, …). *)
  | Precedence of { node : int; parent : int }
      (** [node] starts before [parent] finishes. *)
  | Overlap of { proc : int; first : int; second : int }
      (** Two tasks overlap on one processor: [second] starts before
          [first], the processor's previous task, finishes. Of all
          such pairs, the one whose [second] comes first in (start,
          node) order. *)
  | Booking of { position : int; node : int }
      (** Start times are not monotone along the activation order. *)
  | Memory of { time : int; usage : int; budget : int }
      (** The budget is exceeded while tasks run. *)
  | Accounting of string
      (** The carried [makespan]/[peak_memory] fields lie about the
          events. *)

val violation_to_string : violation -> string

val check :
  ?activation:int array ->
  Tt_core.Tree.t ->
  memory:int ->
  work:(int -> int) ->
  Tt_core.Parallel.schedule ->
  (unit, violation) result
(** Full validation of a schedule against tree, budget and duration
    model. With [activation], additionally checks the booking
    discipline: [activation] must be a valid traversal and start times
    must be non-decreasing along it. Returns the first violation found,
    most structural first. *)

val check_exn :
  ?activation:int array ->
  Tt_core.Tree.t ->
  memory:int ->
  work:(int -> int) ->
  Tt_core.Parallel.schedule ->
  unit
(** {!check}, raising [Invalid_argument] with the rendered violation —
    the serving path's guard: a scheduler bug becomes a crashed job,
    never a silently-wrong result. *)

val peak_usage : Tt_core.Tree.t -> Tt_core.Parallel.schedule -> int
(** Maximum memory in use over every instant at which at least one task
    runs, reconstructed from the events (files alive plus running
    extras). The honest peak the splitting scheduler reports. *)
