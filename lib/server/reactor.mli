(** The one socket loop: a listener, a self-pipe and a [select] tick.

    The server, the fault proxy ({!Netfault}) and the shard router's
    accept loop each run one reactor on a domain of their own and keep
    only their connection state; binding, accepting, waking and the
    run/stop lifecycle live here.

    A turn of the loop: call [tick], which returns the connection
    descriptors to watch (or [None] to end the loop); [select] on them
    plus the listener and the self-pipe, 0.5 s at most; flush every
    writable descriptor ([write]); drain the self-pipe; accept until
    the listener would block ([accept]); read each readable descriptor
    into one 64 KB buffer ([read]). Once a stop is requested the
    listener is closed at the next turn, and the loop goes on until
    [tick] returns [None] — so a server can drain.

    A handler closes a watched descriptor only inside [tick]: the turn
    that follows then never reads a descriptor number that was closed,
    and perhaps reused by another domain, after [select] returned. *)

val resolve : string -> Unix.inet_addr
(** A dotted address, or the first address of a host name.
    @raise Failure when the name does not resolve. *)

type handler = {
  tick : unit -> (Unix.file_descr list * Unix.file_descr list) option;
      (** Start of each turn, on the loop's domain: [Some (reads,
          writes)] to go on, [None] to end the loop. *)
  accept : Unix.file_descr -> unit;
      (** A new connection, in blocking mode with [TCP_NODELAY] set. *)
  read : Unix.file_descr -> Bytes.t -> int -> unit;
      (** [read fd buf n]: [n > 0] bytes of [fd] are at the start of
          [buf], which the next read reuses; [n = 0] is end of stream
          or a socket error. *)
  write : Unix.file_descr -> unit;  (** [fd] is writable. *)
}

type t

val create : host:string -> port:int -> t
(** Bind and listen at once (port 0 picks an ephemeral one), so
    {!port} is valid and connections queue in the backlog before the
    loop runs. Ignores [SIGPIPE]: a write to a departed peer is an
    error, not the end of the process.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Failure when [host] does not resolve. *)

val port : t -> int
(** The bound port. *)

val run : t -> handler -> unit
(** Run the loop on the calling domain until [tick] returns [None],
    then close the listener and the self-pipe.
    @raise Invalid_argument when the reactor already ran or was shut
    down. *)

val start : t -> handler -> unit
(** {!run} on a new domain. *)

val wake : t -> unit
(** End the current [select] wait at once. Safe from any domain. *)

val request_stop : t -> unit
(** Ask the loop to stop accepting and to end once [tick] lets it;
    returns at once. Safe from any domain and from signal handlers.
    Idempotent. *)

val stopping : t -> bool
(** Whether a stop was requested. *)

val stopped : t -> bool
(** Whether the loop has ended (or the reactor was shut down without
    running). *)

val shutdown : t -> unit
(** {!request_stop}, then wait for the loop to end and join the
    {!start} domain. A reactor that never ran just closes its
    descriptors. Idempotent. *)
