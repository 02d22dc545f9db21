(** Newline framing for a socket read loop that reuses one read buffer.

    Complete lines are handed out as each read arrives; only a frame
    that a read leaves unfinished is kept, in a [Buffer]. A frame that
    arrives in one read is copied out of the read buffer once, and a
    trailing ['\r'] is trimmed. The server, the router and
    {!Client.recv} all frame through it. *)

type t

type error = Too_long
    (** The unfinished frame grew past the reader's limit. *)

val create : limit:int -> t
(** A reader that refuses an unfinished frame longer than [limit] bytes
    (terminator excluded): {!Protocol.max_frame_bytes} for requests,
    [max_int] for replies, which the protocol does not bound. *)

val feed : t -> Bytes.t -> int -> (string -> unit) -> (unit, error) result
(** [feed t buf len f] frames the first [len] bytes of [buf], calling
    [f] on every line they complete, in order, and keeps the rest for
    the next read. [Error Too_long] once the kept rest exceeds the
    limit; the kept bytes are dropped, and the caller refuses the
    frame and stops reading the connection. *)
