let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> failwith ("cannot resolve host " ^ host))

type handler = {
  tick : unit -> (Unix.file_descr list * Unix.file_descr list) option;
  accept : Unix.file_descr -> unit;
  read : Unix.file_descr -> Bytes.t -> int -> unit;
  write : Unix.file_descr -> unit;
}

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable running : bool;
  mutable stopped : bool;
  mutable runner : unit Domain.t option;  (* set by [start] *)
}

let create ~host ~port =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (resolve host, port));
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     Unix.close listen_fd;
     raise e);
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { listen_fd;
    port =
      (match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port);
    wake_r;
    wake_w;
    stop = Atomic.make false;
    mu = Mutex.create ();
    cond = Condition.create ();
    running = false;
    stopped = false;
    runner = None
  }

let port t = t.port
let stopping t = Atomic.get t.stop

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stopped t = locked t (fun () -> t.stopped)

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EBADF), _, _) -> ()

let request_stop t =
  Atomic.set t.stop true;
  wake t

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec drain_wake t buf =
  match Unix.read t.wake_r buf 0 (Bytes.length buf) with
  | n when n = Bytes.length buf -> drain_wake t buf
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let rec accept_all t h =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      (* Some systems hand out the listener's O_NONBLOCK: connections
         start blocking, and a handler that wants otherwise says so. *)
      Unix.clear_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      h.accept fd;
      accept_all t h
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> accept_all t h
  | exception Unix.Unix_error _ -> ()

(* [0] is end of stream or a dead socket; a read that would block
   (a spurious wakeup) delivers nothing. *)
let read_ready h buf fd =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> h.read fd buf n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> h.read fd buf 0

let claim t =
  locked t (fun () ->
      if t.running || t.stopped then invalid_arg "Reactor.run: already used";
      t.running <- true)

let serve t h =
  (* One read buffer for every connection: at 64 KB a fresh one per
     read would go straight to the major heap. *)
  let buf = Bytes.create 65536 in
  let listening = ref true in
  let rec loop () =
    if !listening && stopping t then begin
      close_quietly t.listen_fd;
      listening := false
    end;
    match h.tick () with
    | None -> ()
    | Some (reads, writes) ->
        let reads = t.wake_r :: (if !listening then t.listen_fd :: reads else reads) in
        (match Unix.select reads writes [] 0.5 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready_r, ready_w, _ ->
            List.iter h.write ready_w;
            List.iter
              (fun fd ->
                if fd = t.wake_r then drain_wake t buf
                else if fd = t.listen_fd then accept_all t h
                else read_ready h buf fd)
              ready_r);
        loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      if !listening then close_quietly t.listen_fd;
      close_quietly t.wake_r;
      close_quietly t.wake_w;
      locked t (fun () ->
          t.stopped <- true;
          Condition.broadcast t.cond))
    loop

let run t h =
  claim t;
  serve t h

let start t h =
  claim t;
  match Domain.spawn (fun () -> serve t h) with
  | d -> locked t (fun () -> t.runner <- Some d)
  | exception e ->
      (* no loop will ever mark it stopped: let [shutdown] close it *)
      locked t (fun () -> t.running <- false);
      raise e

let shutdown t =
  request_stop t;
  let joinable =
    locked t (fun () ->
        if t.running || t.runner <> None then begin
          while not t.stopped do
            Condition.wait t.cond t.mu
          done;
          let d = t.runner in
          t.runner <- None;
          d
        end
        else begin
          if not t.stopped then List.iter close_quietly [ t.listen_fd; t.wake_r; t.wake_w ];
          t.stopped <- true;
          None
        end)
  in
  Option.iter Domain.join joinable
