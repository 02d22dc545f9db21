(* Seeded, deterministic in-process TCP fault proxy.

   The proxy sits between a client and the real server and forwards
   bytes in both directions, injecting faults on the way. Like the
   engine's [Tt_engine.Fault], every decision is a pure function of the
   spec — here (seed, connection id, direction, window index), where a
   window is a fixed-size span of the byte stream — so which faults a
   given connection suffers does not depend on read chunking, timing,
   or scheduling. Only *which offsets get exercised* depends on how
   much traffic actually flows. *)

(* ------------------------------------------------------------- faults *)

type faults = {
  drop : float;
  truncate : float;
  stall : float;
  split : float;
  max_stall_s : float;
  window : int;
  seed : int;
}

let none =
  { drop = 0.; truncate = 0.; stall = 0.; split = 0.;
    max_stall_s = 0.02; window = 256; seed = 0 }

let create_faults ?(drop = 0.) ?(truncate = 0.) ?(stall = 0.) ?(split = 0.)
    ?(max_stall_s = 0.02) ?(window = 256) ~seed () =
  let rate what x =
    if x < 0. || x > 1. then
      invalid_arg
        (Printf.sprintf "Netfault.create_faults: %s rate %g not in [0, 1]" what x)
  in
  rate "drop" drop;
  rate "truncate" truncate;
  rate "stall" stall;
  rate "split" split;
  if drop +. truncate +. stall +. split > 1. then
    invalid_arg "Netfault.create_faults: rates sum to more than 1";
  if max_stall_s < 0. then invalid_arg "Netfault.create_faults: negative max_stall_s";
  if window < 1 then invalid_arg "Netfault.create_faults: window < 1";
  { drop; truncate; stall; split; max_stall_s; window; seed }

let faults_to_string f =
  Printf.sprintf "drop=%g,trunc=%g,stall=%g,split=%g,max-stall=%g,window=%d,seed=%d"
    f.drop f.truncate f.stall f.split f.max_stall_s f.window f.seed

let faults_of_string s =
  try
    let drop = ref 0. and trunc = ref 0. and stall = ref 0. and split = ref 0. in
    let max_stall = ref 0.02 and window = ref 256 and seed = ref 0 in
    String.split_on_char ',' s
    |> List.filter (fun tok -> String.trim tok <> "")
    |> List.iter (fun tok ->
           match String.index_opt tok '=' with
           | None -> failwith ("expected key=value, got " ^ tok)
           | Some i ->
               let k = String.trim (String.sub tok 0 i) in
               let v = String.sub tok (i + 1) (String.length tok - i - 1) in
               let f () =
                 match float_of_string_opt v with
                 | Some x -> x
                 | None -> failwith ("bad number " ^ v ^ " for " ^ k)
               in
               let int_ () =
                 match int_of_string_opt v with
                 | Some x -> x
                 | None -> failwith ("bad integer " ^ v ^ " for " ^ k)
               in
               (match k with
               | "drop" -> drop := f ()
               | "trunc" | "truncate" -> trunc := f ()
               | "stall" -> stall := f ()
               | "split" -> split := f ()
               | "max-stall" -> max_stall := f ()
               | "window" -> window := int_ ()
               | "seed" -> seed := int_ ()
               | other -> failwith ("unknown netfault key " ^ other)));
    Ok
      (create_faults ~drop:!drop ~truncate:!trunc ~stall:!stall ~split:!split
         ~max_stall_s:!max_stall ~window:!window ~seed:!seed ())
  with Failure msg | Invalid_argument msg -> Error msg

(* ---------------------------------------------------------- decisions *)

type action =
  | Forward
  | Drop
  | Truncate of int  (* forward at most this many bytes of the window, then drop *)
  | Stall of float
  | Split

type dir = [ `Up | `Down ]

let rng_for seed tag =
  let h = Digest.string tag in
  let v = ref 0 in
  String.iter (fun c -> v := ((!v * 31) + Char.code c) land max_int) h;
  Tt_util.Rng.create (seed lxor !v)

let decision f ~conn ~dir ~window =
  if f.drop = 0. && f.truncate = 0. && f.stall = 0. && f.split = 0. then Forward
  else begin
    let d = match dir with `Up -> "up" | `Down -> "down" in
    let rng = rng_for f.seed (Printf.sprintf "net:%d:%s:%d" conn d window) in
    let u = Tt_util.Rng.float rng 1.0 in
    if u < f.drop then Drop
    else if u < f.drop +. f.truncate then
      Truncate (Tt_util.Rng.int rng f.window)
    else if u < f.drop +. f.truncate +. f.stall then
      Stall (Tt_util.Rng.float rng f.max_stall_s)
    else if u < f.drop +. f.truncate +. f.stall +. f.split then Split
    else Forward
  end

let describe = function
  | Forward -> "forward"
  | Drop -> "drop connection"
  | Truncate n -> Printf.sprintf "truncate after %d bytes" n
  | Stall s -> Printf.sprintf "stall %gs" s
  | Split -> "split into tiny writes"

(* -------------------------------------------------------------- proxy *)

type stats = {
  connections : int;
  drops : int;
  truncations : int;
  stalls : int;
  splits : int;
  forwarded_bytes : int;
  severed : int;
}

let injected s = s.drops + s.truncations + s.stalls + s.splits

(* The partition primitive the nemesis builds on: a dynamic valve in
   front of the per-window fault machinery. Severing or stalling the
   proxy cuts {e both} directions at once, so a partition built from
   one gate per shard ingress is symmetric by construction. *)
type gate = Gate_open | Gate_stalled | Gate_severed

type dir_state = {
  mutable off : int;  (* bytes forwarded in this direction *)
  mutable decided : int;  (* windows whose decision has been applied *)
}

type pair = {
  cid : int;
  cfd : Unix.file_descr;  (* client side *)
  ufd : Unix.file_descr;  (* upstream side *)
  up : dir_state;
  down : dir_state;
  mutable dropped : bool;  (* closed at the next tick *)
}

type t = {
  faults : faults;
  upstream_host : string;
  upstream_port : int;
  reactor : Reactor.t;
  mu : Mutex.t;
  mutable gate_state : gate;
  pairs : (Unix.file_descr, pair) Hashtbl.t;  (* both ends; the proxy domain's *)
  mutable next_cid : int;
  mutable s_connections : int;
  mutable s_drops : int;
  mutable s_truncations : int;
  mutable s_stalls : int;
  mutable s_splits : int;
  mutable s_bytes : int;
  mutable s_severed : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let create ?(faults = none) ?(host = "127.0.0.1") ?(port = 0)
    ?(upstream_host = "127.0.0.1") ~upstream_port () =
  { faults;
    upstream_host;
    upstream_port;
    reactor = Reactor.create ~host ~port;
    mu = Mutex.create ();
    gate_state = Gate_open;
    pairs = Hashtbl.create 16;
    next_cid = 0;
    s_connections = 0;
    s_drops = 0;
    s_truncations = 0;
    s_stalls = 0;
    s_splits = 0;
    s_bytes = 0;
    s_severed = 0
  }

let port t = Reactor.port t.reactor

let stats t =
  locked t (fun () ->
      { connections = t.s_connections;
        drops = t.s_drops;
        truncations = t.s_truncations;
        stalls = t.s_stalls;
        splits = t.s_splits;
        forwarded_bytes = t.s_bytes;
        severed = t.s_severed
      })

let gate t = locked t (fun () -> t.gate_state)

(* Takes effect at the proxy loop's next tick (the reactor's wake makes
   that immediate): fd lifecycle stays on the proxy domain, so a concurrent
   [set_gate] can never close an fd the loop is selecting on. *)
let set_gate t g =
  locked t (fun () -> t.gate_state <- g);
  Reactor.wake t.reactor

(* Blocking write of a slice; Unix_error means the peer is gone. *)
let write_all fd b pos len =
  let off = ref pos in
  let stop = pos + len in
  while !off < stop do
    off := !off + Unix.write fd b !off (stop - !off)
  done

(* Forward the first [len] bytes of [data] in direction [dir] of [pair],
   applying each newly reached window's decision. Returns [false] when
   the connection must be dropped (injected drop/truncation, or the peer
   vanished). *)
let forward t pair ~dir data len =
  let st, dst = match dir with `Up -> (pair.up, pair.ufd) | `Down -> (pair.down, pair.cfd) in
  let count f = locked t f in
  let rec go start =
    if start >= len then true
    else begin
      let w = st.off / t.faults.window in
      let win_end = (w + 1) * t.faults.window in
      let slice = min (len - start) (win_end - st.off) in
      let act =
        if w >= st.decided then begin
          st.decided <- w + 1;
          decision t.faults ~conn:pair.cid ~dir ~window:w
        end
        else Forward
      in
      match act with
      | Drop ->
          count (fun () -> t.s_drops <- t.s_drops + 1);
          false
      | Truncate k ->
          let n = min k slice in
          (try write_all dst data start n with Unix.Unix_error _ -> ());
          count (fun () ->
              t.s_truncations <- t.s_truncations + 1;
              t.s_bytes <- t.s_bytes + n);
          false
      | Stall s ->
          count (fun () -> t.s_stalls <- t.s_stalls + 1);
          if s > 0. then Unix.sleepf s;
          (match write_all dst data start slice with
          | () ->
              st.off <- st.off + slice;
              count (fun () -> t.s_bytes <- t.s_bytes + slice);
              go (start + slice)
          | exception Unix.Unix_error _ -> false)
      | Split -> (
          (* Dribble the window out in 1–8 byte writes with a short gap
             between them, exercising the receiver's frame reassembly.
             Piece sizes come from a seeded stream of their own, so the
             pattern is reproducible too. *)
          let rng =
            rng_for t.faults.seed
              (Printf.sprintf "split:%d:%s:%d" pair.cid
                 (match dir with `Up -> "up" | `Down -> "down")
                 w)
          in
          count (fun () -> t.s_splits <- t.s_splits + 1);
          match
            let p = ref start in
            let stop = start + slice in
            while !p < stop do
              let n = min (stop - !p) (1 + Tt_util.Rng.int rng 8) in
              write_all dst data !p n;
              p := !p + n;
              if !p < stop then Unix.sleepf 0.001
            done
          with
          | () ->
              st.off <- st.off + slice;
              count (fun () -> t.s_bytes <- t.s_bytes + slice);
              go (start + slice)
          | exception Unix.Unix_error _ -> false)
      | Forward -> (
          match write_all dst data start slice with
          | () ->
              st.off <- st.off + slice;
              count (fun () -> t.s_bytes <- t.s_bytes + slice);
              go (start + slice)
          | exception Unix.Unix_error _ -> false)
    end
  in
  go 0

let close_pair t pair =
  List.iter
    (fun fd ->
      Hashtbl.remove t.pairs fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    [ pair.cfd; pair.ufd ]

(* The start of each proxy turn. Apply the gate before building the
   select set. Severed: cut every live pair now (both directions at
   once — a symmetric partition) and stop servicing data. Stalled: keep
   pairs alive but stop selecting on them, so in-flight bytes park in
   kernel buffers and flow again the moment the gate reopens. Pairs a
   fault dropped close here too, and every pair once the proxy stops. *)
let tick t () =
  let stopping = Reactor.stopping t.reactor and g = gate t in
  let cut = stopping || g = Gate_severed in
  Hashtbl.fold
    (fun fd p doomed -> if fd = p.cfd && (cut || p.dropped) then p :: doomed else doomed)
    t.pairs []
  |> List.iter (fun p ->
         if not (p.dropped || stopping) then
           locked t (fun () -> t.s_severed <- t.s_severed + 1);
         close_pair t p);
  if stopping then None
  else if g = Gate_open then Some (Hashtbl.fold (fun fd _ fds -> fd :: fds) t.pairs [], [])
  else Some ([], [])

let accept t cfd =
  if gate t = Gate_severed then begin
    (* Partitioned: the client's connect completes (the listener's
       backlog accepted it) but the conversation dies instantly — its
       first read sees EOF, which is what a transport-level partition
       looks like to the breaker. *)
    (try Unix.close cfd with Unix.Unix_error _ -> ());
    locked t (fun () -> t.s_severed <- t.s_severed + 1)
  end
  else
    let ufd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect ufd (Unix.ADDR_INET (Reactor.resolve t.upstream_host, t.upstream_port))
    with
    | () ->
        (try Unix.setsockopt ufd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let pair =
          { cid = t.next_cid;
            cfd;
            ufd;
            up = { off = 0; decided = 0 };
            down = { off = 0; decided = 0 };
            dropped = false
          }
        in
        t.next_cid <- t.next_cid + 1;
        Hashtbl.replace t.pairs cfd pair;
        Hashtbl.replace t.pairs ufd pair;
        locked t (fun () -> t.s_connections <- t.s_connections + 1)
    | exception Unix.Unix_error _ ->
        (* Upstream unreachable: the client sees an immediate drop. *)
        (try Unix.close ufd with Unix.Unix_error _ -> ());
        (try Unix.close cfd with Unix.Unix_error _ -> ())

(* [data] is the reactor's read buffer, which [forward] has written out
   before the next read. *)
let read t fd data n =
  match Hashtbl.find_opt t.pairs fd with
  | Some p when not p.dropped ->
      let dir = if fd = p.cfd then `Up else `Down in
      if n = 0 || not (forward t p ~dir data n) then p.dropped <- true
  | _ -> ()

let handler t = { Reactor.tick = tick t; accept = accept t; read = read t; write = ignore }
let run t = Reactor.run t.reactor (handler t)
let start t = Reactor.start t.reactor (handler t)
let request_stop t = Reactor.request_stop t.reactor
let shutdown t = Reactor.shutdown t.reactor
