module Server = Tt_server.Server
module Netfault = Tt_server.Netfault
module Cache = Tt_engine.Cache
module Job = Tt_engine.Job

type shard = {
  name : string;
  host : string;
  mutable port : int;  (* server port; fixed after the first bind *)
  cache : Job.outcome Cache.t;  (* owned here: survives restarts *)
  peer_metrics : Metrics.t;
  mutable server : Server.t option;
  mutable proxy : Netfault.t option;  (* ingress proxy when [proxied] *)
  mutable removed : bool;  (* left the ring: supervisor ignores it *)
  mutable down_since : float option;  (* supervisor: first death sighting *)
  mutable joined_late : bool;  (* warm cache from ring successor *)
}

type event =
  | Shard_down of string
  | Shard_restarted of string * float  (* name, downtime seconds *)
  | Shard_joined of string
  | Shard_left of string

let event_to_string = function
  | Shard_down n -> Printf.sprintf "down %s" n
  | Shard_restarted (n, dt) -> Printf.sprintf "restarted %s after %.3fs" n dt
  | Shard_joined n -> Printf.sprintf "joined %s" n
  | Shard_left n -> Printf.sprintf "left %s" n

type t = {
  mutable shards : shard array;
  shards_mu : Mutex.t;
  ring_ref : Ring.t option ref;  (* what the peer hooks read *)
  router : Router.t;
  server_config : Server.config;
  workers : int;
  peering : bool;
  proxied : bool;
  restart_delay_s : float;
  on_event : event -> unit;
  stop : bool Atomic.t;
  mutable supervisor : unit Domain.t option;
}

let shard_name i = Printf.sprintf "s%d" i

(* The ring address of a shard: its ingress proxy when proxied, the
   server itself otherwise. *)
let ring_node (s : shard) =
  { Ring.name = s.name;
    host = s.host;
    port = (match s.proxy with Some p -> Netfault.port p | None -> s.port)
  }

let mk_shard ~peering ~ring_ref name =
  let peer_metrics = Metrics.create () in
  (* Per-peer breaker for the peek path: lives in the hook's closure,
     so each shard remembers which peers stopped answering and stops
     paying their read timeout on every local cache miss. Far more
     aggressive than the router's forward breaker — a peek is an
     optimization, so one silence opens it (a false open costs one
     local compute, not an error) and reopens back off from a full
     second so trial peeks cannot keep a worker pinned on a peer that
     is stalled rather than down. *)
  let peer_health =
    Health.create ~threshold:1
      ~retry:
        (Tt_engine.Retry.create ~retries:6 ~base_delay_s:1.0 ~max_delay_s:8.0
           ~jitter:0.25 ())
      ~metrics:peer_metrics ()
  in
  (* [rec]ursive knot: the fetch hook needs the shard record (to read
     [joined_late]) which needs the cache which needs the hook — tie it
     through a forward ref. *)
  let self = ref None in
  let fetch key =
    if not peering then None
    else
      match (!ring_ref, !self) with
      | Some ring, Some s ->
          Peer.fetch ~self:name ~ring ~warm_from_successor:s.joined_late
            ~health:peer_health ~metrics:peer_metrics () key
      | _ -> None
  in
  let s =
    { name;
      host = "127.0.0.1";
      port = 0;
      cache = Cache.create ~fetch ();
      peer_metrics;
      server = None;
      proxy = None;
      removed = false;
      down_since = None;
      joined_late = false
    }
  in
  self := Some s;
  s

let boot_server ~server_config ~workers (s : shard) =
  let config =
    { server_config with Server.host = s.host; port = s.port; workers }
  in
  let server = Server.create ~config ~cache:s.cache () in
  s.port <- Server.port server;
  Server.start server;
  s.server <- Some server

let boot_proxy (s : shard) =
  let p = Netfault.create ~upstream_port:s.port () in
  Netfault.start p;
  s.proxy <- Some p

let teardown_shard (s : shard) =
  (match s.server with
  | None -> ()
  | Some server ->
      s.server <- None;
      Server.shutdown server);
  match s.proxy with
  | None -> ()
  | Some p ->
      s.proxy <- None;
      Netfault.shutdown p

let locked t f =
  Mutex.lock t.shards_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.shards_mu) f

let kill_shard t i =
  match t.shards.(i).server with
  | None -> ()
  | Some server ->
      t.shards.(i).server <- None;
      Server.shutdown server

let restart_shard t i =
  let s = t.shards.(i) in
  match s.server with
  | Some _ -> ()
  | None -> boot_server ~server_config:t.server_config ~workers:t.workers s

(* ------------------------------------------------------ supervision *)

(* One supervisor pass: spot dead shards (graceful self-stop included
   — [Server.stopped] — and outright [None] servers from a kill),
   stamp the first sighting, and restart once the shard has been down
   at least [restart_delay_s]. The delay is what lets breakers open
   and failover engage before the shard pops back — a restart-thrash
   guard, and what makes "breaker open → close" observable under the
   nemesis. Restart failures (e.g. the dying server still holds the
   port) are retried next tick. *)
let supervise_once t =
  Array.iteri
    (fun i s ->
      if not s.removed then begin
        let dead =
          match s.server with
          | None -> true
          | Some srv ->
              if Server.stopped srv then begin
                s.server <- None;
                true
              end
              else false
        in
        if dead then begin
          let now = Unix.gettimeofday () in
          match s.down_since with
          | None ->
              s.down_since <- Some now;
              t.on_event (Shard_down s.name)
          | Some since when now -. since >= t.restart_delay_s -> (
              match restart_shard t i with
              | () ->
                  let downtime = Unix.gettimeofday () -. since in
                  s.down_since <- None;
                  Metrics.restart (Router.metrics t.router) ~shard:s.name
                    ~downtime_s:downtime;
                  t.on_event (Shard_restarted (s.name, downtime))
              | exception (Unix.Unix_error _ | Failure _) -> ())
          | Some _ -> ()
        end
      end)
    t.shards

let supervisor_loop t =
  while not (Atomic.get t.stop) do
    locked t (fun () -> supervise_once t);
    Unix.sleepf 0.05
  done

let start_supervisor t =
  match t.supervisor with
  | Some _ -> ()
  | None -> t.supervisor <- Some (Domain.spawn (fun () -> supervisor_loop t))

(* ------------------------------------------------------------ boot *)

let start ?(shards = 3) ?(workers = 2) ?vnodes ?(peering = true)
    ?(proxied = false) ?(supervise = false) ?(restart_delay_s = 0.3)
    ?(on_event = fun _ -> ()) ?router_config
    ?(server_config = Server.default_config) ?kill_after () =
  if shards < 1 then invalid_arg "Cluster.start: shards < 1";
  if restart_delay_s < 0. then
    invalid_arg "Cluster.start: restart_delay_s < 0";
  (* The peer hook closes over the ring, but the ring needs every
     shard's bound port — which an ephemeral bind only yields after
     the server exists. The ref breaks the cycle: caches are built
     against it first, the ring is filled in once all ports are
     known. Until then the hook degrades to local compute. *)
  let ring_ref = ref None in
  let cluster_shards =
    Array.init shards (fun i -> mk_shard ~peering ~ring_ref (shard_name i))
  in
  (match
     Array.iter
       (fun s ->
         boot_server ~server_config ~workers s;
         if proxied then boot_proxy s)
       cluster_shards
   with
  | () -> ()
  | exception e ->
      Array.iter teardown_shard cluster_shards;
      raise e);
  let ring =
    Ring.create ?vnodes
      (Array.to_list (Array.map ring_node cluster_shards))
  in
  ring_ref := Some ring;
  let router =
    match Router.create ?config:router_config ~ring () with
    | r -> r
    | exception e ->
        Array.iter teardown_shard cluster_shards;
        raise e
  in
  Router.start router;
  let t =
    { shards = cluster_shards;
      shards_mu = Mutex.create ();
      ring_ref;
      router;
      server_config;
      workers;
      peering;
      proxied;
      restart_delay_s;
      on_event;
      stop = Atomic.make false;
      supervisor = None
    }
  in
  (match kill_after with
  | None -> ()
  | Some (idx, threshold) ->
      if idx < 0 || idx >= shards then
        invalid_arg "Cluster.start: kill_after shard out of range";
      (* Deterministic mid-run kill: the router's [threshold]-th forward
         drains the shard before it is sent, so every later forward
         meets the kill at any load rate. *)
      Metrics.at_forward (Router.metrics router) threshold (fun () -> kill_shard t idx));
  if supervise then start_supervisor t;
  t

let router_port t = Router.port t.router
let stopped t = Router.stopped t.router
let request_stop t = Router.request_shutdown t.router
let ring t = Router.ring t.router
let ring_epoch t = Router.epoch t.router
let health t = Router.health t.router
let size t = Array.length t.shards

let shard_port t i = t.shards.(i).port
let shard_alive t i = t.shards.(i).server <> None
let shard_in_ring t i = not t.shards.(i).removed

(* ------------------------------------------------------ partitions *)

let set_partition t i g =
  match t.shards.(i).proxy with
  | Some p -> Netfault.set_gate p g
  | None ->
      invalid_arg "Cluster.set_partition: cluster not started with ~proxied"

let partition t i = set_partition t i Netfault.Gate_severed
let heal t i = set_partition t i Netfault.Gate_open

(* ------------------------------------------------------ membership *)

let current_ring t =
  match !(t.ring_ref) with
  | Some r -> r
  | None -> Router.ring t.router

(* Swap in a new ring everywhere that holds one: the peer hooks' ref
   first (they are read per cache miss), then the router (which bumps
   the epoch; its next sweeps plan on the new ring). *)
let install_ring t ring' =
  t.ring_ref := Some ring';
  Router.reconfigure t.router ring'

let join t =
  locked t (fun () ->
      let name = shard_name (Array.length t.shards) in
      let s = mk_shard ~peering:t.peering ~ring_ref:t.ring_ref name in
      s.joined_late <- true;
      boot_server ~server_config:t.server_config ~workers:t.workers s;
      if t.proxied then boot_proxy s;
      (match Ring.add (current_ring t) (ring_node s) with
      | ring' ->
          t.shards <- Array.append t.shards [| s |];
          install_ring t ring'
      | exception e ->
          teardown_shard s;
          raise e);
      t.on_event (Shard_joined name);
      Array.length t.shards - 1)

let leave t i =
  locked t (fun () ->
      let s = t.shards.(i) in
      if s.removed then ()
      else begin
        (* Stop routing to it {e before} draining it: requests in
           flight during the drain fail over; requests after the
           reconfigure never see it. *)
        (match Ring.remove (current_ring t) s.name with
        | ring' ->
            s.removed <- true;
            install_ring t ring'
        | exception Invalid_argument _ ->
            invalid_arg "Cluster.leave: cannot remove the last ring node");
        kill_shard t i;
        (match s.proxy with
        | None -> ()
        | Some p ->
            s.proxy <- None;
            Netfault.shutdown p);
        t.on_event (Shard_left s.name)
      end)

(* ------------------------------------------------------- telemetry *)

(* Router counters plus every shard's peer counters in one snapshot —
   the cluster-wide [tt_shard_*] exposition. *)
let snapshot t =
  Array.fold_left
    (fun snap s -> Metrics.add_peers snap s.peer_metrics)
    (Metrics.snapshot (Router.metrics t.router))
    t.shards

let prometheus t = Metrics.to_prometheus (snapshot t)

let stop t =
  Atomic.set t.stop true;
  Option.iter Domain.join t.supervisor;
  t.supervisor <- None;
  Router.shutdown t.router;
  Array.iter teardown_shard t.shards
