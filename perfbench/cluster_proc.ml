(* The cluster under test, in its own process: [bench serve-cluster]
   boots a [Tt_shard.Cluster] with the configuration [treetrav cluster
   --shards 2 --workers 1] uses, prints its router port, and then
   answers line commands on stdin — [peer] prints the cluster's peer
   counters (which no wire op exposes), [stop] or end of input drains
   it. A parent that dies closes the pipe, so the cluster never
   outlives the benchmark. *)

(* The cluster shape of both serving workloads. *)
let shards = 2
let workers = 1

let serve () =
  let module Cl = Tt_shard.Cluster in
  let router_config = { Tt_shard.Router.default_config with port = 0 } in
  let server_config = { Tt_server.Server.default_config with queue_capacity = 64 } in
  let t = Cl.start ~shards ~workers ~peering:true ~router_config ~server_config () in
  Printf.printf "router %d\n%!" (Cl.router_port t);
  let rec loop () =
    match input_line stdin with
    | "peer" ->
        let s = Cl.snapshot t in
        Printf.printf "peer %d %d\n%!" s.Tt_shard.Metrics.peer_hits s.Tt_shard.Metrics.peer_misses;
        loop ()
    | "stop" | (exception End_of_file) -> ()
    | _ -> loop ()
  in
  loop ();
  Cl.stop t

type t = {
  pid : int;
  cmd : out_channel;
  reply : in_channel;
  router_port : int;
}

let start ~exe =
  let child_in, cmd_fd = Unix.pipe ~cloexec:true () in
  let reply_fd, child_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "serve-cluster" |] child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  let cmd = Unix.out_channel_of_descr cmd_fd and reply = Unix.in_channel_of_descr reply_fd in
  match Scanf.sscanf (input_line reply) "router %d" Fun.id with
  | router_port -> { pid; cmd; reply; router_port }
  | exception e ->
      close_out_noerr cmd;
      ignore (Unix.waitpid [] pid);
      failwith ("cluster process did not start: " ^ Printexc.to_string e)

let peer_counters t =
  output_string t.cmd "peer\n";
  flush t.cmd;
  Scanf.sscanf (input_line t.reply) "peer %d %d" (fun h m -> (h, m))

(* Peak resident set of the cluster process, in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let peak_rss_mb t = vm_hwm_mb t.pid
let self_peak_rss_mb () = vm_hwm_mb (Unix.getpid ())

let stop t =
  (try
     output_string t.cmd "stop\n";
     close_out t.cmd
   with Sys_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  close_in_noerr t.reply

let stats ~port =
  match
    Tt_server.Client.with_connection ~port (fun c ->
        Tt_server.Client.call c Tt_server.Protocol.Stats)
  with
  | Ok (Tt_server.Protocol.Stats_reply j) -> j
  | Ok _ -> failwith "stats: unexpected reply"
  | Error e -> failwith ("stats: " ^ e)

let shard_ports j =
  match Layers.shard_map j with
  | None -> failwith "router stats carry no shard map"
  | Some map -> (
      match Tt_shard.Ring.of_string map with
      | Ok ring -> List.map (fun (n : Tt_shard.Ring.node) -> n.port) (Tt_shard.Ring.nodes ring)
      | Error e -> failwith ("bad shard map: " ^ e))
