module P = Tt_server.Protocol
module Client = Tt_server.Client
module L = Tt_server.Loadgen

type t = {
  fwd : Forward.t;
  tag : string;
  mutable seq : int;
  memo : Tt_engine.Entry_memo.t;
}

let create ?connect_timeout_s ?read_timeout_s ?retry ?(tag = "sc") ?metrics
    ring =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  { fwd =
      Forward.create ?connect_timeout_s ?read_timeout_s ?retry ~metrics ring;
    tag;
    seq = 0;
    memo = Tt_engine.Entry_memo.create ()
  }

let close t = Forward.close t.fwd

let solve t ?timeout_s ?idem ?(priority = P.Interactive) entry =
  match Tt_engine.Entry_memo.route_key t.memo entry with
  | Error msg -> Error (Client.Refused (P.Bad_request, msg))
  | Ok key -> (
      let idem =
        match idem with
        | Some k -> k
        | None ->
            let k = Printf.sprintf "%s-%d" t.tag t.seq in
            t.seq <- t.seq + 1;
            k
      in
      let op = P.Solve { entry; timeout_s; idem = Some idem; priority } in
      match Forward.call t.fwd ~key op with
      | Ok (P.Results reports) -> Ok reports
      | Ok (P.Refused { code; msg }) -> Error (Client.Refused (code, msg))
      | Ok
          (P.Stats_reply _ | P.Health_reply _ | P.Pong | P.Draining
          | P.Peeked _) ->
          Error (Client.Transport "unexpected response body for solve")
      | Error (P.Internal, msg) -> Error (Client.Transport msg)
      | Error (code, msg) -> Error (Client.Refused (code, msg)))

let peek t key =
  match Forward.call t.fwd ~key (P.Peek { key }) with
  | Ok (P.Peeked r) -> r
  | Ok _ | Error _ -> None

(* Adapter for [Loadgen.config.solver]: each load connection gets its
   own Shard_client (they are single-domain), all sharing [metrics]. *)
let loadgen_solver ?connect_timeout_s ?read_timeout_s ?retry ?metrics ring =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  fun ~tag ~conn ->
    let sc =
      create ?connect_timeout_s ?read_timeout_s ?retry
        ~tag:(Printf.sprintf "%s-c%d" tag conn)
        ~metrics ring
    in
    { L.sv_solve =
        (fun ?timeout_s ?priority ~idem entry ->
          solve sc ?timeout_s ?priority ~idem entry);
      sv_close = (fun () -> close sc)
    }
