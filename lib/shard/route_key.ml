let compute entry =
  match Tt_engine.Manifest.parse_wire entry with
  | Error e -> Error e
  | Ok [] -> Error "entry resolves to no jobs"
  | Ok (job :: _) -> Ok (Tt_engine.Job.id job)

type memo = { mu : Mutex.t; tbl : (Digest.t, (string, string) result) Hashtbl.t }

let max_route_memo = 4096
let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

let locked memo f =
  Mutex.lock memo.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo.mu) f

let find memo entry =
  let d = Digest.string entry in
  match locked memo (fun () -> Hashtbl.find_opt memo.tbl d) with
  | Some r -> r
  | None ->
      let r = compute entry in
      locked memo (fun () ->
          if Hashtbl.length memo.tbl < max_route_memo then Hashtbl.replace memo.tbl d r);
      r

let length memo = locked memo (fun () -> Hashtbl.length memo.tbl)
