type outcome = {
  order : int array;
  schedule : Io_schedule.t;
  io : int;
  source : string;
}

(* A postorder with uniformly shuffled child orders: emitted iteratively
   to survive deep chains. *)
let shuffled_postorder ~rng t =
  let p = Tree.size t in
  let order = Array.make p (-1) in
  let k = ref 0 in
  let stack = ref [ t.Tree.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        order.(!k) <- i;
        incr k;
        let cs = Tree.children t i in
        Tt_util.Rng.shuffle rng cs;
        Array.iter (fun c -> stack := c :: !stack) cs
  done;
  order

let candidates ~rng ~attempts t =
  let fixed =
    [ ("postorder", snd (Postorder_opt.run t));
      ("liu", snd (Liu_exact.run t));
      ("minmem", snd (Minmem.run t))
    ]
  in
  let perturbed =
    List.init attempts (fun k ->
        (Printf.sprintf "postorder~%d" k, shuffled_postorder ~rng t))
  in
  let random =
    List.init attempts (fun k ->
        (Printf.sprintf "random~%d" k, Traversal.random_order ~rng t))
  in
  fixed @ perturbed @ random

let run ?(cancel = Tt_util.Cancel.never) ?(policy = Minio.First_fit)
    ?(attempts = 8) ~rng t ~memory =
  List.fold_left
    (fun best (source, order) ->
      Tt_util.Cancel.check cancel;
      match Minio.run t ~memory ~order policy with
      | None -> best
      | Some schedule -> (
          let io = Io_schedule.io_volume t schedule in
          match best with
          | Some b when b.io <= io -> best
          | _ -> Some { order; schedule; io; source }))
    None
    (candidates ~rng ~attempts t)
