(* Labels are computed bottom-up over the shape; weights are ignored. *)

let labels_with combine t =
  let lab = Array.make (Tree.size t) 1 in
  Array.iter
    (fun i ->
      let cs = Array.map (fun c -> lab.(c)) (Tree.children t i) in
      if Array.length cs > 0 then begin
        Array.sort (fun a b -> compare b a) cs;
        lab.(i) <- combine cs
      end)
    (Tree.bottom_up_order t);
  lab

let sethi_ullman t =
  let combine sorted =
    let best = ref 0 in
    Array.iteri (fun k r -> best := max !best (r + k)) sorted;
    !best
  in
  (labels_with combine t).(t.Tree.root)

let strahler t =
  let combine sorted =
    if Array.length sorted = 1 then sorted.(0)
    else if sorted.(0) = sorted.(1) then sorted.(0) + 1
    else sorted.(0)
  in
  (labels_with combine t).(t.Tree.root)

let unit_replacement_tree t =
  Transform.of_replacement_model ~parent:t.Tree.parent
    ~f:(Array.make (Tree.size t) 1)

let min_registers t = Minmem.min_memory (unit_replacement_tree t)
