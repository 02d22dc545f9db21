type t = { n : int; adj : int array array }

(* [a] sorted, deduplicated and without [i] *)
let clean i a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  (* keep the first of each run, dropping [i]; writes trail reads *)
  let k = ref 0 and prev = ref (-1) in
  Array.iter
    (fun v ->
      if v <> !prev then begin
        prev := v;
        if v <> i then begin
          a.(!k) <- v;
          incr k
        end
      end)
    a;
  if !k = Array.length a then a else Array.sub a 0 !k

(* Whether [u] in [v]'s list always means [v] in [u]'s, for sorted
   lists. Visiting the lists in order meets the entries naming [u] in
   ascending order, as [u]'s list holds them, so one cursor per list
   matches each entry with its reverse. If every entry is matched, every
   cursor has reached its list's end. *)
let symmetric adj =
  let cur = Array.make (Array.length adj) 0 in
  let ok = ref true in
  Array.iteri
    (fun v a ->
      Array.iter
        (fun u ->
          let c = cur.(u) in
          if c < Array.length adj.(u) && adj.(u).(c) = v then cur.(u) <- c + 1
          else ok := false)
        a)
    adj;
  !ok

(* each list joined with the vertices whose lists name it, cleaned *)
let close adj =
  let named_by = Array.make (Array.length adj) [] in
  Array.iteri (fun v a -> Array.iter (fun u -> named_by.(u) <- v :: named_by.(u)) a) adj;
  Array.mapi (fun v a -> clean v (Array.append a (Array.of_list named_by.(v)))) adj

let undirected adj = { n = Array.length adj; adj = (if symmetric adj then adj else close adj) }

let of_pattern (a : Tt_sparse.Csr.t) =
  let open Tt_sparse.Csr in
  if a.nrows <> a.ncols then invalid_arg "Graph_adj.of_pattern: not square";
  undirected
    (Array.init a.nrows (fun i ->
         let lo = a.row_ptr.(i) and hi = a.row_ptr.(i + 1) in
         (* rows are sorted and duplicate-free: skip the diagonal entry *)
         let d = ref lo in
         while !d < hi && a.col_idx.(!d) < i do incr d done;
         if !d < hi && a.col_idx.(!d) = i then
           Array.init (hi - lo - 1) (fun j ->
               a.col_idx.(if lo + j < !d then lo + j else lo + j + 1))
         else Array.sub a.col_idx lo (hi - lo)))

let of_adjacency adj =
  let n = Array.length adj in
  Array.iter
    (Array.iter (fun v ->
         if v < 0 || v >= n then invalid_arg "Graph_adj.of_adjacency: out of range"))
    adj;
  undirected (Array.mapi clean adj)

let degree g i = Array.length g.adj.(i)

let bfs_levels g s =
  let level = Array.make g.n (-1) in
  let queue = Queue.create () in
  level.(s) <- 0;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  level

let components g =
  let comp = Array.make g.n (-1) in
  let count = ref 0 in
  for s = 0 to g.n - 1 do
    if comp.(s) < 0 then begin
      let c = !count in
      incr count;
      let queue = Queue.create () in
      comp.(s) <- c;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Array.iter
          (fun v ->
            if comp.(v) < 0 then begin
              comp.(v) <- c;
              Queue.add v queue
            end)
          g.adj.(u)
      done
    end
  done;
  (comp, !count)

let pseudo_peripheral g seed =
  let rec improve current ecc rounds =
    if rounds = 0 then current
    else begin
      let level = bfs_levels g current in
      (* farthest vertex of minimal degree in the last level *)
      let far = ref current and far_l = ref (-1) in
      Array.iteri
        (fun v l ->
          if
            l > !far_l
            || (l = !far_l && l >= 0 && degree g v < degree g !far)
          then begin
            far := v;
            far_l := l
          end)
        level;
      if !far_l > ecc then improve !far !far_l (rounds - 1) else current
    end
  in
  improve seed (-1) 8
