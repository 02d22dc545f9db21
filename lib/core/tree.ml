type t = {
  parent : int array;
  children : int array array;
  f : int array;
  n : int array;
  root : int;
}

let children_of_parents parent =
  let p = Array.length parent in
  let counts = Array.make p 0 in
  Array.iter (fun par -> if par >= 0 then counts.(par) <- counts.(par) + 1) parent;
  let children = Array.map (fun c -> Array.make c (-1)) counts in
  let fill = Array.make p 0 in
  (* iterate in index order so children arrays are sorted increasingly *)
  for i = 0 to p - 1 do
    let par = parent.(i) in
    if par >= 0 then begin
      children.(par).(fill.(par)) <- i;
      fill.(par) <- fill.(par) + 1
    end
  done;
  children

let make ~parent ~f ~n =
  let p = Array.length parent in
  if p = 0 then invalid_arg "Tree.make: empty tree";
  if Array.length f <> p || Array.length n <> p then
    invalid_arg "Tree.make: array length mismatch";
  Array.iteri
    (fun i fi -> if fi < 0 then invalid_arg (Printf.sprintf "Tree.make: f.(%d) < 0" i))
    f;
  let root = ref (-1) in
  Array.iteri
    (fun i par ->
      if par = -1 then begin
        if !root >= 0 then invalid_arg "Tree.make: several roots";
        root := i
      end
      else if par < 0 || par >= p then invalid_arg "Tree.make: parent out of range"
      else if par = i then invalid_arg "Tree.make: self-loop")
    parent;
  if !root < 0 then invalid_arg "Tree.make: no root";
  (* acyclicity: walk up from each node with a visitation stamp *)
  let state = Array.make p 0 in
  (* 0 = unvisited, 1 = on current path, 2 = validated *)
  for i = 0 to p - 1 do
    let rec climb j path =
      if state.(j) = 1 then invalid_arg "Tree.make: cycle in parent pointers"
      else if state.(j) = 0 then begin
        state.(j) <- 1;
        let path = j :: path in
        if parent.(j) >= 0 then climb parent.(j) path
        else List.iter (fun k -> state.(k) <- 2) path
      end
      else List.iter (fun k -> state.(k) <- 2) path
    in
    if state.(i) = 0 then climb i []
  done;
  { parent = Array.copy parent;
    children = children_of_parents parent;
    f = Array.copy f;
    n = Array.copy n;
    root = !root }

let of_parents parent =
  let p = Array.length parent in
  make ~parent ~f:(Array.make p 0) ~n:(Array.make p 0)

let size t = Array.length t.parent

let sum_children_f t i =
  Array.fold_left (fun acc j -> acc + t.f.(j)) 0 t.children.(i)

let mem_req t i = t.f.(i) + t.n.(i) + sum_children_f t i

let max_mem_req t =
  let best = ref min_int in
  for i = 0 to size t - 1 do
    let r = mem_req t i in
    if r > !best then best := r
  done;
  !best

let total_f t = Array.fold_left ( + ) 0 t.f
let is_leaf t i = Array.length t.children.(i) = 0

let depth t =
  let p = size t in
  let d = Array.make p (-1) in
  d.(t.root) <- 0;
  (* parents can have larger indices than children, so BFS from the root *)
  let queue = Queue.create () in
  Queue.add t.root queue;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    Array.iter
      (fun j ->
        d.(j) <- d.(i) + 1;
        Queue.add j queue)
      t.children.(i)
  done;
  d

let height t = Array.fold_left max 0 (depth t)

let bottom_up_order t =
  let p = size t in
  let d = depth t in
  (* counting sort on depth, deepest bucket first: children always come
     before their parent, ascending node index within a depth level.
     A comparison sort here is a measurable share of Liu's runtime. *)
  let maxd = Array.fold_left max 0 d in
  let start = Array.make (maxd + 1) 0 in
  Array.iter (fun dv -> start.(dv) <- start.(dv) + 1) d;
  let acc = ref 0 in
  for dv = maxd downto 0 do
    let c = start.(dv) in
    start.(dv) <- !acc;
    acc := !acc + c
  done;
  let order = Array.make p 0 in
  for i = 0 to p - 1 do
    let dv = d.(i) in
    order.(start.(dv)) <- i;
    start.(dv) <- start.(dv) + 1
  done;
  order

let subtree_sizes t =
  let p = size t in
  let sz = Array.make p 1 in
  (* process nodes in decreasing depth so children are done first *)
  let d = depth t in
  let order = Array.init p (fun i -> i) in
  Array.sort (fun a b -> compare d.(b) d.(a)) order;
  Array.iter
    (fun i -> if t.parent.(i) >= 0 then sz.(t.parent.(i)) <- sz.(t.parent.(i)) + sz.(i))
    order;
  sz

let map_weights ~f ~n t =
  make ~parent:t.parent ~f:(Array.init (size t) f) ~n:(Array.init (size t) n)

let equal a b = a.parent = b.parent && a.f = b.f && a.n = b.n

let pp ppf t =
  let d = depth t in
  (* explicit stack: depth-first preorder without recursing down the
     tree, so printing survives chains deeper than the call stack. The
     indent is capped so a deep chain costs O(p) output, not O(p²). *)
  let max_indent = 64 in
  let stack = ref [ t.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        Format.fprintf ppf "%s%d [f=%d n=%d]@\n"
          (String.make (min max_indent (2 * d.(i))) ' ')
          i t.f.(i) t.n.(i);
        let cs = t.children.(i) in
        for j = Array.length cs - 1 downto 0 do
          stack := cs.(j) :: !stack
        done
  done

let to_dot ?label t =
  let label =
    match label with
    | Some f -> f
    | None -> fun i -> Printf.sprintf "%d\\nn=%d" i t.n.(i)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph tree {\n  node [shape=box];\n";
  for i = 0 to size t - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" i (label i));
    if t.parent.(i) >= 0 then
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" t.parent.(i) i t.f.(i))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* The canonical encoding is the preimage of every content address
   (Job.id, tree digests), so it runs once per job on the serving and
   batch hot paths. It is written without Printf: one pass sizes the
   output exactly, a second writes the decimals right to left into that
   one buffer. Negative values are written from their (non-positive)
   remainders, so [min_int] needs no special case. *)

let dec_width v =
  let rec go v w = if v > -10 then w else go (v / 10) (w + 1) in
  if v < 0 then go v 2 else go (-v) 1

(* Writes [v] so that its last digit lands at [b.[last]]; returns the
   position before its first character. *)
let put_dec b last v =
  let rec go v pos =
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 - (v mod 10)));
    if v > -10 then pos - 1 else go (v / 10) (pos - 1)
  in
  let pos = go (if v < 0 then v else -v) last in
  if v < 0 then begin
    Bytes.unsafe_set b pos '-';
    pos - 1
  end
  else pos

let to_string t =
  let p = size t in
  let len = ref (dec_width p) in
  for i = 0 to p - 1 do
    len := !len + 3 + dec_width t.parent.(i) + dec_width t.f.(i) + dec_width t.n.(i)
  done;
  let b = Bytes.create !len in
  let pos = ref (!len - 1) in
  for i = p - 1 downto 0 do
    let at = put_dec b !pos t.n.(i) in
    Bytes.unsafe_set b at ':';
    let at = put_dec b (at - 1) t.f.(i) in
    Bytes.unsafe_set b at ':';
    let at = put_dec b (at - 1) t.parent.(i) in
    Bytes.unsafe_set b at ' ';
    pos := at - 1
  done;
  ignore (put_dec b !pos p);
  Bytes.unsafe_to_string b

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [] -> invalid_arg "Tree.of_string: empty"
  | count :: rest ->
      let p = try int_of_string count with _ -> invalid_arg "Tree.of_string: bad count" in
      if List.length rest <> p then invalid_arg "Tree.of_string: wrong node count";
      let parent = Array.make p 0 and f = Array.make p 0 and n = Array.make p 0 in
      List.iteri
        (fun i field ->
          match String.split_on_char ':' field with
          | [ a; b; c ] -> begin
              try
                parent.(i) <- int_of_string a;
                f.(i) <- int_of_string b;
                n.(i) <- int_of_string c
              with _ -> invalid_arg "Tree.of_string: bad integer"
            end
          | _ -> invalid_arg "Tree.of_string: bad field")
        rest;
      make ~parent ~f ~n

let random ~rng ~size:p ~max_f ~max_n =
  if p <= 0 then invalid_arg "Tree.random: size must be positive";
  let parent = Array.make p (-1) in
  for i = 1 to p - 1 do
    parent.(i) <- Tt_util.Rng.int rng i
  done;
  let f = Array.init p (fun i -> if i = 0 then Tt_util.Rng.int_incl rng 0 max_f
                                  else Tt_util.Rng.int_incl rng 1 (max max_f 1)) in
  let n = Array.init p (fun _ -> Tt_util.Rng.int_incl rng 0 (max max_n 0)) in
  make ~parent ~f ~n

let random_shape ~rng ~size:p ~max_degree =
  if p <= 0 then invalid_arg "Tree.random_shape: size must be positive";
  if max_degree < 1 then invalid_arg "Tree.random_shape: max_degree must be >= 1";
  let parent = Array.make p (-1) in
  let degree = Array.make p 0 in
  for i = 1 to p - 1 do
    (* rejection sample a parent with available arity; node i-1 always has
       arity available in the worst case of a chain *)
    let rec attach () =
      let cand = Tt_util.Rng.int rng i in
      if degree.(cand) < max_degree then cand
      else attach ()
    in
    let par = if degree.(i - 1) < max_degree then attach () else i - 1 in
    parent.(i) <- par;
    degree.(par) <- degree.(par) + 1
  done;
  of_parents parent
