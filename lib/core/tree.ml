type t = {
  parent : int array;
  child_off : int array;
  child : int array;
  f : int array;
  n : int array;
  root : int;
}

(* CSR adjacency from the parent array: counting pass, prefix sum, fill
   pass in increasing node index, so children end up sorted increasingly
   within each parent. *)
let csr_of_parents parent =
  let p = Array.length parent in
  let child_off = Array.make (p + 1) 0 in
  for i = 0 to p - 1 do
    let par = parent.(i) in
    if par >= 0 then child_off.(par + 1) <- child_off.(par + 1) + 1
  done;
  for i = 0 to p - 1 do
    child_off.(i + 1) <- child_off.(i + 1) + child_off.(i)
  done;
  let child = Array.make (max (p - 1) 0) 0 in
  let cursor = Array.sub child_off 0 p in
  for i = 0 to p - 1 do
    let par = parent.(i) in
    if par >= 0 then begin
      child.(cursor.(par)) <- i;
      cursor.(par) <- cursor.(par) + 1
    end
  done;
  (child_off, child)

(* The one validator: single root, in-range acyclic parents, [f >= 0].
   [who] prefixes the error messages. Takes the arrays over as they are. *)
let build who ~parent ~f ~n =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  let p = Array.length parent in
  if p = 0 then fail "empty tree";
  if Array.length f <> p || Array.length n <> p then fail "array length mismatch";
  for i = 0 to p - 1 do
    if f.(i) < 0 then fail (Printf.sprintf "f.(%d) < 0" i)
  done;
  let root = ref (-1) in
  for i = 0 to p - 1 do
    let par = parent.(i) in
    if par = -1 then begin
      if !root >= 0 then fail "several roots";
      root := i
    end
    else if par < 0 || par >= p then fail "parent out of range"
    else if par = i then fail "self-loop"
  done;
  if !root < 0 then fail "no root";
  (* acyclicity by iterative stamp climbing: byte states are 0 =
     unvisited, 1 = on current path, 2 = validated. Each node is climbed
     through at most twice, so the whole check is O(p) with no recursion
     and only one byte per node of scratch. *)
  let state = Bytes.make p '\000' in
  for i = 0 to p - 1 do
    if Bytes.get state i = '\000' then begin
      let j = ref i in
      let stop = ref false in
      while not !stop do
        match Bytes.get state !j with
        | '\000' ->
            Bytes.set state !j '\001';
            let par = parent.(!j) in
            if par < 0 then stop := true else j := par
        | '\001' -> fail "cycle in parent pointers"
        | _ -> stop := true
      done;
      (* second climb retires the freshly marked path *)
      let j = ref i in
      while Bytes.get state !j = '\001' do
        Bytes.set state !j '\002';
        let par = parent.(!j) in
        if par >= 0 then j := par
      done
    end
  done;
  let child_off, child = csr_of_parents parent in
  { parent; child_off; child; f; n; root = !root }

let make ~parent ~f ~n =
  build "Tree.make" ~parent:(Array.copy parent) ~f:(Array.copy f) ~n:(Array.copy n)

let of_arrays ~parent ~f ~n = build "Tree.of_arrays" ~parent ~f ~n

let of_parents parent =
  let p = Array.length parent in
  make ~parent ~f:(Array.make p 0) ~n:(Array.make p 0)

let size t = Array.length t.parent

let degree t i = t.child_off.(i + 1) - t.child_off.(i)
let children t i = Array.sub t.child t.child_off.(i) (degree t i)

let iter_children t i g =
  for k = t.child_off.(i) to t.child_off.(i + 1) - 1 do
    g t.child.(k)
  done

let sum_children_f t i =
  let acc = ref 0 in
  for k = t.child_off.(i) to t.child_off.(i + 1) - 1 do
    acc := !acc + t.f.(t.child.(k))
  done;
  !acc

let mem_req t i = t.f.(i) + t.n.(i) + sum_children_f t i

let max_mem_req t =
  let best = ref min_int in
  for i = 0 to size t - 1 do
    let r = mem_req t i in
    if r > !best then best := r
  done;
  !best

let total_f t = Array.fold_left ( + ) 0 t.f
let is_leaf t i = degree t i = 0

let depth t =
  let p = size t in
  let d = Array.make p (-1) in
  (* parents can have larger indices than children, so BFS from the
     root; every node enters the queue exactly once, so a flat ring of
     size p suffices *)
  let queue = Array.make p 0 in
  d.(t.root) <- 0;
  queue.(0) <- t.root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    for k = t.child_off.(i) to t.child_off.(i + 1) - 1 do
      let j = t.child.(k) in
      d.(j) <- d.(i) + 1;
      queue.(!tail) <- j;
      incr tail
    done
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
  Array.iter
    (fun i -> if t.parent.(i) >= 0 then sz.(t.parent.(i)) <- sz.(t.parent.(i)) + sz.(i))
    (bottom_up_order t);
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
        for k = t.child_off.(i + 1) - 1 downto t.child_off.(i) do
          stack := t.child.(k) :: !stack
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
