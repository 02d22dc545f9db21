module Csr = Tt_sparse.Csr

type fronts = { parent : int array; rows : int array array; pivots : int array }

let columns (sym : Tt_etree.Symbolic.t) =
  { parent = sym.Tt_etree.Symbolic.parent;
    rows = sym.Tt_etree.Symbolic.col_struct;
    pivots = Array.make (Array.length sym.Tt_etree.Symbolic.parent) 1
  }

let supernodes (amal : Tt_etree.Amalgamation.t) rows =
  let groups = amal.Tt_etree.Amalgamation.groups in
  { parent = Array.map (fun g -> g.Tt_etree.Amalgamation.parent) groups;
    rows;
    pivots = Array.map (fun g -> g.Tt_etree.Amalgamation.eta) groups
  }

type store = Slots | Stack | Spill of bool array

type outcome = {
  l : Csr.t;
  peak : int;
  profile : int array;
  max_blocks : int;
  written : int;
}

(* The children of each node, in ascending order. *)
let children parent =
  let kids = Array.make (Array.length parent) [] in
  for c = Array.length parent - 1 downto 0 do
    if parent.(c) >= 0 then kids.(parent.(c)) <- c :: kids.(parent.(c))
  done;
  kids

let postorder parent =
  let kids = children parent in
  let order = Array.make (Array.length parent) 0 and k = ref 0 in
  let rec visit j =
    List.iter visit kids.(j);
    order.(!k) <- j;
    incr k
  in
  Array.iteri (fun j p -> if p < 0 then visit j) parent;
  order

let check fronts schedule =
  let n = Array.length fronts.parent in
  let seen = Array.make n false in
  let rec from step =
    if step = n then Ok ()
    else
      let j = schedule.(step) in
      if j < 0 || j >= n || seen.(j) then Error "bad schedule entry"
      else if fronts.parent.(j) >= 0 && seen.(fronts.parent.(j)) then
        Error "child after parent"
      else begin
        seen.(j) <- true;
        from (step + 1)
      end
  in
  if Array.length schedule <> n then Error "wrong schedule length" else from 0

(* The loop itself, on a checked schedule. *)
let execute (a : Csr.t) fronts store ~schedule =
  let n = a.Csr.nrows in
  let kids = children fronts.parent in
  let pending = Array.make (Array.length fronts.parent) None in
  let stack = ref [] and depth = ref 0 and max_blocks = ref 0 in
  let live = ref 0 and peak = ref 0 and written = ref 0 in
  let grow w =
    live := !live + w;
    if !live > !peak then peak := !live
  in
  let profile = Array.make (Array.length schedule) 0 in
  (* global row -> local index in the current front (stale elsewhere) *)
  let local = Array.make n (-1) in
  (* each column's factor values, and the rows of the front it came from *)
  let l_rows = Array.make n [||] and l_vals = Array.make n [||] in
  Array.iteri
    (fun step j ->
      let rows = fronts.rows.(j) in
      let m = Array.length rows in
      (* evicted children's blocks come back before the front is allocated *)
      (match store with
      | Spill out ->
          List.iter
            (fun c ->
              match pending.(c) with
              | Some cb when out.(c) -> live := !live + Front.words cb
              | _ -> ())
            kids.(j)
      | Slots | Stack -> ());
      let front = Front.create rows in
      grow (Front.words front);
      profile.(step) <- !live;
      Array.iteri (fun li r -> local.(r) <- li) rows;
      for k = 0 to fronts.pivots.(j) - 1 do
        let col = rows.(k) in
        for p = a.Csr.row_ptr.(col) to a.Csr.row_ptr.(col + 1) - 1 do
          let r = a.Csr.col_idx.(p) and v = a.Csr.values.(p) in
          if r >= col then begin
            let lr = local.(r) in
            if lr < 0 || lr >= m || rows.(lr) <> r then
              invalid_arg "Multifrontal: entry of A outside its front";
            Front.add front lr k v;
            if lr <> k then Front.add front k lr v
          end
        done
      done;
      let assemble cb =
        Front.extend_add ~into:front cb;
        live := !live - Front.words cb
      in
      (match store with
      | Stack ->
          List.iter
            (fun _ ->
              match !stack with
              | (c, cb) :: rest when fronts.parent.(c) = j ->
                  stack := rest;
                  decr depth;
                  assemble cb
              | (c, _) :: _ ->
                  failwith
                    (Printf.sprintf
                       "stack discipline violated at column %d: top block belongs to \
                        column %d (schedule is not a postorder)"
                       j c)
              | [] -> failwith "stack underflow")
            kids.(j)
      | Slots | Spill _ ->
          List.iter
            (fun c ->
              Option.iter assemble pending.(c);
              pending.(c) <- None)
            kids.(j));
      let cols, cb = Front.eliminate_pivots front fronts.pivots.(j) in
      List.iteri
        (fun k col ->
          l_rows.(rows.(k)) <- rows;
          l_vals.(rows.(k)) <- col)
        cols;
      live := !live - Front.words front;
      if Front.size cb > 0 then
        match store with
        | Spill out when out.(j) ->
            written := !written + Front.words cb;
            pending.(j) <- Some cb
        | Stack ->
            grow (Front.words cb);
            stack := (j, cb) :: !stack;
            incr depth;
            max_blocks := max !max_blocks !depth
        | Slots | Spill _ ->
            grow (Front.words cb);
            pending.(j) <- Some cb)
    schedule;
  (* column [col] holds rows [rows.(k ..)] of its front, [k] its pivot rank *)
  let t = Tt_sparse.Triplet.create ~nrows:n ~ncols:n in
  Array.iteri
    (fun col vals ->
      let rows = l_rows.(col) in
      let k = Array.length rows - Array.length vals in
      Array.iteri (fun i v -> Tt_sparse.Triplet.add t rows.(k + i) col v) vals)
    l_vals;
  { l = Csr.of_triplet t;
    peak = !peak;
    profile;
    max_blocks = !max_blocks;
    written = !written
  }

let run a fronts store ~schedule =
  match check fronts schedule with
  | Error _ as e -> e
  | Ok () -> ( try Ok (execute a fronts store ~schedule) with Failure e -> Error e)

let run_exn who a fronts store ~schedule =
  match check fronts schedule with
  | Error e -> invalid_arg (who ^ ": " ^ e)
  | Ok () -> execute a fronts store ~schedule
