(* All generators build a symmetric pattern with off-diagonal value -1
   (or a random negative weight) and a diagonal making the matrix strictly
   diagonally dominant, hence SPD. *)

let finalize t =
  let a = Csr.of_triplet t in
  Csr.symmetrize_values a

(* The duplicate-free stencils write their sorted rows directly, with
   the values [finalize] gives the same entries: [neighbours i f] calls
   [f j] on each column [j <> i] of row [i], ascending, each with value
   [v], and the diagonal, 1 plus the absolute off-diagonals summed in
   column order, goes after the columns below [i]. A stencil that lists
   both [(i, j)] and [(j, i)] has [v = -1] (the two halves of
   [(A + A^T) / 2]); one that lists only [(i, j)] with [j < i] has
   [v = -0.5]. *)
let dominant ~n ~v neighbours =
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let c = ref 1 in
    neighbours i (fun _ -> incr c);
    row_ptr.(i + 1) <- row_ptr.(i) + !c
  done;
  let col_idx = Array.make row_ptr.(n) 0 and values = Array.make row_ptr.(n) 0. in
  for i = 0 to n - 1 do
    let pos = ref row_ptr.(i) and diag = ref (-1) and s = ref 1. in
    neighbours i (fun j ->
        if j > i && !diag < 0 then begin
          diag := !pos;
          incr pos
        end;
        col_idx.(!pos) <- j;
        values.(!pos) <- v;
        s := !s +. Float.abs v;
        incr pos);
    let d = if !diag < 0 then !pos else !diag in
    col_idx.(d) <- i;
    values.(d) <- !s
  done;
  Csr.of_rows ~nrows:n ~ncols:n ~row_ptr ~col_idx ~values

(* A kx×ky grid numbered [x * ky + y]. Offsets sorted lexicographically
   reach their in-grid neighbours in ascending order. A side below 1
   gives no neighbours (and a negative square side a diagonal matrix). *)
let grid_stencil ~kx ~ky ~offsets =
  dominant ~n:(kx * ky) ~v:(-1.) (fun i f ->
      if kx > 0 && ky > 0 then begin
        let x = i / ky and y = i mod ky in
        List.iter
          (fun (dx, dy) ->
            let x' = x + dx and y' = y + dy in
            if x' >= 0 && x' < kx && y' >= 0 && y' < ky then f ((x' * ky) + y'))
          offsets
      end)

let five_point = [ (-1, 0); (0, -1); (0, 1); (1, 0) ]
let grid2d k = grid_stencil ~kx:k ~ky:k ~offsets:five_point
let grid2d_rect kx ky = grid_stencil ~kx ~ky ~offsets:five_point

let grid2d_9pt k =
  grid_stencil ~kx:k ~ky:k
    ~offsets:[ (-1, -1); (-1, 0); (-1, 1); (0, -1); (0, 1); (1, -1); (1, 0); (1, 1) ]

let grid3d k =
  let offsets = [ (-1, 0, 0); (0, -1, 0); (0, 0, -1); (0, 0, 1); (0, 1, 0); (1, 0, 0) ] in
  dominant ~n:(k * k * k) ~v:(-1.) (fun i f ->
      if k > 0 then begin
        let x = i / (k * k) and y = i / k mod k and z = i mod k in
        List.iter
          (fun (dx, dy, dz) ->
            let x' = x + dx and y' = y + dy and z' = z + dz in
            if x' >= 0 && x' < k && y' >= 0 && y' < k && z' >= 0 && z' < k then
              f ((((x' * k) + y') * k) + z'))
          offsets
      end)

let banded ~rng ~n ~bandwidth ~fill =
  if bandwidth < 1 then invalid_arg "Spgen.banded: bandwidth < 1";
  let t = Triplet.create ~nrows:n ~ncols:n in
  for i = 0 to n - 1 do
    (* keep the band connected so the etree is a single tree *)
    if i > 0 then Triplet.add t i (i - 1) (-1.);
    for j = max 0 (i - bandwidth) to i - 2 do
      if Tt_util.Rng.float rng 1.0 < fill then Triplet.add t i j (-1.)
    done
  done;
  finalize t

let random_sym ~rng ~n ~nnz_per_row =
  let t = Triplet.create ~nrows:n ~ncols:n in
  (* spanning path for connectivity *)
  for i = 1 to n - 1 do
    Triplet.add t i (i - 1) (-1.)
  done;
  let extra = int_of_float (nnz_per_row *. float_of_int n /. 2.) in
  for _ = 1 to extra do
    let i = Tt_util.Rng.int rng n and j = Tt_util.Rng.int rng n in
    if i <> j then Triplet.add t (max i j) (min i j) (-1.)
  done;
  finalize t

let block_arrow ~n ~blocks ~border =
  if blocks < 1 || border < 0 || border >= n then
    invalid_arg "Spgen.block_arrow: bad shape";
  let t = Triplet.create ~nrows:n ~ncols:n in
  let body = n - border in
  let block_size = max 1 (body / blocks) in
  for i = 0 to body - 1 do
    let b = min (i / block_size) (blocks - 1) in
    let lo = b * block_size in
    (* tridiagonal coupling inside each block *)
    if i > lo then Triplet.add t i (i - 1) (-1.);
    (* plus a link to the block head for a denser block pattern *)
    if i > lo then Triplet.add t i lo (-1.)
  done;
  for i = body to n - 1 do
    (* dense border rows *)
    for j = 0 to i - 1 do
      Triplet.add t i j (-1.)
    done
  done;
  finalize t

let power_law ~rng ~n ~edges_per_node =
  if edges_per_node < 1 then invalid_arg "Spgen.power_law: edges_per_node < 1";
  let t = Triplet.create ~nrows:n ~ncols:n in
  (* endpoints list for preferential attachment *)
  let endpoints = Tt_util.Dynarray_compat.create () in
  Tt_util.Dynarray_compat.add_last endpoints 0;
  for i = 1 to n - 1 do
    for _ = 1 to edges_per_node do
      let j =
        if Tt_util.Rng.float rng 1.0 < 0.2 then Tt_util.Rng.int rng i
        else
          Tt_util.Dynarray_compat.get endpoints
            (Tt_util.Rng.int rng (Tt_util.Dynarray_compat.length endpoints))
      in
      if j <> i then begin
        Triplet.add t (max i j) (min i j) (-1.);
        Tt_util.Dynarray_compat.add_last endpoints j
      end
    done;
    Tt_util.Dynarray_compat.add_last endpoints i
  done;
  finalize t

let tridiagonal n =
  dominant ~n ~v:(-0.5) (fun i f ->
      if i > 0 then f (i - 1);
      if i < n - 1 then f (i + 1))
