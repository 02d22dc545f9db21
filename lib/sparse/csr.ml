type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

(* Build from unsorted (row, col, value) arrays, summing duplicates. Two
   counting-sort passes keep construction O(nnz + n). *)
let compress ~nrows ~ncols rows cols vals =
  let m = Array.length rows in
  let counts = Array.make (nrows + 1) 0 in
  Array.iter (fun i -> counts.(i + 1) <- counts.(i + 1) + 1) rows;
  for i = 0 to nrows - 1 do
    counts.(i + 1) <- counts.(i + 1) + counts.(i)
  done;
  let start = Array.copy counts in
  let cj = Array.make m 0 and cv = Array.make m 0. in
  let fill = Array.copy start in
  for k = 0 to m - 1 do
    let i = rows.(k) in
    cj.(fill.(i)) <- cols.(k);
    cv.(fill.(i)) <- vals.(k);
    fill.(i) <- fill.(i) + 1
  done;
  (* sort each row by column and sum duplicates *)
  let out_ptr = Array.make (nrows + 1) 0 in
  let oj = Array.make m 0 and ov = Array.make m 0. in
  let pos = ref 0 in
  for i = 0 to nrows - 1 do
    out_ptr.(i) <- !pos;
    let lo = start.(i) and hi = start.(i + 1) in
    let len = hi - lo in
    if len > 0 then begin
      let idx = Array.init len (fun k -> lo + k) in
      Array.sort (fun a b -> compare cj.(a) cj.(b)) idx;
      let prev = ref (-1) in
      Array.iter
        (fun k ->
          if cj.(k) = !prev then ov.(!pos - 1) <- ov.(!pos - 1) +. cv.(k)
          else begin
            oj.(!pos) <- cj.(k);
            ov.(!pos) <- cv.(k);
            prev := cj.(k);
            incr pos
          end)
        idx
    end
  done;
  out_ptr.(nrows) <- !pos;
  { nrows;
    ncols;
    row_ptr = out_ptr;
    col_idx = Array.sub oj 0 !pos;
    values = Array.sub ov 0 !pos }

let of_triplet t =
  let m = Triplet.nnz t in
  let rows = Array.make m 0 and cols = Array.make m 0 and vals = Array.make m 0. in
  let k = ref 0 in
  Triplet.iter
    (fun i j v ->
      rows.(!k) <- i;
      cols.(!k) <- j;
      vals.(!k) <- v;
      incr k)
    t;
  compress ~nrows:(Triplet.nrows t) ~ncols:(Triplet.ncols t) rows cols vals

let of_rows ~nrows ~ncols ~row_ptr ~col_idx ~values =
  let bad what = invalid_arg ("Csr.of_rows: " ^ what) in
  if nrows < 0 || ncols < 0 then bad "negative dimension";
  if Array.length row_ptr <> nrows + 1 || row_ptr.(0) <> 0 then bad "bad row_ptr";
  let nnz = row_ptr.(nrows) in
  if Array.length col_idx <> nnz || Array.length values <> nnz then bad "lengths disagree";
  for i = 0 to nrows - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    if hi < lo then bad "bad row_ptr";
    for k = lo to hi - 1 do
      let j = col_idx.(k) in
      if j < 0 || j >= ncols || (k > lo && j <= col_idx.(k - 1)) then
        bad "columns not ascending within range"
    done
  done;
  { nrows; ncols; row_ptr; col_idx; values }

let of_dense d =
  let nrows = Array.length d in
  let ncols = if nrows = 0 then 0 else Array.length d.(0) in
  let t = Triplet.create ~nrows ~ncols in
  Array.iteri
    (fun i r -> Array.iteri (fun j v -> if v <> 0. then Triplet.add t i j v) r)
    d;
  of_triplet t

let to_dense a =
  let d = Array.make_matrix a.nrows a.ncols 0. in
  for i = 0 to a.nrows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      d.(i).(a.col_idx.(k)) <- a.values.(k)
    done
  done;
  d

let nnz a = a.row_ptr.(a.nrows)

let get a i j =
  let lo = ref a.row_ptr.(i) and hi = ref (a.row_ptr.(i + 1) - 1) in
  let res = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = a.col_idx.(mid) in
    if c = j then begin
      res := a.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let row a i =
  let lo = a.row_ptr.(i) and hi = a.row_ptr.(i + 1) in
  let rec gen k () =
    if k >= hi then Seq.Nil else Seq.Cons ((a.col_idx.(k), a.values.(k)), gen (k + 1))
  in
  gen lo

(* Rows of a [t] are sorted and duplicate-free, so the builders below
   need no sort and sum nothing: a counting pass over the rows in order
   fills each column with its rows sorted, and merging sorted rows keeps
   them sorted. *)

let transpose a =
  let m = nnz a in
  let row_ptr = Array.make (a.ncols + 1) 0 in
  for k = 0 to m - 1 do
    let j = a.col_idx.(k) in
    row_ptr.(j + 1) <- row_ptr.(j + 1) + 1
  done;
  for j = 0 to a.ncols - 1 do
    row_ptr.(j + 1) <- row_ptr.(j + 1) + row_ptr.(j)
  done;
  let col_idx = Array.make m 0 and values = Array.make m 0. in
  let fill = Array.sub row_ptr 0 a.ncols in
  for i = 0 to a.nrows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      let j = a.col_idx.(k) in
      col_idx.(fill.(j)) <- i;
      values.(fill.(j)) <- a.values.(k);
      fill.(j) <- fill.(j) + 1
    done
  done;
  { nrows = a.ncols; ncols = a.nrows; row_ptr; col_idx; values }

let is_symmetric ?(tol = 0.) a =
  if a.nrows <> a.ncols then false
  else begin
    let at = transpose a in
    if a.row_ptr <> at.row_ptr || a.col_idx <> at.col_idx then false
    else begin
      let ok = ref true in
      Array.iteri
        (fun k v -> if Float.abs (v -. at.values.(k)) > tol then ok := false)
        a.values;
      !ok
    end
  end

let symmetrize_pattern a =
  if a.nrows <> a.ncols then invalid_arg "Csr.symmetrize_pattern: not square";
  let n = a.nrows and at = transpose a in
  (* [union i f] calls [f] on each column of row [i] of [a], row [i] of
     [a^T] and [i], ascending *)
  let union i f =
    let k = ref a.row_ptr.(i) and q = ref at.row_ptr.(i) and d = ref i in
    let ke = a.row_ptr.(i + 1) and qe = at.row_ptr.(i + 1) in
    while !k < ke || !q < qe || !d < max_int do
      let ck = if !k < ke then a.col_idx.(!k) else max_int in
      let cq = if !q < qe then at.col_idx.(!q) else max_int in
      let c = min !d (min ck cq) in
      if ck = c then incr k;
      if cq = c then incr q;
      if !d = c then d := max_int;
      f c
    done
  in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i);
    union i (fun _ -> row_ptr.(i + 1) <- row_ptr.(i + 1) + 1)
  done;
  let col_idx = Array.make row_ptr.(n) 0 and pos = ref 0 in
  for i = 0 to n - 1 do
    union i (fun c ->
        col_idx.(!pos) <- c;
        incr pos)
  done;
  { nrows = n; ncols = n; row_ptr; col_idx; values = Array.make row_ptr.(n) 1. }

let symmetrize_values a =
  if a.nrows <> a.ncols then invalid_arg "Csr.symmetrize_values: not square";
  let n = a.nrows and at = transpose a in
  (* [halves i f] calls [f c v] on each column [c <> i] of row [i] of
     [(A + A^T) / 2], ascending: [v] is half the entry of [a], half the
     entry of [a^T], or the sum of the two halves where both exist. No
     coordinate has a third term, and a sum of two is the same in either
     order, so this is the value summing triplets gave. *)
  let halves i f =
    let k = ref a.row_ptr.(i) and q = ref at.row_ptr.(i) in
    let ke = a.row_ptr.(i + 1) and qe = at.row_ptr.(i + 1) in
    while !k < ke || !q < qe do
      let ck = if !k < ke then a.col_idx.(!k) else max_int in
      let cq = if !q < qe then at.col_idx.(!q) else max_int in
      let c = min ck cq in
      let v =
        if ck = cq then (0.5 *. a.values.(!k)) +. (0.5 *. at.values.(!q))
        else if ck = c then 0.5 *. a.values.(!k)
        else 0.5 *. at.values.(!q)
      in
      if ck = c then incr k;
      if cq = c then incr q;
      if c <> i then f c v
    done
  in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + 1;
    halves i (fun _ _ -> row_ptr.(i + 1) <- row_ptr.(i + 1) + 1)
  done;
  let col_idx = Array.make row_ptr.(n) 0 and values = Array.make row_ptr.(n) 0. in
  for i = 0 to n - 1 do
    (* the diagonal shift, 1 + the absolute off-diagonal values summed in
       column order, goes in the slot after the columns below [i] *)
    let pos = ref row_ptr.(i) and diag = ref (-1) and s = ref 1. in
    halves i (fun c v ->
        if c > i && !diag < 0 then begin
          diag := !pos;
          incr pos
        end;
        col_idx.(!pos) <- c;
        values.(!pos) <- v;
        s := !s +. Float.abs v;
        incr pos);
    let d = if !diag < 0 then !pos else !diag in
    col_idx.(d) <- i;
    values.(d) <- !s
  done;
  { nrows = n; ncols = n; row_ptr; col_idx; values }

let lower ?(strict = false) a =
  let t = Triplet.create ~nrows:a.nrows ~ncols:a.ncols in
  for i = 0 to a.nrows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      let j = a.col_idx.(k) in
      if j < i || ((not strict) && j = i) then Triplet.add t i j a.values.(k)
    done
  done;
  of_triplet t

let permute_sym a perm =
  if a.nrows <> a.ncols then invalid_arg "Csr.permute_sym: not square";
  let n = a.nrows in
  if Array.length perm <> n then invalid_arg "Csr.permute_sym: wrong length";
  let inv = Array.make n (-1) in
  Array.iteri
    (fun newi oldi ->
      if oldi < 0 || oldi >= n || inv.(oldi) <> -1 then
        invalid_arg "Csr.permute_sym: not a permutation";
      inv.(oldi) <- newi)
    perm;
  (* Two counting passes. The first fills the columns of the result in
     ascending row order, so each column lists its rows sorted; the
     second reads those columns in ascending order into the rows, so
     each row lists its columns sorted. *)
  let m = nnz a in
  let cptr = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let c = inv.(a.col_idx.(k)) in
    cptr.(c + 1) <- cptr.(c + 1) + 1
  done;
  for c = 0 to n - 1 do
    cptr.(c + 1) <- cptr.(c + 1) + cptr.(c)
  done;
  let crow = Array.make m 0 and cpos = Array.make m 0 in
  let fill = Array.sub cptr 0 n in
  for r = 0 to n - 1 do
    let i = perm.(r) in
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      let c = inv.(a.col_idx.(k)) in
      crow.(fill.(c)) <- r;
      cpos.(fill.(c)) <- k;
      fill.(c) <- fill.(c) + 1
    done
  done;
  let row_ptr = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    let i = perm.(r) in
    row_ptr.(r + 1) <- row_ptr.(r) + (a.row_ptr.(i + 1) - a.row_ptr.(i))
  done;
  let col_idx = Array.make m 0 and values = Array.make m 0. in
  Array.blit row_ptr 0 fill 0 n;
  for c = 0 to n - 1 do
    for q = cptr.(c) to cptr.(c + 1) - 1 do
      let r = crow.(q) in
      col_idx.(fill.(r)) <- c;
      values.(fill.(r)) <- a.values.(cpos.(q));
      fill.(r) <- fill.(r) + 1
    done
  done;
  { nrows = n; ncols = n; row_ptr; col_idx; values }

let mul_vec a x =
  if Array.length x <> a.ncols then invalid_arg "Csr.mul_vec: dimension mismatch";
  let y = Array.make a.nrows 0. in
  for i = 0 to a.nrows - 1 do
    let acc = ref 0. in
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      acc := !acc +. (a.values.(k) *. x.(a.col_idx.(k)))
    done;
    y.(i) <- !acc
  done;
  y

let equal_pattern a b =
  a.nrows = b.nrows && a.ncols = b.ncols && a.row_ptr = b.row_ptr
  && a.col_idx = b.col_idx
