type result = { l : Tt_sparse.Csr.t; peak_words : int; profile : int array }

let default_schedule (sym : Tt_etree.Symbolic.t) =
  Driver.postorder sym.Tt_etree.Symbolic.parent

let run a sym ~schedule =
  let r = Driver.run_exn "Factor.run" a (Driver.columns sym) Driver.Slots ~schedule in
  { l = r.Driver.l; peak_words = r.Driver.peak; profile = r.Driver.profile }

let solve (l : Tt_sparse.Csr.t) b =
  let n = l.Tt_sparse.Csr.nrows in
  if Array.length b <> n then invalid_arg "Factor.solve: dimension mismatch";
  (* L is stored row-major lower-triangular: forward substitution row by
     row; for the transpose solve, traverse rows in reverse using L's rows
     as columns of Lᵀ *)
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let diag = ref 1. in
    let acc = ref y.(i) in
    for k = l.Tt_sparse.Csr.row_ptr.(i) to l.Tt_sparse.Csr.row_ptr.(i + 1) - 1 do
      let j = l.Tt_sparse.Csr.col_idx.(k) in
      if j < i then acc := !acc -. (l.Tt_sparse.Csr.values.(k) *. y.(j))
      else if j = i then diag := l.Tt_sparse.Csr.values.(k)
    done;
    y.(i) <- !acc /. !diag
  done;
  let x = y in
  for i = n - 1 downto 0 do
    (* x.(i) currently holds y.(i) minus contributions subtracted by later
       rows' updates (scatter form): divide then scatter to earlier rows *)
    let diag = ref 1. in
    for k = l.Tt_sparse.Csr.row_ptr.(i) to l.Tt_sparse.Csr.row_ptr.(i + 1) - 1 do
      if l.Tt_sparse.Csr.col_idx.(k) = i then diag := l.Tt_sparse.Csr.values.(k)
    done;
    x.(i) <- x.(i) /. !diag;
    for k = l.Tt_sparse.Csr.row_ptr.(i) to l.Tt_sparse.Csr.row_ptr.(i + 1) - 1 do
      let j = l.Tt_sparse.Csr.col_idx.(k) in
      if j < i then x.(j) <- x.(j) -. (l.Tt_sparse.Csr.values.(k) *. x.(i))
    done
  done;
  x

let residual_norm (a : Tt_sparse.Csr.t) (l : Tt_sparse.Csr.t) =
  let n = a.Tt_sparse.Csr.nrows in
  let da = Tt_sparse.Csr.to_dense a in
  let dl = Tt_sparse.Csr.to_dense l in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for k = 0 to n - 1 do
        acc := !acc +. (dl.(i).(k) *. dl.(j).(k))
      done;
      let d = Float.abs (da.(i).(j) -. !acc) in
      if d > !worst then worst := d
    done
  done;
  !worst
