type t = { rows : int array; a : float array }

let create rows =
  let m = Array.length rows in
  { rows; a = Array.make (m * m) 0. }

let size f = Array.length f.rows
let words f = Array.length f.a
let get f i j = f.a.((j * size f) + i)
let set f i j v = f.a.((j * size f) + i) <- v
let add f i j v = f.a.((j * size f) + i) <- f.a.((j * size f) + i) +. v

let extend_add ~into cb =
  let m_into = size into in
  (* map each global row of cb to its local index in into (both sorted:
     single merge pass) *)
  let m_cb = size cb in
  let map = Array.make m_cb (-1) in
  let i = ref 0 in
  for k = 0 to m_cb - 1 do
    while !i < m_into && into.rows.(!i) < cb.rows.(k) do
      incr i
    done;
    if !i >= m_into || into.rows.(!i) <> cb.rows.(k) then
      invalid_arg "Front.extend_add: contribution row missing from front";
    map.(k) <- !i
  done;
  for j = 0 to m_cb - 1 do
    let tj = map.(j) in
    for i2 = 0 to m_cb - 1 do
      let v = cb.a.((j * m_cb) + i2) in
      if v <> 0. then begin
        let ti = map.(i2) in
        into.a.((tj * m_into) + ti) <- into.a.((tj * m_into) + ti) +. v
      end
    done
  done

let eliminate_pivots f k =
  let m = size f in
  if k < 0 || k > m then invalid_arg "Front.eliminate_pivots: k out of range";
  (* right-looking: factor column j, update the trailing block in place *)
  let cols = ref [] in
  for j = 0 to k - 1 do
    let ajj = f.a.((j * m) + j) in
    if ajj <= 0. then failwith "Front.eliminate_pivot: non-positive pivot";
    let d = sqrt ajj in
    let col = Array.init (m - j) (fun i -> if i = 0 then d else f.a.((j * m) + j + i) /. d) in
    for c = j + 1 to m - 1 do
      let lc = col.(c - j) in
      if lc <> 0. then
        for r = j + 1 to m - 1 do
          f.a.((c * m) + r) <- f.a.((c * m) + r) -. (col.(r - j) *. lc)
        done
    done;
    cols := col :: !cols
  done;
  let cb = create (Array.sub f.rows k (m - k)) in
  let mc = m - k in
  for c = 0 to mc - 1 do
    for r = 0 to mc - 1 do
      cb.a.((c * mc) + r) <- f.a.(((c + k) * m) + (r + k))
    done
  done;
  (List.rev !cols, cb)
