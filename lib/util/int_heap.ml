type t = {
  mutable elts : int array; (* heap slots -> element *)
  mutable keys : int array; (* heap slots -> key *)
  pos : int array; (* element -> heap slot, or -1 *)
  mutable size : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Int_heap.create";
  { elts = Array.make (max capacity 1) (-1);
    keys = Array.make (max capacity 1) 0;
    pos = Array.make (max capacity 1) (-1);
    size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let mem h x = x >= 0 && x < Array.length h.pos && h.pos.(x) >= 0

let key h x =
  if not (mem h x) then raise Not_found;
  h.keys.(h.pos.(x))

(* [less h i j] compares heap slots, key first then element for
   determinism. *)
let less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.elts.(i) < h.elts.(j))

let swap h i j =
  let ei = h.elts.(i) and ej = h.elts.(j) in
  let ki = h.keys.(i) and kj = h.keys.(j) in
  h.elts.(i) <- ej;
  h.keys.(i) <- kj;
  h.elts.(j) <- ei;
  h.keys.(j) <- ki;
  h.pos.(ej) <- i;
  h.pos.(ei) <- j

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less h i p then begin
      swap h i p;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.size && less h l i then l else i in
  let m = if r < h.size && less h r m then r else m in
  if m <> i then begin
    swap h i m;
    sift_down h m
  end

let insert h x k =
  if x < 0 || x >= Array.length h.pos then invalid_arg "Int_heap.insert: out of range";
  if h.pos.(x) >= 0 then invalid_arg "Int_heap.insert: duplicate element";
  let i = h.size in
  h.elts.(i) <- x;
  h.keys.(i) <- k;
  h.pos.(x) <- i;
  h.size <- h.size + 1;
  sift_up h i

let update h x k =
  if not (mem h x) then insert h x k
  else begin
    let i = h.pos.(x) in
    let old = h.keys.(i) in
    h.keys.(i) <- k;
    if k < old then sift_up h i else sift_down h i
  end

let min_elt h =
  if h.size = 0 then raise Not_found;
  (h.elts.(0), h.keys.(0))

let remove_at h i =
  let last = h.size - 1 in
  let x = h.elts.(i) in
  h.pos.(x) <- -1;
  if i <> last then begin
    h.elts.(i) <- h.elts.(last);
    h.keys.(i) <- h.keys.(last);
    h.pos.(h.elts.(i)) <- i;
    h.size <- last;
    sift_down h i;
    sift_up h i
  end
  else h.size <- last

let pop_min h =
  let x, k = min_elt h in
  remove_at h 0;
  (x, k)

let pop h =
  if h.size = 0 then raise Not_found;
  let x = h.elts.(0) in
  remove_at h 0;
  x

let remove h x = if mem h x then remove_at h h.pos.(x)
