(* A perfect binary tree over positions [0, m), [m] the next power of
   two at or above the capacity, stored in one array: node [i] has
   children [2i] and [2i+1], the leaves sit at [m + q]. Each node holds
   the minimum of its leaves; an absent position holds [max_int], so no
   query ever matches it. *)

type t = { a : int array; m : int }

let create n =
  if n < 0 then invalid_arg "Min_tree.create";
  let m = ref 1 in
  while !m < n do
    m := !m * 2
  done;
  { a = Array.make (2 * !m) max_int; m = !m }

(* Climbing stops at the first ancestor whose minimum is unchanged:
   every node above it keeps its value too, so the array is the same as
   after a full climb. *)
let set t q v =
  if q < 0 || q >= t.m then invalid_arg "Min_tree.set: out of range";
  let a = t.a in
  let i = ref (t.m + q) in
  a.(!i) <- v;
  i := !i lsr 1;
  while !i >= 1 do
    let l = a.(2 * !i) and r = a.((2 * !i) + 1) in
    let least = if l <= r then l else r in
    if a.(!i) = least then i := 0
    else begin
      a.(!i) <- least;
      i := !i lsr 1
    end
  done

let remove t q = set t q max_int

let rightmost_lt t thr =
  if t.a.(1) >= thr then None
  else begin
    let i = ref 1 in
    while !i < t.m do
      i := if t.a.((2 * !i) + 1) < thr then (2 * !i) + 1 else 2 * !i
    done;
    Some (!i - t.m)
  end

let leftmost_le t ~from thr =
  (* [max_int] marks absence, so the largest value a query can accept
     is one below it *)
  let thr = if thr = max_int then max_int - 1 else thr in
  let from = if from < 0 then 0 else from in
  if from >= t.m || t.a.(1) > thr then None
  else begin
    let rec descend i =
      if i >= t.m then i - t.m
      else if t.a.(2 * i) <= thr then descend (2 * i)
      else descend ((2 * i) + 1)
    in
    (* [scan i]: node [i]'s range starts at the first position not yet
       ruled out. On a miss, climb past right children; the right
       sibling of the first left child continues the scan. Each level
       is visited at most twice, so a query costs O(log m). *)
    let rec scan i = if t.a.(i) <= thr then Some (descend i) else next i
    and next i =
      if i = 1 then None else if i land 1 = 1 then next (i lsr 1) else scan (i + 1)
    in
    scan (t.m + from)
  end
