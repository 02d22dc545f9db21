let order_by n key =
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (key a) (key b)) idx;
  idx
