type result = { factor : Factor.result; max_stack_blocks : int }

let is_postorder_schedule (sym : Tt_etree.Symbolic.t) schedule =
  (* a bottom-up schedule is a postorder when each subtree occupies the
     contiguous slice of steps that ends at its root: [pos j - lo j + 1]
     is its size, [lo j] the first step of the subtree *)
  Driver.check (Driver.columns sym) schedule = Ok ()
  &&
  let parent = sym.Tt_etree.Symbolic.parent in
  let n = Array.length parent in
  let pos = Array.make n 0 in
  Array.iteri (fun step j -> pos.(j) <- step) schedule;
  let size = Array.make n 1 and lo = Array.copy pos in
  (* an elimination tree numbers each child below its parent *)
  for j = 0 to n - 1 do
    let p = parent.(j) in
    if p >= 0 then begin
      size.(p) <- size.(p) + size.(j);
      lo.(p) <- min lo.(p) lo.(j)
    end
  done;
  Seq.for_all (fun j -> pos.(j) - lo.(j) + 1 = size.(j)) (Seq.init n Fun.id)

let run a sym ~schedule =
  Result.map
    (fun (r : Driver.outcome) ->
      { factor =
          { Factor.l = r.Driver.l; peak_words = r.Driver.peak; profile = r.Driver.profile };
        max_stack_blocks = r.Driver.max_blocks
      })
    (Driver.run a (Driver.columns sym) Driver.Stack ~schedule)
