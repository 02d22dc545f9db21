module Rng = Tt_util.Rng

(* Fixed chunk granularity: determinism across domain counts depends on
   chunk boundaries being a function of p alone, never of [domains]. *)
let chunk_size = 65536

(* Each chunk owns an independent SplitMix stream; the seed combination
   is injective for any realistic chunk count and goes through the
   SplitMix mixer inside [Rng.create], so neighbouring chunks are
   decorrelated. *)
let chunk_rng ~seed c = Rng.create ((seed * 1_000_003) + c)

(* Fill [lo..hi] index ranges of the shared arrays, chunk by chunk.
   Chunks write disjoint index ranges, so domains never race. *)
let fill_chunks ~domains ~p ~seed body =
  let nchunks = (p + chunk_size - 1) / chunk_size in
  let do_chunk c =
    let rng = chunk_rng ~seed c in
    let lo = c * chunk_size in
    let hi = min (p - 1) (lo + chunk_size - 1) in
    body rng lo hi
  in
  if domains <= 1 then
    for c = 0 to nchunks - 1 do
      do_chunk c
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let c = Atomic.fetch_and_add next 1 in
        if c < nchunks then do_chunk c else continue_ := false
      done
    in
    let others = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join others
  end

let max_f = 64
let max_n = 8

(* shape is a pure function of the index; weights come from the chunk
   stream, drawn in a fixed per-node order (parent, f, n) *)
let generate ?(domains = 1) ~p ~seed ~parent_of () =
  if p <= 0 then invalid_arg "Huge.generate: p must be positive";
  let parent = Array.make p 0 in
  let f = Array.make p 0 in
  let n = Array.make p 0 in
  fill_chunks ~domains ~p ~seed (fun rng lo hi ->
      for i = lo to hi do
        parent.(i) <- parent_of rng i;
        f.(i) <- Rng.int_incl rng 1 max_f;
        n.(i) <- Rng.int_incl rng 0 max_n
      done;
      if lo = 0 then f.(0) <- f.(0) - 1 (* allow a zero root input *));
  Tt_core.Tree.of_arrays ~parent ~f ~n

let caterpillar ?domains ~p ~seed () =
  generate ?domains ~p ~seed () ~parent_of:(fun _rng i ->
      if i = 0 then -1
      else if i mod 3 = 0 then i - 3 (* spine -> previous spine node *)
      else i - (i mod 3) (* leaf -> its spine node *))

let binary ?domains ~p ~seed () =
  generate ?domains ~p ~seed () ~parent_of:(fun _rng i ->
      if i = 0 then -1 else (i - 1) / 2)

let random_attach ?domains ~p ~seed () =
  generate ?domains ~p ~seed () ~parent_of:(fun rng i ->
      if i = 0 then -1 else Rng.int rng i)
