type t = Tree.t

let of_tree t = t
let peak = Traversal.peak

(* ------------------------------------------------------------------ *)
(* Chunked digests: ints are folded through MD5 in 64 KiB slices, chained
   by hashing the previous digest with the next slice, so memory stays
   O(1) regardless of p. *)

let chunk_bytes = 65536

let digest_chunked feed =
  let buf = Buffer.create chunk_bytes in
  let acc = ref (Digest.string "tt-flat/1") in
  let flush () =
    if Buffer.length buf > 0 then begin
      acc := Digest.string (!acc ^ Buffer.contents buf);
      Buffer.clear buf
    end
  in
  let add x =
    Buffer.add_int64_le buf (Int64.of_int x);
    if Buffer.length buf >= chunk_bytes then flush ()
  in
  feed add;
  flush ();
  Digest.to_hex !acc

let digest_ints a =
  digest_chunked (fun add ->
      add (Array.length a);
      Array.iter add a)

let digest t =
  digest_chunked (fun add ->
      add (Tree.size t);
      add t.Tree.root;
      Array.iter add t.Tree.parent;
      Array.iter add t.Tree.f;
      Array.iter add t.Tree.n)
