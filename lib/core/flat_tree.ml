type t = Tree.t

let of_tree t = t
let peak = Traversal.peak

(* ------------------------------------------------------------------ *)
(* Chunked digests: ints are folded through MD5 in 64 KiB slices, chained
   by hashing the previous digest with the next slice, so memory stays
   O(1) regardless of p. One buffer holds [acc ^ slice] (the 16-byte
   digest, then the slice) and is hashed in place, so a slice costs one
   16-byte digest string and no copies. *)

let chunk_bytes = 65536

let digest_chunked feed =
  let d = 16 (* [Digest.t] bytes *) in
  let buf = Bytes.create (d + chunk_bytes) in
  Bytes.blit_string (Digest.string "tt-flat/1") 0 buf 0 d;
  let len = ref 0 in
  let flush () =
    if !len > 0 then begin
      Bytes.blit_string (Digest.subbytes buf 0 (d + !len)) 0 buf 0 d;
      len := 0
    end
  in
  let add x =
    Bytes.set_int64_le buf (d + !len) (Int64.of_int x);
    len := !len + 8;
    if !len >= chunk_bytes then flush ()
  in
  feed add;
  flush ();
  Digest.to_hex (Bytes.sub_string buf 0 d)

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
