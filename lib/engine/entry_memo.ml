type slot =
  | Seen  (* sighted once by [find]: the digest alone *)
  | Key of (string, string) result
  | Parsed of (Job.t list, string) result

(* What a slot knows, so that a racing store never replaces a kept parse
   by less. *)
let rank = function Seen -> 0 | Key _ -> 1 | Parsed _ -> 2

(* One entry, on a circular doubly-linked list through a sentinel:
   [next] runs from the most to the least recently used. *)
type node = {
  digest : Digest.t;
  mutable slot : slot;
  mutable charged : int;
  mutable prev : node;
  mutable next : node;
}

type t = {
  mu : Mutex.t;
  tbl : (Digest.t, node) Hashtbl.t;
  head : node;  (* the sentinel: [head.next] is the most recent entry *)
  mutable words : int;
  mutable evictions : int;
}

let max_entries = 4096
let max_words = 1 lsl 21
let entry_words = 16

let create () =
  let rec head = { digest = ""; slot = Seen; charged = 0; prev = head; next = head } in
  { mu = Mutex.create (); tbl = Hashtbl.create 64; head; words = 0; evictions = 0 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.prev <- t.head;
  n.next <- t.head.next;
  t.head.next.prev <- n;
  t.head.next <- n

(* Under the lock. *)
let lookup t d =
  match Hashtbl.find_opt t.tbl d with
  | None -> None
  | Some n ->
      unlink n;
      push_front t n;
      Some n.slot

let value_words = function
  | Seen -> 0
  | Key r -> Obj.reachable_words (Obj.repr r)
  | Parsed r -> Obj.reachable_words (Obj.repr r)

(* Records [slot] for digest [d] at the front, then drops least recently
   used entries until both caps hold. [slot]'s words are counted before
   the lock is taken; a slot that alone passes [max_words] is kept as a
   digest only. *)
let store t d slot =
  let slot, words =
    let w = value_words slot in
    if entry_words + w > max_words then (Seen, 0) else (slot, w)
  in
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl d with
      | Some n ->
          unlink n;
          if rank slot > rank n.slot then begin
            t.words <- t.words - n.charged + entry_words + words;
            n.slot <- slot;
            n.charged <- entry_words + words
          end;
          push_front t n
      | None ->
          let n =
            { digest = d; slot; charged = entry_words + words; prev = t.head; next = t.head }
          in
          Hashtbl.replace t.tbl d n;
          t.words <- t.words + n.charged;
          push_front t n);
      while Hashtbl.length t.tbl > max_entries || t.words > max_words do
        let victim = t.head.prev in
        unlink victim;
        Hashtbl.remove t.tbl victim.digest;
        t.words <- t.words - victim.charged;
        t.evictions <- t.evictions + 1
      done)

let find t entry =
  let d = Digest.string entry in
  match locked t (fun () -> lookup t d) with
  | Some (Parsed r) -> r
  | sighted ->
      let r = Manifest.parse_wire entry in
      store t d (if Option.is_none sighted then Seen else Parsed r);
      r

let key_of = function
  | Error e -> Error e
  | Ok [] -> Error "entry resolves to no jobs"
  | Ok (job :: _) -> Ok (Job.id job)

let route_key t entry =
  let d = Digest.string entry in
  match locked t (fun () -> lookup t d) with
  | Some (Key r) -> r
  | Some (Parsed r) -> key_of r
  | None | Some Seen ->
      let r = key_of (Manifest.parse_wire entry) in
      store t d (Key r);
      r

let length t = locked t (fun () -> Hashtbl.length t.tbl)
let words t = locked t (fun () -> t.words)
let evictions t = locked t (fun () -> t.evictions)
