(* A set of integers over a fixed universe [0, n), stored as a tower of
   bitset levels: level 0 holds one bit per element and each level above
   holds one summary bit per word below. All navigation operations touch
   one word per level, so they cost O(log n) with a base of
   [Sys.int_size] — three levels cover every tree this repo handles. *)

let bits_per_word = Sys.int_size

type t = {
  levels : int array array; (* levels.(0) = element bits, then summaries *)
  n : int;
  mutable card : int;
}

let words_for n = ((n + bits_per_word) - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Ordered_set.create";
  let rec build acc len =
    let words = max 1 (words_for len) in
    let acc = Array.make words 0 :: acc in
    if words = 1 then List.rev acc else build acc words
  in
  { levels = Array.of_list (build [] n); n; card = 0 }

let capacity t = t.n
let cardinal t = t.card
let is_empty t = t.card = 0

let check t i name =
  if i < 0 || i >= t.n then invalid_arg ("Ordered_set." ^ name ^ ": out of range")

let mem t i =
  i >= 0 && i < t.n
  && t.levels.(0).(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

(* [add] and [remove] walk the levels bottom-up in a plain loop: MinIO
   calls them once per produced file, so they allocate nothing. *)
let add t i =
  check t i "add";
  if not (mem t i) then begin
    t.card <- t.card + 1;
    let levels = t.levels in
    let l = ref 0 and idx = ref i in
    while !l < Array.length levels do
      let words = levels.(!l) in
      let w = !idx / bits_per_word and b = !idx mod bits_per_word in
      let before = words.(w) in
      words.(w) <- before lor (1 lsl b);
      (* a word that was already non-empty is already summarized *)
      if before <> 0 then l := Array.length levels
      else begin
        idx := w;
        incr l
      end
    done
  end

let remove t i =
  if mem t i then begin
    t.card <- t.card - 1;
    let levels = t.levels in
    let l = ref 0 and idx = ref i in
    while !l < Array.length levels do
      let words = levels.(!l) in
      let w = !idx / bits_per_word and b = !idx mod bits_per_word in
      words.(w) <- words.(w) land lnot (1 lsl b);
      (* summaries above stay valid while the word is non-empty *)
      if words.(w) <> 0 then l := Array.length levels
      else begin
        idx := w;
        incr l
      end
    done
  end

(* index of the highest set bit; [x] must be non-zero *)
let top_bit x =
  let r = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin r := !r + 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin r := !r + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin r := !r + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin r := !r + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin r := !r + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then r := !r + 1;
  !r

(* index of the lowest set bit; [x] must be non-zero *)
let bottom_bit x = top_bit (x land -x)

(* largest element of level [l] whose word-path runs through word [w];
   every level at or below [l] is guaranteed non-empty under [w] *)
let rec descend t l w =
  let b = top_bit t.levels.(l).(w) in
  let pos = (w * bits_per_word) + b in
  if l = 0 then pos else descend t (l - 1) pos

(* smallest element, same shape *)
let rec descend_min t l w =
  let b = bottom_bit t.levels.(l).(w) in
  let pos = (w * bits_per_word) + b in
  if l = 0 then pos else descend_min t (l - 1) pos

let max_elt t =
  if t.card = 0 then None
  else begin
    let top = Array.length t.levels - 1 in
    Some (descend t top 0)
  end

let min_elt t =
  if t.card = 0 then None
  else begin
    let top = Array.length t.levels - 1 in
    Some (descend_min t top 0)
  end

let pred t i =
  if t.card = 0 then None
  else if i >= t.n then max_elt t (* every member is strictly below [n] *)
  else begin
    if i <= 0 then None
    else begin
      (* climb until a level has a set bit strictly below the path, then
         descend taking the highest bit at each level *)
      let rec climb l idx =
        if l >= Array.length t.levels then None
        else begin
          let w = idx / bits_per_word and b = idx mod bits_per_word in
          let mask = t.levels.(l).(w) land ((1 lsl b) - 1) in
          if mask <> 0 then begin
            let pos = (w * bits_per_word) + top_bit mask in
            Some (if l = 0 then pos else descend t (l - 1) pos)
          end
          else climb (l + 1) w
        end
      in
      climb 0 i
    end
  end

let succ t i =
  if t.card = 0 || i >= t.n - 1 then None
  else begin
    let i = max i (-1) in
    (* mirror of [pred]: mask the bits strictly above the path, else climb *)
    let rec climb l idx =
      if l >= Array.length t.levels then None
      else begin
        let w = idx / bits_per_word and b = idx mod bits_per_word in
        (* [b] can be the top bit of the word: shifting by b+1 would be
           out of range, but the mask is then simply empty *)
        let mask =
          if b = bits_per_word - 1 then 0
          else t.levels.(l).(w) land lnot ((1 lsl (b + 1)) - 1)
        in
        if mask <> 0 then begin
          let pos = (w * bits_per_word) + bottom_bit mask in
          Some (if l = 0 then pos else descend_min t (l - 1) pos)
        end
        else climb (l + 1) w
      end
    in
    if i < 0 then min_elt t else climb 0 i
  end

let to_desc_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some x -> go (x :: acc) (pred t x)
  in
  go [] (max_elt t)

let clear t =
  Array.iter (fun words -> Array.fill words 0 (Array.length words) 0) t.levels;
  t.card <- 0
