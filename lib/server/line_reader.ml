type error = Too_long

type t = {
  limit : int;
  partial : Buffer.t;  (* a frame begun by an earlier read, not yet ended *)
}

let create ~limit = { limit; partial = Buffer.create 256 }

let rec newline_index buf start stop =
  if start >= stop || Bytes.unsafe_get buf start = '\n' then start
  else newline_index buf (start + 1) stop

(* The frame ending at [stop] in [buf], after whatever [partial] holds,
   without a trailing CR. A frame read whole is copied once, out of
   [buf]; one that spanned reads, once, out of [partial]. *)
let take t buf start stop =
  if Buffer.length t.partial = 0 then
    let stop = if stop > start && Bytes.get buf (stop - 1) = '\r' then stop - 1 else stop in
    Bytes.sub_string buf start (stop - start)
  else begin
    Buffer.add_subbytes t.partial buf start (stop - start);
    let n = Buffer.length t.partial in
    let line = Buffer.sub t.partial 0 (if Buffer.nth t.partial (n - 1) = '\r' then n - 1 else n) in
    (* back to the small initial block: a long frame's storage is not
       kept for the connection's lifetime *)
    Buffer.reset t.partial;
    line
  end

let feed t buf len f =
  let rec go start =
    let i = newline_index buf start len in
    if i < len then begin
      f (take t buf start i);
      go (i + 1)
    end
    else begin
      Buffer.add_subbytes t.partial buf start (len - start);
      if Buffer.length t.partial <= t.limit then Ok ()
      else begin
        Buffer.reset t.partial;
        Error Too_long
      end
    end
  in
  go 0
