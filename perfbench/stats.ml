(* Sample summaries the benchmark reports: a percentile always travels
   with its sample count and the number of samples beyond it, so a tail
   figure is only printed when it rests on at least [min_beyond]
   observations. *)

let min_beyond = 10

type quantile = {
  value : float;
  samples : int;
  beyond : int;  (** Samples strictly greater than [value]. *)
}

let quantile xs q =
  if Array.length xs = 0 then None
  else
    let value = Tt_util.Statistics.quantile xs q in
    let beyond = Array.fold_left (fun n x -> if x > value then n + 1 else n) 0 xs in
    Some { value; samples = Array.length xs; beyond }

let median xs = quantile xs 0.5

(* A tail percentile is reportable only with [min_beyond] samples past
   it; below that it is one or two outliers, not a percentile. *)
let tail xs q =
  match quantile xs q with
  | Some t when t.beyond >= min_beyond -> Some t
  | _ -> None

let median_value xs =
  match median xs with Some m -> m.value | None -> nan

let sum xs = Array.fold_left ( +. ) 0. xs
