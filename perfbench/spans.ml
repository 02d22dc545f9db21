(* In-memory span recorder for traced runs. Spans are taken only in the
   benchmark's own code, around its calls into each layer's public
   functions; they are kept in memory and written once, at exit. A
   disabled recorder (the untraced runs) records nothing. *)

module Json = Tt_engine.Telemetry.Json

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  req : string option;  (** Request id; for serving, the idempotency key. *)
}

type t = {
  enabled : bool;
  origin : float;  (** Creation time; the span file holds times relative to it. *)
  next : int Atomic.t;
  mu : Mutex.t;
  mutable spans : span list;
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); next = Atomic.make 0; mu = Mutex.create (); spans = [] }
let enabled t = t.enabled

let record t s =
  Mutex.lock t.mu;
  t.spans <- s :: t.spans;
  Mutex.unlock t.mu

(* A span timed by the caller. *)
let add t ?parent ?req name ~start ~stop =
  if t.enabled then record t { id = Atomic.fetch_and_add t.next 1; name; start; stop; parent; req }

(* [f] receives the span's id so nested calls can name it as parent. The
   span is recorded even when [f] raises. *)
let with_span t ?parent ?req name f =
  if not t.enabled then f (-1)
  else begin
    let id = Atomic.fetch_and_add t.next 1 in
    let start = Unix.gettimeofday () in
    let finish () = record t { id; name; start; stop = Unix.gettimeofday (); parent; req } in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

let durations t name =
  List.filter (fun s -> s.name = name) (spans t) |> List.map duration |> Array.of_list

let total t name = Stats.sum (durations t name)
let count t name = List.length (List.filter (fun s -> s.name = name) t.spans)

(* Times are seconds since the recorder was created: small enough that
   the JSON rendering keeps sub-microsecond digits. *)
let to_json t s =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [ ("id", Json.Int s.id);
      ("name", Json.String s.name);
      ("start", Json.Float (s.start -. t.origin));
      ("end", Json.Float (s.stop -. t.origin));
      ("parent", opt (fun p -> Json.Int p) s.parent);
      ("req", opt (fun r -> Json.String r) s.req)
    ]

let write t path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Json.to_string (to_json t s) ^ "\n")) (spans t);
  close_out oc

(* How a traced run spends its [seconds]: an untraced quarter, the traced
   half, another untraced quarter. [measure ~traced secs] runs one part.
   Comparing the traced half with the two quarters gives the tracing
   overhead with any linear drift over the run cancelled out. An
   untraced run is one untraced part. *)
let bracket ~trace ~seconds measure =
  if not trace then (measure ~traced:false seconds, [])
  else begin
    let before = measure ~traced:false (seconds /. 4.) in
    let traced = measure ~traced:true (seconds /. 2.) in
    let after = measure ~traced:false (seconds /. 4.) in
    (traced, [ before; after ])
  end
