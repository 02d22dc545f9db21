module Json = Tt_engine.Telemetry.Json

type kind = Counter | Gauge
type int_cell = int
type float_cell = int
type family = int
type summary = int

(* A summary in a snapshot: lifetime figures, and the window's
   quantiles as (Prometheus label, JSON key, value). *)
type view = {
  count : int;
  window : int;
  mean : float;
  max : float;
  qs : (string * string * float) list;
}

type snapshot = {
  schema : schema;
  ints : int array;
  floats : float array;
  series : (string list * int) list array;  (* sorted by label values *)
  views : view array;
}

(* One declaration: its JSON value, and its Prometheus family, [# TYPE]
   and samples as (series suffix, value). *)
and decl = {
  path : string list;
  json : snapshot -> Json.t;
  prom : (string * string * (snapshot -> (string * string) list)) option;
}

and schema = {
  prefix : string;
  mutable decls : decl list;
  mutable n_ints : int;
  mutable n_floats : int;
  mutable n_families : int;
  mutable windows : int list;
}

let schema ~prefix =
  { prefix;
    decls = [];
    n_ints = 0;
    n_floats = 0;
    n_families = 0;
    windows = []
  }

let declare s path json prom =
  if path = [] then invalid_arg "Registry: empty JSON path";
  s.decls <- s.decls @ [ { path; json; prom } ]

let number x = if Float.is_finite x then Printf.sprintf "%.9g" x else "NaN"
let json_key = String.concat "/"

let int_cell s path prom =
  let i = s.n_ints in
  s.n_ints <- i + 1;
  declare s path (fun v -> Json.Int v.ints.(i)) (prom i);
  i

let exposed kind s series path =
  let name, labels =
    match String.index_opt series '{' with
    | Some k -> (String.sub series 0 k, String.sub series k (String.length series - k))
    | None -> (series, "")
  in
  int_cell s path (fun i ->
      Some (name, kind, fun v -> [ (labels, string_of_int v.ints.(i)) ]))

let counter = exposed "counter"
let gauge = exposed "gauge"
let json_int s path = int_cell s path (fun _ -> None)

let seconds s name path =
  let i = s.n_floats in
  s.n_floats <- i + 1;
  declare s path
    (fun v -> Json.Float v.floats.(i))
    (Some (name, "counter", fun v -> [ ("", number v.floats.(i)) ]));
  i

let family s kind name ~labels path =
  let i = s.n_families in
  s.n_families <- i + 1;
  let series values =
    "{" ^ String.concat "," (List.map2 (Printf.sprintf "%s=%S") labels values) ^ "}"
  in
  let kind = match kind with Counter -> "counter" | Gauge -> "gauge" in
  let json v =
    Json.Obj (List.map (fun (k, n) -> (json_key k, Json.Int n)) v.series.(i))
  in
  let samples v = List.map (fun (k, n) -> (series k, string_of_int n)) v.series.(i) in
  declare s path json (Some (name, kind, samples));
  i

let summary s name ~window path =
  if window < 1 then invalid_arg "Registry.summary: window < 1";
  let i = List.length s.windows in
  s.windows <- s.windows @ [ window ];
  let json v =
    let w = v.views.(i) in
    Json.Obj
      ([ ("count", Json.Int w.count);
         ("window", Json.Int w.window);
         ("mean_s", Json.Float w.mean)
       ]
      @ List.map (fun (_, key, q) -> (key, Json.Float q)) w.qs
      @ [ ("max_s", Json.Float w.max) ])
  in
  let samples v =
    let w = v.views.(i) in
    List.map
      (fun (label, _, q) -> (Printf.sprintf {|{quantile="%s"}|} label, number q))
      w.qs
    @ [ ("_sum", number (if w.count = 0 then 0. else w.mean *. float_of_int w.count));
        ("_count", string_of_int w.count)
      ]
  in
  declare s path json (Some (name, "summary", samples));
  i

(* ----------------------------------------------------------- instances *)

(* The most recent observations of one summary, in a ring. *)
type ring = {
  samples : float array;
  mutable n : int;
  mutable sum : float;
  mutable top : float;
}

type t = {
  schema : schema;
  mu : Mutex.t;
  cells : int array;
  sums : float array;
  families : (string list, int) Hashtbl.t array;
  rings : ring array;
}

let create s =
  let ring w = { samples = Array.make w 0.; n = 0; sum = 0.; top = 0. } in
  { schema = s;
    mu = Mutex.create ();
    cells = Array.make s.n_ints 0;
    sums = Array.make s.n_floats 0.;
    families = Array.init s.n_families (fun _ -> Hashtbl.create 8);
    rings = Array.of_list (List.map ring s.windows)
  }

let locked t f = Mutex.protect t.mu f
let get t c = t.cells.(c)
let add t c n = t.cells.(c) <- t.cells.(c) + n
let set t c n = t.cells.(c) <- n
let add_seconds t c x = t.sums.(c) <- t.sums.(c) +. x

let incr_at t f key =
  let h = t.families.(f) in
  Hashtbl.replace h key (1 + Option.value ~default:0 (Hashtbl.find_opt h key))

let set_at t f key n = Hashtbl.replace t.families.(f) key n
let remove_at t f key = Hashtbl.remove t.families.(f) key

let observe t c x =
  let r = t.rings.(c) in
  r.samples.(r.n mod Array.length r.samples) <- x;
  r.n <- r.n + 1;
  r.sum <- r.sum +. x;
  if x > r.top then r.top <- x

(* ----------------------------------------------------------- snapshots *)

let view (n, sum, top, window) =
  let quantile (q, label, key) =
    let x = if window = [||] then nan else Tt_util.Statistics.quantile window q in
    (label, key, x)
  in
  { count = n;
    window = Array.length window;
    mean = (if n = 0 then nan else sum /. float_of_int n);
    max = top;
    qs =
      List.map quantile
        [ (0.5, "0.5", "p50_s"); (0.9, "0.9", "p90_s"); (0.95, "0.95", "p95_s");
          (0.99, "0.99", "p99_s") ]
  }

let snapshot t =
  let pairs h = Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [] in
  let ring r =
    (r.n, r.sum, r.top, Array.sub r.samples 0 (min r.n (Array.length r.samples)))
  in
  let ints, floats, series, rings =
    locked t (fun () ->
        ( Array.copy t.cells,
          Array.copy t.sums,
          Array.map pairs t.families,
          Array.map ring t.rings ))
  in
  { schema = t.schema;
    ints;
    floats;
    series = Array.map (List.sort compare) series;
    views = Array.map view rings
  }

let value v c = v.ints.(c)
let seconds_value v c = v.floats.(c)
let entries v f = List.map (fun (k, n) -> (json_key k, n)) v.series.(f)

let plus cells a b =
  let ints = Array.copy a.ints in
  List.iter (fun c -> ints.(c) <- ints.(c) + b.ints.(c)) cells;
  { a with ints }

let to_json v =
  (* The declarations whose paths start with one key share one object
     under that key, where the first of them is. *)
  let rec nest = function
    | [] -> []
    | ([ k ], j) :: rest -> (k, j) :: nest rest
    | (k :: _, _) :: _ as l ->
        let under (p, _) = List.hd p = k && List.tl p <> [] in
        let inner, rest = List.partition under l in
        (k, Json.Obj (nest (List.map (fun (p, j) -> (List.tl p, j)) inner))) :: nest rest
    | ([], _) :: rest -> nest rest
  in
  Json.Obj (nest (List.map (fun d -> (d.path, d.json v)) v.schema.decls))

let to_prometheus (v : snapshot) =
  let b = Buffer.create 1024 and prefix = v.schema.prefix in
  let step typed d =
    match d.prom with
    | None -> typed
    | Some (name, kind, samples) ->
        let samples = samples v in
        (* One [# TYPE] per family; a gauge family with no series prints none. *)
        let typed =
          if name = typed || (samples = [] && kind = "gauge") then typed
          else begin
            Printf.bprintf b "# TYPE %s%s %s\n" prefix name kind;
            name
          end
        in
        List.iter (fun (s, x) -> Printf.bprintf b "%s%s%s %s\n" prefix name s x) samples;
        typed
  in
  ignore (List.fold_left step "" v.schema.decls);
  Buffer.contents b
