module Json = Tt_engine.Telemetry.Json
module Job = Tt_engine.Job

let version = 1
let max_frame_bytes = 1 lsl 20

(* ------------------------------------------------------------- errors *)

type error_code =
  | Bad_frame
  | Bad_request
  | Unsupported_version
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Internal
  | Unavailable

let error_code_to_string = function
  | Bad_frame -> "bad_frame"
  | Bad_request -> "bad_request"
  | Unsupported_version -> "unsupported_version"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"
  | Unavailable -> "unavailable"

let error_code_of_string = function
  | "bad_frame" -> Some Bad_frame
  | "bad_request" -> Some Bad_request
  | "unsupported_version" -> Some Unsupported_version
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | "unavailable" -> Some Unavailable
  | _ -> None

(* ----------------------------------------------------------- requests *)

type priority = Interactive | Batch

let priority_to_string = function
  | Interactive -> "interactive"
  | Batch -> "batch"

let priority_of_string = function
  | "interactive" -> Some Interactive
  | "batch" -> Some Batch
  | _ -> None

type op =
  | Solve of {
      entry : string;
      timeout_s : float option;
      idem : string option;
      priority : priority;
    }
  | Peek of { key : string }
  | Stats
  | Ping
  | Health
  | Shutdown

type request = { id : string; op : op }

let encode_request { id; op } =
  let base = [ ("v", Json.Int version); ("id", Json.String id) ] in
  let fields =
    match op with
    | Solve { entry; timeout_s; idem; priority } ->
        base
        @ [ ("op", Json.String "solve"); ("entry", Json.String entry) ]
        @ (match timeout_s with
          | Some s -> [ ("timeout_s", Json.Float s) ]
          | None -> [])
        @ (match idem with
          | Some k -> [ ("idem", Json.String k) ]
          | None -> [])
        (* Interactive is the default and stays off the wire, so frames
           from pre-priority clients and to pre-priority servers are
           byte-identical to before. *)
        @ (match priority with
          | Interactive -> []
          | Batch -> [ ("priority", Json.String "batch") ])
    | Peek { key } ->
        base @ [ ("op", Json.String "peek"); ("key", Json.String key) ]
    | Stats -> base @ [ ("op", Json.String "stats") ]
    | Ping -> base @ [ ("op", Json.String "ping") ]
    | Health -> base @ [ ("op", Json.String "health") ]
    | Shutdown -> base @ [ ("op", Json.String "shutdown") ]
  in
  Json.to_string (Json.Obj fields)

let float_member key json =
  match Json.member key json with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let decode_request line =
  if String.length line > max_frame_bytes then
    Error (None, Bad_frame, "frame exceeds 1 MiB")
  else
    match Json.of_string line with
    | Error msg -> Error (None, Bad_frame, "bad JSON: " ^ msg)
    | Ok (Json.Obj _ as json) -> (
        let id =
          match Json.member "id" json with
          | Some (Json.String s) -> Some s
          | _ -> None
        in
        let fail code msg = Error (id, code, msg) in
        match Json.member "v" json with
        | Some (Json.Int v) when v = version -> (
            match id with
            | None -> fail Bad_request "missing request id"
            | Some id -> (
                match Json.member "op" json with
                | Some (Json.String "solve") -> (
                    match Json.member "entry" json with
                    | Some (Json.String entry) -> (
                        match Json.member "idem" json with
                        | Some (Json.String _ ) | None -> (
                            let idem =
                              match Json.member "idem" json with
                              | Some (Json.String k) -> Some k
                              | _ -> None
                            in
                            match Json.member "priority" json with
                            | None -> (
                                Ok
                                  { id;
                                    op =
                                      Solve
                                        { entry;
                                          timeout_s =
                                            float_member "timeout_s" json;
                                          idem;
                                          priority = Interactive
                                        }
                                  })
                            | Some (Json.String p) -> (
                                match priority_of_string p with
                                | Some priority ->
                                    Ok
                                      { id;
                                        op =
                                          Solve
                                            { entry;
                                              timeout_s =
                                                float_member "timeout_s" json;
                                              idem;
                                              priority
                                            }
                                      }
                                | None ->
                                    fail Bad_request
                                      ("unknown priority: " ^ p))
                            | Some _ ->
                                fail Bad_request
                                  "priority must be a string when present")
                        | Some _ ->
                            fail Bad_request "idem must be a string when present")
                    | _ -> fail Bad_request "solve needs a string entry")
                | Some (Json.String "peek") -> (
                    match Json.member "key" json with
                    | Some (Json.String key) -> Ok { id; op = Peek { key } }
                    | _ -> fail Bad_request "peek needs a string key")
                | Some (Json.String "stats") -> Ok { id; op = Stats }
                | Some (Json.String "ping") -> Ok { id; op = Ping }
                | Some (Json.String "health") -> Ok { id; op = Health }
                | Some (Json.String "shutdown") -> Ok { id; op = Shutdown }
                | Some (Json.String other) ->
                    fail Bad_request ("unknown op: " ^ other)
                | _ -> fail Bad_request "missing op"))
        | Some (Json.Int v) ->
            fail Unsupported_version (Printf.sprintf "version %d, want %d" v version)
        | _ -> fail Unsupported_version "missing protocol version")
    | Ok _ -> Error (None, Bad_frame, "frame is not a JSON object")

(* ---------------------------------------------------------- responses *)

type job_report = {
  job_id : string;
  label : string;
  spec : string;
  result : Job.result;
  cache_hit : bool;
  wall_s : float;
}

type body =
  | Results of job_report list
  | Peeked of Job.outcome option
  | Stats_reply of Json.t
  | Health_reply of Json.t
  | Pong
  | Draining
  | Refused of { code : error_code; msg : string }

type response = { req_id : string option; body : body }

let report_to_json r =
  Json.Obj
    [ ("job", Json.String r.job_id);
      ("label", Json.String r.label);
      ("spec", Json.String r.spec);
      ("cache_hit", Json.Bool r.cache_hit);
      ("wall_s", Json.Float r.wall_s);
      ("result", Job.result_to_json r.result)
    ]

let report_of_json json =
  let str k =
    match Json.member k json with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "report: missing string %S" k)
  in
  let ( let* ) = Result.bind in
  let* job_id = str "job" in
  let* label = str "label" in
  let* spec = str "spec" in
  let* cache_hit =
    match Json.member "cache_hit" json with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "report: missing cache_hit"
  in
  let* wall_s =
    match float_member "wall_s" json with
    | Some f -> Ok f
    | None -> Error "report: missing wall_s"
  in
  let* result =
    match Json.member "result" json with
    | Some j -> Job.result_of_json j
    | None -> Error "report: missing result"
  in
  Ok { job_id; label; spec; result; cache_hit; wall_s }

let encode_response { req_id; body } =
  let id = match req_id with Some s -> Json.String s | None -> Json.Null in
  let base ok = [ ("v", Json.Int version); ("id", id); ("ok", Json.Bool ok) ] in
  let fields =
    match body with
    | Results reports ->
        base true @ [ ("results", Json.List (List.map report_to_json reports)) ]
    | Peeked outcome ->
        base true
        @ [ ( "peeked",
              Json.Obj
                (( "found",
                   Json.Bool (Option.is_some outcome) )
                 ::
                 (match outcome with
                 | Some o -> [ ("result", Job.result_to_json (Ok o)) ]
                 | None -> [])) )
          ]
    | Stats_reply stats -> base true @ [ ("stats", stats) ]
    | Health_reply health -> base true @ [ ("health", health) ]
    | Pong -> base true @ [ ("pong", Json.Bool true) ]
    | Draining -> base true @ [ ("draining", Json.Bool true) ]
    | Refused { code; msg } ->
        base false
        @ [ ( "error",
              Json.Obj
                [ ("code", Json.String (error_code_to_string code));
                  ("msg", Json.String msg)
                ] )
          ]
  in
  Json.to_string (Json.Obj fields)

let decode_response line =
  let ( let* ) = Result.bind in
  let* json =
    match Json.of_string line with
    | Ok (Json.Obj _ as j) -> Ok j
    | Ok _ -> Error "response is not a JSON object"
    | Error msg -> Error ("bad JSON: " ^ msg)
  in
  let* () =
    match Json.member "v" json with
    | Some (Json.Int v) when v = version -> Ok ()
    | _ -> Error "missing or unsupported protocol version"
  in
  let req_id =
    match Json.member "id" json with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let* body =
    match Json.member "ok" json with
    | Some (Json.Bool true) when Json.member "peeked" json <> None -> (
        match Json.member "peeked" json with
        | Some (Json.Obj _ as p) -> (
            match Json.member "found" p with
            | Some (Json.Bool false) -> Ok (Peeked None)
            | Some (Json.Bool true) -> (
                match Json.member "result" p with
                | Some j -> (
                    match Job.result_of_json j with
                    | Ok (Ok o) -> Ok (Peeked (Some o))
                    | Ok (Error _) -> Error "peeked result is an error value"
                    | Error e -> Error e)
                | None -> Error "peeked found without a result")
            | _ -> Error "peeked without a boolean found")
        | _ -> Error "peeked is not an object")
    | Some (Json.Bool true) -> (
        match
          ( Json.member "results" json,
            Json.member "stats" json,
            Json.member "health" json,
            Json.member "pong" json,
            Json.member "draining" json )
        with
        | Some (Json.List items), _, _, _, _ ->
            let rec go acc = function
              | [] -> Ok (Results (List.rev acc))
              | item :: rest -> (
                  match report_of_json item with
                  | Ok r -> go (r :: acc) rest
                  | Error e -> Error e)
            in
            go [] items
        | None, Some stats, _, _, _ -> Ok (Stats_reply stats)
        | None, None, Some health, _, _ -> Ok (Health_reply health)
        | None, None, None, Some (Json.Bool true), _ -> Ok Pong
        | None, None, None, None, Some (Json.Bool true) -> Ok Draining
        | _ -> Error "ok response without a recognized payload")
    | Some (Json.Bool false) -> (
        match Json.member "error" json with
        | Some err -> (
            match (Json.member "code" err, Json.member "msg" err) with
            | Some (Json.String code), Some (Json.String msg) -> (
                match error_code_of_string code with
                | Some code -> Ok (Refused { code; msg })
                | None -> Error ("unknown error code: " ^ code))
            | _ -> Error "malformed error object")
        | None -> Error "error response without error object")
    | _ -> Error "missing ok field"
  in
  Ok { req_id; body }

(* ------------------------------------------------------------ digests *)

let pairs reports = List.map (fun r -> (r.job_id, r.result)) reports
let sequence_digest reports = Job.digest_of_results (pairs reports)
let value_digest reports = Job.value_digest_of_results (pairs reports)
