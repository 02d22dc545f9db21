type plan = {
  amal : Tt_etree.Amalgamation.t;
  rows : int array array;
  parent : int array;
}

let plan (sym : Tt_etree.Symbolic.t) (amal : Tt_etree.Amalgamation.t) =
  let n = Array.length sym.Tt_etree.Symbolic.parent in
  if Array.length amal.Tt_etree.Amalgamation.group_of <> n then
    invalid_arg "Supernodal.plan: amalgamation size mismatch";
  let rows =
    Array.map
      (fun (g : Tt_etree.Amalgamation.group) ->
        match g.Tt_etree.Amalgamation.members with
        | [] -> invalid_arg "Supernodal.plan: empty group"
        | head :: _ as members ->
            (* members are strictly below the head except the head itself;
               struct(head) covers everything at or above it *)
            let ms = Array.of_list members in
            Array.sort compare ms;
            let tail =
              Array.of_seq
                (Seq.filter (fun i -> i <> head)
                   (Array.to_seq sym.Tt_etree.Symbolic.col_struct.(head)))
            in
            Array.append ms tail)
      amal.Tt_etree.Amalgamation.groups
  in
  let parent =
    Array.map (fun g -> g.Tt_etree.Amalgamation.parent) amal.Tt_etree.Amalgamation.groups
  in
  { amal; rows; parent }

let front_words p g =
  let m = Array.length p.rows.(g) in
  m * m

let default_schedule p = Driver.postorder p.parent

let run a (_sym : Tt_etree.Symbolic.t) p ~schedule =
  let r =
    Driver.run_exn "Supernodal.run" a (Driver.supernodes p.amal p.rows) Driver.Slots
      ~schedule
  in
  { Factor.l = r.Driver.l; peak_words = r.Driver.peak; profile = r.Driver.profile }
