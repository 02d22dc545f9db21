type result = {
  factor : Factor.result;
  planned_io : int;
  measured_io : int;
  peak_in_core : int;
}

let raw_assembly (sym : Tt_etree.Symbolic.t) =
  let n = Array.length sym.Tt_etree.Symbolic.parent in
  let col_counts = Array.init n (Tt_etree.Symbolic.col_count sym) in
  Tt_etree.Assembly.of_etree_raw ~parent:sym.Tt_etree.Symbolic.parent ~col_counts

let min_in_core_words (sym : Tt_etree.Symbolic.t) =
  let asm = raw_assembly sym in
  Tt_core.Tree.max_mem_req asm.Tt_etree.Assembly.tree

(* The eviction plan on an assembly tree whose node [g] is front [g]:
   the bottom-up schedule, reversed, is an out-tree traversal of it
   (the virtual root first when the matrix is reducible). *)
let plan_on (asm : Tt_etree.Assembly.t) ~memory_words ~policy ~schedule =
  let tree = asm.Tt_etree.Assembly.tree in
  let order = Tt_core.Transform.reverse_traversal schedule in
  let order =
    if asm.Tt_etree.Assembly.virtual_root then
      Array.append [| Tt_core.Tree.size tree - 1 |] order
    else order
  in
  Tt_core.Minio.run tree ~memory:memory_words ~order policy

let plan sym = plan_on (raw_assembly sym)

(* Check, plan, then factor with the evicted fronts' blocks on the
   simulated secondary store. *)
let spill a (asm : Tt_etree.Assembly.t) ~working_set fronts ~memory_words ~policy
    ~schedule =
  let tree = asm.Tt_etree.Assembly.tree in
  match Driver.check fronts schedule with
  | Error e -> Error e
  | Ok () -> (
      match plan_on asm ~memory_words ~policy ~schedule with
      | None ->
          Error
            (Printf.sprintf "memory budget %d words below the %s working set %d"
               memory_words working_set (Tt_core.Tree.max_mem_req tree))
      | Some io_plan ->
          let tau = io_plan.Tt_core.Io_schedule.tau in
          let out =
            Array.init (Array.length schedule) (fun g ->
                tau.(g) <> Tt_core.Io_schedule.never)
          in
          Result.map
            (fun (r : Driver.outcome) ->
              { factor =
                  { Factor.l = r.Driver.l;
                    peak_words = r.Driver.peak;
                    profile = r.Driver.profile
                  };
                planned_io = Tt_core.Io_schedule.io_volume tree io_plan;
                measured_io = r.Driver.written;
                peak_in_core = r.Driver.peak
              })
            (Driver.run a fronts (Driver.Spill out) ~schedule))

let run a sym ~memory_words ~policy ~schedule =
  spill a (raw_assembly sym) ~working_set:"multifrontal" (Driver.columns sym)
    ~memory_words ~policy ~schedule

let run_supernodal a sym amal ~memory_words ~policy ~schedule =
  let fronts = Driver.supernodes amal (Supernodal.plan sym amal).Supernodal.rows in
  spill a (Tt_etree.Assembly.of_amalgamation amal) ~working_set:"supernodal" fronts
    ~memory_words ~policy ~schedule
