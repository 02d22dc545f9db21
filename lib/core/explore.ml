module R = Tt_util.Rope
module D = Tt_util.Dynarray_compat

type result = { m_cut : int; cut : int list; mpeak : int; trav : R.t }

type cache_entry = { mutable avail : int; mutable cut : int list; mutable trav : R.t }

type cache = {
  entries : cache_entry option array;
  (* per-node membership stamps for the cut of the currently running
     call; every call draws a fresh token, so recursive calls can share
     the array (their cuts are disjoint) *)
  tokens : int array;
  mutable next_token : int;
}

let infinity_mem = max_int

let make_cache t =
  { entries = Array.make (Tree.size t) None;
    tokens = Array.make (Tree.size t) 0;
    next_token = 1 }

(* Algorithm 3, with two engineering refinements over the pseudocode:
   - the paper's Linit/Trinit resume mechanism is applied at every node
     rather than only at the root, through a per-node cache of reached
     cuts: a subtree's cut state is self-contained and its traversal
     prefix remains feasible when the available memory grows, so a later
     call with at least as much memory resumes instead of recomputing
     (cross-checked against the exponential oracle in the tests);
   - the cut is a growable array with tombstones and O(1) substitution,
     so wide nodes (stars) do not degenerate to quadratic time. *)
let rec explore ?(cancel = Tt_util.Cancel.never) t ~mpeak_tbl ~cache i ~mavail
    ~linit ~trinit =
  Tt_util.Cancel.check cancel;
  let fi = t.Tree.f.(i) and ni = t.Tree.n.(i) in
  let resume = linit <> [] in
  if (not resume) && Tree.is_leaf t i && ni + fi <= mavail then
    { m_cut = 0; cut = []; mpeak = infinity_mem; trav = R.singleton i }
  else begin
    let mem_req = fi + ni + Tree.sum_children_f t i in
    if (not resume) && mem_req > mavail then
      { m_cut = infinity_mem; cut = []; mpeak = mem_req; trav = R.empty }
    else begin
      let token = cache.next_token in
      cache.next_token <- token + 1;
      (* the cut: live members carry [token] in [cache.tokens] *)
      let members = D.create () in
      let sum_cut = ref 0 in
      (* count of live entries: a node is added at most once per call, so
         adds and removes track the tombstone density exactly *)
      let live = ref 0 in
      let add v =
        D.add_last members v;
        cache.tokens.(v) <- token;
        incr live;
        sum_cut := !sum_cut + t.Tree.f.(v)
      in
      let alive v = cache.tokens.(v) = token in
      let remove v =
        cache.tokens.(v) <- 0;
        decr live;
        sum_cut := !sum_cut - t.Tree.f.(v)
      in
      if resume then List.iter add linit
      else
        for k = t.Tree.child_off.(i) to t.Tree.child_off.(i + 1) - 1 do
          add t.Tree.child.(k)
        done;
      let trav = ref (if resume then trinit else R.singleton i) in
      (* lines 12-19: improve the cut until no member is explorable *)
      let collect_candidates () =
        let cs = ref [] in
        D.iter
          (fun j ->
            if alive j && mavail - (!sum_cut - t.Tree.f.(j)) >= mpeak_tbl.(j) then
              cs := j :: !cs)
          members;
        !cs
      in
      let candidates = ref [] in
      let first_pass = ref true in
      let continue_ = ref true in
      while !continue_ do
        Tt_util.Cancel.check cancel;
        (* compact once tombstones dominate, so candidate collection on
           wide nodes scans the live cut rather than its whole history;
           the filter is stable, so iteration order — and therefore every
           result — is unchanged *)
        if D.length members > 16 && D.length members > 2 * !live then
          D.filter_in_place alive members;
        (* the first pass explores every initial member (the pseudocode's
           Candidates <- L_i), later passes only the promising ones *)
        candidates :=
          if !first_pass then begin
            first_pass := false;
            let cs = ref [] in
            D.iter (fun j -> if alive j then cs := j :: !cs) members;
            !cs
          end
          else collect_candidates ();
        if !candidates = [] then continue_ := false
        else
          List.iter
            (fun j ->
              let avail_j = mavail - (!sum_cut - t.Tree.f.(j)) in
              let r = explore_cached ~cancel t ~mpeak_tbl ~cache j ~mavail:avail_j in
              mpeak_tbl.(j) <- r.mpeak;
              if r.m_cut <= t.Tree.f.(j) then begin
                remove j;
                List.iter add r.cut;
                trav := R.cat !trav r.trav;
                cache.entries.(j) <- None
              end)
            !candidates
      done;
      (* lines 20-22 *)
      let cut = ref [] in
      let mpeak = ref infinity_mem in
      D.iter
        (fun j ->
          if alive j then begin
            cut := j :: !cut;
            (* release the stamp so unrelated later calls start clean *)
            if mpeak_tbl.(j) <> infinity_mem then
              mpeak := min !mpeak (mpeak_tbl.(j) + (!sum_cut - t.Tree.f.(j)))
          end)
        members;
      let final_sum = !sum_cut in
      List.iter (fun j -> cache.tokens.(j) <- 0) !cut;
      { m_cut = final_sum; cut = !cut; mpeak = !mpeak; trav = !trav }
    end
  end

(* Resume from the cached cut when the memory is at least what the cached
   state was reached with; refresh the cache with the new state when the
   subtree stays unfinished. *)
and explore_cached ?cancel t ~mpeak_tbl ~cache j ~mavail =
  let resumed, linit, trinit =
    match cache.entries.(j) with
    | Some c when mavail >= c.avail -> (true, c.cut, c.trav)
    | _ -> (false, [], R.empty)
  in
  let r = explore ?cancel t ~mpeak_tbl ~cache j ~mavail ~linit ~trinit in
  if r.m_cut <> infinity_mem && r.cut <> [] then begin
    match cache.entries.(j) with
    | Some c ->
        (* a fresh recompute at smaller memory resets the resume bar *)
        c.avail <- (if resumed then max c.avail mavail else mavail);
        c.cut <- r.cut;
        c.trav <- r.trav
    | None -> cache.entries.(j) <- Some { avail = mavail; cut = r.cut; trav = r.trav }
  end;
  r
