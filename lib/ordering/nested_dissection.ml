module D = Tt_util.Dynarray_compat

(* Subgraph induced by [vertices] of [g], with the mapping back to the
   original ids. [local] numbers the chosen vertices and marks the rest
   [-1]. *)
let induced (g : Graph_adj.t) vertices =
  let map_back = Array.of_list vertices in
  let local = Array.make g.Graph_adj.n (-1) in
  Array.iteri (fun li v -> local.(v) <- li) map_back;
  let parent = g.Graph_adj.adj in
  let adj =
    Array.map
      (fun v ->
        let a = parent.(v) in
        let k = ref 0 in
        Array.iter (fun u -> if local.(u) >= 0 then incr k) a;
        let ns = Array.make !k 0 in
        k := 0;
        Array.iter
          (fun u ->
            let lu = local.(u) in
            if lu >= 0 then begin
              ns.(!k) <- lu;
              incr k
            end)
          a;
        ns)
      map_back
  in
  (Graph_adj.of_adjacency adj, map_back)

let order ?(small = 24) (g : Graph_adj.t) =
  let out = D.create () in
  let rec dissect (sub : Graph_adj.t) (map_back : int array) =
    let n = sub.Graph_adj.n in
    if n = 0 then ()
    else if n <= small then
      Array.iter (fun li -> D.add_last out map_back.(li)) (Min_degree.order sub)
    else begin
      (* split the first component; other components are dissected
         independently *)
      let comp, count = Graph_adj.components sub in
      if count > 1 then begin
        for c = 0 to count - 1 do
          let part = ref [] in
          for v = n - 1 downto 0 do
            if comp.(v) = c then part := v :: !part
          done;
          let subsub, mb = induced sub !part in
          let mb = Array.map (fun v -> map_back.(v)) mb in
          dissect subsub mb
        done
      end
      else begin
        let start = Graph_adj.pseudo_peripheral sub 0 in
        let level = Graph_adj.bfs_levels sub start in
        let max_level = Array.fold_left max 0 level in
        if max_level < 2 then
          (* too shallow to split: fall back to minimum degree *)
          Array.iter (fun li -> D.add_last out map_back.(li)) (Min_degree.order sub)
        else begin
          let mid = max_level / 2 in
          let below = ref [] and above = ref [] and sep = ref [] in
          for v = n - 1 downto 0 do
            if level.(v) < mid then below := v :: !below
            else if level.(v) > mid then above := v :: !above
            else sep := v :: !sep
          done;
          let sub_b, mb_b = induced sub !below in
          let sub_a, mb_a = induced sub !above in
          dissect sub_b (Array.map (fun v -> map_back.(v)) mb_b);
          dissect sub_a (Array.map (fun v -> map_back.(v)) mb_a);
          List.iter (fun v -> D.add_last out map_back.(v)) !sep
        end
      end
    end
  in
  dissect g (Array.init g.Graph_adj.n (fun i -> i));
  D.to_array out
