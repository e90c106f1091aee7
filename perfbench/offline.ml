(* The in-process workloads: [sensor_randpc] and [wide_overlap] call
   [Bounds.bound_budgeted] from one caller on a precompiled diagram, as
   the server does; [sensor_parallel] answers sessions through
   [Runner.outcomes] on a domain pool. *)

open Common
module Bounds = Pc_core.Bounds
module Pc_set = Pc_core.Pc_set
module Fdd = Pc_predicate.Fdd
module Rng = Pc_util.Rng

let fdd_opts = { Bounds.default_opts with Bounds.strategy = Pc_core.Cells.Fdd }

(* Every bound runs under a fresh budget of MILP nodes and simplex
   pivots, as a caller with a latency target would run it. A typical
   bound here expands under 130 nodes and 800 pivots; without caps, about
   one AVG bound in five hundred ran its binary search's MILPs to the
   node limit and took most of a second, so one query set the pace of a
   whole run (see README). The caps are counts, so the answers stay the
   same from run to run. *)
let budget_spec = Pc_budget.Budget.spec ~nodes:250 ~iters:2000 ()

type query = { text : string; parsed : Pc_query.Query.t; truth : float option }

(* Query text is written by the benchmark and parsed back, so the
   library sees exactly what a client would send. *)
let make_queries ~rows qs =
  Array.of_list
    (List.map
       (fun bq ->
         let text = O.query_text bq in
         { text; parsed = Pc_parse.Query_parser.parse text; truth = O.truth rows bq })
       qs)

(* A workload is several independent groups, each its own sensor
   relation, constraint set and queries. The cost and tightness of one
   random relation and constraint set swing by tens of percent from seed
   to seed; their average over groups does not. *)
type group = {
  text : string;
  queries : query array;
  hidden : Pc_data.Relation.t;  (** the missing rows the constraints summarize *)
  hidden_rows : O.rows;
}

let sensor_attrs = [ "device"; "time" ]

(* [n] groups from [seed]; [make rng split] draws one group's
   constraints. *)
let groups ~seed ~n ~rows ?selectivity ~attrs ~aggs ~per_agg make =
  let master = Rng.create seed in
  Array.init n (fun _ ->
      let rng = Rng.split master in
      let sp = sensor_split ~seed:(Rng.int rng 1_000_000_000) ~rows in
      let pcs = make rng sp in
      {
        text = constraint_text pcs;
        queries =
          make_queries ~rows:sp.hidden_rows (queries ?selectivity rng sp.hidden ~attrs ~aggs ~per_agg);
        hidden = sp.hidden;
        hidden_rows = sp.hidden_rows;
      })

(* Rand-PC: tens of overlapping constraints on device x time, with
   random COUNT/SUM/AVG/MIN/MAX queries. *)
let randpc_groups ~seed ~n ~per_agg =
  groups ~seed ~n ~rows:1000 ~attrs:sensor_attrs ~aggs:`All ~per_agg (fun rng sp ->
      Pc_core.Generate.rand_pcs rng sp.hidden ~attrs:sensor_attrs ~n:40 ())

(* About a thousand narrow overlapping windows on one attribute, and
   selective COUNT/SUM queries over it. *)
let wide_overlap_groups ~seed =
  groups ~seed ~n:4 ~rows:4000 ~selectivity:(0.02, 0.04) ~attrs:[ "time" ] ~aggs:`Count_sum ~per_agg:40
    (fun rng sp -> Pc_core.Generate.rand_pcs ~width_frac:(0.002, 0.01) rng sp.hidden ~attrs:[ "time" ] ~n:1000 ())

(* The program's set-up: parse, build the set, compile the diagram. *)
let prepare text =
  let pcs = Pc_parse.Pc_parser.parse text in
  let set = Pc_set.make pcs in
  let fdd = Fdd.compile (Array.of_list (List.map (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred) pcs)) in
  (pcs, set, fdd)

(* Median of seven set-ups, each from a compacted heap, so that neither
   one noisy sample nor the garbage of the previous set-up sets it. *)
let timed_setup f =
  let rec go acc n =
    Gc.compact ();
    let t0 = now () in
    let r = f () in
    let acc = (now () -. t0) :: acc in
    if n = 1 then (r, median acc) else go acc (n - 1)
  in
  go [] 7

let answer_of = function
  | Bounds.Range r -> `Range (r.Pc_core.Range.lo, r.Pc_core.Range.hi)
  | Bounds.Empty -> `Empty
  | Bounds.Infeasible -> `Infeasible

(* What a timed phase saw. *)
type phase = {
  wall : float;
  lat : float list;  (** every bound, seconds *)
  busy : float;  (** sum of [lat] *)
  rate : float;  (** bounds per second of a pass timed by each operation's fastest run *)
  fastest : float list;  (** each query's fastest bound, seconds *)
  cells : int;
  degraded : int;
}

(* The queries of all groups, interleaved so that every prefix of a
   pass spreads over the groups. *)
let interleave groups =
  let longest = Array.fold_left (fun m g -> max m (Array.length g.queries)) 0 groups in
  List.init longest (fun j ->
      List.filter_map
        (fun gi -> if j < Array.length groups.(gi).queries then Some (gi, groups.(gi).queries.(j)) else None)
        (List.init (Array.length groups) Fun.id))
  |> List.concat |> Array.of_list

(* One bound of query [q] of group [g], checked against the truth. *)
let bound_once acc prepared (g, q) =
  let _, set, fdd = prepared.(g) in
  let t0 = now () in
  match
    Bounds.bound_budgeted ~opts:fdd_opts ~budget:(Pc_budget.Budget.start budget_spec) ~fdd set q.parsed
  with
  | o ->
      let dt = now () -. t0 in
      attempt acc "bound" ~ok:true;
      let a = answer_of o.Bounds.answer in
      check_answer acc ~what:q.text ~truth:q.truth a;
      Some (dt, a, o.Bounds.stats)
  | exception e ->
      attempt acc "bound" ~ok:false;
      Printf.printf "FAILED bound %s: %s\n" q.text (Printexc.to_string e);
      None

(* hi / truth of every range answer with a positive truth *)
let overestimates answers =
  List.filter_map
    (fun (q, a) -> match a with `Range (_, hi) -> overestimate ~hi q.truth | _ -> None)
    answers

(* One untimed pass over the queries, before any timing: lazy set-up
   finishes, and the over-estimation of every query is read off. *)
let warm_pass acc prepared order =
  Array.to_list order
  |> List.filter_map (fun (g, q) -> Option.map (fun (_, a, _) -> (q, a)) (bound_once acc prepared (g, q)))
  |> overestimates

(* Bound the queries round-robin for [seconds]; [prepared.(g)] is the
   set and diagram of group [g]. The heap is compacted first, so that
   garbage from the set-up is not collected on the clock. A query's
   time is the fastest of its bounds (see [Common.best]); the rate is
   the queries bounded over the sum of those times. *)
let static_phase acc ~seconds prepared order =
  Gc.compact ();
  let n = Array.length order in
  let lat = ref [] and cells = ref 0 and degraded = ref 0 in
  let fastest = best n in
  let t_start = now () in
  let i = ref 0 in
  while now () -. t_start < seconds do
    (match bound_once acc prepared order.(!i mod n) with
    | Some (dt, _, s) ->
        record fastest (!i mod n) dt;
        lat := dt :: !lat;
        cells := !cells + s.Bounds.cells;
        if s.Bounds.provenance <> Bounds.Exact then incr degraded
    | None -> ());
    incr i
  done;
  let fastest = best_times fastest in
  {
    wall = now () -. t_start;
    lat = !lat;
    busy = List.fold_left ( +. ) 0. !lat;
    rate = float_of_int (List.length fastest) /. List.fold_left ( +. ) 0. fastest;
    fastest;
    cells = !cells;
    degraded = !degraded;
  }

(* Layer timings taken from outside: the benchmark times its own calls
   into the parser and the diagram. *)
let setup_layers (sets : (string * query array) array) =
  let pcs, parse_s = timed_setup (fun () -> Array.map (fun (text, _) -> Pc_parse.Pc_parser.parse text) sets) in
  let preds =
    Array.map (fun pcs -> Array.of_list (List.map (fun (pc : Pc_core.Pc.t) -> pc.Pc_core.Pc.pred) pcs)) pcs
  in
  let fdds, compile_s = timed_setup (fun () -> Array.map Fdd.compile preds) in
  let per_query f =
    let qs = Array.concat (Array.to_list (Array.mapi (fun g (_, qs) -> Array.map (fun q -> (g, q)) qs) sets)) in
    let t0 = now () in
    let reps = ref 0 in
    while !reps < 3 || now () -. t0 < 0.2 do
      Array.iter f qs;
      incr reps
    done;
    (now () -. t0) /. float_of_int (!reps * Array.length qs)
  in
  let query_s = per_query (fun (_, q) -> ignore (Pc_parse.Query_parser.parse q.text)) in
  let cells_s = per_query (fun (g, q) -> ignore (Fdd.cells ~query:q.parsed.Pc_query.Query.where_ fdds.(g))) in
  [
    metric "parse.constraints_ms" "ms" (1e3 *. parse_s);
    metric "parse.query_us" "us" (1e6 *. query_s);
    metric "fdd.compile_ms" "ms" (1e3 *. compile_s);
    metric "fdd.nodes" "count" (float_of_int (Array.fold_left (fun n f -> n + Fdd.n_nodes f) 0 fdds));
    metric "fdd.cells_us" "us" (1e6 *. cells_s);
  ]

let counter name =
  match List.assoc_opt name (Pc_obs.Registry.counters ()) with Some v -> v | None -> 0

let histogram name =
  List.find (fun h -> Pc_obs.Registry.Histogram.name h = name) (Pc_obs.Registry.histograms ())

(* Run [phase] untraced for half the time, then traced for the other
   half; the per-layer metrics of the traced half. *)
let traced ~seconds phase =
  let untraced = phase (seconds /. 2.) in
  Pc_obs.Trace.reset ();
  Pc_obs.Registry.reset_values ();
  Pc_obs.Trace.set_enabled true;
  Pc_obs.Registry.set_enabled true;
  let p = phase (seconds /. 2.) in
  Pc_obs.Trace.set_enabled false;
  Pc_obs.Registry.set_enabled false;
  let spans = Layers.of_trace () in
  Pc_obs.Trace.reset ();
  let pool_ms name =
    let h = histogram name in
    Pc_obs.Registry.Histogram.mean_ns h /. 1e6
  in
  Layers.core_metrics ~n_bounds:(List.length p.lat) ~cells:p.cells ~degraded:p.degraded spans ~counter
  @ [
        metric "pool.run_ms" "ms" (pool_ms "pool.run_ns");
        metric "pool.queue_wait_ms" "ms" (pool_ms "pool.queue_wait_ns");
        metric "pool.parallelism" "ratio" (p.busy /. p.wall);
        metric "trace.overhead" "ratio" (p.rate /. untraced.rate);
        metric "bounds_per_s" "1/s" untraced.rate;
        metric "bound_p90_ms" "ms" (1e3 *. quantile untraced.fastest 0.9);
        (* a tail needs ten samples beyond it *)
        metric "bound_p99_ms" "ms"
          (if List.length untraced.lat >= 1000 then 1e3 *. quantile untraced.lat 0.99 else 0.);
      ]

let self_rss () = peak_rss_mb "self"

let run_static acc ~seconds ~trace groups =
  let prepared, setup_s = timed_setup (fun () -> Array.map (fun g -> prepare g.text) groups) in
  Array.iteri (fun i (pcs, _, _) -> check_constraints ~rows:groups.(i).hidden_rows pcs) prepared;
  let order = interleave groups in
  let over = warm_pass acc prepared order in
  let phase s = static_phase acc ~seconds:s prepared order in
  if trace then traced ~seconds phase @ setup_layers (Array.map (fun g -> (g.text, g.queries)) groups)
  else
    let p = phase seconds in
    end_to_end ~setup_s ~rss:(self_rss ()) ~over ~p50:(quantile p.fastest 0.5)

let sensor_randpc acc ~seed ~seconds ~trace =
  run_static acc ~seconds ~trace (randpc_groups ~seed ~n:96 ~per_agg:2)

let wide_overlap acc ~seed ~seconds ~trace =
  run_static acc ~seconds ~trace (wide_overlap_groups ~seed)

(* ------------------------------------------------------------------ *)
(* sensor_parallel *)

let answer_of_outcome (o : Pc_workload.Metrics.outcome) =
  match o.Pc_workload.Metrics.estimate with
  | Some r -> `Range (r.Pc_core.Range.lo, r.Pc_core.Range.hi)
  | None -> `Empty

let ranges_equal (a : Pc_workload.Metrics.outcome) (b : Pc_workload.Metrics.outcome) =
  let r (o : Pc_workload.Metrics.outcome) =
    Option.map (fun (x : Pc_core.Range.t) -> (x.Pc_core.Range.lo, x.Pc_core.Range.hi)) o.Pc_workload.Metrics.estimate
  in
  r a = r b && a.Pc_workload.Metrics.provenance = b.Pc_workload.Metrics.provenance

(* Sessions: 48 Rand-PC groups and 16 Corr-PC partitions, three Rand-PC
   sessions to each Corr-PC one. A Corr-PC set is disjoint and
   takes the fast greedy path, so an even mix would put the median
   latency on the edge between the two modes. *)
let sensor_parallel acc ~seed ~seconds ~trace =
  let rand = randpc_groups ~seed ~n:48 ~per_agg:3 in
  let corr =
    groups ~seed:(seed + 1) ~n:16 ~rows:1000 ~attrs:sensor_attrs ~aggs:`All ~per_agg:3 (fun _ sp ->
        Pc_core.Generate.corr_partition sp.hidden ~attrs:sensor_attrs ~n:100 ())
  in
  let groups = Array.init 64 (fun k -> if k mod 4 = 3 then corr.(k / 4) else rand.((k / 4 * 3) + (k mod 4))) in
  let parsed, setup_s =
    timed_setup (fun () ->
        Array.map
          (fun g ->
            let pcs = Pc_parse.Pc_parser.parse g.text in
            ignore (Pc_set.make pcs);
            pcs)
          groups)
  in
  Array.iteri (fun g pcs -> check_constraints ~rows:groups.(g).hidden_rows pcs) parsed;
  let n_groups = Array.length groups in
  (* query [i] of group [g] is operation [first.(g) + i] of a pass *)
  let first = Array.make n_groups 0 in
  for g = 1 to n_groups - 1 do
    first.(g) <- first.(g - 1) + Array.length groups.(g - 1).queries
  done;
  let mu = Mutex.create () in
  let lat = ref [] and cells = ref 0 and degraded = ref 0 and infeasible = ref 0 in
  let q_fastest = ref (best 0) in
  (* the caller's answer function, timed from inside the pool task *)
  let baseline g set =
    let index q =
      let qs = groups.(g).queries in
      let rec find i = if qs.(i).parsed == q then i else find (i + 1) in
      first.(g) + find 0
    in
    {
      Pc_workload.Runner.label = "pc";
      answer =
        (fun q ->
          let t0 = now () in
          let o = Bounds.bound_budgeted ~budget:(Pc_budget.Budget.start budget_spec) set q in
          let dt = now () -. t0 in
          Mutex.lock mu;
          lat := dt :: !lat;
          record !q_fastest (index q) dt;
          cells := !cells + o.Bounds.stats.Bounds.cells;
          if o.Bounds.stats.Bounds.provenance <> Bounds.Exact then incr degraded;
          if o.Bounds.answer = Bounds.Infeasible then incr infeasible;
          Mutex.unlock mu;
          ( (match o.Bounds.answer with Bounds.Range r -> Some r | _ -> None),
            Some o.Bounds.stats.Bounds.provenance ));
    }
  in
  let session pool g =
    let set = Pc_set.make parsed.(g) in
    (* Forced on the calling domain: pool workers forcing this lazy at
       once raise CamlinternalLazy.Undefined (see README). *)
    ignore (Pc_set.is_disjoint set);
    let queries = Array.to_list (Array.map (fun q -> q.parsed) groups.(g).queries) in
    Pc_workload.Runner.outcomes ~pool (baseline g set) ~missing:groups.(g).hidden ~queries
  in
  let per_pass = first.(n_groups - 1) + Array.length groups.(n_groups - 1).queries in
  q_fastest := best per_pass;
  let reference = Array.init n_groups (session Pc_par.Pool.sequential) in
  let pool = Pc_par.Pool.create ~jobs:(Pc_par.Pool.available_cores ()) in
  let over =
    overestimates
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun g outs ->
                 List.mapi
                   (fun i o -> (groups.(g).queries.(i), answer_of_outcome o))
                   outs)
               reference)))
  in
  (* A session's time is the fastest of its runs, and so is each
     query's latency (see [Common.best]); the rate is the bounds of the
     sessions run over the sum of their times. *)
  let phase seconds =
    Gc.compact ();
    lat := [];
    cells := 0;
    degraded := 0;
    q_fastest := best per_pass;
    let s_fastest = best n_groups in
    let t_start = now () in
    let k = ref 0 in
    while now () -. t_start < seconds do
      let g = !k mod n_groups in
      let queries = groups.(g).queries in
      let t0 = now () in
      (match session pool g with
      | outs ->
          record s_fastest g (now () -. t0);
          attempt acc "session" ~ok:true;
          List.iteri
            (fun i (o : Pc_workload.Metrics.outcome) ->
              let q = queries.(i) in
              attempt acc "bound" ~ok:true;
              check_answer acc ~what:q.text ~truth:q.truth (answer_of_outcome o);
              if not (ranges_equal o (List.nth reference.(g) i)) then
                wrong acc ("parallel outcome differs from one domain: " ^ q.text))
            outs
      | exception e ->
          attempt acc "session" ~ok:false;
          Array.iter (fun _ -> attempt acc "bound" ~ok:false) queries;
          Printf.printf "FAILED session: %s\n" (Printexc.to_string e));
      incr k
    done;
    let ran = List.filter (fun g -> Float.is_finite s_fastest.(g)) (List.init n_groups Fun.id) in
    let n_bounds = List.fold_left (fun n g -> n + Array.length groups.(g).queries) 0 ran in
    {
      wall = now () -. t_start;
      lat = !lat;
      busy = List.fold_left ( +. ) 0. !lat;
      rate = float_of_int n_bounds /. List.fold_left (fun t g -> t +. s_fastest.(g)) 0. ran;
      fastest = best_times !q_fastest;
      cells = !cells;
      degraded = !degraded;
    }
  in
  let result =
    if trace then traced ~seconds phase @ setup_layers (Array.map (fun g -> (g.text, g.queries)) groups)
    else
      let p = phase seconds in
      end_to_end ~setup_s ~rss:(self_rss ()) ~over ~p50:(quantile p.fastest 0.5)
  in
  Pc_par.Pool.shutdown pool;
  if !infeasible > 0 then wrong acc (Printf.sprintf "%d infeasible answers" !infeasible);
  result
