(* Shared pieces of the benchmark program: clocks, order statistics,
   input generation from the seed, failure accounting and the result
   line. *)

module O = Oracle

let now () = Pc_util.Clock.now ()

(* Linear-interpolation quantile, [p] in [0, 1]. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

exception Bench_error of string

let bench_error fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Accounting: attempted / failed per operation type, and the answers
   that did not match the benchmark's own truth. *)

type account = {
  mutable ops : (string * int ref * int ref) list;
  mutable wrong : string list;  (** first few mismatches, newest first *)
  mutable n_wrong : int;
}

let account () = { ops = []; wrong = []; n_wrong = 0 }

let op_counters acc op =
  match List.find_opt (fun (o, _, _) -> o = op) acc.ops with
  | Some (_, a, f) -> (a, f)
  | None ->
      let a = ref 0 and f = ref 0 in
      acc.ops <- acc.ops @ [ (op, a, f) ];
      (a, f)

let attempt acc op ~ok =
  let a, f = op_counters acc op in
  incr a;
  if not ok then incr f

let wrong acc msg =
  acc.n_wrong <- acc.n_wrong + 1;
  if acc.n_wrong <= 5 then acc.wrong <- msg :: acc.wrong

(* Check one answer against the truth: ranges contain it, [Empty] only
   where no row lies in the region, never [Infeasible]. *)
let check_answer acc ~what ~truth (answer : [ `Range of float * float | `Empty | `Infeasible ]) =
  match (answer, truth) with
  | `Infeasible, _ -> wrong acc (what ^ ": infeasible")
  | `Empty, None -> ()
  | `Empty, Some t -> wrong acc (Printf.sprintf "%s: empty, truth %s" what (O.num t))
  | `Range (lo, hi), Some t ->
      if not (O.contains ~lo ~hi t) then
        wrong acc
          (Printf.sprintf "%s: [%s, %s] misses truth %s" what (O.num lo) (O.num hi) (O.num t))
  | `Range _, None ->
      (* AVG/MIN/MAX over a region with no row: a range is still sound,
         since some consistent instance may place a row there *)
      ()

(* Over-estimation of a range against the truth: hi / truth, for truth > 0. *)
let overestimate ~hi truth =
  match truth with Some t when t > 0. -> Some (hi /. t) | _ -> None

(* ------------------------------------------------------------------ *)
(* Inputs. Everything derives from the seed; the sensor relation's top
   half by [light] goes missing, as in the paper's §6.2 protocol. *)

type split = {
  observed : Pc_data.Relation.t;
  hidden : Pc_data.Relation.t;
  hidden_rows : O.rows;
  all_rows : O.rows;  (** observed then hidden *)
}

let sensor_split ~seed ~rows =
  let full = Pc_synth.Sensor.generate (Pc_util.Rng.create seed) ~rows in
  let s = Pc_synth.Missing.top_values full ~attr:"light" ~fraction:0.5 in
  let hidden_rows = O.of_relation s.Pc_synth.Missing.missing in
  {
    observed = s.Pc_synth.Missing.observed;
    hidden = s.Pc_synth.Missing.missing;
    hidden_rows;
    all_rows = O.concat (O.of_relation s.Pc_synth.Missing.observed) hidden_rows;
  }

let aggs_of = function
  | `All ->
      Pc_workload.Querygen.
        [ Count; Sum "light"; Avg "light"; Min "light"; Max "light" ]
  | `Count_sum -> Pc_workload.Querygen.[ Count; Sum "light" ]

(* [per_agg] random queries per aggregate over [attrs], as benchmark
   queries (the library's query values only seed the windows). *)
let queries ?selectivity rng rel ~attrs ~aggs ~per_agg =
  List.concat_map
    (fun agg ->
      Pc_workload.Querygen.random_queries ?selectivity rng rel ~attrs ~agg
        ~n:per_agg
      |> List.map O.of_query)
    (aggs_of aggs)

(* Constraint text written by the benchmark, and a check that every
   constraint parsed from it holds on the rows it summarizes. *)
let constraint_text pcs = O.constraints_text (List.map O.of_pc pcs)

let check_constraints ~rows pcs =
  List.iter
    (fun pc ->
      match O.violation rows (O.of_pc pc) with
      | None -> ()
      | Some why -> bench_error "parsed constraint does not hold: %s" why)
    pcs

(* ------------------------------------------------------------------ *)
(* Timing on a shared host. The in-process workloads repeat the same
   operations pass after pass, and an operation's time is the fastest of
   its runs ([best]): the fastest run has not waited for a garbage
   collection triggered by an earlier operation nor, with several
   domains, for another domain's collection, and it ran in the fastest
   stretch of the host the run saw. The server's requests do
   not repeat (Zipf draws, a cache that changes under writes), so its
   timed phase is cut into one-second windows and each figure is the
   median of its per-window values, which does not follow a few slow
   windows. *)

(* Fastest run of each operation [i] of a pass. *)
type best = float array

let best n : best = Array.make n infinity
let record (b : best) i dt = if dt < b.(i) then b.(i) <- dt
let best_times (b : best) = List.filter Float.is_finite (Array.to_list b)

type window = { dur : float; lats : float list  (** seconds *) }

let window_rate w = float_of_int (List.length w.lats) /. w.dur
let window_ms q w = 1e3 *. quantile w.lats q
let over_windows f ws = median (List.map f ws)

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* [p50] in seconds *)
let end_to_end ~setup_s ~rss ~over ~p50 =
  [
    metric "setup_s" "s" setup_s;
    metric "bound_p50_ms" "ms" (1e3 *. p50);
    metric "overestimate_median" "ratio" (median over);
    metric "peak_rss_mb" "MB" rss;
  ]

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else bench_error "metric value is not finite"

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_num m.value)
          m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

let print_account acc =
  List.iter
    (fun (op, a, f) -> Printf.printf "ops %-8s attempted %d failed %d\n" op !a !f)
    acc.ops;
  List.iter (Printf.printf "WRONG %s\n") (List.rev acc.wrong);
  if acc.n_wrong > 5 then Printf.printf "WRONG ... %d in all\n" acc.n_wrong

let totals acc =
  List.fold_left (fun (a, f) (_, x, y) -> (a + !x, f + !y)) (0, 0) acc.ops
