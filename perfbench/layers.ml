(* Per-layer figures from a trace: self time = a span's duration minus
   the part of it that its child layer spans cover. Spans that are not
   layers (the ladder's [rung.*], [milp.incumbent], [pool.map]) are
   transparent: their time stays with the nearest enclosing layer. *)

type span = { name : string; tid : int; t0 : float; dur : float }  (** ns *)

let layer_names = [ "bound"; "decompose"; "sat.solve"; "lp.solve"; "milp.solve" ]

type total = { mutable count : int; mutable incl : float; mutable self : float }

(* Per span name: count, inclusive and self nanoseconds. Nesting is
   recovered per thread id from interval containment. *)
let totals spans =
  let tbl = Hashtbl.create 16 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some t -> t
    | None ->
        let t = { count = 0; incl = 0.; self = 0. } in
        Hashtbl.add tbl name t;
        t
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      if List.mem s.name layer_names then
        Hashtbl.replace by_tid s.tid
          (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[]))
    spans;
  let finish (s, covered) =
    let t = get s.name in
    t.count <- t.count + 1;
    t.incl <- t.incl +. s.dur;
    t.self <- t.self +. Float.max 0. (s.dur -. covered)
  in
  Hashtbl.iter
    (fun _ ss ->
      let ss =
        List.sort
          (fun a b ->
            match Float.compare a.t0 b.t0 with 0 -> Float.compare b.dur a.dur | c -> c)
          ss
      in
      (* stack of open spans with the time their children cover *)
      let stack = ref [] in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | (p, c) :: rest when p.t0 +. p.dur <= s.t0 ->
                finish (p, !c);
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (p, c) :: _ -> c := !c +. (Float.min (s.t0 +. s.dur) (p.t0 +. p.dur) -. s.t0)
          | [] -> ());
          stack := (s, ref 0.) :: !stack)
        ss;
      List.iter (fun (p, c) -> finish (p, !c)) !stack)
    by_tid;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:{ count = 0; incl = 0.; self = 0. }

let of_trace () =
  List.map
    (fun (s : Pc_obs.Trace.span) ->
      {
        name = s.Pc_obs.Trace.name;
        tid = s.Pc_obs.Trace.domain;
        t0 = Int64.to_float s.Pc_obs.Trace.t0_ns;
        dur = Int64.to_float s.Pc_obs.Trace.dur_ns;
      })
    (Pc_obs.Trace.spans ())

(* The solver and decomposition layers, per answered bound. [counter]
   reads a registry counter of the traced phase. *)
let core_metrics ~n_bounds ~cells ~degraded spans ~counter =
  let t = totals spans in
  let n = float_of_int (max 1 n_bounds) in
  let per x = x /. n and ms ns = ns /. 1e6 in
  let c name = float_of_int (counter name) in
  let warm = c "lp.warm_starts" in
  Common.
    [
      metric "sat.calls_per_bound" "count" (per (c "sat.calls"));
      metric "decompose.self_ms" "ms" (per (ms (t "decompose").self));
      metric "bound.self_ms" "ms" (per (ms (t "bound").self));
      metric "cells_per_bound" "count" (per (float_of_int cells));
      metric "bound.degraded" "ratio" (per (float_of_int degraded));
      metric "lp.solve_ms_per_bound" "ms" (per (ms (t "lp.solve").incl));
      metric "lp.pivots_per_bound" "count" (per (c "lp.pivots"));
      metric "lp.solves_per_bound" "count" (per (c "lp.solves"));
      metric "lp.refactorizations_per_bound" "count" (per (c "lp.refactorizations"));
      metric "lp.warm_fallback_ratio" "ratio"
        (if warm > 0. then c "lp.warm_fallbacks" /. warm else 0.);
      metric "milp.solve_ms_per_bound" "ms" (per (ms (t "milp.solve").incl));
      metric "milp.nodes_per_bound" "count" (per (c "milp.nodes"));
      metric "milp.solves_per_bound" "count" (per (c "milp.solves"));
    ]
