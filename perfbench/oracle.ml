(* The benchmark's own view of its inputs: rows as float columns,
   conjunctive range predicates, a truth evaluator, and an exact DSL
   printer. None of it goes through Pc_query or Pc_predicate evaluation,
   so a fault there cannot hide a wrong answer from the checks. *)

type endpoint = Inf | Incl of float | Excl of float

type range = { attr : string; lo : endpoint; hi : endpoint }
(* [lo] is a lower endpoint ([Inf] = -inf), [hi] an upper one ([Inf] = +inf) *)

type agg = Count | Sum of string | Avg of string | Min of string | Max of string

type query = { agg : agg; where_ : range list }

(* The rows: one float column per attribute, all of the same length. *)
type rows = { names : string array; cols : float array array }

let n_rows r = if Array.length r.cols = 0 then 0 else Array.length r.cols.(0)

let column r attr =
  let rec find i =
    if i = Array.length r.names then invalid_arg ("Oracle.column: " ^ attr)
    else if r.names.(i) = attr then r.cols.(i)
    else find (i + 1)
  in
  find 0

let of_relation rel =
  let names =
    Array.of_list (Pc_data.Schema.names (Pc_data.Relation.schema rel))
  in
  { names; cols = Array.map (Pc_data.Relation.column rel) names }

let concat a b = { a with cols = Array.map2 Array.append a.cols b.cols }

let above lo x =
  match lo with Inf -> true | Incl v -> x >= v | Excl v -> x > v

let below hi x =
  match hi with Inf -> true | Incl v -> x <= v | Excl v -> x < v

let in_range rg x = above rg.lo x && below rg.hi x

(* Indices of the rows satisfying every range. *)
let select r where_ =
  let checks = List.map (fun rg -> (rg, column r rg.attr)) where_ in
  let out = ref [] in
  for i = n_rows r - 1 downto 0 do
    if List.for_all (fun (rg, c) -> in_range rg c.(i)) checks then
      out := i :: !out
  done;
  !out

(* The exact answer; [None] when the aggregate is undefined (AVG, MIN or
   MAX over no row). *)
let truth r q =
  let sel = select r q.where_ in
  let values a = List.map (Array.get (column r a)) sel in
  match q.agg with
  | Count -> Some (float_of_int (List.length sel))
  | Sum a -> Some (List.fold_left ( +. ) 0. (values a))
  | Avg a -> (
      match values a with
      | [] -> None
      | vs -> Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)))
  | Min a -> (
      match values a with [] -> None | v :: vs -> Some (List.fold_left Float.min v vs))
  | Max a -> (
      match values a with [] -> None | v :: vs -> Some (List.fold_left Float.max v vs))

(* Does a returned range [lo, hi] contain [t]? Bounds come out of a
   simplex and, from the server, through 12-digit JSON numbers, so a
   relative slack of 1e-6 separates rounding from an unsound answer. *)
let contains ~lo ~hi t =
  let slack = 1e-6 *. Float.max 1. (Float.abs t) in
  lo -. slack <= t && t <= hi +. slack

(* ------------------------------------------------------------------ *)
(* Conversions from the library's types (reading fields, not evaluating) *)

let endpoint_of_lo = function
  | Pc_interval.Interval.Neg_inf -> Inf
  | Pc_interval.Interval.Closed v -> Incl v
  | Pc_interval.Interval.Open v -> Excl v
  | Pc_interval.Interval.Pos_inf -> invalid_arg "Oracle: +inf lower endpoint"

let endpoint_of_hi = function
  | Pc_interval.Interval.Pos_inf -> Inf
  | Pc_interval.Interval.Closed v -> Incl v
  | Pc_interval.Interval.Open v -> Excl v
  | Pc_interval.Interval.Neg_inf -> invalid_arg "Oracle: -inf upper endpoint"

let range_of_atom = function
  | Pc_predicate.Atom.Num_range (attr, iv) ->
      {
        attr;
        lo = endpoint_of_lo iv.Pc_interval.Interval.lo;
        hi = endpoint_of_hi iv.Pc_interval.Interval.hi;
      }
  | a -> invalid_arg ("Oracle: non-numeric atom " ^ Pc_predicate.Atom.to_string a)

let of_query (q : Pc_query.Query.t) =
  let agg =
    match q.Pc_query.Query.agg with
    | Pc_query.Query.Count -> Count
    | Pc_query.Query.Sum a -> Sum a
    | Pc_query.Query.Avg a -> Avg a
    | Pc_query.Query.Min a -> Min a
    | Pc_query.Query.Max a -> Max a
  in
  { agg; where_ = List.map range_of_atom q.Pc_query.Query.where_ }

(* ------------------------------------------------------------------ *)
(* Exact text. %.17g round-trips every double through float_of_string;
   open endpoints keep their strict comparison. *)

let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Oracle.num: non-finite"

let range_text rg =
  let lo =
    match rg.lo with
    | Inf -> []
    | Incl v -> [ Printf.sprintf "%s >= %s" rg.attr (num v) ]
    | Excl v -> [ Printf.sprintf "%s > %s" rg.attr (num v) ]
  and hi =
    match rg.hi with
    | Inf -> []
    | Incl v -> [ Printf.sprintf "%s <= %s" rg.attr (num v) ]
    | Excl v -> [ Printf.sprintf "%s < %s" rg.attr (num v) ]
  in
  lo @ hi

let conj_text sep where_ =
  match List.concat_map range_text where_ with
  | [] -> None
  | atoms -> Some (String.concat sep atoms)

let query_text q =
  let head =
    match q.agg with
    | Count -> "SELECT COUNT(*)"
    | Sum a -> Printf.sprintf "SELECT SUM(%s)" a
    | Avg a -> Printf.sprintf "SELECT AVG(%s)" a
    | Min a -> Printf.sprintf "SELECT MIN(%s)" a
    | Max a -> Printf.sprintf "SELECT MAX(%s)" a
  in
  match conj_text " AND " q.where_ with
  | None -> head
  | Some w -> head ^ " WHERE " ^ w

(* One constraint: a predicate, closed value ranges, a count range. *)
type constr = {
  name : string;
  pred : range list;
  values : (string * float * float) list;
  kl : int;
  ku : int;
}

let of_pc (pc : Pc_core.Pc.t) =
  let values =
    List.map
      (fun (a, iv) ->
        match
          (iv.Pc_interval.Interval.lo, iv.Pc_interval.Interval.hi)
        with
        | Pc_interval.Interval.Closed lo, Pc_interval.Interval.Closed hi ->
            (a, lo, hi)
        | _ -> invalid_arg ("Oracle.of_pc: non-closed value range on " ^ a))
      pc.Pc_core.Pc.values
  in
  {
    name = pc.Pc_core.Pc.name;
    pred = List.map range_of_atom pc.Pc_core.Pc.pred;
    values;
    kl = pc.Pc_core.Pc.freq_lo;
    ku = pc.Pc_core.Pc.freq_hi;
  }

let constr_text c =
  let pred = Option.value (conj_text " and " c.pred) ~default:"true" in
  let values =
    match c.values with
    | [] -> "none"
    | vs ->
        String.concat " and "
          (List.map
             (fun (a, lo, hi) -> Printf.sprintf "%s in [%s, %s]" a (num lo) (num hi))
             vs)
  in
  Printf.sprintf "constraint %s: %s => %s, count [%d, %d];" c.name pred values
    c.kl c.ku

let constraints_text cs = String.concat "\n" (List.map constr_text cs) ^ "\n"

(* Why a constraint does not hold on [r], if it does not. *)
let violation r c =
  let sel = select r c.pred in
  let n = List.length sel in
  if n < c.kl || n > c.ku then
    Some (Printf.sprintf "%s: %d matching rows outside count [%d, %d]" c.name n c.kl c.ku)
  else
    List.find_map
      (fun (a, lo, hi) ->
        let col = column r a in
        List.find_map
          (fun i ->
            let v = col.(i) in
            if v < lo || v > hi then
              Some (Printf.sprintf "%s: %s = %s outside [%s, %s]" c.name a (num v) (num lo) (num hi))
            else None)
          sel)
      c.values

(* CSV with exact numbers, header first. *)
let csv r idx =
  let b = Buffer.create (64 * (Array.length idx + 1)) in
  Buffer.add_string b (String.concat "," (Array.to_list r.names));
  Buffer.add_char b '\n';
  Array.iter
    (fun i ->
      Array.iteri
        (fun j c ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (num c.(i)))
        r.cols;
      Buffer.add_char b '\n')
    idx;
  Buffer.contents b
