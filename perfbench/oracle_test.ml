(* The truth oracle against answers computed by hand, and the exact
   text printer against the parser's own reading of a number. *)

module O = Oracle

let rows =
  {
    O.names = [| "t"; "v" |];
    cols = [| [| 1.; 2.; 3.; 4.; 5. |]; [| 10.; -2.5; 7.; 0.1; 3. |] |];
  }

let r ?(lo = O.Inf) ?(hi = O.Inf) attr = { O.attr; lo; hi }
let q agg where_ = { O.agg; where_ }

let check name got want =
  if got <> want then begin
    Printf.printf "FAIL %s\n" name;
    exit 1
  end

let () =
  (* t in [2, 4]: rows 2, 3, 4 with v = -2.5, 7, 0.1 *)
  let w = [ r "t" ~lo:(O.Incl 2.) ~hi:(O.Incl 4.) ] in
  check "count" (O.truth rows (q O.Count w)) (Some 3.);
  check "sum" (O.truth rows (q (O.Sum "v") w)) (Some 4.6);
  check "min" (O.truth rows (q (O.Min "v") w)) (Some (-2.5));
  check "max" (O.truth rows (q (O.Max "v") w)) (Some 7.);
  check "avg" (O.truth rows (q (O.Avg "v") w)) (Some (4.6 /. 3.));
  (* open endpoints: 2 < t < 4 keeps row 3 only *)
  let open_w = [ r "t" ~lo:(O.Excl 2.) ~hi:(O.Excl 4.) ] in
  check "open count" (O.truth rows (q O.Count open_w)) (Some 1.);
  check "open sum" (O.truth rows (q (O.Sum "v") open_w)) (Some 7.);
  (* t >= 6: nothing; COUNT/SUM are 0, AVG/MIN/MAX undefined *)
  let none = [ r "t" ~lo:(O.Incl 6.) ] in
  check "empty count" (O.truth rows (q O.Count none)) (Some 0.);
  check "empty sum" (O.truth rows (q (O.Sum "v") none)) (Some 0.);
  check "empty avg" (O.truth rows (q (O.Avg "v") none)) None;
  check "empty max" (O.truth rows (q (O.Max "v") none)) None;
  (* two attributes: t <= 3 and v > 0 keeps rows 1 and 3 *)
  let both = [ r "t" ~hi:(O.Incl 3.); r "v" ~lo:(O.Excl 0.) ] in
  check "conj count" (O.truth rows (q O.Count both)) (Some 2.);
  check "conj sum" (O.truth rows (q (O.Sum "v") both)) (Some 17.);
  check "no predicate" (O.truth rows (q O.Count [])) (Some 5.);
  (* a constraint that holds, and one whose count and value range fail *)
  let c = { O.name = "c"; pred = w; values = [ ("v", -2.5, 7.) ]; kl = 3; ku = 3 } in
  check "holds" (O.violation rows c) None;
  check "count fails" (Option.is_some (O.violation rows { c with ku = 2 })) true;
  check "value fails" (Option.is_some (O.violation rows { c with values = [ ("v", -2., 7.) ] })) true;
  (* text: exact numbers, strict endpoints kept *)
  let x = 0.1 +. 0.2 in
  check "num round-trips" (float_of_string (O.num x)) x;
  check "query text"
    (O.query_text (q (O.Sum "v") [ r "t" ~lo:(O.Incl 1.5) ~hi:(O.Excl 2.) ]))
    "SELECT SUM(v) WHERE t >= 1.5 AND t < 2";
  check "constraint text" (O.constr_text c)
    "constraint c: t >= 2 and t <= 4 => v in [-2.5, 7], count [3, 3];";
  check "contains" (O.contains ~lo:1. ~hi:2. 2.0000000001) true;
  check "misses" (O.contains ~lo:1. ~hi:2. 2.01) false;
  print_endline "oracle: ok"
