(* serve_stream: a [pcda serve] child with the default configuration
   (FDD, reply cache on) holding several datasets, and a closed loop of
   [nproc] connections with no think time. Bound requests are drawn Zipf
   from a universe larger than each dataset's reply cache; connection 0
   also writes, appending batches of a dataset's hidden rows and
   retracting its oldest live batch, so the true answer of every query
   (over the dataset's observed and hidden rows) never changes. *)

open Common
module J = Pc_obs.Json
module Rng = Pc_util.Rng

let n_datasets = 4
let dataset_rows = 4000 (* half observed, half hidden *)
let corr_pcs = 150
let batch_rows = 20
let live_batches = 15 (* per dataset, once warmed up *)
let write_every = 8 (* connection 0 writes once per this many requests *)
let zipf_s = 1.0
let warmup_s = 2.

(* ------------------------------------------------------------------ *)
(* Child processes. Every spawned server is remembered until it has
   been waited for, so an error path still stops it. *)

let children = ref []

let reap pid =
  let status = try Some (snd (Unix.waitpid [] pid)) with Unix.Unix_error _ -> None in
  children := List.filter (( <> ) pid) !children;
  status

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !children

type server = { pid : int; port : int; out : Unix.file_descr }

let read_banner fd =
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let deadline = now () +. 60. in
  let rec go () =
    if now () > deadline then bench_error "pcda serve printed no banner";
    match Unix.select [ fd ] [] [] 1. with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd b 0 1 with
        | 0 -> bench_error "pcda serve exited before its banner"
        | _ when Bytes.get b 0 = '\n' -> Buffer.contents buf
        | _ ->
            Buffer.add_char buf (Bytes.get b 0);
            go ())
  in
  go ()

let spawn ~pcda ~dir ~traced =
  let args =
    [ pcda; "serve"; "--port"; "0" ]
    @
    if traced then
      [ "--trace"; Filename.concat dir "trace.json"; "--metrics"; Filename.concat dir "metrics.json" ]
    else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile (Filename.concat dir "serve.err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process pcda (Array.of_list args) Unix.stdin wr err in
  children := pid :: !children;
  Unix.close wr;
  Unix.close err;
  let banner = read_banner rd in
  match Scanf.sscanf_opt banner "listening on %s@:%d" (fun _ p -> p) with
  | Some port -> { pid; port; out = rd }
  | None -> bench_error "unexpected banner %S" banner

(* ------------------------------------------------------------------ *)
(* Connections: newline-delimited JSON. *)

type conn = { mutable fd : Unix.file_descr; rbuf : Buffer.t }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send c line =
  let s = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is there; [`Eof] when the server closed the connection. *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
      Buffer.add_subbytes c.rbuf chunk 0 n;
      `Data
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof

let take_line c =
  let s = Buffer.contents c.rbuf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.rbuf;
      Buffer.add_string c.rbuf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

(* One request and its reply, blocking. *)
let call c line =
  send c line;
  let rec wait () =
    match take_line c with
    | Some l -> l
    | None -> (
        match fill c with `Eof -> bench_error "connection closed during %s" line | `Data -> wait ())
  in
  match J.parse (wait ()) with Ok v -> v | Error e -> bench_error "bad reply: %s" e

let field v name = J.member name v
let num v name = Option.bind (field v name) J.to_num
let str v name = Option.bind (field v name) J.to_str
let bool v name = Option.bind (field v name) J.to_bool
let is_ok v = bool v "ok" = Some true

let shutdown srv c =
  (try ignore (call c {|{"op":"shutdown"}|}) with Bench_error _ | Unix.Unix_error _ -> ());
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  let status = reap srv.pid in
  Unix.close srv.out;
  if status <> Some (Unix.WEXITED 0) then
    bench_error "pcda serve did not drain cleanly (see serve.err)"

(* ------------------------------------------------------------------ *)
(* Inputs *)

type dataset = {
  name : string;
  constraints : string;  (** a Corr-PC partition of the hidden rows *)
  csv : string;  (** observed rows: the certain partition *)
  hidden : O.rows;
  pcs : Pc_core.Pc.t list;
}

type inputs = {
  datasets : dataset array;
  queries : (int * Offline.query) array;  (** dataset, query; truth over all its rows *)
  universe : int array array;  (** per connection role: indices into [queries] *)
}

let inputs ~seed =
  let master = Rng.create (seed + 3) in
  let attrs = [ "device"; "time" ] in
  let per_ds =
    Array.init n_datasets (fun k ->
        let rng = Rng.split master in
        let sp = sensor_split ~seed:(Rng.int rng 1_000_000_000) ~rows:dataset_rows in
        let pcs = Pc_core.Generate.corr_partition sp.hidden ~attrs ~n:corr_pcs () in
        let all = queries rng sp.hidden ~attrs ~aggs:`All ~per_agg:50 in
        let cs = queries rng sp.hidden ~attrs ~aggs:`Count_sum ~per_agg:500 in
        let mk = Offline.make_queries ~rows:sp.all_rows in
        let observed = O.of_relation sp.observed in
        ( {
            name = Printf.sprintf "d%d" k;
            constraints = constraint_text pcs;
            csv = O.csv observed (Array.init (O.n_rows observed) Fun.id);
            hidden = sp.hidden_rows;
            pcs;
          },
          [| mk all; mk cs |] ))
  in
  (* rank r of a role's universe is query r / n of dataset r mod n, so
     the hot queries spread over every dataset *)
  let queries = ref [] and n = ref 0 in
  let universe =
    Array.init 2 (fun role ->
        let len = Array.length (snd per_ds.(0)).(role) in
        Array.init (len * n_datasets) (fun r ->
            queries := (r mod n_datasets, (snd per_ds.(r mod n_datasets)).(role).(r / n_datasets)) :: !queries;
            incr n;
            !n - 1))
  in
  { datasets = Array.map fst per_ds; queries = Array.of_list (List.rev !queries); universe }

let load_request ds =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "load");
         ("name", J.Str ds.name);
         ("constraints", J.Str ds.constraints);
         ("csv", J.Str ds.csv);
       ])

(* Spawn to the last [load] reply: the program's set-up as a client
   sees it. *)
let start ~pcda ~dir ~traced inp =
  let t0 = now () in
  let srv = spawn ~pcda ~dir ~traced in
  let c = { fd = connect srv.port; rbuf = Buffer.create 4096 } in
  Array.iter
    (fun ds ->
      let r = call c (load_request ds) in
      if not (is_ok r) then bench_error "load failed: %s" (J.to_string r))
    inp.datasets;
  (srv, c, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type req = Bound of int | Append of int * int array | Retract of int * int * int array
(* [Append (dataset, rows)], [Retract (dataset, batch id, rows)] *)

type writer = {
  pool : int Queue.t;  (** hidden row indices not appended *)
  live : (int * int array) Queue.t;  (** (batch id, rows), oldest first *)
  mutable version : int;
}

type slot = {
  conn : conn;
  role : int;  (** 0 reads and writes, 1 reads COUNT/SUM only *)
  mutable pending : (req * float) option;
  mutable sent : int;
}

type sample = {
  mutable bounds : (float * float) list;  (** (completion time, latency in s) *)
  mutable appends : float list;
  mutable retracts : float list;
  mutable all_ops : float list;
  mutable over : float list;
  mutable cells : int;
  mutable degraded : int;
  mutable evicted : int;
  mutable writes : int;
}

let sample () =
  { bounds = []; appends = []; retracts = []; all_ops = []; over = []; cells = 0; degraded = 0; evicted = 0; writes = 0 }

type loop = {
  inp : inputs;
  port : int;
  slots : slot array;
  w : writer array;  (** per dataset *)
  mutable writes_sent : int;
  rng : Rng.t;
  zipf : float array array;
  acc : account;
}

let next_req lp s =
  s.sent <- s.sent + 1;
  if s.role = 0 && s.sent mod write_every = 0 then begin
    let d = lp.writes_sent mod n_datasets in
    lp.writes_sent <- lp.writes_sent + 1;
    let w = lp.w.(d) in
    if Queue.length w.live > live_batches || Queue.length w.pool < batch_rows then begin
      match Queue.take_opt w.live with
      | Some (id, rows) -> Retract (d, id, rows)
      | None -> bench_error "nothing to retract"
    end
    else Append (d, Array.init batch_rows (fun _ -> Queue.take w.pool))
  end
  else
    let u = lp.inp.universe.(s.role) in
    Bound u.(Rng.zipf_sample lp.rng lp.zipf.(s.role) - 1)

let request_line lp r =
  let ds d = ("dataset", J.Str lp.inp.datasets.(d).name) in
  J.to_string
    (J.Obj
       (match r with
       | Bound i ->
           let d, q = lp.inp.queries.(i) in
           [ ("op", J.Str "bound"); ds d; ("query", J.Str q.Offline.text) ]
       | Append (d, rows) -> [ ("op", J.Str "append"); ds d; ("csv", J.Str (O.csv lp.inp.datasets.(d).hidden rows)) ]
       | Retract (d, id, _) -> [ ("op", J.Str "retract"); ds d; ("batch", J.Num (float_of_int id)) ]))

let send_next lp s =
  let r = next_req lp s in
  let line = request_line lp r in
  s.pending <- Some (r, now ());
  send s.conn line

let op_name = function Bound _ -> "bound" | Append _ -> "append" | Retract _ -> "retract"

(* A request whose connection dropped: counted failed; the rows of a
   lost write are left out of the stream's cycle, since whether it
   applied is unknown. *)
let lost lp s =
  Option.iter
    (fun (r, _) ->
      attempt lp.acc (op_name r) ~ok:false;
      Printf.printf "FAILED %s: connection closed\n" (op_name r))
    s.pending;
  s.pending <- None;
  (try Unix.close s.conn.fd with Unix.Unix_error _ -> ());
  Buffer.clear s.conn.rbuf;
  s.conn.fd <- connect lp.port

let on_reply lp smp s line =
  let r, t0 = Option.get s.pending in
  let dt = now () -. t0 in
  s.pending <- None;
  let v = match J.parse line with Ok v -> v | Error e -> bench_error "bad reply: %s" e in
  let ok = is_ok v in
  attempt lp.acc (op_name r) ~ok;
  if not ok then Printf.printf "FAILED %s: %s\n" (op_name r) line;
  smp.all_ops <- dt :: smp.all_ops;
  match r with
  | Bound i when ok ->
      let _, q = lp.inp.queries.(i) in
      smp.bounds <- (now (), dt) :: smp.bounds;
      let ans = Option.value (field v "answer") ~default:J.Null in
      let a =
        match str ans "kind" with
        | Some "range" -> `Range (Option.get (num ans "lo"), Option.get (num ans "hi"))
        | Some "empty" -> `Empty
        | _ -> `Infeasible
      in
      check_answer lp.acc ~what:q.Offline.text ~truth:q.Offline.truth a;
      (match a with
      | `Range (_, hi) -> Option.iter (fun x -> smp.over <- x :: smp.over) (overestimate ~hi q.Offline.truth)
      | _ -> ());
      if bool v "degraded" <> Some false || str v "admission" <> Some "full" then begin
        smp.degraded <- smp.degraded + 1;
        wrong lp.acc ("degraded or crushed reply: " ^ line)
      end;
      Option.iter
        (fun st -> smp.cells <- smp.cells + int_of_float (Option.value (num st "cells") ~default:0.))
        (field v "stats")
  | (Append (d, _) | Retract (d, _, _)) when ok ->
      let w = lp.w.(d) in
      let version = int_of_float (Option.get (num v "version")) in
      if version <= w.version then
        wrong lp.acc (Printf.sprintf "dataset %d: version %d after %d" d version w.version);
      w.version <- version;
      smp.writes <- smp.writes + 1;
      smp.evicted <- smp.evicted + int_of_float (Option.value (num v "cache_evicted") ~default:0.);
      (match r with
      | Append (_, rows) ->
          smp.appends <- dt :: smp.appends;
          Queue.add (int_of_float (Option.get (num v "batch_id")), rows) w.live
      | Retract (_, _, rows) ->
          smp.retracts <- dt :: smp.retracts;
          Array.iter (fun i -> Queue.add i w.pool) rows
      | Bound _ -> ())
  | _ -> ()

(* Run the closed loop for [seconds]: every connection keeps one request
   in flight; after the deadline the outstanding replies are awaited. *)
let drive lp ~seconds =
  let smp = sample () in
  let t_start = now () in
  let running () = now () -. t_start < seconds in
  Array.iter (fun s -> send_next lp s) lp.slots;
  let last_progress = ref (now ()) in
  while Array.exists (fun s -> s.pending <> None) lp.slots do
    let fds =
      Array.to_list lp.slots |> List.filter (fun s -> s.pending <> None) |> List.map (fun s -> s.conn.fd)
    in
    let ready, _, _ = Unix.select fds [] [] 1. in
    if ready = [] && now () -. !last_progress > 60. then bench_error "server stopped answering";
    List.iter
      (fun fd ->
        let s = List.find (fun s -> s.conn.fd == fd) (Array.to_list lp.slots) in
        match fill s.conn with
        | `Eof ->
            lost lp s;
            if running () then send_next lp s
        | `Data ->
            let rec drain () =
              match take_line s.conn with
              | Some line ->
                  last_progress := now ();
                  on_reply lp smp s line;
                  if running () then send_next lp s;
                  drain ()
              | None -> ()
            in
            drain ())
      ready
  done;
  let wall = now () -. t_start in
  (* one-second windows of bound replies; the partial last one is dropped *)
  let windows =
    List.init (int_of_float wall) (fun k ->
        let lo = t_start +. float_of_int k in
        { dur = 1.; lats = List.filter_map (fun (t, dt) -> if t >= lo && t < lo +. 1. then Some dt else None) smp.bounds })
  in
  (smp, windows)

let new_loop ~seed inp ~port ~first acc =
  let rng = Rng.create (seed + 4) in
  let writer ds =
    let idx = Array.init (O.n_rows ds.hidden) Fun.id in
    Rng.shuffle rng idx;
    let pool = Queue.create () in
    Array.iter (fun i -> Queue.add i pool) idx;
    { pool; live = Queue.create (); version = 0 }
  in
  let n = Pc_par.Pool.available_cores () in
  {
    inp;
    port;
    slots =
      Array.init n (fun k ->
          {
            conn = (if k = 0 then first else { fd = connect port; rbuf = Buffer.create 4096 });
            role = (if k = 0 then 0 else 1);
            pending = None;
            sent = 0;
          });
    w = Array.map writer inp.datasets;
    writes_sent = 0;
    rng;
    zipf = Array.map (fun u -> Rng.zipf_table ~n:(Array.length u) ~s:zipf_s) inp.universe;
    acc;
  }

let close_loop lp srv =
  Array.iteri (fun k s -> if k > 0 then try Unix.close s.conn.fd with Unix.Unix_error _ -> ()) lp.slots;
  shutdown srv lp.slots.(0).conn

(* One server, warmed up (live window filled, cache populated), then
   timed for [seconds]. *)
let session ~pcda ~dir ~seed ~traced ~seconds inp acc =
  let srv, c, _ = start ~pcda ~dir ~traced inp in
  let lp = new_loop ~seed inp ~port:srv.port ~first:c acc in
  ignore (drive lp ~seconds:warmup_s);
  let before = if traced then Some (call c {|{"op":"stats"}|}) else None in
  let smp, windows = drive lp ~seconds in
  let after = if traced then Some (call c {|{"op":"stats"}|}) else None in
  let rss = peak_rss_mb (string_of_int srv.pid) in
  close_loop lp srv;
  (smp, windows, rss, before, after)

let ms xs q = 1e3 *. quantile xs q

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path =
  match J.parse (read_file path) with Ok v -> v | Error e -> bench_error "%s: %s" path e

let run acc ~pcda ~dir ~seed ~seconds ~trace =
  let inp = inputs ~seed in
  Array.iter (fun ds -> check_constraints ~rows:ds.hidden ds.pcs) inp.datasets;
  let setup_s =
    median
      (List.init 5 (fun _ ->
           let srv, c, dt = start ~pcda ~dir ~traced:false inp in
           shutdown srv c;
           dt))
  in
  if not trace then begin
    let smp, windows, rss, _, _ = session ~pcda ~dir ~seed ~traced:false ~seconds inp acc in
    end_to_end ~setup_s ~rss ~over:smp.over ~p50:(over_windows (fun w -> quantile w.lats 0.5) windows)
  end
  else begin
    let half = seconds /. 2. in
    let u, u_windows, _, _, _ = session ~pcda ~dir ~seed ~traced:false ~seconds:half inp acc in
    let t, t_windows, _, before, after = session ~pcda ~dir ~seed ~traced:true ~seconds:half inp acc in
    let rate = over_windows window_rate in
    let m = parse_file (Filename.concat dir "metrics.json") in
    let counter name =
      Option.bind (field m "counters") (fun cs -> Option.bind (field cs name) J.to_num)
      |> Option.fold ~none:0 ~some:int_of_float
    in
    let hist_mean name =
      Option.bind (field m "histograms") (fun hs -> Option.bind (field hs name) (fun h -> num h "mean_ns"))
      |> Option.value ~default:0.
    in
    let spans =
      match parse_file (Filename.concat dir "trace.json") with
      | J.Arr evs ->
          List.filter_map
            (fun e ->
              match (str e "name", num e "ts", num e "dur", num e "tid") with
              | Some name, Some ts, Some dur, Some tid ->
                  Some { Layers.name; tid = int_of_float tid; t0 = ts *. 1e3; dur = dur *. 1e3 }
              | _ -> None)
            evs
      | _ -> bench_error "trace.json is not an array"
    in
    let cache_delta key =
      let get v = Option.bind (field v "cache") (fun c -> num c key) |> Option.value ~default:0. in
      get (Option.get after) -. get (Option.get before)
    in
    let hits = cache_delta "hits" and misses = cache_delta "misses" in
    let server_mean_ms = hist_mean "server.request_ns" /. 1e6 in
    Layers.core_metrics ~n_bounds:(List.length t.bounds) ~cells:t.cells ~degraded:t.degraded spans ~counter
    @ [
        metric "incr.engines" "count" (float_of_int (counter "incr.engines"));
        metric "incr.rebounds_warm" "count" (float_of_int (counter "incr.rebounds_warm"));
        metric "incr.rebounds_cold" "count" (float_of_int (counter "incr.rebounds_cold"));
        metric "ingest.mean_ms" "ms" (hist_mean "ingest.ns" /. 1e6);
        metric "cache.hit_ratio" "ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        metric "cache.evicted_per_batch" "count" (float_of_int t.evicted /. float_of_int (max 1 t.writes));
        metric "cache.stale_stores" "count" (float_of_int (counter "cache.stale_stores"));
        metric "server.request_mean_ms" "ms" server_mean_ms;
        metric "net.client_gap_us" "us" (1e3 *. ((1e3 *. mean t.all_ops) -. server_mean_ms));
        metric "trace.overhead" "ratio" (rate t_windows /. rate u_windows);
        metric "bounds_per_s" "1/s" (rate u_windows);
        metric "bound_p90_ms" "ms" (over_windows (window_ms 0.9) u_windows);
        metric "bound_p99_ms" "ms" (if List.length u.bounds >= 1000 then ms (List.map snd u.bounds) 0.99 else 0.);
        metric "append_p50_ms" "ms" (ms u.appends 0.5);
        metric "retract_p50_ms" "ms" (ms u.retracts 0.5);
      ]
    @ Offline.setup_layers
        (Array.mapi
           (fun d ds ->
             ( ds.constraints,
               Array.of_list (List.filter_map (fun (d', q) -> if d = d' then Some q else None) (Array.to_list inp.queries)) ))
           inp.datasets)
  end
