(* Time-to-verdict benchmark executable: runs one seeded workload through the
   library entry points that verify_pll, atlas_pll and verifyd use, checks
   every verdict against properties the method must have, and prints one
   JSON object of raw measurements on its last stdout line. perfbench/run.py
   builds this executable, turns the raw samples into the BENCHMARK.json
   metrics and adds the peak resident set of the process tree.

     perfbench.exe --workload W --seed N --seconds S [--trace] [--short] --work DIR
                   [--t0 T] [--setup-only]
     perfbench.exe --sampler P

   Every number is taken from outside the program: wall and CPU clocks
   around public calls (CPU includes reaped children via Unix.times), the
   process-wide Sdp solve/iteration counters, and — for work done in
   forked workers, which those counters cannot see — the solve cache of
   the run directory. *)

let workloads = [ "pll3-full"; "pll4-p1"; "atlas-daemon" ]

(* ------------------------------------------------------------------ *)
(* Clocks, samples, checks *)

let now = Unix.gettimeofday

type snap = { wall : float; cpu : float; child_cpu : float; solves : int; iters : int }

let snapshot () =
  let t = Unix.times () in
  let child = t.Unix.tms_cutime +. t.Unix.tms_cstime in
  {
    wall = now ();
    cpu = t.Unix.tms_utime +. t.Unix.tms_stime +. child;
    child_cpu = child;
    solves = Sdp.solve_count ();
    iters = Sdp.iteration_count ();
  }

(* One timed operation as the end-to-end metrics see it. [verdicts] is
   the number of verdicts it reached (1 per verification, one per
   certified cell of a sweep). *)
type op = {
  o_start : float;  (* wall clock at the start, to line the op up with speed samples *)
  o_wall : float;
  o_cpu : float;
  o_solves : int;
  o_iters : int;
  o_verdicts : int;
}

let problems = ref []
let failed = ref 0
let attempted = ref 0

(* A one-line description of the generated inputs, for the log. *)
let inputs = ref ""

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then problems := msg :: !problems) fmt

let layers : (string * float) list ref = ref []
let layer name v = layers := (name, v) :: List.remove_assoc name !layers
let layeri name v = layer name (float_of_int v)

(* Set-up time counts from the moment the process was spawned ([--t0],
   taken by the caller just before the spawn), so runtime start-up and
   library initialisation are charged to it too. With [--setup-only]
   the executable stops right after set-up. *)
let t_spawn = ref (now ())
let setup_only = ref false

exception Setup_done of float

let setup_done ?(cleanup = ignore) () =
  let s = now () -. !t_spawn in
  if !setup_only then begin
    cleanup ();
    raise (Setup_done s)
  end;
  s

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Time [f] [reps] times and return its result with the median wall. *)
let time_median ~reps f =
  let r = ref None and ts = ref [] in
  for _ = 1 to reps do
    let t0 = now () in
    r := Some (f ());
    ts := (now () -. t0) :: !ts
  done;
  (Option.get !r, median !ts)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

let rng_for seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* A relative factor in [lo, hi], rounded to 1e-3 so inputs read back
   exactly in logs and specs. *)
let factor rng lo hi = Float.round ((lo +. Random.State.float rng (hi -. lo)) *. 1000.0) /. 1000.0

let point_model order point =
  let base = match order with Pll.Third -> Pll.table1_third | Pll.Fourth -> Pll.table1_fourth in
  match
    List.fold_left
      (fun acc (ax, v) -> Result.bind acc (fun raw -> Pll.set_axis_relative raw ax ~lo:v ~hi:v))
      (Ok base) point
  with
  | Ok raw -> Pll.scale raw
  | Error e -> failwith ("bad point: " ^ e)

(* ------------------------------------------------------------------ *)
(* Output checks that do not trust the SDP *)

(* β by plain polynomial evaluation on seeded samples: a state of mode
   slab q with V_q <= β must lie inside the certified domain box, and
   V_q must strictly decrease there along the mode's flow. *)
let sampling_check ~rng ~samples (s : Pll.scaled) (vs : Poly.t array) beta =
  let n = s.Pll.nvars and th = Pll.theta_index s in
  let pt = Pll.nominal s in
  let vdot = Array.init Pll.n_modes (fun q -> Poly.lie_derivative vs.(q) (Pll.flow s pt q)) in
  let slab = Array.init Pll.n_modes (fun q -> List.hd (Pll.mode_domain s q)) in
  let hits = ref 0 and outside = ref 0 and increasing = ref 0 in
  for _ = 1 to samples do
    let x =
      Array.init n (fun i ->
          let b = if i = th then s.Pll.theta_max else 1.3 *. s.Pll.w_max in
          (Random.State.float rng 2.0 -. 1.0) *. b)
    in
    let norm = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x) in
    for q = 0 to Pll.n_modes - 1 do
      if Poly.eval slab.(q) x >= 0.0 && Poly.eval vs.(q) x <= beta then begin
        incr hits;
        if List.exists (fun g -> Poly.eval g x < 0.0) (Pll.containment_constraints s q) then
          incr outside
        else if norm > 1e-2 && Poly.eval vdot.(q) x >= 0.0 then incr increasing
      end
    done
  done;
  check (!hits >= 50) "sampling check: only %d of %d samples fell in the invariant" !hits samples;
  check (!outside = 0) "sampling check: %d states with V_q <= beta lie outside the domain box"
    !outside;
  check (!increasing = 0) "sampling check: V_q does not decrease at %d sampled states" !increasing

let exact_check what (ev : (Certificates.exact_validation, string) result) =
  match ev with
  | Error e ->
      check false "%s: exact re-proof failed: %s" what e;
      0
  | Ok ev ->
      List.iter
        (fun (name, v) ->
          match v with
          | Exact.Check.Proven _ -> ()
          | _ -> check false "%s: exact kernel could not prove %s" what name)
        ev.Certificates.verdicts;
      check ev.Certificates.all_proven "%s: not every Theorem-1 condition proven" what;
      List.length ev.Certificates.verdicts

(* ------------------------------------------------------------------ *)
(* Probe programs (traced runs): a Lemma-1 level check and an inclusion
   check rebuilt with the public Sos API from the workload's certificate,
   plus the dense kernels at the probes' sizes. *)

let spd rng n =
  let b = Linalg.Mat.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
  Linalg.Mat.add (Linalg.Mat.mul b (Linalg.Mat.transpose b))
    (Linalg.Mat.scale (float_of_int n) (Linalg.Mat.identity n))

let probes ~seed (s : Pll.scaled) (ai : Certificates.attractive_invariant) =
  let n = s.Pll.nvars in
  let v0 = ai.Certificates.cert.Certificates.vs.(0) in
  let beta = ai.Certificates.beta in
  let build_level () =
    let prob = Sos.create ~nvars:n in
    let g = List.hd (Pll.containment_constraints s 0) in
    Sos.add_nonneg_on ~mult_deg:2 prob
      ~domain:(Poly.sub (Poly.const n beta) v0 :: Pll.mode_domain s 0)
      (Sos.Ppoly.of_poly (Poly.sub g (Poly.const n 1e-3)));
    Sos.sdp_problem prob
  in
  (* The inclusion probe's ellipsoid: the default X2 shrunk until V_0
     stays below β/2 on seeded points of its boundary, so the program is
     feasible. *)
  let radii =
    let rng = rng_for seed "probe-front" in
    let dirs =
      List.init 200 (fun _ ->
          let d = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
          let l = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 d) in
          Array.map (fun v -> v /. l) d)
    in
    let base = Pll_core.Inevitability.default_init_radii s in
    let fits c =
      List.for_all
        (fun d -> Poly.eval v0 (Array.mapi (fun i r -> c *. r *. d.(i)) base) <= 0.5 *. beta)
        dirs
    in
    let c = Option.value ~default:0.01 (List.find_opt fits [ 0.3; 0.2; 0.1; 0.05; 0.02 ]) in
    Array.map (fun r -> c *. r) base
  in
  let build_inclusion () =
    let front = Advect.ellipsoid_front s ~radii in
    let prob = Sos.create ~nvars:n in
    Sos.add_nonneg_on ~mult_deg:2 prob
      ~domain:(Poly.neg front :: Pll.mode_domain s 0)
      (Sos.Ppoly.of_poly (Poly.sub (Poly.const n beta) v0));
    Sos.sdp_problem prob
  in
  let build_s = ref 0.0 and fp_s = ref 0.0 and solve_s = ref 0.0 in
  let iters = ref 0 and schur = ref 0 and gram = ref 0 in
  List.iter
    (fun (what, build) ->
      let p, tb = time_median ~reps:5 build in
      let _, tf = time_median ~reps:5 (fun () -> Sdp.fingerprint p) in
      let sol, ts = time_median ~reps:3 (fun () -> Sdp.solve p) in
      build_s := !build_s +. tb;
      fp_s := !fp_s +. tf;
      solve_s := !solve_s +. ts;
      iters := !iters + sol.Sdp.iterations;
      schur := max !schur (Array.length p.Sdp.constraints);
      gram := Array.fold_left max !gram p.Sdp.block_dims;
      (* KKT properties of the probe solution. *)
      check
        (sol.Sdp.status = Sdp.Optimal || sol.Sdp.status = Sdp.Near_optimal)
        "%s probe: solver did not converge" what;
      let scale =
        Array.fold_left (fun a c -> Float.max a (Float.abs c.Sdp.rhs)) 1.0 p.Sdp.constraints
      in
      let margin = Sdp.feasibility_margin p sol in
      check (margin <= 1e-5 *. scale) "%s probe: feasibility margin %g above tolerance" what
        margin;
      Array.iter
        (fun x ->
          let e = Linalg.Mat.min_eig x in
          check (e >= -1e-7) "%s probe: primal Gram block has eigenvalue %g" what e)
        sol.Sdp.x_blocks)
    [ ("level", build_level); ("inclusion", build_inclusion) ];
  layer "sos.build_ms" (1e3 *. !build_s);
  layer "sos.fingerprint_ms" (1e3 *. !fp_s);
  layer "sdp.solve_ms" (1e3 *. !solve_s);
  layer "sdp.iter_ms" (1e3 *. !solve_s /. float_of_int (max 1 !iters));
  layeri "sdp.schur_m" !schur;
  layeri "sdp.gram_max" !gram;
  let rng = rng_for seed "kernels" in
  let a = spd rng !schur and g = spd rng !gram in
  let _, tc = time_median ~reps:21 (fun () -> Linalg.Mat.cholesky a) in
  let _, te = time_median ~reps:21 (fun () -> Linalg.Mat.min_eig g) in
  layer "linalg.cholesky_us" (1e6 *. tc);
  layer "linalg.min_eig_us" (1e6 *. te)

(* ------------------------------------------------------------------ *)
(* Traced pipeline: the steps Inevitability.verify runs, called one by
   one with wall time and solve/iteration deltas around each. *)

let step name f =
  let a = snapshot () in
  let r = f () in
  let b = snapshot () in
  layer (name ^ "_s") (b.wall -. a.wall);
  (r, b.solves - a.solves, b.iters - a.iters)

let traced_p1 ~pol ~bisect_steps s =
  let cfg =
    { (Certificates.default_config s.Pll.order) with Certificates.degree = 4; resilience = pol }
  in
  let cert, solves, _ =
    step "certificates.p1_search" (fun () -> Certificates.find_multi_lyapunov ~config:cfg s)
  in
  layeri "certificates.p1_search_solves" solves;
  let cert = match cert with Ok c -> c | Error e -> failwith ("P1 search failed: " ^ e) in
  let (beta, level_stats), lsolves, liters =
    step "certificates.level" (fun () -> Certificates.maximize_level ?bisect_steps s cert)
  in
  layeri "certificates.level_solves" lsolves;
  layeri "certificates.level_iters" liters;
  { Certificates.cert; beta; level_stats }

let traced_advect ~pol ~radii ~max_iter s ai =
  let adv = { Advect.default_config with Advect.resilience = pol } in
  let r, solves, _ =
    step "advect.run" (fun () ->
        let init = Advect.ellipsoid_front s ~radii in
        Advect.run ~config:adv ~max_iter s ai ~init)
  in
  layer "advect.transport_s" r.Advect.advect_time_s;
  layer "advect.inclusion_s" r.Advect.inclusion_time_s;
  layer "advect.escape_s" r.Advect.escape_time_s;
  layeri "advect.rounds" r.Advect.iterations;
  layeri "advect.solves" solves;
  r

let traced_exact s cert =
  let ev, solves, _ = step "exact.reproof" (fun () -> Certificates.validate_exactly s cert) in
  layeri "exact.solves" solves;
  layeri "exact.conditions" (exact_check "traced" ev)

(* ------------------------------------------------------------------ *)
(* The measuring loop: whole rounds until [seconds] have passed. *)

let measure ~seconds ~trace round =
  if trace then round ()
  else
  let t0 = now () in
  let ops = ref [] in
  let continue = ref true in
  while !continue do
    ops := !ops @ round ();
    if now () -. t0 >= seconds then continue := false
  done;
  !ops

let run_op f =
  incr attempted;
  let a = snapshot () in
  let verdicts = f () in
  let b = snapshot () in
  if verdicts = 0 then incr failed;
  {
    o_start = a.wall;
    o_wall = b.wall -. a.wall;
    o_cpu = b.cpu -. a.cpu;
    o_solves = b.solves - a.solves;
    o_iters = b.iters - a.iters;
    o_verdicts = verdicts;
  }

let session_totals () =
  let c = Sdp.Session.totals () in
  (c.Sdp.Session.warm_accepted, c.Sdp.Session.warm_rejected)

(* Tracing overhead and coverage of a traced operation against an
   untraced one of the same input. *)
let report_trace ~untraced ~traced_wall ~steps =
  let steps_s = List.fold_left (fun a n -> a +. List.assoc n !layers) 0.0 steps in
  layer "trace.verdict_s" traced_wall;
  layer "trace.steps_s" steps_s;
  layer "trace.coverage" (steps_s /. traced_wall);
  layer "trace.overhead_s" (traced_wall -. untraced.o_wall)

(* Run traced steps [f] in this process and report the layers of the
   whole operation around them. *)
let traced_in_process ~pol ~untraced ~steps f =
  let w0, r0 = session_totals () in
  let t0 = snapshot () in
  let r = f () in
  let t1 = snapshot () in
  let w1, r1 = session_totals () in
  report_trace ~untraced ~traced_wall:(t1.wall -. t0.wall) ~steps;
  layeri "sdp.warm_accepted" (w1 - w0);
  layeri "sdp.warm_rejected" (r1 - r0);
  layer "sdp.iters_per_solve"
    (float_of_int (t1.iters - t0.iters) /. float_of_int (max 1 (t1.solves - t0.solves)));
  layeri "resilient.attempts" (Resilient.consumed pol).Resilient.attempts;
  r

(* ------------------------------------------------------------------ *)
(* Workload pll3-full: P1+P2 in one process, plus exact re-proof of P1. *)

let pll3_spec point =
  {
    (Service.Job.default_spec Pll.Third) with
    Service.Job.property = Service.Job.Full;
    degree = 4;
    point;
  }

(* X2 semi-axes: the default, or 30% of it in short mode, where
   advection closes within a round or two. *)
let init_radii ~short s =
  let r = Pll_core.Inevitability.default_init_radii s in
  if short then Array.map (fun x -> 0.3 *. x) r else r

(* The 3rd-order full pipeline as verify_pll runs it (Service.Job.run);
   short mode calls Inevitability.verify itself to pass a smaller X2.
   The report of a verified run, or None. *)
let verify_pll3 ~short ~policy spec s =
  if short then
    match
      Pll_core.Inevitability.verify ~resilience:policy
        ~cert_config:{ (Certificates.default_config Pll.Third) with Certificates.degree = 4 }
        ~max_advect_iter:spec.Service.Job.advect_iters ~init_radii:(init_radii ~short s) s
    with
    | Ok r when r.Pll_core.Inevitability.verified -> Some r
    | _ -> None
  else
    let report = ref None in
    let outcome =
      Service.Job.run ~policy
        ~validate:(fun r ->
          report := Some r;
          true)
        spec
    in
    if outcome.Service.Job.verdict = Service.Job.Verified then !report else None

let pll3_full ~seed ~seconds ~short ~trace =
  let rng = rng_for seed "pll3-full" in
  (* Ip and Kv move against each other, keeping the loop gain Ip·Kv at
     its nominal value: inside that class every point runs all advection
     rounds and ends on escape certificates, so the work per seed stays
     within a few percent. Points of higher gain close P2 by advection
     alone and cost about a third less. *)
  let ip = factor rng 0.95 1.05 in
  let seeded = [ (Pll.Ip, ip); (Pll.Kv, Float.round (1000.0 /. ip) /. 1000.0) ] in
  let points = if short then [ seeded ] else [ []; seeded ] in
  inputs := "points: nominal, " ^ Service.Job.point_to_string seeded;
  let models = List.map (fun p -> (p, point_model Pll.Third p)) points in
  let setup_s = setup_done () in
  let verify (point, s) =
    let spec = pll3_spec point in
    match verify_pll3 ~short ~policy:(Service.Job.make_policy spec) spec s with
    | Some r ->
        let inv = r.Pll_core.Inevitability.invariant in
        Some (r, Certificates.validate_exactly s inv.Certificates.cert)
    | None -> None
  in
  let results = ref [] in
  let round () =
    List.map
      (fun m ->
        run_op (fun () ->
            match verify m with
            | Some res ->
                results := (m, res) :: !results;
                1
            | None -> 0))
      models
  in
  let ops = measure ~seconds ~trace round in
  let checks_rng = rng_for seed "pll3-full/samples" in
  List.iter
    (fun ((_, s), (r, ev)) ->
      let inv = r.Pll_core.Inevitability.invariant in
      ignore (exact_check "pll3-full" ev);
      sampling_check ~rng:checks_rng ~samples:20000 s inv.Certificates.cert.Certificates.vs
        inv.Certificates.beta)
    !results;
  if trace then begin
    let point, s = List.hd models in
    let pol = Service.Job.make_policy (pll3_spec point) in
    Resilient.begin_pipeline pol;
    let ai =
      traced_in_process ~pol ~untraced:(List.hd ops)
        ~steps:[ "certificates.p1_search_s"; "certificates.level_s"; "advect.run_s"; "exact.reproof_s" ]
        (fun () ->
          let ai = traced_p1 ~pol ~bisect_steps:None s in
          let adv =
            traced_advect ~pol ~radii:(init_radii ~short s)
              ~max_iter:(pll3_spec point).Service.Job.advect_iters s ai
          in
          check adv.Advect.verified "traced pll3-full: not verified";
          traced_exact s ai.Certificates.cert;
          ai)
    in
    probes ~seed s ai
  end;
  (setup_s, ops)

(* ------------------------------------------------------------------ *)
(* Workload pll4-p1: the 4th-order attractive invariant plus exact
   re-proof, in one process. *)

let pll4_p1 ~seed ~seconds ~short ~trace =
  (* maximize_level's own default bisection depth, as Inevitability.verify
     uses it: β is about 6.4 here, so the 6 steps of a P1 job from
     β_hi = 2000 collapse it to 0; 10 steps are the fewest that keep it. *)
  let bisect_steps = if short then Some 10 else None in
  let s = point_model Pll.Fourth [] in
  inputs := "the nominal 4th-order model (no seeded input)";
  let setup_s = setup_done () in
  let config pol =
    { (Certificates.default_config Pll.Fourth) with Certificates.degree = 4; resilience = pol }
  in
  let results = ref [] in
  let round () =
    [
      run_op (fun () ->
          let pol = Resilient.make () in
          match Certificates.attractive_invariant ~config:(config pol) ?bisect_steps s with
          | Ok ai when ai.Certificates.beta > 0.0 ->
              let ev = Certificates.validate_exactly s ai.Certificates.cert in
              results := (ai, ev) :: !results;
              1
          | _ -> 0);
    ]
  in
  let ops = measure ~seconds ~trace round in
  let checks_rng = rng_for seed "pll4-p1/samples" in
  List.iter
    (fun (ai, ev) ->
      ignore (exact_check "pll4-p1" ev);
      (* The 4th-order invariant fills about 1/400 of the sampling box. *)
      sampling_check ~rng:checks_rng ~samples:200000 s ai.Certificates.cert.Certificates.vs
        ai.Certificates.beta)
    !results;
  (match !results with
  | (ai, _) :: rest ->
      List.iter
        (fun (ai', _) ->
          check (ai'.Certificates.beta = ai.Certificates.beta) "pll4-p1: beta differs between runs")
        rest
  | [] -> ());
  if trace then begin
    let pol = Resilient.make () in
    let ai =
      traced_in_process ~pol ~untraced:(List.hd ops)
        ~steps:[ "certificates.p1_search_s"; "certificates.level_s"; "exact.reproof_s" ]
        (fun () ->
          let ai = traced_p1 ~pol ~bisect_steps s in
          traced_exact s ai.Certificates.cert;
          ai)
    in
    probes ~seed s ai
  end;
  (setup_s, ops)

(* ------------------------------------------------------------------ *)
(* Run-directory readings: the solve cache holds every clean solve a
   forked worker performed, with its iteration count. *)

let cache_keys dir =
  let cdir = Filename.concat dir "cache" in
  if not (Sys.file_exists cdir) then []
  else
    Sys.readdir cdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".solve")
    |> List.map Filename.chop_extension
    |> List.sort compare

(* Solves and iterations stored in [dir]'s cache under keys not in
   [before]. *)
let new_cache_work ~before dir =
  let cache = Supervise.Cache.create ~dir:(Filename.concat dir "cache") in
  let old = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace old k ()) before;
  List.fold_left
    (fun (n, it) k ->
      if Hashtbl.mem old k then (n, it)
      else
        match Supervise.Cache.load cache ~key:k with
        | Ok sol -> (n + 1, it + sol.Sdp.iterations)
        | Error e ->
            check false "cache entry %s unreadable: %s" k (Supervise.Cache.error_to_string e);
            (n + 1, it))
    (0, 0) (cache_keys dir)

let run_dir_layers dir =
  let cache = Supervise.Cache.create ~dir:(Filename.concat dir "cache") in
  let keys = cache_keys dir in
  let _, t =
    time_median ~reps:3 (fun () ->
        List.iter (fun k -> ignore (Supervise.Cache.load cache ~key:k)) keys)
  in
  layer "supervise.cache_load_ms" (1e3 *. t /. float_of_int (max 1 (List.length keys)));
  let _, tj = time_median ~reps:3 (fun () -> Supervise.Journal.read dir) in
  layer "supervise.journal_read_ms" (1e3 *. tj);
  let _, bytes = Supervise.Cache.usage cache in
  layer "supervise.cache_mb" (float_of_int bytes /. 1048576.0)

(* ------------------------------------------------------------------ *)
(* Workload atlas-daemon: a seeded grid of 3rd-order P1 cells shipped by
   Atlas.exec_via_daemon to a daemon on a cold run directory. *)

let atlas_job ~short =
  {
    (Atlas.default_job Pll.Third) with
    Atlas.degree = 4;
    bisect_steps = (if short then 4 else (Atlas.default_job Pll.Third).Atlas.bisect_steps);
    max_subdiv = 0;
  }

(* One worker: with two on a 2-vCPU machine the sweep's wall time
   follows whichever vCPU a neighbour slows, and its quartile spread over
   ten runs doubled. *)
let daemon_workers = 1

let start_daemon dir =
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let config =
    {
      (Service.Daemon.default_config ~run_dir:dir) with
      Service.Daemon.workers = daemon_workers;
      sock = Some sock;
      cell_runner = Some Atlas.certify_service;
    }
  in
  flush stdout;
  flush stderr;
  let t0 = now () in
  match Unix.fork () with
  | 0 ->
      let log =
        Unix.openfile (Filename.concat dir "daemon.log")
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
      in
      Unix.dup2 log Unix.stdout;
      Unix.dup2 log Unix.stderr;
      Unix.close log;
      Unix._exit (Service.Daemon.run config)
  | pid ->
      let rec ready n =
        match Service.Client.status ~sock () with
        | Ok _ -> ()
        | Error e ->
            if n > 2000 then failwith ("daemon never answered status: " ^ e);
            Unix.sleepf 0.005;
            ready (n + 1)
      in
      ready 0;
      (pid, sock, now () -. t0)

let stop_daemon (pid, sock) =
  (match Service.Client.stop ~sock () with
  | Ok _ -> ()
  | Error e -> check false "daemon stop failed: %s" e);
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> check false "daemon did not drain cleanly"

(* What the last sweep left for the traced readings. *)
type sweep = {
  sw_start : float;
  sw_ready_s : float;
  sw_child_cpu : float;
  sw_status : (Service.Json.t, string) result;
  sw_report : (Atlas.report, string) result;
  sw_dir : string;
}

let atlas_daemon ~seed ~seconds ~short ~trace ~work =
  (* The grid is fixed around the nominal point; the seed picks the cell
     that is certified again in-process. A seeded grid centre made the
     work jump between seeds: centres ip = 0.984 and 0.993 on a 4x2 grid
     took 2478 and 2886 interior-point iterations (147 solves each),
     as the level bisection of a cell takes a different path. *)
  let n_ip, n_kv = if short then (2, 1) else (2, 2) in
  let spec = Printf.sprintf "ip=0.960:1.040:%d,kv=0.980:1.020:%d" n_ip n_kv in
  let grid = match Atlas.Grid.parse spec with Ok g -> g | Error e -> failwith e in
  inputs := "grid " ^ spec;
  let cells = Atlas.grid_cells grid in
  let job = atlas_job ~short in
  (* Each sweep gets a cold daemon run dir; two alternate so the last
     sweep's dir survives the start of the next daemon. *)
  let generation = ref 0 in
  let next_daemon () =
    incr generation;
    let dir = Filename.concat work (Printf.sprintf "daemon-%d" (!generation mod 2)) in
    let pid, sock, ready_s = start_daemon dir in
    (pid, sock, ready_s, dir)
  in
  let cdir = Filename.concat work "atlas" in
  (* Set-up: run-dir creation and daemon start up to its first status
     answer. *)
  let daemon = ref (next_daemon ()) in
  let setup_s =
    setup_done
      ~cleanup:(fun () ->
        let pid, sock, _, _ = !daemon in
        stop_daemon (pid, sock))
      ()
  in
  let reports = ref [] in
  let last = ref None in
  let sweep () =
    let pid, sock, ready_s, ddir = !daemon in
    rm_rf cdir;
    incr attempted;
    let a = snapshot () in
    let ctx = Supervise.create ~run_dir:cdir ~jobs:1 () in
    let exec = Atlas.exec_via_daemon ~sock job in
    let report = Atlas.run ~ctx ~exec ~resume:false job grid in
    let b = snapshot () in
    let status = Service.Client.status ~sock () in
    stop_daemon (pid, sock);
    let c = snapshot () in
    let n, it = new_cache_work ~before:[] ddir in
    let verdicts =
      match report with
      | Ok r ->
          reports := r :: !reports;
          r.Atlas.certified
      | Error e ->
          check false "atlas sweep failed: %s" e;
          0
    in
    if verdicts = 0 then incr failed;
    last :=
      Some
        {
          sw_start = a.wall;
          sw_ready_s = ready_s;
          sw_child_cpu = c.child_cpu -. a.child_cpu;
          sw_status = status;
          sw_report = report;
          sw_dir = ddir;
        };
    daemon := next_daemon ();
    [
      {
        o_start = a.wall;
        o_wall = b.wall -. a.wall;
        o_cpu = c.cpu -. a.cpu;
        o_solves = (b.solves - a.solves) + n;
        o_iters = (b.iters - a.iters) + it;
        o_verdicts = verdicts;
      };
    ]
  in
  (* Two sweeps a round; a run at --seconds 20 makes about three rounds,
     so its median has about six sweeps to it. *)
  let round () =
    let first = sweep () in
    first @ sweep ()
  in
  let ops = measure ~seconds ~trace round in
  (* Checks: every cell of every sweep certified with β > 0, and a seeded
     cell's β equal to that cell certified in-process. *)
  List.iter
    (fun r ->
      check
        (r.Atlas.certified = List.length cells && r.Atlas.quarantined = 0)
        "atlas-daemon: %d of %d cells certified" r.Atlas.certified (List.length cells);
      List.iter
        (fun rc ->
          match rc.Atlas.result with
          | Atlas.Certified { beta } ->
              check (beta > 0.0) "atlas-daemon: cell %s has beta <= 0" rc.Atlas.cell.Atlas.id
          | _ -> check false "atlas-daemon: cell %s not certified" rc.Atlas.cell.Atlas.id)
        r.Atlas.records)
    !reports;
  let pick =
    List.nth cells (Random.State.int (rng_for seed "atlas-daemon/pick") (List.length cells))
  in
  let pick_model =
    point_model Pll.Third (List.map (fun (ax, lo, hi) -> (ax, 0.5 *. (lo +. hi))) pick.Atlas.box)
  in
  let daemon_beta r =
    List.find_map
      (fun rc ->
        match rc.Atlas.result with
        | Atlas.Certified { beta } when rc.Atlas.cell.Atlas.id = pick.Atlas.id -> Some beta
        | _ -> None)
      r.Atlas.records
  in
  let pol = Resilient.make () in
  let w0, r0 = session_totals () in
  let ai = traced_p1 ~pol ~bisect_steps:(Some job.Atlas.bisect_steps) pick_model in
  let w1, r1 = session_totals () in
  check (ai.Certificates.beta > 0.0) "atlas-daemon: in-process certification of %s failed"
    pick.Atlas.id;
  List.iter
    (fun r ->
      check
        (daemon_beta r = Some ai.Certificates.beta)
        "atlas-daemon: cell %s beta differs from its in-process certification" pick.Atlas.id)
    !reports;
  sampling_check ~rng:(rng_for seed "atlas-daemon/samples") ~samples:20000 pick_model
    ai.Certificates.cert.Certificates.vs ai.Certificates.beta;
  (if trace then
     match !last with
     | Some ({ sw_status = Ok st; sw_report = Ok r; _ } as sw) ->
         let untraced = List.nth ops (List.length ops - 1) in
         let num f = Option.value ~default:0.0 (Service.Json.mem_num f st) in
         layer "trace.verdict_s" untraced.o_wall;
         layer "service.ready_s" sw.sw_ready_s;
         layer "service.redispatched" (num "redispatched");
         layer "service.leases_reclaimed" (num "leases_reclaimed");
         layer "service.deferred"
           (Float.max 0.0
              (num "submits" -. num "accepted" -. num "cache_served" -. num "deduped"
             -. num "shed"));
         let results = Filename.concat sw.sw_dir "results" in
         let first =
           Sys.readdir results |> Array.to_list
           |> List.map (fun f -> (Unix.stat (Filename.concat results f)).Unix.st_mtime)
           |> List.fold_left Float.min infinity
         in
         layer "service.first_result_s" (first -. sw.sw_start);
         (let _, sock, _, _ = !daemon in
          let _, ts = time_median ~reps:5 (fun () -> Service.Client.status ~sock ()) in
          layer "service.status_ms" (1e3 *. ts));
         layer "supervise.forks" (num "completed" +. num "redispatched" +. num "crashes");
         layer "supervise.cache_stores" (float_of_int untraced.o_solves);
         layer "supervise.child_cpu_s" sw.sw_child_cpu;
         run_dir_layers sw.sw_dir;
         layer "sdp.iters_per_solve"
           (float_of_int untraced.o_iters /. float_of_int (max 1 untraced.o_solves));
         let attempts = List.map (fun rc -> rc.Atlas.attempt_s) r.Atlas.records in
         layer "atlas.cell_attempt_s" (median attempts);
         layer "atlas.overhead_s"
           (untraced.o_wall
           -. (List.fold_left ( +. ) 0.0 attempts /. float_of_int daemon_workers));
         layeri "resilient.attempts"
           (List.fold_left (fun a rc -> a + rc.Atlas.attempts) 0 r.Atlas.records);
         let _, tl = time_median ~reps:3 (fun () -> Atlas.Ledger.read cdir) in
         layer "atlas.ledger_read_ms" (1e3 *. tl);
         (* The certificate layers come from the seeded cell certified
            in-process above. *)
         layeri "sdp.warm_accepted" (w1 - w0);
         layeri "sdp.warm_rejected" (r1 - r0);
         probes ~seed pick_model ai
     | _ -> check false "atlas-daemon: traced sweep gave no status or report");
  (let pid, sock, _, _ = !daemon in
   stop_daemon (pid, sock));
  (setup_s, ops)

(* ------------------------------------------------------------------ *)
(* Machine-speed sampler. The VM's vCPUs change speed by up to 2x in
   phases of seconds, each vCPU on its own. run.py pins one sampler to
   each vCPU a workload runs on; every [period] seconds it runs a fixed
   burst of work (dense Cholesky factorisations and a list sort, in
   benchmark code that no library change can touch) and records the
   burst's start and the CPU seconds it took. The CPU seconds of a fixed
   burst track the vCPU's speed at that moment; they do not count time
   the burst waited for the CPU. It stops when its stdin closes and
   prints one "start cpu_s" line per burst. *)

let speed_burst () =
  let n = 48 in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then float_of_int n +. 1.0 else 1.0 /. float_of_int (1 + i + j)))
  in
  for _ = 1 to 16 do
    let l = Array.make_matrix n n 0.0 in
    for j = 0 to n - 1 do
      let s = ref a.(j).(j) in
      for k = 0 to j - 1 do
        s := !s -. (l.(j).(k) *. l.(j).(k))
      done;
      let d = sqrt !s in
      l.(j).(j) <- d;
      for i = j + 1 to n - 1 do
        let s = ref a.(i).(j) in
        for k = 0 to j - 1 do
          s := !s -. (l.(i).(k) *. l.(j).(k))
        done;
        l.(i).(j) <- !s /. d
      done
    done;
    ignore (Sys.opaque_identity l)
  done;
  let l = List.init 3000 (fun i -> float_of_int (i * 104729 mod 65521)) in
  ignore (Sys.opaque_identity (List.sort compare l))

let sampler ~period =
  let out = Buffer.create 65536 in
  let stop = ref false in
  while not !stop do
    let t = now () and c = Sys.time () in
    speed_burst ();
    Printf.bprintf out "%.6f %.9f\n" t (Sys.time () -. c);
    let rec wait () =
      match Unix.select [ Unix.stdin ] [] [] (Float.max 0.0 (t +. period -. now ())) with
      | [], _, _ -> ()
      | _ -> stop := true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  done;
  print_string (Buffer.contents out)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let print_result ~workload ~setup_s ~ops ~trace =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "{\"workload\":%S,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"setup_s\":%s"
    workload (!problems = []) !attempted !failed (json_float setup_s);
  add ",\"inputs\":%S" !inputs;
  add ",\"problems\":[%s]"
    (String.concat "," (List.map (Printf.sprintf "%S") (List.rev !problems)));
  add ",\"ops\":[%s]"
    (String.concat ","
       (List.map
          (fun o ->
            Printf.sprintf
              "{\"start\":%s,\"wall_s\":%s,\"cpu_s\":%s,\"solves\":%d,\"iters\":%d,\"verdicts\":%d}"
              (json_float o.o_start) (json_float o.o_wall) (json_float o.o_cpu) o.o_solves o.o_iters o.o_verdicts)
          ops));
  if trace then
    add ",\"layers\":{%s}"
      (String.concat ","
         (List.rev_map (fun (n, v) -> Printf.sprintf "%S:%s" n (json_float v)) !layers));
  add "}";
  print_endline (Buffer.contents b)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and short = ref false and work = ref "perfbench/_work" in
  let sampler_period = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring window");
      ("--trace", Arg.Set trace, " per-layer run");
      ("--short", Arg.Set short, " short mode (same checks, small inputs)");
      ("--work", Arg.Set_string work, "DIR scratch directory for run dirs");
      ("--t0", Arg.Set_float t_spawn, "T wall-clock time the process was spawned at");
      ("--setup-only", Arg.Set setup_only, " stop after set-up and report its time");
      ("--sampler", Arg.Set_float sampler_period, "P run the machine-speed sampler every P seconds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S [--trace] [--short] [--work DIR] [--t0 T] \
     [--setup-only] | --sampler P";
  if !sampler_period > 0.0 then begin
    sampler ~period:!sampler_period;
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 124
  end;
  mkdir_p !work;
  let seed = !seed and seconds = !seconds and short = !short and trace = !trace in
  let run () =
    match !workload with
    | "pll3-full" -> pll3_full ~seed ~seconds ~short ~trace
    | "pll4-p1" -> pll4_p1 ~seed ~seconds ~short ~trace
    | _ -> atlas_daemon ~seed ~seconds ~short ~trace ~work:!work
  in
  let setup_s, ops = try run () with Setup_done s -> (s, []) in
  print_result ~workload:!workload ~setup_s ~ops ~trace
