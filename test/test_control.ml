open Waltz_linalg
open Waltz_control
open Test_util

let single_transmon = Transmon.paper_spec ~n:1 ~levels:[| 3 |]

let test_annihilation () =
  let a = Transmon.annihilation 3 in
  (* a|1> = |0>, a|2> = √2 |1>. *)
  check_bool "a[0,1] = 1" true (Cplx.close (Mat.get a 0 1) Cplx.one);
  check_bool "a[1,2] = sqrt2" true (Cplx.close (Mat.get a 1 2) (Cplx.re (sqrt 2.)))

let test_drift_hermitian () =
  List.iter
    (fun spec ->
      let h = Transmon.drift spec in
      mat_equal "drift hermitian" h (Mat.adjoint h))
    [ single_transmon;
      Transmon.paper_spec ~n:2 ~levels:[| 3; 3 |];
      Transmon.paper_spec ~n:3 ~levels:[| 2; 2; 2 |] ]

let test_drift_values () =
  (* Rotating at the first transmon's frequency: its |1⟩ detuning is 0 and
     its |2⟩ picks up the anharmonicity. *)
  let h = Transmon.drift single_transmon in
  check_bool "level 1 detuning 0" true (Cplx.close (Mat.get h 1 1) Cplx.zero);
  check_bool "level 2 anharmonicity" true
    (Cplx.close (Mat.get h 2 2) (Cplx.re (-0.330)));
  (* Two transmons: coupling term J between |01⟩ and |10⟩. *)
  let spec2 = Transmon.paper_spec ~n:2 ~levels:[| 2; 2 |] in
  let h2 = Transmon.drift spec2 in
  check_bool "coupling element" true (Cplx.close (Mat.get h2 1 2) (Cplx.re 0.0038))

let test_logical_indices () =
  let spec = Transmon.paper_spec ~n:2 ~levels:[| 3; 3 |] in
  let idx = Transmon.logical_indices spec ~logical_levels:[| 2; 2 |] in
  check_bool "logical embedding" true (idx = [| 0; 1; 3; 4 |])

let test_zero_pulse_identity () =
  let spec = single_transmon in
  let obj =
    { Grape.spec; target = Mat.identity 2; logical_levels = [| 2 |]; leak_weight = 0. }
  in
  let pulse = Pulse.create ~n_ctrl:2 ~n_seg:10 ~duration_ns:20. ~max_amp_ghz:0.045 in
  let eval = Grape.evaluate obj pulse in
  (* With no drive the propagator is diagonal; restricted to the (0,1)
     subspace it is the identity up to the (zero-detuning) frame: F ≈ 1. *)
  close ~tol:1e-6 "identity fidelity with zero pulse" 1. eval.Grape.fidelity;
  close ~tol:1e-9 "no leakage" 0. eval.Grape.leakage

let test_gradient_direction () =
  (* A gradient step must decrease the objective for a smooth start. *)
  let spec = single_transmon in
  let obj =
    { Grape.spec; target = Synthesis.x_target; logical_levels = [| 2 |]; leak_weight = 0.05 }
  in
  let pulse = Pulse.create ~n_ctrl:2 ~n_seg:12 ~duration_ns:24. ~max_amp_ghz:0.045 in
  Pulse.randomize (rng 3) ~scale:0.2 pulse;
  let grad, eval0 = Grape.gradient obj pulse in
  let obj0 = 1. -. eval0.Grape.fidelity +. (0.05 *. eval0.Grape.leakage) in
  let step = 0.01 in
  Array.iteri (fun k g -> pulse.Pulse.theta.(k) <- pulse.Pulse.theta.(k) -. (step *. g)) grad;
  let eval1 = Grape.evaluate obj pulse in
  let obj1 = 1. -. eval1.Grape.fidelity +. (0.05 *. eval1.Grape.leakage) in
  check_bool
    (Printf.sprintf "gradient descends (%.6f -> %.6f)" obj0 obj1)
    true (obj1 < obj0)

let test_optimize_x_gate () =
  let spec = single_transmon in
  let report, _pulse =
    Synthesis.synthesize ~seed:7 ~restarts:1 ~iters:150 ~spec ~target:Synthesis.x_target
      ~logical_levels:[| 2 |] ~duration_ns:30. ~segments:30 ()
  in
  check_bool
    (Printf.sprintf "X pulse reaches F > 0.95 (got %.4f)" report.Synthesis.fidelity)
    true
    (report.Synthesis.fidelity > 0.95)

let test_carrier_bounds () =
  let c =
    Carrier.create ~n_lines:1 ~carriers:[| 0.; -0.33 |] ~n_env:6 ~fine_per_env:8
      ~duration_ns:48. ~max_amp_ghz:0.045
  in
  Carrier.randomize (rng 9) ~scale:20. c;
  let amps = Carrier.amplitudes c in
  Array.iter
    (Array.iter (fun a -> check_bool "carrier amp bounded" true (Float.abs a <= 0.045 +. 1e-12)))
    amps;
  check_int "param count" (1 * 2 * 6 * 2) (Carrier.param_count c);
  close ~tol:1e-12 "fine dt" 1. (Carrier.fine_dt_ns c)

let test_carrier_gradient_direction () =
  let spec = single_transmon in
  let obj =
    { Grape.spec; target = Synthesis.x_target; logical_levels = [| 2 |]; leak_weight = 0.05 }
  in
  let c =
    Carrier.create ~n_lines:1 ~carriers:[| 0. |] ~n_env:6 ~fine_per_env:8 ~duration_ns:24.
      ~max_amp_ghz:0.045
  in
  Carrier.randomize (rng 3) ~scale:0.2 c;
  let dt = Carrier.fine_dt_ns c in
  let damps, eval0 = Grape.amplitude_gradient obj ~dt_ns:dt (Carrier.amplitudes c) in
  let grad = Carrier.param_gradient c damps in
  let obj0 = 1. -. eval0.Grape.fidelity +. (0.05 *. eval0.Grape.leakage) in
  Array.iteri (fun k g -> c.Carrier.theta.(k) <- c.Carrier.theta.(k) -. (0.01 *. g)) grad;
  let eval1 = Grape.evaluate_amplitudes obj ~dt_ns:dt (Carrier.amplitudes c) in
  let obj1 = 1. -. eval1.Grape.fidelity +. (0.05 *. eval1.Grape.leakage) in
  check_bool
    (Printf.sprintf "carrier gradient descends (%.6f -> %.6f)" obj0 obj1)
    true (obj1 < obj0)

let test_carrier_optimizes_hh () =
  (* The carrier ansatz reaches high H⊗H fidelity with far fewer parameters
     than the raw piecewise-constant pulse. *)
  let spec = Transmon.paper_spec ~n:1 ~levels:[| 5 |] in
  let obj =
    { Grape.spec; target = Synthesis.hh_target; logical_levels = [| 4 |]; leak_weight = 0.1 }
  in
  let c =
    Carrier.create ~n_lines:1 ~carriers:[| 0.; -0.330; -0.660 |] ~n_env:45
      ~fine_per_env:8 ~duration_ns:90. ~max_amp_ghz:0.045
  in
  Carrier.randomize (rng 5) ~scale:0.5 c;
  let r = Carrier.optimize ~iters:400 obj c in
  check_bool
    (Printf.sprintf "carrier H(x)H F > 0.9 (got %.4f, %d params)"
       r.Grape.final.Grape.fidelity (Carrier.param_count c))
    true
    (r.Grape.final.Grape.fidelity > 0.9)

let test_lindblad_trace_and_decay () =
  let spec = single_transmon in
  (* Zero pulse, start in |1⟩: after T the excited population is e^{-T/T1}. *)
  let pulse = Pulse.create ~n_ctrl:2 ~n_seg:10 ~duration_ns:200. ~max_amp_ghz:0.045 in
  let d = Transmon.dim spec in
  let rho0 = Mat.init d d (fun i j -> if i = 1 && j = 1 then Cplx.one else Cplx.zero) in
  let t1 = 1000. in
  let rho = Lindblad.evolve spec pulse ~t1_ns:t1 ~rho0 ~substeps:40 () in
  close ~tol:1e-6 "trace preserved" 1. (Mat.trace rho).Complex.re;
  close ~tol:1e-4 "exponential decay of |1>" (exp (-200. /. t1)) (Mat.get rho 1 1).Complex.re;
  (* Level 2 decays twice as fast (√2 matrix element squared). *)
  let rho0_2 = Mat.init d d (fun i j -> if i = 2 && j = 2 then Cplx.one else Cplx.zero) in
  let rho2 = Lindblad.evolve spec pulse ~t1_ns:t1 ~rho0:rho0_2 ~substeps:40 () in
  close ~tol:1e-3 "level 2 decays at 2/T1" (exp (-2. *. 200. /. t1))
    (Mat.get rho2 2 2).Complex.re

let test_lindblad_open_vs_closed () =
  (* A good closed-system X pulse keeps most of its fidelity under realistic
     T1, and loses more when T1 shrinks. *)
  let spec = single_transmon in
  let report, pulse =
    Synthesis.synthesize ~seed:7 ~restarts:1 ~iters:150 ~spec ~target:Synthesis.x_target
      ~logical_levels:[| 2 |] ~duration_ns:30. ~segments:30 ()
  in
  check_bool "closed-system pulse is good" true (report.Synthesis.fidelity > 0.95);
  let f_realistic =
    Lindblad.average_fidelity spec pulse ~target:Synthesis.x_target ~logical_levels:[| 2 |]
      ~t1_ns:163_450. ~samples:5 ~seed:3
  in
  let f_bad_t1 =
    Lindblad.average_fidelity spec pulse ~target:Synthesis.x_target ~logical_levels:[| 2 |]
      ~t1_ns:500. ~samples:5 ~seed:3
  in
  check_bool
    (Printf.sprintf "realistic T1 barely hurts (%.4f)" f_realistic)
    true
    (f_realistic > report.Synthesis.fidelity -. 0.01);
  check_bool
    (Printf.sprintf "short T1 hurts (%.4f < %.4f)" f_bad_t1 f_realistic)
    true (f_bad_t1 < f_realistic -. 0.01)

(* ---- Oracles: the allocating GRAPE core, Adam loop and RK4 integrator
   as they were before the in-place rewrite (Taylor exponential, dense
   products and traces, explicit forward/backward product arrays). ---- *)

module Oracle = struct
  let two_pi = 2. *. Float.pi

  let embed_target (obj : Grape.objective) =
    let d = Transmon.dim obj.Grape.spec in
    let indices =
      Transmon.logical_indices obj.Grape.spec ~logical_levels:obj.Grape.logical_levels
    in
    let h = Array.length indices in
    let v_full = Mat.zeros d d in
    for i = 0 to h - 1 do
      for j = 0 to h - 1 do
        Mat.set v_full indices.(i) indices.(j) (Mat.get obj.Grape.target i j)
      done
    done;
    let proj = Mat.zeros d d in
    Array.iter (fun gi -> Mat.set proj gi gi Cplx.one) indices;
    (v_full, proj, h)

  let propagators (obj : Grape.objective) ~dt_ns amps =
    let h0 = Transmon.drift obj.Grape.spec in
    let drives = Transmon.drive_ops obj.Grape.spec in
    List.init (Array.length amps.(0)) (fun seg ->
        let h = ref h0 in
        Array.iteri
          (fun k (re_op, im_op) ->
            let p = amps.(2 * k).(seg) and q = amps.((2 * k) + 1).(seg) in
            h := Mat.add !h (Mat.add (Mat.scale (Cplx.re p) re_op) (Mat.scale (Cplx.re q) im_op)))
          drives;
        taylor_expm (Mat.scale (Cplx.c 0. (-.two_pi *. dt_ns)) !h))

  let trace_prod (a : Mat.t) (b : Mat.t) = Mat.trace (Mat.mul a b)

  let evaluation_of ~v_full ~proj ~h u =
    let t = trace_prod (Mat.adjoint v_full) u in
    let pup = Mat.mul proj (Mat.mul u proj) in
    let pop = ref 0. in
    Array.iter (fun x -> pop := !pop +. (x *. x)) pup.Mat.re;
    Array.iter (fun x -> pop := !pop +. (x *. x)) pup.Mat.im;
    { Grape.fidelity = Cplx.norm2 t /. float_of_int (h * h);
      leakage = 1. -. (!pop /. float_of_int h);
      propagator = u }

  let evaluate_amplitudes obj ~dt_ns amps =
    let v_full, proj, h = embed_target obj in
    let u =
      List.fold_left
        (fun acc us -> Mat.mul us acc)
        (Mat.identity (Transmon.dim obj.Grape.spec))
        (propagators obj ~dt_ns amps)
    in
    evaluation_of ~v_full ~proj ~h u

  let amplitude_gradient (obj : Grape.objective) ~dt_ns amps =
    let v_full, proj, h = embed_target obj in
    let dim = Transmon.dim obj.Grape.spec in
    let us = Array.of_list (propagators obj ~dt_ns amps) in
    let n_seg = Array.length us in
    let fwd = Array.make (n_seg + 1) (Mat.identity dim) in
    for s = 0 to n_seg - 1 do
      fwd.(s + 1) <- Mat.mul us.(s) fwd.(s)
    done;
    let bwd = Array.make n_seg (Mat.identity dim) in
    for s = n_seg - 2 downto 0 do
      bwd.(s) <- Mat.mul bwd.(s + 1) us.(s + 1)
    done;
    let u = fwd.(n_seg) in
    let eval = evaluation_of ~v_full ~proj ~h u in
    let v_dag = Mat.adjoint v_full in
    let t_total = trace_prod v_dag u in
    let pu_dag_p = Mat.mul proj (Mat.mul (Mat.adjoint u) proj) in
    let grad = Array.init (Array.length amps) (fun _ -> Array.make n_seg 0.) in
    let hh = float_of_int (h * h) in
    let dt_factor = Cplx.c 0. (-.two_pi *. dt_ns) in
    for s = 0 to n_seg - 1 do
      let m1 = Mat.mul fwd.(s + 1) (Mat.mul v_dag bwd.(s)) in
      let m2 = Mat.mul fwd.(s + 1) (Mat.mul pu_dag_p bwd.(s)) in
      Array.iteri
        (fun k (re_op, im_op) ->
          List.iter
            (fun (ctrl, op) ->
              let t1 = Cplx.( *: ) dt_factor (trace_prod op m1) in
              let d_fid =
                2. /. hh *. ((t_total.Complex.re *. t1.Complex.re) +. (t_total.Complex.im *. t1.Complex.im))
              in
              let t2 = Cplx.( *: ) dt_factor (trace_prod op m2) in
              let d_leak = -.(2. *. t2.Complex.re) /. float_of_int h in
              grad.(ctrl).(s) <- -.d_fid +. (obj.Grape.leak_weight *. d_leak))
            [ (2 * k, re_op); ((2 * k) + 1, im_op) ])
        (Transmon.drive_ops obj.Grape.spec)
    done;
    (grad, eval)

  let pulse_amps pulse =
    Array.init pulse.Pulse.n_ctrl (fun ctrl ->
        Array.init pulse.Pulse.n_seg (fun seg -> Pulse.amp pulse ~ctrl ~seg))

  (* Grape.optimize: Adam with best-θ tracking. *)
  let optimize ~iters (obj : Grape.objective) pulse =
    let n = Pulse.param_count pulse and n_seg = pulse.Pulse.n_seg in
    let m = Array.make n 0. and v = Array.make n 0. in
    let best = ref None in
    for it = 1 to iters do
      let damps, eval = amplitude_gradient obj ~dt_ns:pulse.Pulse.dt_ns (pulse_amps pulse) in
      let grad = Array.make n 0. in
      for ctrl = 0 to pulse.Pulse.n_ctrl - 1 do
        for s = 0 to n_seg - 1 do
          grad.((ctrl * n_seg) + s) <-
            damps.(ctrl).(s) *. Pulse.amp_gradient_factor pulse ~ctrl ~seg:s
        done
      done;
      (match !best with
      | Some (f, _) when f >= eval.Grape.fidelity -> ()
      | _ -> best := Some (eval.Grape.fidelity, Array.copy pulse.Pulse.theta));
      let b1t = 1. -. (0.9 ** float_of_int it) and b2t = 1. -. (0.999 ** float_of_int it) in
      for k = 0 to n - 1 do
        m.(k) <- (0.9 *. m.(k)) +. ((1. -. 0.9) *. grad.(k));
        v.(k) <- (0.999 *. v.(k)) +. ((1. -. 0.999) *. grad.(k) *. grad.(k));
        let mhat = m.(k) /. b1t and vhat = v.(k) /. b2t in
        pulse.Pulse.theta.(k) <- pulse.Pulse.theta.(k) -. (0.1 *. mhat /. (sqrt vhat +. 1e-8))
      done
    done;
    (match !best with Some (_, th) -> Array.blit th 0 pulse.Pulse.theta 0 n | None -> ());
    evaluate_amplitudes obj ~dt_ns:pulse.Pulse.dt_ns (pulse_amps pulse)

  (* Lindblad.evolve: RK4 over freshly allocated matrices. *)
  let evolve spec pulse ~t1_ns ~rho0 ~substeps =
    let n = Array.length spec.Transmon.levels in
    let collapse =
      List.init n (fun k ->
          let a =
            Mat.kron_many
              (List.init n (fun i ->
                   if i = k then Transmon.annihilation spec.Transmon.levels.(k)
                   else Mat.identity spec.Transmon.levels.(i)))
          in
          let adag = Mat.adjoint a in
          (1. /. t1_ns, a, adag, Mat.mul adag a))
    in
    let derivative h rho =
      let comm = Mat.scale (Cplx.c 0. (-.two_pi)) (Mat.sub (Mat.mul h rho) (Mat.mul rho h)) in
      List.fold_left
        (fun acc (gamma, a, adag, n_op) ->
          let jump = Mat.mul a (Mat.mul rho adag) in
          let anti = Mat.scale (Cplx.re 0.5) (Mat.add (Mat.mul n_op rho) (Mat.mul rho n_op)) in
          Mat.add acc (Mat.scale (Cplx.re gamma) (Mat.sub jump anti)))
        comm collapse
    in
    let dt = pulse.Pulse.dt_ns /. float_of_int substeps in
    let step h rho =
      let f = derivative h in
      let k1 = f rho in
      let k2 = f (Mat.add rho (Mat.scale (Cplx.re (dt /. 2.)) k1)) in
      let k3 = f (Mat.add rho (Mat.scale (Cplx.re (dt /. 2.)) k2)) in
      let k4 = f (Mat.add rho (Mat.scale (Cplx.re dt) k3)) in
      let sum =
        Mat.add k1 (Mat.add (Mat.scale (Cplx.re 2.) k2) (Mat.add (Mat.scale (Cplx.re 2.) k3) k4))
      in
      Mat.add rho (Mat.scale (Cplx.re (dt /. 6.)) sum)
    in
    let h0 = Transmon.drift spec and drives = Transmon.drive_ops spec in
    let rho = ref (Mat.copy rho0) in
    for seg = 0 to pulse.Pulse.n_seg - 1 do
      let h = ref h0 in
      Array.iteri
        (fun k (re_op, im_op) ->
          let p = Pulse.amp pulse ~ctrl:(2 * k) ~seg and q = Pulse.amp pulse ~ctrl:((2 * k) + 1) ~seg in
          h := Mat.add !h (Mat.add (Mat.scale (Cplx.re p) re_op) (Mat.scale (Cplx.re q) im_op)))
        drives;
      for _ = 1 to substeps do
        rho := step !h !rho
      done
    done;
    !rho
end

(* The four shapes the pulses benchmark optimizes: X, H⊗H, CZ and the
   carrier ansatz on H⊗H. Each yields an objective, dt and random
   amplitudes. *)
let shapes () =
  let pulse_case name spec target logical_levels ~duration_ns ~segments ~seed =
    let obj = { Grape.spec; target; logical_levels; leak_weight = 0.1 } in
    let n_ctrl = 2 * Array.length spec.Transmon.levels in
    let pulse =
      Pulse.create ~n_ctrl ~n_seg:segments ~duration_ns ~max_amp_ghz:spec.Transmon.max_drive_ghz
    in
    Pulse.randomize (rng seed) ~scale:0.5 pulse;
    (name, obj, pulse.Pulse.dt_ns, Oracle.pulse_amps pulse)
  in
  let spec4 = Transmon.paper_spec ~n:1 ~levels:[| 5 |] in
  let carrier =
    Carrier.create ~n_lines:1 ~carriers:[| 0.; -0.330; -0.660 |] ~n_env:45 ~fine_per_env:8
      ~duration_ns:90. ~max_amp_ghz:0.045
  in
  Carrier.randomize (rng 5) ~scale:0.5 carrier;
  [ pulse_case "x" single_transmon Synthesis.x_target [| 2 |] ~duration_ns:35. ~segments:140
      ~seed:1;
    pulse_case "hh" spec4 Synthesis.hh_target [| 4 |] ~duration_ns:90. ~segments:360 ~seed:2;
    pulse_case "cz" (Transmon.paper_spec ~n:2 ~levels:[| 3; 3 |]) Waltz_qudit.Gates.cz
      [| 2; 2 |] ~duration_ns:236. ~segments:472 ~seed:3;
    ( "carrier",
      { Grape.spec = spec4; target = Synthesis.hh_target; logical_levels = [| 4 |];
        leak_weight = 0.1 },
      Carrier.fine_dt_ns carrier,
      Carrier.amplitudes carrier ) ]

let max_grad_diff a b =
  let worst = ref 0. in
  Array.iteri
    (fun c row -> Array.iteri (fun s g -> worst := Float.max !worst (Float.abs (g -. b.(c).(s)))) row)
    a;
  !worst

let test_gradient_vs_oracle () =
  List.iter
    (fun (name, obj, dt_ns, amps) ->
      let grad, eval = Grape.amplitude_gradient obj ~dt_ns amps in
      let grad', eval' = Oracle.amplitude_gradient obj ~dt_ns amps in
      let d = max_grad_diff grad grad' in
      check_bool (Printf.sprintf "%s: gradient within 1e-12 (%.2g)" name d) true (d <= 1e-12);
      close ~tol:1e-12 (name ^ ": gradient F") eval'.Grape.fidelity eval.Grape.fidelity;
      close ~tol:1e-12 (name ^ ": gradient leakage") eval'.Grape.leakage eval.Grape.leakage;
      let e = Grape.evaluate_amplitudes obj ~dt_ns amps in
      let e' = Oracle.evaluate_amplitudes obj ~dt_ns amps in
      close ~tol:1e-12 (name ^ ": evaluate F") e'.Grape.fidelity e.Grape.fidelity;
      close ~tol:1e-12 (name ^ ": evaluate leakage") e'.Grape.leakage e.Grape.leakage;
      mat_equal ~tol:1e-12 (name ^ ": propagator") e'.Grape.propagator e.Grape.propagator;
      (* evaluate shares the gradient's forward sweep. *)
      check_bool (name ^ ": evaluate = gradient's evaluation") true
        (e.Grape.fidelity = eval.Grape.fidelity && e.Grape.leakage = eval.Grape.leakage))
    (shapes ())

let test_adam_vs_oracle () =
  List.iter
    (fun (name, spec, target, logical_levels, duration_ns, segments) ->
      let obj = { Grape.spec; target; logical_levels; leak_weight = 0.1 } in
      let fresh () =
        let p =
          Pulse.create ~n_ctrl:(2 * Array.length spec.Transmon.levels) ~n_seg:segments
            ~duration_ns ~max_amp_ghz:spec.Transmon.max_drive_ghz
        in
        Pulse.randomize (rng 11) ~scale:0.3 p;
        p
      in
      let r = Grape.optimize ~iters:8 obj (fresh ()) in
      let e' = Oracle.optimize ~iters:8 obj (fresh ()) in
      close ~tol:1e-9 (name ^ ": Adam F") e'.Grape.fidelity r.Grape.final.Grape.fidelity;
      close ~tol:1e-9 (name ^ ": Adam leakage") e'.Grape.leakage r.Grape.final.Grape.leakage)
    [ ("cz2", Transmon.paper_spec ~n:2 ~levels:[| 3; 3 |], Waltz_qudit.Gates.cz, [| 2; 2 |], 236., 472);
      ("hh", Transmon.paper_spec ~n:1 ~levels:[| 5 |], Synthesis.hh_target, [| 4 |], 90., 360) ]

let test_lindblad_vs_oracle () =
  let spec = Transmon.paper_spec ~n:2 ~levels:[| 3; 2 |] in
  let pulse = Pulse.create ~n_ctrl:4 ~n_seg:12 ~duration_ns:6. ~max_amp_ghz:0.045 in
  Pulse.randomize (rng 4) ~scale:0.5 pulse;
  let d = Transmon.dim spec in
  let psi = Vec.gaussian (fun () -> Rng.gaussian (rng 8)) d in
  let rho0 = Mat.init d d (fun i j -> Cplx.( *: ) (Vec.get psi i) (Cplx.conj (Vec.get psi j))) in
  let rho = Lindblad.evolve spec pulse ~t1_ns:50. ~rho0 ~substeps:4 () in
  let rho' = Oracle.evolve spec pulse ~t1_ns:50. ~rho0 ~substeps:4 in
  mat_equal ~tol:0. "in-place RK4 = allocating RK4, bitwise" rho' rho

let test_pulse_bounds () =
  let pulse = Pulse.create ~n_ctrl:2 ~n_seg:8 ~duration_ns:16. ~max_amp_ghz:0.045 in
  Pulse.randomize (rng 5) ~scale:10. pulse;
  for ctrl = 0 to 1 do
    for seg = 0 to 7 do
      check_bool "amplitude bounded" true (Float.abs (Pulse.amp pulse ~ctrl ~seg) <= 0.045)
    done
  done;
  let resampled = Pulse.resample pulse ~n_seg:16 ~duration_ns:12. in
  check_int "resampled segments" 16 resampled.Pulse.n_seg;
  close ~tol:1e-12 "resampled duration" 12. (Pulse.duration_ns resampled)

let suite =
  [ case "annihilation" test_annihilation;
    case "drift hermitian" test_drift_hermitian;
    case "drift values" test_drift_values;
    case "logical indices" test_logical_indices;
    case "zero pulse identity" test_zero_pulse_identity;
    case "gradient direction" test_gradient_direction;
    case "optimize X gate" test_optimize_x_gate;
    case "carrier bounds" test_carrier_bounds;
    case "carrier gradient direction" test_carrier_gradient_direction;
    case "carrier optimizes HH" test_carrier_optimizes_hh;
    case "lindblad trace and decay" test_lindblad_trace_and_decay;
    case "lindblad open vs closed" test_lindblad_open_vs_closed;
    case "pulse bounds" test_pulse_bounds;
    case "gradient and evaluate vs allocating oracle" test_gradient_vs_oracle;
    case "eight Adam iterations vs oracle" test_adam_vs_oracle;
    case "lindblad vs allocating RK4" test_lindblad_vs_oracle ]
