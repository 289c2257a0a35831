open Waltz_linalg
module Span = Waltz_telemetry.Telemetry.Span

let two_pi = 2. *. Float.pi

(* One evolution's constants and scratch, built once per public call: the
   segment Hamiltonians, the collapse operators with their pieces (rate, a,
   a†, a†a), and the RK4 stage buffers. *)
type system = {
  hs : Mat.t array;
  collapse : (float * Mat.t * Mat.t * Mat.t) array;
  substeps : int;
  dt : float;
  k1 : Mat.t;
  k2 : Mat.t;
  k3 : Mat.t;
  k4 : Mat.t;
  stage : Mat.t;  (* ρ + c·k, the argument of the next stage *)
  t1 : Mat.t;
  t2 : Mat.t;
  t3 : Mat.t;
}

let segment_hamiltonians spec pulse =
  let h0 = Transmon.drift spec in
  let drives = Transmon.drive_ops spec in
  Array.init pulse.Pulse.n_seg (fun seg ->
      let h = ref h0 in
      Array.iteri
        (fun k (re_op, im_op) ->
          let p = Pulse.amp pulse ~ctrl:(2 * k) ~seg in
          let q = Pulse.amp pulse ~ctrl:((2 * k) + 1) ~seg in
          h := Mat.add !h (Mat.add (Mat.scale (Cplx.re p) re_op) (Mat.scale (Cplx.re q) im_op)))
        drives;
      !h)

let collapse_ops spec ~t1_ns =
  let n = Array.length spec.Transmon.levels in
  Array.init n (fun k ->
      let a_local = Transmon.annihilation spec.Transmon.levels.(k) in
      let a =
        Mat.kron_many
          (List.init n (fun i -> if i = k then a_local else Mat.identity spec.Transmon.levels.(i)))
      in
      let adag = Mat.adjoint a in
      (1. /. t1_ns, a, adag, Mat.mul adag a))

let system spec pulse ~t1_ns ?substeps () =
  let substeps =
    match substeps with
    | Some s -> max 1 s
    | None -> max 1 (int_of_float (Float.ceil (pulse.Pulse.dt_ns /. 0.05)))
  in
  let d = Transmon.dim spec in
  let m () = Mat.zeros d d in
  { hs = segment_hamiltonians spec pulse;
    collapse = collapse_ops spec ~t1_ns;
    substeps;
    dt = pulse.Pulse.dt_ns /. float_of_int substeps;
    k1 = m (); k2 = m (); k3 = m (); k4 = m (); stage = m (); t1 = m (); t2 = m (); t3 = m () }

(* out ← dρ/dt = −i·2π[H, ρ] + Σ γ (aρa† − ½{a†a, ρ}). *)
let derivative_into sys ~h rho ~out =
  let { t1; t2; t3; _ } = sys in
  let len = Array.length rho.Mat.re in
  Mat.mul_into ~dst:t1 h rho;
  Mat.mul_into ~dst:t2 rho h;
  (* (x + iy)·(−i·2π) = 2π·y − i·2π·x *)
  for k = 0 to len - 1 do
    out.Mat.re.(k) <- two_pi *. (t1.Mat.im.(k) -. t2.Mat.im.(k));
    out.Mat.im.(k) <- -.(two_pi *. (t1.Mat.re.(k) -. t2.Mat.re.(k)))
  done;
  for c = 0 to Array.length sys.collapse - 1 do
    let gamma, a, adag, n_op = sys.collapse.(c) in
    (* t2 ← ρ·a†, t1 ← a·ρ·a† (the jump), t2 ← a†a·ρ, t3 ← ρ·a†a *)
    Mat.mul_into ~dst:t2 rho adag;
    Mat.mul_into ~dst:t1 a t2;
    Mat.mul_into ~dst:t2 n_op rho;
    Mat.mul_into ~dst:t3 rho n_op;
    for k = 0 to len - 1 do
      out.Mat.re.(k) <-
        out.Mat.re.(k) +. (gamma *. (t1.Mat.re.(k) -. (0.5 *. (t2.Mat.re.(k) +. t3.Mat.re.(k)))));
      out.Mat.im.(k) <-
        out.Mat.im.(k) +. (gamma *. (t1.Mat.im.(k) -. (0.5 *. (t2.Mat.im.(k) +. t3.Mat.im.(k)))))
    done
  done

(* stage ← ρ + c·k *)
let stage_into sys rho c (k : Mat.t) =
  let st = sys.stage in
  for i = 0 to Array.length rho.Mat.re - 1 do
    st.Mat.re.(i) <- rho.Mat.re.(i) +. (c *. k.Mat.re.(i));
    st.Mat.im.(i) <- rho.Mat.im.(i) +. (c *. k.Mat.im.(i))
  done

(* One classical RK4 step of length dt, in place on ρ. *)
let rk4_step sys ~h rho =
  let { k1; k2; k3; k4; stage; dt; _ } = sys in
  derivative_into sys ~h rho ~out:k1;
  stage_into sys rho (dt /. 2.) k1;
  derivative_into sys ~h stage ~out:k2;
  stage_into sys rho (dt /. 2.) k2;
  derivative_into sys ~h stage ~out:k3;
  stage_into sys rho dt k3;
  derivative_into sys ~h stage ~out:k4;
  (* ρ ← ρ + dt/6·(k1 + (2k2 + (2k3 + k4))) *)
  let c = dt /. 6. in
  for i = 0 to Array.length rho.Mat.re - 1 do
    rho.Mat.re.(i) <-
      rho.Mat.re.(i)
      +. (c *. (k1.Mat.re.(i) +. ((2. *. k2.Mat.re.(i)) +. ((2. *. k3.Mat.re.(i)) +. k4.Mat.re.(i)))));
    rho.Mat.im.(i) <-
      rho.Mat.im.(i)
      +. (c *. (k1.Mat.im.(i) +. ((2. *. k2.Mat.im.(i)) +. ((2. *. k3.Mat.im.(i)) +. k4.Mat.im.(i)))))
  done

let evolve_with sys rho0 =
  let rho = Mat.copy rho0 in
  Array.iter
    (fun h ->
      for _ = 1 to sys.substeps do
        rk4_step sys ~h rho
      done)
    sys.hs;
  rho

let evolve spec pulse ~t1_ns ~rho0 ?substeps () =
  Span.with_ ~name:"control/lindblad" (fun () ->
      evolve_with (system spec pulse ~t1_ns ?substeps ()) rho0)

let average_fidelity spec pulse ~target ~logical_levels ~t1_ns ~samples ~seed =
  Span.with_ ~name:"control/lindblad" (fun () ->
      let indices = Transmon.logical_indices spec ~logical_levels in
      let h = Array.length indices in
      if target.Mat.rows <> h then invalid_arg "Lindblad.average_fidelity: target dimension";
      let d = Transmon.dim spec in
      let sys = system spec pulse ~t1_ns () in
      let rng = Rng.make ~seed in
      let total = ref 0. in
      for _ = 1 to samples do
        (* Haar-random logical input, embedded into the full space. *)
        let psi_logical = Vec.gaussian (fun () -> Rng.gaussian rng) h in
        let psi = Vec.create d in
        Array.iteri (fun i gi -> Vec.set psi gi (Vec.get psi_logical i)) indices;
        let rho0 =
          Mat.init d d (fun i j -> Cplx.( *: ) (Vec.get psi i) (Cplx.conj (Vec.get psi j)))
        in
        let rho = evolve_with sys rho0 in
        (* Target output, embedded. *)
        let out_logical = Mat.apply target psi_logical in
        let out = Vec.create d in
        Array.iteri (fun i gi -> Vec.set out gi (Vec.get out_logical i)) indices;
        (* ⟨out|ρ|out⟩ *)
        let acc = ref Cplx.zero in
        for i = 0 to d - 1 do
          for j = 0 to d - 1 do
            acc :=
              Cplx.( +: ) !acc
                (Cplx.( *: ) (Cplx.conj (Vec.get out i))
                   (Cplx.( *: ) (Mat.get rho i j) (Vec.get out j)))
          done
        done;
        total := !total +. !acc.Complex.re
      done;
      !total /. float_of_int samples)
