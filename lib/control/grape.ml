open Waltz_linalg
module Span = Waltz_telemetry.Telemetry.Span

type objective = {
  spec : Transmon.spec;
  target : Mat.t;
  logical_levels : int array;
  leak_weight : float;
}

type evaluation = { fidelity : float; leakage : float; propagator : Mat.t }

let two_pi = 2. *. Float.pi

(* A drive operator as its nonzero entries: flat indices i·d + j and values. *)
type sparse = { idx : int array; vre : float array; vim : float array }

let sparse_of (m : Mat.t) =
  let nz = ref [] in
  for k = Array.length m.Mat.re - 1 downto 0 do
    if m.Mat.re.(k) <> 0. || m.Mat.im.(k) <> 0. then nz := k :: !nz
  done;
  let idx = Array.of_list !nz in
  { idx; vre = Array.map (fun k -> m.Mat.re.(k)) idx; vim = Array.map (fun k -> m.Mat.im.(k)) idx }

(* Everything one objective needs per call, built once: the drift, one
   sparse operator per control (2k and 2k+1 are the quadratures of transmon
   k), V† embedded in the full space, the logical indices (ascending), and
   the scratch the propagation reuses. *)
type problem = {
  leak_weight : float;
  dim : int;
  h : int;
  logical : int array;
  drift : Mat.t;
  ctrls : sparse array;
  v_dag : Mat.t;
  ws : Mat.expm_workspace;
  gen : Mat.t;  (* −i·2π·dt·H_s *)
  mutable us : Mat.t array;  (* U_s, one per segment *)
  mutable fwd : Mat.t array;  (* F_s = U_s···U_1, F_0 = I *)
  co : Mat.t array;  (* two co-state pairs: X_s, X_{s−1}, Y_s, Y_{s−1} *)
  tr : float array;  (* the last sparse trace, re and im *)
}

let problem obj =
  let d = Transmon.dim obj.spec in
  let logical = Transmon.logical_indices obj.spec ~logical_levels:obj.logical_levels in
  let h = Array.length logical in
  if obj.target.Mat.rows <> h then invalid_arg "Grape: target dimension mismatch";
  let v_dag = Mat.zeros d d in
  for i = 0 to h - 1 do
    for j = 0 to h - 1 do
      Mat.set v_dag logical.(i) logical.(j) (Cplx.conj (Mat.get obj.target j i))
    done
  done;
  let ctrls =
    Transmon.drive_ops obj.spec
    |> Array.to_list
    |> List.concat_map (fun (re_op, im_op) -> [ sparse_of re_op; sparse_of im_op ])
    |> Array.of_list
  in
  { leak_weight = obj.leak_weight; dim = d; h; logical; drift = Transmon.drift obj.spec; ctrls; v_dag;
    ws = Mat.expm_workspace d; gen = Mat.zeros d d; us = [||]; fwd = [||];
    co = Array.init 4 (fun _ -> Mat.zeros d d); tr = [| 0.; 0. |] }

let set_identity (m : Mat.t) =
  Array.fill m.Mat.re 0 (Array.length m.Mat.re) 0.;
  Array.fill m.Mat.im 0 (Array.length m.Mat.im) 0.;
  for i = 0 to m.Mat.rows - 1 do
    m.Mat.re.((i * m.Mat.cols) + i) <- 1.
  done

(* Sizes the per-segment buffers; they persist across calls on [p]. *)
let reserve p n_seg =
  if Array.length p.us <> n_seg then begin
    p.us <- Array.init n_seg (fun _ -> Mat.zeros p.dim p.dim);
    p.fwd <- Array.init (n_seg + 1) (fun _ -> Mat.zeros p.dim p.dim);
    set_identity p.fwd.(0)
  end

(* Amplitudes as a [n_ctrl][n_seg] array in GHz; controls 2k and 2k+1 are
   the two quadratures of transmon k. *)
let pulse_amplitudes pulse =
  Array.init pulse.Pulse.n_ctrl (fun ctrl ->
      Array.init pulse.Pulse.n_seg (fun seg -> Pulse.amp pulse ~ctrl ~seg))

(* dst ← exp(−i·2π·dt·(H_0 + Σ_c f_c(s)·H_c)). Controls beyond the drive
   operators (if any) do not act. *)
let propagator_into p ~dt_ns amps seg ~dst =
  let g = p.gen and drift = p.drift in
  Array.blit drift.Mat.re 0 g.Mat.re 0 (Array.length g.Mat.re);
  Array.blit drift.Mat.im 0 g.Mat.im 0 (Array.length g.Mat.im);
  for c = 0 to min (Array.length amps) (Array.length p.ctrls) - 1 do
    let f = amps.(c).(seg) and op = p.ctrls.(c) in
    for n = 0 to Array.length op.idx - 1 do
      let k = op.idx.(n) in
      g.Mat.re.(k) <- g.Mat.re.(k) +. (f *. op.vre.(n));
      g.Mat.im.(k) <- g.Mat.im.(k) +. (f *. op.vim.(n))
    done
  done;
  (* Multiply by −i·2π·dt in place: (a + ib)·(−ic) = cb − ica. *)
  let c = two_pi *. dt_ns in
  for k = 0 to Array.length g.Mat.re - 1 do
    let a = g.Mat.re.(k) in
    g.Mat.re.(k) <- c *. g.Mat.im.(k);
    g.Mat.im.(k) <- -.(c *. a)
  done;
  Mat.expm_into p.ws ~dst g

(* F and L of the full-space propagator u; both are sums over the logical
   block only (V† and Π vanish outside it). *)
let evaluation_of p u =
  let d = p.dim and lg = p.logical in
  let tre = ref 0. and tim = ref 0. in
  for a = 0 to p.h - 1 do
    for b = 0 to p.h - 1 do
      let i = lg.(a) and j = lg.(b) in
      let vre = p.v_dag.Mat.re.((i * d) + j) and vim = p.v_dag.Mat.im.((i * d) + j) in
      let ure = u.Mat.re.((j * d) + i) and uim = u.Mat.im.((j * d) + i) in
      tre := !tre +. (vre *. ure) -. (vim *. uim);
      tim := !tim +. (vre *. uim) +. (vim *. ure)
    done
  done;
  let fidelity = ((!tre *. !tre) +. (!tim *. !tim)) /. float_of_int (p.h * p.h) in
  (* ‖ΠUΠ‖²_F, real parts first. *)
  let pop = ref 0. in
  List.iter
    (fun (part : float array) ->
      Array.iter
        (fun i -> Array.iter (fun j -> pop := !pop +. (part.((i * d) + j) *. part.((i * d) + j))) lg)
        lg)
    [ u.Mat.re; u.Mat.im ];
  let leakage = 1. -. (!pop /. float_of_int p.h) in
  ({ fidelity; leakage; propagator = Mat.copy u }, (!tre, !tim))

let check_amps amps =
  if Array.length amps = 0 || Array.length amps.(0) = 0 then
    invalid_arg "Grape: empty amplitudes"

let evaluate_with p ~dt_ns amps =
  check_amps amps;
  let n_seg = Array.length amps.(0) in
  (* One running product: cur ← U_s·cur. *)
  let u_s = p.co.(0) in
  let cur = ref p.co.(1) and next = ref p.co.(2) in
  set_identity !cur;
  for s = 0 to n_seg - 1 do
    propagator_into p ~dt_ns amps s ~dst:u_s;
    Mat.mul_into ~dst:!next u_s !cur;
    let t = !cur in
    cur := !next;
    next := t
  done;
  fst (evaluation_of p !cur)

(* p.tr ← Σ_{(i,j) ∈ nnz(op)} op_ij·Σ_{l logical} F_jl·M_li = Tr(op·F·M)
   for M whose rows vanish outside the logical block. *)
let sparse_trace p op (f : Mat.t) (m : Mat.t) =
  let d = p.dim and lg = p.logical in
  let re = ref 0. and im = ref 0. in
  for n = 0 to Array.length op.idx - 1 do
    let k = op.idx.(n) in
    let i = k / d and j = k mod d in
    let zre = ref 0. and zim = ref 0. in
    for a = 0 to p.h - 1 do
      let l = lg.(a) in
      let fre = f.Mat.re.((j * d) + l) and fim = f.Mat.im.((j * d) + l) in
      let mre = m.Mat.re.((l * d) + i) and mim = m.Mat.im.((l * d) + i) in
      zre := !zre +. (fre *. mre) -. (fim *. mim);
      zim := !zim +. (fre *. mim) +. (fim *. mre)
    done;
    let ore = op.vre.(n) and oim = op.vim.(n) in
    re := !re +. (ore *. !zre) -. (oim *. !zim);
    im := !im +. (ore *. !zim) +. (oim *. !zre)
  done;
  p.tr.(0) <- !re;
  p.tr.(1) <- !im

let gradient_with p ~dt_ns amps =
  check_amps amps;
  let n_seg = Array.length amps.(0) and d = p.dim and h = p.h in
  reserve p n_seg;
  let us = p.us and fwd = p.fwd in
  for s = 0 to n_seg - 1 do
    propagator_into p ~dt_ns amps s ~dst:us.(s);
    Mat.mul_into ~dst:fwd.(s + 1) us.(s) fwd.(s)
  done;
  let eval, (t_re, t_im) = evaluation_of p fwd.(n_seg) in
  (* Co-states X_s = V†·U_S···U_{s+2} and Y_s = ΠU†Π·U_S···U_{s+2}, from
     X_{S−1} = V† and Y_{S−1} = ΠU†Π by right-multiplication. *)
  let x = ref p.co.(0) and x' = ref p.co.(1) and y = ref p.co.(2) and y' = ref p.co.(3) in
  Array.blit p.v_dag.Mat.re 0 !x.Mat.re 0 (d * d);
  Array.blit p.v_dag.Mat.im 0 !x.Mat.im 0 (d * d);
  let u = fwd.(n_seg) in
  Array.fill !y.Mat.re 0 (d * d) 0.;
  Array.fill !y.Mat.im 0 (d * d) 0.;
  Array.iter
    (fun i ->
      Array.iter
        (fun j ->
          !y.Mat.re.((i * d) + j) <- u.Mat.re.((j * d) + i);
          !y.Mat.im.((i * d) + j) <- -.u.Mat.im.((j * d) + i))
        p.logical)
    p.logical;
  let n_ctrl = Array.length amps in
  let grad = Array.init n_ctrl (fun _ -> Array.make n_seg 0.) in
  let hh = float_of_int (h * h) and c = two_pi *. dt_ns in
  let lw = p.leak_weight in
  for s = n_seg - 1 downto 0 do
    if s < n_seg - 1 then begin
      Mat.mul_into ~dst:!x' !x us.(s + 1);
      Mat.mul_into ~dst:!y' !y us.(s + 1);
      let t = !x in
      x := !x';
      x' := t;
      let t = !y in
      y := !y';
      y' := t
    end;
    for ctrl = 0 to min n_ctrl (Array.length p.ctrls) - 1 do
      let op = p.ctrls.(ctrl) in
      (* dT/df = −i·2π·dt·Tr(V†·B·H·F) = −i·2π·dt·Tr(H·F·X). *)
      sparse_trace p op fwd.(s + 1) !x;
      let dre = c *. p.tr.(1) and dim = -.(c *. p.tr.(0)) in
      let d_fid = 2. /. hh *. ((t_re *. dre) +. (t_im *. dim)) in
      sparse_trace p op fwd.(s + 1) !y;
      let d_leak = -.(2. *. (c *. p.tr.(1))) /. float_of_int h in
      grad.(ctrl).(s) <- -.d_fid +. (lw *. d_leak)
    done
  done;
  (grad, eval)

let evaluate_amplitudes obj ~dt_ns amps = evaluate_with (problem obj) ~dt_ns amps

let evaluate obj pulse = evaluate_amplitudes obj ~dt_ns:pulse.Pulse.dt_ns (pulse_amplitudes pulse)

let amplitude_gradient obj ~dt_ns amps = gradient_with (problem obj) ~dt_ns amps

(* Chains amplitude derivatives through the tanh bound to θ. *)
let pulse_chain pulse damps =
  let n_seg = pulse.Pulse.n_seg in
  let grad = Array.make (Pulse.param_count pulse) 0. in
  for ctrl = 0 to pulse.Pulse.n_ctrl - 1 do
    for s = 0 to n_seg - 1 do
      let chain = Pulse.amp_gradient_factor pulse ~ctrl ~seg:s in
      grad.((ctrl * n_seg) + s) <- damps.(ctrl).(s) *. chain
    done
  done;
  grad

let gradient obj pulse =
  let damps, eval =
    amplitude_gradient obj ~dt_ns:pulse.Pulse.dt_ns (pulse_amplitudes pulse)
  in
  (pulse_chain pulse damps, eval)

type opt_report = { final : evaluation; iterations : int; history : float list }

let optimize_params ?(learning_rate = 0.1) ?(iters = 300) obj ~dt_ns ~theta ~amplitudes ~chain =
  let p = problem obj in
  let n = Array.length theta in
  let m = Array.make n 0. and v = Array.make n 0. in
  let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  let history = ref [] in
  let best = ref None in
  for it = 1 to iters do
    let damps, eval = gradient_with p ~dt_ns (amplitudes ()) in
    let grad = chain damps in
    let objective = 1. -. eval.fidelity +. (obj.leak_weight *. eval.leakage) in
    history := objective :: !history;
    (match !best with
    | Some (f, _) when f >= eval.fidelity -> ()
    | _ -> best := Some (eval.fidelity, Array.copy theta));
    let b1t = 1. -. (beta1 ** float_of_int it) and b2t = 1. -. (beta2 ** float_of_int it) in
    for k = 0 to n - 1 do
      m.(k) <- (beta1 *. m.(k)) +. ((1. -. beta1) *. grad.(k));
      v.(k) <- (beta2 *. v.(k)) +. ((1. -. beta2) *. grad.(k) *. grad.(k));
      let mhat = m.(k) /. b1t and vhat = v.(k) /. b2t in
      theta.(k) <- theta.(k) -. (learning_rate *. mhat /. (sqrt vhat +. eps))
    done
  done;
  (* Keep the best parameters seen. *)
  (match !best with
  | Some (_, best_theta) -> Array.blit best_theta 0 theta 0 n
  | None -> ());
  let final = evaluate_with p ~dt_ns (amplitudes ()) in
  { final; iterations = iters; history = List.rev !history }

let optimize ?learning_rate ?iters obj pulse =
  Span.with_ ~name:"control/optimize" (fun () ->
      optimize_params ?learning_rate ?iters obj ~dt_ns:pulse.Pulse.dt_ns ~theta:pulse.Pulse.theta
        ~amplitudes:(fun () -> pulse_amplitudes pulse)
        ~chain:(pulse_chain pulse))
