type t = {
  n_lines : int;
  carriers : float array;
  n_env : int;
  fine_per_env : int;
  duration_ns : float;
  theta : float array;
  max_amp_ghz : float;
}

let param_count_of ~n_lines ~n_carriers ~n_env = n_lines * n_carriers * n_env * 2

let create ~n_lines ~carriers ~n_env ~fine_per_env ~duration_ns ~max_amp_ghz =
  if n_lines < 1 || n_env < 1 || fine_per_env < 1 then invalid_arg "Carrier.create";
  if Array.length carriers = 0 then invalid_arg "Carrier.create: need carriers";
  if duration_ns <= 0. || max_amp_ghz <= 0. then invalid_arg "Carrier.create";
  { n_lines;
    carriers = Array.copy carriers;
    n_env;
    fine_per_env;
    duration_ns;
    theta =
      Array.make (param_count_of ~n_lines ~n_carriers:(Array.length carriers) ~n_env) 0.;
    max_amp_ghz }

let randomize rng ~scale t =
  for k = 0 to Array.length t.theta - 1 do
    t.theta.(k) <- scale *. Waltz_linalg.Rng.gaussian rng
  done

let param_count t = Array.length t.theta
let n_fine t = t.n_env * t.fine_per_env
let fine_dt_ns t = t.duration_ns /. float_of_int (n_fine t)

(* θ layout: index = (((line * n_carriers + carrier) * n_env + env) * 2 + re/im). *)
let idx t ~line ~carrier ~env ~imag =
  let n_carriers = Array.length t.carriers in
  ((((line * n_carriers) + carrier) * t.n_env) + env) * 2 + if imag then 1 else 0

(* The per-coefficient bound: each quadrature mixes both the real and
   imaginary envelope of every carrier (|a cosφ − b sinφ| ≤ |a| + |b|), so
   dividing by 2·|carriers| guarantees |p|, |q| ≤ max_amp. *)
let coeff_bound t = t.max_amp_ghz /. (2. *. float_of_int (Array.length t.carriers))

let envelope t ~line ~carrier ~env ~imag =
  coeff_bound t *. tanh t.theta.(idx t ~line ~carrier ~env ~imag)

let envelope_chain t ~line ~carrier ~env ~imag =
  let th = tanh t.theta.(idx t ~line ~carrier ~env ~imag) in
  coeff_bound t *. (1. -. (th *. th))

let two_pi = 2. *. Float.pi

let phase_at t ~carrier ~fine =
  let time = (float_of_int fine +. 0.5) *. fine_dt_ns t in
  -.two_pi *. t.carriers.(carrier) *. time

let amplitudes t =
  let fine = n_fine t in
  let amps = Array.init (2 * t.n_lines) (fun _ -> Array.make fine 0.) in
  for line = 0 to t.n_lines - 1 do
    for s = 0 to fine - 1 do
      let env = s / t.fine_per_env in
      let p = ref 0. and q = ref 0. in
      for c = 0 to Array.length t.carriers - 1 do
        let a = envelope t ~line ~carrier:c ~env ~imag:false in
        let b = envelope t ~line ~carrier:c ~env ~imag:true in
        let phase = phase_at t ~carrier:c ~fine:s in
        let cosp = cos phase and sinp = sin phase in
        (* (a + ib)·e^{iφ}: p = a cosφ − b sinφ, q = a sinφ + b cosφ. *)
        p := !p +. ((a *. cosp) -. (b *. sinp));
        q := !q +. ((a *. sinp) +. (b *. cosp))
      done;
      amps.(2 * line).(s) <- !p;
      amps.((2 * line) + 1).(s) <- !q
    done
  done;
  amps

let param_gradient t damps =
  let grad = Array.make (param_count t) 0. in
  let fine = n_fine t in
  for line = 0 to t.n_lines - 1 do
    for s = 0 to fine - 1 do
      let env = s / t.fine_per_env in
      let dp = damps.(2 * line).(s) and dq = damps.((2 * line) + 1).(s) in
      for c = 0 to Array.length t.carriers - 1 do
        let phase = phase_at t ~carrier:c ~fine:s in
        let cosp = cos phase and sinp = sin phase in
        let chain_a = envelope_chain t ~line ~carrier:c ~env ~imag:false in
        let chain_b = envelope_chain t ~line ~carrier:c ~env ~imag:true in
        let ia = idx t ~line ~carrier:c ~env ~imag:false in
        let ib = idx t ~line ~carrier:c ~env ~imag:true in
        grad.(ia) <- grad.(ia) +. (((dp *. cosp) +. (dq *. sinp)) *. chain_a);
        grad.(ib) <- grad.(ib) +. (((-.dp *. sinp) +. (dq *. cosp)) *. chain_b)
      done
    done
  done;
  grad

let optimize ?learning_rate ?iters obj t =
  Waltz_telemetry.Telemetry.Span.with_ ~name:"control/carrier" (fun () ->
      Grape.optimize_params ?learning_rate ?iters obj ~dt_ns:(fine_dt_ns t) ~theta:t.theta
        ~amplitudes:(fun () -> amplitudes t)
        ~chain:(param_gradient t))
