(** Carrier-wave pulse parameterization (the Juqbox / Petersson–Garcia
    ansatz, ref. [47] of the paper).

    Each drive line's complex envelope is a sum over a few fixed carrier
    frequencies of slowly varying piecewise-constant complex envelopes:

      Ω_l(t) = Σ_c (a_{l,c}(t) + i·b_{l,c}(t)) · e^{−2πi·f_c·t}

    with the in-phase / quadrature drives p = Re Ω, q = Im Ω. The carriers
    supply the fast oscillation needed to address the anharmonic 1–2 and
    2–3 transitions, so the *parameters* can live on a coarse grid (a
    handful of envelope segments) even though propagation still runs at
    sub-ns resolution. Typical carriers in the rotating frame are the
    transition offsets 0, ξ, 2ξ.

    Envelope coefficients are tanh-bounded and scaled by the carrier count
    so the physical drive never exceeds the hardware bound. *)

type t = {
  n_lines : int;  (** transmons (2 quadrature controls each) *)
  carriers : float array;  (** carrier offsets in GHz *)
  n_env : int;  (** coarse envelope segments *)
  fine_per_env : int;  (** propagation steps per envelope segment *)
  duration_ns : float;
  theta : float array;  (** unconstrained params, see [param_count] *)
  max_amp_ghz : float;
}

val create :
  n_lines:int ->
  carriers:float array ->
  n_env:int ->
  fine_per_env:int ->
  duration_ns:float ->
  max_amp_ghz:float ->
  t

val randomize : Waltz_linalg.Rng.t -> scale:float -> t -> unit

val param_count : t -> int
(** n_lines × |carriers| × n_env × 2 (real and imaginary envelopes). *)

val fine_dt_ns : t -> float

val amplitudes : t -> float array array
(** The realized drive amplitudes on the fine grid: a
    [2·n_lines][n_env·fine_per_env] array (quadrature pairs per line),
    ready for [Grape.amplitude_gradient]. *)

val param_gradient : t -> float array array -> float array
(** Chains a gradient w.r.t. fine amplitudes back to the θ parameters. *)

val optimize :
  ?learning_rate:float -> ?iters:int -> Grape.objective -> t -> Grape.opt_report
(** Adam descent on the carrier parameters (mutates θ in place), through
    {!Grape.optimize_params}. Recorded as one [control/carrier] span. *)
