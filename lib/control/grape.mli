(** GRAPE optimal control: gradient ascent on the Eq. 1 gate fidelity with a
    leakage penalty, over piecewise-constant bounded pulses.

    {b Propagators.} Segment s evolves under H_s = H_0 + Σ_c f_c(s)·H_c for
    dt; its propagator U_s = exp(−i·2π·dt·H_s) comes from
    {!Mat.expm_into} (scaling and squaring over Padé approximants). The
    drift H_0, the drive operators H_c and the embedded target are built
    once per call (once per run for {!optimize}); each H_c is a ladder
    operator kept as its list of nonzeros, so assembling H_s costs
    O(nnz). The per-segment products live in buffers allocated once, so a
    gradient allocates nothing per segment.

    {b Gradient.} The first-order segment-propagator approximation
    dU_s ≈ −i·2π·dt·H_c·U_s, with F_s = U_s···U_1 accumulated forward and
    two co-states accumulated backward:

      X_{S−1} = V†,     X_{s} = X_{s+1}·U_{s+1}
      Y_{S−1} = ΠU†Π,   Y_{s} = Y_{s+1}·U_{s+1}

    so dT/df_c(s) = −i·2π·dt·Tr(H_c·F_{s+1}·X_s) and the leakage term uses
    Y_s the same way. X and Y vanish outside the logical rows, and each
    trace is summed over H_c's nonzeros only: O(nnz·h) per control and
    segment, on top of three products per segment (the forward step and
    the two co-state steps). {!evaluate} runs the forward sweep alone with
    one running product. Adam does the update. *)

open Waltz_linalg

type objective = {
  spec : Transmon.spec;
  target : Mat.t;  (** unitary on the logical subspace (dimension h) *)
  logical_levels : int array;  (** logical levels per transmon *)
  leak_weight : float;  (** weight of the guard-population penalty L *)
}

type evaluation = {
  fidelity : float;  (** Eq. 1: |Tr(V†·ΠUΠ)|²/h² *)
  leakage : float;  (** 1 − mean logical-input population remaining logical *)
  propagator : Mat.t;  (** full-space U for the current pulse *)
}

val evaluate : objective -> Pulse.t -> evaluation

val gradient : objective -> Pulse.t -> float array * evaluation
(** d(1 − F + λL)/dθ for every pulse parameter, plus the evaluation. *)

val amplitude_gradient :
  objective -> dt_ns:float -> float array array -> float array array * evaluation
(** d(1 − F + λL)/df for every raw segment amplitude (a [n_ctrl][n_seg]
    array in GHz, controls 2k/2k+1 the quadratures of transmon k) — the
    building block for alternative pulse parameterizations such as
    [Carrier]. *)

val evaluate_amplitudes : objective -> dt_ns:float -> float array array -> evaluation
(** Evaluation for raw segment amplitudes. *)

type opt_report = {
  final : evaluation;
  iterations : int;
  history : float list;  (** objective value per iteration, oldest first *)
}

val optimize :
  ?learning_rate:float -> ?iters:int -> objective -> Pulse.t -> opt_report
(** Adam descent on the objective, mutating the pulse in place (default 300
    iterations, rate 0.1). Keeps the best parameters seen. Recorded as one
    [control/optimize] span. *)

val optimize_params :
  ?learning_rate:float ->
  ?iters:int ->
  objective ->
  dt_ns:float ->
  theta:float array ->
  amplitudes:(unit -> float array array) ->
  chain:(float array array -> float array) ->
  opt_report
(** The Adam loop behind {!optimize} and [Carrier.optimize], for any
    parameterization θ of the segment amplitudes: [amplitudes ()] realizes
    the current [theta] (which is updated in place), [chain] maps an
    amplitude gradient to a θ gradient. Ends at the best θ seen. *)
