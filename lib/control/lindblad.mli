(** Open-system evaluation of synthesized pulses.

    The paper synthesizes pulses against a *closed* system and notes that
    "the closed system considered does not account for the full dynamics of
    a real quantum device" (Sec. 3.3). This module closes that gap for
    evaluation: it integrates the Lindblad master equation

      dρ/dt = −i·2π[H(t), ρ] + Σ_k γ_k (a_k ρ a_k† − ½{a_k†a_k, ρ})

    with the annihilation collapse operators a_k at rate γ_k = 1/T1. Because
    a's matrix elements scale as √m, level m decays at rate m/T1 — exactly
    the per-level T1/k scaling the evaluation assumes (Sec. 6.2).

    Integration is RK4 on the full density matrix; intended dimensions are
    the pulse-synthesis ones (≤ 25). Each public call builds the segment
    Hamiltonians and collapse operators once and runs every RK4 stage in
    preallocated buffers ({!Mat.mul_into}), so a step allocates nothing.
    Each call is recorded as one [control/lindblad] span. *)

open Waltz_linalg

val evolve :
  Transmon.spec -> Pulse.t -> t1_ns:float -> rho0:Mat.t -> ?substeps:int -> unit -> Mat.t
(** Evolve an initial density matrix through the pulse. [substeps]
    subdivides each pulse segment for the integrator (default chosen so the
    RK4 step is ≤ 0.05 ns). Trace is preserved to integrator accuracy. *)

val average_fidelity :
  Transmon.spec ->
  Pulse.t ->
  target:Mat.t ->
  logical_levels:int array ->
  t1_ns:float ->
  samples:int ->
  seed:int ->
  float
(** Monte-Carlo estimate of the open-system average gate fidelity: for
    Haar-random logical inputs |ψ⟩, the mean of ⟨ψ_V|ρ_final|ψ_V⟩ with
    ψ_V = V|ψ⟩ the closed-system target output. The Hamiltonians and
    buffers are shared by all [samples] evolutions. *)
