(** High-level pulse synthesis: random-restart GRAPE plus the iterative
    duration-shrinking loop of Seifert et al. (ref. [51] of the paper) that
    the calibration tables were produced with. *)

open Waltz_linalg

type report = {
  fidelity : float;
  leakage : float;
  duration_ns : float;
  iterations : int;
}

val synthesize :
  ?seed:int ->
  ?restarts:int ->
  ?iters:int ->
  ?leak_weight:float ->
  spec:Transmon.spec ->
  target:Mat.t ->
  logical_levels:int array ->
  duration_ns:float ->
  segments:int ->
  unit ->
  report * Pulse.t
(** Best-of-[restarts] GRAPE runs from random initializations. Recorded as
    one [control/synthesize] span around the restarts' [control/optimize]
    spans. *)

val shrink_duration :
  ?seed:int ->
  ?iters:int ->
  ?shrink:float ->
  ?max_rounds:int ->
  spec:Transmon.spec ->
  target:Mat.t ->
  logical_levels:int array ->
  start_duration_ns:float ->
  segments:int ->
  target_fidelity:float ->
  unit ->
  report list
(** Re-optimizes at successively shorter durations (factor [shrink], default
    0.85), re-seeding each round from the previous pulse, until the target
    fidelity is lost; returns one report per round (the last entries may be
    below target). Recorded as one [control/shrink_duration] span. *)

(** {1 Named targets} *)

val x_target : Mat.t
(** Single-qubit X on the first two levels. *)

val h_target : Mat.t

val hh_target : Mat.t
(** H ⊗ H on one ququart — the gate demonstrated on hardware in Fig. 2. *)

val cx_internal_target : Mat.t
(** CX between the two encoded qubits of one ququart (CX¹). *)
