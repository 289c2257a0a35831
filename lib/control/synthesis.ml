open Waltz_linalg
open Waltz_qudit
module Span = Waltz_telemetry.Telemetry.Span

type report = {
  fidelity : float;
  leakage : float;
  duration_ns : float;
  iterations : int;
}

let report_of (eval : Grape.evaluation) ~duration_ns ~iterations =
  { fidelity = eval.Grape.fidelity;
    leakage = eval.Grape.leakage;
    duration_ns;
    iterations }

let synthesize ?(seed = 11) ?(restarts = 2) ?(iters = 200) ?(leak_weight = 0.1) ~spec
    ~target ~logical_levels ~duration_ns ~segments () =
  Span.with_ ~name:"control/synthesize" @@ fun () ->
  let n_ctrl = 2 * Array.length spec.Transmon.levels in
  let obj = { Grape.spec; target; logical_levels; leak_weight } in
  let rng = Rng.make ~seed in
  let best = ref None in
  for _ = 1 to max 1 restarts do
    let pulse =
      Pulse.create ~n_ctrl ~n_seg:segments ~duration_ns ~max_amp_ghz:spec.Transmon.max_drive_ghz
    in
    Pulse.randomize rng ~scale:0.3 pulse;
    let r = Grape.optimize ~iters obj pulse in
    match !best with
    | Some (e, _) when e.Grape.fidelity >= r.Grape.final.Grape.fidelity -> ()
    | _ -> best := Some (r.Grape.final, pulse)
  done;
  match !best with
  | Some (eval, pulse) -> (report_of eval ~duration_ns ~iterations:iters, pulse)
  | None -> assert false

let shrink_duration ?(seed = 11) ?(iters = 150) ?(shrink = 0.85) ?(max_rounds = 6) ~spec
    ~target ~logical_levels ~start_duration_ns ~segments ~target_fidelity () =
  Span.with_ ~name:"control/shrink_duration" @@ fun () ->
  let obj = { Grape.spec; target; logical_levels; leak_weight = 0.1 } in
  let first_report, first_pulse =
    synthesize ~seed ~restarts:2 ~iters ~spec ~target ~logical_levels
      ~duration_ns:start_duration_ns ~segments ()
  in
  let reports = ref [ first_report ] in
  let pulse = ref first_pulse in
  let duration = ref start_duration_ns in
  let continue = ref (first_report.fidelity >= target_fidelity) in
  let rounds = ref 0 in
  while !continue && !rounds < max_rounds do
    incr rounds;
    duration := !duration *. shrink;
    let seeded = Pulse.resample !pulse ~n_seg:segments ~duration_ns:!duration in
    let r = Grape.optimize ~iters obj seeded in
    reports := report_of r.Grape.final ~duration_ns:!duration ~iterations:iters :: !reports;
    pulse := seeded;
    if r.Grape.final.Grape.fidelity < target_fidelity then continue := false
  done;
  List.rev !reports

let x_target = Gates.x
let h_target = Gates.h
let hh_target = Mat.kron Gates.h Gates.h
let cx_internal_target = Ququart_gates.internal_cx ~target_slot:1
