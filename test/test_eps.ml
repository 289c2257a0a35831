open Waltz_circuit
open Waltz_core
open Waltz_noise
open Test_util

let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]

let test_gate_eps_product () =
  let compiled = Compile.compile Strategy.mixed_radix_ccz toffoli in
  let eps = Eps.estimate compiled in
  let expected =
    List.fold_left (fun acc op -> acc *. op.Physical.fidelity) 1. compiled.Physical.ops
  in
  close ~tol:1e-12 "gate EPS is the fidelity product" expected eps.Eps.gate_eps;
  check_bool "coherence below 1" true (eps.Eps.coherence_eps < 1.);
  check_bool "coherence near 1 for a single gate bracket" true (eps.Eps.coherence_eps > 0.9);
  close ~tol:1e-12 "total is the product" (eps.Eps.gate_eps *. eps.Eps.coherence_eps)
    eps.Eps.total_eps

let test_more_gates_lower_eps () =
  let c1 = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:2 in
  let c2 = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:4 in
  let e1 = Eps.estimate (Compile.compile Strategy.qubit_only c1) in
  let e2 = Eps.estimate (Compile.compile Strategy.qubit_only c2) in
  check_bool "bigger circuit has lower EPS" true (e2.Eps.total_eps < e1.Eps.total_eps);
  check_bool "bigger circuit is longer" true (e2.Eps.duration_ns > e1.Eps.duration_ns)

let test_strategies_ranking () =
  (* On a Toffoli-heavy circuit the ququart strategies should beat the
     qubit-only baseline in gate EPS (the paper's Fig. 8 left panel). *)
  let c = Waltz_benchmarks.Bench_circuits.cnu ~controls:4 in
  let eps s = (Eps.estimate (Compile.compile s c)).Eps.gate_eps in
  let qubit = eps Strategy.qubit_only in
  let mr = eps Strategy.mixed_radix_ccz in
  let fq = eps Strategy.full_ququart in
  check_bool "mixed-radix gate EPS beats qubit-only" true (mr > qubit);
  check_bool "full-ququart gate EPS beats qubit-only" true (fq > qubit)

let test_ww_error_scaling () =
  let c = Waltz_benchmarks.Bench_circuits.cnu ~controls:3 in
  let compiled = Compile.compile Strategy.full_ququart c in
  let base = Eps.estimate compiled in
  let scaled =
    Eps.estimate ~model:{ Noise.default with Noise.ww_error_scale = 4. } compiled
  in
  check_bool "scaling ww errors lowers gate EPS" true
    (scaled.Eps.gate_eps < base.Eps.gate_eps);
  (* Qubit-only circuits are untouched by the knob. *)
  let qcompiled = Compile.compile Strategy.qubit_only c in
  let qbase = Eps.estimate qcompiled in
  let qscaled =
    Eps.estimate ~model:{ Noise.default with Noise.ww_error_scale = 4. } qcompiled
  in
  close ~tol:1e-12 "qubit-only unaffected" qbase.Eps.gate_eps qscaled.Eps.gate_eps

let test_t1_scaling () =
  let c = Waltz_benchmarks.Bench_circuits.cnu ~controls:3 in
  let compiled = Compile.compile Strategy.full_ququart c in
  let base = Eps.estimate compiled in
  let scaled =
    Eps.estimate ~model:{ Noise.default with Noise.t1_high_scale = 5. } compiled
  in
  check_bool "shorter high-level T1 lowers coherence EPS" true
    (scaled.Eps.coherence_eps < base.Eps.coherence_eps)

(* Appending gates to a *circuit* does not bound the compiled program's
   EPS: the initial placement and disruption-aware routing both weigh the
   whole circuit's interaction graph, so compiling [base ++ tail] can route
   [base]'s own gates more cheaply than compiling [base] alone. Seed 184
   under full-ququart: the same initial map, but the tail's interactions
   make the router pick a different SWAP slot for the fourth gate, and
   total EPS is 0.7269 for [base] and 0.7720 for [base ++ tail]. What the
   pipeline guarantees is monotonicity along a compiled program's own op
   sequence: each appended op multiplies gate EPS by a success probability
   of at most 1, can only extend the ASAP schedule, and coherence EPS never
   exceeds 1. Checked on every prefix of the compiled [base ++ tail]. *)
let check_prefix_monotone seed =
  let base = Waltz_benchmarks.Bench_circuits.synthetic ~n:5 ~gates:6 ~cx_fraction:0.5 ~seed in
  let extended =
    Circuit.append base
      (Waltz_benchmarks.Bench_circuits.synthetic ~n:5 ~gates:4 ~cx_fraction:0.5
         ~seed:(seed + 1))
  in
  let program = Compile.compile Strategy.full_ququart extended in
  let prefix k =
    Eps.estimate
      { program with
        Physical.ops = List.filteri (fun i _ -> i < k) program.Physical.ops;
        schedule_memo = None }
  in
  let fail k what = Alcotest.failf "seed %d: appending op %d %s" seed k what in
  let prev = ref (prefix 0) in
  for k = 1 to List.length program.Physical.ops do
    let e = prefix k in
    if e.Eps.gate_eps > !prev.Eps.gate_eps then fail k "raised gate EPS";
    if e.Eps.duration_ns < !prev.Eps.duration_ns then fail k "shortened the schedule";
    if e.Eps.total_eps > e.Eps.gate_eps then fail k "left total EPS above gate EPS";
    prev := e
  done

let prop_eps_monotone_along_ops =
  Test_util.qcheck ~count:10 "EPS is monotone along compiled ops"
    QCheck.(int_range 0 2000)
    (fun seed ->
      check_prefix_monotone seed;
      true)

(* The seeds where the compiled [base ++ tail] has a higher total EPS than
   the compiled [base] (every such seed in 0..2000). *)
let test_eps_known_seeds () =
  List.iter check_prefix_monotone
    [ 37; 184; 510; 560; 887; 1051; 1086; 1113; 1194; 1273; 1332; 1382; 1666; 1997 ]

let suite =
  [ case "gate eps product" test_gate_eps_product;
    prop_eps_monotone_along_ops;
    case "EPS monotone on circuit-level outlier seeds" test_eps_known_seeds;
    case "more gates lower eps" test_more_gates_lower_eps;
    case "strategy ranking" test_strategies_ranking;
    case "ww error scaling" test_ww_error_scaling;
    case "t1 scaling" test_t1_scaling ]
