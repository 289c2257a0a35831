(* The Waltz end-to-end ledger.

   One process runs one workload — [sim-paper], [sweep] or [pulses] — on one
   domain, through the libraries' public functions, and times it from
   outside around those calls. Every timed operation is bracketed by runs
   of the reference loop (refloop.ml): its wall time is divided by the mean
   time of the brackets within one operation-length of it (its own two, for
   a short one) and scaled by the loop's time on the reference host, so
   values read as seconds on that host. Every
   output is checked against perfbench/reference.tsv. perfbench/run.py
   builds and drives this executable; perfbench/README.md describes the
   workloads, the metrics and the record.

   Modes:
     ledger.exe setup     --workload W --seed S
       set up W and print the CPU seconds the process has used
     ledger.exe run       --workload W --seed S --seconds N --trace 0|1
                          [--inject CLASS]
       set up W, run passes of it for N seconds and print one JSON record;
       --inject busy-waits an extra 20% of every CLASS operation's time
     ledger.exe reference
       recompute perfbench/reference.tsv
     ledger.exe calibrate
       print the reference loop's median time on this host
   [--tiny] shrinks every workload to a few seconds (the self-check). *)

open Waltz_linalg
open Waltz_qudit
open Waltz_circuit
open Waltz_noise
open Waltz_core
open Waltz_benchmarks
open Waltz_control
module Telemetry = Waltz_telemetry.Telemetry
module Json = Waltz_telemetry.Json
module Kernel = Waltz_sim.Kernel
module Verify = Waltz_verify.Verify
module Diagnostic = Waltz_verify.Diagnostic
module Analysis = Waltz_analysis.Analysis
module Resource = Waltz_analysis.Resource

(* ---------------- clocks and statistics ---------------- *)

(* Monotonic seconds (ledger_stubs.c explains why not the telemetry clock). *)
external now : unit -> (float[@unboxed]) = "ledger_monotonic_s_byte" "ledger_monotonic_s"
[@@noalloc]

(* CPU seconds this process has used since it started. *)
external process_cpu_s : unit -> (float[@unboxed])
  = "ledger_process_cpu_s_byte" "ledger_process_cpu_s"
[@@noalloc]

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sem_of xs =
  let n = List.length xs in
  if n < 2 then nan
  else
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    sqrt (ss /. float_of_int (n - 1) /. float_of_int n)

let bump tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------------- the reference bracket ---------------- *)

(* Refloop.run's median wall time on the reference host, from
   `ledger.exe calibrate` (2 vCPUs, OCaml 5.1.1; see the README's host
   line). A normalized time is an operation's time in units of the loop,
   times this, so it reads as seconds on that host. *)
let reference_s = 6.3e-3

(* A bracket: one run of the loop, from [b0] to [b1]. *)
type bracket = { b0 : float; b1 : float }

let bracket_s b = b.b1 -. b.b0

(* Every bracket of the run, newest first. *)
let brackets : bracket list ref = ref []

(* ---------------- spans, recorded from outside the libraries ---------------- *)

type span = { sname : string; start_s : float; dur_s : float; self_s : float }

let tracing = ref false
let spans : span list ref = ref []

(* Children's total duration for each open span, innermost first. *)
let open_spans : float ref list ref = ref []

(* Raw seconds inside each layer during the current operation; normalized
   when the pass is settled. *)
let op_raw : (string, float) Hashtbl.t = Hashtbl.create 16

(* [call name f] runs one public library call (or one of the ledger's own
   steps) as layer [name]. Its duration always counts toward the current
   operation's layer times, and also toward [also] when given; in a traced
   pass it is also recorded as a span. *)
let call ?also name f =
  let child = ref 0. in
  open_spans := child :: !open_spans;
  let t0 = now () in
  let finish () =
    let dur = now () -. t0 in
    open_spans := List.tl !open_spans;
    (match !open_spans with parent :: _ -> parent := !parent +. dur | [] -> ());
    bump op_raw name dur;
    Option.iter (fun a -> bump op_raw a dur) also;
    if !tracing then
      spans := { sname = name; start_s = t0; dur_s = dur; self_s = dur -. !child } :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let bracket () =
  let b0 = now () in
  call "bench.ref" Refloop.run;
  Hashtbl.remove op_raw "bench.ref";
  let b = { b0; b1 = now () } in
  brackets := b :: !brackets;
  b

(* Chrome trace_event JSON: one "X" event per span on one track. Times are
   rounded to the nanosecond once, at both ends, so rounding never breaks
   containment. *)
let trace_json spans =
  let base = List.fold_left (fun m s -> Float.min m s.start_s) infinity spans in
  let r x = Float.round ((x -. base) *. 1e9) /. 1000. in
  let events =
    List.map (fun s -> (s.sname, r s.start_s, r (s.start_s +. s.dur_s))) spans
    |> List.sort (fun (_, a0, a1) (_, b0, b1) -> compare (a0, -.a1) (b0, -.b1))
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b
    "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
     \"args\":{\"name\":\"ledger\"}}";
  List.iter
    (fun (name, t0, t1) ->
      Printf.bprintf b
        ",\n{\"name\":\"%s\",\"cat\":\"ledger\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":0}"
        (Json.escape name) t0 (t1 -. t0))
    events;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ---------------- per-pass bookkeeping ---------------- *)

(* A timed operation before its normalization: when it ran, its raw
   seconds per layer and its Monte-Carlo points (point, sem², raw s). *)
type pending = {
  label : string;
  cls : string;
  t0 : float;
  t1 : float;
  op_layers : (string * float) list;
  op_points : (string * float * float) list;
}

(* A simulated fidelity [f] with its sem [se], against an expected value
   with its own standard error. *)
type deviation = { f : float; se : float; expected : float; expected_se : float }

type pass = {
  mutable attempted : int;
  mutable failed : int;
  mutable unexpected : int;  (** failures other than the documented defect *)
  mutable ops : (string * string * float * float) list;
      (** (label, class, normalized s, raw s) of every timed operation *)
  mutable op_refs : (float * int) list;
      (** each operation's host-speed estimate: the mean time of the
          brackets it was normalized by, and their number *)
  mutable pending : pending list;  (** operations not yet normalized *)
  mutable pass_brackets : bracket list;
  layers : (string, float) Hashtbl.t;  (** normalized seconds per layer *)
  counts : (string, float) Hashtbl.t;  (** per-layer work counts *)
  mutable mc : (string * string * float * float) list;
      (** (operation, point, sem², normalized s) of every Monte-Carlo point
          the workload's [mc_efficiency] pools *)
  mutable pulse_fs : float list;
  mutable deviations : (string * deviation) list;
  mutable wall_s : float;  (** raw, the whole pass with its brackets *)
}

let new_pass () =
  { attempted = 0; failed = 0; unexpected = 0; ops = []; op_refs = []; pending = [];
    pass_brackets = []; layers = Hashtbl.create 32;
    counts = Hashtbl.create 32; mc = []; pulse_fs = []; deviations = []; wall_s = 0. }

let cur = ref (new_pass ())
let count name v = bump !cur.counts name v
let counti name v = count name (float_of_int v)

(* Monte-Carlo points of the current operation: (point, sem², raw s). *)
let op_mc : (string * float * float) list ref = ref []

(* --inject: (class, fraction). *)
let inject : (string * float) option ref = ref None

(* A timed operation: [f] followed by a bracket; the previous operation's
   bracket (or the pass's opening one) precedes it. Operations of the
   injected class busy-wait an extra share of their own time before the
   clock stops. The operation is normalized at the end of the pass
   ([settle]). *)
let timed_op ~cls label f =
  let t0 = now () in
  let r = match f () with v -> Ok v | exception e -> Error e in
  (match !inject with
   | Some (c, frac) when c = cls ->
     let until = now () +. (frac *. (now () -. t0)) in
     while now () < until do
       ()
     done
   | _ -> ());
  let t1 = now () in
  let p = !cur in
  p.pending <-
    { label; cls; t0; t1; op_layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) op_raw [];
      op_points = !op_mc }
    :: p.pending;
  Hashtbl.reset op_raw;
  op_mc := [];
  p.pass_brackets <- bracket () :: p.pass_brackets;
  match r with Ok v -> v | Error e -> raise e

(* The host's speed during an operation is estimated from the brackets
   that lie within one operation-length of it, its own two included. For a
   short operation these are its own two brackets. A long one is
   normalized by a window as long as itself on either side: on a shared
   host the speed changes on a scale of a second, so the two brackets of a
   two-second operation are point samples that say little about its
   average, and dividing by them alone made such operations noisier than
   their raw times (see the README). [slack_s] covers the ledger's
   bookkeeping between an operation and its brackets. *)
let slack_s = 0.005

let settle (p : pass) =
  List.iter
    (fun op ->
      let w = op.t1 -. op.t0 +. slack_s in
      let near =
        List.filter (fun b -> b.b1 >= op.t0 -. w && b.b0 <= op.t1 +. w) p.pass_brackets
      in
      let ref_s = mean (List.map bracket_s near) in
      let scale = reference_s /. ref_s in
      p.ops <- (op.label, op.cls, (op.t1 -. op.t0) *. scale, op.t1 -. op.t0) :: p.ops;
      p.op_refs <- (ref_s, List.length near) :: p.op_refs;
      List.iter (fun (k, v) -> bump p.layers k (v *. scale)) op.op_layers;
      List.iter (fun (k, s2, raw) -> p.mc <- (op.label, k, s2, raw *. scale) :: p.mc) op.op_points)
    (List.rev p.pending);
  p.pending <- []

(* A replayed measurement of the traced run: [f] between two fresh brackets;
   returns its value and the factor that normalizes its raw seconds. *)
let normalized f =
  let before = bracket () in
  let v = f () in
  let after = bracket () in
  (v, reference_s /. (0.5 *. (bracket_s before +. bracket_s after)))

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let notes : string list ref = ref []
let note msg = if List.length !notes < 40 then notes := msg :: !notes

(* Checks made once per run rather than per pass: attempted, failed. *)
let run_checks = ref 0
let run_failures = ref 0

let run_check ok msg =
  incr run_checks;
  if not ok then begin
    incr run_failures;
    note msg
  end

let failure ~known what msg =
  let p = !cur in
  p.failed <- p.failed + 1;
  if not known then p.unexpected <- p.unexpected + 1;
  note (Printf.sprintf "%s%s: %s" (if known then "[known defect] " else "") what msg)

(* Output checks run after the pass's clock stops (see [timed_pass]). *)
let deferred : (unit -> unit) list ref = ref []

(* One library call inside an operation, as layer [layer]. An exception or
   a failed (deferred) output check counts as a failure; [known] and
   [known_bad] mark exceptions and outputs that are the documented
   defect. *)
let attempt ?also ?(known = fun _ -> false) ?(known_bad = fun _ -> false) ~layer what f check =
  let p = !cur in
  p.attempted <- p.attempted + 1;
  match call ?also layer f with
  | exception e ->
    failure ~known:(known e) what (Printexc.to_string e);
    None
  | v ->
    deferred :=
      (fun () ->
        match check v with Ok () -> () | Error msg -> failure ~known:(known_bad v) what msg)
      :: !deferred;
    Some v

(* The known defect: the resource analysis sizes registers in native ints.
   The certified peak of a large mixed-radix register wraps below the
   register's own state bytes (cnu-29 under mr-ccz certifies 613 kB), and
   at 41 qubits Analysis.run and Resource.certify raise Division_by_zero
   on the three mixed-radix strategies. Both count as failures. *)
let state_bytes (prog : Physical.t) =
  16. *. (float_of_int prog.Physical.device_dim ** float_of_int prog.Physical.device_count)

let known_overflow (prog : Physical.t) = function
  | Division_by_zero -> prog.Physical.device_dim = 4 && prog.Physical.n_logical >= 41
  | _ -> false

let known_bad_certificate (prog : Physical.t) (c : Resource.t) =
  prog.Physical.n_logical >= 29 && float_of_int c.Resource.peak_bytes < state_bytes prog

(* ---------------- reference outputs ---------------- *)

let reference_path = "perfbench/reference.tsv"
let writing_reference = ref false
let ref_programs : (string, string) Hashtbl.t = Hashtbl.create 256
let ref_eps : (string, string) Hashtbl.t = Hashtbl.create 256
let ref_sims : (string, float * float) Hashtbl.t = Hashtbl.create 128
let ref_exact : (string, float) Hashtbl.t = Hashtbl.create 16

let load_reference () =
  let ic = open_in reference_path in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      (match String.split_on_char '\t' line with
       | [ "prog"; key; md5 ] -> Hashtbl.replace ref_programs key md5
       | [ "eps"; key; totals ] -> Hashtbl.replace ref_eps key totals
       | [ "sim"; key; m; s ] -> Hashtbl.replace ref_sims key (float_of_string m, float_of_string s)
       | [ "exact"; key; f ] -> Hashtbl.replace ref_exact key (float_of_string f)
       | _ -> ());
      loop ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop

let save_reference () =
  let oc = open_out reference_path in
  let dump tag tbl fmt =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
    |> List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\t%s\n" tag k (fmt v))
  in
  output_string oc
    "# Reference outputs of the Waltz ledger; regenerate with\n\
     # `python3 perfbench/run.py --write-reference` (see perfbench/README.md).\n";
  dump "prog" ref_programs Fun.id;
  dump "eps" ref_eps Fun.id;
  dump "sim" ref_sims (fun (m, s) -> Printf.sprintf "%.17g\t%.17g" m s);
  dump "exact" ref_exact (Printf.sprintf "%.17g");
  close_out oc

let against tbl key actual ~what =
  if !writing_reference then begin
    Hashtbl.replace tbl key actual;
    Ok ()
  end
  else
    match Hashtbl.find_opt tbl key with
    | Some expected when expected = actual -> Ok ()
    | Some expected -> Error (Printf.sprintf "%s %s, reference %s" what actual expected)
    | None -> Error ("no reference for " ^ key)

let check_program key prog =
  against ref_programs key ~what:"Physical.dump md5"
    (Digest.to_hex (Digest.string (Physical.dump prog)))

let check_eps key (e : Eps.breakdown) =
  against ref_eps key ~what:"EPS totals"
    (Printf.sprintf "%h %h %h %h" e.Eps.gate_eps e.Eps.coherence_eps e.Eps.total_eps
       e.Eps.duration_ns)

(* A simulated fidelity must fall within [sigmas] combined sems of the
   reference, and of the exact-channel value where one is stored. A sample
   sem reads 0 when every trajectory is error-free, so the simulated sem is
   floored by the Bhatia-Davis bound sqrt(mu (1 - mu) / n), the largest
   standard error a mean of n values in [0, 1] with mean mu can have.
   [exact_slack] covers the exact oracle's own 10-input sampling. At the
   ledger's trajectory counts a point's tolerance is wide, so this check
   catches only gross errors; the pooled check ([pooled_z]) tests every
   point of a pass at once. *)
let sigmas = 5.
let exact_slack = 0.05

(* The standard deviation of the exact oracle's 10-input sampling, for the
   pooled check: over the 15 points that have one, the 64-trajectory
   reference fidelities differ from it with a variance about 1.3 times the
   reference's own sem², which puts the oracle's share near 0.02. *)
let exact_sd = 0.025

let check_fidelity key (d : Executor.detailed) =
  let r = d.Executor.summary in
  let f = r.Executor.mean_fidelity and s = r.Executor.sem in
  let n = float_of_int r.Executor.trajectories in
  if !writing_reference then begin
    Hashtbl.replace ref_sims key (f, s);
    Ok ()
  end
  else if not (Float.is_finite f && f >= -1e-9 && f <= 1. +. 1e-9) then
    Error (Printf.sprintf "fidelity %g outside [0, 1]" f)
  else
    let within ?(pooled_se = 0.) name expected expected_se slack =
      let se = Float.max s (sqrt (Float.max 0. (expected *. (1. -. expected)) /. n)) in
      let p = !cur in
      p.deviations <-
        (name, { f; se; expected; expected_se = Float.max expected_se pooled_se }) :: p.deviations;
      let tol = (sigmas *. sqrt ((se *. se) +. (expected_se *. expected_se))) +. slack in
      if Float.abs (f -. expected) <= tol then Ok ()
      else Error (Printf.sprintf "fidelity %.4f vs %s %.4f (tolerance %.4f)" f name expected tol)
    in
    match Hashtbl.find_opt ref_sims key with
    | None -> Error ("no reference for " ^ key)
    | Some (rf, rs) ->
      let exact =
        match Hashtbl.find_opt ref_exact key with
        | Some exact -> within ~pooled_se:exact_sd "exact" exact 0. exact_slack
        | None -> Ok ()
      in
      (match within "reference" rf rs 0. with Error _ as e -> e | Ok () -> exact)

(* The pooled check of one pass: for each kind of expected value
   (reference, exact), the standardized deviations z = (f - expected) /
   sqrt(se^2 + expected_se^2) of its points, combined as sum z / sqrt N,
   must lie within [sigmas]. Each point simulates from its own seed, so
   the deviations are independent apart from points that share a
   reference value. The Bhatia-Davis floor makes each z at most a standard
   normal, so the test is conservative; it still fails a noise-free
   simulator (every f = 1) and one that doubles the noise. *)
let pooled_z (p : pass) =
  let sums = Hashtbl.create 2 in
  List.iter
    (fun (name, d) ->
      let z = (d.f -. d.expected) /. sqrt ((d.se *. d.se) +. (d.expected_se *. d.expected_se)) in
      let s, k = Option.value ~default:(0., 0) (Hashtbl.find_opt sums name) in
      Hashtbl.replace sums name (s +. z, k + 1))
    p.deviations;
  Hashtbl.fold (fun name (s, k) acc -> (name, s /. sqrt (float_of_int k), k) :: acc) sums []

(* ---------------- library calls ---------------- *)

(* The executor's lockstep width; every simulation runs on one domain, so
   the executor's domain pool is never spawned. *)
let batch = Executor.default_batch ()
let tiny = ref false

let family_slug = function
  | Bench_circuits.Cnu -> "cnu"
  | Bench_circuits.Cuccaro -> "cuccaro"
  | Bench_circuits.Qram -> "qram"
  | Bench_circuits.Select -> "select"

let program_key family n (s : Strategy.t) =
  Printf.sprintf "%s-%d/%s" (family_slug family) n s.Strategy.name

let kernel_classes =
  [ "diagonal"; "monomial"; "controlled_block"; "single_wire"; "two_wire"; "generic" ]

let amps (prog : Physical.t) =
  int_of_float (float_of_int prog.Physical.device_dim ** float_of_int prog.Physical.device_count)

let min_op_fidelity (prog : Physical.t) =
  List.fold_left (fun m (op : Physical.op) -> Float.min m op.Physical.fidelity) 1. prog.Physical.ops

(* Programs simulated by the last traced pass, replayed afterwards for the
   kernel and noise layers. *)
type simulated = { prog : Physical.t; model : Noise.model; traj : int; seed : int }

let simulated : simulated list ref = ref []

let compile_op ~key strategy circuit =
  let r =
    attempt ~layer:"compile" ("compile " ^ key)
      (fun () -> Compile.compile strategy circuit)
      (check_program key)
  in
  Option.iter
    (fun prog ->
      let p = !cur in
      p.pulse_fs <- min_op_fidelity prog :: p.pulse_fs;
      count "compile.calls" 1.;
      counti "compile.ops_out" (Physical.op_count prog);
      counti "compile.two_device_ops" (Physical.two_device_op_count prog);
      count "compile.duration_ns" (Physical.total_duration prog))
    r;
  r

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [mc]: the point counts toward the workload's mc_efficiency. *)
let simulate_op ?(model = Noise.default) ~mc ~key ~traj ~seed prog =
  let config = { Executor.model; trajectories = traj; base_seed = seed } in
  let also =
    match prog.Physical.strategy.Strategy.name with
    | "mr-ccz" -> "executor.mr"
    | "full-ququart" -> "executor.fq"
    | _ -> "executor.other"
  in
  let w0 = if !tracing then alloc_words () else 0. in
  let t0 = now () in
  let r =
    attempt ~also ~layer:"executor" ("simulate " ^ key)
      (fun () -> Executor.simulate_detailed ~config ~domains:1 ~batch prog)
      (check_fidelity key)
  in
  let raw = now () -. t0 in
  Option.iter
    (fun (d : Executor.detailed) ->
      let s = d.Executor.summary.Executor.sem in
      if mc then op_mc := (key, s *. s, raw) :: !op_mc;
      counti "executor.trajectories" traj;
      counti (also ^ ".trajectories") traj;
      counti "executor.register_amps" (amps prog);
      if !tracing then begin
        count "executor.alloc_words" (alloc_words () -. w0);
        simulated := { prog; model; traj; seed } :: !simulated
      end)
    r;
  r

let eps_op ?model ~key prog =
  count "eps.calls" 1.;
  ignore (attempt ~layer:"eps" ("eps " ^ key) (fun () -> Eps.estimate ?model prog) (check_eps key))

let no_errors (r : Diagnostic.report) =
  if Diagnostic.error_count r = 0 then Ok ()
  else
    Error
      (Printf.sprintf "%d error diagnostics (first: %s)" (Diagnostic.error_count r)
         (match Diagnostic.errors r with d :: _ -> d.Diagnostic.rule | [] -> "?"))

let analysis_layer = function
  | Analysis.Stabilizer_pass -> "analysis.stabilizer"
  | Analysis.Leakage_pass -> "analysis.leakage"
  | Analysis.Cost_pass -> "analysis.cost"
  | Analysis.Liveness_pass -> "analysis.liveness"
  | Analysis.Resource_pass -> "analysis.resource"

let first_error reports =
  List.fold_left (fun acc r -> match acc with Ok () -> no_errors r | e -> e) (Ok ()) reports

(* The checks of one compiled program: the IR verifier (its equivalence
   pass timed on its own), every analysis pass (one call each) and the
   resource certificate at the shape the sweep simulates. *)
let check_ops ~key ~traj circuit prog =
  let diagnostics (r : Diagnostic.report) =
    counti "verify.diagnostics" (List.length r.Diagnostic.diagnostics);
    r
  in
  let others = List.filter (fun p -> p <> Verify.Equivalence_pass) Verify.all_passes in
  ignore
    (attempt ~layer:"verify" ("verify " ^ key)
       (fun () ->
         let r = diagnostics (Verify.run ~passes:others (Some circuit) prog) in
         let e =
           call "verify.equivalence" (fun () ->
               Verify.run ~passes:[ Verify.Equivalence_pass ] (Some circuit) prog)
         in
         [ r; diagnostics e ])
       first_error);
  let analysed =
    attempt ~known:(known_overflow prog) ~layer:"analysis" ("analysis " ^ key)
      (fun () ->
        List.map
          (fun pass ->
            call (analysis_layer pass) (fun () -> Analysis.run ~passes:[ pass ] (Some circuit) prog))
          Analysis.all_passes)
      first_error
  in
  if analysed = None then count "analysis.failures" 1.;
  ignore
    (attempt ~known:(known_overflow prog) ~known_bad:(known_bad_certificate prog)
       ~layer:"resource.certify" ("certify " ^ key)
       (fun () -> Resource.certify ~trajectories:traj ~batch ~domains:1 prog)
       (fun c ->
         if c.Resource.ops <> Physical.op_count prog then Error "certificate op count"
         else if float_of_int c.Resource.peak_bytes < state_bytes prog then
           Error
             (Printf.sprintf "certified peak %d bytes below the register's %.0f state bytes"
                c.Resource.peak_bytes (state_bytes prog))
         else Ok ()))

(* Each pass of a run, and each simulated point of a pass, gets its own base
   seed. The executor seeds trajectory k with [base_seed + 7919 k]; passes
   step their base seed by 7919 * 4096 and points by 1, so no two points of
   a run (nor two runs) share a trajectory stream. *)
let pass_seed seed pass = (seed * 1_000_003) + (pass * 7_919 * 4_096) + 17
let point_seed seed i = seed + 1 + i

(* ---------------- workload: sim-paper ---------------- *)

(* Each point: its reference key, what to compile, trajectories per
   operation, operations per pass, and whether it counts toward
   mc_efficiency. Each operation compiles its program (a program-cache hit
   after the first pass) and simulates it. mr-ccz operations run 2
   trajectories (about 0.4 s) so that their brackets sit close;
   full-ququart ones run 512 (about 0.25 s). Only the full-ququart points
   count toward mc_efficiency: the mr-ccz ones gather a few dozen
   trajectories a run, too few to pin a variance. *)
type sim_point = {
  skey : string;
  strategy : Strategy.t;
  circuit : Circuit.t;
  straj : int;
  sops : int;
  smc : bool;
}

let sim_paper_setup () =
  let n = if !tiny then 5 else 9 in
  List.concat_map
    (fun (strategy, traj, ops, mc) ->
      List.map
        (fun family ->
          { skey = program_key family n strategy; strategy;
            circuit = Bench_circuits.by_total_qubits family n; straj = traj; sops = ops; smc = mc })
        [ Bench_circuits.Cnu; Bench_circuits.Select ])
    [ (Strategy.mixed_radix_ccz, 2, 2, false);
      (Strategy.full_ququart, (if !tiny then 16 else 512), 1, true) ]

let sim_paper_pass points ~seed =
  let i = ref 0 in
  List.iter
    (fun pt ->
      for k = 1 to pt.sops do
        let seed = point_seed seed !i in
        incr i;
        timed_op ~cls:"simulate" (Printf.sprintf "%s#%d" pt.skey k) (fun () ->
            match compile_op ~key:pt.skey pt.strategy pt.circuit with
            | Some prog -> ignore (simulate_op ~mc:pt.smc ~key:pt.skey ~traj:pt.straj ~seed prog)
            | None -> ())
      done)
    points

(* ---------------- workload: sweep ---------------- *)

let sensitivity_strategies =
  [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz; Strategy.full_ququart ]

type sweep = {
  fig7 : (string * Circuit.t * Strategy.t) list;
  fig9c : (string * Circuit.t * Strategy.t * float) list;
  fig8 : (string * Circuit.t * Strategy.t) list;
  sweep_traj : int;
}

let sweep_setup () =
  let families = if !tiny then [ Bench_circuits.Cnu ] else Bench_circuits.all_families in
  let grid families sizes =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun family ->
            let circuit = Bench_circuits.by_total_qubits family n in
            List.map (fun s -> (program_key family n s, circuit, s)) Strategy.fig7_set)
          families)
      sizes
  in
  let qram = Bench_circuits.by_total_qubits Bench_circuits.Qram 7 in
  { fig7 = grid families (if !tiny then [ 5 ] else [ 5; 7 ]);
    fig9c =
      List.concat_map
        (fun scale ->
          List.map
            (fun s ->
              (Printf.sprintf "%s@t1x%g" (program_key Bench_circuits.Qram 7 s) scale, qram, s, scale))
            sensitivity_strategies)
        (if !tiny then [ 4. ] else [ 1.; 2.; 4.; 8.; 16. ]);
    fig8 = grid [ Bench_circuits.Cnu ] (if !tiny then [ 13 ] else [ 13; 21; 29; 41 ]);
    sweep_traj = (if !tiny then 4 else 16) }

(* Part (a) misses the program cache (cleared at the start of each pass)
   and part (b) hits it while missing the plan cache (another noise
   model). *)
let sweep_pass w ~seed =
  Compile.program_cache_clear ();
  let traj = w.sweep_traj in
  List.iteri
    (fun i (key, circuit, strategy) ->
      timed_op ~cls:"fig7" key (fun () ->
          match compile_op ~key strategy circuit with
          | None -> ()
          | Some prog ->
            check_ops ~key ~traj circuit prog;
            eps_op ~key prog;
            ignore (simulate_op ~mc:true ~key ~traj ~seed:(point_seed seed i) prog)))
    w.fig7;
  let fig7_points = List.length w.fig7 in
  List.iteri
    (fun i (key, circuit, strategy, scale) ->
      timed_op ~cls:"fig9c" key (fun () ->
          let model = { Noise.default with Noise.t1_high_scale = scale } in
          match compile_op ~key:(program_key Bench_circuits.Qram 7 strategy) strategy circuit with
          | Some prog ->
            ignore
              (simulate_op ~model ~mc:true ~key ~traj ~seed:(point_seed seed (fig7_points + i)) prog)
          | None -> ()))
    w.fig9c;
  List.iter
    (fun (key, circuit, strategy) ->
      timed_op ~cls:"fig8" key (fun () ->
          match compile_op ~key strategy circuit with
          | None -> ()
          | Some prog ->
            check_ops ~key ~traj circuit prog;
            eps_op ~key prog))
    w.fig8

(* ---------------- workload: pulses ---------------- *)

(* GRAPE iterations per unit: the reproduction's pulse section uses 400; the
   ledger runs the same syntheses (shapes, durations, segment counts) at
   fewer, so an operation lasts under two seconds. *)
type floor = { f_min : float; leak_max : float }

(* Output floors and leakage ceilings at the ledger's iteration counts.
   GRAPE starts from the reproduction's fixed seeds, so these values are
   deterministic: x 0.951, hh 0.872, x-lindblad 0.885, cz 0.378 (leakage
   0.254), carrier 0.853, shrink rounds 0.865 to 0.997. A pulse left
   unoptimized fails them (cz after 16 iterations: F 0.134, leakage
   0.585). Tiny runs check only that values are finite. *)
let floors =
  [ ("x", { f_min = 0.90; leak_max = 0.10 });
    ("hh", { f_min = 0.80; leak_max = 0.10 });
    ("x-lindblad", { f_min = 0.80; leak_max = 0.10 });
    ("cz", { f_min = 0.30; leak_max = 0.35 });
    ("carrier", { f_min = 0.75; leak_max = 0.10 });
    ("shrink", { f_min = 0.75; leak_max = 0.20 }) ]

let check_pulse name ~fidelity ~leakage =
  let fl = List.assoc name floors in
  if not (Float.is_finite fidelity && Float.is_finite leakage) then Error "non-finite fidelity"
  else if !tiny then Ok ()
  else if fidelity < fl.f_min then
    Error (Printf.sprintf "%s: fidelity %.4f below floor %.2f" name fidelity fl.f_min)
  else if leakage > fl.leak_max then
    Error (Printf.sprintf "%s: leakage %.4f above ceiling %.2f" name leakage fl.leak_max)
  else Ok ()

type pulses = {
  spec1 : Transmon.spec;
  spec4 : Transmon.spec;
  spec2 : Transmon.spec;
  lindblad_ops : int;  (** operations per T1 value *)
  lindblad_samples : int;  (** Haar inputs per operation *)
}

let pulses_setup () =
  { spec1 = Transmon.paper_spec ~n:1 ~levels:[| 3 |];
    spec4 = Transmon.paper_spec ~n:1 ~levels:[| 5 |];
    spec2 = Transmon.paper_spec ~n:2 ~levels:[| 3; 3 |];
    lindblad_ops = (if !tiny then 1 else 3);
    lindblad_samples = (if !tiny then 2 else 16) }

let iters n = if !tiny then 1 else n

let synth_op ~name ~layer ~seed ~iters ~spec ~target ~logical_levels ~duration_ns ~segments =
  timed_op ~cls:"synthesis" ("synthesize " ^ name) (fun () ->
      let r =
        attempt ~layer ("synthesize " ^ name)
          (fun () ->
            Synthesis.synthesize ~seed ~restarts:1 ~iters ~spec ~target ~logical_levels
              ~duration_ns ~segments ())
          (fun (r, _) ->
            check_pulse name ~fidelity:r.Synthesis.fidelity ~leakage:r.Synthesis.leakage)
      in
      Option.iter
        (fun ((r : Synthesis.report), _) ->
          counti "grape.iterations" r.Synthesis.iterations;
          !cur.pulse_fs <- r.Synthesis.fidelity :: !cur.pulse_fs)
        r;
      r)

let lindblad_slack = 0.02
let shrink_rounds = 4

let pulses_pass w ~seed =
  (* GRAPE starts from the reproduction's own seeds (5, 11, 7), so every pass
     optimizes the same problems from the same initial pulses; the run seed
     draws only the Lindblad check's Haar inputs. *)
  ignore
    (synth_op ~name:"x" ~layer:"synthesis.x" ~seed:5 ~iters:(iters 32) ~spec:w.spec1
       ~target:Synthesis.x_target ~logical_levels:[| 2 |] ~duration_ns:35. ~segments:140);
  ignore
    (synth_op ~name:"hh" ~layer:"synthesis.hh" ~seed:11 ~iters:(iters 64) ~spec:w.spec4
       ~target:Synthesis.hh_target ~logical_levels:[| 4 |] ~duration_ns:90. ~segments:360);
  (* Open-system check of a short X pulse: Monte-Carlo over Haar inputs, one
     Lindblad evolution per input. Its mean must match the closed-system
     average fidelity (2F + 1)/3 up to the T1 decay, the sampling error and
     [lindblad_slack] (leakage makes the closed form inexact). *)
  (match
     synth_op ~name:"x-lindblad" ~layer:"synthesis.x" ~seed:5 ~iters:(iters 16) ~spec:w.spec1
       ~target:Synthesis.x_target ~logical_levels:[| 2 |] ~duration_ns:35. ~segments:70
   with
   | None -> ()
   | Some (report, pulse) ->
     let closed = ((2. *. report.Synthesis.fidelity) +. 1.) /. 3. in
     List.iteri
       (fun i t1_ns ->
         for k = 0 to w.lindblad_ops - 1 do
           let point = Printf.sprintf "lindblad T1=%g" t1_ns in
           timed_op ~cls:"lindblad" (Printf.sprintf "%s#%d" point k) (fun () ->
               let t0 = now () in
               match
                 attempt ~layer:"lindblad" point
                   (fun () ->
                     List.init w.lindblad_samples (fun j ->
                         Lindblad.average_fidelity w.spec1 pulse ~target:Synthesis.x_target
                           ~logical_levels:[| 2 |] ~t1_ns ~samples:1
                           ~seed:((seed * 31) + (1000 * i) + (100 * k) + j)))
                   (fun fs ->
                     let m = mean fs and se = sem_of fs in
                     let decay = 1. -. exp (-35. /. t1_ns) in
                     let tol = (sigmas *. se) +. decay +. lindblad_slack in
                     if not (Float.is_finite m) then Error "non-finite open-system fidelity"
                     else if !tiny || Float.abs (m -. closed) <= tol then Ok ()
                     else
                       Error
                         (Printf.sprintf "open-system F %.4f vs closed-system %.4f (tolerance %.4f)"
                            m closed tol))
               with
               | Some fs ->
                 let se = sem_of fs in
                 op_mc := (point, se *. se, now () -. t0) :: !op_mc
               | None -> ())
         done)
       [ 163_450.; 16_345. ]);
  ignore
    (synth_op ~name:"cz" ~layer:"synthesis.cz" ~seed:7 ~iters:(iters 24) ~spec:w.spec2
       ~target:Gates.cz ~logical_levels:[| 2; 2 |] ~duration_ns:236. ~segments:472);
  timed_op ~cls:"synthesis" "carrier optimize" (fun () ->
      let carrier =
        Carrier.create ~n_lines:1 ~carriers:[| 0.; -0.330; -0.660 |] ~n_env:45 ~fine_per_env:8
          ~duration_ns:90. ~max_amp_ghz:0.045
      in
      Carrier.randomize (Rng.make ~seed:5) ~scale:0.5 carrier;
      let objective =
        { Grape.spec = w.spec4; target = Synthesis.hh_target; logical_levels = [| 4 |];
          leak_weight = 0.1 }
      in
      match
        attempt ~layer:"carrier" "carrier optimize"
          (fun () -> Carrier.optimize ~iters:(iters 40) objective carrier)
          (fun r ->
            check_pulse "carrier" ~fidelity:r.Grape.final.Grape.fidelity
              ~leakage:r.Grape.final.Grape.leakage)
      with
      | Some r ->
        counti "grape.iterations" r.Grape.iterations;
        !cur.pulse_fs <- r.Grape.final.Grape.fidelity :: !cur.pulse_fs
      | None -> ());
  (* Duration shrinking: a two-restart synthesis at 60 ns, then
     [shrink_rounds] rounds that each cut the duration by 15% and
     re-optimize. With a 0.8 target every round runs at 16 iterations, and
     the check requires that they all did. *)
  let it = iters 16 in
  timed_op ~cls:"synthesis" "shrink_duration x" (fun () ->
      match
        attempt ~layer:"synthesis.shrink" "shrink_duration x"
          (fun () ->
            Synthesis.shrink_duration ~seed:5 ~iters:it ~spec:w.spec1 ~target:Synthesis.x_target
              ~logical_levels:[| 2 |] ~start_duration_ns:60. ~segments:120
              ~target_fidelity:(if !tiny then 0. else 0.8)
              ~max_rounds:shrink_rounds ())
          (fun rounds ->
            if List.length rounds <> shrink_rounds + 1 then
              Error
                (Printf.sprintf "%d shrink rounds ran, not %d" (List.length rounds - 1) shrink_rounds)
            else
              List.fold_left
                (fun acc (r : Synthesis.report) ->
                  match acc with
                  | Ok () ->
                    check_pulse "shrink" ~fidelity:r.Synthesis.fidelity ~leakage:r.Synthesis.leakage
                  | e -> e)
                (Ok ()) rounds)
      with
      | Some rounds ->
        List.iter
          (fun (r : Synthesis.report) ->
            counti "grape.iterations" r.Synthesis.iterations;
            !cur.pulse_fs <- r.Synthesis.fidelity :: !cur.pulse_fs)
          rounds
      | None -> ())

(* ---------------- replays (traced run only) ---------------- *)

(* Per-layer values measured once, after the passes. *)
let replayed : (string, float) Hashtbl.t = Hashtbl.create 32

let distinct_programs () =
  List.fold_left
    (fun acc s -> if List.exists (fun s' -> s'.prog == s.prog) acc then acc else s :: acc)
    [] !simulated

(* Kernel.compile and Kernel.apply over the lifted ops of every distinct
   simulated program, against its own register shape: normalized ns per
   amplitude, by kernel class. *)
let replay_kernels () =
  let ns = Hashtbl.create 8 and applied = Hashtbl.create 8 in
  let rng = Rng.make ~seed:1 in
  List.iter
    (fun { prog; _ } ->
      let device_dim = prog.Physical.device_dim in
      let dims = Array.make prog.Physical.device_count device_dim in
      let kernels =
        List.map
          (fun op ->
            let targets, m = Executor.lift_gate ~device_dim op in
            Kernel.compile ~dims ~targets m)
          prog.Physical.ops
      in
      let a = amps prog in
      let state = Vec.gaussian (fun () -> Rng.gaussian rng) a in
      Vec.normalize_in_place state;
      (* About 2M amplitude updates per program. *)
      let reps = max 1 (2_000_000 / (a * max 1 (List.length kernels))) in
      let times, scale =
        normalized (fun () ->
            List.map
              (fun k ->
                let t0 = now () in
                for _ = 1 to reps do
                  Kernel.apply k state
                done;
                (Kernel.class_name k, now () -. t0))
              kernels)
      in
      List.iter
        (fun (c, dt) ->
          bump ns c (dt *. scale *. 1e9);
          bump applied c (float_of_int (reps * a)))
        times)
    (distinct_programs ());
  List.iter
    (fun c ->
      Hashtbl.replace replayed
        ("kernel." ^ c ^ ".norm_ns_per_amp")
        (match (Hashtbl.find_opt ns c, Hashtbl.find_opt applied c) with
         | Some t, Some n when n > 0. -> t /. n
         | _ -> 0.))
    kernel_classes

(* The executor's noise calls for every trajectory of the last traced pass:
   damping over each device's idle window before an op (and to the end),
   and one error draw per noisy op, as the executor's plan makes them. *)
let replay_noise () =
  List.iter
    (fun { prog; model; traj; seed } ->
      let d = prog.Physical.device_dim in
      let schedule = Physical.schedule_array prog in
      let total = Physical.total_duration prog in
      let windows = ref [] and draw_args = ref [] in
      let last = Array.make prog.Physical.device_count 0. in
      Array.iter
        (fun ((op : Physical.op), start) ->
          List.iter
            (fun (p : Physical.device_part) ->
              let dt = start -. last.(p.Physical.device) in
              if dt > 1e-9 then windows := dt :: !windows;
              last.(p.Physical.device) <- start +. op.Physical.duration_ns)
            op.Physical.parts;
          let err = 1. -. op.Physical.fidelity in
          let err = if op.Physical.touches_ww then err *. model.Noise.ww_error_scale else err in
          let dims =
            List.filter_map
              (fun (p : Physical.device_part) ->
                match p.Physical.noise with
                | Physical.Quiet -> None
                | Physical.P4 -> Some 4
                | Physical.P2 _ -> Some 2)
              op.Physical.parts
          in
          if dims <> [] then draw_args := (dims, Float.max 0. err) :: !draw_args)
        schedule;
      Array.iter (fun l -> if total -. l > 1e-9 then windows := (total -. l) :: !windows) last;
      let windows = Array.of_list !windows and draw_args = Array.of_list !draw_args in
      let lambdas = Noise.damping_cache model ~d in
      let rng = Rng.make ~seed in
      let (damp, draw), scale =
        normalized (fun () ->
            let (), damp =
              time (fun () ->
                  for _ = 1 to traj do
                    Array.iter (fun w -> ignore (lambdas w)) windows
                  done)
            in
            let (), draw =
              time (fun () ->
                  for _ = 1 to traj do
                    Array.iter (fun (dims, p) -> ignore (Noise.draw_error rng ~dims ~p)) draw_args
                  done)
            in
            (damp, draw))
      in
      bump replayed "noise.damping.norm_s" (damp *. scale);
      bump replayed "noise.draw_error.norm_s" (draw *. scale))
    !simulated

(* The executor's first call on a program it has no plan for: one
   trajectory of a fresh copy of each distinct simulated program (a new
   physical identity misses the plan cache); the mean normalized seconds.
   Also the largest lockstep workspace the workload's simulations use. *)
let replay_executor () =
  let progs = distinct_programs () in
  let firsts =
    List.map
      (fun { prog; model; seed; _ } ->
        let fresh = { prog with Physical.ops = prog.Physical.ops } in
        let config = { Executor.model; trajectories = 1; base_seed = seed } in
        let raw, scale =
          normalized (fun () ->
              snd (time (fun () -> Executor.simulate_detailed ~config ~domains:1 ~batch fresh)))
        in
        raw *. scale)
      progs
  in
  Hashtbl.replace replayed "executor.first_call.norm_s" (if firsts = [] then 0. else mean firsts);
  Hashtbl.replace replayed "executor.workspace_mb"
    (List.fold_left
       (fun m { prog; traj; _ } ->
         let dims = Array.make prog.Physical.device_count prog.Physical.device_dim in
         Float.max m
           (float_of_int (Executor.block_workspace_bytes ~dims ~cap:(min batch traj)) /. 1e6))
       0. progs)

(* GRAPE evaluate/gradient on the CZ objective (dimension 9, 472 segments),
   a dimension-9 matrix exponential and a 9x9 product. *)
let replay_control () =
  let spec = Transmon.paper_spec ~n:2 ~levels:[| 3; 3 |] in
  let obj = { Grape.spec; target = Gates.cz; logical_levels = [| 2; 2 |]; leak_weight = 0.1 } in
  let pulse =
    Pulse.create ~n_ctrl:4 ~n_seg:472 ~duration_ns:236. ~max_amp_ghz:spec.Transmon.max_drive_ghz
  in
  Pulse.randomize (Rng.make ~seed:7) ~scale:0.3 pulse;
  let per_call ~unit n f =
    let raw, scale = normalized (fun () -> snd (time (fun () -> for _ = 1 to n do ignore (f ()) done))) in
    raw *. scale *. unit /. float_of_int n
  in
  let reps = if !tiny then 1 else 3 in
  Hashtbl.replace replayed "grape.gradient.norm_ms"
    (per_call ~unit:1e3 reps (fun () -> Grape.gradient obj pulse));
  Hashtbl.replace replayed "grape.evaluate.norm_ms"
    (per_call ~unit:1e3 reps (fun () -> Grape.evaluate obj pulse));
  let h = Mat.scale (Cplx.c 0. (-2. *. Float.pi *. 0.5)) (Transmon.drift spec) in
  Hashtbl.replace replayed "mat.expm.norm_us"
    (per_call ~unit:1e6 (if !tiny then 20 else 500) (fun () -> Mat.expm h));
  let u = Mat.expm h in
  Hashtbl.replace replayed "mat.mul.norm_us"
    (per_call ~unit:1e6 (if !tiny then 200 else 10_000) (fun () -> Mat.mul u h))

(* ---------------- the record ---------------- *)

(* Metric names and units come from BENCHMARK.json at the repository root;
   the ledger supplies values by name. *)
let benchmark_metrics key =
  let ic = open_in_bin "BENCHMARK.json" in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))
  in
  let bad why = failwith (Printf.sprintf "BENCHMARK.json %s: %s" key why) in
  match Result.map (Json.member key) (Json.parse text) with
  | Error msg -> bad msg
  | Ok (Some (Json.Arr entries)) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str name), Some (Json.Str unit) -> (name, unit)
        | _ -> bad "an entry without name or unit")
      entries
  | Ok _ -> bad "missing"

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"
let json_str s = "\"" ^ Json.escape s ^ "\""

let metrics_json catalog values =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
             (json_num (Option.value ~default:nan (List.assoc_opt name values)))
             unit)
         catalog)
  ^ "}"

(* ---------------- setup and the run loop ---------------- *)

type workload = Sim_paper of sim_point list | Sweep of sweep | Pulses of pulses

(* Hooks (linking Verify/Analysis registers them), the reference table and
   the workload's input circuits. *)
let setup name =
  Verify.install ();
  Analysis.install ();
  if not !writing_reference then load_reference ();
  match name with
  | "sim-paper" -> Sim_paper (sim_paper_setup ())
  | "sweep" -> Sweep (sweep_setup ())
  | "pulses" -> Pulses (pulses_setup ())
  | other -> invalid_arg ("unknown workload " ^ other)

(* Set-up time: the CPU seconds the process has used when set-up ends. It
   is not host-normalized: about 2 ms of it is the telemetry clock's
   calibration spin, which takes the same wall time on any host, so
   dividing it by a bracket would make set-up read faster whenever the host
   is slow. run.py takes the median over many fresh processes instead. *)
let setup_cpu_s () =
  let cpu = process_cpu_s () in
  Refloop.init ();
  cpu

let run_pass w ~seed =
  match w with
  | Sim_paper w -> sim_paper_pass w ~seed
  | Sweep w -> sweep_pass w ~seed
  | Pulses w -> pulses_pass w ~seed

let run_deferred () =
  let checks = List.rev !deferred in
  deferred := [];
  List.iter (fun check -> check ()) checks

let pooled_log : string list ref = ref []

(* One pass. A full major collection and a bracket come first, outside the
   pass; the output checks run after it. *)
let timed_pass w ~seed =
  cur := new_pass ();
  Gc.full_major ();
  !cur.pass_brackets <- [ bracket () ];
  let (), wall = time (fun () -> call "pass" (fun () -> run_pass w ~seed)) in
  let p = !cur in
  p.wall_s <- wall;
  settle p;
  Hashtbl.reset op_raw;
  run_deferred ();
  if p.deviations <> [] then begin
    p.attempted <- p.attempted + 1;
    let zs =
      List.map (fun (name, z, k) -> (Printf.sprintf "%s %+.2f over %d" name z k, z)) (pooled_z p)
    in
    pooled_log := List.map fst zs @ !pooled_log;
    match List.filter (fun (_, z) -> Float.abs z > sigmas) zs with
    | [] -> ()
    | bad -> failure ~known:false "pooled fidelity check" (String.concat "; " (List.map fst bad))
  end;
  p

let traced_pass w ~seed =
  Telemetry.reset ();
  Telemetry.enable_metrics ();
  spans := [];
  simulated := [];
  tracing := true;
  let g0 = Gc.quick_stat () in
  let p = Fun.protect ~finally:(fun () -> tracing := false) (fun () -> timed_pass w ~seed) in
  let g1 = Gc.quick_stat () in
  Telemetry.disable ();
  count "gc.minor_mwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
  counti "gc.major_collections" (g1.Gc.major_collections - g0.Gc.major_collections);
  List.iter
    (fun c ->
      counti ("kernel." ^ c ^ ".dispatches")
        (Telemetry.Metrics.counter ("executor.kernel_dispatch." ^ c)))
    kernel_classes;
  (* The accounting identity: the self times of the spans inside the pass
     (library calls and brackets) sum to its wall time; the pass span's
     own self time is what no span covers. *)
  (match List.find_opt (fun s -> s.sname = "pass") !spans with
   | Some s -> count "trace.unattributed_s" s.self_s
   | None -> ());
  count "trace.wall_s" p.wall_s;
  (p, !spans)

(* For every operation, the median over the passes of its entries' sum,
   summed over operations: the estimator of every run-level time. *)
let sum_of_medians ps entries =
  let by_label = Hashtbl.create 256 in
  List.iteri
    (fun i p ->
      List.iter
        (fun (label, v) ->
          let per_pass = Option.value ~default:[] (Hashtbl.find_opt by_label label) in
          Hashtbl.replace by_label label
            (match per_pass with
             | (j, acc) :: rest when j = i -> (j, acc +. v) :: rest
             | l -> (i, v) :: l))
        (entries p))
    ps;
  Hashtbl.fold (fun _ xs acc -> acc +. median (List.map snd xs)) by_label 0.

let norm_wall ps = sum_of_medians ps (fun p -> List.map (fun (l, _, n, _) -> (l, n)) p.ops)
let raw_wall ps = sum_of_medians ps (fun p -> List.map (fun (l, _, _, r) -> (l, r)) p.ops)

(* The mean over Monte-Carlo points of each point's sem², pooled over the
   run (every operation of a point runs the same sample count). The
   arithmetic mean, not the geometric one: the sweep's near-perfect points
   see an error in a few trajectories of a run, so their sem² varies by
   orders of magnitude from run to run, and under the geometric mean they
   set the metric's spread (0.081 against 0.040 over the same five runs). *)
let mc_sem2 ps =
  let by_point = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun (_, k, s2, _) ->
          Hashtbl.replace by_point k (s2 :: Option.value ~default:[] (Hashtbl.find_opt by_point k)))
        p.mc)
    ps;
  mean (Hashtbl.fold (fun _ xs acc -> mean xs :: acc) by_point [])

(* Normalized seconds of the calls that produced the Monte-Carlo points. *)
let mc_seconds ps = sum_of_medians ps (fun p -> List.map (fun (l, _, _, s) -> (l, s)) p.mc)

let mc_raw_seconds ps =
  let raw_of_op p label = List.find_map (fun (l, _, _, r) -> if l = label then Some r else None) p.ops in
  let norm_of_op p label = List.find_map (fun (l, _, n, _) -> if l = label then Some n else None) p.ops in
  sum_of_medians ps (fun p ->
      List.map
        (fun (l, _, _, s) ->
          match (raw_of_op p l, norm_of_op p l) with
          | Some r, Some n when n > 0. -> (l, s *. r /. n)
          | _ -> (l, s))
        p.mc)

(* mc_efficiency = 1 / (pooled sem² x normalized seconds): statistical
   precision bought per host-normalized second. *)
let mc_efficiency ps = 1. /. (mc_sem2 ps *. mc_seconds ps)

let host_ref_range () =
  let times = List.map bracket_s !brackets in
  let lo = List.fold_left Float.min infinity times and hi = List.fold_left Float.max 0. times in
  hi /. lo

(* Per-layer values: medians over the traced passes, plus the replays. *)
let per_layer_values catalog ~traced ~untraced =
  let med f = median (List.map f traced) in
  let layer name p = Option.value ~default:0. (Hashtbl.find_opt p.layers name) in
  let cnt name p = Option.value ~default:0. (Hashtbl.find_opt p.counts name) in
  let per_traj l t p = let n = cnt t p in if n > 0. then layer l p /. n else 0. in
  let norm_pass p = List.fold_left (fun acc (_, _, n, _) -> acc +. n) 0. p.ops in
  let derived =
    [ ("executor.mr.norm_s_per_traj", med (per_traj "executor.mr" "executor.mr.trajectories"));
      ("executor.fq.norm_s_per_traj", med (per_traj "executor.fq" "executor.fq.trajectories"));
      ("executor.alloc_words_per_traj",
       med (fun p -> let n = cnt "executor.trajectories" p in
             if n > 0. then cnt "executor.alloc_words" p /. n else 0.));
      ("host.ref_ms", median (List.map bracket_s !brackets) *. 1e3);
      ("host.wall_s", raw_wall untraced);
      ("host.ref_range", host_ref_range ());
      ("trace.overhead_frac",
       (median (List.map norm_pass traced) /. median (List.map norm_pass untraced)) -. 1.);
      ("trace.unattributed_frac", med (fun p -> cnt "trace.unattributed_s" p /. cnt "trace.wall_s" p)) ]
  in
  List.map
    (fun (name, _) ->
      let v =
        match List.assoc_opt name derived with
        | Some v -> v
        | None -> (
          match Hashtbl.find_opt replayed name with
          | Some v -> v
          | None ->
            let strip suffix =
              let n = String.length name and k = String.length suffix in
              if n > k && String.sub name (n - k) k = suffix then Some (String.sub name 0 (n - k))
              else None
            in
            (match strip ".norm_s" with
             | Some l -> med (layer l)
             | None -> med (cnt name)))
      in
      (name, v))
    catalog

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

type opts = {
  mode : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
}

(* The unattributed share of a traced pass the accounting identity
   tolerates. *)
let identity_tolerance = 0.05

let run opts w ~setup_s =
  let t_start = now () in
  let min_passes = if !tiny then 2 else 3 in
  let passes = ref [] and traced = ref [] and trace_spans = ref [] and k = ref 0 in
  (* VmHWM once the third untraced pass has ended (every full run makes at
     least three): the process's memory grows slowly from pass to pass, and
     the number of passes a run fits depends on the host's speed. *)
  let peak = ref nan in
  (* Start another pass only if a typical one still fits in the budget. *)
  let fits () =
    let walls = List.map (fun p -> p.wall_s) (!passes @ !traced) in
    now () -. t_start +. median walls <= opts.seconds
  in
  while !k < min_passes || fits () do
    let seed = pass_seed opts.seed !k in
    (* The traced run alternates untraced and traced passes; the first
       traced pass follows an untraced one that has warmed the caches. *)
    if opts.trace && !k mod 2 = 1 then begin
      let p, s = traced_pass w ~seed in
      traced := p :: !traced;
      trace_spans := s @ !trace_spans
    end
    else begin
      passes := timed_pass w ~seed :: !passes;
      if List.length !passes = 3 then peak := peak_rss_mb ()
    end;
    incr k
  done;
  let all = !passes @ !traced in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 all in
  let attempted = sum (fun p -> p.attempted) and failed = sum (fun p -> p.failed) in
  let unexpected = sum (fun p -> p.unexpected) in
  let ps = !passes in
  let catalog, values =
    if opts.trace then begin
      (match w with
       | Sim_paper _ | Sweep _ ->
         replay_kernels ();
         replay_noise ();
         replay_executor ()
       | Pulses _ -> replay_control ());
      let catalog = benchmark_metrics "per_layer" in
      let values = per_layer_values catalog ~traced:!traced ~untraced:ps in
      let trace = trace_json !trace_spans in
      let path =
        Filename.concat opts.out_dir (Printf.sprintf "trace-%s-%d.json" opts.workload opts.seed)
      in
      write_file path trace;
      (match Telemetry.Trace.validate trace with
       | Ok _ -> run_check true ""
       | Error msg -> run_check false ("trace file invalid: " ^ msg));
      let u = List.assoc "trace.unattributed_frac" values in
      run_check (Float.abs u <= identity_tolerance)
        (Printf.sprintf "accounting identity off by %.1f%%" (100. *. u));
      (catalog, values)
    end
    else begin
      let n = float_of_int (List.length ps) in
      let per_pass f = float_of_int (List.fold_left (fun acc p -> acc + f p) 0 ps) /. n in
      let values =
        [ ("norm_wall_s", norm_wall ps);
          ("setup_s", setup_s);
          ("peak_rss_mb", if Float.is_nan !peak then peak_rss_mb () else !peak);
          ("mc_efficiency", mc_efficiency ps);
          ("pulse_f_min", median (List.map (fun p -> List.fold_left Float.min 1. p.pulse_fs) ps));
          ( "fail_frac",
            (per_pass (fun p -> p.failed) +. 0.5) /. (per_pass (fun p -> p.attempted) +. 1.) ) ]
      in
      (benchmark_metrics "end_to_end", values)
    end
  in
  let attempted = attempted + !run_checks and failed = failed + !run_failures in
  let unexpected = unexpected + !run_failures in
  (* Per operation class: the median normalized seconds a pass spends in it
     (the injection test's shares). *)
  let classes =
    List.sort_uniq compare (List.concat_map (fun p -> List.map (fun (_, c, _, _) -> c) p.ops) ps)
  in
  let class_share c =
    norm_wall
      (List.map (fun p -> { p with ops = List.filter (fun (_, c', _, _) -> c' = c) p.ops }) ps)
  in
  let info =
    Printf.sprintf
      "{\"workload\":%s,\"seed\":%d,\"passes\":%d,\"traced_passes\":%d,\"nproc\":%d,\
       \"domains\":1,\"batch\":%d,\"ocaml\":%s,\"reference_s\":%s,\"refloop_checksum\":%s,\
       \"refloop_minor_words\":%s,\"host.ref_ms\":%s,\"host.ref_range\":%s,\"host.wall_s\":%s,\
       \"norm_wall_s\":%s,\"mc_sem2\":%s,\"mc_norm_s\":%s,\"mc_raw_s\":%s,\"setup_s\":%s,\"unexpected_failures\":%d,\"inject\":%s,\
       \"class_norm_s\":{%s},\"pass_wall_s\":%s,\"pass_norm_s\":%s,\"pooled_z\":%s,\"notes\":%s,\"ops\":%s,\"mc\":%s}"
      (json_str opts.workload) opts.seed (List.length ps) (List.length !traced)
      (Domain.recommended_domain_count ()) batch (json_str Sys.ocaml_version)
      (json_num reference_s)
      (json_num (Float.Array.get Refloop.checksum 0))
      (json_num
         (let w0 = Gc.minor_words () in
          Refloop.run ();
          Gc.minor_words () -. w0))
      (json_num (median (List.map bracket_s !brackets) *. 1e3))
      (json_num (host_ref_range ()))
      (json_num (raw_wall ps))
      (json_num (norm_wall ps)) (json_num (mc_sem2 ps)) (json_num (mc_seconds ps))
      (json_num (mc_raw_seconds ps)) (json_num setup_s) unexpected
      (match !inject with Some (c, f) -> Printf.sprintf "{\"class\":%s,\"frac\":%g}" (json_str c) f
                        | None -> "null")
      (String.concat "," (List.map (fun c -> Printf.sprintf "%s:%s" (json_str c) (json_num (class_share c))) classes))
      (json_list (fun p -> json_num p.wall_s) (List.rev ps))
      (json_list (fun p -> json_num (List.fold_left (fun a (_, _, n, _) -> a +. n) 0. p.ops)) (List.rev ps))
      (json_list json_str (List.rev !pooled_log))
      (json_list json_str (List.rev !notes))
      (json_list
         (fun p ->
           json_list
             (fun ((label, cls, norm, raw), (ref_s, n)) ->
               Printf.sprintf "[%s,%s,%s,%s,%s,%d]" (json_str label) (json_str cls) (json_num norm)
                 (json_num raw) (json_num ref_s) n)
             (List.rev (List.combine p.ops p.op_refs)))
         (List.rev ps))
      (json_list
         (fun p ->
           json_list
             (fun (l, k, s2, sec) ->
               Printf.sprintf "[%s,%s,%s,%s]" (json_str l) (json_str k) (json_num s2) (json_num sec))
             (List.rev p.mc))
         (List.rev ps))
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s,\"info\":%s}\n"
    (unexpected = 0) attempted failed (metrics_json catalog values) info

(* Recompute perfbench/reference.tsv: one sim-paper pass at the reference
   seed with 64 trajectories per mr-ccz point and 1024 per full-ququart
   one, one sweep pass with 4x the trajectories, and the exact-channel
   value of every Fig. 7 point that fits Exact. *)
let write_reference () =
  writing_reference := true;
  Refloop.init ();
  let seed = pass_seed 1 0 in
  (match setup "sim-paper" with
   | Sim_paper points ->
     let points =
       List.map (fun pt -> { pt with straj = (if pt.smc then 1024 else 64); sops = 1 }) points
     in
     ignore (bracket ());
     sim_paper_pass points ~seed;
     run_deferred ()
   | _ -> ());
  (match setup "sweep" with
   | Sweep w ->
     ignore (bracket ());
     sweep_pass { w with sweep_traj = 4 * w.sweep_traj } ~seed;
     run_deferred ();
     List.iteri
       (fun i (key, circuit, strategy) ->
         let prog = Compile.compile strategy circuit in
         if prog.Physical.device_count <= Exact.max_exact_devices ~device_dim:prog.Physical.device_dim
         then
           let r = Exact.simulate_exact ~inputs:10 ~base_seed:(point_seed seed i) prog in
           Hashtbl.replace ref_exact key r.Exact.mean_fidelity)
       w.fig7
   | _ -> ());
  save_reference ();
  Printf.printf "wrote %s: %d programs, %d simulated points, %d exact values; %s\n" reference_path
    (Hashtbl.length ref_programs) (Hashtbl.length ref_sims) (Hashtbl.length ref_exact)
    (String.concat "; " (List.rev !notes))

let parse_args () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let o =
    ref { mode; workload = ""; seed = 1; seconds = 10.; trace = false; out_dir = "perfbench/_out" }
  in
  let rec go = function
    | "--workload" :: v :: rest -> o := { !o with workload = v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> o := { !o with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> o := { !o with trace = v = "1" }; go rest
    | "--out" :: v :: rest -> o := { !o with out_dir = v }; go rest
    | "--inject" :: c :: rest -> inject := Some (c, 0.2); go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | [] -> ()
    | arg :: _ -> invalid_arg ("unknown argument " ^ arg)
  in
  go (match Array.to_list Sys.argv with _ :: _ :: rest -> rest | _ -> []);
  !o

let () =
  let o = parse_args () in
  match o.mode with
  | "reference" -> write_reference ()
  | "calibrate" ->
    (* The loop's median time over 400 runs, the value [reference_s]
       holds for the reference host. *)
    Refloop.init ();
    let ts = List.init 400 (fun _ -> snd (time Refloop.run)) in
    Printf.printf "{\"refloop_median_s\":%.6g}\n" (median ts)
  | "setup" ->
    ignore (setup o.workload);
    Printf.printf "{\"setup_s\":%.9g}\n" (setup_cpu_s ())
  | "run" ->
    let w = setup o.workload in
    let setup_s = setup_cpu_s () in
    run o w ~setup_s
  | m ->
    prerr_endline ("usage: ledger.exe setup|run|reference [options] (got " ^ m ^ ")");
    exit 2
