open Waltz_linalg
open Waltz_qudit
module Sanitize = Waltz_sanitizer.Sanitize

type model = {
  t1_base_ns : float;
  t1_high_scale : float;
  ww_error_scale : float;
  seed : int;
}

let default =
  { t1_base_ns = Calibration.t1_base_ns; t1_high_scale = 1.; ww_error_scale = 1.; seed = 2023 }

let pauli_table : (int, Mat.t array) Hashtbl.t = Hashtbl.create 4
let pauli_mutex = Mutex.create ()

(* The table is shared by every domain running trajectories, so the
   check-and-fill must be atomic. The returned arrays are never mutated. *)
let pauli_set ~d =
  Mutex.lock pauli_mutex;
  let held = Sanitize.Lock.acquire "noise.pauli_mutex" in
  let set =
    match Hashtbl.find_opt pauli_table d with
    | Some set ->
      Sanitize.Shared.read "noise.pauli_table";
      set
    | None ->
      let set = Array.init (d * d) (fun k -> Qudit_ops.pauli ~d (k / d) (k mod d)) in
      Sanitize.Shared.write "noise.pauli_table";
      Hashtbl.add pauli_table d set;
      set
  in
  Sanitize.Lock.release "noise.pauli_mutex" held;
  Mutex.unlock pauli_mutex;
  set

let draw_error rng ~dims ~p =
  if p <= 0. then None
  else if Rng.float rng 1. >= p then None
  else begin
    (* Uniform over the non-identity elements of the product Pauli set. *)
    let total = List.fold_left (fun acc d -> acc * d * d) 1 dims in
    let k = 1 + Rng.int rng (total - 1) in
    let rec split k = function
      | [] -> []
      | d :: rest ->
        let block = List.fold_left (fun acc d' -> acc * d' * d') 1 rest in
        let idx = k / block in
        (pauli_set ~d).(idx) :: split (k mod block) rest
    in
    Some (split k dims)
  end

let t1_of_level model k =
  if k < 1 then invalid_arg "Noise.t1_of_level";
  let base = model.t1_base_ns /. float_of_int k in
  if k >= 2 then base /. model.t1_high_scale else base

let damping_lambdas model ~d ~dt_ns =
  Array.init d (fun m ->
      if m = 0 then 0. else 1. -. exp (-.dt_ns /. t1_of_level model m))

(* The closure's table is only reached from the planner today, but the
   check-and-fill is a classic racy cache shape, so it is guarded by its
   own mutex (one per closure; negligible, planning probes it a handful of
   times) and instrumented — if a future caller ever shares a closure
   across domains the sanitizer sees ordered, lock-protected accesses
   instead of flagging a latent race. *)
let damping_cache model ~d =
  let table : (float, float array) Hashtbl.t = Hashtbl.create 16 in
  let table_mutex = Mutex.create () in
  fun dt_ns ->
    Mutex.lock table_mutex;
    let held = Sanitize.Lock.acquire "noise.damping_cache.m" in
    let lambdas, hit =
      match Hashtbl.find_opt table dt_ns with
      | Some lambdas ->
        Sanitize.Shared.read "noise.damping_cache";
        (lambdas, true)
      | None ->
        let lambdas = damping_lambdas model ~d ~dt_ns in
        Sanitize.Shared.write "noise.damping_cache";
        Hashtbl.add table dt_ns lambdas;
        (lambdas, false)
    in
    Sanitize.Lock.release "noise.damping_cache.m" held;
    Mutex.unlock table_mutex;
    Waltz_telemetry.Telemetry.Metrics.incr
      (if hit then "noise.damping_cache.hit" else "noise.damping_cache.miss");
    lambdas

let decoherence_survival model ~max_level ~dt_ns =
  if max_level <= 0 then 1. else exp (-.dt_ns /. t1_of_level model max_level)
