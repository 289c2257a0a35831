(* Shared helpers for the test suites. *)
open Waltz_linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close ?(tol = 1e-9) msg a b =
  if Float.abs (a -. b) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg a b tol

let mat_equal ?(tol = 1e-9) msg a b =
  if not (Mat.equal ~tol a b) then
    Alcotest.failf "%s: matrices differ by %g" msg (Mat.max_abs_diff a b)

let mat_equal_phase ?(tol = 1e-9) msg a b =
  if not (Mat.equal_up_to_phase ~tol a b) then
    Alcotest.failf "%s: matrices differ (up to phase) by norm %g" msg (Mat.max_abs_diff a b)

let assert_unitary ?(tol = 1e-9) msg m =
  if not (Mat.is_unitary ~tol m) then Alcotest.failf "%s: not unitary" msg

let rng seed = Rng.make ~seed

(* A quick case helper. *)
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The scaling-and-squaring Taylor exponential that [Mat.expm] used before
   its Padé core, kept as an oracle: ||A/2^s||₁ ≤ 1/2, series until the
   terms vanish, square back up. *)
let taylor_expm a =
  let n = a.Mat.rows in
  let nrm = Mat.one_norm a in
  let s =
    if nrm <= 0.5 then 0 else int_of_float (Float.ceil (Float.log (nrm /. 0.5) /. Float.log 2.))
  in
  let x = Mat.scale (Cplx.re (1. /. Float.of_int (1 lsl s))) a in
  let result = ref (Mat.identity n) and term = ref (Mat.identity n) in
  let k = ref 1 and continue = ref true in
  while !continue && !k < 40 do
    term := Mat.scale (Cplx.re (1. /. float_of_int !k)) (Mat.mul !term x);
    result := Mat.add !result !term;
    if Mat.max_abs !term < 1e-16 then continue := false;
    incr k
  done;
  let r = ref !result in
  for _ = 1 to s do
    r := Mat.mul !r !r
  done;
  !r
