type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create";
  { rows; cols; re = Array.make (rows * cols) 0.; im = Array.make (rows * cols) 0. }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let (z : Cplx.t) = f i j in
      m.re.((i * cols) + j) <- z.re;
      m.im.((i * cols) + j) <- z.im
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cplx.one else Cplx.zero)
let zeros rows cols = create rows cols

let of_rows rows =
  match rows with
  | [] -> invalid_arg "Mat.of_rows: empty"
  | first :: _ ->
    let nrows = List.length rows and ncols = List.length first in
    if List.exists (fun r -> List.length r <> ncols) rows then
      invalid_arg "Mat.of_rows: ragged rows";
    let arr = Array.of_list (List.map Array.of_list rows) in
    init nrows ncols (fun i j -> arr.(i).(j))

let of_real_rows rows = of_rows (List.map (List.map Cplx.re) rows)

let diag d =
  let n = Array.length d in
  init n n (fun i j -> if i = j then d.(i) else Cplx.zero)

let permutation n f =
  let seen = Array.make n false in
  for k = 0 to n - 1 do
    let fk = f k in
    if fk < 0 || fk >= n || seen.(fk) then invalid_arg "Mat.permutation: not a bijection";
    seen.(fk) <- true
  done;
  init n n (fun i j -> if i = f j then Cplx.one else Cplx.zero)

let get m i j = Cplx.c m.re.((i * m.cols) + j) m.im.((i * m.cols) + j)

let set m i j (z : Cplx.t) =
  m.re.((i * m.cols) + j) <- z.re;
  m.im.((i * m.cols) + j) <- z.im

let dims m = (m.rows, m.cols)
let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let map2 name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg ("Mat." ^ name ^ ": dimension mismatch");
  { a with
    re = Array.init (Array.length a.re) (fun k -> f a.re.(k) b.re.(k));
    im = Array.init (Array.length a.im) (fun k -> f a.im.(k) b.im.(k)) }

let add a b = map2 "add" ( +. ) a b
let sub a b = map2 "sub" ( -. ) a b

let scale (z : Cplx.t) m =
  { m with
    re = Array.init (Array.length m.re) (fun k -> (z.re *. m.re.(k)) -. (z.im *. m.im.(k)));
    im = Array.init (Array.length m.im) (fun k -> (z.re *. m.im.(k)) +. (z.im *. m.re.(k))) }

let well_formed m = Array.length m.re = m.rows * m.cols && Array.length m.im = m.rows * m.cols

let mul_into ~dst a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul_into: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then invalid_arg "Mat.mul_into: dst dimension";
  if not (well_formed a && well_formed b && well_formed dst) then
    invalid_arg "Mat.mul_into: storage does not match dimensions";
  if dst.re == a.re || dst.re == b.re || dst.im == a.im || dst.im == b.im then
    invalid_arg "Mat.mul_into: dst aliases an input";
  let ar = a.re and ai = a.im and br = b.re and bi = b.im and dr = dst.re and di = dst.im in
  let n = a.cols and m = b.cols in
  Array.fill dr 0 (Array.length dr) 0.;
  Array.fill di 0 (Array.length di) 0.;
  (* Lengths checked above, so the unchecked accesses stay in bounds. *)
  for i = 0 to a.rows - 1 do
    let arow = i * n and drow = i * m in
    for k = 0 to n - 1 do
      let are = Array.unsafe_get ar (arow + k) and aim = Array.unsafe_get ai (arow + k) in
      if are <> 0. || aim <> 0. then begin
        let brow = k * m in
        for j = 0 to m - 1 do
          let bre = Array.unsafe_get br (brow + j) and bim = Array.unsafe_get bi (brow + j) in
          let idx = drow + j in
          Array.unsafe_set dr idx (Array.unsafe_get dr idx +. (are *. bre) -. (aim *. bim));
          Array.unsafe_set di idx (Array.unsafe_get di idx +. (are *. bim) +. (aim *. bre))
        done
      end
    done
  done

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let m = create a.rows b.cols in
  mul_into ~dst:m a b;
  m

let mul_many = function
  | [] -> invalid_arg "Mat.mul_many: empty"
  | first :: rest -> List.fold_left mul first rest

let apply m (v : Vec.t) =
  if m.cols <> v.n then invalid_arg "Mat.apply: dimension mismatch";
  let out = Vec.create m.rows in
  for i = 0 to m.rows - 1 do
    let re = ref 0. and im = ref 0. in
    for j = 0 to m.cols - 1 do
      let mre = m.re.((i * m.cols) + j) and mim = m.im.((i * m.cols) + j) in
      re := !re +. (mre *. v.Vec.re.(j)) -. (mim *. v.Vec.im.(j));
      im := !im +. (mre *. v.Vec.im.(j)) +. (mim *. v.Vec.re.(j))
    done;
    out.Vec.re.(i) <- !re;
    out.Vec.im.(i) <- !im
  done;
  out

let transpose m = init m.cols m.rows (fun i j -> get m j i)
let conj m = { m with im = Array.map Float.neg m.im }
let adjoint m = transpose (conj m)

let kron a b =
  let rows = a.rows * b.rows and cols = a.cols * b.cols in
  init rows cols (fun i j ->
      let ai = i / b.rows and bi = i mod b.rows in
      let aj = j / b.cols and bj = j mod b.cols in
      Cplx.( *: ) (get a ai aj) (get b bi bj))

let kron_many = function
  | [] -> invalid_arg "Mat.kron_many: empty"
  | first :: rest -> List.fold_left kron first rest

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: not square";
  let re = ref 0. and im = ref 0. in
  for i = 0 to m.rows - 1 do
    re := !re +. m.re.((i * m.cols) + i);
    im := !im +. m.im.((i * m.cols) + i)
  done;
  Cplx.c !re !im

let one_norm m =
  let best = ref 0. in
  for j = 0 to m.cols - 1 do
    let acc = ref 0. in
    for i = 0 to m.rows - 1 do
      let idx = (i * m.cols) + j in
      acc := !acc +. Float.hypot m.re.(idx) m.im.(idx)
    done;
    if !acc > !best then best := !acc
  done;
  !best

let max_abs m =
  let best = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    let v = sqrt ((m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))) in
    if v > !best then best := v
  done;
  !best

let max_abs_diff a b = max_abs (sub a b)
let equal ?(tol = 1e-9) a b = a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol

let equal_up_to_phase ?(tol = 1e-9) a b =
  if a.rows <> b.rows || a.cols <> b.cols then false
  else begin
    (* Find the largest entry of b and use it to fix the phase. *)
    let best = ref 0. and bi = ref 0 in
    for k = 0 to Array.length b.re - 1 do
      let v = (b.re.(k) *. b.re.(k)) +. (b.im.(k) *. b.im.(k)) in
      if v > !best then begin
        best := v;
        bi := k
      end
    done;
    if !best <= tol *. tol then max_abs a <= tol
    else begin
      let zb = Cplx.c b.re.(!bi) b.im.(!bi) and za = Cplx.c a.re.(!bi) a.im.(!bi) in
      let phase = Cplx.( /: ) za zb in
      if Float.abs (Cplx.norm phase -. 1.) > 1e-6 then false
      else equal ~tol a (scale phase b)
    end
  end

let is_unitary ?(tol = 1e-9) m =
  m.rows = m.cols && equal ~tol (mul (adjoint m) m) (identity m.rows)

let is_diagonal m =
  m.rows = m.cols
  &&
  let ok = ref true in
  (try
     for i = 0 to m.rows - 1 do
       let row = i * m.cols in
       for j = 0 to m.cols - 1 do
         if i <> j && (m.re.(row + j) <> 0. || m.im.(row + j) <> 0.) then begin
           ok := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !ok

let diagonal_entries m =
  if m.rows <> m.cols || not (is_diagonal m) then None
  else
    Some
      ( Array.init m.rows (fun i -> m.re.((i * m.cols) + i)),
        Array.init m.rows (fun i -> m.im.((i * m.cols) + i)) )

let monomial_structure m =
  if m.rows <> m.cols then None
  else begin
    let n = m.rows in
    let src = Array.make n (-1) in
    let pre = Array.make n 0. and pim = Array.make n 0. in
    let col_used = Array.make n false in
    let ok = ref true in
    (try
       for i = 0 to n - 1 do
         let row = i * n in
         let found = ref (-1) in
         for j = 0 to n - 1 do
           if m.re.(row + j) <> 0. || m.im.(row + j) <> 0. then begin
             if !found >= 0 then begin
               ok := false;
               raise Exit
             end;
             found := j
           end
         done;
         if !found < 0 || col_used.(!found) then begin
           ok := false;
           raise Exit
         end;
         col_used.(!found) <- true;
         src.(i) <- !found;
         pre.(i) <- m.re.(row + !found);
         pim.(i) <- m.im.(row + !found)
       done
     with Exit -> ());
    if !ok then Some (src, pre, pim) else None
  end

let active_subspace m =
  if m.rows <> m.cols then invalid_arg "Mat.active_subspace: not square";
  let n = m.rows in
  let active = Array.make n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let re = m.re.((i * n) + j) and im = m.im.((i * n) + j) in
      let id_re = if i = j then 1. else 0. in
      if re <> id_re || im <> 0. then begin
        active.(i) <- true;
        active.(j) <- true
      end
    done
  done;
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 active in
  let out = Array.make count 0 in
  let k = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        out.(!k) <- i;
        incr k
      end)
    active;
  out

let process_fidelity u v =
  if u.rows <> v.rows || u.rows <> u.cols || v.rows <> v.cols then
    invalid_arg "Mat.process_fidelity";
  let t = trace (mul (adjoint u) v) in
  Cplx.norm2 t /. float_of_int (u.rows * u.rows)

(* ---- Matrix exponential: scaling and squaring over diagonal Padé
   approximants (Higham, SIAM J. Matrix Anal. Appl. 26, 2005). ---- *)

type expm_workspace = {
  n : int;
  x : t;  (* the (scaled) argument *)
  pows : t array;  (* x², x⁴, x⁶ and x⁸ (or scratch on the degree-13 path) *)
  u : t;  (* odd part *)
  v : t;  (* even part *)
  w : t;  (* scratch *)
  q : t;  (* V − U, eliminated in place *)
  r : t;  (* V + U, then the solution *)
}

let expm_workspace n =
  let m () = create n n in
  { n; x = m (); pows = Array.init 4 (fun _ -> m ()); u = m (); v = m (); w = m (); q = m ();
    r = m () }

(* θ_m: the largest one-norm at which the degree-m approximant is accurate to
   unit roundoff, and the Padé numerator coefficients b_0 … b_m. *)
let theta_3 = 1.495585217958292e-2
let theta_5 = 2.539398330063230e-1
let theta_7 = 9.504178996162932e-1
let theta_9 = 2.097847961257068e0
let theta_13 = 5.371920351148152e0

let pade_3 = [| 120.; 60.; 12.; 1. |]
let pade_5 = [| 30240.; 15120.; 3360.; 420.; 30.; 1. |]
let pade_7 = [| 17297280.; 8648640.; 1995840.; 277200.; 25200.; 1512.; 56.; 1. |]

let pade_9 =
  [| 17643225600.; 8821612800.; 2075673600.; 302702400.; 30270240.; 2162160.; 110880.;
     3960.; 90.; 1. |]

let pade_13 =
  [| 64764752532480000.; 32382376266240000.; 7771770303897600.; 1187353796428800.;
     129060195264000.; 10559470521600.; 670442572800.; 33522128640.; 1323241920.;
     40840800.; 960960.; 16380.; 182.; 1. |]

(* dst ← c_id·I + Σ_{k < count} b.(first + 2k)·pows.(k). *)
let poly_into ~dst ~c_id b ~first ~count pows =
  Array.fill dst.re 0 (Array.length dst.re) 0.;
  Array.fill dst.im 0 (Array.length dst.im) 0.;
  for i = 0 to dst.rows - 1 do
    dst.re.((i * dst.cols) + i) <- c_id
  done;
  for k = 0 to count - 1 do
    let c = b.(first + (2 * k)) and m = pows.(k) in
    for idx = 0 to Array.length dst.re - 1 do
      dst.re.(idx) <- dst.re.(idx) +. (c *. m.re.(idx));
      dst.im.(idx) <- dst.im.(idx) +. (c *. m.im.(idx))
    done
  done

(* dst ← dst + sign·m *)
let acc_into ~dst sign m =
  for idx = 0 to Array.length dst.re - 1 do
    dst.re.(idx) <- dst.re.(idx) +. (sign *. m.re.(idx));
    dst.im.(idx) <- dst.im.(idx) +. (sign *. m.im.(idx))
  done

let swap_rows m i j =
  let n = m.cols in
  for c = 0 to n - 1 do
    let a = (i * n) + c and b = (j * n) + c in
    let t = m.re.(a) in
    m.re.(a) <- m.re.(b);
    m.re.(b) <- t;
    let t = m.im.(a) in
    m.im.(a) <- m.im.(b);
    m.im.(b) <- t
  done

(* Solves q·X = r in place (X overwrites r) by Gaussian elimination with
   partial pivoting; q is destroyed. *)
let solve_in_place q r =
  let n = q.rows in
  let qr = q.re and qi = q.im and rr = r.re and ri = r.im in
  for k = 0 to n - 1 do
    let piv = ref k and best = ref (-1.) in
    for i = k to n - 1 do
      let idx = (i * n) + k in
      let mag = Float.abs qr.(idx) +. Float.abs qi.(idx) in
      if mag > !best then begin
        best := mag;
        piv := i
      end
    done;
    if !piv <> k then begin
      swap_rows q k !piv;
      swap_rows r k !piv
    end;
    let kk = (k * n) + k in
    let pr = qr.(kk) and pi = qi.(kk) in
    let den = (pr *. pr) +. (pi *. pi) in
    if den = 0. then invalid_arg "Mat.expm: singular Padé denominator";
    (* 1 / pivot *)
    let ir = pr /. den and ii = -.pi /. den in
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      let ar = qr.(ik) and ai = qi.(ik) in
      if ar <> 0. || ai <> 0. then begin
        let lr = (ar *. ir) -. (ai *. ii) and li = (ar *. ii) +. (ai *. ir) in
        for c = k + 1 to n - 1 do
          let ic = (i * n) + c and kc = (k * n) + c in
          qr.(ic) <- qr.(ic) -. ((lr *. qr.(kc)) -. (li *. qi.(kc)));
          qi.(ic) <- qi.(ic) -. ((lr *. qi.(kc)) +. (li *. qr.(kc)))
        done;
        for c = 0 to n - 1 do
          let ic = (i * n) + c and kc = (k * n) + c in
          rr.(ic) <- rr.(ic) -. ((lr *. rr.(kc)) -. (li *. ri.(kc)));
          ri.(ic) <- ri.(ic) -. ((lr *. ri.(kc)) +. (li *. rr.(kc)))
        done
      end
    done
  done;
  for k = n - 1 downto 0 do
    for j = k + 1 to n - 1 do
      let kj = (k * n) + j in
      let ar = qr.(kj) and ai = qi.(kj) in
      if ar <> 0. || ai <> 0. then
        for c = 0 to n - 1 do
          let kc = (k * n) + c and jc = (j * n) + c in
          rr.(kc) <- rr.(kc) -. ((ar *. rr.(jc)) -. (ai *. ri.(jc)));
          ri.(kc) <- ri.(kc) -. ((ar *. ri.(jc)) +. (ai *. rr.(jc)))
        done
    done;
    let kk = (k * n) + k in
    let pr = qr.(kk) and pi = qi.(kk) in
    let den = (pr *. pr) +. (pi *. pi) in
    let ir = pr /. den and ii = -.pi /. den in
    for c = 0 to n - 1 do
      let kc = (k * n) + c in
      let xr = rr.(kc) and xi = ri.(kc) in
      rr.(kc) <- (xr *. ir) -. (xi *. ii);
      ri.(kc) <- (xr *. ii) +. (xi *. ir)
    done
  done

let expm_into ws ~dst a =
  if a.rows <> a.cols then invalid_arg "Mat.expm_into: not square";
  if a.rows <> ws.n || dst.rows <> ws.n || dst.cols <> ws.n then
    invalid_arg "Mat.expm_into: dimension mismatch";
  let { x; pows; u; v; w; q; r; _ } = ws in
  let x2 = pows.(0) and x4 = pows.(1) and x6 = pows.(2) and x8 = pows.(3) in
  let nrm = one_norm a in
  let s =
    if nrm <= theta_13 then 0
    else int_of_float (Float.ceil (Float.log2 (nrm /. theta_13)))
  in
  let inv = Float.ldexp 1. (-s) in
  for idx = 0 to Array.length a.re - 1 do
    x.re.(idx) <- inv *. a.re.(idx);
    x.im.(idx) <- inv *. a.im.(idx)
  done;
  mul_into ~dst:x2 x x;
  let degree =
    if nrm <= theta_3 then 3 else if nrm <= theta_5 then 5 else if nrm <= theta_7 then 7
    else if nrm <= theta_9 then 9 else 13
  in
  if degree >= 5 then mul_into ~dst:x4 x2 x2;
  if degree >= 7 then mul_into ~dst:x6 x4 x2;
  if degree = 9 then mul_into ~dst:x8 x6 x2;
  if degree <= 9 then begin
    (* U = x·(b_1 I + b_3 x² + …), V = b_0 I + b_2 x² + … *)
    let b =
      match degree with 3 -> pade_3 | 5 -> pade_5 | 7 -> pade_7 | _ -> pade_9
    in
    let count = (degree - 1) / 2 in
    poly_into ~dst:w ~c_id:b.(1) b ~first:3 ~count pows;
    mul_into ~dst:u x w;
    poly_into ~dst:v ~c_id:b.(0) b ~first:2 ~count pows
  end
  else begin
    let b = pade_13 in
    (* U = x·[x⁶·(b13 x⁶ + b11 x⁴ + b9 x²) + b7 x⁶ + b5 x⁴ + b3 x² + b1 I] *)
    poly_into ~dst:w ~c_id:0. b ~first:9 ~count:3 pows;
    mul_into ~dst:x8 x6 w;
    poly_into ~dst:w ~c_id:b.(1) b ~first:3 ~count:3 pows;
    acc_into ~dst:w 1. x8;
    mul_into ~dst:u x w;
    (* V = x⁶·(b12 x⁶ + b10 x⁴ + b8 x²) + b6 x⁶ + b4 x⁴ + b2 x² + b0 I *)
    poly_into ~dst:w ~c_id:0. b ~first:8 ~count:3 pows;
    mul_into ~dst:x8 x6 w;
    poly_into ~dst:v ~c_id:b.(0) b ~first:2 ~count:3 pows;
    acc_into ~dst:v 1. x8
  end;
  (* Solve (V − U)·R = V + U. *)
  Array.blit v.re 0 q.re 0 (Array.length v.re);
  Array.blit v.im 0 q.im 0 (Array.length v.im);
  acc_into ~dst:q (-1.) u;
  Array.blit v.re 0 r.re 0 (Array.length v.re);
  Array.blit v.im 0 r.im 0 (Array.length v.im);
  acc_into ~dst:r 1. u;
  solve_in_place q r;
  (* Square back up, alternating between r and w. *)
  let cur = ref r and spare = ref w in
  for _ = 1 to s do
    mul_into ~dst:!spare !cur !cur;
    let t = !cur in
    cur := !spare;
    spare := t
  done;
  Array.blit !cur.re 0 dst.re 0 (Array.length dst.re);
  Array.blit !cur.im 0 dst.im 0 (Array.length dst.im)

let expm a =
  if a.rows <> a.cols then invalid_arg "Mat.expm: not square";
  let dst = create a.rows a.rows in
  expm_into (expm_workspace a.rows) ~dst a;
  dst

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf "  ";
      Cplx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
