(* The reference loop that every timed operation of the ledger is bracketed
   by (see [bracket] and [settle] in ledger.ml).

   It is the ledger's own code: it calls no library function, so no change
   to the program under test can move it, and it allocates nothing on the
   OCaml heap, so it neither triggers nor pays for a collection. Its work
   mixes what the timed operations are made of: small dense complex matrix
   products held in registers and L1 (the GRAPE loop, gate lifting, kernel
   compilation); short sequential block writes over a region the size of
   the minor heap, read back as they are written (what allocation-heavy
   code does to the cache); and a read-modify-write stream over an array
   larger than L2 (trajectory kernels on 4^9-amplitude registers). A
   neighbour that takes the core, its caches or the memory bus slows it
   as it slows the operations, which is why the ratio of an operation's
   time to its brackets repeats where raw time does not. In a probe on the
   reference host, the mix tracked GRAPE and trajectory-simulation times
   more closely than the products and stream alone or the block writes
   alone. *)

let dim = 4
let entries = dim * dim

(* 4 MiB: twice the per-core L2 of the host this was tuned on. *)
let stream_len = 1 lsl 19

(* 2 MiB: the runtime's default minor heap (256k words). *)
let blocks_len = 1 lsl 18
let block = 20
let block_rounds = 4

(* Three dim x dim complex matrices as re/im planes (A, B and C = A * B),
   the block region and the stream. Allocated by [init], so that neither
   set-up nor [run] pays for them. *)
let mats = ref (Float.Array.create 0)
let blocks = ref (Float.Array.create 0)
let stream = ref (Float.Array.create 0)

let init () =
  if Float.Array.length !stream = 0 then begin
    mats := Float.Array.make (6 * entries) 0.;
    blocks := Float.Array.make blocks_len 0.;
    stream := Float.Array.make stream_len 1.
  end

(* Product rounds, block rounds and stream sweeps per call: about 3.5 ms on
   the reference host. *)
let product_rounds = 6_000
let stream_sweeps = 3

(* The checksum of the last call: the same on every call, in every
   workload, so records can show that they ran the same loop. *)
let checksum = Float.Array.make 1 0.

let a_re i = i
let a_im i = entries + i
let b_re i = (2 * entries) + i
let b_im i = (3 * entries) + i
let c_re i = (4 * entries) + i
let c_im i = (5 * entries) + i

(* B = cos(t) I + i sin(t) P with P the involution swapping levels 0<->1
   and 2<->3 is unitary, so repeated products keep A's entries bounded and
   the work fixed. *)
let reset mats =
  let theta = 0.3 in
  let c = cos theta and s = sin theta in
  for i = 0 to entries - 1 do
    let r = i / dim and col = i mod dim in
    Float.Array.unsafe_set mats (a_re i) (if r = col then 1. else 0.);
    Float.Array.unsafe_set mats (a_im i) 0.;
    Float.Array.unsafe_set mats (b_re i) (if r = col then c else 0.);
    Float.Array.unsafe_set mats (b_im i) (if col = r lxor 1 then s else 0.)
  done

let run () =
  let mats = !mats and blocks = !blocks and stream = !stream in
  if Float.Array.length stream <> stream_len then invalid_arg "Refloop.run before Refloop.init";
  reset mats;
  for _ = 1 to product_rounds do
    for i = 0 to dim - 1 do
      for j = 0 to dim - 1 do
        let re = ref 0. and im = ref 0. in
        for k = 0 to dim - 1 do
          let ar = Float.Array.unsafe_get mats (a_re ((i * dim) + k))
          and ai = Float.Array.unsafe_get mats (a_im ((i * dim) + k))
          and br = Float.Array.unsafe_get mats (b_re ((k * dim) + j))
          and bi = Float.Array.unsafe_get mats (b_im ((k * dim) + j)) in
          re := !re +. ((ar *. br) -. (ai *. bi));
          im := !im +. ((ar *. bi) +. (ai *. br))
        done;
        Float.Array.unsafe_set mats (c_re ((i * dim) + j)) !re;
        Float.Array.unsafe_set mats (c_im ((i * dim) + j)) !im
      done
    done;
    for i = 0 to (2 * entries) - 1 do
      Float.Array.unsafe_set mats i (Float.Array.unsafe_get mats ((4 * entries) + i))
    done
  done;
  let acc = ref 0. in
  for r = 1 to block_rounds do
    let i = ref 0 in
    while !i + block <= blocks_len do
      for j = 0 to block - 1 do
        Float.Array.unsafe_set blocks (!i + j) (float_of_int (r + j))
      done;
      acc := !acc +. Float.Array.unsafe_get blocks (!i + 3);
      i := !i + block
    done
  done;
  for _ = 1 to stream_sweeps do
    for i = 0 to stream_len - 1 do
      let x = Float.Array.unsafe_get stream i in
      Float.Array.unsafe_set stream i ((x *. 0.5) +. 0.5);
      acc := !acc +. x
    done
  done;
  let trace = ref 0. in
  for i = 0 to dim - 1 do
    trace := !trace +. Float.Array.unsafe_get mats (a_re ((i * dim) + i))
  done;
  Float.Array.unsafe_set checksum 0 (!acc +. !trace)
