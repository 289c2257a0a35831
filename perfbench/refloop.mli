(** The reference loop every timed operation of the ledger is bracketed by.
    It calls no Waltz library function and allocates nothing on the OCaml
    heap. *)

val init : unit -> unit
(** Allocates the loop's arrays; idempotent. *)

val run : unit -> unit
(** One run: a fixed number of 4x4 complex matrix products, block writes
    over a 2 MiB region and read-modify-write sweeps over a 4 MiB array. *)

val checksum : Float.Array.t
(** One cell: the value the last {!run} computed, the same on every run. *)
