module Sanitize = Waltz_sanitizer.Sanitize

type fixture = {
  name : string;
  expected_rule : string;
  detection_mode : Sanitize.mode;
  body : unit -> unit;
}

let as_thread k f = Sanitize.Tid.with_virtual k f

(* Two unsynchronized writes to one cache slot from different threads: no
   lock, no fork/join edge — the precise detector must see the race. *)
let unguarded_cache_write () =
  as_thread 0 (fun () -> Sanitize.Shared.write "fixture.cache");
  as_thread 1 (fun () -> Sanitize.Shared.write "fixture.cache")

(* Each thread protects the location, but with a different lock, so the
   candidate lockset empties: Eraser's claim fires even though this
   particular interleaving may never race. *)
let inconsistent_lockset () =
  as_thread 0 (fun () ->
      let a = Sanitize.Lock.acquire "fixture.lock_a" in
      Sanitize.Shared.write "fixture.shared";
      Sanitize.Lock.release "fixture.lock_a" a);
  as_thread 1 (fun () ->
      let b = Sanitize.Lock.acquire "fixture.lock_b" in
      Sanitize.Shared.write "fixture.shared";
      Sanitize.Lock.release "fixture.lock_b" b)

(* Opposite nesting orders for the same two locks: the acquisition graph
   gets the cycle a -> b -> a. *)
let lock_order_inversion () =
  as_thread 0 (fun () ->
      let outer = Sanitize.Lock.acquire "fixture.outer" in
      let inner = Sanitize.Lock.acquire "fixture.inner" in
      Sanitize.Lock.release "fixture.inner" inner;
      Sanitize.Lock.release "fixture.outer" outer);
  as_thread 1 (fun () ->
      let inner = Sanitize.Lock.acquire "fixture.inner" in
      let outer = Sanitize.Lock.acquire "fixture.outer" in
      Sanitize.Lock.release "fixture.outer" outer;
      Sanitize.Lock.release "fixture.inner" inner)

(* Releasing a mutex twice: the second release, judged in the epoch that
   recorded the acquisition, finds the lock no longer held. *)
let unbalanced_release () =
  as_thread 0 (fun () ->
      let held = Sanitize.Lock.acquire "fixture.stray" in
      Sanitize.Lock.release "fixture.stray" held;
      Sanitize.Lock.release "fixture.stray" held)

(* A per-domain arena created by one thread and touched by another. *)
let cross_domain_arena () =
  let arena = as_thread 0 (fun () -> Sanitize.Arena.create "fixture.arena") in
  as_thread 0 (fun () -> Sanitize.Arena.touch arena);
  as_thread 1 (fun () -> Sanitize.Arena.touch arena)

let all =
  [ { name = "unguarded-cache-write";
      expected_rule = "RACE01";
      detection_mode = Sanitize.Happens_before;
      body = unguarded_cache_write };
    { name = "inconsistent-lockset";
      expected_rule = "RACE02";
      detection_mode = Sanitize.Lockset;
      body = inconsistent_lockset };
    { name = "lock-order-inversion";
      expected_rule = "LOCK01";
      detection_mode = Sanitize.Both;
      body = lock_order_inversion };
    { name = "unbalanced-release";
      expected_rule = "LOCK02";
      detection_mode = Sanitize.Both;
      body = unbalanced_release };
    { name = "cross-domain-arena";
      expected_rule = "OWN01";
      detection_mode = Sanitize.Both;
      body = cross_domain_arena } ]

let find name = List.find_opt (fun f -> f.name = name) all

let run fixture =
  Sanitize.reset ();
  Sanitize.set_mode fixture.detection_mode;
  Sanitize.enable ();
  Fun.protect ~finally:Sanitize.disable fixture.body;
  Sanitize.findings ()

let check fixture =
  let findings = run fixture in
  let rules =
    List.sort_uniq compare (List.map (fun (f : Sanitize.finding) -> f.Sanitize.rule) findings)
  in
  match rules with
  | [] -> Error (Printf.sprintf "%s: no finding (expected %s)" fixture.name fixture.expected_rule)
  | [ r ] when r = fixture.expected_rule -> Ok ()
  | rs ->
    Error
      (Printf.sprintf "%s: expected exactly %s, got [%s]" fixture.name fixture.expected_rule
         (String.concat "; " rs))
