(* Flight recorder: a fixed-size per-domain ring buffer of recent span
   begin/end and counter events, kept cheap enough to leave on in a
   long-running server and dumped post-mortem when something goes wrong.

   Design points:
   - One process-wide arm flag (an [Atomic.t], also settable via the
     WALTZ_FLIGHT=1 environment knob). Disarmed — the default — every
     instrumented call is a single atomic load, and the recorded results are
     bit-identical to an unrecorded run (the recorder never touches RNG
     streams or reorders work).
   - Each domain writes only its own ring (single-writer, lock-free):
     structure-of-arrays slots (kind/name/time/value) addressed by a
     monotonically increasing head modulo the capacity, so old events are
     dropped oldest-first and steady-state recording allocates nothing —
     every write is a store into a preallocated array.
   - Dumps walk all registered rings. Readers take no lock against writers:
     a post-mortem snapshot tolerates a torn slot at the ring head (the
     pairing pass drops orphans), which we accept in exchange for never
     stalling the hot path. Ring registration itself is ordered by a mutex
     and marked for the concurrency sanitizer. *)

module Sanitize = Waltz_sanitizer.Sanitize

let armed_flag = Atomic.make false
let armed () = Atomic.get armed_flag
let arm () = Atomic.set armed_flag true
let disarm () = Atomic.set armed_flag false

let () = match Sys.getenv_opt "WALTZ_FLIGHT" with Some "1" -> arm () | _ -> ()

(* Event kinds, packed as ints in the ring. *)
let k_begin = 0
let k_end = 1
let k_count = 2

let default_capacity = 4096

let capacity_req = Atomic.make default_capacity

(* Bumping the epoch lazily invalidates every ring: writers re-initialize
   their domain's ring the next time they touch it. This is how [reset] and
   [set_capacity] work without coordinating with concurrent writers. *)
let epoch = Atomic.make 0

type ring = {
  track : int;            (* owning domain's id *)
  ring_epoch : int;
  cap : int;
  kinds : int array;
  names : string array;
  times : float array;    (* us, monotonic *)
  values : int array;     (* counter increment for k_count; 0 otherwise *)
  mutable pos : int;      (* next slot to write, wraps at [cap] *)
  mutable total : int;    (* total events ever written *)
}

let registry : ring list ref = ref []
let registry_mutex = Mutex.create ()

let lock_registry () =
  Mutex.lock registry_mutex;
  Sanitize.Lock.acquire "recorder.registry_mutex"

let unlock_registry held =
  Sanitize.Lock.release "recorder.registry_mutex" held;
  Mutex.unlock registry_mutex

let make_ring () =
  let cap = max 16 (Atomic.get capacity_req) in
  let r =
    { track = (Domain.self () :> int); ring_epoch = Atomic.get epoch; cap;
      kinds = Array.make cap 0; names = Array.make cap "";
      times = Array.make cap 0.; values = Array.make cap 0; pos = 0; total = 0 }
  in
  let held = lock_registry () in
  Sanitize.Shared.write "recorder.registry";
  registry := r :: !registry;
  unlock_registry held;
  r

let ring_key : ring ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (make_ring ()))

(* The hot-path accessor: one DLS read plus an epoch check. Re-initializes
   (allocates) only after reset/set_capacity. *)
let my_ring () =
  let cell = Domain.DLS.get ring_key in
  let r = !cell in
  if r.ring_epoch <> Atomic.get epoch then begin
    let r' = make_ring () in
    cell := r';
    r'
  end
  else r

(* The writer's whole steady-state cost: four stores and two counter
   bumps. [pos] wraps with a compare instead of an integer division, and
   the stores are unchecked — [pos < cap] by construction and the ring is
   single-writer. *)
let push_at kind name value t_us =
  let r = my_ring () in
  let slot = r.pos in
  Array.unsafe_set r.kinds slot kind;
  Array.unsafe_set r.names slot name;
  Array.unsafe_set r.times slot t_us;
  Array.unsafe_set r.values slot value;
  let p = slot + 1 in
  r.pos <- (if p = r.cap then 0 else p);
  r.total <- r.total + 1

let push kind name value = push_at kind name value (Clock.now_us ())

let record_begin name = if Atomic.get armed_flag then push k_begin name 0
let record_end name = if Atomic.get armed_flag then push k_end name 0
let record_count name by = if Atomic.get armed_flag then push k_count name by

(* Timestamp-passing variants for callers that already read the clock (a
   span shares one read between its own bookkeeping and the ring). *)
let record_begin_at name t_us = if Atomic.get armed_flag then push_at k_begin name 0 t_us
let record_end_at name t_us = if Atomic.get armed_flag then push_at k_end name 0 t_us

let reset () = Atomic.incr epoch

let set_capacity n =
  Atomic.set capacity_req (max 16 n);
  Atomic.incr epoch

(* ---- snapshot ---- *)

type kind = Begin | End | Count

type event = { kind : kind; name : string; t_us : float; value : int }

let kind_of = function
  | 0 -> Begin
  | 1 -> End
  | _ -> Count

let snapshot_ring r =
  (* Oldest surviving slot first. Taken without locking the writer; see the
     module comment for why a torn head slot is acceptable. *)
  let n = min r.total r.cap in
  let first = r.total - n in
  List.init n (fun i ->
      let slot = (first + i) mod r.cap in
      { kind = kind_of r.kinds.(slot); name = r.names.(slot);
        t_us = r.times.(slot); value = r.values.(slot) })

let events () =
  let held = lock_registry () in
  Sanitize.Shared.read "recorder.registry";
  let rings = !registry in
  unlock_registry held;
  let current = Atomic.get epoch in
  rings
  |> List.filter (fun r -> r.ring_epoch = current && r.total > 0)
  |> List.map (fun r -> (r.track, snapshot_ring r))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- post-mortem dumps ---- *)

(* A span reconstructed by pairing Begin/End events inside one ring. *)
type paired = { p_track : int; p_name : string; p_ts : float; p_dur : float }

let pair_track now (track, evs) =
  (* Wraparound can orphan an End whose Begin was overwritten (dropped) and
     leave Begins whose End never arrived (the crash). Mismatched Ends are
     skipped; dangling Begins are closed at dump time so the crash frontier
     is visible in the trace. *)
  let spans = ref [] in
  let stack = ref [] in
  List.iter
    (fun e ->
      match e.kind with
      | Begin -> stack := (e.name, e.t_us) :: !stack
      | End -> begin
        match !stack with
        | (name, ts) :: rest when name = e.name ->
          stack := rest;
          spans := { p_track = track; p_name = name; p_ts = ts; p_dur = e.t_us -. ts } :: !spans
        | _ -> ()
      end
      | Count -> ())
    evs;
  List.iter
    (fun (name, ts) ->
      spans :=
        { p_track = track; p_name = name ^ " (unclosed)"; p_ts = ts;
          p_dur = Float.max 0. (now -. ts) }
        :: !spans)
    !stack;
  List.sort
    (fun a b ->
      match compare a.p_ts b.p_ts with 0 -> compare b.p_dur a.p_dur | c -> c)
    !spans

let track_name track = if track = 0 then "main" else Printf.sprintf "domain-%d" track

let trace_json per_track =
  let now = Clock.now_us () in
  let paired = List.concat_map (pair_track now) per_track in
  let paired =
    List.sort
      (fun a b ->
        match compare a.p_track b.p_track with
        | 0 -> begin
          match compare a.p_ts b.p_ts with 0 -> compare b.p_dur a.p_dur | c -> c
        end
        | c -> c)
      paired
  in
  let tracks = List.sort_uniq compare (List.map (fun p -> p.p_track) paired) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let event s =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b "\n";
    Buffer.add_string b s
  in
  List.iter
    (fun track ->
      event
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           track (track_name track)))
    tracks;
  List.iter
    (fun p ->
      event
        (Printf.sprintf
           "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"flight\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
           (Json.escape p.p_name) p.p_track p.p_ts (Float.max 0. p.p_dur)))
    paired;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let text_dump ~reason per_track =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "== waltz flight recorder ==\nreason: %s\n" reason);
  List.iter
    (fun (track, evs) ->
      Buffer.add_string b
        (Printf.sprintf "-- %s: %d event%s --\n" (track_name track) (List.length evs)
           (if List.length evs = 1 then "" else "s"));
      List.iter
        (fun e ->
          let line =
            match e.kind with
            | Begin -> Printf.sprintf "  %12.3f  begin  %s\n" e.t_us e.name
            | End -> Printf.sprintf "  %12.3f  end    %s\n" e.t_us e.name
            | Count -> Printf.sprintf "  %12.3f  count  %s +%d\n" e.t_us e.name e.value
          in
          Buffer.add_string b line)
        evs)
    per_track;
  if per_track = [] then Buffer.add_string b "(no events recorded)\n";
  Buffer.contents b

let dump_dir =
  ref (match Sys.getenv_opt "WALTZ_FLIGHT_DIR" with
      | Some d -> d
      | None -> Filename.get_temp_dir_name ())

let set_dump_dir d = dump_dir := d

let last_dump_ref : (string * string) option ref = ref None
let last_dump () = !last_dump_ref

let dump_seq = Atomic.make 0

let sanitize_label label =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '-')
    label

let dump ~reason () =
  let per_track = events () in
  let seq = Atomic.fetch_and_add dump_seq 1 in
  (try Unix.mkdir !dump_dir 0o755 with Unix.Unix_error _ -> ());
  let prefix =
    Filename.concat !dump_dir
      (Printf.sprintf "waltz-flight-%d-%d-%s" (Unix.getpid ()) seq (sanitize_label reason))
  in
  let trace_path = prefix ^ ".trace.json" in
  let text_path = prefix ^ ".txt" in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  write trace_path (trace_json per_track);
  write text_path (text_dump ~reason per_track);
  last_dump_ref := Some (trace_path, text_path);
  (trace_path, text_path)

(* Automatic dumps are rate-limited per process so an error storm (every
   Error diagnostic fires one) cannot fill the disk. On-demand [dump] is
   not limited. *)
let auto_budget = Atomic.make 8

let auto_dump ~reason =
  if Atomic.get armed_flag then begin
    let remaining = Atomic.fetch_and_add auto_budget (-1) in
    if remaining > 0 then ignore (dump ~reason ())
  end

let note_error ~reason = auto_dump ~reason:("diagnostic:" ^ reason)

let with_crash_dump ~label f =
  if not (Atomic.get armed_flag) then f ()
  else
    try f ()
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      auto_dump ~reason:("crash:" ^ label);
      Printexc.raise_with_backtrace exn bt
