(* Process-wide tracing and metrics for the Waltz pipeline.

   Everything is guarded by one enable flag: with telemetry off, every entry
   point is a single branch on an [Atomic.t] and performs no allocation, so
   instrumented hot paths cost nothing in production. With it on, spans
   capture monotonic wall time with a per-domain parent stack, and counters,
   gauges and histogram sketches accumulate under one mutex (instrumented
   code records at most once per coarse unit of work — a pipeline phase, a
   trajectory, a cache probe during planning — so contention is negligible).

   The same instrumentation points also feed the flight recorder
   ([Recorder]): when it is armed, span begin/end and counter events are
   additionally written into the recording domain's lock-free ring buffer,
   independently of whether metrics accumulation is on. *)

module Sanitize = Waltz_sanitizer.Sanitize

(* Two tiers of enablement:
   - [metrics_flag]: counters, gauges and histogram sketches accumulate.
     Together with an armed flight recorder this is the always-on plane a
     daemon runs with; its hot-path cost is bounded by preallocated handles
     (see [Metrics.cell] / [Metrics.series]).
   - [enabled_flag]: full telemetry — everything above plus completed-span
     collection for the Chrome trace exporter and the profiler's live
     stacks. Heavier (one allocation and a mutex push per span), meant for
     --stats/--trace/profile runs. [enable] turns both tiers on. *)
let enabled_flag = Atomic.make false
let metrics_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let enable () =
  Atomic.set enabled_flag true;
  Atomic.set metrics_flag true

let disable () =
  Atomic.set enabled_flag false;
  Atomic.set metrics_flag false

let metrics_enabled () = Atomic.get metrics_flag
let enable_metrics () = Atomic.set metrics_flag true

(* True when any instrumented path should run: full telemetry, the metrics
   tier, or the flight recorder. *)
let active () =
  Atomic.get enabled_flag || Atomic.get metrics_flag || Recorder.armed ()

let now_us () = Clock.now_us ()

(* ---- shared state ---- *)

let state_mutex = Mutex.create ()

(* Sanitizer shims wrap every state_mutex section; the shared-site marks at
   each mutation/read let the race detector check that all traffic on the
   span list, counter table and histogram table is ordered by this lock. *)
let lock_state () =
  Mutex.lock state_mutex;
  Sanitize.Lock.acquire "telemetry.state_mutex"

let unlock_state held =
  Sanitize.Lock.release "telemetry.state_mutex" held;
  Mutex.unlock state_mutex

module Span = struct
  type t = {
    name : string;
    track : int;  (** the recording domain's id *)
    start_us : float;
    dur_us : float;
    depth : int;  (** open ancestors on this domain's stack at start *)
    parent : string option;
    args : (string * string) list;
  }

  (* Completed spans, newest first. *)
  let completed : t list ref = ref []

  (* Track -> that domain's open-span stack (innermost first). Registered
     when a domain first opens a span; the profiler snapshots it from its
     ticker domain. The stack refs themselves are written only by their
     owning domain and read racily by the profiler — a sampling profiler
     tolerates an occasionally torn stack, so those reads take no lock. *)
  let stacks_tbl : (int, string list ref) Hashtbl.t = Hashtbl.create 8

  (* Per-domain stack of open span names (innermost first). *)
  let stack_key : string list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let stack = ref [] in
        let track = (Domain.self () :> int) in
        let held = lock_state () in
        Sanitize.Shared.write "telemetry.stacks";
        Hashtbl.replace stacks_tbl track stack;
        unlock_state held;
        stack)

  let live_stacks () =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.stacks";
    let l = Hashtbl.fold (fun track stack acc -> (track, !stack) :: acc) stacks_tbl [] in
    unlock_state held;
    List.sort (fun (a, _) (b, _) -> compare a b) l

  (* The instrumented body shared by [with_] and [with_timed], entered only
     when some plane is on. Exactly two clock reads: the start timestamp is
     shared with the flight-recorder Begin event, the end one with the End
     event, the span duration and (in the executor) the histogram observe.
     Stack bookkeeping only happens under full telemetry — that is what the
     profiler samples — so the always-on metrics+recorder tier stays at
     ring stores and clock reads. *)
  let finish_span ~record ~name ~args ~start_us ~stack_info end_us =
    Recorder.record_end_at name end_us;
    match stack_info with
    | None -> ()
    | Some (stack, depth, parent) ->
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      if record then begin
        let span =
          { name; track = (Domain.self () :> int); start_us;
            dur_us = end_us -. start_us; depth; parent; args }
        in
        let held = lock_state () in
        Sanitize.Shared.write "telemetry.spans";
        completed := span :: !completed;
        unlock_state held
      end

  let instrumented ~args ~name f =
    let record = Atomic.get enabled_flag in
    let stack_info =
      if not record then None
      else begin
        let stack = Domain.DLS.get stack_key in
        let parent = match !stack with [] -> None | p :: _ -> Some p in
        let depth = List.length !stack in
        stack := name :: !stack;
        Some (stack, depth, parent)
      end
    in
    let start_us = Clock.now_us () in
    Recorder.record_begin_at name start_us;
    match f () with
    | v ->
      let end_us = Clock.now_us () in
      finish_span ~record ~name ~args ~start_us ~stack_info end_us;
      (v, end_us -. start_us)
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      finish_span ~record ~name ~args ~start_us ~stack_info (Clock.now_us ());
      Printexc.raise_with_backtrace exn bt

  let with_ ?(args = []) ~name f =
    if not (Atomic.get enabled_flag) && not (Recorder.armed ()) then f ()
    else fst (instrumented ~args ~name f)

  (* Like [with_], but always measures (one clock-read pair, shared with
     all recording) and returns the duration — instrumented hot paths feed
     it straight into a histogram [series] without re-reading the clock.
     Call only from a path already gated on [active]. *)
  let with_timed ?(args = []) ~name f = instrumented ~args ~name f

  let all () =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.spans";
    let spans = List.rev !completed in
    unlock_state held;
    spans

  type aggregate = { agg_name : string; count : int; total_us : float; max_us : float }

  let aggregate_of spans =
    let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let c, t, m = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (c + 1, t +. s.dur_us, Float.max m s.dur_us))
      spans;
    Hashtbl.fold
      (fun agg_name (count, total_us, max_us) acc ->
        { agg_name; count; total_us; max_us } :: acc)
      tbl []
    |> List.sort (fun a b ->
           match compare b.total_us a.total_us with
           | 0 -> compare a.agg_name b.agg_name
           | c -> c)

  let aggregate () = aggregate_of (all ())
end

module Metrics = struct
  let counters_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
  let hists_tbl : (string, Sketch.t) Hashtbl.t = Hashtbl.create 16
  let gauges_tbl : (string, float) Hashtbl.t = Hashtbl.create 8

  (* Preallocated hot-path handles. A [cell] is one atomic int interned by
     name at instrumentation-setup time (the executor stores them in its
     compiled plan): incrementing is a flag check plus one fetch-and-add,
     with no string hashing, locking or flight-recorder event — the price
     of admission for per-gate-application counting inside a microsecond
     trajectory. A [series] is one histogram sketch behind its own mutex,
     same contract for [observe]. Both are merged into every read/export
     next to their string-keyed siblings. *)
  type cell = int Atomic.t

  let cells_tbl : (string, cell) Hashtbl.t = Hashtbl.create 16

  let cell name =
    let held = lock_state () in
    Sanitize.Shared.write "telemetry.cells";
    let c =
      match Hashtbl.find_opt cells_tbl name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add cells_tbl name c;
        c
    in
    unlock_state held;
    c

  let cell_incr ?(by = 1) c =
    if by <> 0 && Atomic.get metrics_flag then ignore (Atomic.fetch_and_add c by)

  (* Pre-gated variant: no flag check, for call sites that already
     branched on [metrics_enabled] once for a batch of updates. *)
  let cell_add c by = if by <> 0 then ignore (Atomic.fetch_and_add c by)

  (* A series is sharded per recording domain: each domain owns one sketch
     (single-writer, so [series_observe] takes no lock — a DLS read, an
     epoch check and an allocation-free sketch insert) and readers merge
     the shards. The shard list is guarded by the state mutex; the sketch
     contents are read racily, like the flight-recorder rings — a snapshot
     taken while a worker is mid-observe can be off by the torn event,
     which post-run reporting tolerates. The epoch makes [reset] lazy:
     bumping it orphans every shard, and writers re-register on next use. *)
  type series = {
    se_name : string;
    se_epoch : int Atomic.t;
    mutable se_shards : (int * Sketch.t) list;  (* (epoch, shard) *)
    se_dls : (int * Sketch.t) ref Domain.DLS.key;
  }

  (* Shared placeholder with an impossible epoch: forces first-use
     registration without allocating a sketch per (domain, series) that
     never observes. Never written (the epoch check replaces it first). *)
  let dummy_shard = (-1, Sketch.create ())

  let series_tbl : (string, series) Hashtbl.t = Hashtbl.create 8

  let series name =
    let held = lock_state () in
    Sanitize.Shared.write "telemetry.series";
    let s =
      match Hashtbl.find_opt series_tbl name with
      | Some s -> s
      | None ->
        let s =
          { se_name = name; se_epoch = Atomic.make 0; se_shards = [];
            se_dls = Domain.DLS.new_key (fun () -> ref dummy_shard) }
        in
        Hashtbl.add series_tbl name s;
        s
    in
    unlock_state held;
    s

  let register_shard s epoch =
    let sk = Sketch.create () in
    let held = lock_state () in
    Sanitize.Shared.write "telemetry.series";
    (* Prune shards orphaned by reset while we are here (cold path). *)
    s.se_shards <- (epoch, sk) :: List.filter (fun (e, _) -> e = epoch) s.se_shards;
    unlock_state held;
    sk

  let series_observe s v =
    if Atomic.get metrics_flag then begin
      let slot = Domain.DLS.get s.se_dls in
      let epoch = Atomic.get s.se_epoch in
      let e, sk = !slot in
      let sk =
        if e = epoch then sk
        else begin
          let sk = register_shard s epoch in
          slot := (epoch, sk);
          sk
        end
      in
      Sketch.observe sk v
    end

  let incr ?(by = 1) name =
    if Atomic.get metrics_flag then begin
      let held = lock_state () in
      Sanitize.Shared.write "telemetry.counters";
      let cur = Option.value ~default:0 (Hashtbl.find_opt counters_tbl name) in
      Hashtbl.replace counters_tbl name (cur + by);
      unlock_state held
    end;
    Recorder.record_count name by

  let observe name v =
    if Atomic.get metrics_flag then begin
      let held = lock_state () in
      Sanitize.Shared.write "telemetry.hists";
      let h =
        match Hashtbl.find_opt hists_tbl name with
        | Some h -> h
        | None ->
          let h = Sketch.create () in
          Hashtbl.add hists_tbl name h;
          h
      in
      Sketch.observe h v;
      unlock_state held
    end

  let set_gauge name v =
    if Atomic.get metrics_flag then begin
      let held = lock_state () in
      Sanitize.Shared.write "telemetry.gauges";
      Hashtbl.replace gauges_tbl name v;
      unlock_state held
    end

  let counter name =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.counters";
    let v = Option.value ~default:0 (Hashtbl.find_opt counters_tbl name) in
    let v =
      match Hashtbl.find_opt cells_tbl name with
      | Some c -> v + Atomic.get c
      | None -> v
    in
    unlock_state held;
    v

  let counters () =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.counters";
    let tbl = Hashtbl.copy counters_tbl in
    Hashtbl.iter
      (fun name c ->
        let v = Atomic.get c in
        if v <> 0 then
          Hashtbl.replace tbl name (v + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
      cells_tbl;
    unlock_state held;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let gauge name =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.gauges";
    let v = Hashtbl.find_opt gauges_tbl name in
    unlock_state held;
    v

  let gauges () =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.gauges";
    let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges_tbl [] in
    unlock_state held;
    List.sort compare l

  type histogram = {
    count : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
    buckets : (float * int) list;  (** non-empty sketch bins as (upper bound, count) *)
  }

  let snapshot h =
    { count = Sketch.count h; sum = Sketch.sum h; min = Sketch.min_value h;
      max = Sketch.max_value h; p50 = Sketch.quantile h 0.5;
      p90 = Sketch.quantile h 0.9; p99 = Sketch.quantile h 0.99;
      buckets = Sketch.nonempty_buckets h }

  (* Merge a series' live shards. Shard contents are read without
     synchronizing with their owning domains (see the [series] comment). *)
  let series_sketch s =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.series";
    let epoch = Atomic.get s.se_epoch in
    let shards =
      List.filter_map (fun (e, sk) -> if e = epoch then Some sk else None) s.se_shards
    in
    unlock_state held;
    List.fold_left Sketch.merge (Sketch.create ()) shards

  let histogram name =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.hists";
    let direct = Hashtbl.find_opt hists_tbl name in
    let se = Hashtbl.find_opt series_tbl name in
    unlock_state held;
    match (direct, se) with
    | None, None -> None
    | Some h, None -> Some (snapshot h)
    | None, Some s ->
      let h = series_sketch s in
      if Sketch.count h = 0 then None else Some (snapshot h)
    | Some h, Some s -> Some (snapshot (Sketch.merge h (series_sketch s)))

  let histograms () =
    let held = lock_state () in
    Sanitize.Shared.read "telemetry.hists";
    let tbl = Hashtbl.copy hists_tbl in
    let all_series = Hashtbl.fold (fun _ s acc -> s :: acc) series_tbl [] in
    unlock_state held;
    List.iter
      (fun s ->
        let h = series_sketch s in
        if Sketch.count h > 0 then
          let merged =
            match Hashtbl.find_opt tbl s.se_name with
            | Some direct -> Sketch.merge direct h
            | None -> h
          in
          Hashtbl.replace tbl s.se_name merged)
      all_series;
    List.sort (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k h acc -> (k, snapshot h) :: acc) tbl [])

  let hit_rate ~hit ~miss =
    let h = counter hit and m = counter miss in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
end

let reset () =
  let held = lock_state () in
  Sanitize.Shared.write "telemetry.spans";
  Sanitize.Shared.write "telemetry.counters";
  Sanitize.Shared.write "telemetry.hists";
  Sanitize.Shared.write "telemetry.gauges";
  Span.completed := [];
  Hashtbl.reset Metrics.counters_tbl;
  Hashtbl.reset Metrics.hists_tbl;
  Hashtbl.reset Metrics.gauges_tbl;
  (* Handles survive reset (instrumented code holds them) — only their
     contents are cleared. *)
  Hashtbl.iter (fun _ (c : Metrics.cell) -> Atomic.set c 0) Metrics.cells_tbl;
  (* Series: bumping the epoch orphans every shard (writers re-register on
     next observe); the shard lists are dropped here under the same lock. *)
  Hashtbl.iter
    (fun _ (s : Metrics.series) ->
      Atomic.incr s.Metrics.se_epoch;
      s.Metrics.se_shards <- [])
    Metrics.series_tbl;
  unlock_state held

(* ---- exports ---- *)

let openmetrics_summaries () =
  List.map
    (fun (name, (h : Metrics.histogram)) ->
      { Openmetrics.s_name = name; s_count = h.Metrics.count; s_sum = h.Metrics.sum;
        s_p50 = h.Metrics.p50; s_p90 = h.Metrics.p90; s_p99 = h.Metrics.p99;
        s_max = h.Metrics.max })
    (Metrics.histograms ())

let export_openmetrics () =
  Openmetrics.render ~counters:(Metrics.counters ()) ~gauges:(Metrics.gauges ())
    ~summaries:(openmetrics_summaries ())

let export_json () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"counters\": {";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n    "
  in
  List.iter
    (fun (name, v) -> sep (); Buffer.add_string b (Printf.sprintf "\"%s\": %d" (Json.escape name) v))
    (Metrics.counters ());
  Buffer.add_string b "\n  },\n  \"gauges\": {";
  first := true;
  List.iter
    (fun (name, v) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "\"%s\": %.6g" (Json.escape name) v))
    (Metrics.gauges ());
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  first := true;
  List.iter
    (fun (name, (h : Metrics.histogram)) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "\"%s\": {\"count\": %d, \"sum\": %.6g, \"min\": %.6g, \"max\": %.6g, \"p50\": %.6g, \"p90\": %.6g, \"p99\": %.6g}"
           (Json.escape name) h.Metrics.count h.Metrics.sum h.Metrics.min h.Metrics.max
           h.Metrics.p50 h.Metrics.p90 h.Metrics.p99))
    (Metrics.histograms ());
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

module Report = struct
  let to_string () =
    let b = Buffer.create 1024 in
    let spans = Span.aggregate () in
    Buffer.add_string b "== waltz telemetry ==\n";
    if spans <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "%-28s %8s %12s %12s %12s\n" "span" "count" "total(ms)"
           "mean(us)" "max(us)");
      List.iter
        (fun (a : Span.aggregate) ->
          Buffer.add_string b
            (Printf.sprintf "%-28s %8d %12.3f %12.1f %12.1f\n" a.Span.agg_name a.Span.count
               (a.Span.total_us /. 1000.)
               (a.Span.total_us /. float_of_int (max 1 a.Span.count))
               a.Span.max_us))
        spans
    end;
    let counters = Metrics.counters () in
    if counters <> [] then begin
      Buffer.add_string b "counters:\n";
      List.iter
        (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-34s %10d\n" name v))
        counters
    end;
    let gauges = Metrics.gauges () in
    if gauges <> [] then begin
      Buffer.add_string b "gauges:\n";
      List.iter
        (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-34s %10.1f\n" name v))
        gauges
    end;
    let hists = Metrics.histograms () in
    if hists <> [] then begin
      Buffer.add_string b "histograms:\n";
      List.iter
        (fun (name, (h : Metrics.histogram)) ->
          Buffer.add_string b
            (Printf.sprintf
               "  %-34s n=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f\n" name
               h.Metrics.count
               (h.Metrics.sum /. float_of_int (max 1 h.Metrics.count))
               h.Metrics.min h.Metrics.p50 h.Metrics.p90 h.Metrics.p99 h.Metrics.max))
        hists
    end;
    if spans = [] && counters = [] && gauges = [] && hists = [] then
      Buffer.add_string b "(no telemetry recorded; is the instrumented path enabled?)\n";
    Buffer.contents b
end

(* ---- Chrome trace_event export and validation ---- *)

module Trace = struct
  let escape = Json.escape

  let track_name track = if track = 0 then "main" else Printf.sprintf "domain-%d" track

  let to_json () =
    let spans = Span.all () in
    (* One track per domain: sort by (tid, ts); ties put the enclosing span
       first so the file is well-nested in order. *)
    let spans =
      List.sort
        (fun (a : Span.t) (b : Span.t) ->
          match compare a.Span.track b.Span.track with
          | 0 -> begin
            match compare a.Span.start_us b.Span.start_us with
            | 0 -> compare b.Span.dur_us a.Span.dur_us
            | c -> c
          end
          | c -> c)
        spans
    in
    let tracks =
      List.sort_uniq compare (List.map (fun (s : Span.t) -> s.Span.track) spans)
    in
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
      (fun (s : Span.t) ->
        let args =
          match s.Span.args with
          | [] -> ""
          | kvs ->
            ",\"args\":{"
            ^ String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)) kvs)
            ^ "}"
        in
        event
          (Printf.sprintf
             "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"waltz\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f%s}"
             (escape s.Span.name) s.Span.track s.Span.start_us s.Span.dur_us args))
      spans;
    Buffer.add_string b "\n]}\n";
    Buffer.contents b

  let write path =
    let oc = open_out path in
    output_string oc (to_json ());
    close_out oc

  (* Validate the shape the exporter promises: a traceEvents array whose
     "X" events carry name/ts/dur/pid/tid, listed in nondecreasing ts order
     per track, siblings never partially overlapping (well-nested). The
     JSON parsing itself lives in [Json]. *)
  let validate contents =
    let eps = 1e-6 in
    match Json.parse contents with
    | Error msg -> Error ("invalid JSON: " ^ msg)
    | Ok (Json.Obj fields) -> begin
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr events) -> begin
        let tracks : (float, float list ref * float ref) Hashtbl.t = Hashtbl.create 8 in
        (* tid -> (containment stack of end times, last ts seen) *)
        let n_spans = ref 0 in
        let check_event = function
          | Json.Obj ev -> begin
            match List.assoc_opt "ph" ev with
            | Some (Json.Str "X") -> begin
              match
                ( List.assoc_opt "name" ev, List.assoc_opt "ts" ev, List.assoc_opt "dur" ev,
                  List.assoc_opt "pid" ev, List.assoc_opt "tid" ev )
              with
              | Some (Json.Str _), Some (Json.Num ts), Some (Json.Num dur),
                Some (Json.Num _), Some (Json.Num tid) ->
                if ts < 0. || dur < 0. then Error "negative ts or dur"
                else begin
                  incr n_spans;
                  let stack, last_ts =
                    match Hashtbl.find_opt tracks tid with
                    | Some entry -> entry
                    | None ->
                      let entry = (ref [], ref neg_infinity) in
                      Hashtbl.add tracks tid entry;
                      entry
                  in
                  if ts +. eps < !last_ts then
                    Error (Printf.sprintf "track %g: ts not monotone (%g after %g)" tid ts !last_ts)
                  else begin
                    last_ts := ts;
                    let rec popped = function
                      | e :: rest when e <= ts +. eps -> popped rest
                      | stack -> stack
                    in
                    let remaining = popped !stack in
                    match remaining with
                    | enclosing :: _ when ts +. dur > enclosing +. eps ->
                      Error
                        (Printf.sprintf
                           "track %g: span [%g, %g] partially overlaps one ending at %g" tid ts
                           (ts +. dur) enclosing)
                    | _ ->
                      stack := (ts +. dur) :: remaining;
                      Ok ()
                  end
                end
              | _ -> Error "X event missing name/ts/dur/pid/tid"
            end
            | Some (Json.Str "M") -> Ok ()
            | Some (Json.Str ph) -> Error (Printf.sprintf "unexpected event phase %S" ph)
            | _ -> Error "event without a ph field"
          end
          | _ -> Error "traceEvents element is not an object"
        in
        let rec check = function
          | [] -> Ok (!n_spans, Hashtbl.length tracks)
          | ev :: rest -> begin
            match check_event ev with Ok () -> check rest | Error msg -> Error msg
          end
        in
        check events
      end
      | _ -> Error "traceEvents missing or not an array"
    end
    | Ok _ -> Error "top-level JSON value is not an object"
end
