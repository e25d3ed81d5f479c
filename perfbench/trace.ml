(* Spans recorded by the benchmark around its own calls into the program's
   layers (name, start, end, parent span, trace id), kept in memory and
   written out when the run ends. Recording is off in the untraced run, so
   [span] then costs one branch. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  trace : int;  (** id of the root span *)
  name : string;
  start_ns : int;
  end_ns : int;
}

let enabled = ref false

let recorded : span list ref = ref []

let next_id = ref 0

let current = ref 0

let current_trace = ref 0

(* Every time the benchmark reports is processor time of its own process,
   user plus system, from getrusage (microsecond resolution). On a shared
   host the process is often off the processor for tens of milliseconds
   while its clock runs on; wall-clock medians of the same code then moved
   by 20-35 % between sets of runs. The program is single-threaded and
   waits on nothing but its own write(2) calls, which count as system time,
   so processor time is the time it works for the user. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let now_ns () = int_of_float (cpu_seconds () *. 1e9)

let span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !current and outer_trace = !current_trace in
    let trace = if parent = 0 then id else outer_trace in
    current := id;
    current_trace := trace;
    let start_ns = now_ns () in
    let finish () =
      recorded :=
        { id; parent; trace; name; start_ns; end_ns = now_ns () } :: !recorded;
      current := parent;
      current_trace := outer_trace
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* [forget_since (mark ())] drops every span that started after the mark,
   so that a warm-up phase leaves no spans behind. *)
let mark () = !next_id

let forget_since m = recorded := List.filter (fun s -> s.id <= m) !recorded

(* Self time of a span: its duration minus the part its children cover.
   Children run one after another inside their parent, so that part is the
   sum of their durations. Returns name -> (total self ns, span count). *)
let self_times () =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (s.end_ns - s.start_ns
          + Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.end_ns - s.start_ns
        - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0
      in
      let total, n =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0)
      in
      Hashtbl.replace by_name s.name (total + self, n + 1))
    !recorded;
  by_name

(* Mean self time of the spans called [name], or with [~prefix] of those
   whose name starts with it, in [unit_ns] units. *)
let mean_self ?(unit_ns = 1000.0) ?(prefix = false) selfs name =
  let total, n =
    Hashtbl.fold
      (fun s (t, k) (total, n) ->
        if s = name || (prefix && String.starts_with ~prefix:name s) then
          (total + t, n + k)
        else (total, n))
      selfs (0, 0)
  in
  if n = 0 then 0.0 else float_of_int total /. float_of_int n /. unit_ns

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line, in start order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.trace (json_string s.name) s.start_ns s.end_ns)
    (List.sort (fun a b -> compare a.id b.id) !recorded);
  close_out oc
