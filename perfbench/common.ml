(* What both workloads share: the run record that ends up as the result line,
   output checks, timing, and the calls into the program's SQL and BiDEL
   front ends, each wrapped in a span. *)

module I = Inverda.Api
module Db = Minidb.Database
module V = Minidb.Value

type metric = { name : string; value : float; unit_ : string }

type run = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable e2e : metric list;
  mutable layer : metric list;
  mutable info : (string * float) list;
      (** printed beside the metrics, never as one *)
}

let new_run () =
  { correct = true; attempted = 0; failed = 0; e2e = []; layer = []; info = [] }

let e2e run name unit_ value = run.e2e <- { name; value; unit_ } :: run.e2e

let layer run name unit_ value = run.layer <- { name; value; unit_ } :: run.layer

let info run name value = run.info <- (name, value) :: run.info

let check run ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        if run.correct then prerr_endline ("perfbench: check failed: " ^ msg);
        run.correct <- false
      end)
    fmt

(* One operation of the workload: counted as attempted, and as failed when
   the program raises. A failing statement rolls back, so the caller's model
   of the data stays valid when [None] comes back. *)
let attempt run f =
  run.attempted <- run.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    run.failed <- run.failed + 1;
    if run.failed <= 5 then
      prerr_endline ("perfbench: operation failed: " ^ Printexc.to_string e);
    None

let now = Trace.cpu_seconds

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Phases start on a compacted heap, so garbage left by the previous phase
   is not collected on this phase's clock. *)
let settle () = Gc.full_major ()

(* Inside the loop a schema command starts where a major cycle ends, so the
   cycle the loop left half done is not finished on its clock. A full major
   collection before each of them would steady them as well, but it made
   the runtime grow the heap threefold (366 MB to 1.1 GB peak on
   tasky-oltp), which peak_heap_mb would then report. *)
let end_cycle () = Gc.major ()

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sum xs = List.fold_left ( +. ) 0.0 xs

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Exact engine counters: every statement the engine executed (trigger
   bodies and delta code included), and trigger hops seen by telemetry. *)
let statements api = (I.database api).Db.statements_executed

let trigger_hops api =
  (I.database api).Db.metrics.Minidb.Metrics.trigger_hops_total

(* One SQL statement as an application sends it: parsed, then executed on
   the pre-parsed statement. [kind] tags the executor span. *)
let sql api ~kind text =
  let stmt =
    Trace.span "Sql_parser.statement_of_string" (fun () ->
        Minidb.Sql_parser.statement_of_string text)
  in
  Trace.span ("Engine.exec_ast:" ^ kind) (fun () ->
      Minidb.Engine.exec_ast (I.database api) stmt)

let rows = function
  | Minidb.Exec.Rows rel -> List.map Array.to_list rel.Minidb.Exec.rel_rows
  | Minidb.Exec.Affected _ | Minidb.Exec.Done -> []

let affected = function
  | Minidb.Exec.Affected n -> n
  | Minidb.Exec.Rows _ | Minidb.Exec.Done -> -1

let sorted rows = List.sort compare rows

(* A query the benchmark runs to check answers; not timed, not traced. *)
let query_rows api text = rows (Minidb.Engine.exec (I.database api) text)

(* Per-layer counts of the traced run: name -> (sum, samples). *)
let tallies : (string, float * int) Hashtbl.t = Hashtbl.create 32

let tally name x =
  let s, n = Option.value (Hashtbl.find_opt tallies name) ~default:(0.0, 0) in
  Hashtbl.replace tallies name (s +. x, n + 1)

let tally_mean name =
  match Hashtbl.find_opt tallies name with
  | Some (s, n) when n > 0 -> s /. float_of_int n
  | _ -> 0.0

let tally_sum name =
  match Hashtbl.find_opt tallies name with Some (s, _) -> s | None -> 0.0

(* [restore_tallies (save_tallies ())] undoes the tallies made in between. *)
let save_tallies () = Hashtbl.copy tallies

let restore_tallies saved =
  Hashtbl.reset tallies;
  Hashtbl.iter (Hashtbl.replace tallies) saved

(* Maintenance statements and nanoseconds spent on co-materialized copies. *)
let comat_work api =
  List.fold_left
    (fun (n, ns) (c : Inverda.Genealogy.comat_copy) ->
      (n + c.Inverda.Genealogy.cm_writes, ns + c.Inverda.Genealogy.cm_maint_ns))
    (0, 0) (I.comat_list api)

let log_bytes api =
  match I.wal_dir api with
  | Some dir -> (Unix.stat (Minidb.Wal.log_file dir)).Unix.st_size
  | None -> 0

(* Runs one statement of the measured loop; in the traced run it also
   tallies the statement's exact counts, under the plain names and, when
   [tag] is given, under the names suffixed with it. *)
let counted ?(tag = "") api ~write f =
  if not !Trace.enabled then f ()
  else begin
    let s0 = statements api and h0 = trigger_hops api in
    let c0, cns0 = comat_work api and b0 = log_bytes api in
    let hits0, misses0 = I.cache_stats api in
    let g0 = major_collections () and w0 = Gc.minor_words () in
    let finish () =
      let w1 = Gc.minor_words () and g1 = major_collections () in
      let hits1, misses1 = I.cache_stats api in
      let t name x =
        tally name x;
        if tag <> "" then tally (name ^ tag) x
      in
      let d a b = float_of_int (b - a) in
      if write then begin
        t "exec.stmts_per_write" (d s0 (statements api));
        t "exec.trigger_hops_per_write" (d h0 (trigger_hops api));
        let c1, cns1 = comat_work api in
        t "comat.maint_stmts_per_write" (d c0 c1);
        t "comat.maint_us_per_write" (d cns0 cns1 /. 1000.0);
        t "wal.bytes_per_write" (d b0 (log_bytes api));
        t "gc.minor_words_per_write" (w1 -. w0)
      end;
      t "gc.minor_words_per_op" (w1 -. w0);
      t "gc.major_collections" (d g0 g1);
      t "viewcache.hits" (d hits0 hits1);
      t "viewcache.misses" (d misses0 misses1)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Trace-only probes of the delta-code layers on the current catalog: the
   statement list code generation produces, its typecheck, and the flip plan
   of a MATERIALIZE that is not run. *)
let probe_delta run api =
  let stmts =
    Trace.span "Codegen.delta_statements" (fun () ->
        Inverda.Codegen.delta_statements (I.genealogy api))
  in
  tally "codegen.objects" (float_of_int (List.length stmts));
  let diags =
    Trace.span "Analysis.check_delta" (fun () ->
        Analysis.check_delta (I.lint_env api) stmts)
  in
  check run
    (not (Analysis.Diagnostic.has_errors diags))
    "installed delta code has typecheck errors"

let probe_plan api target =
  ignore
    (Trace.span "Api.migration_plan" (fun () -> I.migration_plan api [ target ]))

(* One BiDEL script: parsed, then each statement executed. *)
let bidel api text =
  let stmts =
    Trace.span "Bidel.Parser.script_of_string" (fun () ->
        Bidel.Parser.script_of_string text)
  in
  List.iter
    (fun s -> Trace.span "Api.exec_bidel" (fun () -> I.exec_bidel api s))
    stmts

(* The per-layer metrics of a traced run. Both workloads report the same
   list: a layer a workload bypasses reports its count as zero. Times are
   mean self times of the spans around the layer's public function. *)
let emit_layers run api =
  let selfs = Trace.self_times () in
  let us ?prefix = Trace.mean_self ?prefix selfs in
  let ms = Trace.mean_self ~unit_ns:1e6 selfs in
  let l = layer run in
  l "sql_parser.parse_us" "us" (us "Sql_parser.statement_of_string");
  l "exec.read_us" "us" (us ~prefix:true "Engine.exec_ast:read");
  l "exec.write_us" "us" (us ~prefix:true "Engine.exec_ast:write");
  l "exec.stmts_per_write" "count" (tally_mean "exec.stmts_per_write");
  l "exec.trigger_hops_per_write" "count"
    (tally_mean "exec.trigger_hops_per_write");
  l "viewcache.hits" "count" (tally_sum "viewcache.hits");
  l "viewcache.misses" "count" (tally_sum "viewcache.misses");
  l "comat.maint_stmts_per_write" "count"
    (tally_mean "comat.maint_stmts_per_write");
  l "wal.bytes_per_write" "bytes" (tally_mean "wal.bytes_per_write");
  l "migration.plan_us" "us" (us "Api.migration_plan");
  l "migration.stmts" "count" (tally_mean "migration.stmts");
  l "codegen.delta_ms" "ms" (ms "Codegen.delta_statements");
  l "codegen.objects" "count" (tally_mean "codegen.objects");
  l "analysis.check_delta_ms" "ms" (ms "Analysis.check_delta");
  l "codegen.installed_stmts" "count" (tally_mean "codegen.installed_stmts");
  l "bidel.parse_us" "us" (us "Bidel.Parser.script_of_string");
  l "gc.minor_words_per_step" "words" (tally_mean "gc.minor_words_per_step");
  l "flatten.fallbacks" "count"
    (float_of_int (List.length (I.flatten_fallbacks api)));
  l "gc.minor_words_per_op" "words" (tally_mean "gc.minor_words_per_op");
  l "gc.major_collections" "count" (tally_sum "gc.major_collections")

(* The program-independent drift probe: a fixed allocation loop, timed at
   the start and end of every run so that two sets of runs that disagree can
   be told apart from a machine whose speed moved. Its hash table outgrows
   the processor caches, which makes it feel the memory contention the
   program feels. It returns wall-clock and processor seconds: their gap is
   the time the host kept the process off the processor. The first call
   grows the heap and is not reported. *)
let drift_probe () =
  settle ();
  let w0 = Unix.gettimeofday () and t0 = now () in
  let keep = ref [] in
  for i = 1 to 3_000_000 do
    keep := i :: !keep;
    if i land 0xFFFF = 0 then keep := []
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 300_000 do
    Hashtbl.replace h (i * 7919 land 0xFFFFF) (string_of_int i)
  done;
  (Unix.gettimeofday () -. w0, now () -. t0)
