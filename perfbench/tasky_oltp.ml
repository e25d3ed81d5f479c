(* tasky-oltp: TasKy, Do! and TasKy2 co-exist over 10,000 tasks (the size of
   the paper's Fig. 9). The data starts materialized at TasKy, Do!.Todo has
   a co-materialized copy, and a changeset log is attached in its default
   flush mode. One client runs the paper's 50/20/20/10 read/insert/update/
   delete mix in a closed loop: a fifth of the operations go to Do!, the
   rest shift from TasKy to TasKy2 along the logistic adoption ramp of
   Scenarios.Workload. The statements follow the templates of
   Scenarios.Workload.run_op: reads of the urgent tasks, inserts of new
   tasks, updates of one task's text and deletes of one task.
   MATERIALIZE 'TasKy2' runs when the ramp passes one half, later slices
   flip the materialization back and forth, and one more version is created
   and dropped again between slices. AS OF queries and recoveries from the
   log follow the loop.

   The benchmark keeps its own model of the task set and checks every
   answer against it. *)

open Common

type size = {
  tasks : int;
  slices : int;
  slice_ops : int;
  as_ofs : int;
  recoveries : int;
}

(* Two slices of 100 operations per second of --seconds: 20 slices give
   exactly 1,000 reads and 1,000 writes, so each p99 has ten samples beyond
   it. *)
let size ~smoke ~seconds =
  if smoke then
    { tasks = 400; slices = 4; slice_ops = 40; as_ofs = 2; recoveries = 1 }
  else
    {
      tasks = 10_000;
      slices = max 2 (2 * seconds);
      slice_ops = 100;
      as_ofs = 4;
      recoveries = 2;
    }

module Rng = Scenarios.Rng
module Tasky = Scenarios.Tasky

type task = { author : string; text : string; prio : int }

(* A set of ids with constant-time insert, remove and uniform pick. *)
module Pool = struct
  type t = {
    mutable items : int array;
    mutable size : int;
    pos : (int, int) Hashtbl.t;
  }

  let create () = { items = Array.make 256 0; size = 0; pos = Hashtbl.create 256 }

  let add t x =
    if not (Hashtbl.mem t.pos x) then begin
      if t.size = Array.length t.items then begin
        let bigger = Array.make (2 * t.size) 0 in
        Array.blit t.items 0 bigger 0 t.size;
        t.items <- bigger
      end;
      t.items.(t.size) <- x;
      Hashtbl.replace t.pos x t.size;
      t.size <- t.size + 1
    end

  let remove t x =
    match Hashtbl.find_opt t.pos x with
    | None -> ()
    | Some i ->
      let last = t.items.(t.size - 1) in
      t.items.(i) <- last;
      Hashtbl.replace t.pos last i;
      Hashtbl.remove t.pos x;
      t.size <- t.size - 1

  let pick t rng = t.items.(Rng.int rng t.size)

  let to_list t = Array.to_list (Array.sub t.items 0 t.size)
end

type model = {
  tasks : (int, task) Hashtbl.t;
  all : Pool.t;
  urgent : Pool.t;  (** the prio-1 tasks, which Do! shows *)
  mutable next_id : int;
  mutable inserted : int;  (** counted from affected rows *)
  mutable deleted : int;
}

let new_model () =
  {
    tasks = Hashtbl.create 16384;
    all = Pool.create ();
    urgent = Pool.create ();
    next_id = 2_000_000;
    inserted = 0;
    deleted = 0;
  }

let add m p t =
  Hashtbl.replace m.tasks p t;
  Pool.add m.all p;
  if t.prio = 1 then Pool.add m.urgent p

let remove m p =
  Hashtbl.remove m.tasks p;
  Pool.remove m.all p;
  Pool.remove m.urgent p

(* The TasKy view of the model: (p, author, task, prio). *)
let tasky_rows m =
  Hashtbl.fold
    (fun p t acc -> [ V.Int p; V.Text t.author; V.Text t.text; V.Int t.prio ] :: acc)
    m.tasks []
  |> sorted

type version = TasKy | TasKy2 | Do

let version_name = function TasKy -> "TasKy" | TasKy2 -> "TasKy2" | Do -> "Do!"

type kind = Read | Insert | Update | Delete

type state = {
  run : run;
  api : I.t;
  dir : string;
  model : model;
  rng : Rng.t;
  plan_rng : Rng.t;  (** the order of operations; see [slice_plan] *)
  author_ids : (string, int) Hashtbl.t;  (** TasKy2.Author keys *)
  reads : float list ref;  (** seconds *)
  writes : float list ref;
}

let refresh_author_ids st =
  Hashtbl.reset st.author_ids;
  List.iter
    (function
      | [ V.Int p; V.Text name ] -> Hashtbl.replace st.author_ids name p
      | _ -> check st.run false "TasKy2.Author row of unexpected shape")
    (query_rows st.api "SELECT p, name FROM TasKy2.Author");
  Array.iter
    (fun a -> check st.run (Hashtbl.mem st.author_ids a) "TasKy2 lost author %s" a)
    Tasky.authors

(* The versions agree with each other and with the model: TasKy holds the
   model's tasks, Do! is TasKy's priority-1 rows without prio, TasKy2's
   Task joined with Author is TasKy's rows with author names, the row count
   is loaded + inserted - deleted, and every co-materialized copy matches
   its source. *)
let check_versions st ~loaded where =
  let run = st.run in
  match
    let tasky = sorted (query_rows st.api "SELECT p, author, task, prio FROM TasKy.Task") in
    check run (tasky = tasky_rows st.model) "%s: TasKy differs from the model" where;
    let urgent =
      List.filter_map
        (function
          | [ p; a; t; V.Int 1 ] -> Some [ p; a; t ]
          | _ -> None)
        tasky
    in
    check run
      (sorted (query_rows st.api "SELECT p, author, task FROM Do!.Todo") = urgent)
      "%s: Do! differs from TasKy's priority-1 rows" where;
    check run
      (sorted
         (query_rows st.api
            "SELECT t.p, a.name, t.task, t.prio FROM TasKy2.Task t JOIN \
             TasKy2.Author a ON t.author = a.p")
      = tasky)
      "%s: TasKy2 Task join Author differs from TasKy" where;
    check run
      (List.length tasky = loaded + st.model.inserted - st.model.deleted)
      "%s: %d rows, but %d loaded + %d inserted - %d deleted" where
      (List.length tasky) loaded st.model.inserted st.model.deleted;
    I.comat_check st.api
  with
  | () -> ()
  | exception e -> check run false "%s: %s" where (Printexc.to_string e)

let setup ~dir ~seed (size : size) =
  let api = I.create () in
  I.attach_wal api dir;
  List.iter (bidel api)
    [ Scenarios.Tasky.bidel_initial; Scenarios.Tasky.bidel_do;
      Scenarios.Tasky.bidel_tasky2 ];
  let rng = Rng.create ~seed () in
  let model = new_model () in
  let db = I.database api in
  (* the tasks of Tasky.load_tasks, with explicit keys so that the model
     can name each row *)
  for i = 1 to size.tasks do
    let p = 1_000_000 + i in
    let author = Rng.pick rng Tasky.authors in
    let t = { author; text = Printf.sprintf "task-%d" i; prio = Tasky.random_prio rng } in
    ignore
      (Minidb.Engine.exec db
         (Printf.sprintf
            "INSERT INTO TasKy.Task (p, author, task, prio) VALUES (%d, '%s', '%s', %d)"
            p t.author t.text t.prio));
    add model p t
  done;
  I.comat_add api "Do!.Todo";
  (api, model, rng)

(* --- the loop ------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The operations of one slice: exactly a fifth on Do!, the adoption ramp's
   share of the rest on TasKy2 (the paper's Figs. 9/10), and exactly the
   50/20/20/10 mix of kinds. Their order comes from [plan_rng], whose seed
   is fixed: every run issues the same sequence of kinds and versions, so
   it meets the view cache the same way and reads as many rows at each
   version. The run's seed picks the data and the rows each operation
   touches. Shuffled by the run's seed, the read median moved by a third
   from seed to seed, because it falls between the cheap Do! and cache-hit
   reads and the dearer TasKy2 reads. *)
let slice_plan st (size : size) i =
  let n = size.slice_ops in
  let n_do = n / 5 in
  let n_t2 =
    int_of_float
      (Float.round
         (Scenarios.Workload.adoption_fraction ~slice:i ~slices:size.slices
         *. float_of_int (n - n_do)))
  in
  let versions =
    Array.init n (fun j ->
        if j < n_do then Do else if j < n_do + n_t2 then TasKy2 else TasKy)
  in
  let kinds =
    Array.init n (fun j ->
        let x = j * 100 / n in
        if x < 50 then Read else if x < 70 then Insert else if x < 90 then Update
        else Delete)
  in
  shuffle st.plan_rng versions;
  shuffle st.plan_rng kinds;
  Array.init n (fun j -> (versions.(j), kinds.(j)))

(* The paper's read of each version, all its urgent tasks, and the rows the
   model expects from it. *)
let read_sql rng = function
  | TasKy -> Tasky.tasky_read rng
  | TasKy2 -> Tasky.tasky2_read rng
  | Do -> Tasky.do_read rng

let expected_read st version =
  Pool.to_list st.model.urgent
  |> List.map (fun p ->
         let t = Hashtbl.find st.model.tasks p in
         match version with
         | TasKy -> [ V.Text t.author; V.Text t.text; V.Int 1 ]
         | TasKy2 -> [ V.Text t.text; V.Int 1; V.Text t.author ]
         | Do -> [ V.Text t.author; V.Text t.text ])
  |> sorted

let view = function TasKy -> "TasKy.Task" | TasKy2 -> "TasKy2.Task" | Do -> "Do!.Todo"

(* One timed statement of the loop. *)
let op st ~kind ~version text =
  let write = kind <> "read" in
  let t0 = now () in
  let result =
    attempt st.run (fun () ->
        Trace.span
          (Printf.sprintf "op:%s:%s" kind (version_name version))
          (fun () -> counted st.api ~write (fun () -> sql st.api ~kind text)))
  in
  let dt = now () -. t0 in
  let samples = if write then st.writes else st.reads in
  if result <> None then samples := dt :: !samples;
  result

let run_op st (version, kind) =
  let m = st.model and rng = st.rng and run = st.run in
  let expect_one what = function
    | Some r -> check run (affected r = 1) "%s at %s affected %d rows" what (version_name version) (affected r); true
    | None -> false
  in
  let pool = if version = Do then m.urgent else m.all in
  match kind with
  | Read ->
    Option.iter
      (fun r ->
        check run
          (sorted (rows r) = expected_read st version)
          "read of the urgent tasks at %s differs from the model" (version_name version))
      (op st ~kind:"read" ~version (read_sql rng version))
  | Insert ->
    m.next_id <- m.next_id + 1;
    let p = m.next_id in
    let author = Rng.pick rng Tasky.authors in
    let text = Printf.sprintf "new-%d" p in
    let prio = if version = Do then 1 else Tasky.random_prio rng in
    let text_sql =
      match version with
      | TasKy ->
        Printf.sprintf
          "INSERT INTO TasKy.Task (p, author, task, prio) VALUES (%d, '%s', '%s', %d)"
          p author text prio
      | TasKy2 ->
        Printf.sprintf
          "INSERT INTO TasKy2.Task (p, task, prio, author) VALUES (%d, '%s', %d, %d)"
          p text prio (Hashtbl.find st.author_ids author)
      | Do ->
        Printf.sprintf "INSERT INTO Do!.Todo (p, author, task) VALUES (%d, '%s', '%s')"
          p author text
    in
    if expect_one "insert" (op st ~kind:"write" ~version text_sql) then begin
      add m p { author; text; prio };
      m.inserted <- m.inserted + 1
    end
  | Update ->
    let p = Pool.pick pool rng in
    let old = Hashtbl.find m.tasks p in
    let text = Printf.sprintf "upd-%d" (Rng.int rng 1_000_000) in
    let text_sql =
      Printf.sprintf "UPDATE %s SET task = '%s' WHERE p = %d" (view version) text p
    in
    if expect_one "update" (op st ~kind:"write" ~version text_sql) then
      Hashtbl.replace m.tasks p { old with text }
  | Delete ->
    let p = Pool.pick pool rng in
    let text_sql = Printf.sprintf "DELETE FROM %s WHERE p = %d" (view version) p in
    if expect_one "delete" (op st ~kind:"write" ~version text_sql) then begin
      remove m p;
      m.deleted <- m.deleted + 1
    end

(* --- schema commands between slices --------------------------------------- *)

let materialize st ~loaded target samples =
  if !Trace.enabled then probe_plan st.api target;
  end_cycle ();
  let s0 = statements st.api in
  let t0 = now () in
  let ok =
    attempt st.run (fun () ->
        Trace.span "tasky.materialize" (fun () ->
            bidel st.api (Printf.sprintf "MATERIALIZE '%s';" target)))
  in
  let dt = now () -. t0 in
  if ok <> None then begin
    samples := dt :: !samples;
    if !Trace.enabled then begin
      tally "migration.stmts" (float_of_int (statements st.api - s0));
      probe_delta st.run st.api
    end
  end;
  refresh_author_ids st;
  check_versions st ~loaded ("after MATERIALIZE " ^ target)

(* One more version on top of TasKy2, dropped again: the cost of evolving
   the schema while the application runs. *)
let extra_version st samples =
  end_cycle ();
  let s0 = statements st.api and w0 = Gc.minor_words () in
  let t0 = now () in
  let ok =
    attempt st.run (fun () ->
        Trace.span "tasky.create_version" (fun () ->
            bidel st.api
              "CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH ADD COLUMN note AS 0 INTO Task;"))
  in
  let dt = now () -. t0 in
  if ok <> None then begin
    samples := dt :: !samples;
    if !Trace.enabled then begin
      tally "codegen.installed_stmts" (float_of_int (statements st.api - s0));
      tally "gc.minor_words_per_step" (Gc.minor_words () -. w0)
    end;
    check st.run (List.mem "TasKy3" (I.versions st.api)) "TasKy3 missing after CREATE"
  end;
  ignore
    (attempt st.run (fun () ->
         Trace.span "tasky.drop_version" (fun () ->
             bidel st.api "DROP SCHEMA VERSION TasKy3;")));
  check st.run (not (List.mem "TasKy3" (I.versions st.api))) "TasKy3 left after DROP"

(* --- the run --------------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run ~state_dir ~seed ~seconds ~smoke =
  let run = new_run () in
  let size = size ~smoke ~seconds in
  let dir k = Filename.concat state_dir (Printf.sprintf "wal-%d-%d" (Unix.getpid ()) k) in
  let setup_times = ref [] in
  let timed_setup k =
    rm_rf (dir k);
    settle ();
    let t0 = now () in
    let inst = Trace.span "tasky.setup" (fun () -> setup ~dir:(dir k) ~seed size) in
    setup_times := (now () -. t0) :: !setup_times;
    inst
  in
  let throwaway_setup () =
    Fun.protect
      ~finally:(fun () -> rm_rf (dir 1))
      (fun () ->
        let api, _, _ = timed_setup 1 in
        I.detach_wal api);
    settle ()
  in
  let dir = dir 0 in
  (* everything but set-up; the instance is unreachable once it returns *)
  let measure (api, model, rng) =
    let st =
      {
        run;
        api;
        dir;
        model;
        rng;
        plan_rng = Rng.create ~seed:12 ();
        author_ids = Hashtbl.create 32;
        reads = ref [];
        writes = ref [];
      }
    in
    let loaded = size.tasks in
    refresh_author_ids st;
    check_versions st ~loaded "after set-up";
    let cs_setup = I.current_changeset api in
    let snap_setup = tasky_rows model in
    let cs_mid = ref cs_setup and snap_mid = ref snap_setup in
    let materializations = ref [] and creates = ref [] in
    (* MATERIALIZE 'TasKy2' when the ramp passes one half, then a flip back
       or forth before every later slice; one more version before every slice
       but the first. The schema commands are timed inside the loop phase, so
       their samples are spread across it. *)
    let half = size.slices / 2 in
    settle ();
    for i = 0 to size.slices - 1 do
      if i > 0 then extra_version st creates;
      if i >= half then begin
        if i = half then begin
          cs_mid := I.current_changeset api;
          snap_mid := tasky_rows model
        end;
        materialize st ~loaded (if (i - half) mod 2 = 0 then "TasKy2" else "TasKy")
          materializations
      end;
      Array.iter (run_op st) (slice_plan st size i)
    done;
    check_versions st ~loaded "after the loop";
    (* time travel: AS OF the changeset that ended set-up, and the one before
       the first MATERIALIZE *)
    let as_of_query = "SELECT p, author, task, prio FROM TasKy.Task" in
    settle ();
    let as_ofs =
      List.filter_map
        (fun k ->
          let cs, expected =
            if k mod 2 = 0 then (cs_setup, snap_setup) else (!cs_mid, !snap_mid)
          in
          let t0 = now () in
          let r =
            attempt run (fun () ->
                Trace.span "Api.as_of" (fun () -> I.as_of api ~changeset:cs as_of_query))
          in
          let dt = now () -. t0 in
          Option.map
            (fun (rel : Minidb.Exec.relation) ->
              check run
                (sorted (List.map Array.to_list rel.Minidb.Exec.rel_rows) = expected)
                "AS OF changeset %d differs from the generated task set" cs;
              dt)
            r)
        (List.init size.as_ofs Fun.id)
    in
    (* recovery: replay the whole log into a fresh instance *)
    let live = I.dump api in
    settle ();
    let recoveries =
      List.filter_map
        (fun _ ->
          let t0 = now () in
          let r = attempt run (fun () -> Trace.span "Api.recover" (fun () -> I.recover dir)) in
          let dt = now () -. t0 in
          Option.map
            (fun recovered ->
              I.detach_wal recovered;
              check run (I.dump recovered = live) "recovered dump differs from the live dump";
              dt)
            r)
        (List.init size.recoveries Fun.id)
    in
    if !Trace.enabled then begin
      let reads_log =
        List.init 3 (fun _ ->
            snd (timed (fun () -> Trace.span "Wal.read_log" (fun () -> Minidb.Wal.read_log dir))))
      in
      info run "wal.read_log_ms" (1000.0 *. median reads_log);
      info run "comat.maint_us_per_write" (tally_mean "comat.maint_us_per_write")
    end;
    I.detach_wal api;
    let reads = !(st.reads) and writes = !(st.writes) in
    let us = 1e6 and ms = 1e3 in
    e2e run "ops_per_s" "1/s"
      (float_of_int (List.length reads + List.length writes) /. sum (reads @ writes));
    e2e run "read_p50_us" "us" (us *. median reads);
    e2e run "read_p99_us" "us" (us *. percentile 99.0 reads);
    e2e run "write_p50_us" "us" (us *. median writes);
    e2e run "write_p99_us" "us" (us *. percentile 99.0 writes);
    e2e run "evolve_next_ms" "ms" (ms *. median !creates);
    e2e run "regenerate_ms" "ms" (ms *. median !materializations);
    e2e run "replay_s" "s" (median recoveries);
    info run "as_of_ms" (ms *. median as_ofs);
    info run "reads" (float_of_int (List.length reads));
    info run "writes" (float_of_int (List.length writes));
    info run "materializations" (float_of_int (List.length !materializations));
    if !Trace.enabled then emit_layers run api
  in
  (* Set-up is timed five times: for the instance the run uses (log
     directory 0), and on fresh instances (directory 1), each dropped at
     once, two before it and two after it is gone. Timed only at the start,
     set-up followed the machine's speed in the run's first second; the
     samples at both ends see more of the run's drift. The later set-ups
     run while no other instance is alive, so they leave peak_heap_mb as
     it is. *)
  throwaway_setup ();
  throwaway_setup ();
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> measure (timed_setup 0));
  throwaway_setup ();
  throwaway_setup ();
  e2e run "setup_s" "s" (median !setup_times);
  e2e run "peak_heap_mb" "MB" (peak_heap_mb ());
  run
