(* wiki-genealogy: the synthetic Wikimedia history of the paper's Table 4.
   2,000 pages and 8,000 links are loaded at v001, then 121 versions are
   built one timed CREATE SCHEMA VERSION at a time, from the scripts
   Scenarios.Wikimedia.emit produces over its mirror state (as
   Wikimedia.build ~versions:121 does: the Table 4 mix scaled to 120 steps).
   121 versions is the smallest genealogy with a version at distance 120;
   the full 171 would make each run's build take 73-90 s. The sweep then
   visits distances 1, 30, 60, 90 and 120 from v001 round-robin: each visit
   inserts a page and a link through that version, reads through it with
   the two Fig. 12 templates and deletes both rows again, so the data is the
   same after every visit. Between sweep rounds one more version is created
   on top of v121 and dropped again. No changeset log and no co-materialized
   copies: a change to those layers should leave this workload unchanged. *)

open Common
module W = Scenarios.Wikimedia

type size = {
  versions : int;
  pages : int;
  links : int;
  distances : int list;
  rounds : int;
}

(* One sweep round and one extra version take about three seconds; twelve
   measured rounds follow a warm-up round. *)
let size ~smoke ~seconds =
  if smoke then
    { versions = 20; pages = 200; links = 800; distances = [ 1; 5; 10; 15; 19 ];
      rounds = 1 }
  else
    { versions = 121; pages = 2000; links = 8000;
      distances = [ 1; 30; 60; 90; 120 ]; rounds = max 1 (seconds * 12 / 10) }

let version_name v = Printf.sprintf "v%03d" v

(* The SMO kinds of Table 4, in the order of Wikimedia.histogram. *)
let smo_kinds =
  [ "CREATE TABLE"; "DROP TABLE"; "RENAME TABLE"; "ADD COLUMN"; "DROP COLUMN";
    "RENAME COLUMN"; "JOIN"; "DECOMPOSE"; "MERGE"; "SPLIT" ]

let v001 =
  "CREATE SCHEMA VERSION v001 WITH CREATE TABLE page(title, namespace); \
   CREATE TABLE link(src, dst); CREATE TABLE f0(c0a, c0b, c0c);"

(* The evolution scripts of v002 .. v[versions], generated as
   Wikimedia.build generates them, with the histogram of the SMOs they
   hold (the three CREATE TABLEs of v001 included). *)
let scripts size =
  let versions = size.versions in
  let scale n = max 1 (n * (versions - 1) / 170) in
  let counts =
    if versions >= 171 then W.full_counts
    else List.map (fun (k, n) -> (k, scale n)) W.full_counts
  in
  let st =
    {
      W.tables =
        [
          { W.t_name = "page"; t_cols = [ "title"; "namespace" ]; core = true };
          { W.t_name = "link"; t_cols = [ "src"; "dst" ]; core = true };
          { W.t_name = "f0"; t_cols = [ "c0a"; "c0b"; "c0c" ]; core = false };
        ];
      twins = [];
      next_filler = 0;
      next_col = 0;
      smos = [];
    }
  in
  let hist = Hashtbl.create 16 in
  let count k = Hashtbl.replace hist k (1 + Option.value (Hashtbl.find_opt hist k) ~default:0) in
  List.iter count [ W.Create; W.Create; W.Create ];
  let remaining = Hashtbl.create 8 in
  List.iter
    (fun (k, n) -> Hashtbl.replace remaining k (if k = W.Create then max 0 (n - 3) else n))
    counts;
  let total_left () = Hashtbl.fold (fun _ n acc -> acc + n) remaining 0 in
  let scripts =
    List.init (versions - 1) (fun i ->
        let v = i + 2 in
        let versions_left = versions - v + 1 in
        let per = max 1 ((total_left () + versions_left - 1) / versions_left) in
        let ops = ref [] and attempts = ref 0 in
        while List.length !ops < per && total_left () > 0 && !attempts < 50 do
          incr attempts;
          let scored =
            List.filter (fun (k, _) -> Hashtbl.find remaining k > 0) counts
            |> List.map (fun (k, n0) ->
                   (float_of_int (Hashtbl.find remaining k) /. float_of_int n0, k))
            |> List.sort (fun a b -> compare (fst b) (fst a))
          in
          let rec try_kinds = function
            | [] -> ()
            | (_, k) :: rest -> (
              match W.emit st k with
              | Some txt ->
                Hashtbl.replace remaining k (Hashtbl.find remaining k - 1);
                count k;
                ops := txt :: !ops
              | None -> try_kinds rest)
          in
          try_kinds scored
        done;
        let body =
          match !ops with
          | [] ->
            count W.Add_col;
            [ Printf.sprintf "ADD COLUMN pad%d AS 0 INTO page" v ]
          | ops -> List.rev ops
        in
        Printf.sprintf "CREATE SCHEMA VERSION %s FROM %s WITH %s;" (version_name v)
          (version_name (v - 1)) (String.concat "; " body))
  in
  let histogram =
    List.map
      (fun name ->
        ( name,
          Hashtbl.fold
            (fun k n acc -> if W.kind_name k = name then acc + n else acc)
            hist 0 ))
      smo_kinds
  in
  (scripts, histogram)

(* --- data ------------------------------------------------------------------ *)

type data = {
  page_ids : int array;
  page_ns : int array;
  links : (int * int * int) array;  (** p, src, dst *)
  ns0_links : int;  (** links whose source page is in namespace 0 *)
}

let generate ~seed size =
  let rng = Random.State.make [| seed |] in
  let page_ids = Array.init size.pages (fun i -> 1_000_000 + i) in
  let page_ns = Array.init size.pages (fun _ -> Random.State.int rng 16) in
  let links =
    Array.init size.links (fun j ->
        ( 3_000_000 + j,
          Random.State.int rng size.pages,
          Random.State.int rng size.pages ))
  in
  let ns0_links =
    Array.fold_left (fun n (_, s, _) -> if page_ns.(s) = 0 then n + 1 else n) 0 links
  in
  {
    page_ids;
    page_ns;
    links = Array.map (fun (p, s, d) -> (p, page_ids.(s), page_ids.(d))) links;
    ns0_links;
  }

let setup data =
  let api = I.create () in
  bidel api v001;
  let db = I.database api in
  Array.iteri
    (fun i p ->
      ignore
        (Minidb.Engine.exec db
           (Printf.sprintf
              "INSERT INTO v001.page (p, title, namespace) VALUES (%d, 'Page_%d', %d)"
              p i data.page_ns.(i))))
    data.page_ids;
  Array.iter
    (fun (p, s, d) ->
      ignore
        (Minidb.Engine.exec db
           (Printf.sprintf "INSERT INTO v001.link (p, src, dst) VALUES (%d, %d, %d)" p s d)))
    data.links;
  api

(* --- the sweep ---------------------------------------------------------------- *)

type sweep = {
  run : run;
  api : I.t;
  data : data;
  rng : Random.State.t;
  visited : string list;  (** v001 and every visited version *)
  mutable visit : int;
  reads : (int * float) list ref;
      (** distance, mean seconds of the visit's two template reads *)
  writes : (int * float) list ref;
      (** distance, mean seconds of the visit's insert pair and delete pair *)
  mutable statements : int;
  mutable statement_s : float;
}

(* One timed statement at distance [d]; returns its result and time. *)
let stmt sw ~d ~kind text =
  let tag = Printf.sprintf ":d%d" d in
  let t0 = now () in
  let r =
    attempt sw.run (fun () ->
        counted ~tag sw.api ~write:(kind = "write") (fun () ->
            sql sw.api ~kind:(kind ^ tag) text))
  in
  let dt = now () -. t0 in
  if r <> None then begin
    sw.statements <- sw.statements + 1;
    sw.statement_s <- sw.statement_s +. dt
  end;
  (r, dt)

let title_query v title =
  Printf.sprintf "SELECT p, namespace FROM %s.page WHERE title = '%s'" v title

let check_rows sw what r expected =
  Option.iter (fun r -> check sw.run (sorted (rows r) = expected) "%s" what) r

(* [everywhere]: check at every visited version, else at v001 only. *)
let check_visible sw ~everywhere title expected =
  List.iter
    (fun v ->
      if everywhere || v = "v001" then
        check sw.run
          (query_rows sw.api (title_query v title) = expected)
          "%s %s at %s" title
          (if expected = [] then "still visible" else "not visible")
          v)
    sw.visited

(* Every visit checks the inserted page at v001 and at the visited version,
   and that both rows are gone from v001 after the delete. The warm-up round
   also checks the page count at each visited version, and for its first
   visit that the page appears at and disappears from every visited
   version: reads at the far versions cost as much as the sweep itself. *)
let visit sw ~first_round ~everywhere d =
  let v = version_name (1 + d) in
  let k = sw.visit in
  sw.visit <- k + 1;
  let pid = 5_000_000 + k and lid = 6_000_000 + k in
  let title = Printf.sprintf "Visit_%d" k in
  let dst = sw.data.page_ids.(Random.State.int sw.rng (Array.length sw.data.page_ids)) in
  Trace.span (Printf.sprintf "wiki.visit:d%d" d) @@ fun () ->
  let one what (r, dt) =
    Option.iter (fun r -> check sw.run (affected r = 1) "%s at %s affected %d rows" what v (affected r)) r;
    dt
  in
  let insert =
    one "page insert"
      (stmt sw ~d ~kind:"write"
         (Printf.sprintf "INSERT INTO %s.page (p, title, namespace) VALUES (%d, '%s', 0)" v pid title))
    +. one "link insert"
         (stmt sw ~d ~kind:"write"
            (Printf.sprintf "INSERT INTO %s.link (p, src, dst) VALUES (%d, %d, %d)" v lid pid dst))
  in
  let r, by_title = stmt sw ~d ~kind:"read" (title_query v title) in
  check_rows sw ("inserted page not found at " ^ v) r [ [ V.Int pid; V.Int 0 ] ];
  let r, link_count = stmt sw ~d ~kind:"read" (W.query_link_count ~version:v) in
  check_rows sw ("namespace-0 link count at " ^ v) r [ [ V.Int (sw.data.ns0_links + 1) ] ];
  sw.reads := (d, (by_title +. link_count) /. 2.0) :: !(sw.reads);
  if first_round then
    check sw.run
      (query_rows sw.api (Printf.sprintf "SELECT COUNT(*) FROM %s.page" v)
      = [ [ V.Int (Array.length sw.data.page_ids + 1) ] ])
      "page count at %s" v;
  check_visible sw ~everywhere title [ [ V.Int pid; V.Int 0 ] ];
  let delete =
    one "link delete"
      (stmt sw ~d ~kind:"write" (Printf.sprintf "DELETE FROM %s.link WHERE p = %d" v lid))
    +. one "page delete"
         (stmt sw ~d ~kind:"write" (Printf.sprintf "DELETE FROM %s.page WHERE p = %d" v pid))
  in
  sw.writes := (d, (insert +. delete) /. 2.0) :: !(sw.writes);
  check_visible sw ~everywhere title []

(* One more version on top of the newest, dropped again. *)
let extra_version sw ~top ~far creates drops =
  let run = sw.run and api = sw.api in
  let n = List.length (I.versions api) in
  let extra = version_name (top + 1) in
  settle ();
  let s0 = statements api in
  let t0 = now () in
  let ok =
    attempt run (fun () ->
        Trace.span "wiki.create_version" (fun () ->
            bidel api
              (Printf.sprintf
                 "CREATE SCHEMA VERSION %s FROM %s WITH ADD COLUMN extra AS 0 INTO page;"
                 extra (version_name top))))
  in
  let dt = now () -. t0 in
  if ok <> None then begin
    creates := dt :: !creates;
    if !Trace.enabled then tally "codegen.installed_stmts" (float_of_int (statements api - s0))
  end;
  check run (List.length (I.versions api) = n + 1) "%s missing after CREATE" extra;
  let s0 = statements api in
  let t0 = now () in
  let ok =
    attempt run (fun () ->
        Trace.span "wiki.drop_version" (fun () ->
            bidel api (Printf.sprintf "DROP SCHEMA VERSION %s;" extra)))
  in
  let dt = now () -. t0 in
  if ok <> None then begin
    drops := dt :: !drops;
    if !Trace.enabled then tally "migration.stmts" (float_of_int (statements api - s0))
  end;
  check run (List.length (I.versions api) = n) "%s left after DROP" extra;
  if !Trace.enabled then begin
    probe_delta run api;
    probe_plan api (version_name (1 + far))
  end

let run ~state_dir:_ ~seed ~seconds ~smoke =
  let run = new_run () in
  let size = size ~smoke ~seconds in
  let data = generate ~seed size in
  (* Set-up is timed once for the instance the build uses, and again on a
     fresh instance after every measured sweep round, which is dropped at
     once. Timed only at the start, set-up followed the machine's speed in
     the run's first second, which varied by 2x from run to run; spread
     over the run, its samples see the same drift as the other metrics. *)
  let setup_times = ref [] in
  let timed_setup () =
    settle ();
    let api, dt = timed (fun () -> Trace.span "wiki.setup" (fun () -> setup data)) in
    setup_times := dt :: !setup_times;
    api
  in
  let api = timed_setup () in
  let scripts, expected_hist = scripts size in
  (* the build: every step timed on its own *)
  settle ();
  let steps =
    List.map
      (fun script ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        ignore
          (attempt run (fun () -> Trace.span "wiki.evolve" (fun () -> bidel api script)));
        let dt = now () -. t0 in
        if !Trace.enabled then tally "gc.minor_words_per_step" (Gc.minor_words () -. w0);
        dt)
      scripts
  in
  check run (List.length (I.versions api) = size.versions) "%d versions built, %d expected"
    (List.length (I.versions api)) size.versions;
  let hist = W.histogram api in
  check run (hist = expected_hist) "applied SMO histogram differs from the scripts'";
  let far = List.fold_left max 0 size.distances in
  let sw =
    {
      run;
      api;
      data;
      rng = Random.State.make [| seed; 1 |];
      visited = "v001" :: List.map (fun d -> version_name (1 + d)) size.distances;
      visit = 0;
      reads = ref [];
      writes = ref [];
      statements = 0;
      statement_s = 0.0;
    }
  in
  let creates = ref [] and drops = ref [] in
  (* round 0 warms the caches up and runs the extra checks; its samples,
     spans and tallies are dropped *)
  let warm_up = Trace.mark () and build_tallies = save_tallies () in
  for r = 0 to size.rounds do
    settle ();
    List.iteri
      (fun i d -> visit sw ~first_round:(r = 0) ~everywhere:(r = 0 && i = 0) d)
      size.distances;
    extra_version sw ~top:size.versions ~far creates drops;
    if r > 0 then ignore (Sys.opaque_identity (timed_setup ()));
    if r = 0 then begin
      sw.reads := [];
      sw.writes := [];
      sw.statements <- 0;
      sw.statement_s <- 0.0;
      creates := [];
      drops := [];
      Trace.forget_since warm_up;
      restore_tallies build_tallies
    end
  done;
  let reads = List.map snd !(sw.reads) and writes = List.map snd !(sw.writes) in
  let at d samples = List.filter_map (fun (d', s) -> if d' = d then Some s else None) samples in
  let us = 1e6 and ms = 1e3 in
  e2e run "setup_s" "s" (median !setup_times);
  e2e run "ops_per_s" "1/s" (float_of_int sw.statements /. sw.statement_s);
  e2e run "read_p50_us" "us" (us *. median reads);
  e2e run "read_p99_us" "us" (us *. percentile 99.0 reads);
  e2e run "write_p50_us" "us" (us *. median writes);
  e2e run "write_p99_us" "us" (us *. percentile 99.0 writes);
  e2e run "evolve_next_ms" "ms" (ms *. median !creates);
  e2e run "regenerate_ms" "ms" (ms *. median !drops);
  e2e run "replay_s" "s" (sum steps);
  e2e run "peak_heap_mb" "MB" (peak_heap_mb ());
  info run "evolve_total_s" (sum steps);
  List.iter
    (fun v ->
      if v <= size.versions then
        info run (Printf.sprintf "evolve_step_ms_%s" (version_name v))
          (ms *. List.nth steps (v - 2)))
    (List.sort_uniq compare [ 20; 50; 100; size.versions ]);
  info run "far_read_ms" (ms *. median (at far !(sw.reads)));
  info run "far_write_ms" (ms *. median (at far !(sw.writes)));
  info run "sweep_s" (sw.statement_s);
  info run "reads" (float_of_int (List.length reads));
  info run "writes" (float_of_int (List.length writes));
  if !Trace.enabled then begin
    emit_layers run api;
    let selfs = Trace.self_times () in
    List.iter
      (fun d ->
        let tag = Printf.sprintf "_d%d" d and span = Printf.sprintf ":d%d" d in
        let msv = Trace.mean_self ~unit_ns:1e6 selfs in
        info run ("exec.write_ms" ^ tag) (msv ("Engine.exec_ast:write" ^ span));
        info run ("exec.read_ms" ^ tag) (msv ("Engine.exec_ast:read" ^ span));
        info run ("exec.stmts_per_write" ^ tag) (tally_mean ("exec.stmts_per_write" ^ span));
        info run ("exec.trigger_hops_per_write" ^ tag)
          (tally_mean ("exec.trigger_hops_per_write" ^ span));
        info run ("gc.minor_words_per_write" ^ tag)
          (tally_mean ("gc.minor_words_per_write" ^ span)))
      size.distances
  end;
  run
