(* The benchmark command:

     main.exe --workload tasky-oltp|wiki-genealogy --seed N --seconds S
              --trace 0|1 [--smoke]

   runs one workload and prints, as its last line, one JSON object with
   "correct", "attempted", "failed" and "metrics": the end-to-end metrics
   untraced, the per-layer metrics traced. The traced run also writes its
   spans to .perfbench/ and prints how far its end-to-end figures moved from
   the last untraced run of the same workload, seed and size. --smoke runs a
   seconds-long size of the workload with all its checks. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload tasky-oltp|wiki-genealogy --seed N --seconds S \
     --trace 0|1 [--smoke]";
  exit 2

let state_dir = ".perfbench"

let json_number run name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    check run false "metric %s is not a number" name;
    "0"
  end

let result_line run metrics =
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string m.name)
      (json_number run m.name m.value) (Trace.json_string m.unit_)
  in
  let body = String.concat ", " (List.map metric metrics) in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    run.correct run.attempted run.failed body

let saved_e2e workload seed ~smoke =
  Filename.concat state_dir
    (Printf.sprintf "e2e-%s-seed%d%s.txt" workload seed (if smoke then "-smoke" else ""))

let save_e2e path metrics =
  let oc = open_out path in
  List.iter (fun m -> Printf.fprintf oc "%s %.17g\n" m.name m.value) metrics;
  close_out oc

let load_e2e path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' line with
        | [ name; v ] -> go ((name, float_of_string v) :: acc)
        | _ -> go acc)
      | exception End_of_file ->
        close_in ic;
        acc
    in
    go []
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and smoke = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := (try int_of_string n with _ -> usage ());
      parse rest
    | "--seconds" :: n :: rest ->
      seconds := (try int_of_string n with _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := int_of_string t;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds < 1 || !trace < 0 then usage ();
  let workload_run =
    match !workload with
    | "tasky-oltp" -> Tasky_oltp.run
    | "wiki-genealogy" -> Wiki_genealogy.run
    | _ -> usage ()
  in
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  Trace.enabled := !trace = 1;
  ignore (drift_probe ());
  let drift_start = drift_probe () in
  let run = workload_run ~state_dir ~seed:!seed ~seconds:!seconds ~smoke:!smoke in
  let drift_end = drift_probe () in
  let e2e = List.rev run.e2e and layers = List.rev run.layer in
  List.iter (fun (name, v) -> Printf.printf "info %s %.6g\n" name v) (List.rev run.info);
  Printf.printf "drift_probe_s start wall %.4f cpu %.4f end wall %.4f cpu %.4f\n"
    (fst drift_start) (snd drift_start) (fst drift_end) (snd drift_end);
  let saved = saved_e2e !workload !seed ~smoke:!smoke in
  if !Trace.enabled then begin
    let spans =
      Filename.concat state_dir
        (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)
    in
    Trace.write spans;
    Printf.printf "spans %d written to %s\n" (List.length !Trace.recorded) spans;
    match load_e2e saved with
    | [] -> print_endline "tracing overhead: no untraced run of this workload and seed"
    | untraced ->
      List.iter
        (fun m ->
          match List.assoc_opt m.name untraced with
          | Some u when u <> 0.0 ->
            Printf.printf "tracing overhead %s %+.1f%% (traced %.6g, untraced %.6g)\n"
              m.name (100.0 *. (m.value -. u) /. u) m.value u
          | _ -> ())
        e2e
  end
  else save_e2e saved e2e;
  print_endline (result_line run (if !Trace.enabled then layers else e2e));
  if !smoke && not (run.correct && run.failed = 0) then exit 1
