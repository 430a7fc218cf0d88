(* slin — command-line front end.

   Subcommands:
     slin experiment [e1|..|e5|e7|e8] [--quick] [--witness-dir DIR] [--jobs N]
                     [--profile-out F.json] [--coverage-out F.json]
                                                  regenerate experiment tables
     slin check OBJECT [--max-nodes N] [--max-depth D]
                      [--budget-ms MS] [--budget-mb MB]
                      [--stats] [--json-out FILE] [--trace-out FILE]
                      [--profile-out F.json] [--coverage-out F.json]
                      [--witness-out FILE] [--no-shrink] [--jobs N]
                      [--checkpoint-out F.json] [--resume F.json]
                                                  strong-linearizability game
     slin explain WITNESS.json [--trace-out BASE]
                                                  replay + render a witness
     slin fuzz OBJECT [--seed S] [--runs N] [--no-crash] [--max-steps N]
                      [--no-shrink] [--witness-out FILE] [--jobs N]
                      [--profile-out F.json] [--coverage-out F.json]
                                                  seeded crash fuzzing
     slin progress OBJECT [--max-nodes N] [--max-depth D] [--witness-out FILE]
                                                  wait-freedom bound + lasso search
     slin agree OBJECT [--trials N] [--crash-prob P] [--seed S]
                                                  run Algorithm B (Lemma 12)
     slin trace OBJECT [--seed S] [--trace-out FILE]
                                                  print one random execution
     slin stats diff OLD.json NEW.json [--fail-on-regress PCT]
                                                  compare two perf reports

   --profile-out and --coverage-out attach the engine profile and the
   exploration-coverage report to a game (check, experiment e2) or a fuzz
   campaign; check --stats prints their summaries, and check --trace-out
   carries the profile's per-domain lanes.

   OBJECT names come from the shared registry (Registry.names): faa-max,
   faa-snapshot, counter, readable-ts, multishot-ts, fetch-inc, set,
   hw-queue, agm-stack, rw-max, mwmr-register, cas-queue, set-empty-race,
   set-repaired, tournament-ts, aww-multishot-fi (check/fuzz/progress/
   trace/explain); queue, stack, ooo-queue, hw-queue (agree).

   Exit codes (check, explain, fuzz, progress): 0 = verified / witness
   reproduced / no violation found, 1 = refuted / witness did not
   reproduce / violation found, 2 = usage error, unknown object,
   inconclusive (out of budget or interrupted), or internal error.

   One-shot check/fuzz handle SIGINT/SIGTERM cooperatively: the engine
   stops at the next node (or completed fuzz run), flushes the final
   checkpoint when --checkpoint-out is active, reports partial stats,
   and exits 2 through the normal inconclusive path. *)

open Cmdliner

let unknown_object name =
  Format.eprintf "unknown object %S; choose from: %s@." name
    (String.concat ", " Registry.names)

(* --- profiling helpers ------------------------------------------------ *)

(* Reduction fields are emitted only when the mode is on, so reports
   from unreduced runs — including every committed baseline — keep their
   historical byte shape. *)
let profile_meta ?steal_grain ?(reduce = false) ?preempt_bound ~command ~objname ~jobs () =
  [
    ("command", Obs_json.String command);
    ("object", Obs_json.String objname);
    ("jobs", Obs_json.Int jobs);
  ]
  @ (match steal_grain with Some g -> [ ("steal_grain", Obs_json.Int g) ] | None -> [])
  @ (if reduce then [ ("reduce", Obs_json.Bool true) ] else [])
  @
  match preempt_bound with
  | Some b -> [ ("preempt_bound", Obs_json.Int b) ]
  | None -> []

(* Write one JSON document and a newline to [path], creating its
   directory; false, after a note on stderr, on an unwritable path (the
   caller decides whether that poisons the exit code). *)
let write_json path json =
  match
    Obs.ensure_parent_dir path;
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Obs_json.to_string json);
        output_char oc '\n')
  with
  | () -> true
  | exception Sys_error msg ->
      Format.eprintf "cannot open output file: %s@." msg;
      false

(* --- reports ------------------------------------------------------------ *)

(* The passive recorders behind --profile-out and --coverage-out, each
   paired with the path its report goes to.  Start them right before the
   run they observe: the profiler's wall clock starts at creation. *)
type reports = {
  profile : (string * Prof.t) option;
  coverage : (string * Coverage.t) option;
}

let start_reports (profile_out, coverage_out) =
  {
    profile = Option.map (fun path -> (path, Prof.create ())) profile_out;
    coverage = Option.map (fun path -> (path, Coverage.create ())) coverage_out;
  }

let profiler r = Option.map snd r.profile
let coverage r = Option.map snd r.coverage

(* Write the slin-profile/v1 and slin-coverage/v1 reports that were
   asked for, finishing the profile first. *)
let write_reports r ~meta =
  Option.iter
    (fun (path, prof) ->
      Prof.finish prof;
      if write_json path (Prof.to_json prof ~meta) then
        Format.printf "profile report (slin-profile/v1) written to %s@." path)
    r.profile;
  Option.iter
    (fun (path, cov) ->
      if write_json path (Coverage.to_json cov ~meta) then
        Format.printf "coverage report (slin-coverage/v1) written to %s@." path)
    r.coverage

(* --- graceful interruption -------------------------------------------- *)

(* The SIGINT/SIGTERM handlers only set a flag; the engine polls it at
   every fresh node (check) or between runs (fuzz), so the command ends
   through its normal inconclusive path — verdict line, partial stats,
   final checkpoint, exit 2 — instead of dying mid-write. *)
let interrupted = Atomic.make false

let install_signal_handlers () =
  let handle = Sys.Signal_handle (fun _ -> Atomic.set interrupted true) in
  (try Sys.set_signal Sys.sigint handle with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm handle with Invalid_argument _ | Sys_error _ -> ()

let signal_interrupt () = Atomic.get interrupted

(* --- checkpoint files ------------------------------------------------- *)

(* Atomic write (tmp + rename) so a signal or crash mid-emit can never
   leave a torn checkpoint behind — the previous complete one survives.
   Serialized because the column workers emit concurrently. *)
let checkpoint_writer path =
  let lock = Mutex.create () in
  fun ck ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match
          Obs.ensure_parent_dir path;
          let tmp = path ^ ".tmp" in
          Out_channel.with_open_text tmp (fun oc ->
              output_string oc (Obs_json.to_string (Lincheck.checkpoint_to_json ck));
              output_char oc '\n');
          Sys.rename tmp path
        with
        | () -> ()
        | exception Sys_error msg -> Printf.eprintf "cannot write checkpoint: %s\n%!" msg)

let read_checkpoint ~cp_config path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Obs_json.of_string (String.trim contents) with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j -> (
          match Lincheck.checkpoint_of_json j with
          | Error e -> Error (Printf.sprintf "%s: %s" path e)
          | Ok ck ->
              if ck.Lincheck.ck_config <> cp_config then
                Error
                  (Printf.sprintf
                     "%s: checkpoint was taken under configuration %S but this run is %S \
                      (object, depth bound and engine must match)"
                     path ck.Lincheck.ck_config cp_config)
              else Ok ck))

(* --- check ------------------------------------------------------------ *)

let run_check name max_nodes max_depth budget_ms budget_mb stats json_out trace_out witness_out
    no_shrink jobs steal_grain reduce reduce_check preempt_bound checkpoint_stride
    (profile_out, coverage_out) checkpoint_out resume =
  match Registry.find name with
  | None ->
      unknown_object name;
      2
  | Some (Registry.Checkable c) -> (
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let depth = match max_depth with Some _ -> max_depth | None -> c.default_depth in
      install_signal_handlers ();
      let cp_config =
        Lincheck.checkpoint_config ~reduce:(reduce || reduce_check) ?preempt_bound
          ~object_name:name ~max_depth:depth ()
      in
      let resume_ck =
        match resume with
        | None -> Ok None
        | Some path -> Result.map Option.some (read_checkpoint ~cp_config path)
      in
      match resume_ck with
      | Error msg ->
          Format.eprintf "cannot resume: %s@." msg;
          2
      | Ok resume_ck ->
      let checkpointing =
        match (checkpoint_out, resume_ck) with
        | None, None -> None
        | _ ->
            let cp_emit =
              match checkpoint_out with
              | Some path -> checkpoint_writer path
              | None -> fun _ -> ()
            in
            Some { Lincheck.cp_config; cp_resume = resume_ck; cp_emit }
      in
      (* Resume chatter goes to stderr so stdout stays byte-comparable
         with an uninterrupted golden run. *)
      (match resume_ck with
      | Some ck ->
          Format.eprintf "resuming from checkpoint: %d columns done (fingerprint %s)@."
            (List.length ck.Lincheck.ck_columns)
            (Lincheck.checkpoint_fingerprint ck)
      | None -> ());
      let note_interrupt () =
        Format.eprintf "interrupted by signal%s@."
          (match checkpoint_out with
          | Some p -> "; checkpoint flushed to " ^ p
          | None -> "")
      in
      let exit_of_verdict = function
        | L.Strongly_linearizable _ -> 0
        | L.Not_linearizable _ | L.Not_strongly_linearizable _ -> 1
        | L.Out_of_budget _ -> 2
      in
      (* Witness emission follows the verdict and returns the exit code.  A refutation's certificate comes from
         the kill evidence the check recorded.  A reduced or resumed run
         records none, so the evidence then comes from one unreduced,
         uncheckpointed run of the same engine under the same budgets,
         workers and interrupt.  A signal during that run or during
         shrinking exits 2, as an interrupted check does (a shrink cut
         short still writes its last verified certificate). *)
      let module W = Witness.Make (S) in
      let write_witness path nodes = function
        | None ->
            if not (signal_interrupt ()) then
              Format.eprintf "witness extraction failed within the node budget@."
        | Some shape -> (
            let original_len = Witness.size shape in
            let shape =
              if no_shrink then shape else W.shrink ~interrupt:signal_interrupt prog shape
            in
            let json =
              W.to_json prog ~object_name:name ~spec_name:c.spec_name ~max_nodes ~max_depth:depth
                ~nodes ~original_len shape
            in
            if write_json path json then
              Format.printf "witness (%s, %d steps%s) written to %s@."
                (Witness.kind_tag shape.Witness.kind)
                (Witness.size shape)
                (if no_shrink then "" else Printf.sprintf ", shrunk from %d" original_len)
                path)
      in
      let emit_witness v (st : Lincheck.stats) =
        (match (witness_out, v) with
        | None, _ -> ()
        | Some path, L.Not_strongly_linearizable { nodes; _ } ->
            let kill_paths =
              if st.Lincheck.kill_paths <> [] then st.Lincheck.kill_paths
              else
                (snd
                   (L.check_strong_stats ~max_nodes ?max_depth:depth ?budget_ms
                      ?budget_heap_mb:budget_mb ~jobs ~steal_grain ?preempt_bound
                      ~checkpoint_stride ~interrupt:signal_interrupt prog))
                  .Lincheck.kill_paths
            in
            write_witness path (Some nodes) (W.certificate prog kill_paths)
        | Some path, L.Not_linearizable { schedule } ->
            write_witness path None (W.extract prog ~kind:Witness.Not_linearizable ~schedule)
        | Some path, _ ->
            Format.eprintf "no witness written to %s: the verdict is not a refutation@." path);
        match v with
        | (L.Not_linearizable _ | L.Not_strongly_linearizable _)
          when witness_out <> None && signal_interrupt () ->
            Format.eprintf "interrupted by signal during witness extraction@.";
            2
        | _ -> exit_of_verdict v
      in
      (* Simulator metrics cost node throughput, so they are on only
         when --stats or --json-out prints them. *)
      let metrics = stats || json_out <> None in
      if metrics then begin
        Sim.Metrics.reset ();
        Sim.Metrics.enabled := true
      end;
      Format.printf "object: %s@." c.spec_name;
      (match
         Harness.find_non_linearizable ~check:L.is_linearizable ~runs:150 ?max_steps:depth prog
       with
      | None -> Format.printf "linearizability: ok on 150 random schedules@."
      | Some seed -> Format.printf "linearizability: VIOLATED at seed %d@." seed);
      (* Open every output up front: a bad path must fail before the
         (possibly long) exploration, not after it. *)
      match
        let sink =
          Option.map
            (fun path ->
              Obs.ensure_parent_dir path;
              (path, Obs_jsonl.create path))
            json_out
        in
        let touch path =
          Obs.ensure_parent_dir path;
          close_out (open_out path)
        in
        Option.iter touch trace_out;
        Option.iter touch profile_out;
        Option.iter touch coverage_out;
        sink
      with
      | exception Sys_error msg ->
          Format.eprintf "cannot open output file: %s@." msg;
          2
      | json_sink ->
      let tracer = Option.map (fun _ -> Obs_trace.create ()) trace_out in
      (* Heartbeat for long checks: nodes so far and current rate, on
         stderr so stdout stays machine-clean.  With more than one
         worker the engine counts only the nodes of completed columns. *)
      let counted =
        if Steal_pool.effective_workers ~requested:jobs > 1 then "nodes in completed columns"
        else "nodes explored"
      in
      let on_progress ~nodes ~elapsed_ns =
        let rate =
          if elapsed_ns <= 0 then 0. else float_of_int nodes *. 1e9 /. float_of_int elapsed_ns
        in
        Printf.eprintf "heartbeat: %d %s, %.0f nodes/s\n%!" nodes counted rate
      in
      let on_progress = if stats then Some on_progress else None in
      let reports = start_reports (profile_out, coverage_out) in
      let v, st =
        L.check_strong_stats ~max_nodes ?max_depth:depth ?budget_ms ?budget_heap_mb:budget_mb
          ?on_progress ~progress_every:25_000 ?tracer ?profiler:(profiler reports)
          ?coverage:(coverage reports) ~jobs ~steal_grain ~reduce ~reduce_check ?preempt_bound
          ~checkpoint_stride ~interrupt:signal_interrupt ?checkpointing prog
      in
      Option.iter Prof.finish (profiler reports);
      Format.printf "strong linearizability: %a@." L.pp_verdict v;
      (match v with
      | L.Out_of_budget { reason = Lincheck.Budget_interrupt; _ } ->
          note_interrupt ();
          if not stats then
            Format.eprintf "partial stats:@.  @[<v>%a@]@." Lincheck.pp_stats st
      | _ -> ());
      let sim_metrics = if metrics then Sim.Metrics.snapshot () else [] in
      if stats then begin
        Format.printf "exploration stats:@.  @[<v>%a@]@." Lincheck.pp_stats st;
        Format.printf "sim metrics:@.";
        List.iter (fun (k, n) -> Format.printf "  %-28s %d@." k n) sim_metrics;
        Option.iter (Format.printf "%a" Prof.pp_summary) (profiler reports);
        Option.iter (Format.printf "%a" Coverage.pp_summary) (coverage reports)
      end;
      (match json_sink with
      | None -> ()
      | Some (path, sink) ->
          Obs_jsonl.emit sink "check_run"
            [
              ("object", Obs_json.String name);
              ("spec", Obs_json.String c.spec_name);
              ("procs", Obs_json.Int (Array.length c.workload));
              ("max_nodes", Obs_json.Int max_nodes);
              ("max_depth", match depth with Some d -> Obs_json.Int d | None -> Obs_json.Null);
            ];
          Obs_jsonl.emit sink "check_stats" (Lincheck.stats_fields st);
          Obs_jsonl.emit sink "sim_metrics"
            (List.map (fun (k, n) -> (k, Obs_json.Int n)) sim_metrics);
          Obs_jsonl.emit sink "check_verdict" (L.verdict_fields v);
          Obs_jsonl.close sink;
          Format.printf "stats JSONL written to %s@." path);
      (match (trace_out, tracer) with
      | Some path, Some tr ->
          Obs_trace.process_name tr (Printf.sprintf "slin check %s" name);
          Option.iter (fun prof -> Prof.to_trace prof tr) (profiler reports);
          Obs_trace.write tr path;
          Format.printf "Chrome trace (%d events) written to %s@." (Obs_trace.size tr) path
      | _ -> ());
      write_reports reports
        ~meta:
          (profile_meta ~steal_grain ~reduce:(reduce || reduce_check) ?preempt_bound
             ~command:"check" ~objname:name ~jobs ());
      emit_witness v st)

(* --- explain ---------------------------------------------------------- *)

let run_explain path trace_out =
  match Witness.parse_file path with
  | Error msg ->
      Format.eprintf "%s@." msg;
      2
  | Ok p -> (
      match Registry.find p.Witness.p_object with
      | None ->
          Format.eprintf "witness references unknown object %S; this build knows: %s@."
            p.Witness.p_object
            (String.concat ", " Registry.names);
          2
      | Some (Registry.Checkable c) ->
          let (module S) = c.spec in
          let module W = Witness.Make (S) in
          let prog = Harness.program ~make:c.make ~workload:c.workload in
          let shape = Witness.shape_of_parsed p in
          Format.printf "object: %s — %s@." p.Witness.p_object c.spec_name;
          Format.printf "witness: %s, %d future(s), %d schedule steps (certificate had %d)@."
            (Witness.kind_tag p.Witness.p_kind)
            (List.length p.Witness.p_futures)
            p.Witness.p_shrunk_len p.Witness.p_original_len;
          Format.printf "%a" (W.pp_explain ~prog ?conflict:p.Witness.p_conflict) shape;
          let report = W.replay prog p in
          List.iter (fun n -> Format.printf "note: %s@." n) report.W.notes;
          (match trace_out with
          | None -> ()
          | Some base ->
              List.iteri
                (fun i (f : Witness.recorded_future) ->
                  match Sim.run_schedule_result prog (p.Witness.p_branch @ f.Witness.f_schedule) with
                  | Error _ -> ()
                  | Ok w -> (
                      let tr =
                        Obs_trace.of_sim_trace ~pp_op:S.pp_op ~pp_resp:S.pp_resp (Sim.trace w)
                      in
                      Obs_trace.process_name tr
                        (Printf.sprintf "%s future %d" p.Witness.p_object i);
                      let out = Printf.sprintf "%s.f%d.json" base i in
                      match
                        Obs.ensure_parent_dir out;
                        Obs_trace.write tr out
                      with
                      | () ->
                          Format.printf "Chrome trace for future %d (%d events) written to %s@." i
                            (Obs_trace.size tr) out
                      | exception Sys_error msg ->
                          Format.eprintf "cannot open output file: %s@." msg))
                p.Witness.p_futures);
          if report.W.reproduced then begin
            Format.printf "replay: verdict REPRODUCED@.";
            0
          end
          else begin
            Format.printf "replay: NOT reproduced@.";
            1
          end)

(* --- trace ------------------------------------------------------------ *)

let run_trace name seed trace_out =
  match Registry.find name with
  | None ->
      unknown_object name;
      2
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let w = Sim.run_random ~seed prog in
      Format.printf "object: %s (seed %d)@.%a" c.spec_name seed (Trace.pp S.pp_op S.pp_resp)
        (Sim.trace w);
      (match trace_out with
      | None -> 0
      | Some path -> (
          let tr = Obs_trace.of_sim_trace ~pp_op:S.pp_op ~pp_resp:S.pp_resp (Sim.trace w) in
          match
            Obs.ensure_parent_dir path;
            Obs_trace.write tr path
          with
          | () ->
              Format.printf "Chrome trace (%d events) written to %s — open at ui.perfetto.dev@."
                (Obs_trace.size tr) path;
              0
          | exception Sys_error msg ->
              Format.eprintf "cannot open output file: %s@." msg;
              2))

(* --- fuzz ------------------------------------------------------------- *)

let run_fuzz name seed runs no_crash max_steps no_shrink witness_out jobs report_paths =
  match Registry.find name with
  | None ->
      unknown_object name;
      2
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module A = Adversary.Make (S) in
      let module W = Witness.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      install_signal_handlers ();
      let reports = start_reports report_paths in
      let r =
        A.fuzz ~seed ~runs ~crash:(not no_crash) ~max_steps ~shrink:(not no_shrink) ~jobs
          ?profiler:(profiler reports) ?coverage:(coverage reports) ~interrupt:signal_interrupt
          prog
      in
      Option.iter Prof.finish (profiler reports);
      Format.printf "object: %s (master seed %d)@." c.spec_name seed;
      (* No wall-clock figures here: with a fixed seed the output is
         byte-for-byte reproducible (slinbench's adversary workload
         reports schedules/s instead). *)
      Format.printf "fuzz: %d runs (%d with an injected crash), %d schedule steps@."
        r.A.fz_runs r.A.fz_crashed_runs r.A.fz_total_steps;
      let code =
        match r.A.fz_violation with
        | None when r.A.fz_interrupted ->
            (* Partial campaign: the counts above cover only completed
               runs, and absence of a violation in those is not the
               clean exit-0 answer — degrade to inconclusive. *)
            Format.printf "no violation in the %d completed runs (campaign interrupted)@."
              r.A.fz_runs;
            Format.eprintf "interrupted by signal: %d of %d runs completed@." r.A.fz_runs runs;
            2
        | None ->
            Format.printf "no linearizability violation found@.";
            0
        | Some v ->
          let crash_str =
            match v.A.v_crash_after with
            | [] -> "no crash"
            | l ->
                String.concat ", "
                  (List.map (fun (p, at) -> Printf.sprintf "crash p%d at step %d" p at) l)
          in
          Format.printf "VIOLATION: not linearizable (run seed %d, %s, %d-step schedule)@."
            v.A.v_seed crash_str
            (List.length v.A.v_schedule);
          Format.printf "certificate: %d steps after shrinking@." (Witness.size v.A.v_shape);
          (match witness_out with
          | None -> ()
          | Some path ->
              let json =
                W.to_json prog ~object_name:name ~spec_name:c.spec_name ~max_nodes:0
                  ~max_depth:None ~nodes:None
                  ~original_len:(List.length v.A.v_schedule)
                  v.A.v_shape
              in
              if write_json path json then
                Format.printf "witness (%s, %d steps) written to %s — replay with slin explain@."
                  (Witness.kind_tag v.A.v_shape.Witness.kind)
                  (Witness.size v.A.v_shape) path);
          1
      in
      write_reports reports ~meta:(profile_meta ~command:"fuzz" ~objname:name ~jobs ());
      code

(* --- progress --------------------------------------------------------- *)

let run_progress name max_nodes max_depth witness_out =
  match Registry.find name with
  | None ->
      unknown_object name;
      2
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module A = Adversary.Make (S) in
      let module W = Witness.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let depth = match max_depth with Some _ -> max_depth | None -> c.default_depth in
      Format.printf "object: %s@." c.spec_name;
      let wf = A.wait_free_bound ~max_nodes ?max_depth:depth prog in
      Format.printf "wait-freedom: %a%s@." A.pp_wf_report wf
        (if A.wait_free_established wf then " — exhaustive: an adversarial bound"
         else " — walk incomplete: establishes nothing");
      let lf = A.find_livelock prog in
      (match lf.A.lf_livelock with
      | None ->
          Format.printf "lock-freedom: no lasso found (%d adversaries tried)@."
            lf.A.lf_candidates;
          0
      | Some shape ->
          Format.printf "lock-freedom: LIVELOCK — certified %d-step lasso (stem %d, cycle %d)@."
            (Witness.size shape)
            (List.length shape.Witness.branch)
            (List.length (List.concat shape.Witness.futures));
          (match witness_out with
          | None -> ()
          | Some path ->
              let json =
                W.to_json prog ~object_name:name ~spec_name:c.spec_name ~max_nodes
                  ~max_depth:depth ~nodes:None
                  ~original_len:(Witness.size shape)
                  shape
              in
              if write_json path json then
                Format.printf "witness (livelock) written to %s — replay with slin explain@."
                  path);
          1)

(* --- stats diff ------------------------------------------------------- *)

let read_json_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Obs_json.of_string s
  | exception Sys_error msg -> Error msg

let run_stats_diff old_path new_path fail_on_regress =
  match (read_json_file old_path, read_json_file new_path) with
  | Error msg, _ ->
      Format.eprintf "%s: %s@." old_path msg;
      2
  | _, Error msg ->
      Format.eprintf "%s: %s@." new_path msg;
      2
  | Ok old_doc, Ok new_doc -> (
      match Stats_diff.diff ~old_doc ~new_doc with
      | Error msg ->
          Format.eprintf "%s@." msg;
          2
      | Ok entries -> (
          Format.printf "%a" Stats_diff.pp entries;
          match fail_on_regress with
          | None -> 0
          | Some pct ->
              let regs = Stats_diff.regressions ~threshold:pct entries in
              if regs = [] then begin
                Format.printf "no regression beyond %.1f%%@." pct;
                0
              end
              else begin
                Format.eprintf "REGRESSION: %d row(s) worsened beyond %.1f%% (or vanished):@."
                  (List.length regs) pct;
                List.iter
                  (fun e ->
                    Format.eprintf "  %s / %s@." e.Stats_diff.e_name e.Stats_diff.e_metric)
                  regs;
                1
              end))

(* --- agreement objects ------------------------------------------------ *)

let agree_objects = [ "queue"; "stack"; "ooo-queue"; "hw-queue" ]

let run_agree name trials crash_prob seed =
  let inputs3 = [| 100; 200; 300 |] in
  let stats =
    match name with
    | "queue" ->
        Some
          (Agreement.run_many ~make:K_ordering.atomic_queue ~ordering:K_ordering.queue_witness
             ~inputs:inputs3 ~trials ~crash_prob ~seed ())
    | "stack" ->
        Some
          (Agreement.run_many ~make:K_ordering.atomic_stack ~ordering:K_ordering.stack_witness
             ~inputs:inputs3 ~trials ~crash_prob ~seed ())
    | "ooo-queue" ->
        Some
          (Agreement.run_many
             ~make:(K_ordering.atomic_ooo_queue ~k:2)
             ~ordering:(K_ordering.ooo_queue_witness ~k:2)
             ~inputs:[| 1; 2; 3; 4; 5 |] ~trials ~crash_prob ~seed ())
    | "hw-queue" ->
        Some
          (Agreement.run_many
             ~make:(K_ordering.hw_queue ~capacity:3)
             ~ordering:K_ordering.queue_witness ~inputs:inputs3 ~trials ~crash_prob ~seed ())
    | _ -> None
  in
  match stats with
  | None ->
      Format.eprintf "unknown object %S; choose from: %s@." name (String.concat ", " agree_objects);
      2
  | Some s ->
      Format.printf "%s: %a@." name Agreement.pp_stats s;
      0

(* --- cmdliner plumbing ------------------------------------------------ *)

let verdict_exits =
  [
    Cmd.Exit.info 0 ~doc:"the object verified strongly linearizable (check), or the witness \
                          replayed to the same verdict (explain).";
    Cmd.Exit.info 1 ~doc:"the check refuted — not linearizable, or linearizable but not \
                          strongly (check); the witness did not reproduce (explain).";
    Cmd.Exit.info 2
      ~doc:
        "usage error, unknown object, inconclusive (node budget exhausted), or internal error.";
  ]

(* Arguments shared by several subcommands, declared once. *)
let object_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OBJECT")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run on up to $(docv) domains (capped at the hardware parallelism; override with \
           SLIN_DOMAIN_CAP).  $(b,check) and $(b,experiment) split the strong-linearizability \
           game's subtrees by work stealing; $(b,fuzz) splits its runs, whose configurations \
           are drawn from the PRNG upfront.  The merge is deterministic: verdicts, witnesses, \
           node counts, fuzz reports and experiment tables are identical for every $(docv).  \
           The stderr heartbeat of $(b,check --stats) counts every explored node at one \
           worker and only the nodes of completed columns at more.")

(* --profile-out and --coverage-out, as the pair [start_reports] takes. *)
let reports_arg =
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Write a slin-profile/v1 profiling report of the run to $(docv), one lane per \
             domain: solve/merge/steal/share/idle time, work units (game nodes, or fuzz \
             schedules), cache hits and candidate-kill attribution.  Compare runs with \
             $(b,slin stats diff).  $(b,check) also prints its summary under $(b,--stats) \
             and adds its lanes to the $(b,--trace-out) file.")
  in
  let coverage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "coverage-out" ] ~docv:"FILE"
          ~doc:
            "Write a slin-coverage/v1 exploration-coverage report of the run to $(docv): \
             unique world fingerprints, depth and branching histograms, the object-pair \
             access matrix and, for $(b,fuzz), per-run novelty attribution.  It carries no \
             timings: at $(b,--jobs) 1, and for $(b,fuzz) at any $(b,--jobs), it is a pure \
             function of the workload and engine.  Compare runs with $(b,slin stats diff).  \
             $(b,check) also prints its summary under $(b,--stats).")
  in
  Term.(const (fun p c -> (p, c)) $ profile_out $ coverage_out)

let experiment_cmd =
  let which = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Skip the slow refutations.") in
  let witness_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-dir" ] ~docv:"DIR"
          ~doc:"Write a slin-witness/v1 JSON artifact for every E2 refutation into $(docv).")
  in
  let known = [ "e1"; "e2"; "e3"; "e4"; "e5"; "e7"; "e8" ] in
  let run which quick witness_dir jobs report_paths =
    match List.filter (fun n -> not (List.mem n known)) which with
    | _ :: _ as bad ->
        Format.eprintf "unknown experiment%s %s; choose from: %s@."
          (if List.length bad > 1 then "s" else "")
          (String.concat ", " (List.map (Printf.sprintf "%S") bad))
          (String.concat ", " known);
        2
    | [] ->
        let sel name = which = [] || List.mem name which in
        (* The reports cover E2's strong-linearizability games. *)
        let reports = start_reports report_paths in
        Option.iter (fun d -> Obs.ensure_parent_dir (Filename.concat d "w")) witness_dir;
        if sel "e1" then Experiments.e1 ();
        if sel "e2" then
          Experiments.e2 ?witness_dir ~jobs ?profiler:(profiler reports)
            ?coverage:(coverage reports) ~quick ();
        if sel "e3" then Experiments.e3 ();
        if sel "e4" then Experiments.e4 ();
        if sel "e5" then Experiments.e5 ();
        if sel "e7" then Experiments.e7 ~jobs ();
        if sel "e8" then Experiments.e8 ();
        write_reports reports ~meta:(profile_meta ~command:"experiment" ~objname:"e2" ~jobs ());
        0
  in
  Cmd.v
    (Cmd.info "experiment" ~exits:verdict_exits
       ~doc:"Regenerate experiment tables E1-E5, E7, E8 (see EXPERIMENTS.md).")
    Term.(const run $ which $ quick $ witness_dir $ jobs_arg $ reports_arg)

let check_cmd =
  let max_nodes =
    Arg.(value & opt int 2_000_000 & info [ "max-nodes" ] ~doc:"Node budget for the game.")
  in
  let max_depth =
    Arg.(value & opt (some int) None & info [ "max-depth" ] ~doc:"Truncate the execution tree.")
  in
  let budget_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-ms" ]
          ~doc:
            "Degrade gracefully after $(docv) milliseconds of exploration: report an \
             inconclusive verdict with partial statistics and exit 2."
          ~docv:"MS")
  in
  let budget_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-mb" ]
          ~doc:
            "Degrade gracefully when the OCaml heap exceeds $(docv) MB: report an inconclusive \
             verdict with partial statistics and exit 2."
          ~docv:"MB")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print exploration statistics (nodes, nodes/s, frontier depth, killed \
             linearizations), aggregated simulator metrics, and the summaries of the \
             $(b,--profile-out) and $(b,--coverage-out) reports; emit a progress heartbeat \
             on stderr during long checks.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Write stats and verdict as JSON Lines to $(docv).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event file of the exploration to $(docv), with one lane \
             per domain when $(b,--profile-out) is given (open at ui.perfetto.dev).")
  in
  let witness_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-out" ] ~docv:"FILE"
          ~doc:
            "On a refutation, extract a self-certifying counterexample, shrink it, and write \
             it as a slin-witness/v1 JSON artifact to $(docv); replay it later with $(b,slin \
             explain).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Skip witness minimization: write the certificate exactly as extracted.")
  in
  let steal_grain =
    Arg.(
      value & opt int 4
      & info [ "steal-grain" ] ~docv:"D"
          ~doc:
            "Work-stealing split depth: with 2+ effective domains, nodes at depth <= $(docv) \
             fork their children as stealable tasks ($(docv)=0 restricts stealing to whole \
             top-level subtrees).  Results are identical for every value.")
  in
  let reduce =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:
            "Enable dependency-aware partial-order reduction in the strong-linearizability \
             game: schedule prefixes that differ only by swapping adjacent commuting \
             base-object accesses (distinct objects, or read-like pairs on the same object) \
             share one subtree exploration via a candidate-survival memo.  The verdict and \
             witness are identical to an unreduced run; only the node count shrinks.")
  in
  let reduce_check =
    Arg.(
      value & flag
      & info [ "reduce-check" ]
          ~doc:
            "Debug mode implying $(b,--reduce): every memo hit additionally re-explores the \
             subtree and verifies the stored answer matches, i.e. cross-validates that \
             commutation-equivalent prefixes really have isomorphic subtrees.  Costs at \
             least as much as an unreduced run.")
  in
  let preempt_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "preempt-bound" ] ~docv:"N"
          ~doc:
            "Only explore schedules with at most $(docv) preemptions (context switches away \
             from a still-enabled process).  Refutations found under the bound are sound; a \
             strong-linearizability success that pruned any schedule degrades to an \
             inconclusive $(i,preempt_bound) verdict.  Composes with $(b,--reduce) and the \
             node/time/heap budgets.")
  in
  let checkpoint_stride =
    Arg.(
      value & opt int 16
      & info [ "checkpoint-stride" ] ~docv:"K"
          ~doc:
            "Anchor interval of the incremental engine: every explored node whose depth is a \
             multiple of $(docv) is re-derived from a full replay and compared against the \
             incrementally maintained state ($(docv)=1 checks every node).  Results are \
             identical for every value.")
  in
  let checkpoint_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-out" ] ~docv:"FILE"
          ~doc:
            "Write a slin-checkpoint/v1 snapshot of the exploration to $(docv) (atomically, \
             after every completed column), so a budget-limited, killed or crashed run can \
             be continued with $(b,--resume).  A resumed run provably reaches the verdict \
             an uninterrupted one would.")
  in
  let resume =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a slin-checkpoint/v1 file written by $(b,--checkpoint-out): \
             completed columns are replayed from the snapshot, only the rest is explored.  \
             The checkpoint's object, depth bound and engine fingerprint must match this \
             invocation; its content digest is verified.")
  in
  Cmd.v
    (Cmd.info "check" ~exits:verdict_exits
       ~doc:"Run the linearizability checks and the strong-linearizability game on OBJECT.")
    Term.(
      const run_check $ object_arg $ max_nodes $ max_depth $ budget_ms $ budget_mb $ stats
      $ json_out $ trace_out $ witness_out $ no_shrink $ jobs_arg $ steal_grain $ reduce
      $ reduce_check $ preempt_bound $ checkpoint_stride $ reports_arg $ checkpoint_out $ resume)

let explain_cmd =
  let witness =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WITNESS.json")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"BASE"
          ~doc:
            "Write one Chrome trace-event file per future, $(docv).fN.json (open at \
             ui.perfetto.dev).")
  in
  Cmd.v
    (Cmd.info "explain" ~exits:verdict_exits
       ~doc:
        "Replay a slin-witness/v1 artifact: re-run its schedules under the simulator, verify \
         the recorded refutation reproduces, and render a side-by-side timeline of the \
         diverging futures.")
    Term.(const run_explain $ witness $ trace_out)

let fuzz_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master seed; the whole campaign is \
                                                           a pure function of it.") in
  let runs = Arg.(value & opt int 500 & info [ "runs" ] ~doc:"Random schedules to run.") in
  let no_crash =
    Arg.(value & flag & info [ "no-crash" ] ~doc:"Disable crash injection (schedules only).")
  in
  let max_steps =
    Arg.(value & opt int 2048 & info [ "max-steps" ] ~doc:"Step cap per schedule.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report the violating schedule exactly as executed.")
  in
  let witness_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-out" ] ~docv:"FILE"
          ~doc:
            "On a violation, write the shrunk certificate as a slin-witness/v1 JSON artifact \
             to $(docv); replay it later with $(b,slin explain).")
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:verdict_exits
       ~doc:
         "Fuzz OBJECT with seeded random schedules and crash injection: every trace is \
          checked for linearizability, and the first violation is shrunk into a replayable \
          witness.")
    Term.(
      const run_fuzz $ object_arg $ seed $ runs $ no_crash $ max_steps $ no_shrink
      $ witness_out $ jobs_arg $ reports_arg)

let progress_cmd =
  let max_nodes =
    Arg.(
      value & opt int 2_000_000 & info [ "max-nodes" ] ~doc:"Node budget for the tree walk.")
  in
  let max_depth =
    Arg.(value & opt (some int) None & info [ "max-depth" ] ~doc:"Truncate the schedule tree.")
  in
  let witness_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-out" ] ~docv:"FILE"
          ~doc:
            "If a livelock lasso is found, write its certificate as a slin-witness/v1 JSON \
             artifact to $(docv).")
  in
  Cmd.v
    (Cmd.info "progress" ~exits:verdict_exits
       ~doc:
         "Verify progress properties of OBJECT mechanically: an exhaustive worst-case \
          steps-per-operation bound over every schedule (wait-freedom), and a lasso search \
          for livelocks (lock-freedom refutation).")
    Term.(const run_progress $ object_arg $ max_nodes $ max_depth $ witness_out)

let agree_cmd =
  let trials = Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Random schedules to run.") in
  let crash_prob =
    Arg.(value & opt float 0.0 & info [ "crash-prob" ] ~doc:"Probability of crashing a process.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "agree" ~doc:"Run Algorithm B (Lemma 12) k-set agreement on OBJECT.")
    Term.(const run_agree $ object_arg $ trials $ crash_prob $ seed)

let trace_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the execution as a Chrome trace-event file to $(docv) (open at \
             ui.perfetto.dev).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print one random execution trace of OBJECT's standard workload.")
    Term.(const run_trace $ object_arg $ seed $ trace_out)

let stats_cmd =
  let diff_cmd =
    let old_f = Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json") in
    let new_f = Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json") in
    let fail_on =
      Arg.(
        value
        & opt (some float) None
        & info [ "fail-on-regress" ] ~docv:"PCT"
            ~doc:
              "Exit 1 if any directional metric worsened by more than $(docv) percent, or if \
               a row present in OLD.json is missing from NEW.json.  Without this flag the \
               diff is informational and always exits 0.")
    in
    Cmd.v
      (Cmd.info "diff"
         ~exits:
           [
             Cmd.Exit.info 0 ~doc:"reports compared; no gated regression.";
             Cmd.Exit.info 1 ~doc:"$(b,--fail-on-regress) was given and a regression exceeded \
                                   the threshold (or a row vanished).";
             Cmd.Exit.info 2 ~doc:"unreadable file, malformed report, or mismatched schemas.";
           ]
         ~doc:
           "Compare two versioned reports of the same schema (slin-profile/v1 or \
            slin-coverage/v1) field-by-field: throughput, utilization and the \
            unique-world ratio regress downward, one-worker discarded_nodes regresses \
            upward, neutral counters are reported but never gated.")
      Term.(const run_stats_diff $ old_f $ new_f $ fail_on)
  in
  Cmd.group
    (Cmd.info "stats"
       ~doc:
         "Tools over versioned reports (slin-profile/v1, slin-coverage/v1).")
    [ diff_cmd ]

let () =
  let doc = "strongly-linearizable objects from consensus-number-2 primitives" in
  let info = Cmd.info "slin" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        experiment_cmd;
        check_cmd;
        explain_cmd;
        fuzz_cmd;
        progress_cmd;
        agree_cmd;
        trace_cmd;
        stats_cmd;
      ]
  in
  (* All usage and internal errors land on 2, leaving 0/1 to carry the
     verdict (see EXIT STATUS in the subcommand man pages). *)
  exit (match Cmd.eval_value group with Ok (`Ok code) -> code | Ok (`Help | `Version) -> 0 | Error _ -> 2)
