(* Tests for the simulator, solo and parallel runtimes.

   The op/resp types for trace events are strings throughout: these tests
   exercise the machinery, not a particular object. *)

let ev = Alcotest.of_pp (Trace.pp_event Format.pp_print_string Format.pp_print_string)

(* A two-process read-then-write race on one register: the classic lost
   update.  Each process reads the register, then writes read+1. *)
let race_program () : (string, string) Sim.program =
  {
    procs = 2;
    boot =
      (fun w ->
        let module R = (val Sim.runtime w) in
        let r = R.obj ~name:"r" 0 in
        for p = 0 to 1 do
          Sim.spawn w ~proc:p (fun () ->
              ignore
                (Sim.operation w ~op:"inc" ~resp:string_of_int (fun () ->
                     let v = R.read r in
                     R.access r (fun _ -> (v + 1, v + 1)))))
        done);
  }

(* Final register value for a given schedule of the race program. *)
let race_result schedule =
  let w = Sim.run_schedule (race_program ()) schedule in
  let returns =
    List.filter_map
      (function Trace.Return { resp; _ } -> Some resp | _ -> None)
      (Sim.trace w)
  in
  returns

let test_determinism () =
  let s = [ 0; 1; 0; 1; 0; 1 ] in
  let t1 = Sim.trace (Sim.run_schedule (race_program ()) s) in
  let t2 = Sim.trace (Sim.run_schedule (race_program ()) s) in
  Alcotest.(check (list ev)) "same schedule, same trace" t1 t2

let test_sequential_schedule () =
  (* p0 runs to completion, then p1: no lost update. *)
  Alcotest.(check (list string)) "sequential" [ "1"; "2" ] (race_result [ 0; 0; 0; 1; 1; 1 ])

let test_racy_schedule () =
  (* Both read before either writes: both return 1 (lost update). *)
  Alcotest.(check (list string)) "interleaved" [ "1"; "1" ] (race_result [ 0; 1; 0; 1; 0; 1 ])

let test_step_counts () =
  let w = Sim.run_to_completion (race_program ()) in
  (* Each process: 1 boot resume + 2 accesses = 3 steps. *)
  Alcotest.(check int) "p0 steps" 3 (Sim.steps_of w 0);
  Alcotest.(check int) "p1 steps" 3 (Sim.steps_of w 1);
  Alcotest.(check bool) "p0 finished" true (Sim.finished w 0);
  Alcotest.(check (list int)) "none enabled" [] (Sim.enabled w)

let test_trace_shape () =
  let w = Sim.run_schedule (race_program ()) [ 0; 0; 0 ] in
  match Sim.trace w with
  | [ Trace.Invoke { proc = 0; op = "inc" }; Step _; Step _; Return { proc = 0; resp = "1" } ]
    ->
      ()
  | t ->
      Alcotest.failf "unexpected trace:@.%a"
        (Trace.pp Format.pp_print_string Format.pp_print_string)
        t

let test_invoke_before_first_step () =
  (* The first resume records the invocation and suspends at the first
     access without applying it. *)
  let w = Sim.run_schedule (race_program ()) [ 0 ] in
  (match Sim.trace w with
  | [ Trace.Invoke { proc = 0; _ } ] -> ()
  | t ->
      Alcotest.failf "unexpected trace:@.%a"
        (Trace.pp Format.pp_print_string Format.pp_print_string)
        t);
  Alcotest.(check (list int)) "both still enabled" [ 0; 1 ] (Sim.enabled w)

let test_crash () =
  let prog = race_program () in
  let w = Sim.run_schedule prog [ 0; 1 ] in
  Sim.crash w 0;
  Alcotest.(check (list int)) "only p1 left" [ 1 ] (Sim.enabled w);
  Alcotest.check_raises "stepping crashed proc" (Sim.Invalid_schedule "p0 crashed") (fun () ->
      Sim.step w 0);
  (* p1 can still finish; p0's operation stays pending. *)
  while Sim.enabled w <> [] do
    Sim.step w 1
  done;
  let returns =
    List.filter_map (function Trace.Return { proc; _ } -> Some proc | _ -> None) (Sim.trace w)
  in
  Alcotest.(check (list int)) "only p1 returned" [ 1 ] returns

let test_invalid_schedule () =
  let w = Sim.run_to_completion (race_program ()) in
  Alcotest.check_raises "finished" (Sim.Invalid_schedule "p0 already finished") (fun () ->
      Sim.step w 0);
  Alcotest.check_raises "out of range" (Sim.Invalid_schedule "p7 out of range") (fun () ->
      Sim.step w 7)

let test_spawn_errors () =
  let w = Sim.create ~n:1 in
  Sim.spawn w ~proc:0 (fun () -> ());
  Alcotest.check_raises "double spawn" (Invalid_argument "Sim.spawn: process already has a body")
    (fun () -> Sim.spawn w ~proc:0 (fun () -> ()));
  Alcotest.check_raises "out of range" (Invalid_argument "Sim.spawn: process out of range")
    (fun () -> Sim.spawn w ~proc:3 (fun () -> ()))

let test_run_random_deterministic () =
  let t1 = Sim.trace (Sim.run_random ~seed:42 (race_program ())) in
  let t2 = Sim.trace (Sim.run_random ~seed:42 (race_program ())) in
  Alcotest.(check (list ev)) "same seed, same trace" t1 t2

let test_run_random_crash () =
  (* Crash p0 immediately: only p1's operation completes. *)
  let w = Sim.run_random ~seed:1 ~crash_after:[ (0, 0) ] (race_program ()) in
  let returns =
    List.filter_map (function Trace.Return { proc; _ } -> Some proc | _ -> None) (Sim.trace w)
  in
  Alcotest.(check (list int)) "only p1 returned" [ 1 ] returns

let test_crash_idempotent () =
  (* A second crash of the same process, or a crash of a finished one,
     is a no-op — not an error, not a second fault. *)
  let w = Sim.run_schedule (race_program ()) [ 0 ] in
  Sim.crash w 0;
  Sim.crash w 0;
  Alcotest.(check (list int)) "p1 still enabled" [ 1 ] (Sim.enabled w);
  while Sim.enabled w <> [] do
    Sim.step w 1
  done;
  Sim.crash w 1;
  Alcotest.(check bool) "p1 stays finished, not crashed" true (Sim.finished w 1)

let test_crash_after_semantics () =
  (* [(p, at)] crashes p at the top of the scheduling loop once the
     TOTAL step count has reached [at] — before step at+1 is chosen.
     [(p, 0)] therefore means p never takes a step.  Pinned here with a
     fully deterministic plan: p0 can never run, and p1 crashes right
     after the first step, whatever the seed picks. *)
  let w, sched =
    Sim.run_random_full ~seed:99 ~crash_after:[ (0, 0); (1, 1) ] (race_program ())
  in
  Alcotest.(check (list int)) "exactly one step, by p1" [ 1 ] sched;
  (match Sim.trace w with
  | [ Trace.Invoke { proc = 1; _ } ] -> ()
  | t ->
      Alcotest.failf "unexpected trace:@.%a"
        (Trace.pp Format.pp_print_string Format.pp_print_string)
        t);
  Alcotest.(check (list int)) "nobody left enabled" [] (Sim.enabled w)

(* [release] unwinds the suspended fibers of a world that will not be
   stepped again (freeing their stacks): they stop being enabled, the
   trace gets no event, and releasing twice changes nothing. *)
let test_release () =
  let w = Sim.run_schedule (race_program ()) [ 0; 1; 0 ] in
  let before = Sim.trace w in
  Alcotest.(check (list int)) "both suspended" [ 0; 1 ] (Sim.enabled w);
  Sim.release w;
  Alcotest.(check (list int)) "nobody enabled" [] (Sim.enabled w);
  Alcotest.check_raises "stepping a released proc" (Sim.Invalid_schedule "p0 released")
    (fun () -> Sim.step w 0);
  Alcotest.(check (list ev)) "trace unchanged" before (Sim.trace w);
  Sim.release w;
  Alcotest.(check (list int)) "second release: still nobody" [] (Sim.enabled w);
  Alcotest.(check (list ev)) "second release: trace unchanged" before (Sim.trace w);
  Alcotest.(check bool) "released is not finished" false (Sim.finished w 0)

(* The fiber really is unwound, not just dropped: a handler in the
   process body runs, outside any step. *)
let test_release_unwinds () =
  let unwound = ref false in
  let prog : (string, string) Sim.program =
    {
      procs = 1;
      boot =
        (fun w ->
          let module R = (val Sim.runtime w) in
          let r = R.obj 0 in
          Sim.spawn w ~proc:0 (fun () ->
              Fun.protect ~finally:(fun () -> unwound := true) (fun () -> ignore (R.read r))));
    }
  in
  let w = Sim.run_schedule prog [ 0 ] in
  Alcotest.(check bool) "suspended at the read" false !unwound;
  Sim.release w;
  Alcotest.(check bool) "unwound by release" true !unwound;
  Alcotest.(check int) "no event recorded" 0 (Sim.trace_len w)

(* A crash unwinds a suspended fiber too, so a crashed process holds no
   stack that a later release would have to free. *)
let test_crash_unwinds () =
  let unwound = ref false in
  let prog : (string, string) Sim.program =
    {
      procs = 1;
      boot =
        (fun w ->
          let module R = (val Sim.runtime w) in
          let r = R.obj 0 in
          Sim.spawn w ~proc:0 (fun () ->
              Fun.protect ~finally:(fun () -> unwound := true) (fun () -> ignore (R.read r))));
    }
  in
  let w = Sim.run_schedule prog [ 0 ] in
  Sim.crash w 0;
  Alcotest.(check bool) "unwound by crash" true !unwound;
  Alcotest.(check int) "no event recorded" 0 (Sim.trace_len w);
  Alcotest.check_raises "stepping a crashed proc" (Sim.Invalid_schedule "p0 crashed")
    (fun () -> Sim.step w 0);
  Sim.release w;
  Alcotest.(check (list int)) "crashed then released: nobody enabled" [] (Sim.enabled w);
  Alcotest.check_raises "release keeps the crash" (Sim.Invalid_schedule "p0 crashed")
    (fun () -> Sim.step w 0)

(* Unstarted and finished fibers hold no stack: release leaves them as
   they are. *)
let test_release_unstarted_finished () =
  let w = Sim.run_schedule (race_program ()) [ 0; 0; 0 ] in
  let before = Sim.trace w in
  Sim.release w;
  Alcotest.(check bool) "p0 still finished" true (Sim.finished w 0);
  Alcotest.(check (list int)) "unstarted p1 still enabled" [ 1 ] (Sim.enabled w);
  Alcotest.(check (list ev)) "trace unchanged" before (Sim.trace w);
  while Sim.enabled w <> [] do
    Sim.step w 1
  done;
  Alcotest.(check (list ev)) "p1 runs as without a release"
    (Sim.trace (Sim.run_schedule (race_program ()) [ 0; 0; 0; 1; 1; 1 ]))
    (Sim.trace w)

let test_run_random_full_consistency () =
  (* run_random is fst of run_random_full (same RNG stream), and the
     returned schedule replays the identical trace on its own — crashes
     only remove future steps, so no crash replay support is needed. *)
  List.iter
    (fun crash_after ->
      let w, sched = Sim.run_random_full ~seed:5 ~crash_after (race_program ()) in
      let t = Sim.trace w in
      Alcotest.(check (list ev))
        "run_random agrees" t
        (Sim.trace (Sim.run_random ~seed:5 ~crash_after (race_program ())));
      Alcotest.(check (list ev))
        "schedule alone replays the trace" t
        (Sim.trace (Sim.run_schedule (race_program ()) sched)))
    [ []; [ (0, 2) ]; [ (1, 0) ]; [ (0, 1); (1, 3) ] ]

let test_solo_runtime () =
  let module R = (val Solo_runtime.make ~self:3 ~n:8 ()) in
  let o = R.obj 10 in
  Alcotest.(check int) "read" 10 (R.read o);
  Alcotest.(check int) "rmw result" 10 (R.access o (fun s -> (s + 1, s)));
  Alcotest.(check int) "state updated" 11 (R.read o);
  Alcotest.(check int) "self" 3 (R.self ());
  Alcotest.(check int) "n" 8 (R.n_procs ())

let test_par_runtime () =
  let n = 4 and per = 1000 in
  let module R = (val Par_runtime.make ~n ()) in
  let counter = R.obj 0 in
  let selves =
    Par_runtime.run ~n (fun _ ->
        for _ = 1 to per do
          ignore (R.access counter (fun s -> (s + 1, s)))
        done;
        R.self ())
  in
  Alcotest.(check int) "no lost increments" (n * per) (R.read counter);
  Alcotest.(check (list int)) "distinct selves" [ 0; 1; 2; 3 ]
    (List.sort compare (Array.to_list selves))

(* Property: for every schedule of the race program that completes both
   operations, the final value is 1 or 2, and it is 2 iff no lost update
   (the two operations do not overlap at their access points). *)
let prop_race_outcomes =
  let gen = QCheck.Gen.(list_size (int_bound 20) (int_bound 1)) in
  let arb = QCheck.make ~print:(fun l -> String.concat "" (List.map string_of_int l)) gen in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"race outcomes are 1 or 2" ~count:300 arb (fun choices ->
         (* Interpret the random bits as a schedule, skipping disabled procs. *)
         let w = Sim.create ~n:2 in
         (race_program ()).boot w;
         List.iter
           (fun p -> match Sim.enabled w with [] -> () | en -> if List.mem p en then Sim.step w p)
           choices;
         (* Finish any stragglers deterministically. *)
         let rec drain () =
           match Sim.enabled w with
           | [] -> ()
           | p :: _ ->
               Sim.step w p;
               drain ()
         in
         drain ();
         let returns =
           List.filter_map
             (function Trace.Return { resp; _ } -> Some (int_of_string resp) | _ -> None)
             (Sim.trace w)
         in
         List.length returns = 2 && List.for_all (fun v -> v = 1 || v = 2) returns))

(* Fused replay.  [Sim.run_schedule] takes a run of consecutive entries
   of one process inside that process's fiber instead of suspending it;
   these properties pin that it is exactly stepping one entry at a time.
   The reference boots its world the way [run_schedule] does (one
   [world.boot]) and then calls [Sim.step] once per entry. *)
let stepwise prog schedule =
  let w = Sim.run_schedule prog [] in
  List.iter (Sim.step w) schedule;
  w

(* The pre-fusion [run_schedule_result]: the entry that failed, counted
   from 0, with the step's own message. *)
let stepwise_result (prog : _ Sim.program) schedule =
  let w = Sim.create ~n:prog.procs in
  prog.boot w;
  let rec go i = function
    | [] -> Ok w
    | p :: rest -> (
        match Sim.step w p with
        | () -> go (i + 1) rest
        | exception Sim.Invalid_schedule msg ->
            Error (Printf.sprintf "step %d (process %d): %s" i p msg))
  in
  go 0 schedule

(* Run [f] with [Sim.Metrics] on and return its result with the counts. *)
let with_metrics f =
  Sim.Metrics.reset ();
  Sim.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Sim.Metrics.enabled := false;
      Sim.Metrics.reset ())
    (fun () ->
      let r = f () in
      (r, Sim.Metrics.snapshot ()))

let registry = Array.of_list Registry.all

(* A valid schedule of [prog] from random draws: an even draw repeats
   the previous process while it is enabled (so fused runs are common),
   any other draw picks among the enabled processes. *)
let valid_schedule (prog : _ Sim.program) draws =
  let w = Sim.create ~n:prog.procs in
  prog.boot w;
  let rec go last acc = function
    | [] -> List.rev acc
    | d :: rest -> (
        match Sim.enabled w with
        | [] -> List.rev acc
        | en ->
            let p =
              if d mod 2 = 0 && List.mem last en then last
              else List.nth en (d / 2 mod List.length en)
            in
            Sim.step w p;
            go p (p :: acc) rest)
  in
  let s = go (-1) [] draws in
  Sim.release w;
  s

let registry_arb =
  QCheck.make
    ~print:(fun (i, draws) ->
      Printf.sprintf "%s %s" (fst registry.(i)) (String.concat "," (List.map string_of_int draws)))
    QCheck.Gen.(pair (int_bound (Array.length registry - 1)) (list_size (int_bound 80) nat))

let prop_fused_equals_stepwise =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fused replay = stepwise replay (registry)" ~count:300 registry_arb
       (fun (i, draws) ->
         let (Registry.Checkable c) = snd registry.(i) in
         let prog = Harness.program ~make:c.make ~workload:c.workload in
         let schedule = valid_schedule prog draws in
         let fused, m_fused = with_metrics (fun () -> Sim.run_schedule prog schedule) in
         let reference, m_step = with_metrics (fun () -> stepwise prog schedule) in
         let same =
           Sim.trace fused = Sim.trace reference
           && Sim.enabled fused = Sim.enabled reference
           && List.for_all
                (fun p -> Sim.steps_of fused p = Sim.steps_of reference p)
                (List.init prog.procs Fun.id)
           && m_fused = m_step
         in
         Sim.release fused;
         Sim.release reference;
         same))

(* Arbitrary entries, out-of-range ones included: [run_schedule_result]
   fails at the same entry with the same message, or succeeds with the
   same trace. *)
let prop_result_errors_stepwise =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"run_schedule_result errors = stepwise" ~count:300 registry_arb
       (fun (i, draws) ->
         let (Registry.Checkable c) = snd registry.(i) in
         let prog = Harness.program ~make:c.make ~workload:c.workload in
         (* Mostly valid prefixes, then arbitrary processes in [-1, n]. *)
         let prefix = valid_schedule prog draws in
         let tail = List.map (fun d -> (d mod (prog.procs + 2)) - 1) draws in
         let schedule = prefix @ tail in
         let release = function Ok w -> Sim.release w | Error _ -> () in
         let a = Sim.run_schedule_result prog schedule in
         let b = stepwise_result prog schedule in
         let same =
           match (a, b) with
           | Ok wa, Ok wb -> Sim.trace wa = Sim.trace wb
           | Error ea, Error eb -> ea = eb
           | _ -> false
         in
         release a;
         release b;
         same))

(* Three processes on a 2-process test&set: p2's test&set raises inside
   its access, in the middle of a fused run (p2 is scheduled twice in a
   row, with p1's steps still planned behind it).  The world left behind
   must be the one step-by-step replay leaves, and its next step must be
   a plain single step (no leftover plan fuses it). *)
let tas_limit_program () : (string, string) Sim.program =
  {
    procs = 3;
    boot =
      (fun w ->
        let module R = (val Sim.runtime w) in
        let module P = Prim.Make (R) in
        let ts = P.Test_and_set.make ~name:"ts" ~procs:2 () in
        let r = P.Register.make ~name:"r" 0 in
        for p = 0 to 2 do
          Sim.spawn w ~proc:p (fun () ->
              ignore
                (Sim.operation w ~op:"tas" ~resp:string_of_int (fun () ->
                     P.Test_and_set.test_and_set ts));
              for k = 1 to 3 do
                Sim.operation w ~op:"write" ~resp:(fun () -> "ok") (fun () ->
                    P.Register.write r k)
              done)
        done);
  }

let test_fused_raise () =
  let schedule = [ 0; 1; 0; 1; 2; 2; 1; 1; 1 ] in
  let raised run =
    match run () with
    | (_ : (string, string) Sim.t) -> Alcotest.fail "the third test&set user must raise"
    | exception Invalid_argument _ -> ()
  in
  (* The raising world is only reachable through the replay itself, so
     capture it from the program's boot. *)
  let capture () =
    let cell = ref None in
    let prog = tas_limit_program () in
    ({ prog with boot = (fun w -> cell := Some w; prog.boot w) }, cell)
  in
  let fused_prog, fused_w = capture () in
  raised (fun () -> Sim.run_schedule fused_prog schedule);
  let step_prog, step_w = capture () in
  raised (fun () -> stepwise step_prog schedule);
  let fw = Option.get !fused_w and sw = Option.get !step_w in
  let observe w = (Sim.trace w, Sim.enabled w, List.init 3 (Sim.steps_of w)) in
  let obs = Alcotest.(triple (list ev) (list int) (list int)) in
  Alcotest.check obs "world after the raise" (observe sw) (observe fw);
  Alcotest.check_raises "the raising process" (Sim.Invalid_schedule "p2 re-entered") (fun () ->
      Sim.step fw 2);
  Sim.step sw 1;
  Sim.step fw 1;
  Alcotest.check obs "one plain step of p1" (observe sw) (observe fw);
  Alcotest.(check int) "p1 took exactly one more step" 3 (Sim.steps_of fw 1)

(* ---------------- response automata ---------------- *)

(* A world stepped through a shared response automaton must be the
   private world the same actions build: the same outcome (or exception)
   per action, trace, enabled set, step counts, finished processes and
   metrics, [automaton.miss] aside.  Each case runs several action lists
   through one automaton, so later lists follow edges earlier ones
   filled, and live drivers are met at stale positions. *)

type action = Step of int | Crash of int | Release

(* Mostly valid actions from random draws (about one in nine a crash of
   an enabled process), then a short tail of arbitrary ones, which may
   name finished, crashed or out-of-range processes. *)
let random_actions (prog : _ Sim.program) draws =
  let w = Sim.create ~n:prog.procs in
  prog.boot w;
  let rec go last acc = function
    | [] -> List.rev acc
    | d :: rest -> (
        match Sim.enabled w with
        | [] -> List.rev acc
        | en ->
            let pick k = List.nth en (k mod List.length en) in
            if d mod 9 = 8 then begin
              let p = pick (d / 9) in
              Sim.crash w p;
              go last (Crash p :: acc) rest
            end
            else
              let p = if d mod 2 = 0 && List.mem last en then last else pick (d / 2) in
              match Sim.step w p with
              | () -> go p (Step p :: acc) rest
              | exception _ -> List.rev (Step p :: acc))
  in
  let valid = go (-1) [] draws in
  Sim.release w;
  let tail =
    List.filteri (fun i _ -> i < 4) draws
    |> List.map (fun d ->
           let p = d / 2 mod (prog.procs + 1) in
           if d mod 5 = 4 then Crash p else if d mod 7 = 6 then Release else Step p)
  in
  valid @ tail

let apply_action w a =
  match
    match a with Step p -> Sim.step w p | Crash p -> Sim.crash w p | Release -> Sim.release w
  with
  | () -> "ok"
  | exception e -> Printexc.to_string e

let observe_world (w : (_, _) Sim.t) =
  let n = Sim.n w in
  ( Sim.trace w,
    Sim.enabled w,
    List.init n (Sim.steps_of w),
    List.init n (Sim.finished w) )

let without_misses = List.filter (fun (k, _) -> k <> "automaton.miss")

(* Private and cached runs of each action list agree; the automaton's
   drivers are dropped after the first list, so the next list follows
   edges whose drivers were released, and the automaton is dropped
   afterwards and leaves no driver fiber behind. *)
let cached_agrees (prog : _ Sim.program) action_lists =
  let auto = Sim.automaton prog in
  let agree actions =
    let (po, pw), pm =
      with_metrics (fun () ->
          let w = Sim.run_schedule prog [] in
          (List.map (apply_action w) actions, w))
    in
    let (co, cw), cm =
      with_metrics (fun () ->
          let w = Sim.boot_cached auto in
          (List.map (apply_action w) actions, w))
    in
    let same =
      po = co && observe_world pw = observe_world cw && without_misses pm = without_misses cm
    in
    Sim.release pw;
    Sim.release cw;
    same
  in
  let ok =
    Fun.protect
      ~finally:(fun () -> Sim.drop auto)
      (fun () ->
        match action_lists with
        | [] -> true
        | first :: rest ->
            let ok = agree first in
            Sim.drop auto;
            ok && List.for_all agree rest)
  in
  ok && Sim.live_drivers () = 0

let lists_gen n_lists = QCheck.Gen.(list_repeat n_lists (list_size (int_bound 60) nat))

let print_lists lists =
  String.concat " | " (List.map (fun l -> String.concat "," (List.map string_of_int l)) lists)

let prop_cached_registry =
  let arb =
    QCheck.make
      ~print:(fun (i, lists) -> fst registry.(i) ^ " " ^ print_lists lists)
      QCheck.Gen.(pair (int_bound (Array.length registry - 1)) (lists_gen 3))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cached world = private world (registry, crashes)" ~count:300 arb
       (fun (i, lists) ->
         let (Registry.Checkable c) = snd registry.(i) in
         let prog = Harness.program ~make:c.make ~workload:c.workload in
         cached_agrees prog (List.map (random_actions prog) lists)))

(* A lookup whose result depends on the interleaving: p0 publishes a
   value chosen by p2's write, and p1 looks the key up before and after
   reading p0's flag.  A position reached with one lookup result must not
   answer for another. *)
let memory_probe_program () : (string, string) Sim.program =
  {
    procs = 3;
    boot =
      (fun w ->
        let module R = (val Sim.runtime w) in
        let m = R.memory () in
        let flag = R.obj ~name:"flag" 0 and choice = R.obj ~name:"choice" 0 in
        let look () = try R.lookup m 1 with Not_found -> "none" in
        Sim.spawn w ~proc:0 (fun () ->
            Sim.operation w ~op:"pub" ~resp:Fun.id (fun () ->
                let c = R.read choice in
                R.publish m 1 (if c = 0 then "zero" else "one");
                R.access flag (fun _ -> (1, ()));
                "ok")
            |> ignore);
        Sim.spawn w ~proc:1 (fun () ->
            Sim.operation w ~op:"get" ~resp:Fun.id (fun () ->
                let before = look () in
                ignore (R.read flag);
                before ^ "/" ^ look ())
            |> ignore);
        Sim.spawn w ~proc:2 (fun () ->
            Sim.operation w ~op:"choose" ~resp:Fun.id (fun () ->
                R.access choice (fun _ -> (1, ()));
                "ok")
            |> ignore));
  }

(* The simple-type objects keep their node table in the runtime's
   write-once memory: lookups join the automaton position. *)
let memory_programs =
  let agrees prog lists = cached_agrees prog (List.map (random_actions prog) lists) in
  [|
    ("probe", agrees (memory_probe_program ()));
    ( "counter",
      agrees
        (Harness.program ~make:Executors.simple_counter
           ~workload:
             [|
               [ Spec.Counter.Add 1; Spec.Counter.Read ];
               [ Spec.Counter.Add 2; Spec.Counter.Read ];
               [ Spec.Counter.Read; Spec.Counter.Add 3 ];
             |]) );
    ( "union-set",
      let open Simple_instances.Union_set_type in
      agrees
        (Harness.program ~make:Executors.union_set
           ~workload:
             [| [ Insert 1; Contains 2 ]; [ Insert 2; Contains 1 ]; [ Contains 1; Insert 1 ] |]) );
  |]

let prop_cached_memory =
  let arb =
    QCheck.make
      ~print:(fun (i, lists) -> fst memory_programs.(i) ^ " " ^ print_lists lists)
      QCheck.Gen.(pair (int_bound (Array.length memory_programs - 1)) (lists_gen 4))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cached world = private world (write-once memory)" ~count:200 arb
       (fun (i, lists) -> snd memory_programs.(i) lists))

(* Where and what a step raises: the third process on the 2-process
   test&set raises inside its access, in the cached world as in the
   private one, and the process is left re-entered. *)
let prop_cached_raise =
  let arb = QCheck.make ~print:print_lists (lists_gen 3) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cached world = private world (raising access)" ~count:200 arb
       (fun lists ->
         let prog = tas_limit_program () in
         (* Arbitrary processes, so the raising schedules are common. *)
         let actions l =
           List.map
             (fun d ->
               if d mod 11 = 10 then Crash (d mod 3)
               else if d mod 29 = 28 then Release
               else Step (d mod 3))
             l
         in
         cached_agrees prog (List.map actions lists)))

(* A cached world copied mid-run is a world of its own: the original and
   the copy go on with different action suffixes (the copy only once the
   original has taken all of its own), and each must equal the private
   world that replays its whole list.  Each must also pass [Sim.audit],
   which replays the log the two share up to the copy, unless an action
   released it (a private replay does not release). *)
let copy_agrees (prog : _ Sim.program) (pre, da, db) =
  let la = random_actions prog (pre @ da) and lb = random_actions prog (pre @ db) in
  (* The lists agree up to [cut], so either continues the copied world. *)
  let rec common n a b = match (a, b) with x :: a, y :: b when x = y -> common (n + 1) a b | _ -> n in
  let cut = common 0 la lb in
  let prefix = List.filteri (fun i _ -> i < cut) la in
  let rest l = List.filteri (fun i _ -> i >= cut) l in
  let auto = Sim.automaton prog in
  let ok =
    Fun.protect
      ~finally:(fun () -> Sim.drop auto)
      (fun () ->
        let w = Sim.boot_cached auto in
        let before = List.map (apply_action w) prefix in
        let c = Sim.copy w in
        let oa = before @ List.map (apply_action w) (rest la) in
        let ob = before @ List.map (apply_action c) (rest lb) in
        let replays actions outcomes cw =
          let pw = Sim.run_schedule prog [] in
          let expected = List.map (apply_action pw) actions in
          let same = expected = outcomes && observe_world pw = observe_world cw in
          Sim.release pw;
          same
          && (List.mem Release actions
             || match Sim.audit cw with () -> true | exception Sim.Nondeterministic _ -> false)
        in
        let ok = replays la oa w && replays lb ob c in
        Sim.release w;
        Sim.release c;
        ok)
  in
  ok && Sim.live_drivers () = 0

let copy_programs =
  Array.append
    (Array.map
       (fun (name, Registry.Checkable c) ->
         (name, copy_agrees (Harness.program ~make:c.make ~workload:c.workload)))
       registry)
    [| ("memory probe", copy_agrees (memory_probe_program ())) |]

let prop_copy =
  let draws = QCheck.Gen.(list_size (int_bound 40) nat) in
  let arb =
    QCheck.make
      ~print:(fun (i, (pre, da, db)) -> fst copy_programs.(i) ^ " " ^ print_lists [ pre; da; db ])
      QCheck.Gen.(pair (int_bound (Array.length copy_programs - 1)) (triple draws draws draws))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"copied cached world = private world" ~count:300 arb
       (fun (i, lists) -> snd copy_programs.(i) lists))

let test_copy_private_raises () =
  let w = Sim.run_schedule (race_program ()) [ 0 ] in
  (match Sim.copy w with
  | _ -> Alcotest.fail "a world with fibers cannot be copied"
  | exception Invalid_argument _ -> ());
  Sim.release w

let test_cached_raise_pinned () =
  let prog = tas_limit_program () in
  let actions = List.map (fun p -> Step p) [ 0; 1; 0; 1; 2; 2; 2; 1; 1; 1 ] in
  Alcotest.(check bool) "agrees" true (cached_agrees prog [ actions; actions ]);
  let auto = Sim.automaton prog in
  let w = Sim.boot_cached auto in
  let outcomes = List.map (apply_action w) actions in
  Sim.drop auto;
  Alcotest.(check (list string))
    "outcomes"
    [
      "ok";
      "ok";
      "ok";
      "ok";
      "ok";
      "Invalid_argument(\"Test_and_set: 2-process object used by 3 processes\")";
      Printexc.to_string (Sim.Invalid_schedule "p2 re-entered");
      "ok";
      "ok";
      "ok";
    ]
    outcomes

(* A process that creates an unnamed object inside its program cannot
   be run alone: the driver raises rather than guess its name. *)
let test_cached_unnamed_object () =
  let prog : (string, string) Sim.program =
    {
      procs = 1;
      boot =
        (fun w ->
          let module R = (val Sim.runtime w) in
          Sim.spawn w ~proc:0 (fun () ->
              let o = R.obj 0 in
              ignore (R.read o)));
    }
  in
  let auto = Sim.automaton prog in
  let w = Sim.boot_cached auto in
  (match Sim.step w 0 with
  | () -> Alcotest.fail "an unnamed object created by a driven process must raise"
  | exception Sim.Nondeterministic _ -> ());
  Sim.drop auto;
  Alcotest.(check int) "no driver left" 0 (Sim.live_drivers ())

(* A transition a driver hands over reads [self ()] from the driver's
   world whenever a cached world applies it, also after the driver was
   released.  The multi-writer register's write stores [R.self ()] as
   its tie-break, so on a tie a wrong process id would change a later
   read.  [filler] takes p1 past its write and stops it there (p1's
   driver stays live); [other] sends p1 down another branch, whose miss
   releases that driver; [tie] then replays [filler]'s path through the
   cached write and lets p1 read: p0 wrote (1, 0, 1), p1 (1, 1, 2), so
   the read must return 2. *)
let test_cached_released_self () =
  let prog =
    Harness.program ~make:Executors.mwmr_register
      ~workload:[| [ Spec.Register.Write 1 ]; [ Spec.Register.Write 2; Spec.Register.Read ] |]
  in
  let filler = [ 0; 0; 0; 1; 1; 1; 0; 1 ] in
  let other = [ 0; 0; 0; 0; 1; 1 ] in
  let tie = filler @ [ 1; 1 ] in
  let read_of w =
    List.filter_map
      (function Trace.Return { proc = 1; resp } -> Some resp | _ -> None)
      (Sim.trace w)
  in
  let pw = Sim.run_schedule prog tie in
  Alcotest.(check bool)
    "the private read returns p1's value" true
    (read_of pw = [ Spec.Register.Ack; Spec.Register.Value 2 ]);
  let auto = Sim.automaton prog in
  let run schedule =
    let w = Sim.boot_cached auto in
    List.iter (Sim.step w) schedule;
    w
  in
  Sim.release (run filler);
  Alcotest.(check int) "p1's driver is live" 1 (Sim.live_drivers ());
  Sim.release (run other);
  let cw = run tie in
  Alcotest.(check bool) "cached = private" true (observe_world pw = observe_world cw);
  Sim.release pw;
  Sim.release cw;
  (* [drop] releases every driver and keeps the edges, so [tie] now runs
     on edges whose drivers are all gone. *)
  Sim.drop auto;
  let pw = Sim.run_schedule prog tie and cw = run tie in
  Alcotest.(check bool)
    "cached = private after drop" true
    (observe_world pw = observe_world cw);
  Sim.release pw;
  Sim.release cw;
  Sim.drop auto;
  Alcotest.(check int) "no driver left" 0 (Sim.live_drivers ())

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("sequential schedule", `Quick, test_sequential_schedule);
    ("racy schedule", `Quick, test_racy_schedule);
    ("step counts", `Quick, test_step_counts);
    ("trace shape", `Quick, test_trace_shape);
    ("invoke before first step", `Quick, test_invoke_before_first_step);
    ("crash", `Quick, test_crash);
    ("invalid schedule", `Quick, test_invalid_schedule);
    ("spawn errors", `Quick, test_spawn_errors);
    ("run_random deterministic", `Quick, test_run_random_deterministic);
    ("run_random crash", `Quick, test_run_random_crash);
    ("crash idempotent", `Quick, test_crash_idempotent);
    ("crash_after semantics", `Quick, test_crash_after_semantics);
    ("run_random_full consistency", `Quick, test_run_random_full_consistency);
    ("solo runtime", `Quick, test_solo_runtime);
    ("parallel runtime", `Quick, test_par_runtime);
    prop_race_outcomes;
    ("release", `Quick, test_release);
    ("release unwinds the fiber", `Quick, test_release_unwinds);
    ("release leaves unstarted and finished", `Quick, test_release_unstarted_finished);
    ("crash unwinds the fiber", `Quick, test_crash_unwinds);
    prop_fused_equals_stepwise;
    prop_result_errors_stepwise;
    ("fused run raising", `Quick, test_fused_raise);
    prop_cached_registry;
    prop_cached_memory;
    prop_cached_raise;
    prop_copy;
    ("copy of a private world raises", `Quick, test_copy_private_raises);
    ("cached raise pinned", `Quick, test_cached_raise_pinned);
    ("cached unnamed object", `Quick, test_cached_unnamed_object);
    ("cached transition after its driver's release", `Quick, test_cached_released_self);
  ]

let () = Alcotest.run "runtime" [ ("runtime", suite) ]
