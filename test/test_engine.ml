(* Tests for the multicore checker engine (incremental replay, anchored
   cross-checks, work-stealing subtree solving): the determinism
   contract — verdict, witness and every count identical across [jobs],
   [steal_grain] and [checkpoint_stride] — plus the heartbeat cadence,
   the incremental node evaluation itself, the adversary's crash game,
   the detector at one and two workers, and [Steal_pool]'s shared
   queue. *)

(* [effective_workers] caps [jobs] at the hardware parallelism, so on a
   single-core CI runner every jobs>1 case would silently collapse to
   one worker and test nothing.  Lifting the cap via the env
   override forces real multi-domain runs everywhere. *)
let () = Unix.putenv "SLIN_DOMAIN_CAP" "8"

(* ---------------- engine equivalence over the registry ---------------- *)

(* The deterministic slice of a run: the rendered verdict (so witness
   schedules and node payloads are compared too) and every stats field
   except elapsed time. *)
let run_fingerprint name ~jobs ~steal_grain ~checkpoint_stride ~max_nodes =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let v, s =
        L.check_strong_stats ~max_nodes ?max_depth:c.default_depth ~jobs ~steal_grain
          ~checkpoint_stride prog
      in
      Format.asprintf "%a | nodes=%d hits=%d frontier=%d cand=%d killed=%d dead=%d vfail=%d"
        L.pp_verdict v s.Lincheck.nodes s.Lincheck.cache_hits s.Lincheck.max_frontier_depth
        s.Lincheck.candidates_generated s.Lincheck.candidates_killed s.Lincheck.dead_ends
        s.Lincheck.validate_failures

(* jobs x steal-grain x checkpoint-stride, all against the one-worker
   run.  grain 0 is whole-column tasks (stealing without forking),
   grain 4 the default fork depth — at jobs=1 both must also reduce to
   the one-worker depth-first walk exactly. *)
let engine_equivalent ?(max_nodes = 200_000) name () =
  let base = run_fingerprint name ~jobs:1 ~steal_grain:4 ~checkpoint_stride:16 ~max_nodes in
  List.iter
    (fun jobs ->
      List.iter
        (fun steal_grain ->
          List.iter
            (fun stride ->
              let fp =
                run_fingerprint name ~jobs ~steal_grain ~checkpoint_stride:stride ~max_nodes
              in
              Alcotest.(check string)
                (Printf.sprintf "%s at jobs=%d grain=%d stride=%d" name jobs steal_grain
                   stride)
                base fp)
            [ 1; 16 ])
        [ 0; 4 ])
    [ 1; 2; 4 ]

(* Objects covering every verdict constructor: SL (faa-max, counter,
   readable-ts, set), NSL with witness (set-empty-race, hw-queue),
   NOT-LIN (tournament-ts).  mwmr-register under a deliberately small
   budget exercises Out_of_budget — in the parallel engine that is the
   sequential-fallback path, which must reproduce the jobs=1 run
   bit-for-bit.  agm-stack is a second refutation whose speculative
   siblings get discarded (32,510 nodes at jobs=2) and set-repaired a
   second large verification: both fork at many grain-4 nodes, where
   resolution keeps or unlinks the child links its kids created. *)
let equivalence_objects =
  [
    ("faa-max", None);
    ("counter", None);
    ("readable-ts", None);
    ("fetch-inc", None);
    ("set", None);
    ("tournament-ts", None);
    ("set-empty-race", None);
    ("hw-queue", None);
    ("agm-stack", None);
    ("set-repaired", None);
    ("mwmr-register", Some 50_000);
  ]

(* ---------------- partial-order reduction ----------------------------- *)

(* The [--reduce] contract: the verdict (witness included) is identical
   to the unreduced run's; the reduced exploration is deterministic —
   the same node/prune counts at every jobs x steal_grain combination
   (grain is forced to whole-column tasks under reduce, so the matrix
   also pins that collapse); and on the refuted E2 baselines the memo
   actually bites (>= 5x fewer nodes, and the exact reduced count is
   pinned: a count that grows means the memo stopped pruning).
   [reduce_check] re-explores every memo hit and compares:
   it must agree everywhere and reproduce the unreduced node count
   exactly (every node is visited, just also cross-checked). *)
(* [pp_verdict] embeds the node count ("; 92839 nodes"), which is
   exactly what reduction changes — blank the token before any "nodes"
   so reduced and unreduced verdicts compare on verdict kind + witness
   schedule alone. *)
let strip_node_counts s =
  let rec go = function
    | _ :: (b :: _ as rest) when String.length b >= 5 && String.sub b 0 5 = "nodes" ->
        "N" :: go rest
    | x :: rest -> x :: go rest
    | [] -> []
  in
  String.concat " " (go (String.split_on_char ' ' s))

let reduce_equivalent ?(min_ratio = 5) ?(max_nodes = 500_000) ?nodes name () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let run ~jobs ~steal_grain ~reduce ~reduce_check =
        let v, s =
          L.check_strong_stats ~max_nodes ?max_depth:c.default_depth ~jobs ~steal_grain
            ~reduce ~reduce_check prog
        in
        (Format.asprintf "%a" L.pp_verdict v, s.Lincheck.nodes)
      in
      let base_v, base_n = run ~jobs:1 ~steal_grain:4 ~reduce:false ~reduce_check:false in
      let red_v, red_n = run ~jobs:1 ~steal_grain:0 ~reduce:true ~reduce_check:false in
      Alcotest.(check string) (name ^ ": reduced verdict identical")
        (strip_node_counts base_v) (strip_node_counts red_v);
      Alcotest.(check bool)
        (Printf.sprintf "%s: reduction >= %dx (%d vs %d nodes)" name min_ratio base_n red_n)
        true
        (red_n * min_ratio <= base_n);
      Option.iter (fun want -> Alcotest.(check int) (name ^ ": reduced nodes") want red_n) nodes;
      List.iter
        (fun jobs ->
          List.iter
            (fun steal_grain ->
              let v, n = run ~jobs ~steal_grain ~reduce:true ~reduce_check:false in
              Alcotest.(check string)
                (Printf.sprintf "%s reduced at jobs=%d grain=%d: verdict" name jobs steal_grain)
                red_v v;
              Alcotest.(check int)
                (Printf.sprintf "%s reduced at jobs=%d grain=%d: nodes" name jobs steal_grain)
                red_n n)
            [ 0; 4 ])
        [ 1; 4 ]

(* hw-queue-deep is inconclusive unreduced (its refutation needs ~2.46M
   nodes, past the default 2M budget) but refuted in a few thousand
   under reduction plus a preemption bound: pin verdict, witness and
   node count at one and four workers. *)
let test_reduce_preempt_bound () =
  match Registry.find "hw-queue-deep" with
  | None -> Alcotest.fail "unknown registry object hw-queue-deep"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      List.iter
        (fun jobs ->
          let v, s =
            L.check_strong_stats ?max_depth:c.default_depth ~jobs ~reduce:true ~preempt_bound:2
              prog
          in
          Alcotest.(check string)
            (Printf.sprintf "hw-queue-deep --preempt-bound 2 at jobs=%d: verdict" jobs)
            "linearizable but NOT strongly linearizable (witness: 00000112222213333; 4078 nodes)"
            (Format.asprintf "%a" L.pp_verdict v);
          Alcotest.(check int)
            (Printf.sprintf "hw-queue-deep --preempt-bound 2 at jobs=%d: nodes" jobs)
            4078 s.Lincheck.nodes)
        [ 1; 4 ]

let test_reduce_check_cross_validates () =
  match Registry.find "set-empty-race" with
  | None -> Alcotest.fail "set-empty-race not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let run ~reduce ~reduce_check =
        let v, s =
          L.check_strong_stats ~max_nodes:500_000 ?max_depth:c.default_depth ~reduce
            ~reduce_check prog
        in
        (Format.asprintf "%a" L.pp_verdict v, s.Lincheck.nodes)
      in
      let base_v, base_n = run ~reduce:false ~reduce_check:false in
      (* reduce_check implies reduce; it raises on any memo/subtree
         disagreement, so merely completing is the cross-validation *)
      let chk_v, chk_n = run ~reduce:false ~reduce_check:true in
      Alcotest.(check string) "reduce_check verdict identical" base_v chk_v;
      Alcotest.(check int) "reduce_check re-explores every node" base_n chk_n;
      let red_v, _ = run ~reduce:true ~reduce_check:false in
      Alcotest.(check string) "reduced verdict identical" (strip_node_counts base_v)
        (strip_node_counts red_v)

(* Under a preemption bound the memo key must carry the last process as
   well as the (capped) switch count: the bound reads both.  With the
   switch count alone, twins that the bound treats differently shared an
   entry and [reduce_check] raised at bound 3 on both E2 refutations.
   Completing is the cross-validation; the verdict and node count must
   also equal the unreduced bounded run's, since [reduce_check] visits
   every node. *)
let test_reduce_check_bounded name () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      List.iter
        (fun preempt_bound ->
          let run ~reduce_check =
            let v, s =
              L.check_strong_stats ~max_nodes:500_000 ?max_depth:c.default_depth ~reduce_check
                ~preempt_bound prog
            in
            Format.asprintf "%a | nodes=%d" L.pp_verdict v s.Lincheck.nodes
          in
          Alcotest.(check string)
            (Printf.sprintf "%s --reduce-check --preempt-bound %d" name preempt_bound)
            (run ~reduce_check:false) (run ~reduce_check:true))
        [ 1; 2; 3 ]

(* Every registry object keeps its verdict kind and witness under
   [--reduce].  hw-queue-deep is inconclusive unreduced at any budget a
   test can afford, and hw-queue-drain runs to its 2M-node budget. *)
let test_reduce_registry_agrees () =
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.failf "unknown registry object %s" name
      | Some (Registry.Checkable c) ->
          let (module S) = c.spec in
          let module L = Lincheck.Make (S) in
          let prog = Harness.program ~make:c.make ~workload:c.workload in
          let run ~reduce =
            let v, _ =
              L.check_strong_stats ~max_nodes:500_000 ?max_depth:c.default_depth ~reduce prog
            in
            strip_node_counts (Format.asprintf "%a" L.pp_verdict v)
          in
          Alcotest.(check string) (name ^ ": reduced verdict") (run ~reduce:false)
            (run ~reduce:true))
    (List.filter (fun n -> n <> "hw-queue-deep" && n <> "hw-queue-drain") Registry.names)

(* ---------------- heartbeat cadence ----------------------------------- *)

(* With the time cadence disabled ([progress_every_ms:0]), [on_progress]
   fires exactly at every [progress_every]-th fresh node: floor(nodes /
   every) times in a complete run, and never for node 0.  The parallel
   engine aggregates node counts across workers and emits from worker 0,
   so jobs=2 beats too (cadence is timing-dependent there — just
   monotone node totals, not an exact count). *)
let test_heartbeat_cadence () =
  match Registry.find "counter" with
  | None -> Alcotest.fail "counter not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let every = 50 in
      let beats = ref 0 in
      let _, s =
        L.check_strong_stats
          ~on_progress:(fun ~nodes:_ ~elapsed_ns:_ -> incr beats)
          ~progress_every:every ~progress_every_ms:0 prog
      in
      Alcotest.(check int) "beats = floor(nodes/every)" (s.Lincheck.nodes / every) !beats;
      Alcotest.(check bool) "some beats fired" true (!beats > 0);
      let beats_par = ref 0 in
      let last = ref 0 in
      let monotone = ref true in
      let _, s2 =
        L.check_strong_stats
          ~on_progress:(fun ~nodes ~elapsed_ns:_ ->
            incr beats_par;
            if nodes < !last then monotone := false;
            last := nodes)
          ~progress_every:1 ~progress_every_ms:0 ~jobs:2 prog
      in
      Alcotest.(check int) "same nodes at jobs=2" s.Lincheck.nodes s2.Lincheck.nodes;
      Alcotest.(check bool) "parallel engine beats" true (!beats_par > 0);
      Alcotest.(check bool) "aggregated node totals are monotone" true !monotone;
      Alcotest.(check bool) "beats never overshoot the node total" true
        (!last <= s2.Lincheck.nodes)

(* The wall-clock cadence: with the node cadence effectively off (a huge
   [progress_every]) and a 1 ms time cadence, a run that expands many
   nodes still beats — cache-hit streaks and long replays can no longer
   go silent. *)
let test_heartbeat_time_cadence () =
  match Registry.find "counter" with
  | None -> Alcotest.fail "counter not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let beats = ref 0 in
      let _, s =
        L.check_strong_stats
          ~on_progress:(fun ~nodes:_ ~elapsed_ns:_ -> incr beats)
          ~progress_every:max_int ~progress_every_ms:1 prog
      in
      Alcotest.(check bool) "run explored enough to take >1ms" true
        (s.Lincheck.elapsed_ns > 1_000_000);
      Alcotest.(check bool) "time cadence beats" true (!beats > 0)

(* ---------------- incremental node evaluation ------------------------- *)

(* Chain [extend_info] down a long schedule, anchoring every node
   against a full replay: any divergence raises. *)
let test_extend_info_chain () =
  match Registry.find "hw-queue" with
  | None -> Alcotest.fail "hw-queue not registered"
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let w = Sim.run_schedule prog [] in
      let info = ref (L.Internal.info_of_world w) in
      L.Internal.cross_check !info w;
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 60 do
        match Sim.enabled w with
        | [] -> continue := false
        | ps ->
            (* rotate through the enabled set so the walk interleaves *)
            Sim.step w (List.nth ps (!steps mod List.length ps));
            info := L.Internal.extend_info !info w;
            L.Internal.cross_check !info w;
            incr steps
      done;
      Alcotest.(check bool) "walked some steps" true (!steps > 0)

(* ---------------- discarded speculation -------------------------------- *)

(* A fork node whose later candidate re-walks a younger sibling that an
   earlier candidate's speculation evaluated.  Resolution must unlink
   the discarded sibling's nodes, so the re-walk evaluates them afresh
   exactly as the one-worker walk does; left linked, they would turn into
   cache hits and the counts would depend on [jobs].

   Spec: [Mark i] records [i] as first unless a mark came earlier;
   [Query] returns the first mark, or anything once [Blur] ran.
   p0 runs [Mark 0] (its mark access, then a second access) and then
   [Blur] (no access); p2 runs [Mark 2]; p1 runs a [Query] that reads
   the first mark and returns at its next access; p3 runs a [Nop].  At
   the node N reached by p0 invoke, p0 mark, p2 invoke, p2 mark, p1
   invoke, Mark 0 is pending and Mark 2 complete, so the candidates are
   c1 = [Mark 2] (2 first) and then c2 = [Mark 0; Mark 2].  N's children
   are p0, p1, p3.  Under c1, p0's child blurs and survives, while p1's
   child reads 0 and dies once its query returns unblurred; under c2
   every child survives, so c2 re-walks p3's child, which a second
   worker evaluated speculatively while p1's child ran.  The step in
   which p1 reads 0 with Mark 0 pending sleeps briefly, so that other
   workers have time to speculate there.  The fork is at depth 5, hence
   steal grain 8. *)
module Blur_spec = struct
  type state = { first : int; blurred : bool }
  type op = Mark of int | Blur | Query | Nop
  type resp = Ack | V of int

  let name = "blur"
  let init = { first = -1; blurred = false }

  let apply s = function
    | Mark i -> [ ((if s.first < 0 then { s with first = i } else s), Ack) ]
    | Blur -> [ ({ s with blurred = true }, Ack) ]
    | Query -> if s.blurred then [ (s, V (-1)); (s, V 0); (s, V 2) ] else [ (s, V s.first) ]
    | Nop -> [ (s, Ack) ]

  let equal_resp = ( = )

  let pp_op fmt = function
    | Mark i -> Format.fprintf fmt "mark %d" i
    | Blur -> Format.pp_print_string fmt "blur"
    | Query -> Format.pp_print_string fmt "query"
    | Nop -> Format.pp_print_string fmt "nop"

  let pp_resp fmt = function
    | Ack -> Format.pp_print_string fmt "ack"
    | V v -> Format.fprintf fmt "%d" v
end

(* The shared state: the first mark, whether mark 2 ran, whether
   [Mark 0] has finished. *)
type blur_state = { first : int; m2 : bool; x_done : bool }

let blur_program : (Blur_spec.op, Blur_spec.resp) Sim.program =
  {
    procs = 4;
    boot =
      (fun w ->
        let module R = (val Sim.runtime w) in
        let st = R.obj ~name:"st" { first = -1; m2 = false; x_done = false } in
        let op o f = ignore (Sim.operation w ~op:o ~resp:Fun.id f) in
        let mark i () =
          R.access st (fun s ->
              ({ s with first = (if s.first < 0 then i else s.first); m2 = s.m2 || i = 2 }, ()));
          Blur_spec.Ack
        in
        Sim.spawn w ~proc:0 (fun () ->
            op (Blur_spec.Mark 0) (fun () ->
                let r = mark 0 () in
                R.access st (fun s -> ({ s with x_done = true }, ()));
                r);
            op Blur_spec.Blur (fun () -> Blur_spec.Ack));
        Sim.spawn w ~proc:1 (fun () ->
            op Blur_spec.Query (fun () ->
                let v =
                  R.access st (fun s ->
                      if s.first = 0 && s.m2 && not s.x_done then Unix.sleepf 0.0005;
                      (s, s.first))
                in
                ignore (R.read st);
                Blur_spec.V v));
        Sim.spawn w ~proc:2 (fun () -> op (Blur_spec.Mark 2) (mark 2));
        Sim.spawn w ~proc:3 (fun () -> op Blur_spec.Nop (fun () -> Blur_spec.Ack)));
  }

let test_discarded_speculation () =
  let module L = Lincheck.Make (Blur_spec) in
  let show jobs =
    let v, s = L.check_strong_stats ~jobs ~steal_grain:8 blur_program in
    Format.asprintf "%a | nodes=%d hits=%d cand=%d killed=%d" L.pp_verdict v s.Lincheck.nodes
      s.Lincheck.cache_hits s.Lincheck.candidates_generated s.Lincheck.candidates_killed
  in
  let base = show 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "counts at jobs=%d" jobs) base (show jobs))
    [ 2; 4 ]

(* ---------------- adversary crash game -------------------------------- *)

(* The crash game shares the incremental engine: a post-crash node is
   evaluated from its world like any other.  Its verdict must be
   identical for every anchor stride.  At stride 1 every node,
   post-crash ones included, is audited against a private replay of its
   moves, crashes included. *)
let test_crash_game_stride (name, crashes) () =
  match Registry.find name with
  | None -> Alcotest.failf "%s not registered" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module A = Adversary.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let show stride =
        Format.asprintf "%a" A.pp_crash_verdict
          (A.check_strong_crashes ?max_depth:c.default_depth ~checkpoint_stride:stride ~crashes
             prog)
      in
      let base = show 16 in
      List.iter
        (fun stride ->
          Alcotest.(check string) (Printf.sprintf "stride %d" stride) base (show stride))
        [ 1; 4 ]

(* Fuzz campaigns: every report field except elapsed time is identical
   for every [jobs] — including on a campaign that finds a violation,
   where "first" must mean index-minimal, not first in wall time. *)
let fuzz_jobs_equivalent name runs () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module A = Adversary.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let show jobs =
        let r = A.fuzz ~seed:1 ~runs ~jobs prog in
        let viol =
          match r.A.fz_violation with
          | None -> "none"
          | Some v ->
              Printf.sprintf "seed=%d crash=%s sched=%d shrunk=%d" v.A.v_seed
                (String.concat ","
                   (List.map (fun (p, at) -> Printf.sprintf "%d@%d" p at) v.A.v_crash_after))
                (List.length v.A.v_schedule) (Witness.size v.A.v_shape)
        in
        Printf.sprintf "runs=%d crashed=%d steps=%d viol=%s" r.A.fz_runs r.A.fz_crashed_runs
          r.A.fz_total_steps viol
      in
      let base = show 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check string) (Printf.sprintf "%s fuzz at jobs=%d" name jobs) base
            (show jobs))
        [ 2; 3 ]

(* The agreement crash sweep: the whole report record is deterministic,
   so plain equality across [jobs]. *)
let test_sweep_jobs_equivalent () =
  let sweep jobs =
    Adversary.agreement_crash_sweep ~make:K_ordering.atomic_queue
      ~ordering:K_ordering.queue_witness ~inputs:[| 100; 200; 300 |] ~k:1 ~max_crashes:1 ~jobs
      ()
  in
  let base = sweep 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep report identical at jobs=%d" jobs)
        true
        (sweep jobs = base))
    [ 2; 4 ]

(* ---------------- response automata ------------------------------------ *)

(* The simulator counters of the game alone on [name], with
   [slin check]'s 2M-node budget, at [jobs] workers. *)
let sim_counts name ~jobs ~reduce =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      Sim.Metrics.reset ();
      Sim.Metrics.enabled := true;
      Fun.protect
        ~finally:(fun () ->
          Sim.Metrics.enabled := false;
          Sim.Metrics.reset ())
        (fun () ->
          ignore
            (L.check_strong_stats ~max_nodes:2_000_000 ?max_depth:c.default_depth ~jobs ~reduce
               prog);
          Sim.Metrics.snapshot ())

(* Under [--reduce] the simulator counters, automaton misses included,
   do not depend on the worker count: the root world holds no fiber, so
   whichever worker runs column 0 takes it, and the workers share one
   automaton. *)
let test_reduce_metrics_jobs name () =
  let counts jobs = sim_counts name ~jobs ~reduce:true in
  let show l = String.concat "\n" (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) l) in
  let base = counts 1 in
  Alcotest.(check bool) "counts boots" true (List.mem_assoc "world.boot" base);
  Alcotest.(check string) (name ^ " metrics at jobs=2") (show base) (show (counts 2))

(* A world built off the spine counts one [world.boot] whether it is
   booted and replayed from the root or copied from an ancestor's
   snapshot, so the count at one worker is the number of off-spine
   worlds, however they are built.  ([slin check --stats] prints 150
   more: the boots of its linearizability screen.) *)
let test_boots_pinned (name, boots) () =
  Alcotest.(check (option int))
    (name ^ " world.boot at jobs=1")
    (Some boots)
    (List.assoc_opt "world.boot" (sim_counts name ~jobs:1 ~reduce:false))

(* Two processes that talk through an OCaml [ref] outside the runtime:
   p0 writes register [x] and sets the flag; p1 reads [x], and reads [y]
   as well when it sees the flag.  A process run alone never sees the
   other's flag, so a world stepped through the automaton differs from a
   private one, and the detector must stop the check with no verdict. *)
let breach_program : (Spec.Register.op, Spec.Register.resp) Sim.program =
  {
    procs = 2;
    boot =
      (fun w ->
        let module R = (val Sim.runtime w) in
        let x = R.obj ~name:"x" 0 and y = R.obj ~name:"y" 0 in
        let flag = ref false in
        Sim.spawn w ~proc:0 (fun () ->
            ignore
              (Sim.operation w ~op:(Spec.Register.Write 1) ~resp:Fun.id (fun () ->
                   R.access x (fun _ -> (1, ()));
                   flag := true;
                   Spec.Register.Ack)));
        Sim.spawn w ~proc:1 (fun () ->
            ignore
              (Sim.operation w ~op:Spec.Register.Read ~resp:Fun.id (fun () ->
                   let v = R.read x in
                   if !flag then ignore (R.read y);
                   Spec.Register.Value v))));
  }

let test_breach_detected jobs () =
  let module L = Lincheck.Make (Spec.Register) in
  (* At two workers the audits run as pool tasks, so the breach surfaces
     once the pool has drained, not at the anchor. *)
  (match L.check_strong_stats ~checkpoint_stride:1 ~jobs breach_program with
  | v, _ -> Alcotest.failf "a breach must raise, not yield %a" L.pp_verdict v
  | exception Sim.Nondeterministic _ -> ());
  Alcotest.(check int) "no driver fiber left" 0 (Sim.live_drivers ())

(* Every anchored node is audited at any worker count.  Without
   speculation (grain 0) two workers evaluate exactly the nodes one
   worker does, so their profiles count the same anchors, however many
   audits were still queued when the last column ended. *)
let test_audits_all_run name () =
  match Registry.find name with
  | None -> Alcotest.failf "%s not registered" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let anchors jobs =
        let p = Prof.create () in
        ignore
          (L.check_strong_stats ?max_depth:c.default_depth ~jobs ~steal_grain:0 ~profiler:p prog);
        Prof.finish p;
        let lanes =
          Option.bind (Obs_json.member "lanes" (Prof.to_json p ~meta:[])) Obs_json.to_list
        in
        let checks l = Option.bind (Obs_json.member "cross_checks" l) Obs_json.to_int in
        List.fold_left
          (fun n l -> n + Option.value ~default:0 (checks l))
          0 (Option.value ~default:[] lanes)
      in
      let one = anchors 1 in
      Alcotest.(check bool) (name ^ ": anchors below the root") true (one > 1);
      Alcotest.(check int) (name ^ ": anchors audited at jobs=2") one (anchors 2)

(* ---------------- Steal_pool shared queue ----------------------------- *)

(* A tree of tasks, seeded on the shared queue: each task of the first
   [depth] generations pushes three children, on the shared queue and on
   its worker's own deque alternately.  Every task runs exactly once,
   and each worker's [help_until] returns only once all have finished. *)
let test_shared_queue_once workers () =
  let pool = Steal_pool.create ~workers () in
  let depth = 4 and total = 121 (* 1 + 3 + 9 + 27 + 81 *) in
  let runs = Array.init total (fun _ -> Atomic.make 0) in
  let next = Atomic.make 0 and pending = Atomic.make 0 and finished = Atomic.make 0 in
  let early = Atomic.make false in
  let rec task gen w =
    let id = Atomic.fetch_and_add next 1 in
    Atomic.incr runs.(id);
    if gen < depth then
      for k = 0 to 2 do
        Atomic.incr pending;
        if k mod 2 = 0 then Steal_pool.push_shared pool (task (gen + 1))
        else Steal_pool.push pool ~worker:w (task (gen + 1))
      done;
    Atomic.incr finished;
    Atomic.decr pending
  in
  Atomic.incr pending;
  Steal_pool.push_shared pool (task 0);
  Steal_pool.run pool (fun w ->
      Steal_pool.help_until pool ~worker:w (fun () -> Atomic.get pending = 0);
      if Atomic.get finished <> total then Atomic.set early true);
  Alcotest.(check int) "tasks run" total (Atomic.get next);
  Alcotest.(check bool) "each task ran once" true
    (Array.for_all (fun r -> Atomic.get r = 1) runs);
  Alcotest.(check bool) "no worker returned before every task finished" false
    (Atomic.get early)

(* Take order, on worker 0 alone: its own deque (LIFO) first, then the
   shared queue (FIFO), and a task a shared task pushes on the own deque
   runs before the next shared task. *)
let test_shared_queue_order workers () =
  let pool = Steal_pool.create ~workers () in
  let log = ref [] and pending = ref 0 in
  let rec task name own_kids w =
    log := name :: !log;
    List.iter
      (fun k ->
        incr pending;
        Steal_pool.push pool ~worker:w (task k []))
      own_kids;
    decr pending
  in
  let shared name own_kids =
    incr pending;
    Steal_pool.push_shared pool (task name own_kids)
  in
  let own name =
    incr pending;
    Steal_pool.push pool ~worker:0 (task name [])
  in
  shared "s1" [ "o3" ];
  shared "s2" [];
  own "o1";
  own "o2";
  Steal_pool.help_until pool ~worker:0 (fun () -> !pending = 0);
  Alcotest.(check (list string)) "take order" [ "o2"; "o1"; "s1"; "o3"; "s2" ] (List.rev !log)

(* Every check drops its automaton: no driver fiber stays suspended,
   whatever the verdict, the worker count or the game. *)
let test_no_driver_left () =
  let with_object name f =
    match Registry.find name with
    | None -> Alcotest.failf "unknown registry object %s" name
    | Some c -> f c
  in
  List.iter
    (fun (name, jobs) ->
      with_object name (fun (Registry.Checkable c) ->
          let (module S) = c.spec in
          let module L = Lincheck.Make (S) in
          let prog = Harness.program ~make:c.make ~workload:c.workload in
          ignore (L.check_strong_stats ?max_depth:c.default_depth ~jobs prog);
          Alcotest.(check int) (Printf.sprintf "%s at jobs=%d" name jobs) 0 (Sim.live_drivers ())))
    [ ("hw-queue", 1); ("hw-queue", 2); ("set-repaired", 2) ];
  with_object "faa-max" (fun (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module A = Adversary.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      ignore (A.check_strong_crashes ?max_depth:c.default_depth ~crashes:1 prog);
      Alcotest.(check int) "faa-max crash game" 0 (Sim.live_drivers ()))

(* ---------------- suite ----------------------------------------------- *)

let suite =
  List.map
    (fun (name, max_nodes) ->
      Alcotest.test_case
        (Printf.sprintf "equivalence: %s" name)
        `Slow
        (engine_equivalent ?max_nodes name))
    equivalence_objects
  @ [
      Alcotest.test_case "reduce: hw-queue >= 5x, jobs/grain equivalence" `Slow
        (reduce_equivalent ~nodes:7_543 "hw-queue");
      Alcotest.test_case "reduce: agm-stack >= 5x, jobs/grain equivalence" `Slow
        (reduce_equivalent ~nodes:10_330 "agm-stack");
      Alcotest.test_case "reduce: hw-queue-deep --preempt-bound 2" `Slow
        test_reduce_preempt_bound;
      Alcotest.test_case "reduce: set-empty-race equivalence" `Slow
        (reduce_equivalent ~min_ratio:1 "set-empty-race");
      Alcotest.test_case "reduce: faa-max (SL verdict) equivalence" `Slow
        (reduce_equivalent ~min_ratio:1 "faa-max");
      Alcotest.test_case "reduce_check cross-validation" `Slow
        test_reduce_check_cross_validates;
      Alcotest.test_case "reduce_check under preemption bounds: hw-queue" `Slow
        (test_reduce_check_bounded "hw-queue");
      Alcotest.test_case "reduce_check under preemption bounds: agm-stack" `Slow
        (test_reduce_check_bounded "agm-stack");
      Alcotest.test_case "reduce: registry-wide verdict and witness" `Slow
        test_reduce_registry_agrees;
      Alcotest.test_case "heartbeat cadence" `Quick test_heartbeat_cadence;
      Alcotest.test_case "heartbeat time cadence" `Quick test_heartbeat_time_cadence;
      Alcotest.test_case "extend_info anchored walk" `Quick test_extend_info_chain;
      Alcotest.test_case "crash game: stride equivalence" `Quick
        (test_crash_game_stride ("faa-max", 1));
      Alcotest.test_case "crash game: stride equivalence, counter at 2 crashes" `Quick
        (test_crash_game_stride ("counter", 2));
      Alcotest.test_case "crash game: stride equivalence, mwmr-register at 2 crashes" `Quick
        (test_crash_game_stride ("mwmr-register", 2));
      Alcotest.test_case "fuzz: jobs equivalence (clean)" `Slow
        (fuzz_jobs_equivalent "faa-max" 60);
      Alcotest.test_case "fuzz: jobs equivalence (violation)" `Slow
        (fuzz_jobs_equivalent "hw-queue" 120);
      Alcotest.test_case "sweep: jobs equivalence" `Slow test_sweep_jobs_equivalent;
      Alcotest.test_case "discarded speculation is re-walked fresh" `Quick
        test_discarded_speculation;
      Alcotest.test_case "reduce: metrics independent of jobs, hw-queue-deep" `Slow
        (test_reduce_metrics_jobs "hw-queue-deep");
      Alcotest.test_case "reduce: metrics independent of jobs, hw-queue" `Slow
        (test_reduce_metrics_jobs "hw-queue");
      Alcotest.test_case "world.boot pinned: agm-stack" `Slow
        (test_boots_pinned ("agm-stack", 44_981));
      Alcotest.test_case "world.boot pinned: cas-queue" `Slow
        (test_boots_pinned ("cas-queue", 53_714));
      Alcotest.test_case "automaton: breach raises with no verdict" `Quick
        (test_breach_detected 1);
      Alcotest.test_case "automaton: breach raises with no verdict at jobs=2" `Quick
        (test_breach_detected 2);
      Alcotest.test_case "automaton: no driver fiber left" `Slow test_no_driver_left;
      Alcotest.test_case "audits: every anchor runs at jobs=2, set-repaired" `Quick
        (test_audits_all_run "set-repaired");
    ]
  @ List.concat_map
      (fun n ->
        [
          Alcotest.test_case
            (Printf.sprintf "steal pool: shared tasks run once, %d workers" n)
            `Quick (test_shared_queue_once n);
          Alcotest.test_case
            (Printf.sprintf "steal pool: own deque before shared queue, %d workers" n)
            `Quick (test_shared_queue_order n);
        ])
      [ 1; 2; 4 ]

let () = Alcotest.run "engine" [ ("engine", suite) ]
