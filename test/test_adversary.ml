(* Tests for Slin_adversary: the crash-extended strong-linearizability
   game (and the engine that solves it, against an independent reference
   solver), exhaustive wait-freedom bounds, livelock lasso detection, the
   seeded crash fuzzer, Algorithm B's crash sweep, and budgeted graceful
   degradation in the checkers. *)

(* Lift the hardware cap so the jobs=2 cases run two domains even on a
   single-core runner (see test_engine.ml). *)
let () = Unix.putenv "SLIN_DOMAIN_CAP" "8"

(* ---------------- crash game vs crash-free game ----------------------- *)

(* Crash edges add no trace events, so the crash-extended tree is
   strongly linearizable iff the crash-free one is; the crash game must
   reproduce the plain verdict on every registry object it can afford. *)
let crash_game_agrees name () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) -> (
      let (module S) = c.spec in
      let module L = Lincheck.Make (S) in
      let module A = Adversary.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let max_depth = c.default_depth in
      let v = L.check_strong ?max_depth prog in
      let cv = A.check_strong_crashes ?max_depth ~crashes:1 prog in
      match (v, cv) with
      | L.Strongly_linearizable _, A.Crash_strongly_linearizable _
      | L.Not_linearizable _, A.Crash_not_linearizable _
      | L.Not_strongly_linearizable _, A.Crash_not_strongly_linearizable _ ->
          ()
      | _ ->
          Alcotest.failf "crash game disagrees on %s: %a vs %a" name L.pp_verdict v
            A.pp_crash_verdict cv)

(* ---------------- the reference solver against the engine ------------- *)

(* [Reference] solves the game by its definition, apart from [Lincheck].
   The engine must reach its answer at one worker and two, with and
   without [reduce], and the crash game must reach the reference's
   answer on the crash-extended tree.  Which refutation the engine meets
   first depends on its exploration order, so NOT-LIN and NOT-SL are one
   kind here, except that a NOT-LIN schedule must be one whose history
   the reference cannot linearize.  [None] when all agree. *)
let reference_disagreement ?max_depth ~crashes (Registry.Checkable c) =
  let (module S) = c.spec in
  let module L = Lincheck.Make (S) in
  let module A = Adversary.Make (S) in
  let module R = Reference.Make (S) in
  let prog = Harness.program ~make:c.make ~workload:c.workload in
  let disagrees sl what kind =
    let ok =
      match kind with
      | `Sl -> sl
      | `Refuted -> not sl
      | `Not_lin moves -> (not sl) && not (R.linearizable prog moves)
      | `Budget -> false
    in
    if ok then None else Some (Printf.sprintf "%s; the reference says SL = %b" what sl)
  in
  let sl = R.solve ?max_depth prog in
  let engine (jobs, reduce) =
    let v, _ = L.check_strong_stats ~max_nodes:2_000_000 ?max_depth ~jobs ~reduce prog in
    disagrees sl
      (Format.asprintf "engine at jobs=%d reduce=%b: %a" jobs reduce L.pp_verdict v)
      (match v with
      | L.Strongly_linearizable _ -> `Sl
      | L.Not_strongly_linearizable _ -> `Refuted
      | L.Not_linearizable { schedule } -> `Not_lin schedule
      | L.Out_of_budget _ -> `Budget)
  in
  let crash_game () =
    let move = function A.Step p -> p | A.Crash q -> prog.Sim.procs + q in
    let cv = A.check_strong_crashes ?max_depth ~crashes prog in
    disagrees (R.solve ~crashes ?max_depth prog)
      (Format.asprintf "crash game at %d crashes: %a" crashes A.pp_crash_verdict cv)
      (match cv with
      | A.Crash_strongly_linearizable _ -> `Sl
      | A.Crash_not_strongly_linearizable _ -> `Refuted
      | A.Crash_not_linearizable { actions } -> `Not_lin (List.map move actions)
      | A.Crash_inconclusive _ -> `Budget)
  in
  match List.find_map engine [ (1, false); (2, false); (1, true); (2, true) ] with
  | Some _ as e -> e
  | None -> if crashes > 0 then crash_game () else None

(* The crash-free game of each registry object, as the reference solves
   it, against the engine: at a depth the reference finishes within
   about a second (the object's default depth where that is so). *)
let reference_depths =
  [
    ("agm-stack", 14);
    ("cas-queue", 10);
    ("hw-queue", 14);
    ("hw-queue-deep", 14);
    ("hw-queue-drain", 8);
    ("set-repaired", 12);
  ]

let registry_agrees_with_reference ?(crashes = 0) ?(depths = reference_depths) name () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c as obj) -> (
      let max_depth =
        match List.assoc_opt name depths with Some d -> Some d | None -> c.default_depth
      in
      match reference_disagreement ?max_depth ~crashes obj with
      | None -> ()
      | Some e -> Alcotest.failf "%s: %s" name e)

(* The crash game at one and at two crashes per branch, at the object's
   default depth, against the reference: the registry objects whose
   two-crash tree the reference solves within about a second, both
   those the paper proves strongly linearizable and refuted baselines. *)
let crash_reference_objects =
  [
    "faa-max";
    "faa-snapshot";
    "readable-ts";
    "fetch-inc";
    "set";
    "rw-max";
    "mwmr-register";
    "set-empty-race";
    "tournament-ts";
    "aww-multishot-fi";
  ]

(* Tiny random programs: two or three processes with one or two
   operations each, over constructions the paper proves strongly
   linearizable and baselines it refutes (the tournament test&set and the
   multi-shot AWW fetch&inc are not even linearizable), cut at depth 14,
   deep enough for the baselines' refutations, since operations can spin. *)
let tiny_program seed =
  let rng = Random.State.make [| seed |] in
  let procs = 2 + Random.State.int rng 2 in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let v () = 1 + Random.State.int rng 2 in
  let program : type op resp.
      string ->
      ((module Runtime_intf.S) -> op -> resp) ->
      (module Spec.S with type op = op and type resp = resp) ->
      (unit -> op) ->
      Registry.checkable =
   fun name make spec ops ->
    let count () = if procs = 3 then 1 else 1 + Random.State.int rng 2 in
    let workload = Array.init procs (fun _ -> List.init (count ()) (fun _ -> ops ())) in
    Registry.Checkable { spec_name = name; make; workload; spec; default_depth = Some 14 }
  in
  let max_reg () = Spec.Max_register.(pick [ WriteMax (v ()); ReadMax ]) in
  let ts () = Spec.Test_and_set.(pick [ TestAndSet; Read ]) in
  let fi () = Spec.Fetch_and_inc.(pick [ FetchInc; Read ]) in
  let set () = Spec.Set_obj.(pick [ Put (v ()); Take ]) in
  match Random.State.int rng 11 with
  | 0 -> program "faa-max" Executors.faa_max_register (module Spec.Max_register) max_reg
  | 1 -> program "rw-max" Executors.rw_max_register (module Spec.Max_register) max_reg
  | 2 -> program "readable-ts" Executors.readable_ts (module Spec.Test_and_set) ts
  | 3 ->
      program "tournament-ts" Executors.tournament_ts (module Spec.Test_and_set) (fun () ->
          Spec.Test_and_set.TestAndSet)
  | 4 -> program "fetch-inc" Executors.ts_fetch_inc (module Spec.Fetch_and_inc) fi
  | 5 -> program "aww-multishot-fi" Executors.aww_multishot_fi (module Spec.Fetch_and_inc) fi
  | 6 -> program "set" Executors.ts_set_full (module Spec.Set_obj) set
  | 7 -> program "set-empty-race" Executors.ts_set_atomic_fi (module Spec.Set_obj) set
  | 8 ->
      program "mwmr-register" Executors.mwmr_register (module Spec.Register) (fun () ->
          Spec.Register.(pick [ Write (v ()); Read ]))
  | 9 ->
      program "hw-queue" Executors.hw_queue (module Spec.Queue_spec) (fun () ->
          Spec.Queue_spec.(pick [ Enq (v ()); Deq ]))
  | _ ->
      program "agm-stack" Executors.agm_stack (module Spec.Stack_spec) (fun () ->
          Spec.Stack_spec.(pick [ Push (v ()); Pop ]))

let show_program (Registry.Checkable c) =
  let (module S) = c.spec in
  let proc ops = String.concat ";" (List.map (Format.asprintf "%a" S.pp_op) ops) in
  let procs = String.concat " | " (Array.to_list (Array.map proc c.workload)) in
  Printf.sprintf "%s [%s]" c.spec_name procs

(* A seed whose program the engine solves within 1,000 nodes: the
   reference costs about 20 µs a node, four times that with crash moves,
   so larger programs are drawn again.  The filter reads only the tree's
   size, never the verdict. *)
let small_seed rng =
  let rec draw () =
    let seed = Random.State.bits rng in
    let (Registry.Checkable c) = tiny_program seed in
    let (module S) = c.spec in
    let module L = Lincheck.Make (S) in
    let prog = Harness.program ~make:c.make ~workload:c.workload in
    match L.check_strong ~max_nodes:1_000 ?max_depth:c.default_depth prog with
    | L.Out_of_budget _ -> draw ()
    | _ -> seed
  in
  draw ()

(* [count] random programs against the reference at [crashes] crashes
   per branch.  On a 2-core x86 host, 1,000 cases at one crash take
   about 15 s and 150 cases at two crashes about 3 s. *)
let reference_differential name ~crashes ~count =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:(fun seed -> show_program (tiny_program seed)) small_seed)
       (fun seed ->
         let (Registry.Checkable c as obj) = tiny_program seed in
         match reference_disagreement ?max_depth:c.default_depth ~crashes obj with
         | None -> true
         | Some e -> QCheck.Test.fail_report e))

(* Exact crash-game answers: the whole verdict string, node count and
   action witness included, at one and two crashes per branch.  How a
   node's world is built (stepped on the spine, copied from a snapshot
   or replayed from the root) must not move any of them.  hw-queue runs
   at E7's depth 18, once under a budget that trips and once under
   E7's 400k budget. *)
let crash_pins =
  [
    ("faa-max", 1, None, None, "strongly linearizable under crashes (2513 nodes explored)");
    ("faa-max", 2, None, None, "strongly linearizable under crashes (4299 nodes explored)");
    ("readable-ts", 1, None, None, "strongly linearizable under crashes (20785 nodes explored)");
    ("readable-ts", 2, None, None, "strongly linearizable under crashes (36127 nodes explored)");
    ("set", 1, None, None, "strongly linearizable under crashes (484 nodes explored)");
    ("set", 2, None, None, "strongly linearizable under crashes (637 nodes explored)");
    ("counter", 1, None, None, "strongly linearizable under crashes (119065 nodes explored)");
    ("counter", 2, None, None, "strongly linearizable under crashes (207769 nodes explored)");
    ( "mwmr-register", 1, None, None,
      "NOT strongly linearizable under crashes (actions: 00000222211112212; 15250 nodes)" );
    ( "mwmr-register", 2, None, None,
      "NOT strongly linearizable under crashes (actions: 00000222211112212; 20274 nodes)" );
    ("hw-queue", 1, Some 18, Some 50_000, "inconclusive under crashes (nodes budget, 50001 nodes)");
    ("hw-queue", 2, Some 18, Some 50_000, "inconclusive under crashes (nodes budget, 50001 nodes)");
    ( "hw-queue", 1, Some 18, Some 400_000,
      "NOT strongly linearizable under crashes (actions: 000112233!312; 160232 nodes)" );
    ( "hw-queue", 2, Some 18, Some 400_000,
      "NOT strongly linearizable under crashes (actions: 000112233!312; 235597 nodes)" );
  ]

let crash_game_pinned ?checkpoint_stride (name, crashes, depth, max_nodes, expected) () =
  match Registry.find name with
  | None -> Alcotest.failf "unknown registry object %s" name
  | Some (Registry.Checkable c) ->
      let (module S) = c.spec in
      let module A = Adversary.Make (S) in
      let prog = Harness.program ~make:c.make ~workload:c.workload in
      let max_depth = match depth with Some _ -> depth | None -> c.default_depth in
      Alcotest.(check string) name expected
        (Format.asprintf "%a" A.pp_crash_verdict
           (A.check_strong_crashes ?max_nodes ?max_depth ?checkpoint_stride ~crashes prog))

(* The same answers with every node anchored: each node's records are
   recomputed from its trace, and its world, crashes included, is
   audited against a private replay ([Sim.audit]). *)
let stride_one_pins =
  List.filter
    (fun (name, _, _, _, _) -> List.mem name [ "faa-max"; "set"; "mwmr-register" ])
    crash_pins

(* ---------------- exhaustive wait-freedom bound ----------------------- *)

module A_max = Adversary.Make (Spec.Max_register)

let max_reg_prog () =
  Harness.program ~make:Executors.faa_max_register
    ~workload:
      [|
        [ Spec.Max_register.WriteMax 1; Spec.Max_register.ReadMax ];
        [ Spec.Max_register.WriteMax 2 ];
        [ Spec.Max_register.ReadMax ];
      |]

let test_wait_free_bound () =
  let r = A_max.wait_free_bound (max_reg_prog ()) in
  Alcotest.(check bool) "walk exhaustive" true (A_max.wait_free_established r);
  (* Theorem 1's operations are a single wide-F&A access: the
     adversarial bound over EVERY schedule is one step per op. *)
  Alcotest.(check int) "steps/op bound" 1 r.A_max.wf_max_steps_per_op;
  Alcotest.(check bool) "executions counted" true (r.A_max.wf_executions > 0)

let test_wait_free_budget () =
  let r = A_max.wait_free_bound ~max_nodes:10 (max_reg_prog ()) in
  Alcotest.(check bool) "budget hit" true r.A_max.wf_budget_hit;
  Alcotest.(check bool) "establishes nothing" false (A_max.wait_free_established r)

(* ---------------- livelock lasso on the HW queue ---------------------- *)

module A_q = Adversary.Make (Spec.Queue_spec)
module W_q = Witness.Make (Spec.Queue_spec)

(* Drain-heavy workload: one enqueue, two dequeues — whichever dequeue
   finds the queue empty spins forever, a certified livelock lasso. *)
let drain_prog () =
  Harness.program ~make:Executors.hw_queue
    ~workload:[| [ Spec.Queue_spec.Enq 1 ]; [ Spec.Queue_spec.Deq ]; [ Spec.Queue_spec.Deq ] |]

let test_livelock_found () =
  let prog = drain_prog () in
  let r = A_q.find_livelock prog in
  match r.A_q.lf_livelock with
  | None -> Alcotest.fail "no lasso found on the drain-heavy HW queue"
  | Some shape ->
      Alcotest.(check bool) "kind is Livelock" true (shape.Witness.kind = Witness.Livelock);
      Alcotest.(check int) "exactly one cycle" 1 (List.length shape.Witness.futures);
      (match W_q.refutes prog shape with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "shrunk lasso no longer refutes"
      | Error e -> Alcotest.failf "lasso does not replay: %s" e)

let test_livelock_witness_roundtrip () =
  let prog = drain_prog () in
  match (A_q.find_livelock prog).A_q.lf_livelock with
  | None -> Alcotest.fail "no lasso found"
  | Some shape -> (
      let json =
        W_q.to_json prog ~object_name:"hw-queue-drain"
          ~spec_name:"Herlihy-Wing queue, drain-heavy (livelocks an empty deq)" ~max_nodes:0
          ~max_depth:None ~nodes:None ~original_len:(Witness.size shape) shape
      in
      match Witness.parse json with
      | Error e -> Alcotest.failf "serialized lasso does not parse: %s" e
      | Ok p ->
          Alcotest.(check bool) "kind survives" true (p.Witness.p_kind = Witness.Livelock);
          let report = W_q.replay prog p in
          if not report.W_q.reproduced then
            Alcotest.failf "livelock witness did not reproduce:@.%s"
              (String.concat "\n" report.W_q.notes))

(* No lasso on a wait-free object: every driver set completes. *)
let test_no_livelock_on_wait_free () =
  let r = A_max.find_livelock (max_reg_prog ()) in
  Alcotest.(check bool) "no lasso" true (r.A_max.lf_livelock = None);
  Alcotest.(check bool) "adversaries tried" true (r.A_max.lf_candidates > 0)

(* ---------------- seeded crash fuzzer --------------------------------- *)

module A_ts = Adversary.Make (Spec.Test_and_set)
module W_ts = Witness.Make (Spec.Test_and_set)

let tournament_prog () =
  Harness.program ~make:Executors.tournament_ts
    ~workload:(Array.make 4 [ Spec.Test_and_set.TestAndSet ])

let test_fuzz_deterministic () =
  (* A campaign is a pure function of (seed, runs, crash, max_steps):
     everything except wall-clock must coincide across reruns. *)
  let r1 = A_max.fuzz ~seed:3 ~runs:100 (max_reg_prog ()) in
  let r2 = A_max.fuzz ~seed:3 ~runs:100 (max_reg_prog ()) in
  Alcotest.(check int) "same runs" r1.A_max.fz_runs r2.A_max.fz_runs;
  Alcotest.(check int) "same crashed runs" r1.A_max.fz_crashed_runs r2.A_max.fz_crashed_runs;
  Alcotest.(check int) "same total steps" r1.A_max.fz_total_steps r2.A_max.fz_total_steps;
  Alcotest.(check bool) "SL object: no violation" true (r1.A_max.fz_violation = None)

let test_fuzz_finds_violation () =
  let prog = tournament_prog () in
  let r = A_ts.fuzz ~seed:7 ~runs:500 prog in
  match r.A_ts.fz_violation with
  | None -> Alcotest.fail "fuzzer missed the tournament T&S non-linearizability"
  | Some v -> (
      Alcotest.(check bool) "kind" true (v.A_ts.v_shape.Witness.kind = Witness.Not_linearizable);
      (* The certificate was shrunk but must still refute. *)
      (match W_ts.refutes prog v.A_ts.v_shape with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "shrunk fuzz certificate no longer refutes"
      | Error e -> Alcotest.failf "fuzz certificate does not replay: %s" e);
      (* Same seed, same violation. *)
      match (A_ts.fuzz ~seed:7 ~runs:500 prog).A_ts.fz_violation with
      | Some v' ->
          Alcotest.(check int) "same run seed" v.A_ts.v_seed v'.A_ts.v_seed;
          Alcotest.(check (list int)) "same schedule" v.A_ts.v_schedule v'.A_ts.v_schedule
      | None -> Alcotest.fail "rerun with the same seed found nothing")

(* ---------------- Algorithm B under crash plans ----------------------- *)

let test_sweep_atomic_queue () =
  (* Lemma 12 with an atomic (strongly linearizable) queue: validity,
     agreement and termination hold under EVERY <=1-crash plan in the
     canonical schedule family, even though k-1 = 0 crashes would do. *)
  let r =
    Adversary.agreement_crash_sweep ~make:K_ordering.atomic_queue
      ~ordering:K_ordering.queue_witness ~inputs:[| 100; 200; 300 |] ~k:1 ~max_crashes:1 ()
  in
  Alcotest.(check (list string)) "no violations" [] r.Adversary.sw_violations;
  Alcotest.(check int) "k" 1 r.Adversary.sw_max_distinct;
  Alcotest.(check bool) "crashed runs exercised" true (r.Adversary.sw_crashed_runs > 0)

let test_sweep_hw_queue_violates () =
  (* The Herlihy-Wing queue is linearizable but not strongly so; the
     deterministic sweep finds an agreement violation under a crash. *)
  let r =
    Adversary.agreement_crash_sweep
      ~make:(K_ordering.hw_queue ~capacity:3)
      ~ordering:K_ordering.queue_witness ~inputs:[| 100; 200; 300 |] ~k:1 ~max_crashes:1 ()
  in
  Alcotest.(check bool) "violations found" true (r.Adversary.sw_violations <> [])

(* ---------------- budgeted graceful degradation ----------------------- *)

module L_max = Lincheck.Make (Spec.Max_register)

let test_budget_nodes_partial_stats () =
  let v, st = L_max.check_strong_stats ~max_nodes:10 (max_reg_prog ()) in
  (match v with
  | L_max.Out_of_budget { nodes; reason } ->
      Alcotest.(check bool) "reason" true (reason = Lincheck.Budget_nodes);
      Alcotest.(check int) "nodes counted" 11 nodes;
      (* The pinned rendering and JSON of the historical node-budget
         verdict: byte-identical, no "reason" field. *)
      Alcotest.(check string) "pinned pp" "inconclusive: budget of 11 nodes exhausted"
        (Format.asprintf "%a" L_max.pp_verdict v);
      Alcotest.(check bool) "no reason field" false
        (List.mem_assoc "reason" (L_max.verdict_fields v))
  | _ -> Alcotest.failf "expected Out_of_budget, got %a" L_max.pp_verdict v);
  Alcotest.(check bool) "partial stats populated" true (st.Lincheck.nodes > 0)

let test_budget_wall () =
  let v, _ = L_max.check_strong_stats ~budget_ms:0 (max_reg_prog ()) in
  match v with
  | L_max.Out_of_budget { reason; _ } ->
      Alcotest.(check bool) "wall reason" true (reason = Lincheck.Budget_wall);
      Alcotest.(check bool) "reason field present" true
        (List.mem_assoc "reason" (L_max.verdict_fields v))
  | _ -> Alcotest.failf "expected Out_of_budget, got %a" L_max.pp_verdict v

let test_crash_game_budget () =
  let cv = A_max.check_strong_crashes ~max_nodes:5 ~crashes:1 (max_reg_prog ()) in
  match cv with
  | A_max.Crash_inconclusive { nodes; reason } ->
      Alcotest.(check bool) "nodes counted" true (nodes > 0);
      Alcotest.(check bool) "reason" true (reason = Lincheck.Budget_nodes)
  | _ -> Alcotest.failf "expected inconclusive, got %a" A_max.pp_crash_verdict cv

let suite =
  [
    ("crash game agrees: faa-max", `Quick, crash_game_agrees "faa-max");
    ("crash game agrees: mwmr-register", `Quick, crash_game_agrees "mwmr-register");
    ("crash game agrees: tournament-ts", `Quick, crash_game_agrees "tournament-ts");
    reference_differential "reference solver = engine and crash game on random programs"
      ~crashes:1 ~count:1000;
    reference_differential "reference solver = engine and crash game on random programs, crashes=2"
      ~crashes:2 ~count:150;
  ]
  @ List.map
      (fun ((name, crashes, _, max_nodes, _) as pin) ->
        ( Printf.sprintf "crash game pinned: %s crashes=%d%s" name crashes
            (match max_nodes with Some n -> Printf.sprintf " budget=%d" n | None -> ""),
          `Quick,
          crash_game_pinned pin ))
      crash_pins
  @ List.map
      (fun ((name, crashes, _, _, _) as pin) ->
        ( Printf.sprintf "crash game pinned at stride 1: %s crashes=%d" name crashes,
          `Quick,
          crash_game_pinned ~checkpoint_stride:1 pin ))
      stride_one_pins
  @ List.map
      (fun name ->
        ( Printf.sprintf "crash-free game = engine: %s" name,
          `Quick,
          registry_agrees_with_reference name ))
      Registry.names
  @ [
    ("wait-free bound exhaustive", `Quick, test_wait_free_bound);
    ("wait-free bound budget", `Quick, test_wait_free_budget);
    ("livelock found on HW queue", `Quick, test_livelock_found);
    ("livelock witness roundtrip", `Quick, test_livelock_witness_roundtrip);
    ("no livelock on wait-free object", `Quick, test_no_livelock_on_wait_free);
    ("fuzz deterministic", `Quick, test_fuzz_deterministic);
    ("fuzz finds violation", `Quick, test_fuzz_finds_violation);
    ("sweep: atomic queue clean", `Quick, test_sweep_atomic_queue);
    ("sweep: HW queue violates", `Quick, test_sweep_hw_queue_violates);
    ("budget: nodes + partial stats", `Quick, test_budget_nodes_partial_stats);
    ("budget: wall clock", `Quick, test_budget_wall);
    ("budget: crash game", `Quick, test_crash_game_budget);
  ]
  @ List.concat_map
      (fun name ->
        List.map
          (fun crashes ->
            ( Printf.sprintf "crash game = reference: %s crashes=%d" name crashes,
              `Quick,
              registry_agrees_with_reference ~crashes ~depths:[] name ))
          [ 1; 2 ])
      crash_reference_objects

let () = Alcotest.run "adversary" [ ("adversary", suite) ]
