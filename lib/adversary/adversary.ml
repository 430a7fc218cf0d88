(* Slin_adversary: the failure-aware layer of the checker.

   The paper's positive results promise wait-free / lock-free strong
   linearizability — statements that only mean something against an
   adversary that schedules badly and crashes processes.  This module
   makes that adversary mechanical:

   - [Make(S).check_strong_crashes] replays the strong-linearizability
     game on the execution tree {e extended with crash edges}: at every
     node the adversary may, while its crash budget lasts, permanently
     remove an enabled process.  A crash edge changes no history (the
     trace is untouched), so the crash-extended tree is strongly
     linearizable iff the crash-free tree is — crashing a process is
     indistinguishable from the adversary never scheduling it again, and
     each crash-maximal node's history already appears at an interior
     node of the crash-free tree.  The game is still worth running: it
     mechanically cross-validates that equivalence (the checker's answer
     must match [Lincheck.check_strong]'s on every E1 construction) and
     exercises the pending-forever histories crashes create.  The
     checker's engine solves it as its crash alphabet: a crash is one
     more move on a node's world, and the node it reaches shares its
     parent's records, since it adds no trace event.

   - [Make(S).wait_free_bound] walks the whole crash-free schedule tree
     and reports the worst steps-per-operation over every complete
     execution: an exhaustive per-workload wait-freedom bound, as
     opposed to [Progress.measure]'s sampled one.

   - [Make(S).find_livelock] refutes lock-freedom by lasso detection:
     drive a candidate process subset round-robin, and when the drive
     window fills with a periodic event-signature block containing no
     completion, certify the stem + cycle as a [Livelock] witness in the
     [slin-witness/v1] shape (verified by [Witness.Make(S).refutes]).

   - [Make(S).fuzz] is the seeded crash fuzzer behind [slin fuzz]: a
     master seed derives per-run schedules and crash plans, every trace
     is checked for linearizability, and a violation is shrunk through
     the witness shrinker into a replayable artifact.  Crashes need no
     special replay support: a crash only removes a process's future
     steps, so the recorded schedule alone reproduces the trace.

   - [agreement_crash_sweep] runs Lemma 12's Algorithm B under a
     canonical family of deterministic schedules crossed with every
     crash plan of at most k-1 processes over a position grid, checking
     k-set agreement's validity, agreement and termination each time. *)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

(* --- crash-aware strong linearizability + progress + fuzzing ---------- *)

module Make (S : Spec.S) = struct
  module L = Lincheck.Make (S)
  module W = Witness.Make (S)

  let op_str o = Format.asprintf "%a" S.pp_op o
  let resp_str r = Format.asprintf "%a" S.pp_resp r

  let event_sig = function
    | Trace.Invoke { proc; op } -> Printf.sprintf "i%d:%s" proc (op_str op)
    | Trace.Return { proc; resp } -> Printf.sprintf "r%d:%s" proc (resp_str resp)
    | Trace.Step { proc; obj; info; noop = _ } ->
        Printf.sprintf "s%d:%s%s" proc obj
          (match info with Some i -> ":" ^ i | None -> "")

  (* ---------------- the crash game ------------------------------------ *)

  type crash_action = Step of int | Crash of int

  let pp_crash_action fmt = function
    | Step p -> Format.pp_print_int fmt p
    | Crash p -> Format.fprintf fmt "!%d" p

  let pp_crash_actions fmt l = List.iter (pp_crash_action fmt) l

  type crash_verdict =
    | Crash_strongly_linearizable of { nodes : int }
    | Crash_not_linearizable of { actions : crash_action list }
    | Crash_not_strongly_linearizable of { actions : crash_action list; nodes : int }
    | Crash_inconclusive of { nodes : int; reason : Lincheck.budget_reason }

  let pp_crash_verdict fmt = function
    | Crash_strongly_linearizable { nodes } ->
        Format.fprintf fmt "strongly linearizable under crashes (%d nodes explored)" nodes
    | Crash_not_linearizable { actions } ->
        Format.fprintf fmt "NOT linearizable under crashes (actions: %a)" pp_crash_actions
          actions
    | Crash_not_strongly_linearizable { actions; nodes } ->
        Format.fprintf fmt "NOT strongly linearizable under crashes (actions: %a; %d nodes)"
          pp_crash_actions actions nodes
    | Crash_inconclusive { nodes; reason } ->
        Format.fprintf fmt "inconclusive under crashes (%s budget, %d nodes)"
          (Lincheck.budget_reason_tag reason)
          nodes

  (* The strong-linearizability game of [Lincheck.check_strong_stats]
     with the adversary's move set enlarged: besides stepping any
     enabled process it may crash one, [crashes] times in total per
     branch.  Crash edges add no trace events, so this decides strong
     linearizability of the crash-extended execution tree.  The engine
     solves it as its crash alphabet ([L.Internal.check_crashes]), whose
     move ids this maps back to actions. *)
  let check_strong_crashes ?max_nodes ?max_depth ?budget_ms ?checkpoint_stride ~crashes
      (prog : (S.op, S.resp) Sim.program) : crash_verdict =
    let actions =
      List.map (fun m -> if m < prog.Sim.procs then Step m else Crash (m - prog.Sim.procs))
    in
    match
      L.Internal.check_crashes ?max_nodes ?max_depth ?budget_ms ?checkpoint_stride ~crashes prog
    with
    | L.Strongly_linearizable { nodes } -> Crash_strongly_linearizable { nodes }
    | L.Not_linearizable { schedule } -> Crash_not_linearizable { actions = actions schedule }
    | L.Not_strongly_linearizable { witness; nodes } ->
        Crash_not_strongly_linearizable { actions = actions witness; nodes }
    | L.Out_of_budget { nodes; reason } -> Crash_inconclusive { nodes; reason }

  (* ---------------- exhaustive wait-freedom bound --------------------- *)

  type wf_report = {
    wf_nodes : int;  (* schedule-tree nodes walked *)
    wf_executions : int;  (* complete (quiescent) executions *)
    wf_truncated : int;  (* leaves cut by the depth bound *)
    wf_budget_hit : bool;  (* node budget stopped the walk *)
    wf_max_steps_per_op : int;  (* worst steps any completed op took *)
  }

  let wait_free_established r = r.wf_truncated = 0 && not r.wf_budget_hit

  let pp_wf_report fmt r =
    Format.fprintf fmt "max %d steps/op over %d executions (%d nodes%s%s)"
      r.wf_max_steps_per_op r.wf_executions r.wf_nodes
      (if r.wf_truncated > 0 then Printf.sprintf ", %d truncated" r.wf_truncated else "")
      (if r.wf_budget_hit then ", budget hit" else "")

  (* Walk the whole crash-free schedule tree; at every quiescent leaf
     record the per-operation step counts of the trace.  The resulting
     maximum is an adversarial bound: no schedule of this workload makes
     any operation take more base-object steps.  A report with
     truncation or a budget hit establishes nothing (the tree has
     executions the walk did not finish).

     The walk descends a spine: a node's first child steps the node's
     world in place, every later child replays its schedule from a
     fresh boot.  A node's world is released once its subtree is done
     (for the first child's chain that is a no-op repeat of the deepest
     node's release). *)
  let wait_free_bound ?(max_nodes = 2_000_000) ?max_depth
      (prog : (S.op, S.resp) Sim.program) : wf_report =
    let nodes = ref 0 in
    let executions = ref 0 in
    let truncated = ref 0 in
    let budget_hit = ref false in
    let max_steps = ref 0 in
    (* [world ()] builds the node's world; it is called only once the
       node is counted within budget. *)
    let rec go sched_rev depth world =
      if !budget_hit then ()
      else begin
        incr nodes;
        if !nodes > max_nodes then budget_hit := true
        else begin
          let w = world () in
          (match Sim.enabled w with
          | [] ->
              incr executions;
              List.iter
                (fun s -> if s > !max_steps then max_steps := s)
                (Progress.op_step_counts (Sim.trace w))
          | _ when (match max_depth with Some d -> depth >= d | None -> false) ->
              incr truncated
          | p0 :: rest ->
              go (p0 :: sched_rev) (depth + 1) (fun () ->
                  Sim.step w p0;
                  w);
              List.iter
                (fun p ->
                  let s = p :: sched_rev in
                  go s (depth + 1) (fun () -> Sim.run_schedule prog (List.rev s)))
                rest);
          Sim.release w
        end
      end
    in
    go [] 0 (fun () -> Sim.run_schedule prog []);
    {
      wf_nodes = !nodes;
      wf_executions = !executions;
      wf_truncated = !truncated;
      wf_budget_hit = !budget_hit;
      wf_max_steps_per_op = !max_steps;
    }

  (* ---------------- lock-freedom via lasso detection ------------------ *)

  type lf_result = {
    lf_candidates : int;  (* (driver set, stem) adversaries tried *)
    lf_livelock : Witness.shape option;  (* verified Livelock certificate *)
  }

  let nonempty_subsets n =
    (* every nonempty subset of 0..n-1 as a sorted list; for larger
       systems fall back to singletons + the full set *)
    if n <= 6 then
      List.init ((1 lsl n) - 1) (fun i ->
          let m = i + 1 in
          List.filter (fun p -> m land (1 lsl p) <> 0) (List.init n Fun.id))
    else List.init n (fun p -> [ p ]) @ [ List.init n Fun.id ]

  (* Refute lock-freedom if possible: for each candidate driver set D,
     first run the processes outside D (round-robin, up to [stem_cap]
     steps — the stem), then schedule only D round-robin for [max_drive]
     steps.  If no operation completes in the whole drive window and the
     window's tail is a repeating (process, event-signature) block, the
     stem + cycle form a lasso; it is returned only if the [Livelock]
     certificate check ([W.refutes]) confirms it.  Finding nothing is
     not a proof of lock-freedom — combine with {!wait_free_bound} (a
     finite fully-walked tree has no infinite execution at all). *)
  let find_livelock ?(max_drive = 240) ?(stem_cap = 64) (prog : (S.op, S.resp) Sim.program) :
      lf_result =
    let n = prog.Sim.procs in
    let candidates = ref 0 in
    let try_driver d : Witness.shape option =
      incr candidates;
      let w = Sim.create ~n in
      prog.Sim.boot w;
      (* stem: give the complement a chance to run (it may fill or drain
         shared state the livelock depends on) *)
      let stem_rev = ref [] in
      let rec stem_loop k =
        if k < stem_cap then
          match List.filter (fun p -> not (List.mem p d)) (Sim.enabled w) with
          | [] -> ()
          | p :: _ ->
              Sim.step w p;
              stem_rev := p :: !stem_rev;
              stem_loop (k + 1)
      in
      stem_loop 0;
      (* drive: round-robin over D, recording per-step signatures *)
      let prev = ref (List.length (Sim.trace w)) in
      let entries = Array.make max_drive (0, [ "" ]) in
      let rec drive t =
        if t >= max_drive then Some t
        else
          match List.filter (fun p -> List.mem p d) (Sim.enabled w) with
          | [] -> None (* drivers finished: they made progress *)
          | dps -> (
              let p = List.nth dps (t mod List.length dps) in
              Sim.step w p;
              let tr = Sim.trace w in
              let events = drop !prev tr in
              prev := List.length tr;
              if List.exists (function Trace.Return _ -> true | _ -> false) events then None
              else begin
                entries.(t) <- (p, List.map event_sig events);
                drive (t + 1)
              end)
      in
      match drive 0 with
      | None -> None
      | Some len ->
          let pending =
            History.of_trace (Sim.trace w)
            |> List.exists (fun r -> not (History.is_complete r))
          in
          if not pending then None
          else
            (* smallest period whose tail covers three repetitions *)
            let rec try_period l =
              if 3 * l > len then None
              else if
                List.for_all
                  (fun i -> entries.(i) = entries.(i + l))
                  (List.init (2 * l) (fun i -> len - (3 * l) + i))
              then Some l
              else try_period (l + 1)
            in
            (match try_period 1 with
            | None -> None
            | Some l ->
                let drive_sched = List.init len (fun i -> fst entries.(i)) in
                let branch = List.rev !stem_rev @ take (len - l) drive_sched in
                let cycle = drop (len - l) drive_sched in
                let shape =
                  { Witness.kind = Witness.Livelock; branch; futures = [ cycle ] }
                in
                (match W.refutes prog shape with Ok true -> Some shape | _ -> None))
    in
    let rec search = function
      | [] -> None
      | d :: rest -> ( match try_driver d with Some s -> Some s | None -> search rest)
    in
    let livelock = search (nonempty_subsets n) in
    { lf_candidates = !candidates; lf_livelock = Option.map (W.shrink prog) livelock }

  (* ---------------- seeded crash fuzzer ------------------------------- *)

  type violation = {
    v_seed : int;  (* the per-run simulator seed *)
    v_crash_after : (int * int) list;
    v_schedule : int list;  (* as executed; replays the trace alone *)
    v_shape : Witness.shape;  (* shrunk Not_linearizable certificate *)
  }

  type fuzz_report = {
    fz_runs : int;
    fz_crashed_runs : int;
    fz_total_steps : int;
    fz_elapsed_ns : int;
    fz_violation : violation option;
    fz_interrupted : bool;
  }

  (* The master [seed] drives everything: per-run simulator seeds and
     crash plans come from one PRNG stream, so a fuzz campaign is a pure
     function of (seed, runs, crash, max_steps).  Each run schedules
     uniformly at random (with at most one injected crash when [crash]),
     and the trace is checked for plain linearizability — under random
     (non-adversarial) scheduling that is the property violations
     actually manifest as.  The first violation stops the campaign and
     is shrunk into a replayable certificate.

     All run configurations are drawn from the PRNG upfront, in exactly
     the order the stop-at-first-violation loop would draw them; [jobs]
     domains then draw indices from a shared cursor.  The campaign
     "stops" at the smallest violating index v — workers abandon
     indices past the current minimum — and the report aggregates runs
     0..v only, so every field except [fz_elapsed_ns] is identical for
     every [jobs] (the first violation is the index-minimal one, not
     the first found in wall time). *)
  let fuzz ~seed ~runs ?(crash = true) ?(max_steps = 2048) ?(shrink = true) ?(jobs = 1)
      ?profiler ?coverage ?interrupt
      (prog : (S.op, S.resp) Sim.program) : fuzz_report =
    let t0 = Obs.now_ns () in
    (* Polled between runs (a run is bounded by [max_steps], so an
       interrupt stops the campaign within one schedule).  An
       uninterrupted campaign takes exactly the historical code path. *)
    let intr () = match interrupt with Some f -> f () | None -> false in
    let rng = Random.State.make [| seed; 0xad5e |] in
    let nruns = max runs 0 in
    let cfgs = Array.make nruns (0, []) in
    for i = 0 to nruns - 1 do
      let run_seed = Random.State.bits rng in
      let crash_after =
        if crash && Random.State.bool rng then
          [ (Random.State.int rng prog.Sim.procs, Random.State.int rng 33) ]
        else []
      in
      cfgs.(i) <- (run_seed, crash_after)
    done;
    let steps_of = Array.make nruns 0 in
    let done_flags = Array.make nruns false in
    let viol_sched = Array.make nruns None in
    let min_viol = Atomic.make max_int in
    let rec note i =
      let cur = Atomic.get min_viol in
      if i < cur && not (Atomic.compare_and_set min_viol cur i) then note i
    in
    (* The campaign body, one call per index, distributed by
       [Steal_pool.parallel_for]'s shared cursor so a straggler schedule
       no longer stalls a whole static stride class.  Indices past the
       current minimal violation are skipped (the campaign "stopped"
       there); per-worker profiler lanes get one solve span for the
       worker's whole share, one work unit per schedule executed (fuzz
       has no tree nodes).  Under coverage each run keeps its trace for
       the in-order fold after the campaign — passive, so the campaign's
       report is unchanged.

       Triage is reduced unconditionally: linearizability depends only
       on the history, which commuting swaps preserve, so a trace whose
       {!Reduct} commutation class a worker already checked CLEAN needs
       no second [check_trace].  Only clean classes are cached —
       violations are always detected, [viol_sched]/[note] fire exactly
       as without the cache, and every report field stays identical for
       every [jobs] (the caches are per-worker, but skipping a clean
       re-check is invisible to the report). *)
    let nworkers = max 1 (min (Steal_pool.effective_workers ~requested:jobs) nruns) in
    let lanes = Array.make nworkers None in
    let run_traces = Array.make (if coverage = None then 0 else nruns) [] in
    let cleans : (int, unit) Hashtbl.t array =
      Array.init nworkers (fun _ -> Hashtbl.create 64)
    in
    Steal_pool.parallel_for ~workers:nworkers ~n:nruns
      ~init:(fun w ->
        let lane = Option.map (fun p -> Prof.lane p ~domain:w) profiler in
        (match lane with
        | Some l -> Prof.begin_span l Prof.Solve ~label:(Printf.sprintf "fuzz w%d" w) ()
        | None -> ());
        lanes.(w) <- lane)
      ~fini:(fun w -> match lanes.(w) with Some l -> Prof.end_span l | None -> ())
      (fun ~worker i ->
        if i <= Atomic.get min_viol && not (intr ()) then begin
          let run_seed, crash_after = cfgs.(i) in
          let w, schedule = Sim.run_random_full ~seed:run_seed ~crash_after ~max_steps prog in
          steps_of.(i) <- List.length schedule;
          (match lanes.(worker) with Some l -> Prof.add_nodes l 1 | None -> ());
          let tr = Sim.trace w in
          if coverage <> None then run_traces.(i) <- tr;
          let fp = Reduct.fp_of_trace tr in
          let clean = cleans.(worker) in
          if not (Hashtbl.mem clean fp) then
            if L.check_trace tr = None then begin
              viol_sched.(i) <- Some schedule;
              note i
            end
            else Hashtbl.add clean fp ();
          done_flags.(i) <- true
        end);
    let first_viol =
      let rec find i =
        if i >= nruns then None else if viol_sched.(i) <> None then Some i else find (i + 1)
      in
      find 0
    in
    (* An interrupted campaign (stopped by the hook with no violation and
       runs left undone) reports partial stats over the runs that actually
       completed — with [jobs > 1] that set need not be an index prefix.
       Completed campaigns keep the historical prefix accounting, byte
       for byte. *)
    let interrupted = first_viol = None && Array.exists not done_flags in
    let fz_runs =
      if interrupted then Array.fold_left (fun n d -> if d then n + 1 else n) 0 done_flags
      else match first_viol with Some v -> v + 1 | None -> nruns
    in
    let crashed_runs = ref 0 in
    let total_steps = ref 0 in
    (if interrupted then
       Array.iteri
         (fun i d ->
           if d then begin
             if snd cfgs.(i) <> [] then incr crashed_runs;
             total_steps := !total_steps + steps_of.(i)
           end)
         done_flags
     else
       for i = 0 to fz_runs - 1 do
         if snd cfgs.(i) <> [] then incr crashed_runs;
         total_steps := !total_steps + steps_of.(i)
       done);
    (* Coverage observes the runs the report counts, one shard, in run
       order: novelty goes to the lowest run reaching a fingerprint and
       speculative runs past the first violation are left out, so the
       coverage report is the same at every [jobs]. *)
    Option.iter
      (fun c ->
        let sh = Coverage.shard c ~domain:0 in
        let counted i = if interrupted then done_flags.(i) else i < fz_runs in
        Array.iteri
          (fun i tr -> if counted i then ignore (Coverage.observe_run sh ~run:i tr))
          run_traces;
        Coverage.note_corpus c ~runs:fz_runs)
      coverage;
    let violation =
      match first_viol with
      | None -> None
      | Some v ->
          let run_seed, crash_after = cfgs.(v) in
          let schedule = Option.get viol_sched.(v) in
          let shape0 =
            { Witness.kind = Witness.Not_linearizable; branch = []; futures = [ schedule ] }
          in
          let shape = if shrink then W.shrink prog shape0 else shape0 in
          Some { v_seed = run_seed; v_crash_after = crash_after; v_schedule = schedule; v_shape = shape }
    in
    {
      fz_runs;
      fz_crashed_runs = !crashed_runs;
      fz_total_steps = !total_steps;
      fz_elapsed_ns = Obs.now_ns () - t0;
      fz_violation = violation;
      fz_interrupted = interrupted;
    }
end

(* --- Algorithm B under crash schedules -------------------------------- *)

type sweep_report = {
  sw_k : int;
  sw_runs : int;
  sw_crashed_runs : int;
  sw_nonterminating : int;  (* runs that hit the step cap *)
  sw_max_distinct : int;  (* most distinct decisions in any run *)
  sw_violations : string list;  (* empty = validity/agreement/termination all held *)
}

let pp_sweep_report fmt r =
  Format.fprintf fmt
    "%d runs (%d with crashes): max %d distinct decisions (k=%d), %d violations%s"
    r.sw_runs r.sw_crashed_runs r.sw_max_distinct r.sw_k
    (List.length r.sw_violations)
    (if r.sw_nonterminating > 0 then Printf.sprintf ", %d hit the step cap" r.sw_nonterminating
     else "")

(* Deterministic scheduling policies: round-robin rotations, fixed
   priority orders and a few seeded-random streams.  Each policy is
   generative (fresh state per run). *)
let policies n =
  let rr r =
    ( Printf.sprintf "rr+%d" r,
      fun () t ps -> List.nth ps ((t + r) mod List.length ps) )
  in
  let prio r =
    ( Printf.sprintf "prio+%d" r,
      fun () _ ps ->
        let order = List.init n (fun i -> (i + r) mod n) in
        List.find (fun p -> List.mem p ps) order )
  in
  let rand s =
    ( Printf.sprintf "rand%d" s,
      fun () ->
        let rng = Random.State.make [| s; 0x5eed |] in
        fun _ ps -> List.nth ps (Random.State.int rng (List.length ps)) )
  in
  List.init n rr
  @ List.init n prio
  @ List.map (fun (name, mk) -> (name, fun () -> mk ())) [ rand 1; rand 2; rand 3 ]

(* All crash plans with at most [max_crashes] distinct processes, each
   crashed at a position from [positions] (total-step counts). *)
let crash_plans ~n ~max_crashes ~positions =
  let rec choose k from =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun p ->
          List.map (fun rest -> p :: rest) (choose (k - 1) (List.filter (fun q -> q > p) from)))
        from
  in
  let proc_sets =
    List.concat_map (fun k -> choose k (List.init n Fun.id)) (List.init max_crashes (fun i -> i + 1))
  in
  let rec assign = function
    | [] -> [ [] ]
    | p :: rest ->
        List.concat_map
          (fun plan -> List.map (fun pos -> (p, pos) :: plan) positions)
          (assign rest)
  in
  [] :: List.concat_map assign proc_sets

(* Run Algorithm B ([Agreement.program]) under every (policy, crash
   plan) pair and check Lemma 12's contract each time: validity (every
   decision is some input), agreement (at most [k] distinct decisions)
   and termination (every surviving process decides).  [max_crashes]
   defaults to [k - 1] — the fault level k-set agreement must tolerate. *)
let agreement_crash_sweep ~make ~ordering ~inputs ~k ?max_crashes
    ?(positions = [ 0; 1; 3; 7; 15; 31 ]) ?(max_steps = 50_000) ?(jobs = 1) () : sweep_report =
  let n = Array.length inputs in
  let max_crashes = match max_crashes with Some c -> c | None -> max 0 (k - 1) in
  (* The (policy, plan) grid is fixed upfront; runs are independent
     (fresh policy state, decisions array and world per run), so [jobs]
     domains can grab grid indices dynamically and the merge — in grid
     order — reproduces the sequential report for every [jobs]. *)
  let pairs =
    Array.of_list
      (List.concat_map
         (fun pol -> List.map (fun plan -> (pol, plan)) (crash_plans ~n ~max_crashes ~positions))
         (policies n))
  in
  let nruns = Array.length pairs in
  (* Analysis reuse under reduction: two runs whose traces fall in the
     same {!Reduct} commutation class have identical histories, hence
     identical decision arrays, so validity / agreement / termination
     and the distinct-decision count come out the same.  Violation-free
     terminated runs cache [fp -> distinct] per worker; a later
     class-mate reuses the count and skips re-analysis.  Nothing with a
     violation (or a step-cap hit) is ever cached, so no violation can
     be masked, and since class-mates reproduce the same analysis the
     merged report is structurally identical for every [jobs]. *)
  let run_one cache ((pol_name, mk_choose), plan) =
    let violations = ref [] in
    let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let choose = mk_choose () in
    let decisions = Array.make n None in
    let prog = Agreement.program ~make ~ordering ~inputs ~decisions in
    let w = Sim.create ~n:prog.Sim.procs in
    prog.Sim.boot w;
    let total = ref 0 in
    let rec loop () =
      List.iter (fun (p, at) -> if !total >= at then Sim.crash w p) plan;
      match Sim.enabled w with
      | [] -> true
      | ps when !total < max_steps ->
          Sim.step w (choose !total ps);
          incr total;
          loop ()
      | _ -> false
    in
    let terminated = loop () in
    let plan_str =
      String.concat "," (List.map (fun (p, at) -> Printf.sprintf "p%d@%d" p at) plan)
    in
    let ctx = Printf.sprintf "policy %s, crashes [%s]" pol_name plan_str in
    let distinct = ref 0 in
    if not terminated then violate "%s: did not terminate within %d steps" ctx max_steps
    else begin
      match Hashtbl.find_opt cache (Reduct.fp_of_trace (Sim.trace w)) with
      | Some d -> distinct := d
      | None ->
          let outcome = { Agreement.decisions; inputs } in
          distinct := List.length (Agreement.distinct_decisions outcome);
          if not (Agreement.valid outcome) then violate "%s: validity violated" ctx;
          if not (Agreement.agreement ~k outcome) then
            violate "%s: agreement violated (%d distinct decisions, k=%d)" ctx !distinct k;
          Array.iteri
            (fun p d ->
              if Sim.finished w p && d = None then
                violate "%s: p%d terminated without deciding" ctx p)
            decisions;
          if !violations = [] then
            Hashtbl.add cache (Reduct.fp_of_trace (Sim.trace w)) !distinct
    end;
    (plan <> [], not terminated, !distinct, List.rev !violations)
  in
  let results = Array.make nruns (false, false, 0, []) in
  let workers = Steal_pool.effective_workers ~requested:jobs in
  let caches : (int, int) Hashtbl.t array =
    Array.init (max 1 workers) (fun _ -> Hashtbl.create 64)
  in
  Steal_pool.parallel_for ~workers ~n:nruns
    (fun ~worker i -> results.(i) <- run_one caches.(worker) pairs.(i));
  let crashed_runs = ref 0 in
  let nonterminating = ref 0 in
  let max_distinct = ref 0 in
  let violations = ref [] in
  Array.iter
    (fun (crashed, nonterm, distinct, vs) ->
      if crashed then incr crashed_runs;
      if nonterm then incr nonterminating;
      if distinct > !max_distinct then max_distinct := distinct;
      violations := List.rev_append vs !violations)
    results;
  {
    sw_k = k;
    sw_runs = nruns;
    sw_crashed_runs = !crashed_runs;
    sw_nonterminating = !nonterminating;
    sw_max_distinct = !max_distinct;
    sw_violations = List.rev !violations;
  }
