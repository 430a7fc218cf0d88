(** Slin_adversary: crash-fault injection, mechanical progress checking
    and fuzzing for the strong-linearizability checker.

    The paper's positive theorems promise {e wait-free} / {e lock-free}
    strong linearizability — guarantees that only mean something against
    an adversary that schedules badly and crashes processes.  This
    module is that adversary, made mechanical:

    - {!Make.check_strong_crashes}: the checker's game on the execution
      tree extended with crash edges (a crash permanently removes an
      enabled process; it adds no trace events, so the crash-extended
      tree is strongly linearizable iff the crash-free one is — the game
      cross-validates that equivalence and exercises pending-forever
      histories);
    - {!Make.wait_free_bound}: exhaustive worst-case steps-per-operation
      over the whole crash-free schedule tree;
    - {!Make.find_livelock}: lock-freedom refutation by lasso detection,
      certified as a [Livelock] witness in the [slin-witness/v1] shape;
    - {!Make.fuzz}: the seeded crash fuzzer behind [slin fuzz];
    - {!agreement_crash_sweep}: Lemma 12's Algorithm B under every
      ≤(k−1)-crash plan over a canonical schedule family, checking k-set
      agreement's validity, agreement and termination. *)

module Make (S : Spec.S) : sig
  (** {1 Crash-schedule enumeration} *)

  (** One adversary move: step an enabled process, or crash one. *)
  type crash_action = Step of int | Crash of int

  val pp_crash_actions : Format.formatter -> crash_action list -> unit
  (** Compact rendering: step as the process id, crash as [!id]. *)

  type crash_verdict =
    | Crash_strongly_linearizable of { nodes : int }
        (** A prefix-closed linearization function exists on the whole
            crash-extended tree. *)
    | Crash_not_linearizable of { actions : crash_action list }
        (** Some crash execution is not even linearizable. *)
    | Crash_not_strongly_linearizable of { actions : crash_action list; nodes : int }
        (** No prefix-closed choice exists; [actions] is the deepest
            dead end. *)
    | Crash_inconclusive of { nodes : int; reason : Lincheck.budget_reason }

  val pp_crash_verdict : Format.formatter -> crash_verdict -> unit

  val check_strong_crashes :
    ?max_nodes:int ->
    ?max_depth:int ->
    ?budget_ms:int ->
    ?checkpoint_stride:int ->
    crashes:int ->
    (S.op, S.resp) Sim.program ->
    crash_verdict
  (** Solve the strong-linearizability game on [prog]'s execution tree
      extended with up to [crashes] crash edges per branch.  Because a
      crash edge changes no history, the verdict must agree with
      [Lincheck.check_strong] on the same program — a mechanical
      cross-validation of the crash-robustness of every SL verdict.
      [max_nodes] defaults to 2M (crash edges enlarge the tree ~(n+1)×
      per allowed crash).

      The checker's engine solves it, with crash moves as its extra
      alphabet ([Lincheck.Make(S).Internal.check_crashes]), at one
      worker: each node derives from its parent's in O(trace delta),
      and a crash adds no trace event, so a crash child shares its
      parent's records and loses only the crashed process from its
      enabled set.  Every [checkpoint_stride]-th (default 16, clamped
      to >= 1) tree level is re-derived from a full replay, crashes
      included, and compared — a pure cross-check, results are
      identical for every stride. *)

  (** {1 Wait-freedom, exhaustively} *)

  type wf_report = {
    wf_nodes : int;  (** schedule-tree nodes walked *)
    wf_executions : int;  (** complete (quiescent) executions *)
    wf_truncated : int;  (** leaves cut by the depth bound *)
    wf_budget_hit : bool;  (** the node budget stopped the walk *)
    wf_max_steps_per_op : int;  (** worst steps any completed op took *)
  }

  val wait_free_established : wf_report -> bool
  (** True when the walk was exhaustive (no truncation, no budget hit),
      making [wf_max_steps_per_op] an adversarial wait-freedom bound for
      the workload: no schedule makes any operation take more steps. *)

  val pp_wf_report : Format.formatter -> wf_report -> unit

  val wait_free_bound :
    ?max_nodes:int -> ?max_depth:int -> (S.op, S.resp) Sim.program -> wf_report
  (** Walk every crash-free schedule of [prog] (the full schedule tree,
      [max_nodes] default 2M) and report the worst per-operation step
      count over all complete executions.  The walk steps one world
      down each first child and replays only later siblings. *)

  (** {1 Lock-freedom refutation (lasso detection)} *)

  type lf_result = {
    lf_candidates : int;  (** (driver set, stem) adversaries tried *)
    lf_livelock : Witness.shape option;
        (** a shrunk, verified [Livelock] certificate, if one was found *)
  }

  val find_livelock :
    ?max_drive:int -> ?stem_cap:int -> (S.op, S.resp) Sim.program -> lf_result
  (** Try to refute lock-freedom: for every candidate driver set, run
      the complement briefly (the stem) then drive the set round-robin
      for [max_drive] steps.  A drive window with no completed operation
      whose tail repeats a (process, event-signature) block is a lasso;
      it is returned only if [Witness.Make(S).refutes] confirms the
      [Livelock] certificate.  An empty result is {e not} a lock-freedom
      proof — combine with {!wait_free_bound} (an exhaustively walked
      finite tree has no infinite execution at all). *)

  (** {1 Seeded crash fuzzing} *)

  type violation = {
    v_seed : int;  (** the per-run simulator seed *)
    v_crash_after : (int * int) list;  (** the injected crash plan *)
    v_schedule : int list;
        (** the executed schedule; replays the trace on its own (a crash
            only removes future steps of a process) *)
    v_shape : Witness.shape;  (** shrunk [Not_linearizable] certificate *)
  }

  type fuzz_report = {
    fz_runs : int;
    fz_crashed_runs : int;
    fz_total_steps : int;
    fz_elapsed_ns : int;
    fz_violation : violation option;
    fz_interrupted : bool;
        (** the [interrupt] hook stopped the campaign before all runs
            completed (and no violation was found); stats cover only the
            completed runs *)
  }

  val fuzz :
    seed:int ->
    runs:int ->
    ?crash:bool ->
    ?max_steps:int ->
    ?shrink:bool ->
    ?jobs:int ->
    ?profiler:Prof.t ->
    ?coverage:Coverage.t ->
    ?interrupt:(unit -> bool) ->
    (S.op, S.resp) Sim.program ->
    fuzz_report
  (** Run up to [runs] random schedules derived from the master [seed]
      (per-run seeds and crash plans come from one PRNG stream, so a
      campaign is a pure function of its arguments), injecting at most
      one crash per run when [crash] (default true), and check every
      trace for linearizability.  The first violation stops the campaign
      and is shrunk (unless [shrink:false]) into a replayable
      [slin-witness/v1] certificate.

      [jobs] (default 1) executes runs on that many domains.  Run
      configurations are pre-drawn in sequential order and "first
      violation" means the index-minimal one, so every report field
      except [fz_elapsed_ns] is identical for every [jobs] value.

      [coverage] records the trace-prefix fingerprints and access pairs
      of the runs the report counts, in run order after the campaign,
      attributing novel fingerprints to the lowest run that reached
      them; passive — the report is unchanged — and, like the report,
      identical for every [jobs] value.

      [interrupt] is polled between runs; once it returns [true] the
      campaign stops, setting [fz_interrupted] and reporting partial
      stats over the completed runs (the CLI's signal handlers use
      this — an uninterrupted campaign's report is unchanged). *)
end

(** {1 Algorithm B under crash schedules} *)

type sweep_report = {
  sw_k : int;
  sw_runs : int;
  sw_crashed_runs : int;
  sw_nonterminating : int;  (** runs that hit the step cap *)
  sw_max_distinct : int;  (** most distinct decisions in any run *)
  sw_violations : string list;
      (** one line per violated property; empty when validity, agreement
          and termination all held in every run *)
}

val pp_sweep_report : Format.formatter -> sweep_report -> unit

val agreement_crash_sweep :
  make:((module Runtime_intf.S) -> ('op, 'resp) K_ordering.instance) ->
  ordering:('op, 'resp) K_ordering.witness ->
  inputs:int array ->
  k:int ->
  ?max_crashes:int ->
  ?positions:int list ->
  ?max_steps:int ->
  ?jobs:int ->
  unit ->
  sweep_report
(** Run Lemma 12's Algorithm B under a canonical deterministic schedule
    family (round-robin rotations, fixed priority orders, seeded random
    streams) crossed with {e every} crash plan of at most [max_crashes]
    (default [k - 1]) distinct processes, each crashed at a total-step
    position from [positions].  Each run checks k-set agreement's
    contract: validity (decisions are inputs), agreement (at most [k]
    distinct decisions) and termination (every surviving process
    decides).  [jobs] (default 1) executes the run grid on that many
    domains; runs are independent and merged in grid order, so the
    report is identical for every [jobs] value. *)
