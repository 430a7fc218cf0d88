(** Span-based engine profiler ([slin-profile/v1]).

    A {!t} collects, for one run (a [check_strong_stats] solve, a fuzz
    campaign, or a whole experiment), one {!lane} per domain.  Each lane
    records a timeline of phase spans (solve / merge / cross-check; idle
    is synthesized from the gaps at report time), per-lane work counters
    (nodes, cache hits, a depth histogram), candidate-kill attribution,
    and per-column node counts for the parallel engine.

    Thread-safety contract: {!lane} (creation/lookup) and {!finish} are
    safe from any domain; everything that takes a [lane] mutates only
    that lane and must be called from the single domain that owns it —
    which is exactly how the engine uses it (one lane per worker
    domain).  The whole layer is passive: a profiled run's verdicts,
    node counts and outputs are byte-identical to an unprofiled one. *)

(** {1 Phases and kill reasons} *)

type phase = Solve | Merge | Idle | Cross_check | Steal | Share
(** [Steal] covers a successful steal transfer on the thief's lane;
    [Share] covers canonical result absorption (a completed column's
    counters landing on the completing lane).  Both are busy time. *)

val phase_tag : phase -> string
(** ["solve"], ["merge"], ["idle"], ["cross_check"], ["steal"],
    ["share"] — the JSON tags. *)

(** Why a candidate linearization died (the game's backtracking,
    attributed at the kill site):
    - [Kill_mismatch]: the inherited prefix was invalidated by a new
      response (a validate failure at a child);
    - [Kill_dead_end]: a child node admitted no valid extension at all;
    - [Kill_futures]: a deeper descendant refuted every extension — the
      candidate survived its children's validation but not their futures;
    - [Kill_budget]: exploration stopped by a budget while the candidate
      was still live;
    - [Kill_pruned]: the partial-order-reduction memo answered for the
      subtree — the stored kill of the twin node, re-attributed here so
      reduced runs still account for every candidate death. *)
type kill_reason = Kill_mismatch | Kill_dead_end | Kill_futures | Kill_budget | Kill_pruned

val kill_tag : kill_reason -> string
(** ["response_mismatch"], ["dead_end"], ["futures_refuted"],
    ["budget"], ["pruned"]. *)

val kill_index : kill_reason -> int
(** Position of a reason in {!all_kills} — the index convention for
    {!add_kills} vectors. *)

val all_kills : kill_reason list

(** {1 Collectors} *)

type t
(** A whole-run profile: t0, lanes, finish time. *)

type lane
(** Per-domain recorder.  Single-owner: only the owning domain may write
    to it. *)

val create : ?clock:(unit -> int) -> unit -> t
(** Start a profile at [clock ()] (default {!Obs.now_ns} — the injectable
    clock exists for deterministic tests). *)

val finish : t -> unit
(** Pin the profile's end time (idempotent: the first call wins).
    Reports built before [finish] use "now" as the end. *)

val lane : t -> domain:int -> lane
(** The lane for [domain], created on first use.  Safe from any domain. *)

val lanes : t -> lane list
(** All lanes, sorted by domain index. *)

(** {1 Recording (owner domain only)} *)

val begin_span : lane -> phase -> ?label:string -> unit -> unit
(** Open a span now.  At most one span is open per lane; opening over an
    open span closes it first. *)

val end_span : lane -> unit
(** Close the open span (no-op if none), accumulating its duration into
    the lane's per-phase totals and, capacity permitting, its timeline. *)

val note_span : lane -> phase -> ?label:string -> start_ns:int -> dur_ns:int -> unit -> unit
(** Record a span with explicit absolute times (tests; pre-measured
    sections). *)

val cross_checked : ?alone:bool -> lane -> start_ns:int -> stop_ns:int -> unit
(** One anchored cross-check replay: always accumulated into the lane's
    cross-check total; entered into the timeline only when it is long
    (>= 100 us) — the "long anchored replay" case worth seeing.  By
    default it is nested in a [Solve] span whose time already holds it;
    with [~alone:true] (default false) it ran as a task of its own, and
    its time is added to the lane's solve total too, so busy time
    includes it. *)

val fresh : lane -> depth:int -> unit
(** One fresh node at [depth]: bumps the node count and the depth
    histogram (clamped to the last bucket). *)

val hit : lane -> unit
(** One node-cache hit. *)

val add_nodes : lane -> int -> unit
(** Bulk work counter for non-tree engines (fuzz: one unit per schedule
    executed) and for canonical absorption of a completed column's node
    total by the stealing engine. *)

val add_hits : lane -> int -> unit
(** Bulk cache-hit absorption (stealing engine, column completion). *)

val add_depth_hist : lane -> int array -> unit
(** Pointwise-add a depth histogram into the lane's (extra source
    buckets beyond the lane's 64 are dropped). *)

val add_kills : lane -> int array -> unit
(** Pointwise-add a kill-attribution vector (indexed like
    {!all_kills}). *)

val kill : lane -> kill_reason -> unit

val prune : lane -> unit
(** One subtree answered from the reduction memo ([--reduce]) instead of
    being re-explored: bumps the lane's prune counter (reported as
    [prunes] in lanes and totals). *)

val add_prunes : lane -> int -> unit
(** Bulk prune-count absorption (stealing engine, column completion). *)

val discard : lane -> int -> unit
(** [discard l n] records [n] executed nodes that canonical resolution
    threw away: a forked task slot after its group's first failing
    child, or a column after the one that stopped the run.  Reported run-wide as
    [totals.discarded_nodes]; 0 at one worker, which never speculates.
    Lanes absorb a column's nodes when it finishes, so a column that
    finishes and is then left out by the merge is in both counts. *)

val note_column : lane -> col:int -> proc:int -> nodes:int -> outcome:string -> unit
(** One parallel column solved (or abandoned) on this lane. *)

(** {1 Reports} *)

val wall_ns : t -> int

val lane_nodes : lane -> int

val lane_domain : lane -> int

val lane_phase_ns : t -> lane -> phase -> int
(** Accumulated time per phase.  [Solve] excludes the nested cross-check
    time; [Idle] is the wall time not covered by any recorded span
    (clamped at 0) — which is why the profile is needed. *)

val accounted_pct : t -> float
(** Fraction of [lanes * wall] covered by spans + synthesized idle, as a
    percentage.  By construction close to 100; below only if a lane's
    recorded spans overlap or run past [finish]. *)

val to_json : t -> meta:(string * Obs_json.t) list -> Obs_json.t
(** The versioned [slin-profile/v1] report.  [meta] fields (object,
    command, jobs, ...) are spliced in after the [schema] field. *)

val validate : Obs_json.t -> (unit, string) result
(** Structural check of a [slin-profile/v1] document: schema tag,
    totals, and per-lane fields with consistent types.  Used by tests
    and by [slin stats diff]. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable ASCII summary: totals line, per-lane phase breakdown
    (percent of wall), kill attribution, and per-column node counts. *)

val to_trace : t -> Obs_trace.t -> unit
(** Add the profile to a Chrome trace, as an ["engine profiler"] process
    (pid 2) with one thread lane per domain carrying its solve / merge /
    cross-check slices plus synthesized idle slices, openable at
    ui.perfetto.dev. *)
