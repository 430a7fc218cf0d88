(** Work-stealing task pool for the exploration engines.

    A {!t} owns one deque per worker.  Owners push and pop at the bottom
    (LIFO — a single worker therefore executes forked tasks in exact
    depth-first order, so [Lincheck]'s one-worker pool is its
    depth-first walk); thieves
    steal {e half} of a victim's deque from the top (the oldest, largest
    subtrees), with the victim chosen by a seeded pseudo-random round
    robin so steal storms do not synchronize.

    Tasks are [worker -> unit] closures: a task learns which worker is
    executing it so it can push follow-up work onto that worker's deque
    and record profiler spans on that worker's lane.  Besides the
    deques, the pool has one shared FIFO queue ({!push_shared}) for
    order-free work that any worker may run, such as [Lincheck]'s anchor
    audits.  Blocking joins are cooperative: {!help_until} runs queued
    work (own deque first, then the shared queue, then steals) until the
    caller's predicate holds, so a worker waiting on forked children is
    never idle while runnable work exists.

    The pool makes no determinism promises by itself — callers get
    determinism by merging task results in a canonical order (see
    [Lincheck]'s schedule-prefix merge). *)

type t

val create :
  workers:int ->
  ?seed:int ->
  ?on_steal:(thief:int -> victim:int -> stolen:int -> dur_ns:int -> unit) ->
  unit ->
  t
(** A pool with [workers] deques (clamped to >= 1).  [seed] (default 0)
    drives every worker's victim-selection stream — same seed, same
    steal attempts modulo timing.  [on_steal] observes each successful
    steal (called on the thief's domain, after the transfer; [dur_ns]
    is the measured duration of the successful transfer, for steal-span
    profiling). *)

val workers : t -> int

val push : t -> worker:int -> (int -> unit) -> unit
(** Push a task on the bottom of [worker]'s deque.  Must be called from
    the domain currently acting as [worker]. *)

val push_shared : t -> (int -> unit) -> unit
(** Push a task on the bottom of the shared queue.  Any domain may call
    it.  Workers take shared tasks oldest first, and each runs once. *)

val help_until : t -> worker:int -> (unit -> bool) -> unit
(** Run tasks as [worker] until [done_ ()] holds: pop the bottom of the
    own deque; when empty, take the oldest task of the shared queue;
    when that is empty too, try to steal half of a random victim's
    deque; when nothing is runnable, spin politely
    ([Domain.cpu_relax]).  A worker at a fork point therefore runs its
    own children before shared work, and an idle worker runs shared
    work before it steals.  The
    predicate is re-checked between tasks, so it must eventually be made
    true by some task (typically an atomic join counter reaching 0). *)

val run : t -> (int -> unit) -> unit
(** [run pool main] spawns [workers pool - 1] domains and runs [main
    worker] on each of them plus the calling domain (as worker 0),
    joining them all before returning.  [main] is usually
    [fun w -> help_until pool ~worker:w all_done]. *)

(** {1 Worker capping}

    Domains beyond the machine's core count are a pessimization for this
    CPU-bound engine (time-slicing one core between speculative domains
    is exactly the `-j 4` slowdown this module exists to fix), so
    callers cap the requested [--jobs] at the hardware parallelism. *)

val hardware_domains : unit -> int
(** The effective hardware parallelism: [SLIN_DOMAIN_CAP] (read from the
    environment on every call, so tests can override it) when set to a
    positive integer, else [Domain.recommended_domain_count ()]. *)

val effective_workers : requested:int -> int
(** [min requested (hardware_domains ())], clamped to >= 1. *)

(** {1 Parallel for}

    Dynamic index distribution for embarrassingly-parallel loops (fuzz
    campaigns, crash sweeps): workers grab the next undone index from a
    shared cursor, so one slow iteration no longer stalls a whole static
    stride class.  Results keyed by index stay deterministic. *)

val parallel_for :
  workers:int ->
  n:int ->
  ?init:(int -> unit) ->
  ?fini:(int -> unit) ->
  (worker:int -> int -> unit) -> unit
(** Run [body ~worker i] for every [i] in [0 .. n-1], distributed over
    [workers] domains via an atomic cursor.  [init w] / [fini w] run on
    each participating worker's own domain before its first index and
    after its last (per-worker profiler lanes, coverage shards).  With
    [workers <= 1] this is the plain loop
    [init 0; for i = 0 to n-1 do body ~worker:0 i done; fini 0] on the
    calling domain, so results are in index order. *)
