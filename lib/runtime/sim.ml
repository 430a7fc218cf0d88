(* Deterministic effect-based simulator.

   Each process is a fiber.  [access] performs the [Suspend] effect before
   applying its state transition, so one resume = one atomic step; the
   scheduler (the caller of [step]) decides the interleaving.  Within a
   resume, the fiber also runs all its local computation up to the next
   access — local computation is free, exactly as in the paper's model
   where only base-object operations are steps.

   A process acts only through its accesses, so its future is a function
   of the responses it has received.  A response automaton caches that
   function: a position is a response history, and the edge for a
   response stores the events the process emits before its next access,
   and that access.  A world booted from an automaton ([boot_cached])
   holds no fiber: it applies each access (object, info, transition) to
   its own object store and follows the cached edge.  A missing edge is
   filled by a driver, a world in which one process's fiber runs alone:
   its [access] hands the access over with the [Access] effect and
   receives the recorded response instead of applying it. *)

exception Invalid_schedule of string
exception Nondeterministic of string

(* Global, opt-in metrics aggregated across every world (the checker
   boots one world per explored schedule, so per-world counts are
   useless for exploration-wide totals).  Gated on [enabled] so the
   default cost per access is one load-and-branch; when enabled the
   counts are still deterministic — they never influence scheduling. *)
module Metrics = struct
  let enabled = ref false

  (* Per-domain shards (Domain.DLS): a count only ever touches the
     calling domain's own shard, so concurrent simulations neither
     contend on a lock nor lose increments — the parallel checker boots
     worlds from several domains at once.  Each shard registers itself
     on first use; [snapshot] merges across shards and [reset] clears
     them, and both must run while no other domain is simulating (the
     engine joins its workers before reporting, so this holds at every
     call site).  Totals are fields, and the per-object and per-kind
     tables are keyed by the bare name, so a counted access builds no
     key string: [snapshot] adds the "access.obj." and "access.kind."
     prefixes once per distinct name.  All call sites are gated on
     [enabled], so the unobserved fast path never touches any of this. *)
  type shard = {
    mutable accesses : int;
    mutable steps : int;
    mutable boots : int;
    mutable crashes : int;
    mutable misses : int;
    by_obj : (string, int ref) Hashtbl.t;
    by_kind : (string, int ref) Hashtbl.t;
  }

  let shards_lock = Mutex.create ()

  let shards : shard list ref = ref []

  let shard_key =
    Domain.DLS.new_key (fun () ->
        let t =
          {
            accesses = 0;
            steps = 0;
            boots = 0;
            crashes = 0;
            misses = 0;
            by_obj = Hashtbl.create 64;
            by_kind = Hashtbl.create 16;
          }
        in
        Mutex.lock shards_lock;
        shards := t :: !shards;
        Mutex.unlock shards_lock;
        t)

  let shard () = Domain.DLS.get shard_key

  let bump table key =
    match Hashtbl.find_opt table key with
    | Some r -> incr r
    | None -> Hashtbl.add table key (ref 1)

  let step () =
    let t = shard () in
    t.steps <- t.steps + 1

  let boot () =
    let t = shard () in
    t.boots <- t.boots + 1

  let crash () =
    let t = shard () in
    t.crashes <- t.crashes + 1

  let miss () =
    let t = shard () in
    t.misses <- t.misses + 1

  let access obj info =
    let t = shard () in
    t.accesses <- t.accesses + 1;
    bump t.by_obj obj;
    match info with Some kind -> bump t.by_kind kind | None -> ()

  let reset () =
    Mutex.lock shards_lock;
    List.iter
      (fun t ->
        t.accesses <- 0;
        t.steps <- 0;
        t.boots <- 0;
        t.crashes <- 0;
        t.misses <- 0;
        Hashtbl.reset t.by_obj;
        Hashtbl.reset t.by_kind)
      !shards;
    Mutex.unlock shards_lock

  let snapshot () =
    Mutex.lock shards_lock;
    let merged : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
    let add k n =
      if n > 0 then
        match Hashtbl.find_opt merged k with
        | Some acc -> acc := !acc + n
        | None -> Hashtbl.add merged k (ref n)
    in
    List.iter
      (fun t ->
        add "access.total" t.accesses;
        add "step.total" t.steps;
        add "world.boot" t.boots;
        add "crash" t.crashes;
        add "automaton.miss" t.misses;
        Hashtbl.iter (fun k r -> add ("access.obj." ^ k) !r) t.by_obj;
        Hashtbl.iter (fun k r -> add ("access.kind." ^ k) !r) t.by_kind)
      !shards;
    Mutex.unlock shards_lock;
    List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) merged [])
end

(* A base object.  Its state lives in the cell in a private world; a
   driver never applies an access, so its cells keep their initial
   states; a cached world keeps states in its store, by [slot].  Objects
   created at boot are numbered in creation order, which every boot of
   a program repeats; an object created inside a process is known by
   its name. *)
type cell = { mutable state : Obj.t; name : string; slot : int }

(* An access as the process hands it over: [f] is the transition at the
   object's own types, seen through [Obj.t]. *)
type access = { cell : cell; info : string option; f : Obj.t -> Obj.t * Obj.t }

(* A write-once memory: numbered like boot-time objects; its table is
   used by private worlds only. *)
type mem = { mid : int; table : (int, Obj.t) Hashtbl.t }

(* A cached world's write-once memories: one persistent map keyed by
   (memory, key), so a copy of the world shares it. *)
module Mem_map = Map.Make (struct
  type t = int * int

  let compare ((m : int), (k : int)) (m', k') = if m = m' then compare k k' else compare m m'
end)

(* A private process suspends at its next access with [Suspend] and
   applies the access itself once resumed; a driven process hands the
   access, or a lookup, to its driver and waits for the input. *)
type _ Effect.t +=
  | Suspend : unit Effect.t
  | Access : access -> Obj.t Effect.t
  | Lookup : mem * int -> Obj.t Effect.t

(* No value: what a lookup of a key never published answers, and the
   state of a cached world's object before its first access. *)
let missing = Obj.repr (ref ())

(* What a process does at an automaton position. *)
type next =
  | Steps_on of access  (* its next access; the world grants it *)
  | Looks_up of int * int  (* a lookup of (memory, key), answered at once *)
  | Done
  | Raised of exn  (* its body raised [exn] *)

type ('op, 'resp) node = {
  up : ('op, 'resp) node option;  (* the parent position; [None] at a root *)
  input : Obj.t;  (* the response or lookup result that led here from [up] *)
  raised : bool;  (* [input] is an exception the access raised *)
  events : ('op, 'resp) Trace.event list;  (* emitted on arrival, in order *)
  publishes : (int * int * Obj.t) list;  (* (memory, key, value), in order *)
  next : next;
  kids : ('op, 'resp) node list Atomic.t;
  changed : ('op, 'resp) Trace.event;  (* the [Step] event of [next]'s access... *)
  kept : ('op, 'resp) Trace.event;  (* ...and of that access when it is a no-op *)
}

type ('op, 'resp) proc =
  | Absent
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Driven of next * (Obj.t, unit) Effect.Deep.continuation  (* drivers: waits on [next] *)
  | Fresh  (* cached world: spawned, not yet stepped *)
  | At_node  (* cached world: about to take the access of its node in [at] *)
  | Running  (* transient marker while a resume is in progress *)
  | Finished
  | Crashed
  | Released  (* suspended when its world was released; its stack is freed *)

type ('op, 'resp) t = {
  procs : int;
  fibers : ('op, 'resp) proc array;
  steps : int array;
  mutable current : int;  (* process being resumed; -1 outside [step] *)
  mutable rev_trace : ('op, 'resp) Trace.event list;
  mutable trace_n : int;  (* List.length rev_trace, maintained incrementally *)
  mutable plan : int list;  (* rest of the schedule being replayed; [] outside [replay] *)
  kind : ('op, 'resp) kind;
  counted : bool;  (* feeds [Metrics] (steps, accesses, crashes) *)
  mutable n_objs : int;  (* boot-time objects created so far *)
  mutable n_mems : int;  (* write-once memories created so far *)
  mutable store : Obj.t array;  (* cached worlds: object states by slot *)
  mutable mems : Obj.t Mem_map.t;  (* cached worlds: published values *)
  mutable at : ('op, 'resp) node array;  (* cached worlds: each process's position *)
  mutable log : int list;  (* cached worlds: steps (p) and crashes (-p-1), newest first *)
  mutable out : (int * int * Obj.t) list;  (* drivers: publishes since the last resume *)
}

and ('op, 'resp) kind =
  | Private
  | Driver of ('op, 'resp) automaton
  | Cached of ('op, 'resp) automaton

and ('op, 'resp) automaton = {
  n_procs : int;
  boot : ('op, 'resp) t -> unit;
  spawned : bool array;
  objs_at_boot : int;
  mems_at_boot : int;
  roots : ('op, 'resp) node option Atomic.t array;
  lock : Mutex.t;  (* guards [names], [next_slot] and [drivers] *)
  names : (string, int) Hashtbl.t;  (* objects created inside a process *)
  mutable next_slot : int;
  drivers : (int, ('op, 'resp) driver option array) Hashtbl.t;  (* by domain *)
  placeholder : ('op, 'resp) node;  (* fills [at] before a process starts *)
}

(* One process's fiber, running alone in its own world [dw], suspended
   at automaton position [pos]. *)
and ('op, 'resp) driver = { dw : ('op, 'resp) t; mutable pos : ('op, 'resp) node }

let make_world ~n ~kind ~counted =
  {
    procs = n;
    fibers = Array.make n Absent;
    steps = Array.make n 0;
    current = -1;
    rev_trace = [];
    trace_n = 0;
    plan = [];
    kind;
    counted;
    n_objs = 0;
    n_mems = 0;
    store = [||];
    mems = Mem_map.empty;
    at = [||];
    log = [];
    out = [];
  }

let create ~n =
  if n < 1 then invalid_arg "Sim.create: need at least one process";
  make_world ~n ~kind:Private ~counted:true

let n w = w.procs

let record w e =
  w.rev_trace <- e :: w.rev_trace;
  w.trace_n <- w.trace_n + 1

(* One step of [p] is granted: count it. *)
let count_step w p =
  if !Metrics.enabled && w.counted then Metrics.step ();
  w.steps.(p) <- w.steps.(p) + 1

(* An access that changed [old] to [s] preserved the state: flagged for
   the reduction layer.  Physical equality catches reads (which return
   their argument); the structural fallback catches rewrites of an equal
   value, and is guarded because object states are arbitrary. *)
let is_noop old s =
  s == old || Obj.is_block s && Obj.is_block old && try s = old with Invalid_argument _ -> false

(* An object created inside a process: its slot is its name's. *)
let slot_of_name auto name =
  Mutex.lock auto.lock;
  let slot =
    match Hashtbl.find_opt auto.names name with
    | Some s -> s
    | None ->
        let s = auto.next_slot in
        auto.next_slot <- s + 1;
        Hashtbl.add auto.names name s;
        s
  in
  Mutex.unlock auto.lock;
  slot

let runtime (type op resp) (w : (op, resp) t) : (module Runtime_intf.S) =
  (module struct
    type 'a obj = cell
    type 'a memory = { m : mem }

    let obj_counter = ref 0

    let obj ?name init =
      incr obj_counter;
      let obj_name =
        match name with Some s -> s | None -> "obj" ^ string_of_int !obj_counter
      in
      let slot =
        if w.current < 0 then begin
          let s = w.n_objs in
          w.n_objs <- s + 1;
          s
        end
        else
          match (w.kind, name) with
          | Driver _, None ->
              raise
                (Nondeterministic
                   (Printf.sprintf
                      "p%d created an unnamed object; a process alone cannot know its \
                       creation-order name"
                      w.current))
          | Driver auto, Some s -> slot_of_name auto s
          | (Private | Cached _), _ -> -1
      in
      { state = Obj.repr init; name = obj_name; slot }

    let access ?info o (f : 'a -> 'a * 'r) : 'r =
      let f : Obj.t -> Obj.t * Obj.t = Obj.magic f in
      match w.kind with
      | Driver _ -> Obj.obj (Effect.perform (Access { cell = o; info; f }))
      | Private | Cached _ ->
          (* A fused replay run: when the schedule being replayed grants
             the running process its next step as well, take it here
             instead of suspending.  No other process could run in
             between, so this is exactly the step [replay] would have
             granted by resuming us. *)
          (match w.plan with
          | p :: rest when p = w.current ->
              w.plan <- rest;
              count_step w p
          | _ -> Effect.perform Suspend);
          (* The step was granted: apply the transition atomically (no
             other fiber can run until the next suspension). *)
          let old = o.state in
          let s, r = f old in
          o.state <- s;
          record w (Trace.Step { proc = w.current; obj = o.name; info; noop = is_noop old s });
          if !Metrics.enabled && w.counted then Metrics.access o.name info;
          Obj.obj r

    let read ?info o = access ?info o (fun s -> (s, s))
    let self () = w.current
    let n_procs () = w.procs

    let memory () =
      (match w.kind with
      | Driver _ when w.current >= 0 ->
          raise
            (Nondeterministic
               (Printf.sprintf "p%d created a write-once memory inside its program" w.current))
      | _ -> ());
      let mid = w.n_mems in
      w.n_mems <- mid + 1;
      { m = { mid; table = Hashtbl.create 16 } }

    let publish { m } key v =
      match w.kind with
      | Driver _ -> w.out <- (m.mid, key, Obj.repr v) :: w.out
      | Private | Cached _ -> Hashtbl.replace m.table key (Obj.repr v)

    let lookup { m } key =
      let v =
        match w.kind with
        | Driver _ -> Effect.perform (Lookup (m, key))
        | Private | Cached _ -> (
            match Hashtbl.find_opt m.table key with Some v -> v | None -> missing)
      in
      if v == missing then raise Not_found else Obj.obj v
  end)

let spawn w ~proc body =
  if proc < 0 || proc >= w.procs then invalid_arg "Sim.spawn: process out of range";
  (match w.fibers.(proc) with
  | Absent -> ()
  | _ -> invalid_arg "Sim.spawn: process already has a body");
  w.fibers.(proc) <- Not_started body

let operation w ~op ~resp f =
  let p = w.current in
  if p < 0 then invalid_arg "Sim.operation: not inside a fiber";
  record w (Trace.Invoke { proc = p; op });
  let r = f () in
  (* [f] may have suspended and resumed many times; re-read the current
     process rather than trusting [p] — they are equal because only [p]'s
     resumes run this code. *)
  record w (Trace.Return { proc = w.current; resp = resp r });
  r

let can_step = function
  | Not_started _ | Suspended _ | Fresh | At_node -> true
  | Absent | Driven _ | Running | Finished | Crashed | Released -> false

let enabled w =
  let acc = ref [] in
  for p = w.procs - 1 downto 0 do
    if can_step w.fibers.(p) then acc := p :: !acc
  done;
  !acc

let finished w p = match w.fibers.(p) with Finished -> true | _ -> false
let steps_of w p = w.steps.(p)

(* Driver fibers that are started and not yet returned, raised or
   unwound, over all automata. *)
let live = Atomic.make 0

let live_drivers () = Atomic.get live

(* OCaml frees a fiber's stack only when the fiber returns or is
   discontinued; a dropped continuation keeps its stack for good.  The
   checker drops a world per replay, so every suspended process would
   leak one stack.  [unwind] discontinues a suspended fiber with an
   exception no algorithm can name, which unwinds it without recording
   an event (an operation's [Return] is only recorded when its body
   returns).  A crash and a release both unwind; unstarted and finished
   fibers hold no stack and are left as they are.  [current] is restored
   afterwards: it is -1 in a private world, and a driver's stays its
   process for good, because transitions the driver handed over read
   [self ()] from it whenever a cached world applies them. *)
exception Unwind

let unwind w p (type a) (k : (a, unit) Effect.Deep.continuation) =
  let current = w.current in
  w.fibers.(p) <- Running;
  w.current <- p;
  (try Effect.Deep.discontinue k Unwind with Unwind -> ());
  w.current <- current;
  match w.kind with Driver _ -> Atomic.decr live | Private | Cached _ -> ()

let log_action w a = match w.kind with Cached _ -> w.log <- a :: w.log | Private | Driver _ -> ()

let crash w p =
  if p < 0 || p >= w.procs then invalid_arg "Sim.crash: process out of range";
  match w.fibers.(p) with
  | Finished -> ()  (* crashing a finished process has no effect *)
  | Crashed -> ()  (* idempotent: a second crash is a no-op, not a new fault *)
  | Released -> ()
  | f ->
      if !Metrics.enabled && w.counted then Metrics.crash ();
      log_action w (-p - 1);
      (match f with
      | Suspended k -> unwind w p k
      | Driven (_, k) -> unwind w p k
      | _ -> ());
      w.fibers.(p) <- Crashed

(* Built once per fiber: the [Suspend] case returns the same
   preallocated closure on every suspension. *)
let handler w p =
  let suspend =
    Some (fun (k : (unit, unit) Effect.Deep.continuation) -> w.fibers.(p) <- Suspended k)
  in
  {
    Effect.Deep.retc = (fun () -> w.fibers.(p) <- Finished);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Suspend -> suspend
        | Access a -> Some (fun k -> w.fibers.(p) <- Driven (Steps_on a, k))
        | Lookup (m, key) -> Some (fun k -> w.fibers.(p) <- Driven (Looks_up (m.mid, key), k))
        | _ -> None);
  }

(* ---------------------------------------------------------------- *)
(* Response automata                                                 *)
(* ---------------------------------------------------------------- *)

(* Structural equality of responses, which are arbitrary values: an
   immediate equals only itself, and a value holding a closure equals
   nothing but itself. *)
let same a b =
  a == b
  || (Obj.is_block a && Obj.is_block b && try compare a b = 0 with Invalid_argument _ -> false)

(* The kid reached on [input], or [none]. *)
let rec find_kid none input raised = function
  | [] -> none
  | k :: rest ->
      if k.raised = raised && same k.input input then k else find_kid none input raised rest

(* Publish [kid] under [parent], or return the twin another domain
   published first.  The boolean is true when [kid] went in. *)
let rec publish_kid parent kid =
  let cur = Atomic.get parent.kids in
  let twin = find_kid kid kid.input kid.raised cur in
  if twin != kid then (twin, false)
  else if Atomic.compare_and_set parent.kids cur (kid :: cur) then (kid, true)
  else publish_kid parent kid

let nondet fmt = Printf.ksprintf (fun s -> raise (Nondeterministic s)) fmt

(* A fresh driver world for [p]: the program booted with no step taken,
   every body spawned and only [p]'s ever run.  [current] stays [p], so
   [self ()] answers [p] inside transitions a cached world applies. *)
let boot_driver auto p =
  let dw = make_world ~n:auto.n_procs ~kind:(Driver auto) ~counted:false in
  auto.boot dw;
  if dw.n_objs <> auto.objs_at_boot || dw.n_mems <> auto.mems_at_boot then
    nondet "booting the program again created other objects";
  dw.current <- p;
  dw

(* Resume [p]'s fiber in [dw] and report what it does next.  The events
   and publishes of the resume are left in [dw]. *)
let drive dw p resume =
  dw.rev_trace <- [];
  dw.trace_n <- 0;
  dw.out <- [];
  match resume () with
  | () -> (
      match dw.fibers.(p) with
      | Driven (next, _) -> next
      | Finished ->
          Atomic.decr live;
          Done
      | _ -> assert false)
  | exception (Nondeterministic _ as e) ->
      Atomic.decr live;
      raise e
  | exception e ->
      Atomic.decr live;
      Raised e

let start dw p =
  match dw.fibers.(p) with
  | Not_started body ->
      Atomic.incr live;
      drive dw p (fun () ->
          dw.fibers.(p) <- Running;
          Effect.Deep.match_with body () (handler dw p))
  | _ -> invalid_arg "Sim: driven process has no body"

let feed dw p input raised =
  drive dw p (fun () ->
      match dw.fibers.(p) with
      | Driven (_, k) ->
          dw.fibers.(p) <- Running;
          if raised then Effect.Deep.discontinue k (Obj.obj input : exn)
          else Effect.Deep.continue k input
      | _ -> assert false)

let same_next a b =
  match (a, b) with
  | Steps_on x, Steps_on y -> x.cell.slot = y.cell.slot && x.info = y.info
  | Looks_up (m, k), Looks_up (m', k') -> m = m' && k = k'
  | Done, Done | Raised _, Raised _ -> true
  | _ -> false

let no_step = Trace.Step { proc = -1; obj = ""; info = None; noop = false }

let node_of dw ~up ~input ~raised next =
  let step_event noop =
    match next with
    | Steps_on a -> Trace.Step { proc = dw.current; obj = a.cell.name; info = a.info; noop }
    | Looks_up _ | Done | Raised _ -> no_step
  in
  {
    up;
    input;
    raised;
    events = List.rev dw.rev_trace;
    publishes = List.rev dw.out;
    next;
    kids = Atomic.make [];
    changed = step_event false;
    kept = step_event true;
  }

let release_driver d p =
  match d.dw.fibers.(p) with
  | Driven (_, k) ->
      unwind d.dw p k;
      d.dw.fibers.(p) <- Released
  | _ -> ()

(* This domain's driver slots: a fiber is only ever resumed by the
   domain that holds it until [drop]. *)
let drivers_here auto =
  let id = (Domain.self () :> int) in
  Mutex.lock auto.lock;
  let ds =
    match Hashtbl.find_opt auto.drivers id with
    | Some ds -> ds
    | None ->
        let ds = Array.make auto.n_procs None in
        Hashtbl.add auto.drivers id ds;
        ds
  in
  Mutex.unlock auto.lock;
  ds

(* A driver of [p] whose fiber sits at [node].  The live one when it is
   there, else a fresh one fed the responses on the path to [node]. *)
let driver_at auto p node =
  let ds = drivers_here auto in
  match ds.(p) with
  | Some d when d.pos == node -> d
  | old ->
      Option.iter (fun d -> release_driver d p) old;
      ds.(p) <- None;
      let rec path acc n = match n.up with None -> (n, acc) | Some u -> path (n :: acc) u in
      let root, below = path [] node in
      let dw = boot_driver auto p in
      let check n got =
        if not (same_next n.next got) then
          nondet "p%d acted differently when its responses were replayed to it alone" p
      in
      (try
         check root (start dw p);
         List.iter (fun n -> check n (feed dw p n.input n.raised)) below
       with e ->
         release_driver { dw; pos = root } p;
         raise e);
      let d = { dw; pos = node } in
      ds.(p) <- Some d;
      d

let root_of auto p =
  match Atomic.get auto.roots.(p) with
  | Some r -> r
  | None -> (
      let ds = drivers_here auto in
      Option.iter (fun d -> release_driver d p) ds.(p);
      ds.(p) <- None;
      let dw = boot_driver auto p in
      let r = node_of dw ~up:None ~input:missing ~raised:false (start dw p) in
      let r =
        if Atomic.compare_and_set auto.roots.(p) None (Some r) then begin
          if !Metrics.enabled then Metrics.miss ();
          r
        end
        else Option.get (Atomic.get auto.roots.(p))
      in
      match r.next with
      | Steps_on _ | Looks_up _ ->
          ds.(p) <- Some { dw; pos = r };
          r
      | Done | Raised _ -> r)

(* The position [p] reaches from [node] on [input]: a cached edge, or
   one filled now by a driver. *)
let kid_of auto p node input raised =
  let k = find_kid auto.placeholder input raised (Atomic.get node.kids) in
  if k != auto.placeholder then k
  else begin
    let d = driver_at auto p node in
    let next =
      try feed d.dw p input raised
      with e ->
        (drivers_here auto).(p) <- None;
        raise e
    in
    let kid, fresh = publish_kid node (node_of d.dw ~up:(Some node) ~input ~raised next) in
    if fresh && !Metrics.enabled then Metrics.miss ();
    d.pos <- kid;
    kid
  end

(* The state of [slot] in a cached world; a slot's first access finds
   the initial state in the cell, which a driver never changes. *)
let cached_state w (c : cell) =
  let slot = c.slot in
  if slot >= Array.length w.store then begin
    let bigger = Array.make (max (slot + 1) (2 * Array.length w.store)) missing in
    Array.blit w.store 0 bigger 0 (Array.length w.store);
    w.store <- bigger
  end;
  let v = Array.unsafe_get w.store slot in
  if v == missing then c.state else v

let cached_publish w (mid, key, v) = w.mems <- Mem_map.add (mid, key) v w.mems

let cached_lookup w mid key =
  match Mem_map.find_opt (mid, key) w.mems with Some v -> v | None -> missing

(* [p] arrives at [node]: emit what it emits there, answer its lookups,
   and leave it at its next access. *)
let rec emit w = function
  | [] -> ()
  | e :: rest ->
      record w e;
      emit w rest

let rec enter auto w p node =
  emit w node.events;
  if node.publishes <> [] then List.iter (cached_publish w) node.publishes;
  match node.next with
  | Steps_on _ ->
      Array.unsafe_set w.at p node;
      w.current <- -1
  | Looks_up (mid, key) -> enter auto w p (kid_of auto p node (cached_lookup w mid key) false)
  | Done ->
      w.fibers.(p) <- Finished;
      w.current <- -1
  | Raised e ->
      w.fibers.(p) <- Running;
      raise e

(* A cached step: [p] is [Fresh] or [At_node].  Its status changes only
   when it finishes, or to [Running] when it raises, as a fiber's does. *)
let step_cached auto w p =
  w.current <- p;
  count_step w p;
  log_action w p;
  match w.fibers.(p) with
  | Fresh ->
      w.fibers.(p) <- At_node;
      enter auto w p (root_of auto p)
  | _ -> (
      let node = Array.unsafe_get w.at p in
      match node.next with
      | Steps_on a -> (
          let old = cached_state w a.cell in
          match a.f old with
          | s, r ->
              Array.unsafe_set w.store a.cell.slot s;
              record w (if is_noop old s then node.kept else node.changed);
              if !Metrics.enabled then Metrics.access a.cell.name a.info;
              enter auto w p (kid_of auto p node r false)
          | exception e -> enter auto w p (kid_of auto p node (Obj.repr e) true))
      | Looks_up _ | Done | Raised _ -> assert false)

let step w p =
  if p < 0 || p >= w.procs then raise (Invalid_schedule (Printf.sprintf "p%d out of range" p));
  match w.fibers.(p) with
  | Absent -> raise (Invalid_schedule (Printf.sprintf "p%d has no body" p))
  | Running -> raise (Invalid_schedule (Printf.sprintf "p%d re-entered" p))
  | Finished -> raise (Invalid_schedule (Printf.sprintf "p%d already finished" p))
  | Crashed -> raise (Invalid_schedule (Printf.sprintf "p%d crashed" p))
  | Released -> raise (Invalid_schedule (Printf.sprintf "p%d released" p))
  | Driven _ -> raise (Invalid_schedule (Printf.sprintf "p%d is driven" p))
  | Fresh | At_node -> (
      match w.kind with Cached auto -> step_cached auto w p | Private | Driver _ -> assert false)
  | Not_started body ->
      w.fibers.(p) <- Running;
      w.current <- p;
      count_step w p;
      Effect.Deep.match_with body () (handler w p);
      w.current <- -1
  | Suspended k ->
      w.fibers.(p) <- Running;
      w.current <- p;
      count_step w p;
      Effect.Deep.continue k ();
      w.current <- -1

(* The replay core.  [w.plan] holds the rest of the schedule, so a run
   of consecutive entries of one process is taken inside its fiber by
   [access] (a fused run) and costs no effect round trip; every other
   entry goes through [step].  The trace, step counts, metrics and the
   suspended fibers are those of [List.iter (step w) schedule]: a fused
   step is granted at the point where that process would suspend and be
   resumed at once, with no other process in between.  Whatever a step
   raises leaves the world as step-by-step replay would, with the plan
   cleared, so a later [step] is never fused.  A cached world runs no
   fiber, so it steps entry by entry. *)
let replay w schedule =
  match w.kind with
  | Cached _ -> List.iter (step w) schedule
  | Private | Driver _ -> (
      w.plan <- schedule;
      let rec go () =
        match w.plan with
        | [] -> ()
        | p :: rest ->
            w.plan <- rest;
            step w p;
            go ()
      in
      match go () with
      | () -> ()
      | exception e ->
          w.plan <- [];
          raise e)

let release w =
  for p = 0 to w.procs - 1 do
    match w.fibers.(p) with
    | Suspended k ->
        unwind w p k;
        w.fibers.(p) <- Released
    | Driven (_, k) ->
        unwind w p k;
        w.fibers.(p) <- Released
    | At_node -> w.fibers.(p) <- Released
    | Absent | Not_started _ | Fresh | Running | Finished | Crashed | Released -> ()
  done

let trace w = List.rev w.rev_trace

let trace_len w = w.trace_n

(* Chronological events from position [from] (inclusive) to the end of
   the trace.  O(new events): the checker's incremental node evaluation
   reads only the delta a step appended, never the whole trace. *)
let events_from w ~from =
  let rec take acc k l = if k <= 0 then acc else match l with [] -> acc | e :: rest -> take (e :: acc) (k - 1) rest in
  take [] (w.trace_n - from) w.rev_trace

let boot_cached ?(count_boot = true) auto =
  if !Metrics.enabled && count_boot then Metrics.boot ();
  let w = make_world ~n:auto.n_procs ~kind:(Cached auto) ~counted:true in
  Array.iteri (fun p s -> if s then w.fibers.(p) <- Fresh) auto.spawned;
  w.store <- Array.make auto.objs_at_boot missing;
  w.at <- Array.make auto.n_procs auto.placeholder;
  w

(* Object states are immutable values and the trace, the memories and
   the log are persistent, so a copy owns only its arrays. *)
let copy ?(count_boot = false) w =
  match w.kind with
  | Private | Driver _ -> invalid_arg "Sim.copy: the world runs fibers"
  | Cached _ ->
      if !Metrics.enabled && count_boot then Metrics.boot ();
      {
        w with
        fibers = Array.copy w.fibers;
        steps = Array.copy w.steps;
        store = Array.copy w.store;
        at = Array.copy w.at;
      }

let drop auto =
  Mutex.lock auto.lock;
  let all = Hashtbl.fold (fun _ ds acc -> ds :: acc) auto.drivers [] in
  Hashtbl.reset auto.drivers;
  Mutex.unlock auto.lock;
  List.iter (Array.iteri (fun p d -> Option.iter (fun d -> release_driver d p) d)) all

(* The detector: replay a cached world's schedule, crashes included, on
   an uncounted private world and insist on the same execution. *)
let audit w =
  match w.kind with
  | Private | Driver _ -> ()
  | Cached auto ->
      let pw = make_world ~n:w.procs ~kind:Private ~counted:false in
      let same_event (a : (_, _) Trace.event) b =
        a == b
        ||
        match (a, b) with
        | Step x, Step y ->
            x.proc = y.proc && String.equal x.obj y.obj && x.info = y.info && x.noop = y.noop
        | _ -> a = b
      in
      let same_state p =
        pw.steps.(p) = w.steps.(p)
        && can_step pw.fibers.(p) = can_step w.fibers.(p)
        && finished pw p = finished w p
      in
      (* Anything the replay raises, and an event payload the comparison
         cannot compare (a closure), count as a difference. *)
      let same () =
        match
          auto.boot pw;
          (* Runs of steps between crashes replay fused. *)
          let rec go run = function
            | [] -> replay pw (List.rev run)
            | a :: rest when a >= 0 -> go (a :: run) rest
            | a :: rest ->
                replay pw (List.rev run);
                crash pw (-a - 1);
                go [] rest
          in
          go [] (List.rev w.log)
        with
        | () -> (
            try
              pw.trace_n = w.trace_n
              && List.for_all2 same_event pw.rev_trace w.rev_trace
              && List.for_all same_state (List.init w.procs Fun.id)
            with Invalid_argument _ -> false)
        | exception _ -> false
      in
      if not (Fun.protect ~finally:(fun () -> release pw) same) then
        nondet "a schedule of %d steps ran differently through the response automaton"
          (Array.fold_left ( + ) 0 w.steps)

type ('op, 'resp) program = { procs : int; boot : ('op, 'resp) t -> unit }

let automaton (prog : ('op, 'resp) program) : ('op, 'resp) automaton =
  let w = make_world ~n:prog.procs ~kind:Private ~counted:false in
  prog.boot w;
  {
    n_procs = prog.procs;
    boot = prog.boot;
    spawned = Array.map (function Absent -> false | _ -> true) w.fibers;
    objs_at_boot = w.n_objs;
    mems_at_boot = w.n_mems;
    roots = Array.init prog.procs (fun _ -> Atomic.make None);
    lock = Mutex.create ();
    names = Hashtbl.create 16;
    next_slot = w.n_objs;
    drivers = Hashtbl.create 4;
    placeholder =
      {
        up = None;
        input = missing;
        raised = false;
        events = [];
        publishes = [];
        next = Done;
        kids = Atomic.make [];
        changed = no_step;
        kept = no_step;
      };
  }

let boot_world prog =
  if !Metrics.enabled then Metrics.boot ();
  let w = create ~n:prog.procs in
  prog.boot w;
  w

let run_schedule prog schedule =
  let w = boot_world prog in
  replay w schedule;
  w

(* Replay entry point for untrusted schedules (witness artifacts, shrink
   candidates): a schedule that steps a finished, crashed or out-of-range
   process is reported as [Error] instead of an exception, with the
   offending position for diagnostics. *)
let run_schedule_result prog schedule =
  let w = boot_world prog in
  match replay w schedule with
  | () -> Ok w
  | exception Invalid_schedule msg ->
      (* Every entry before the offending one counted one step, and the
         offending one none, so its position is the number of steps taken. *)
      let i = Array.fold_left ( + ) 0 w.steps in
      Error (Printf.sprintf "step %d (process %d): %s" i (List.nth schedule i) msg)

let run_to_completion ?(choose = fun ps -> List.hd ps) prog =
  let w = boot_world prog in
  let rec loop () =
    match enabled w with
    | [] -> ()
    | ps ->
        step w (choose ps);
        loop ()
  in
  loop ();
  w

(* [crash_after] semantics, pinned by test/test_runtime.ml: the pair
   [(p, at)] crashes [p] at the top of the scheduling loop once the total
   step count has reached [at], i.e. BEFORE the (at+1)-th step is chosen.
   So [p] takes at most [at] of the first [at] total steps and none
   afterwards; [(p, 0)] means [p] never runs.  Re-crashing on later loop
   iterations is harmless because [crash] is idempotent. *)
let run_random_full ~seed ?(crash_after = []) ?max_steps prog =
  let w = boot_world prog in
  let rng = Random.State.make [| seed |] in
  let total = ref 0 in
  let rev_sched = ref [] in
  let continue_run () = match max_steps with None -> true | Some m -> !total < m in
  let rec loop () =
    List.iter (fun (p, at) -> if !total >= at then crash w p) crash_after;
    match enabled w with
    | [] -> ()
    | ps when continue_run () ->
        let p = List.nth ps (Random.State.int rng (List.length ps)) in
        step w p;
        rev_sched := p :: !rev_sched;
        incr total;
        loop ()
    | _ -> ()
  in
  loop ();
  (w, List.rev !rev_sched)

let run_random ~seed ?crash_after ?max_steps prog =
  fst (run_random_full ~seed ?crash_after ?max_steps prog)
