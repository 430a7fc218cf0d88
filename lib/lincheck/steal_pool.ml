(* Work-stealing task pool.  See the mli for the contract.

   Each deque is a growable circular buffer guarded by its own mutex.
   That is deliberately boring: the engine's tasks are whole subtrees
   (microseconds to seconds of work), so deque operations are far off
   the hot path and a lock-free Chase–Lev deque would buy nothing
   measurable while costing the memory-model subtlety.  What matters for
   scaling is the policy — owner LIFO at the bottom, steal-half from the
   top — not the queue's synchronization primitive.  The shared queue is
   the same buffer used as a FIFO: any worker pushes at the bottom and
   pops at the top. *)

type deque = {
  lock : Mutex.t;
  mutable buf : (int -> unit) option array;
  mutable top : int;  (* index of the oldest task (steal end) *)
  mutable size : int;
}

type t = {
  deques : deque array;
  shared : deque;  (* FIFO: pushed at the bottom, popped at the top *)
  rngs : int array;  (* per-worker xorshift victim-selection state *)
  on_steal : (thief:int -> victim:int -> stolen:int -> dur_ns:int -> unit) option;
}

let new_deque () = { lock = Mutex.create (); buf = Array.make 32 None; top = 0; size = 0 }

let create ~workers ?(seed = 0) ?on_steal () =
  let n = max 1 workers in
  {
    deques = Array.init n (fun _ -> new_deque ());
    shared = new_deque ();
    (* xorshift states must be nonzero; mix the worker index in so the
       workers' victim streams differ even under the same seed *)
    rngs = Array.init n (fun w -> (seed * 0x9e3779b9) lxor ((w + 1) * 0x85ebca6b) lor 1);
    on_steal;
  }

let workers t = Array.length t.deques

(* Unlocked internals: callers hold [d.lock]. *)

let grow d =
  let cap = Array.length d.buf in
  let buf = Array.make (2 * cap) None in
  for i = 0 to d.size - 1 do
    buf.(i) <- d.buf.((d.top + i) mod cap)
  done;
  d.buf <- buf;
  d.top <- 0

let push_on d task =
  Mutex.lock d.lock;
  if d.size = Array.length d.buf then grow d;
  d.buf.((d.top + d.size) mod Array.length d.buf) <- Some task;
  d.size <- d.size + 1;
  Mutex.unlock d.lock

let push t ~worker task = push_on t.deques.(worker) task

let push_shared t task = push_on t.shared task

let try_pop t ~worker =
  let d = t.deques.(worker) in
  Mutex.lock d.lock;
  let r =
    if d.size = 0 then None
    else begin
      d.size <- d.size - 1;
      let i = (d.top + d.size) mod Array.length d.buf in
      let task = d.buf.(i) in
      d.buf.(i) <- None;
      task
    end
  in
  Mutex.unlock d.lock;
  r

(* The oldest task of the shared queue. *)
let try_pop_shared t =
  let d = t.shared in
  Mutex.lock d.lock;
  let r =
    if d.size = 0 then None
    else begin
      let task = d.buf.(d.top) in
      d.buf.(d.top) <- None;
      d.top <- (d.top + 1) mod Array.length d.buf;
      d.size <- d.size - 1;
      task
    end
  in
  Mutex.unlock d.lock;
  r

(* Steal ceil(size/2) tasks off the top of [victim].  The oldest stolen
   task is returned to run immediately; the rest land on the thief's own
   deque with their relative order preserved (oldest nearest the top),
   so a later thief keeps stealing the globally oldest work. *)
let try_steal_from t ~thief ~victim =
  if victim = thief then None
  else begin
    let start_ns = match t.on_steal with Some _ -> Obs.now_ns () | None -> 0 in
    let d = t.deques.(victim) in
    Mutex.lock d.lock;
    let stolen =
      if d.size = 0 then []
      else begin
        let k = (d.size + 1) / 2 in
        let cap = Array.length d.buf in
        let out = ref [] in
        for i = k - 1 downto 0 do
          let j = (d.top + i) mod cap in
          (match d.buf.(j) with Some task -> out := task :: !out | None -> assert false);
          d.buf.(j) <- None
        done;
        d.top <- (d.top + k) mod cap;
        d.size <- d.size - k;
        !out
      end
    in
    Mutex.unlock d.lock;
    match stolen with
    | [] -> None
    | first :: rest ->
        (* Keep [rest] in oldest-first order at the bottom of our deque:
           pushing newest-first makes the owner's LIFO pop return them
           oldest-first, matching the order the victim would have run. *)
        List.iter (fun task -> push t ~worker:thief task) (List.rev rest);
        (match t.on_steal with
        | Some f ->
            f ~thief ~victim ~stolen:(List.length stolen) ~dur_ns:(Obs.now_ns () - start_ns)
        | None -> ());
        Some first
  end

let next_victim t ~worker =
  (* xorshift32: cheap, seeded, and statistically plenty for picking a
     victim index. *)
  let s = t.rngs.(worker) in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 17) in
  let s = (s lxor (s lsl 5)) land 0x3fffffff in
  t.rngs.(worker) <- (if s = 0 then 1 else s);
  s mod Array.length t.deques

let try_steal t ~thief =
  (* One randomized sweep over the other deques per attempt; the caller
     spins (politely) around this, so missing a racing push is fine. *)
  let n = Array.length t.deques in
  let start = next_victim t ~worker:thief in
  let rec probe i =
    if i >= n then None
    else
      match try_steal_from t ~thief ~victim:((start + i) mod n) with
      | Some _ as r -> r
      | None -> probe (i + 1)
  in
  probe 0

let help_until t ~worker done_ =
  (* Take order: own deque, shared queue, steal.  The own deque comes
     first so a worker joining a fork runs its own children before
     anything else; the shared queue before stealing, so an idle worker
     drains order-free work before it takes speculative subtrees.
     Escalating backoff on failed steal sweeps: spin briefly (work
     usually reappears within microseconds when a fork resolves), then
     start sleeping.  Pure spinning is catastrophic when domains
     outnumber cores — the spinners steal timeslices from the one
     worker actually producing work — and the sleep costs nothing on a
     balanced run because a loaded deque resets the backoff. *)
  let misses = ref 0 in
  let rec loop () =
    if not (done_ ()) then begin
      (match
         match try_pop t ~worker with Some _ as r -> r | None -> try_pop_shared t
       with
      | Some task ->
          misses := 0;
          task worker
      | None -> (
          if Array.length t.deques = 1 then
            (* Single worker out of work: the predicate can only be made
               true by work we would have to run ourselves. *)
            ()
          else
            match try_steal t ~thief:worker with
            | Some task ->
                misses := 0;
                task worker
            | None ->
                incr misses;
                if !misses < 64 then Domain.cpu_relax ()
                else Unix.sleepf (min 0.001 (1e-6 *. float_of_int !misses))));
      loop ()
    end
  in
  loop ()

let run t main =
  let n = Array.length t.deques in
  let spawned = List.init (n - 1) (fun k -> Domain.spawn (fun () -> main (k + 1))) in
  main 0;
  List.iter Domain.join spawned

let hardware_domains () =
  match Option.bind (Sys.getenv_opt "SLIN_DOMAIN_CAP") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

let effective_workers ~requested = max 1 (min requested (hardware_domains ()))

let parallel_for ~workers ~n ?init ?fini body =
  let init w = match init with Some f -> f w | None -> () in
  let fini w = match fini with Some f -> f w | None -> () in
  if n <= 0 then ()
  else if workers <= 1 then begin
    init 0;
    for i = 0 to n - 1 do
      body ~worker:0 i
    done;
    fini 0
  end
  else begin
    let cursor = Atomic.make 0 in
    let worker w =
      init w;
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          body ~worker:w i;
          loop ()
        end
      in
      loop ();
      fini w
    in
    let nw = min workers n in
    let spawned = List.init (nw - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
    worker 0;
    List.iter Domain.join spawned
  end
