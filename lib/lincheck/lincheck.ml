(* Linearizability and strong-linearizability checking.

   [Make (S)] provides two checkers for programs whose high-level
   operations follow specification [S]:

   - [check_trace] decides whether one execution trace is linearizable:
     is there a sequential execution of [S] containing every completed
     operation (with its actual response), possibly some pending ones, and
     respecting real-time order?  (Paper §2's definition.)

   - [check_strong] decides whether a {e prefix-closed} linearization
     function exists on the tree of all executions of a program (up to a
     node budget): an assignment of a linearization L(v) to every node v
     such that L(child) extends L(parent) by appending operations only.
     This is precisely strong linearizability (Golab–Higham–Woelfel)
     restricted to the explored tree, so:

       - a [Not_strongly_linearizable] verdict is a {e proof} that the
         implementation is not strongly linearizable (the finite witness
         tree embeds in the full execution tree);
       - a [Strongly_linearizable] verdict is exhaustive for the given
         workload: no adversary scheduling that workload can violate
         prefix-closedness.

   The game solver enumerates, at each node, the {e minimal} valid
   linearizations extending the parent's choice — sequences that place
   every completed operation and only those pending operations forced
   before a completed one.  Minimality is sound: if L is a prefix of L'
   then every child strategy for L' is also one for L, so committing to
   unforced pending operations never helps. *)

(* Which budget converted the run into an inconclusive verdict.  Node
   budgets predate the others; their rendering (pretty and JSON) is
   pinned byte-for-byte, so the new reasons only ever add output.
   [Budget_interrupt] is external: a signal handler, per-request
   deadline or supervisor cancellation asked the run to stop.
   [Budget_preempt] is the conservative [--preempt-bound] truncation: a
   successful game on the restricted tree proves nothing about the full
   one, so the verdict degrades exactly like a budget trip (refutations
   found under the bound remain sound — every visited node is real). *)
type budget_reason = Budget_nodes | Budget_wall | Budget_heap | Budget_interrupt | Budget_preempt

let budget_reason_tag = function
  | Budget_nodes -> "nodes"
  | Budget_wall -> "wall_ms"
  | Budget_heap -> "heap_mb"
  | Budget_interrupt -> "interrupt"
  | Budget_preempt -> "preempt_bound"

let heap_mb_now () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  words * (Sys.word_size / 8) / (1024 * 1024)

(* Exploration statistics for one [check_strong] run.  Spec-independent,
   hence outside the functor.  [nodes] always equals the count carried
   by the verdict; the rest explains where the work went: how many
   candidate linearizations the enumerator produced, how many died at a
   child ([candidates_killed] — the game's backtracking), how many nodes
   admitted no extension at all ([dead_ends]), and how often the
   exploration cache saved a replay. *)
type stats = {
  nodes : int;  (* distinct tree nodes explored (= verdict's count) *)
  cache_hits : int;  (* node visits answered from the exploration cache *)
  max_frontier_depth : int;  (* deepest schedule prefix reached *)
  candidates_generated : int;  (* minimal linearizations enumerated *)
  candidates_killed : int;  (* candidates refuted at some child *)
  dead_ends : int;  (* nodes with no valid extension *)
  validate_failures : int;  (* inherited prefixes invalidated by new responses *)
  elapsed_ns : int;
  kill_paths : int list list;
      (* the failing column's kill evidence as forward schedules (see
         [evidence]); [] unless this run refuted by exploring that
         column unreduced *)
}

let nodes_per_sec st =
  if st.elapsed_ns <= 0 then 0. else float_of_int st.nodes *. 1e9 /. float_of_int st.elapsed_ns

let pp_stats fmt st =
  Format.fprintf fmt
    "@[<v>nodes explored        %d@,\
     exploration rate      %.0f nodes/s@,\
     max frontier depth    %d@,\
     candidates generated  %d@,\
     linearizations killed %d@,\
     dead-end nodes        %d@,\
     prefix invalidations  %d@,\
     cache hits            %d@,\
     elapsed               %.3f s@]"
    st.nodes (nodes_per_sec st) st.max_frontier_depth st.candidates_generated
    st.candidates_killed st.dead_ends st.validate_failures st.cache_hits
    (float_of_int st.elapsed_ns /. 1e9)

let stats_fields st =
  [
    ("nodes", Obs_json.Int st.nodes);
    ("nodes_per_sec", Obs_json.Float (nodes_per_sec st));
    ("max_frontier_depth", Obs_json.Int st.max_frontier_depth);
    ("candidates_generated", Obs_json.Int st.candidates_generated);
    ("candidates_killed", Obs_json.Int st.candidates_killed);
    ("dead_ends", Obs_json.Int st.dead_ends);
    ("validate_failures", Obs_json.Int st.validate_failures);
    ("cache_hits", Obs_json.Int st.cache_hits);
    ("elapsed_ns", Obs_json.Int st.elapsed_ns);
  ]

(* Checkpoint parsing helpers. *)
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let checkpoint_field name conv o =
  match Option.bind (Obs_json.member name o) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing or ill-typed %S" name)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* The game's work counters for one piece of the tree — a task, a
   column, a checkpointed column or the whole run.  Pieces combine with
   [absorb] in canonical (schedule-prefix) order, which is what makes
   the merged totals independent of the worker count. *)
module Counters = struct
  type t = {
    mutable nodes : int;
    mutable hits : int;
    mutable frontier : int;
    mutable cand : int;
    mutable killed : int;
    mutable dead : int;
    mutable vfail : int;
    mutable wit : (int * int list) list;
    mutable pruned : bool;
    depth_hist : int array;
    kills : int array;
    mutable prunes : int;
  }

  let create () =
    {
      nodes = 0;
      hits = 0;
      frontier = 0;
      cand = 0;
      killed = 0;
      dead = 0;
      vfail = 0;
      wit = [];
      pruned = false;
      depth_hist = Array.make 64 0;
      kills = Array.make (List.length Prof.all_kills) 0;
      prunes = 0;
    }

  let witness_depth c = match c.wit with (d, _) :: _ -> d | [] -> 0

  let witness c = match c.wit with (_, w) :: _ -> w | [] -> []

  (* The witness is the deepest dead end, first in DFS order: a dead end
     is logged only when strictly deeper than every earlier one. *)
  let log_witness c depth path = if depth > witness_depth c then c.wit <- (depth, path) :: c.wit

  let note_depth c depth =
    let b = if depth >= 64 then 63 else if depth < 0 then 0 else depth in
    c.depth_hist.(b) <- c.depth_hist.(b) + 1

  (* Profiler attribution only: a budget stop kills no candidate. *)
  let attribute c reason =
    let i = Prof.kill_index reason in
    c.kills.(i) <- c.kills.(i) + 1

  let kill c reason =
    c.killed <- c.killed + 1;
    attribute c reason

  (* Fold [src], which follows [dst] in schedule-prefix order, into
     [dst]. *)
  let absorb dst src =
    dst.nodes <- dst.nodes + src.nodes;
    dst.hits <- dst.hits + src.hits;
    dst.frontier <- max dst.frontier src.frontier;
    dst.cand <- dst.cand + src.cand;
    dst.killed <- dst.killed + src.killed;
    dst.dead <- dst.dead + src.dead;
    dst.vfail <- dst.vfail + src.vfail;
    List.iter (fun (d, pth) -> log_witness dst d pth) (List.rev src.wit);
    dst.pruned <- dst.pruned || src.pruned;
    Array.iteri (fun i n -> dst.depth_hist.(i) <- dst.depth_hist.(i) + n) src.depth_hist;
    Array.iteri (fun i n -> dst.kills.(i) <- dst.kills.(i) + n) src.kills;
    dst.prunes <- dst.prunes + src.prunes

  let to_stats c ~elapsed_ns : stats =
    {
      nodes = c.nodes;
      cache_hits = c.hits;
      max_frontier_depth = c.frontier;
      candidates_generated = c.cand;
      candidates_killed = c.killed;
      dead_ends = c.dead;
      validate_failures = c.vfail;
      elapsed_ns;
      kill_paths = [];
    }

  (* Checkpoint fields.  The profiler-only counters (depth histogram,
     kill attribution, prunes) are not serialized; [persistent] is the
     part that is, so a checkpoint equals its own round trip. *)
  let persistent c =
    {
      (create ()) with
      nodes = c.nodes;
      hits = c.hits;
      frontier = c.frontier;
      cand = c.cand;
      killed = c.killed;
      dead = c.dead;
      vfail = c.vfail;
      wit = c.wit;
      pruned = c.pruned;
    }

  let to_json_fields c =
    let ints l = Obs_json.List (List.map (fun p -> Obs_json.Int p) l) in
    [
      ("nodes", Obs_json.Int c.nodes);
      ("hits", Obs_json.Int c.hits);
      ("frontier", Obs_json.Int c.frontier);
      ("cand", Obs_json.Int c.cand);
      ("killed", Obs_json.Int c.killed);
      ("dead", Obs_json.Int c.dead);
      ("vfail", Obs_json.Int c.vfail);
      ( "wit",
        Obs_json.List
          (List.rev_map
             (fun (d, pth) -> Obs_json.Assoc [ ("depth", Obs_json.Int d); ("path", ints pth) ])
             c.wit) );
    ]
    (* Appended only when set, so every pre-preempt-bound checkpoint
       body — and hence its digest — is byte-identical to before. *)
    @ if c.pruned then [ ("pruned", Obs_json.Bool true) ] else []

  let of_json o =
    let field = checkpoint_field in
    let* nodes = field "nodes" Obs_json.to_int o in
    let* hits = field "hits" Obs_json.to_int o in
    let* frontier = field "frontier" Obs_json.to_int o in
    let* cand = field "cand" Obs_json.to_int o in
    let* killed = field "killed" Obs_json.to_int o in
    let* dead = field "dead" Obs_json.to_int o in
    let* vfail = field "vfail" Obs_json.to_int o in
    let* wit = field "wit" Obs_json.to_list o in
    let* wit =
      List.fold_left
        (fun acc w ->
          let* acc = acc in
          let* d = field "depth" Obs_json.to_int w in
          let* pth = field "path" Obs_json.to_int_list w in
          Ok ((d, pth) :: acc))
        (Ok []) wit
    in
    (* Optional: absent in every checkpoint written before the preempt
       bound existed. *)
    let pruned = match Obs_json.member "pruned" o with Some (Obs_json.Bool b) -> b | _ -> false in
    Ok { (create ()) with nodes; hits; frontier; cand; killed; dead; vfail; wit; pruned }
end

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume (slin-checkpoint/v1)                            *)
(* ------------------------------------------------------------------ *)

(* Bumped whenever exploration order, node accounting or the column
   split change: a checkpoint produced by a different engine must never
   be replayed. *)
let engine_fingerprint = "slin-engine/incremental-columns-v1"

(* Budgets are deliberately not part of the key: completed columns are
   valid facts about the game tree whatever budget discovered them, so a
   checkpoint taken under one budget may resume under another.  Reduction
   and preemption bounds ARE part of the key — they change which columns
   count as fully explored — but only when non-default, so every
   checkpoint minted before they existed stays valid.  The reduced suffix
   also names the memo key: reduced columns counted under the older
   switch-count key ("|reduce") have other node counts and must not
   resume next to columns counted under the preemption-state key. *)
let checkpoint_config ?(reduce = false) ?preempt_bound ~object_name ~max_depth () =
  Printf.sprintf "%s|depth=%s|%s%s%s" object_name
    (match max_depth with Some d -> string_of_int d | None -> "none")
    engine_fingerprint
    (if reduce then "|reduce=preempt-state" else "")
    (match preempt_bound with Some b -> Printf.sprintf "|preempt=%d" b | None -> "")

let checkpoint_schema = "slin-checkpoint/v1"

(* The resumable unit is one completed top-level column.  The game at
   the root reduces to "every top-level subtree admits the empty
   linearization", the columns are solved independently, and the merge
   is deterministic — the exact invariance the engine-equivalence suite
   pins for [jobs].  So skipping recorded columns and re-running the
   rest provably reaches the uninterrupted verdict, witness and counts.
   A finer-grained (mid-DFS) checkpoint would have to serialize the
   recursion stack and the schedule cache; column granularity costs at
   most one column of redone work and stays spec-independent. *)
type col_checkpoint = {
  col_index : int;
  col_outcome : string;  (* "ok" | "failed" | "not-lin" *)
  col_schedule : int list;  (* Not_linearizable schedule, else [] *)
  col_counters : Counters.t;
}

type checkpoint = { ck_config : string; ck_columns : col_checkpoint list }

(* FNV-1a 64-bit over the canonical JSON body: cheap, deterministic,
   and plenty for integrity (corruption detection, identity checks) —
   this is not a security boundary. *)
let fnv64 (s : string) =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let col_checkpoint_to_json (c : col_checkpoint) =
  Obs_json.Assoc
    ([
       ("col", Obs_json.Int c.col_index);
       ("outcome", Obs_json.String c.col_outcome);
       ("schedule", Obs_json.List (List.map (fun p -> Obs_json.Int p) c.col_schedule));
     ]
    @ Counters.to_json_fields c.col_counters)

let checkpoint_body ck =
  Obs_json.to_string
    (Obs_json.Assoc
       [
         ("engine", Obs_json.String engine_fingerprint);
         ("config", Obs_json.String ck.ck_config);
         ("columns", Obs_json.List (List.map col_checkpoint_to_json ck.ck_columns));
       ])

let checkpoint_fingerprint ck = fnv64 (checkpoint_body ck)

let checkpoint_to_json ck =
  Obs_json.Assoc
    [
      ("schema", Obs_json.String checkpoint_schema);
      ("engine", Obs_json.String engine_fingerprint);
      ("config", Obs_json.String ck.ck_config);
      ("fingerprint", Obs_json.String (checkpoint_fingerprint ck));
      ("columns", Obs_json.List (List.map col_checkpoint_to_json ck.ck_columns));
    ]

let checkpoint_of_json j : (checkpoint, string) result =
  let field = checkpoint_field in
  let* schema = field "schema" Obs_json.to_str j in
  if schema <> checkpoint_schema then
    Error (Printf.sprintf "checkpoint: unsupported schema %S (want %S)" schema checkpoint_schema)
  else
    let* engine = field "engine" Obs_json.to_str j in
    if engine <> engine_fingerprint then
      Error
        (Printf.sprintf "checkpoint: engine %S does not match this binary's %S" engine
           engine_fingerprint)
    else
      let* config = field "config" Obs_json.to_str j in
      let* fp = field "fingerprint" Obs_json.to_str j in
      let* cols = field "columns" Obs_json.to_list j in
      let parse_col o =
        let* idx = field "col" Obs_json.to_int o in
        let* outcome = field "outcome" Obs_json.to_str o in
        if outcome <> "ok" && outcome <> "failed" && outcome <> "not-lin" then
          Error (Printf.sprintf "checkpoint: column %d has unknown outcome %S" idx outcome)
        else
          let* schedule = field "schedule" Obs_json.to_int_list o in
          let* counters = Counters.of_json o in
          Ok
            {
              col_index = idx;
              col_outcome = outcome;
              col_schedule = schedule;
              col_counters = counters;
            }
      in
      let* columns =
        List.fold_left
          (fun acc o ->
            let* acc = acc in
            let* c = parse_col o in
            Ok (c :: acc))
          (Ok []) cols
      in
      let ck = { ck_config = config; ck_columns = List.rev columns } in
      if checkpoint_fingerprint ck <> fp then
        Error "checkpoint: content digest mismatch (corrupted or hand-edited file)"
      else Ok ck

type checkpointing = {
  cp_config : string;
  cp_resume : checkpoint option;
  cp_emit : checkpoint -> unit;
}

(* The [--reduce] memo's key: (fingerprint, depth, preemption state,
   interned linearization id). *)
module Memo = Hashtbl.Make (struct
  type t = int * int * int * int

  let equal ((a, b, c, d) : t) ((a', b', c', d') : t) = a = a' && b = b' && c = c' && d = d'

  let hash ((a, b, c, d) : t) = a + (31 * (b + (31 * (c + (31 * d)))))
end)

module Make (S : Spec.S) = struct
  type entry = { op_id : int; eresp : S.resp }

  type linearization = entry list

  (* One interned linearization: (prefix id, op_id, resp).  Responses
     compare structurally. *)
  module Lin_ids = Hashtbl.Make (struct
    type t = int * int * S.resp

    let equal ((a, i, r) : t) ((b, j, q) : t) = a = b && i = j && compare r q = 0

    let hash (key : t) = Hashtbl.hash key
  end)

  let pp_entry records fmt e =
    let r = List.find (fun (r : _ History.op_record) -> r.id = e.op_id) records in
    Format.fprintf fmt "#%d p%d %a -> %a" r.History.id r.History.proc S.pp_op r.History.op
      S.pp_resp e.eresp

  let pp_linearization records fmt l =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
      (pp_entry records) fmt l

  (* ---------------------------------------------------------------- *)
  (* Shared machinery                                                  *)
  (* ---------------------------------------------------------------- *)

  (* Deduplicating a state set costs a polymorphic sort; deterministic
     specs produce singletons on the hot path, where sorting is the
     identity — skip it. *)
  let sort_uniq_states = function ([] | [ _ ]) as l -> l | l -> List.sort_uniq compare l

  (* Nondeterministic specs: a sequence of (op, resp) pairs corresponds to
     a set of possible states.  [step_states] advances the whole set,
     keeping only outcomes whose response matches. *)
  let step_states states op resp =
    List.concat_map (fun s -> S.apply s op) states
    |> List.filter_map (fun (s', r) -> if S.equal_resp r resp then Some s' else None)
    |> sort_uniq_states

  (* All (resp, next-states) groups reachable by applying [op] to any
     state in [states]. *)
  let outcome_groups states op =
    let outcomes = List.concat_map (fun s -> S.apply s op) states in
    let acc : (S.resp * S.state list) list ref = ref [] in
    List.iter
      (fun (s', r) ->
        let rec insert = function
          | [] -> [ (r, [ s' ]) ]
          | (r0, ss) :: rest ->
              if S.equal_resp r0 r then (r0, s' :: ss) :: rest else (r0, ss) :: insert rest
        in
        acc := insert !acc)
      outcomes;
    List.map (fun (r, ss) -> (r, sort_uniq_states ss)) !acc

  (* Precedence masks for a list of records (ids are dense 0..n-1). *)
  let build_masks (records : (S.op, S.resp) History.op_record list) =
    let arr = Array.of_list records in
    let n = Array.length arr in
    if n > 60 then invalid_arg "Lincheck: more than 60 operations";
    let pred = Array.make n 0 in
    Array.iteri
      (fun i ri ->
        Array.iteri
          (fun j rj -> if i <> j && History.precedes rj ri then pred.(i) <- pred.(i) lor (1 lsl j))
          arr;
        ignore ri)
      arr;
    (arr, pred)

  let completed_mask_of arr =
    let m = ref 0 in
    Array.iteri (fun i r -> if History.is_complete r then m := !m lor (1 lsl i)) arr;
    !m

  (* Validate a linearization prefix against the (possibly extended)
     records of a node: responses of now-completed operations must match
     the committed ones, and the sequence must still be spec-valid.
     Returns the state set after the prefix, or None. *)
  let validate_over (arr : (S.op, S.resp) History.op_record array) (lin : linearization) =
    let rec go states = function
      | [] -> Some states
      | e :: rest ->
          if e.op_id >= Array.length arr then None
          else
            let r = arr.(e.op_id) in
            let resp_ok =
              match r.History.resp with None -> true | Some actual -> S.equal_resp actual e.eresp
            in
            if not resp_ok then None
            else
              let states' = step_states states r.History.op e.eresp in
              if states' = [] then None else go states' rest
    in
    go [ S.init ] lin

  let validate_prefix records lin = validate_over (Array.of_list records) lin

  (* The mask of operations [lin] places. *)
  let placed (lin : linearization) = List.fold_left (fun m e -> m lor (1 lsl e.op_id)) 0 lin

  (* Enumerate the minimal valid linearizations extending [lin] (whose
     state set is [states0]): place every completed operation; pending
     operations appear only in the interior (the last element of every
     extension is completed, or the extension is empty).  Works over a
     node's precomputed record array and masks so the solver never
     rebuilds them per candidate.  Returns deduplicated candidates, each
     with the state set after it, in a deterministic order (reverse of
     first-emission order, which the solver's candidate priority depends
     on).  [in_lin] is the mask of operations [lin] places. *)
  let enumerate_over (arr : (S.op, S.resp) History.op_record array) (pred : int array)
      (completed_mask : int) in_lin (lin : linearization) states0 =
    let n = Array.length arr in
    let results = ref [] in
    (* Dedup is structural: extensions bucketed by their op-id sequence
       (packed into a string key), responses compared with [S.equal_resp].
       Keying on [Format.asprintf "%a" S.pp_resp] was both slow and
       unsound when the printer is not injective — two distinct responses
       printing alike would wrongly collapse into one candidate. *)
    let seen : (string, S.resp list list) Hashtbl.t = Hashtbl.create 16 in
    let emit rev_acc states =
      let ext = List.rev rev_acc in
      let len = List.length ext in
      let key =
        let b = Bytes.create len in
        List.iteri (fun i e -> Bytes.unsafe_set b i (Char.unsafe_chr e.op_id)) ext;
        Bytes.unsafe_to_string b
      in
      let resps = List.map (fun e -> e.eresp) ext in
      let bucket = Option.value (Hashtbl.find_opt seen key) ~default:[] in
      if not (List.exists (fun rs -> List.for_all2 S.equal_resp rs resps) bucket) then begin
        Hashtbl.replace seen key (resps :: bucket);
        results := (ext, states) :: !results
      end
    in
    let rec go mask states rev_acc =
      if completed_mask land lnot mask = 0 then emit rev_acc states
      else
        for i = 0 to n - 1 do
          if mask land (1 lsl i) = 0 && pred.(i) land lnot mask = 0 then begin
            let r = arr.(i) in
            match r.History.resp with
            | Some actual ->
                let states' = step_states states r.History.op actual in
                if states' <> [] then
                  go (mask lor (1 lsl i)) states' ({ op_id = i; eresp = actual } :: rev_acc)
            | None ->
                List.iter
                  (fun (resp, states') ->
                    go (mask lor (1 lsl i)) states' ({ op_id = i; eresp = resp } :: rev_acc))
                  (outcome_groups states r.History.op)
          end
        done
    in
    go in_lin states0 [];
    List.map (fun (ext, states) -> (lin @ ext, states)) !results

  (* [enumerate_over] behind a fast path: when [lin] already places
     every completed operation, its only minimal extension is itself —
     the case of every node whose trace delta holds no [Return]. *)
  let extensions_over arr pred completed_mask (lin : linearization) states0 =
    let in_lin = placed lin in
    if completed_mask land lnot in_lin = 0 then [ (lin, states0) ]
    else enumerate_over arr pred completed_mask in_lin lin states0

  let extensions (records : (S.op, S.resp) History.op_record list) (lin : linearization) states0 =
    let arr, pred = build_masks records in
    List.map fst (extensions_over arr pred (completed_mask_of arr) lin states0)

  (* ---------------------------------------------------------------- *)
  (* Incremental node evaluation                                       *)
  (* ---------------------------------------------------------------- *)

  (* Everything the solver needs about one tree node, computed once and
     kept: the record array with its precedence masks (so [extensions]
     never rebuilds them per candidate), the enabled set, how much trace
     the records cover, a lazily-memoized answer to "is this node's
     execution linearizable at all?" (the dead-end root check), and the
     links to its evaluated children. *)
  type node_info = {
    rec_arr : (S.op, S.resp) History.op_record array;
    pred : int array;
    completed_mask : int;
    enabled : int list;
    trace_len : int;
    fp : Reduct.fp_state;
        (* commutation-invariant trace fingerprint: equal (modulo hash
           collisions) for nodes whose schedules differ only by swaps of
           adjacent commuting base-object accesses.  Such nodes have
           identical histories and record arrays, so the reduction memo
           may answer one from the other.  Only the memo reads it, so
           it is folded only in reduced runs and is [Reduct.fp_empty]
           otherwise. *)
    mutable root_linearizable : bool option;
    kids : node_info array;
        (* the engine's exploration cache: slot [p] holds the child that
           scheduling [p] reaches once it is evaluated, else [no_node] *)
  }

  (* The empty slot: a sentinel, not an option box. *)
  let no_node =
    {
      rec_arr = [||];
      pred = [||];
      completed_mask = 0;
      enabled = [];
      trace_len = -1;
      fp = Reduct.fp_empty;
      root_linearizable = None;
      kids = [||];
    }

  let kid_slots ~slots enabled =
    if slots = 0 || enabled = [] then [||] else Array.make slots no_node

  (* [enabled] is [Sim.enabled w], possibly an interned copy. *)
  let info_of_world ~fp ~slots ~enabled (w : (S.op, S.resp) Sim.t) =
    let trace = Sim.trace w in
    let arr, pred = build_masks (History.of_trace trace) in
    {
      rec_arr = arr;
      pred;
      completed_mask = completed_mask_of arr;
      enabled;
      trace_len = Sim.trace_len w;
      fp = (if fp then Reduct.fp_feed_list Reduct.fp_empty trace else Reduct.fp_empty);
      root_linearizable = None;
      kids = kid_slots ~slots enabled;
    }

  (* Extend [parent]'s evaluated state by the trace delta of [w], a world
     whose trace extends the parent node's (the child is the parent's
     schedule plus moves; execution is deterministic, so this holds
     whether [w] was stepped in place or rebuilt from scratch).

     Why existing rows survive: every event in the delta sits at a trace
     position >= [parent.trace_len] > the [inv_index] of every existing
     record, so a newly completed operation precedes no existing one and
     no existing pair changes order — [precedes] on old pairs is final.
     Completions only fill [resp]/[res_index] of a pending record; fresh
     invocations append records whose precedence rows are computed
     against the finished array.  One pass over the delta (a scheduling
     step emits at most one [Return] and one [Invoke] per operation it
     finishes or starts) collects both; a [Return] finds its operation
     among the delta's invocations or as the process's last record in
     the parent.  Cost: O(delta + new_ops * n) instead of
     O(trace * n + n^2) per node.  A delta without invocations shares
     the parent's [pred]; one without history events shares every
     array.  [fp] is the child's fingerprint, already folded by the
     caller; [slots] sizes the child's [kids]; [enabled] is
     [Sim.enabled w], possibly an interned copy. *)
  let extend_info ~fp ~slots ~enabled (parent : node_info) (w : (S.op, S.resp) Sim.t) =
    let trace_len = Sim.trace_len w in
    let kids = kid_slots ~slots enabled in
    let n0 = Array.length parent.rec_arr in
    (* [news]: records invoked in the delta, newest first; [rets]:
       (id, completed record) for every [Return] in the delta. *)
    let rec scan idx news rets = function
      | [] -> (news, rets)
      | Trace.Step _ :: rest -> scan (idx + 1) news rets rest
      | Trace.Invoke { proc; op } :: rest ->
          let id = n0 + List.length news in
          let r = { History.id; proc; op; resp = None; inv_index = idx; res_index = None } in
          scan (idx + 1) (r :: news) rets rest
      | Trace.Return { proc; resp } :: rest ->
          let r =
            match List.find_opt (fun (r : _ History.op_record) -> r.History.proc = proc) news with
            | Some r -> r
            | None ->
                let rec last i =
                  if i < 0 then invalid_arg "Lincheck: return without invocation in trace delta"
                  else if parent.rec_arr.(i).History.proc = proc then parent.rec_arr.(i)
                  else last (i - 1)
                in
                last (n0 - 1)
          in
          if not (History.is_pending r) then
            invalid_arg "Lincheck: return without invocation in trace delta";
          let done_ = { r with History.resp = Some resp; res_index = Some idx } in
          scan (idx + 1) news ((r.History.id, done_) :: rets) rest
    in
    match scan parent.trace_len [] [] (Sim.events_from w ~from:parent.trace_len) with
    | [], [] ->
        (* Base-object steps only: the history is untouched, share every
           array (and the memoized root check) with the parent. *)
        { parent with enabled; trace_len; fp; kids }
    | news, rets ->
        let n = n0 + List.length news in
        if n > 60 then invalid_arg "Lincheck: more than 60 operations";
        let rec_arr =
          if news = [] then Array.copy parent.rec_arr
          else Array.append parent.rec_arr (Array.of_list (List.rev news))
        in
        let completed_mask =
          List.fold_left
            (fun m (id, r) ->
              rec_arr.(id) <- r;
              m lor (1 lsl id))
            parent.completed_mask rets
        in
        let pred =
          if news = [] then parent.pred
          else begin
            let pred = Array.make n 0 in
            Array.blit parent.pred 0 pred 0 n0;
            for i = n0 to n - 1 do
              let ri = rec_arr.(i) in
              let m = ref 0 in
              for j = 0 to n - 1 do
                if j <> i && History.precedes rec_arr.(j) ri then m := !m lor (1 lsl j)
              done;
              pred.(i) <- !m
            done;
            pred
          end
        in
        { rec_arr; pred; completed_mask; enabled; trace_len; fp; root_linearizable = None; kids }

  (* Anchor check: recompute the node's records from the full trace and
     compare with the incrementally maintained ones.  Run at every node
     whose depth is a multiple of the checkpoint stride; a divergence is
     a checker bug, never a property of the object under test. *)
  let cross_check (info : node_info) (w : (S.op, S.resp) Sim.t) =
    if History.of_trace (Sim.trace w) <> Array.to_list info.rec_arr then
      invalid_arg "Lincheck: incremental node state diverged from full replay"

  (* [validate_over] at a child node [info], given the state set
     [states] that its [parent] holds for [lin].  Prefix-closedness makes
     this O(|lin|) with no spec step: the spec states after [lin] cannot
     change below the parent, and the only entries a child can
     contradict are the operations whose [Return] lands in its trace
     delta ([fresh]) — every other entry's response was checked at the
     parent or above.  With [anchor] (at every node whose depth is a
     multiple of the checkpoint stride, where [cross_check] runs), the
     result is recomputed from [S.init] and compared. *)
  let carry ~anchor ~(parent : node_info) (info : node_info) (lin : linearization) states =
    let fresh = info.completed_mask land lnot parent.completed_mask in
    let rec go = function
      | [] -> Some states
      | e :: rest -> (
          if fresh land (1 lsl e.op_id) = 0 then go rest
          else
            match info.rec_arr.(e.op_id).History.resp with
            | Some actual when not (S.equal_resp actual e.eresp) -> None
            | _ -> go rest)
    in
    let carried = if fresh = 0 then Some states else go lin in
    if anchor && validate_over info.rec_arr lin <> carried then
      invalid_arg "Lincheck: carried candidate states diverged from full validation";
    carried

  let root_linearizable (info : node_info) =
    match info.root_linearizable with
    | Some b -> b
    | None ->
        let b = extensions_over info.rec_arr info.pred info.completed_mask [] [ S.init ] <> [] in
        info.root_linearizable <- Some b;
        b

  (* ---------------------------------------------------------------- *)
  (* Single-trace linearizability                                      *)
  (* ---------------------------------------------------------------- *)

  let check_trace (t : (S.op, S.resp) Trace.t) : linearization option =
    let records = History.of_trace t in
    match extensions records [] [ S.init ] with [] -> None | l :: _ -> Some l

  let is_linearizable t = check_trace t <> None

  (* ---------------------------------------------------------------- *)
  (* Strong linearizability on the execution tree                      *)
  (* ---------------------------------------------------------------- *)

  type verdict =
    | Strongly_linearizable of { nodes : int }
    | Not_linearizable of { schedule : int list }
    | Not_strongly_linearizable of { witness : int list; nodes : int }
    | Out_of_budget of { nodes : int; reason : budget_reason }

  let pp_verdict fmt = function
    | Strongly_linearizable { nodes } ->
        Format.fprintf fmt "strongly linearizable (%d nodes explored)" nodes
    | Not_linearizable { schedule } ->
        Format.fprintf fmt "NOT linearizable (schedule: %s)"
          (String.concat "" (List.map string_of_int schedule))
    | Not_strongly_linearizable { witness; nodes } ->
        Format.fprintf fmt "linearizable but NOT strongly linearizable (witness: %s; %d nodes)"
          (String.concat "" (List.map string_of_int witness))
          nodes
    | Out_of_budget { nodes; reason = Budget_nodes } ->
        Format.fprintf fmt "inconclusive: budget of %d nodes exhausted" nodes
    | Out_of_budget { nodes; reason = Budget_wall } ->
        Format.fprintf fmt "inconclusive: wall-clock budget exhausted after %d nodes" nodes
    | Out_of_budget { nodes; reason = Budget_heap } ->
        Format.fprintf fmt "inconclusive: memory budget exhausted after %d nodes" nodes
    | Out_of_budget { nodes; reason = Budget_interrupt } ->
        Format.fprintf fmt "inconclusive: interrupted after %d nodes" nodes
    | Out_of_budget { nodes; reason = Budget_preempt } ->
        Format.fprintf fmt "inconclusive: preemption bound pruned schedules (%d nodes explored)"
          nodes

  (* ---------------------------------------------------------------- *)
  (* The game engine                                                   *)
  (*                                                                    *)
  (* The root node's history is empty, so its only minimal extension is *)
  (* the empty linearization: the game reduces to "every top-level      *)
  (* subtree succeeds with lin = []".  Those subtrees, one per process  *)
  (* enabled at the root, are the columns.  Every run evaluates the     *)
  (* root itself and solves the columns as tasks on a [Steal_pool]; a   *)
  (* run at one worker is simply a one-worker pool.                     *)
  (*                                                                    *)
  (* A task is one subtree solved under one inherited linearization.    *)
  (* Fork points (nodes at depth <= the steal grain with >= 2 children) *)
  (* run the current candidate's children as tasks under the            *)
  (* young-brothers-wait rule: the eldest child runs inline, alone;     *)
  (* only once it has succeeded are children 2..n-1 pushed as stealable *)
  (* tasks and child 1 run inline, and an eldest that fails settles the *)
  (* candidate before any sibling runs.  The root's columns follow the  *)
  (* same rule.  Sibling subtrees are disjoint, so they race on        *)
  (* nothing.  Determinism comes from *canonical resolution*: when a    *)
  (* candidate's children have all finished, their results are folded  *)
  (* in child order up to and including the first failing child —      *)
  (* exactly the walks a depth-first solver performs — and everything   *)
  (* after it (over-executed speculation, reported to the profiler as   *)
  (* discarded nodes) is dropped, counters, cached nodes and witnesses  *)
  (* alike.  The cache is the tree itself: a fresh node is linked into  *)
  (* its parent's [kids] slot, which only its own task writes.  Each    *)
  (* kid task logs its links; resolution appends the counted kids' logs *)
  (* to its own and unlinks the discarded kids', so a later candidate's *)
  (* re-walk sees precisely the cache a depth-first solver would have — *)
  (* hit and fresh counts match node for node.  A column task is never  *)
  (* discarded and logs nothing.  One worker never forks: it runs the   *)
  (* columns in order, one task each, which is that depth-first solver. *)
  (* ---------------------------------------------------------------- *)

  (* Kill evidence of a refuted (node, candidate): a mismatch or a dead
     end is its own node's reversed path; a node whose every candidate
     died is the union of the evidence each killed candidate's first
     failing child left.  A failed column's evidence is a certificate
     subtree ([Witness.certificate]).  A tree, so a failure costs one
     cell; paths are reversed and flattened once, at the column. *)
  type evidence = Leaf of int list | Union of evidence list

  let union = function [ ev ] -> ev | evs -> Union evs

  let kill_paths ev =
    let rec go acc = function
      | Leaf path -> List.rev path :: acc
      | Union evs -> List.fold_left go acc evs
    in
    go [] ev

  (* Result of one column (a top-level subtree solved with the empty
     inherited linearization).  A failed column carries its kill paths:
     [] when this run did not explore it unreduced. *)
  type col_outcome =
    | Col_ok
    | Col_failed of int list list
    | Col_not_lin of int list
    | Col_tripped of budget_reason
    | Col_abandoned

  type col_result = { cr_outcome : col_outcome; cr_counters : Counters.t }

  (* A checkpointed column replayed as if this run had solved it: the
     merge cannot tell a resumed column from a freshly solved one. *)
  let col_result_of_checkpoint (cc : col_checkpoint) =
    {
      cr_outcome =
        (match cc.col_outcome with
        | "ok" -> Col_ok
        | "failed" -> Col_failed []
        | _ -> Col_not_lin cc.col_schedule);
      cr_counters = cc.col_counters;
    }

  let col_tag = function
    | Col_ok -> "ok"
    | Col_failed _ -> "failed"
    | Col_not_lin _ -> "not-lin"
    | Col_tripped _ -> "budget"
    | Col_abandoned -> "abandoned"

  type task_outcome =
    | T_ok
    | T_fail of Prof.kill_reason * evidence
        (* the failing walk's kill attribution and evidence *)
    | T_notlin of int list
    | T_trip of budget_reason
    | T_col_abandoned  (* an earlier column stopped the run *)
    | T_aborted  (* an enclosing group's earlier child failed *)

  (* Join state of one candidate's forked children.  [g_failed] is the
     minimum failing child index so far (max_int while none): a task
     whose guard index exceeds it can no longer be part of the counted
     prefix and aborts at its next poll. *)
  type task_group = { g_pending : int Atomic.t; g_failed : int Atomic.t }

  (* The child links a kid task created: its own, then the logs of the
     kids its resolutions counted. *)
  type links = Links of (node_info * int) list * links list

  let no_links = Links ([], [])

  let rec unlink (Links (own, counted)) =
    List.iter (fun ((n : node_info), p) -> n.kids.(p) <- no_node) own;
    List.iter unlink counted

  (* A finished task: its outcome, counters and child links. *)
  type task_slot = {
    mutable r_out : task_outcome;
    mutable r_ctr : Counters.t option;
    mutable r_links : links;
  }

  exception Task_stop of task_outcome

  (* [max_depth] truncates the tree: nodes at that depth get no children.
     Truncation preserves soundness of refutation — a prefix-closed
     linearization function on the full tree restricts to one on any
     truncated subtree, so if none exists on the subtree none exists at
     all — but makes a Strongly_linearizable verdict relative to the
     explored depth.  It is needed for implementations whose operations
     can spin (e.g. a queue's dequeue retrying on empty), which make the
     full tree infinite.

     [crashes] extends the adversary's moves (the crash game, reached
     through [Internal.check_crashes]): besides stepping an enabled
     process it may crash one, at most [k] times per branch under
     [Some k].  Move [p < procs] steps [p] and move [procs + q] crashes
     [q], so a node's children are its enabled steps, then its crashes,
     and its [kids] have [2 * procs] slots.  A post-crash node is
     evaluated like any other, from its world: a crash adds no trace
     event, so [extend_info] shares every array with the parent and only
     the enabled set changes.  [Internal.check_crashes] runs the crash
     game at one worker with no reduction or preemption bound: the memo
     key and the preemption state do not read the crashed set, and no
     test pins a crash game at two workers.  Crash games count no
     [world.boot]. *)
  let game ~crashes ?(max_nodes = 200_000) ?max_depth ?budget_ms ?budget_heap_mb ?on_progress
      ?(progress_every = 10_000) ?(progress_every_ms = 1000) ?tracer ?profiler ?coverage
      ?(jobs = 1) ?(steal_grain = 4) ?(checkpoint_stride = 16) ?interrupt ?checkpointing
      ?(reduce = false) ?(reduce_check = false) ?preempt_bound (prog : (S.op, S.resp) Sim.program)
      : verdict * stats =
    let stride = max 1 checkpoint_stride in
    let steal_grain = max 0 steal_grain in
    let procs = prog.Sim.procs in
    let count_boot = crashes = None in
    let crashes = max 0 (Option.value crashes ~default:0) in
    (* [kids] slots of a node at [depth]: none below a [max_depth] cut. *)
    let slots = if crashes > 0 then 2 * procs else procs in
    let slots_at depth = match max_depth with Some d when depth >= d -> 0 | _ -> slots in
    (* A node's moves: its enabled steps, then, while its branch has
       crashed fewer than [crashes] processes, one crash per enabled
       process. *)
    let moves enabled crashed =
      if List.compare_length_with crashed crashes < 0 then
        enabled @ List.map (fun q -> procs + q) enabled
      else enabled
    in
    let crashed_of m crashed = if m >= procs then (m - procs) :: crashed else crashed in
    let reduce = reduce || reduce_check in
    let preempt_bound = Option.map (max 0) preempt_bound in
    let t0 = Obs.now_ns () in
    let lane_for w = Option.map (fun p -> Prof.lane p ~domain:w) profiler in
    let cov_for w = Option.map (fun c -> Coverage.shard c ~domain:w) coverage in
    let ckpt = checkpointing <> None in
    let want_ticks = on_progress <> None || tracer <> None in
    let beat ~nodes ~frontier =
      let elapsed_ns = Obs.now_ns () - t0 in
      (match on_progress with Some f -> f ~nodes ~elapsed_ns | None -> ());
      match tracer with
      | Some tr ->
          let ts_us = float_of_int elapsed_ns /. 1e3 in
          Obs_trace.counter tr ~cat:"lincheck" ~ts_us "nodes" (float_of_int nodes);
          Obs_trace.counter tr ~cat:"lincheck" ~ts_us "max_frontier_depth" (float_of_int frontier)
      | None -> ()
    in
    let finish ?(kill_paths = []) verdict (c : Counters.t) =
      let st = { (Counters.to_stats c ~elapsed_ns:(Obs.now_ns () - t0)) with kill_paths } in
      (match tracer with
      | Some tr ->
          let ts_us = float_of_int st.elapsed_ns /. 1e3 in
          Obs_trace.counter tr ~cat:"lincheck" ~ts_us "nodes" (float_of_int st.nodes);
          Obs_trace.complete tr ~cat:"lincheck" ~ts_us:0. ~dur_us:ts_us "check_strong"
      | None -> ());
      (verdict, st)
    in
    (* The budgets besides the node count, checked at every fresh node. *)
    let over_budget () =
      match budget_ms with
      | Some ms when Obs.now_ns () - t0 > ms * 1_000_000 -> Some Budget_wall
      | _ -> (
          match budget_heap_mb with
          | Some mb when heap_mb_now () > mb -> Some Budget_heap
          | _ -> ( match interrupt with Some f when f () -> Some Budget_interrupt | _ -> None))
    in
    (* Anchor check of a fresh node at a stride depth, timed for the
       profiler; [alone] when it runs as a pool task of its own. *)
    let anchor ?alone lane info w =
      let check () =
        cross_check info w;
        Sim.audit w
      in
      match lane with
      | None -> check ()
      | Some l ->
          let s = Obs.now_ns () in
          check ();
          Prof.cross_checked ?alone l ~start_ns:s ~stop_ns:(Obs.now_ns ())
    in
    (* Every world of the run steps through one response automaton,
       shared by the workers and dropped (its driver fibers discontinued)
       when the run returns. *)
    let auto = Sim.automaton prog in
    let boot () = Sim.boot_cached ~count_boot auto in
    (* [Sim.replay] of a move list, with a crash between runs of steps. *)
    let replay w moves =
      let rec go rev_steps = function
        | m :: rest when m < procs -> go (m :: rev_steps) rest
        | m :: rest ->
            Sim.replay w (List.rev rev_steps);
            Sim.crash w (m - procs);
            go [] rest
        | [] -> Sim.replay w (List.rev rev_steps)
      in
      if crashes > 0 then go [] moves else Sim.replay w moves
    in
    (* One shared [enabled] list per enabled-process mask: every node
       keeps its enabled set for the whole run, and a run meets only a
       few masks.  Filled lazily; two domains racing on a slot store
       equal immutable lists, and either is right. *)
    let intern_enabled =
      if procs > 12 then Fun.id
      else
        let table = Array.make (1 lsl procs) [] in
        function
        | [] -> []
        | l -> (
            let m = List.fold_left (fun m p -> m lor (1 lsl p)) 0 l in
            match Array.unsafe_get table m with
            | [] ->
                table.(m) <- l;
                l
            | shared -> shared)
    in
    let rec run ~nworkers =
      (* Heartbeat: only worker 0 beats, on its own fresh-node and
         256-event time cadences (the time cadence keeps cache-hit
         streaks and long anchored replays from going silent).  The count
         it reports is [live]: bumped per fresh node at one worker, where
         every executed node is counted, and by whole completed columns
         otherwise, so beats never overshoot the verdict's count. *)
      let live = Atomic.make 1 in
      let tick0 =
        if not want_ticks then fun ~fresh:_ ~frontier:_ -> ()
        else
          let freshes = ref 0 in
          let deepest = ref 0 in
          let ev = ref 0 in
          let next_beat = ref (t0 + (progress_every_ms * 1_000_000)) in
          fun ~fresh ~frontier ->
            if frontier > !deepest then deepest := frontier;
            if fresh then begin
              incr freshes;
              if !freshes mod progress_every = 0 then
                beat ~nodes:(Atomic.get live) ~frontier:!deepest
            end;
            if progress_every_ms > 0 then begin
              incr ev;
              if !ev land 255 = 0 then begin
                let now = Obs.now_ns () in
                if now >= !next_beat then begin
                  next_beat := now + (progress_every_ms * 1_000_000);
                  beat ~nodes:(Atomic.get live) ~frontier:!deepest
                end
              end
            end
      in
      (* The root: node 1, anchored (depth 0), one candidate (the empty
         linearization).  It is evaluated here, not in any column, and
         attributed to the merge lane and coverage shard 0. *)
      let acc = Counters.create () in
      acc.nodes <- 1;
      let merge_lane = lane_for 0 in
      let stop_at_root reason =
        (match merge_lane with Some l -> Prof.kill l Prof.Kill_budget | None -> ());
        finish (Out_of_budget { nodes = 1; reason }) acc
      in
      match if max_nodes < 1 then Some Budget_nodes else over_budget () with
      | Some reason -> stop_at_root reason
      | None ->
          acc.cand <- 1;
          (match merge_lane with Some l -> Prof.fresh l ~depth:0 | None -> ());
          let w0 = boot () in
          (* The root's [kids] exist before any column is seeded. *)
          let root_info =
            info_of_world ~fp:reduce ~slots:(slots_at 0) ~enabled:(intern_enabled (Sim.enabled w0)) w0
          in
          anchor merge_lane root_info w0;
          let columns =
            match max_depth with Some d when d <= 0 -> [] | _ -> moves root_info.enabled []
          in
          (match cov_for 0 with
          | Some sh ->
              Coverage.observe_node sh ~depth:0 ~branching:(List.length columns) (Sim.trace w0)
          | None -> ());
          tick0 ~fresh:true ~frontier:0;
          if columns = [] then finish (Strongly_linearizable { nodes = 1 }) acc
          else solve_columns ~nworkers ~live ~tick0 ~acc w0 root_info (Array.of_list columns)
    and solve_columns ~nworkers ~live ~tick0 ~acc w0 root_info cols =
      let ncols = Array.length cols in
      let merge_lane = lane_for 0 in
      let live_per_node = want_ticks && nworkers = 1 in
      (* Earliest column at which a depth-first walk stops (failed
         candidate, refutation, or budget trip): columns after it are
         irrelevant, so workers abandon them. *)
      let min_stop = Atomic.make max_int in
      let note_stop c =
        let rec go () =
          let cur = Atomic.get min_stop in
          if c < cur && not (Atomic.compare_and_set min_stop cur c) then go ()
        in
        go ()
      in
      (* The first exception raised by a task (a checker bug, a
         reduction cross-check failure, a raising [cp_emit]) stops every
         column and is re-raised once the pool has drained. *)
      let first_error : exn option Atomic.t = Atomic.make None in
      let note_error e =
        ignore (Atomic.compare_and_set first_error None (Some e));
        note_stop (-1)
      in
      let results : col_result option array = Array.make ncols None in
      (* Checkpoint bookkeeping: the cumulative column list, emitted
         (sorted) after every completed column.  The list is updated
         under a lock; the caller's [cp_emit] runs outside it so a
         raising emitter cannot wedge the other workers. *)
      let ck_lock = Mutex.create () in
      let ck_cols =
        ref
          (match checkpointing with
          | Some { cp_resume = Some r; _ } ->
              List.filter (fun cc -> cc.col_index >= 0 && cc.col_index < ncols) r.ck_columns
          | _ -> [])
      in
      let emit_col cp (cc : col_checkpoint) =
        Mutex.lock ck_lock;
        ck_cols :=
          List.sort
            (fun a b -> compare a.col_index b.col_index)
            (cc :: List.filter (fun c -> c.col_index <> cc.col_index) !ck_cols);
        let snapshot = !ck_cols in
        Mutex.unlock ck_lock;
        cp.cp_emit { ck_config = cp.cp_config; ck_columns = snapshot }
      in
      (* Resume: recorded columns are final — pre-fill their results so
         no worker re-solves them, and propagate any recorded stopping
         column so later columns abandon immediately. *)
      List.iter
        (fun (cc : col_checkpoint) ->
          results.(cc.col_index) <- Some (col_result_of_checkpoint cc);
          if cc.col_outcome <> "ok" then note_stop cc.col_index)
        !ck_cols;
      let on_steal =
        match profiler with
        | None -> None
        | Some p ->
            Some
              (fun ~thief ~victim:_ ~stolen:_ ~dur_ns ->
                let l = Prof.lane p ~domain:thief in
                Prof.note_span l Prof.Steal ~start_ns:(Obs.now_ns () - dur_ns) ~dur_ns ())
      in
      let pool = Steal_pool.create ~workers:nworkers ?on_steal () in
      (* The anchors below the root.  One worker checks them inline, in
         its depth-first walk.  More workers audit a fresh node on an
         uncounted copy of its world, as a task on the pool's shared
         queue: audits are order-free and never discarded, and an idle
         worker takes them before it steals speculative work (DESIGN
         §14).  The pool runs until every audit has finished, and one
         that raises stops the run like any task. *)
      let audits = Atomic.make 0 in
      let audit =
        if nworkers = 1 then fun lane info w -> anchor lane info w
        else fun _ info w ->
          let w = Sim.copy w in
          Atomic.incr audits;
          Steal_pool.push_shared pool (fun worker ->
              (try anchor ~alone:true (lane_for worker) info w with e -> note_error e);
              Atomic.decr audits)
      in
      (* Node budget.  A plain run charges every executed node to one
         run-wide count that starts at the root: at one worker that is
         exactly the verdict's count, and with more workers it also
         counts speculative and abandoned work, so a trip there is
         conservative and the merge re-runs on one worker.  A
         checkpointed run charges each column separately instead, so its
         trip points — which a checkpoint surfaces as a final
         [Out_of_budget] — are column-granular and identical at every
         worker count. *)
      let budget_for =
        if ckpt then
          let per_col = Array.init ncols (fun _ -> Atomic.make 0) in
          fun c -> per_col.(c)
        else
          let run_wide = Atomic.make 1 in
          fun _ -> run_wide
      in
      (* The steal grain: the depth down to which hot subtrees fork, and
         so the depth down to which the younger siblings of a succeeded
         eldest may run speculatively.  One worker never forks (its
         column tasks are the depth-first walk).
         Checkpointed runs never fork either: a whole column per task
         keeps its executed-node count exactly the canonical one, so
         column-granular trip points do not depend on the worker count.
         Nor do reduced runs: the memo's hit pattern is the depth-first
         walk's only if one table sees the whole column in DFS order —
         sibling tasks racing on a shared memo (or each starting one
         empty) would hit differently, changing counts with [jobs]. *)
      let grain = if nworkers = 1 || reduce || ckpt then 0 else steal_grain in
      (* Run one subtree as the current task on [worker]: returns its
         outcome, counters and child links; never raises [Task_stop]. *)
      let rec run_subtree ~spine ~base ~worker ~col ~guards path0 depth0 switches0 parent0 crashed0
          lin0 states0 lid0 =
        let k = Counters.create () in
        (* Only a kid task can be discarded, so only a kid task logs the
           links it creates ([own]) and keeps its counted kids' logs. *)
        let logged = guards <> [] in
        let own = ref [] in
        let counted = ref [] in
        (* Candidate-survival memo (--reduce): the solve result is a
           function of the node's commutation class (trace-equivalent
           prefixes have identical record arrays and enabled sets, hence
           isomorphic future subtrees), its depth, its preemption state
           and the inherited linearization — so one entry per (class
           fingerprint, depth, preemption state, lin) answers every twin
           in the column.  The preemption state is [preempt_state]: a
           constant with no bound, since nothing then reads [switches];
           under bound [b] the pair ([min switches b], last process),
           which is all the bound reads (DESIGN §15).  The linearization
           enters the key as its interned id ([lin_ids]), so the key is
           four ints.  Only committed results land here: a budget trip
           or a refutation unwinds as an exception and stores nothing.
           Under [reduce] the grain is 0, so one task covers one whole
           column and this table sees it in DFS order. *)
        let memo = if reduce then Some (Memo.create 256) else None in
        let preempt_state =
          match preempt_bound with
          | None -> fun _ _ -> 0
          | Some b -> fun switches path -> (min switches b * prog.Sim.procs) + List.hd path
        in
        (* Linearization interning, per task and only under [reduce]: id
           0 is the empty linearization, and [(prefix id, op_id, resp)]
           names the prefix extended by one entry, responses compared
           structurally — so two linearizations get one id exactly when
           they are equal.  A candidate's id is built from its parent's
           id and its extension entries alone. *)
        let lin_ids = Lin_ids.create (if reduce then 256 else 1) in
        let lin_id lid (lin : linearization) (cand : linearization) =
          let rec ext l c = match (l, c) with _ :: l, _ :: c -> ext l c | _, c -> c in
          List.fold_left
            (fun id e ->
              let key = (id, e.op_id, e.eresp) in
              match Lin_ids.find_opt lin_ids key with
              | Some i -> i
              | None ->
                  let i = Lin_ids.length lin_ids + 1 in
                  Lin_ids.add lin_ids key i;
                  i)
            lid (ext lin cand)
        in
        (* Why the last [solve] call returned false, for candidate-kill
           attribution.  Written on every failing return path; read only
           at the kill site.  Never feeds back. *)
        let last_fail = ref Prof.Kill_mismatch in
        (* The last failing [solve] call's kill evidence, written next to
           [last_fail].  A false memo hit leaves it stale, which is why
           reduced runs report none. *)
        let last_ev = ref (Union []) in
        let lane = lane_for worker in
        let cov = cov_for worker in
        let tick = if worker = 0 then tick0 else fun ~fresh:_ ~frontier:_ -> () in
        let budget = budget_for col in
        let stop reason = raise (Task_stop (T_trip reason)) in
        let poll () =
          if Atomic.get min_stop < col then raise (Task_stop T_col_abandoned);
          List.iter
            (fun ((g : task_group), i) ->
              if i > Atomic.get g.g_failed then raise (Task_stop T_aborted))
            guards
        in
        (* Worlds.  The spine ([ev_world], at [ev_path]) is the live world
           of the most recently evaluated fresh node, and descending to
           its child is one move in place.  A [spine] handed in sits at
           the root.  Before the spine leaves a node of this task for one
           child while another child that will need a world is still
           unevaluated, a copy of the node's world goes on [snaps]: a
           stack of (depth, path, world), deepest first, each a proper
           ancestor of the spine.  Any other fresh node is a copy of its
           deepest ancestor on [snaps] plus the moves below it, usually
           one; where none matches (a column's start, a kid task whose
           fork point had no world, re-walked speculation), a world
           booted off the run's response automaton and replayed from the
           root.  Either way a world built off the spine counts one
           [world.boot].  Entries deeper than the one used belong to
           subtrees the spine has left and are dropped.  Entries are only
           ever copied, never stepped, so the [base] a fork point hands
           in (the world at [path0]'s parent) is shared with the sibling
           tasks.  Cached worlds hold no fiber, so a dropped world needs
           no [Sim.release]. *)
        let ev_world : (S.op, S.resp) Sim.t option ref = ref spine in
        let ev_path : int list ref = ref [] in
        let snaps = ref (Option.to_list base) in
        (* Only nodes at or below [path0] count: the slots of the node
           above are filled by sibling tasks, concurrently, so reading
           them would make the choice depend on timing. *)
        let wants_snapshot (node : node_info) m depth crashed =
          depth >= depth0
          && Array.length node.kids > 0
          && List.exists (fun q -> q <> m && node.kids.(q) == no_node) (moves node.enabled crashed)
        in
        let rebuild path depth =
          let rec find tl td moves = function
            | [] -> None
            | ((d, sp, sw) :: rest) as stack ->
                if d > td then find tl td moves rest
                else if d < td then find (List.tl tl) (td - 1) (List.hd tl :: moves) stack
                else if sp == tl then Some (stack, sw, moves)
                else find tl td moves rest
          in
          match find (List.tl path) (depth - 1) [ List.hd path ] !snaps with
          | Some (stack, sw, moves) ->
              snaps := stack;
              let w = Sim.copy ~count_boot sw in
              replay w moves;
              w
          | None ->
              snaps := [];
              let w = boot () in
              replay w (List.rev path);
              w
        in
        (* The world at [path] (at [depth], below [parent], crashing
           [crashed]), which becomes the spine.  Only a step descends the
           spine in place: a node's crash children follow its step
           children, so the spine has left the node before a crash child
           is built, which [rebuild] makes from the node's snapshot. *)
        let world_at path depth (parent : node_info) crashed =
          match !ev_world with
          (* Same node re-requested (the reduction layer probes the world
             for its fingerprint before deciding whether to explore): the
             spine already sits there. *)
          | Some w when path == !ev_path -> w
          | Some w when List.tl path == !ev_path && List.hd path < procs ->
              let m = List.hd path in
              if wants_snapshot parent m (depth - 1) crashed then
                snaps := (depth - 1, !ev_path, Sim.copy w) :: !snaps;
              Sim.step w m;
              ev_path := path;
              w
          | _ ->
              let w = rebuild path depth in
              ev_world := Some w;
              ev_path := path;
              w
        in
        (* The node at [path]: its parent's [kids] slot, or evaluated now
           (with fingerprint [fp]) and linked there. *)
        let node_data path depth fp (parent : node_info) crashed =
          let p = List.hd path in
          let cached = parent.kids.(p) in
          if cached != no_node then begin
            k.hits <- k.hits + 1;
            tick ~fresh:false ~frontier:k.frontier;
            cached
          end
          else begin
            poll ();
            (* Count the node first, trip after: the node that exhausts
               the budget is part of the verdict's count. *)
            k.nodes <- k.nodes + 1;
            if Atomic.fetch_and_add budget 1 >= max_nodes then stop Budget_nodes;
            (match over_budget () with Some r -> stop r | None -> ());
            Counters.note_depth k depth;
            if live_per_node then Atomic.incr live;
            tick ~fresh:true ~frontier:k.frontier;
            let w = world_at path depth parent crashed in
            let info =
              extend_info ~fp ~slots:(slots_at depth) ~enabled:(intern_enabled (Sim.enabled w))
                parent w
            in
            if depth mod stride = 0 then audit lane info w;
            (* Coverage is passive: one trace scan per fresh node, and
               nothing it records feeds back into exploration. *)
            (match cov with
            | Some sh ->
                let branching =
                  match max_depth with Some d when depth >= d -> 0 | _ -> List.length info.enabled
                in
                Coverage.observe_node sh ~depth ~branching (Sim.trace w)
            | None -> ());
            parent.kids.(p) <- info;
            if logged then own := (parent, p) :: !own;
            info
          end
        in
        (* [path] is kept reversed for cheap extension; [depth] is its
           length; [switches] the preemptions charged so far; [parent]
           the parent node's evaluated state; [crashed] the processes
           [path] crashes; [lin] the inherited candidate, [states] the
           spec state set after it (valid at [parent]) and [lid] its
           interned id (0 unless reduced). *)
        let rec solve path depth switches parent crashed (lin : linearization) states lid =
          if depth > k.frontier then k.frontier <- depth;
          match memo with
          | Some m -> (
              (* Probe the memo BEFORE registering the node: computing
                 the child's fingerprint costs one [Sim.step] along the
                 spine or from the parent's snapshot (or a read of the
                 parent's [kids] slot), and a hit
                 answers the whole subtree — the pruned node is never
                 counted, polled, cross-checked or cached, exactly as if
                 the sleep set had suppressed the transition.  A miss
                 hands the folded [fp] on to the node's evaluation. *)
              let fp =
                let cached = parent.kids.(List.hd path) in
                if cached != no_node then cached.fp
                else
                  let w = world_at path depth parent crashed in
                  Reduct.fp_feed_list parent.fp (Sim.events_from w ~from:parent.trace_len)
              in
              let mkey = (Reduct.fp_value fp, depth, preempt_state switches path, lid) in
              match Memo.find_opt m mkey with
              | Some res when not reduce_check ->
                  k.prunes <- k.prunes + 1;
                  if not res then last_fail := Prof.Kill_pruned;
                  res
              | Some res ->
                  (* Debug cross-validation: re-explore the twin subtree
                     and insist commuting steps really did yield an
                     isomorphic (same-verdict) subtree. *)
                  let info = node_data path depth fp parent crashed in
                  let res' =
                    solve_node info parent path depth switches crashed lin states lid
                  in
                  if res' <> res then
                    invalid_arg
                      "Lincheck: reduction cross-check failed — commutation-equivalent subtrees \
                       disagree";
                  res'
              | None ->
                  let info = node_data path depth fp parent crashed in
                  let res =
                    solve_node info parent path depth switches crashed lin states lid
                  in
                  Memo.replace m mkey res;
                  res)
          | None ->
              let info = node_data path depth parent.fp parent crashed in
              solve_node info parent path depth switches crashed lin states lid
        and solve_node info parent path depth switches crashed (lin : linearization) states lid =
          let children =
            match max_depth with
            | Some d when depth >= d -> []
            | _ -> if crashes = 0 then info.enabled else moves info.enabled crashed
          in
          (* Conservative preemption bound: past [preempt_bound] switches
             only the currently scheduled process may continue (while it
             stays enabled).  Dropping children of a ∀-quantified game
             node preserves refutations — every explored node is a real
             node — and a fully successful game degrades to
             [Budget_preempt]. *)
          let children =
            match preempt_bound with
            | Some b when switches >= b -> (
                match path with
                | lastp :: _ when List.mem lastp children ->
                    if List.exists (fun p -> p <> lastp) children then k.pruned <- true;
                    [ lastp ]
                | _ -> children)
            | _ -> children
          in
          match carry ~anchor:(depth mod stride = 0) ~parent info lin states with
          | None ->
              k.vfail <- k.vfail + 1;
              last_fail := Prof.Kill_mismatch;
              last_ev := Leaf path;
              false
          | Some states -> (
              match extensions_over info.rec_arr info.pred info.completed_mask lin states with
              | [] ->
                  (* No valid linearization extends the parent's choice.
                     If even the empty prefix admits none, the execution
                     itself is not linearizable. *)
                  k.dead <- k.dead + 1;
                  if not (root_linearizable info) then
                    raise (Task_stop (T_notlin (List.rev path)));
                  Counters.log_witness k depth (List.rev path);
                  last_fail := Prof.Kill_dead_end;
                  last_ev := Leaf path;
                  false
              | candidates ->
                  k.cand <- k.cand + List.length candidates;
                  if children = [] then true
                  else begin
                    let lastp_enabled =
                      match path with lastp :: _ -> List.mem lastp info.enabled | [] -> false
                    in
                    let switches_to p =
                      match path with
                      | lastp :: _ when p <> lastp && lastp_enabled -> switches + 1
                      | _ -> switches
                    in
                    if depth > grain || List.compare_length_with children 2 < 0 then
                      (* Below the steal grain: the depth-first candidate
                         loop ([List.exists], unrolled to count refuted
                         candidates), inside this task. *)
                      let rec try_candidates evs = function
                        | [] ->
                            (* every candidate died at some child: the
                               caller's candidate is refuted by its futures *)
                            last_fail := Prof.Kill_futures;
                            last_ev := union evs;
                            false
                        | (cand, cstates) :: rest ->
                            let cid = if reduce then lin_id lid lin cand else 0 in
                            if
                              List.for_all
                                (fun p ->
                                  solve (p :: path) (depth + 1) (switches_to p) info
                                    (crashed_of p crashed) cand cstates cid)
                                children
                            then true
                            else begin
                              Counters.kill k !last_fail;
                              try_candidates (!last_ev :: evs) rest
                            end
                      in
                      try_candidates [] candidates
                    else fork_candidates info path depth switches_to crashed children candidates
                  end)
        (* Fork point: each candidate's children go out as tasks, joined
           by canonical resolution.  Reduced runs never fork, so the kid
           tasks carry no linearization id. *)
        and fork_candidates info path depth switches_to crashed kids candidates =
          let kid_arr = Array.of_list kids in
          let nkids = Array.length kid_arr in
          (* The world at this node, when one is at hand, is every kid
             task's [base]: this task does not move while its kids run. *)
          let base =
            match !ev_world with
            | Some w when !ev_path == path -> Some (depth, path, w)
            | _ -> List.find_opt (fun (d, sp, _) -> d = depth && sp == path) !snaps
          in
          let rec try_candidates evs = function
            | [] ->
                last_fail := Prof.Kill_futures;
                last_ev := union evs;
                false
            | (cand, cstates) :: rest -> (
                let group = { g_pending = Atomic.make nkids; g_failed = Atomic.make max_int } in
                let slots =
                  Array.init nkids (fun _ ->
                      { r_out = T_aborted; r_ctr = None; r_links = no_links })
                in
                let kid_task i w =
                  let slot = slots.(i) in
                  (try
                     let p = kid_arr.(i) in
                     let out, kc, links =
                       run_subtree ~spine:None ~base ~worker:w ~col
                         ~guards:((group, i) :: guards)
                         (p :: path) (depth + 1) (switches_to p) info (crashed_of p crashed) cand
                         cstates 0
                     in
                     slot.r_ctr <- Some kc;
                     slot.r_links <- links;
                     slot.r_out <- out
                   with e ->
                     note_error e;
                     slot.r_out <- T_aborted);
                  (match slot.r_out with
                  | T_ok -> ()
                  | _ ->
                      let rec lower () =
                        let cur = Atomic.get group.g_failed in
                        if i < cur && not (Atomic.compare_and_set group.g_failed cur i) then
                          lower ()
                      in
                      lower ());
                  Atomic.decr group.g_pending
                in
                (* Young brothers wait: the eldest child runs alone, and
                   only once it has succeeded do its siblings go out —
                   the youngest ones as stealable tasks, child 1 inline.
                   An eldest that fails, trips or aborts resolves the
                   candidate by itself.  On games that verify, the wait
                   only delays siblings that must run anyway (DESIGN §14
                   gives the measured cost). *)
                kid_task 0 worker;
                if slots.(0).r_out = T_ok then begin
                  for i = nkids - 1 downto 2 do
                    Steal_pool.push pool ~worker (kid_task i)
                  done;
                  kid_task 1 worker;
                  Steal_pool.help_until pool ~worker (fun () -> Atomic.get group.g_pending = 0)
                end;
                (* Canonical resolution: fold children in order up to and
                   including the first failure; discard the rest, whose
                   nodes a later candidate must evaluate afresh. *)
                let rec resolve i =
                  if i = nkids then T_ok
                  else begin
                    (match slots.(i).r_ctr with
                    | Some kc ->
                        Counters.absorb k kc;
                        if logged then counted := slots.(i).r_links :: !counted
                    | None -> ());
                    match slots.(i).r_out with
                    | T_ok -> resolve (i + 1)
                    | out ->
                        for j = i + 1 to nkids - 1 do
                          unlink slots.(j).r_links;
                          match (lane, slots.(j).r_ctr) with
                          | Some l, Some kc -> Prof.discard l kc.nodes
                          | _ -> ()
                        done;
                        out
                  end
                in
                match resolve 0 with
                | T_ok -> true
                | T_fail (reason, ev) ->
                    Counters.kill k reason;
                    try_candidates (ev :: evs) rest
                | out -> raise (Task_stop out))
          in
          try_candidates [] candidates
        in
        (match lane with
        | Some l -> Prof.begin_span l Prof.Solve ~label:(Printf.sprintf "col %d" col) ()
        | None -> ());
        let out =
          match
            poll ();
            solve path0 depth0 switches0 parent0 crashed0 lin0 states0 lid0
          with
          | true -> T_ok
          | false -> T_fail (!last_fail, !last_ev)
          | exception Task_stop o -> o
        in
        (match lane with Some l -> Prof.end_span l | None -> ());
        (out, k, Links (!own, !counted))
      in
      (* One column, run to completion as a task tree, its counted totals
         absorbed onto the completing worker's lane under a Share span,
         then published for the canonical merge. *)
      let column_task c w =
        let lane = lane_for w in
        if Atomic.get min_stop < c then begin
          (match lane with
          | Some l -> Prof.note_column l ~col:c ~proc:cols.(c) ~nodes:0 ~outcome:"abandoned"
          | None -> ());
          results.(c) <- Some { cr_outcome = Col_abandoned; cr_counters = Counters.create () }
        end
        else begin
          let p = cols.(c) in
          (* The root's world is spent on the first column's spine.  It
             holds no fiber, so any worker may take it. *)
          let spine = if c = 0 then Some w0 else None in
          let out, k, _ =
            run_subtree ~spine ~base:None ~worker:w ~col:c ~guards:[] [ p ] 1 0 root_info
              (crashed_of p []) [] [ S.init ] 0
          in
          root_info.kids.(p) <- no_node;
          let outcome =
            match out with
            | T_ok -> Col_ok
            | T_fail (_, ev) -> Col_failed (if reduce then [] else kill_paths ev)
            | T_notlin s -> Col_not_lin s
            | T_trip r ->
                Counters.attribute k Prof.Kill_budget;
                Col_tripped r
            | T_col_abandoned | T_aborted -> Col_abandoned
          in
          (match outcome with Col_ok | Col_abandoned -> () | _ -> note_stop c);
          (match lane with
          | Some l ->
              Prof.begin_span l Prof.Share ~label:(Printf.sprintf "col %d" c) ();
              Prof.add_nodes l k.nodes;
              Prof.add_hits l k.hits;
              Prof.add_depth_hist l k.depth_hist;
              Prof.add_kills l k.kills;
              Prof.add_prunes l k.prunes;
              Prof.note_column l ~col:c ~proc:p ~nodes:k.nodes ~outcome:(col_tag outcome);
              Prof.end_span l
          | None -> ());
          if want_ticks && nworkers > 1 && outcome <> Col_abandoned then
            ignore (Atomic.fetch_and_add live k.nodes);
          results.(c) <- Some { cr_outcome = outcome; cr_counters = k };
          (* Completed columns (ok / failed / not-lin) are final facts
             about the tree and go into the checkpoint; tripped or
             abandoned columns are not resumable state. *)
          match (checkpointing, outcome) with
          | Some cp, (Col_ok | Col_failed _ | Col_not_lin _) ->
              let sched = match outcome with Col_not_lin s -> s | _ -> [] in
              emit_col cp
                {
                  col_index = c;
                  col_outcome = col_tag outcome;
                  col_schedule = sched;
                  col_counters = Counters.persistent k;
                }
          | _ -> ()
        end
      in
      (* Columns follow the same young-brothers-wait rule as fork
         points: only the first unsolved column is seeded, and the others
         are pushed when it completes — by then abandoned at once if it
         stopped the run.  They are pushed youngest first, so the owner's
         LIFO pops (all of them, at one worker) keep column order.
         Checkpointed runs seed every column round-robin instead: each
         column has its own budget there, and a younger column that
         completes while an elder one trips is resumable progress. *)
      let unsolved = List.filter (fun c -> results.(c) = None) (List.init ncols Fun.id) in
      let remaining = Atomic.make (List.length unsolved) in
      let column c w =
        Fun.protect
          ~finally:(fun () -> Atomic.decr remaining)
          (fun () -> try column_task c w with e -> note_error e)
      in
      (match unsolved with
      | eldest :: younger when not ckpt ->
          Steal_pool.push pool ~worker:0 (fun w ->
              column eldest w;
              List.iter (fun c -> Steal_pool.push pool ~worker:w (column c)) (List.rev younger))
      | _ ->
          List.iter
            (fun c -> Steal_pool.push pool ~worker:(c mod nworkers) (column c))
            (List.rev unsolved));
      Steal_pool.run pool (fun w ->
          Steal_pool.help_until pool ~worker:w (fun () ->
              Atomic.get remaining = 0 && Atomic.get audits = 0));
      (match Atomic.get first_error with Some e -> raise e | None -> ());
      (* Deterministic merge: column order, strictly-deeper witness rule,
         stop at the first non-succeeding column.  [merged] counts the
         columns the verdict includes. *)
      let exception Fallback in
      let exception Stop of verdict in
      (match merge_lane with Some l -> Prof.begin_span l Prof.Merge () | None -> ());
      let merged = ref 0 in
      let kill_paths = ref [] in
      let verdict =
        try
          for c = 0 to ncols - 1 do
            let r =
              match results.(c) with
              | Some { cr_outcome = Col_abandoned; _ } | None ->
                  (* Only a worker that raced a stale [min_stop] leaves
                     an abandoned column in the walked prefix. *)
                  raise Fallback
              | Some r -> r
            in
            Counters.absorb acc r.cr_counters;
            merged := c + 1;
            (match r.cr_outcome with
            | Col_ok -> ()
            | Col_failed paths ->
                (* The root's only candidate dies with this column.  A
                   column root cannot mismatch the empty linearization,
                   and a dead end there is a refutation of
                   linearizability, so its futures are what killed it. *)
                Counters.kill acc Prof.Kill_futures;
                (match merge_lane with Some l -> Prof.kill l Prof.Kill_futures | None -> ());
                let witness = Counters.witness acc in
                kill_paths := paths;
                raise (Stop (Not_strongly_linearizable { witness; nodes = acc.nodes }))
            | Col_not_lin schedule -> raise (Stop (Not_linearizable { schedule }))
            | Col_tripped reason ->
                (* Exact at one worker and column-granular when
                   checkpointed; otherwise speculation may have tripped
                   it early. *)
                if nworkers = 1 || ckpt then
                  raise (Stop (Out_of_budget { nodes = acc.nodes; reason }))
                else raise Fallback
            | Col_abandoned -> assert false);
            if ckpt && acc.nodes > max_nodes then
              raise (Stop (Out_of_budget { nodes = acc.nodes; reason = Budget_nodes }))
          done;
          Some
            (if acc.pruned then Out_of_budget { nodes = acc.nodes; reason = Budget_preempt }
             else Strongly_linearizable { nodes = acc.nodes })
        with
        | Stop v -> Some v
        | Fallback ->
            merged := 0;
            None
      in
      (* Columns this run solved that the verdict leaves out — all of
         them when it falls back — are discarded speculation. *)
      (match merge_lane with
      | Some l ->
          List.iter
            (fun c ->
              match results.(c) with
              | Some r when c >= !merged -> Prof.discard l r.cr_counters.nodes
              | _ -> ())
            unsolved;
          Prof.end_span l
      | None -> ());
      match verdict with
      | Some v -> finish ~kill_paths:!kill_paths v acc
      | None ->
          (* Re-run on the one-worker pool: budgeted work is bounded, and
             only the depth-first walk says precisely where it stops. *)
          assert (nworkers > 1);
          run ~nworkers:1
    in
    (* The worker count is capped at the hardware parallelism — domains
       beyond the core count only time-slice the same cores and slow the
       solve down (and column determinism makes the cap invisible in the
       output). *)
    Fun.protect
      ~finally:(fun () -> Sim.drop auto)
      (fun () -> run ~nworkers:(Steal_pool.effective_workers ~requested:(max 1 jobs)))

  let check_strong_stats = game ~crashes:None

  let check_strong ?max_nodes ?max_depth prog =
    fst (check_strong_stats ?max_nodes ?max_depth prog)

  (* Exposed (under [Internal]) for the witness forensics in
     [Witness.Make] (which replays the enumerator on small certificate
     subtrees), for the crash adversary in [Adversary.Make] (whose game
     is this engine's crash alphabet), and for benchmarks and tests.
     Not part of the checking API proper. *)
  module Internal = struct
    let check_crashes ?(max_nodes = 2_000_000) ?max_depth ?budget_ms ?checkpoint_stride ~crashes
        prog =
      fst (game ~crashes:(Some crashes) ~max_nodes ?max_depth ?budget_ms ?checkpoint_stride prog)

    let validate_prefix = validate_prefix

    let extensions = extensions

    type nonrec node_info = node_info

    let info_of_world w = info_of_world ~fp:false ~slots:0 ~enabled:(Sim.enabled w) w

    let extend_info (parent : node_info) w =
      extend_info ~fp:parent.fp ~slots:0 ~enabled:(Sim.enabled w) parent w

    let cross_check = cross_check

    let records_of (info : node_info) = Array.to_list info.rec_arr

    let validate_info (info : node_info) lin = validate_over info.rec_arr lin

    let extensions_info (info : node_info) lin states =
      List.map fst (extensions_over info.rec_arr info.pred info.completed_mask lin states)

    let carry_info = carry

    let candidates_info (info : node_info) lin states =
      extensions_over info.rec_arr info.pred info.completed_mask lin states

    let enumerate_info (info : node_info) lin states =
      enumerate_over info.rec_arr info.pred info.completed_mask (placed lin) lin states
  end

  let verdict_fields = function
    | Strongly_linearizable { nodes } ->
        [ ("verdict", Obs_json.String "strongly_linearizable"); ("nodes", Obs_json.Int nodes) ]
    | Not_linearizable { schedule } ->
        [
          ("verdict", Obs_json.String "not_linearizable");
          ("schedule", Obs_json.List (List.map (fun p -> Obs_json.Int p) schedule));
        ]
    | Not_strongly_linearizable { witness; nodes } ->
        [
          ("verdict", Obs_json.String "not_strongly_linearizable");
          ("witness", Obs_json.List (List.map (fun p -> Obs_json.Int p) witness));
          ("nodes", Obs_json.Int nodes);
        ]
    | Out_of_budget { nodes; reason = Budget_nodes } ->
        (* Pinned shape predating [budget_reason]; adding a field here
           would break the byte-identical-output contract for node-budget
           runs. *)
        [ ("verdict", Obs_json.String "out_of_budget"); ("nodes", Obs_json.Int nodes) ]
    | Out_of_budget { nodes; reason } ->
        [
          ("verdict", Obs_json.String "out_of_budget");
          ("nodes", Obs_json.Int nodes);
          ("reason", Obs_json.String (budget_reason_tag reason));
        ]
end
