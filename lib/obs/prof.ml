(* Span-based engine profiler: per-domain timelines + work counters,
   rendered as a versioned slin-profile/v1 JSON report, an ASCII
   summary, and a Chrome trace with one lane per domain.

   Invariants the engine relies on:
   - recording into a lane is unsynchronized (one owner domain), so the
     hot-path cost of a profiled run is an array bump per node;
   - nothing here feeds back into exploration — a profiled run's
     verdict, node counts and stdout are byte-identical to an
     unprofiled one;
   - [Solve] phase totals exclude the nested cross-check time, so the
     per-phase breakdown partitions lane busy time instead of
     double-counting anchored replays. *)

type phase = Solve | Merge | Idle | Cross_check | Steal | Share

let phase_tag = function
  | Solve -> "solve"
  | Merge -> "merge"
  | Idle -> "idle"
  | Cross_check -> "cross_check"
  | Steal -> "steal"
  | Share -> "share"

let phase_index = function
  | Solve -> 0
  | Merge -> 1
  | Idle -> 2
  | Cross_check -> 3
  | Steal -> 4
  | Share -> 5

type kill_reason = Kill_mismatch | Kill_dead_end | Kill_futures | Kill_budget | Kill_pruned

let kill_tag = function
  | Kill_mismatch -> "response_mismatch"
  | Kill_dead_end -> "dead_end"
  | Kill_futures -> "futures_refuted"
  | Kill_budget -> "budget"
  | Kill_pruned -> "pruned"

let kill_index = function
  | Kill_mismatch -> 0
  | Kill_dead_end -> 1
  | Kill_futures -> 2
  | Kill_budget -> 3
  | Kill_pruned -> 4

let all_kills = [ Kill_mismatch; Kill_dead_end; Kill_futures; Kill_budget; Kill_pruned ]

let n_kills = List.length all_kills

type span = { sp_phase : phase; sp_label : string; sp_start_ns : int; sp_dur_ns : int }

(* Timeline capacity per lane: coarse spans (solve columns, merges) are
   few; long cross-checks can add up, so the tail is dropped (counted)
   rather than growing without bound on million-node runs. *)
let max_spans_per_lane = 4096

(* Only anchored replays at least this long enter the timeline; all of
   them land in the aggregate either way. *)
let long_cross_check_ns = 100_000

let depth_buckets = 64

type lane = {
  l_domain : int;
  mutable l_spans : span list;  (* newest first *)
  mutable l_nspans : int;
  mutable l_dropped : int;
  mutable l_open : (phase * string * int) option;
  mutable l_nodes : int;
  mutable l_hits : int;
  l_phase_ns : int array;  (* indexed by phase_index; Idle unused here *)
  l_depth_hist : int array;
  l_kills : int array;
  mutable l_prunes : int;
  mutable l_discarded : int;
  mutable l_cross_checks : int;
  mutable l_columns : (int * int * int * string) list;  (* newest first *)
}

type t = {
  t_clock : unit -> int;
  t_t0_ns : int;
  mutable t_finish_ns : int option;
  t_lock : Mutex.t;
  mutable t_lanes : lane list;
}

let create ?clock () =
  let clock = match clock with Some c -> c | None -> Obs.now_ns in
  {
    t_clock = clock;
    t_t0_ns = clock ();
    t_finish_ns = None;
    t_lock = Mutex.create ();
    t_lanes = [];
  }

let finish t =
  match t.t_finish_ns with Some _ -> () | None -> t.t_finish_ns <- Some (t.t_clock ())

let end_ns t = match t.t_finish_ns with Some e -> e | None -> t.t_clock ()

let wall_ns t = max 0 (end_ns t - t.t_t0_ns)

let lane t ~domain =
  Mutex.lock t.t_lock;
  let l =
    match List.find_opt (fun l -> l.l_domain = domain) t.t_lanes with
    | Some l -> l
    | None ->
        let l =
          {
            l_domain = domain;
            l_spans = [];
            l_nspans = 0;
            l_dropped = 0;
            l_open = None;
            l_nodes = 0;
            l_hits = 0;
            l_phase_ns = Array.make 6 0;
            l_depth_hist = Array.make depth_buckets 0;
            l_kills = Array.make n_kills 0;
            l_prunes = 0;
            l_discarded = 0;
            l_cross_checks = 0;
            l_columns = [];
          }
        in
        t.t_lanes <- l :: t.t_lanes;
        l
  in
  Mutex.unlock t.t_lock;
  l

let lanes t =
  Mutex.lock t.t_lock;
  let ls = t.t_lanes in
  Mutex.unlock t.t_lock;
  List.sort (fun a b -> compare a.l_domain b.l_domain) ls

let push_span l sp =
  if l.l_nspans < max_spans_per_lane then begin
    l.l_spans <- sp :: l.l_spans;
    l.l_nspans <- l.l_nspans + 1
  end
  else l.l_dropped <- l.l_dropped + 1

let note_span l ph ?(label = "") ~start_ns ~dur_ns () =
  let dur_ns = max 0 dur_ns in
  l.l_phase_ns.(phase_index ph) <- l.l_phase_ns.(phase_index ph) + dur_ns;
  push_span l { sp_phase = ph; sp_label = label; sp_start_ns = start_ns; sp_dur_ns = dur_ns }

(* Spans need the profile's clock; lanes don't carry a back-pointer, so
   begin/end read the global clock directly.  Tests that want a fake
   clock use [note_span]. *)
let begin_span l ph ?(label = "") () =
  (match l.l_open with
  | None -> ()
  | Some (ph0, label0, start0) ->
      l.l_open <- None;
      note_span l ph0 ~label:label0 ~start_ns:start0 ~dur_ns:(Obs.now_ns () - start0) ());
  l.l_open <- Some (ph, label, Obs.now_ns ())

let end_span l =
  match l.l_open with
  | None -> ()
  | Some (ph, label, start) ->
      l.l_open <- None;
      note_span l ph ~label ~start_ns:start ~dur_ns:(Obs.now_ns () - start) ()

(* A cross-check that runs [alone], as a task of its own with no solve
   span around it, is booked to [Solve] as well: the breakdown reports
   solve minus cross-check, so the lane still partitions its time. *)
let cross_checked ?(alone = false) l ~start_ns ~stop_ns =
  let dur = max 0 (stop_ns - start_ns) in
  if alone then l.l_phase_ns.(phase_index Solve) <- l.l_phase_ns.(phase_index Solve) + dur;
  l.l_cross_checks <- l.l_cross_checks + 1;
  l.l_phase_ns.(phase_index Cross_check) <- l.l_phase_ns.(phase_index Cross_check) + dur;
  if dur >= long_cross_check_ns then
    push_span l { sp_phase = Cross_check; sp_label = ""; sp_start_ns = start_ns; sp_dur_ns = dur }

let fresh l ~depth =
  l.l_nodes <- l.l_nodes + 1;
  let b = if depth >= depth_buckets then depth_buckets - 1 else if depth < 0 then 0 else depth in
  l.l_depth_hist.(b) <- l.l_depth_hist.(b) + 1

let hit l = l.l_hits <- l.l_hits + 1

let add_nodes l n = l.l_nodes <- l.l_nodes + n

let add_hits l n = l.l_hits <- l.l_hits + n

let add_depth_hist l hist =
  let n = min (Array.length hist) depth_buckets in
  for i = 0 to n - 1 do
    l.l_depth_hist.(i) <- l.l_depth_hist.(i) + hist.(i)
  done

let add_kills l kills =
  let n = min (Array.length kills) n_kills in
  for i = 0 to n - 1 do
    l.l_kills.(i) <- l.l_kills.(i) + kills.(i)
  done

let kill l r = l.l_kills.(kill_index r) <- l.l_kills.(kill_index r) + 1

let prune l = l.l_prunes <- l.l_prunes + 1

let add_prunes l n = l.l_prunes <- l.l_prunes + n

let discard l n = l.l_discarded <- l.l_discarded + n

let note_column l ~col ~proc ~nodes ~outcome = l.l_columns <- (col, proc, nodes, outcome) :: l.l_columns

let lane_nodes l = l.l_nodes

let lane_domain l = l.l_domain

(* Busy time of a lane: solve + merge + steal + share span time.
   Cross-check time is nested inside solve spans, so it is not added
   again; the [Solve] figure reported outward has it subtracted
   instead. *)
let lane_busy_ns l =
  l.l_phase_ns.(phase_index Solve)
  + l.l_phase_ns.(phase_index Merge)
  + l.l_phase_ns.(phase_index Steal)
  + l.l_phase_ns.(phase_index Share)

let lane_phase_ns_in t l ph =
  match ph with
  | Solve -> max 0 (l.l_phase_ns.(phase_index Solve) - l.l_phase_ns.(phase_index Cross_check))
  | Merge -> l.l_phase_ns.(phase_index Merge)
  | Cross_check -> l.l_phase_ns.(phase_index Cross_check)
  | Steal -> l.l_phase_ns.(phase_index Steal)
  | Share -> l.l_phase_ns.(phase_index Share)
  | Idle -> max 0 (wall_ns t - lane_busy_ns l)

let lane_phase_ns = lane_phase_ns_in

let accounted_pct t =
  let w = wall_ns t in
  let ls = lanes t in
  if w <= 0 || ls = [] then 100.
  else
    let covered =
      List.fold_left (fun acc l -> acc + min w (lane_busy_ns l) + lane_phase_ns_in t l Idle) 0 ls
    in
    100. *. float_of_int covered /. float_of_int (w * List.length ls)

(* ---------------------------------------------------------------- *)
(* slin-profile/v1 report                                            *)
(* ---------------------------------------------------------------- *)

let trim_trailing_zeros arr =
  let n = ref (Array.length arr) in
  while !n > 0 && arr.(!n - 1) = 0 do
    decr n
  done;
  Array.to_list (Array.sub arr 0 !n)

let kills_json kills =
  Obs_json.Assoc (List.map (fun r -> (kill_tag r, Obs_json.Int kills.(kill_index r))) all_kills)

let phase_ns_json t l =
  Obs_json.Assoc
    (List.map
       (fun ph -> (phase_tag ph, Obs_json.Int (lane_phase_ns_in t l ph)))
       [ Solve; Merge; Cross_check; Steal; Share; Idle ])

let span_json t sp =
  Obs_json.Assoc
    ([
       ("phase", Obs_json.String (phase_tag sp.sp_phase));
       ("start_ns", Obs_json.Int (sp.sp_start_ns - t.t_t0_ns));
       ("dur_ns", Obs_json.Int sp.sp_dur_ns);
     ]
    @ if sp.sp_label = "" then [] else [ ("label", Obs_json.String sp.sp_label) ])

let lane_json t l =
  let w = wall_ns t in
  let busy = lane_busy_ns l in
  let util = if w <= 0 then 0. else float_of_int (min w busy) /. float_of_int w in
  Obs_json.Assoc
    ([
       ("domain", Obs_json.Int l.l_domain);
       ("nodes", Obs_json.Int l.l_nodes);
       ("cache_hits", Obs_json.Int l.l_hits);
       ("prunes", Obs_json.Int l.l_prunes);
       ("cross_checks", Obs_json.Int l.l_cross_checks);
       ("phase_ns", phase_ns_json t l);
       ("utilization", Obs_json.Float util);
       ("depth_hist", Obs_json.List (List.map (fun n -> Obs_json.Int n) (trim_trailing_zeros l.l_depth_hist)));
       ("kills", kills_json l.l_kills);
       ( "columns",
         Obs_json.List
           (List.rev_map
              (fun (col, proc, nodes, outcome) ->
                Obs_json.Assoc
                  [
                    ("col", Obs_json.Int col);
                    ("proc", Obs_json.Int proc);
                    ("nodes", Obs_json.Int nodes);
                    ("outcome", Obs_json.String outcome);
                  ])
              l.l_columns) );
       ("spans", Obs_json.List (List.rev_map (span_json t) l.l_spans));
     ]
    @ if l.l_dropped = 0 then [] else [ ("dropped_spans", Obs_json.Int l.l_dropped) ])

let totals t =
  let ls = lanes t in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 ls in
  let nodes = sum (fun l -> l.l_nodes) in
  let hits = sum (fun l -> l.l_hits) in
  let prunes = sum (fun l -> l.l_prunes) in
  let discarded = sum (fun l -> l.l_discarded) in
  let kills = Array.make n_kills 0 in
  List.iter (fun l -> Array.iteri (fun i k -> kills.(i) <- kills.(i) + k) l.l_kills) ls;
  let phase ph = sum (fun l -> lane_phase_ns_in t l ph) in
  (ls, nodes, hits, prunes, discarded, kills, phase)

let to_json t ~meta =
  let w = wall_ns t in
  let ls, nodes, hits, prunes, discarded, kills, phase = totals t in
  let nps = if w <= 0 then 0. else float_of_int nodes *. 1e9 /. float_of_int w in
  Obs_json.Assoc
    ((("schema", Obs_json.String "slin-profile/v1") :: meta)
    @ [
        ("wall_ns", Obs_json.Int w);
        ("accounted_pct", Obs_json.Float (accounted_pct t));
        ( "totals",
          Obs_json.Assoc
            [
              ("nodes", Obs_json.Int nodes);
              ("cache_hits", Obs_json.Int hits);
              ("prunes", Obs_json.Int prunes);
              ("discarded_nodes", Obs_json.Int discarded);
              ("nodes_per_sec", Obs_json.Float nps);
              ( "phase_ns",
                Obs_json.Assoc
                  (List.map
                     (fun ph -> (phase_tag ph, Obs_json.Int (phase ph)))
                     [ Solve; Merge; Cross_check; Steal; Share; Idle ]) );
              ("kills", kills_json kills);
            ] );
        ("lanes", Obs_json.List (List.map (lane_json t) ls));
      ])

(* ---------------------------------------------------------------- *)
(* Validation                                                        *)
(* ---------------------------------------------------------------- *)

let validate doc =
  let open Obs_json in
  let ( let* ) r f = Result.bind r f in
  let need name = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let need_int obj name =
    match member name obj with
    | Some (Int _) -> Ok ()
    | Some _ -> Error (Printf.sprintf "field %S is not an integer" name)
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* () =
    match member "schema" doc with
    | Some (String "slin-profile/v1") -> Ok ()
    | Some (String s) -> Error (Printf.sprintf "unexpected schema %S" s)
    | _ -> Error "missing schema tag"
  in
  let* () = need_int doc "wall_ns" in
  let* tot = need "totals" (member "totals" doc) in
  let* () = need_int tot "nodes" in
  let* () = need_int tot "cache_hits" in
  let* () =
    match member "nodes_per_sec" tot with
    | Some (Float _ | Int _) -> Ok ()
    | _ -> Error "totals.nodes_per_sec missing or not a number"
  in
  let check_phase_ns owner obj =
    match member "phase_ns" obj with
    | Some (Assoc kvs) ->
        let tags = List.map phase_tag [ Solve; Merge; Cross_check; Idle ] in
        let rec go = function
          | [] -> Ok ()
          | tag :: rest -> (
              match List.assoc_opt tag kvs with
              | Some (Int _) -> go rest
              | _ -> Error (Printf.sprintf "%s.phase_ns.%s missing or not an integer" owner tag))
        in
        go tags
    | _ -> Error (Printf.sprintf "%s.phase_ns missing" owner)
  in
  let* () = check_phase_ns "totals" tot in
  let* lanes = need "lanes" (member "lanes" doc) in
  let* lanes = need "lanes (list)" (to_list lanes) in
  let rec check_lanes = function
    | [] -> Ok ()
    | l :: rest ->
        let* () = need_int l "domain" in
        let* () = need_int l "nodes" in
        let* () = need_int l "cache_hits" in
        let* () = check_phase_ns "lane" l in
        let* () =
          match member "spans" l with
          | Some (List spans) ->
              let rec sp = function
                | [] -> Ok ()
                | s :: srest ->
                    let* () = need_int s "start_ns" in
                    let* () = need_int s "dur_ns" in
                    let* () =
                      match member "phase" s with
                      | Some (String ("solve" | "merge" | "idle" | "cross_check" | "steal" | "share")) ->
                          Ok ()
                      | _ -> Error "span.phase missing or unknown"
                    in
                    sp srest
              in
              sp spans
          | _ -> Error "lane.spans missing"
        in
        check_lanes rest
  in
  check_lanes lanes

(* ---------------------------------------------------------------- *)
(* ASCII summary                                                     *)
(* ---------------------------------------------------------------- *)

let pp_summary fmt t =
  let w = wall_ns t in
  let ls, nodes, hits, prunes, discarded, kills, phase = totals t in
  let wall_s = float_of_int w /. 1e9 in
  let nps = if w <= 0 then 0. else float_of_int nodes *. 1e9 /. float_of_int w in
  Format.fprintf fmt "wall %.3f s, %d lanes, %d nodes (%.0f nodes/s), %d cache hits%s@." wall_s
    (List.length ls) nodes nps hits
    (if prunes > 0 then Printf.sprintf ", %d prunes" prunes else "");
  if discarded > 0 then
    Format.fprintf fmt "discarded_nodes %d (speculative, left out of the verdict)@." discarded;
  let pct ns = if w <= 0 then 0. else 100. *. float_of_int ns /. float_of_int w in
  Format.fprintf fmt "lane   nodes      hits   solve%%  merge%%  xchk%%  steal%%  share%%   idle%%@.";
  List.iter
    (fun l ->
      Format.fprintf fmt "d%-4d %8d %8d   %5.1f   %5.1f  %5.1f   %5.1f   %5.1f   %5.1f@."
        l.l_domain l.l_nodes l.l_hits
        (pct (lane_phase_ns_in t l Solve))
        (pct (lane_phase_ns_in t l Merge))
        (pct (lane_phase_ns_in t l Cross_check))
        (pct (lane_phase_ns_in t l Steal))
        (pct (lane_phase_ns_in t l Share))
        (pct (lane_phase_ns_in t l Idle)))
    ls;
  ignore phase;
  let total_kills = Array.fold_left ( + ) 0 kills in
  if total_kills > 0 then begin
    Format.fprintf fmt "kills:";
    List.iter
      (fun r ->
        let k = kills.(kill_index r) in
        if k > 0 then Format.fprintf fmt " %s=%d" (kill_tag r) k)
      all_kills;
    Format.fprintf fmt "@."
  end;
  let cols =
    List.concat_map (fun l -> List.rev_map (fun (c, p, n, o) -> (c, (p, n, o, l.l_domain))) l.l_columns) ls
    |> List.sort compare
  in
  if cols <> [] then begin
    Format.fprintf fmt "columns:";
    List.iter
      (fun (c, (p, n, o, d)) ->
        Format.fprintf fmt " c%d[p%d]=%d@@d%d%s" c p n d (if o = "ok" then "" else "(" ^ o ^ ")"))
      cols;
    Format.fprintf fmt "@."
  end;
  Format.fprintf fmt "lanes account for %.1f%% of wall time@." (accounted_pct t)

(* ---------------------------------------------------------------- *)
(* Chrome trace: one thread lane per domain                          *)
(* ---------------------------------------------------------------- *)

let to_trace t tr =
  (* The lanes go on their own process track, so they never nest under
     the slices the tracer's other producers put on pid 1. *)
  let pid = 2 in
  Obs_trace.process_name tr ~pid "engine profiler";
  let t0 = t.t_t0_ns in
  let w = wall_ns t in
  List.iter
    (fun l ->
      Obs_trace.thread_name tr ~pid ~tid:l.l_domain (Printf.sprintf "domain %d" l.l_domain);
      let spans =
        List.sort (fun a b -> compare a.sp_start_ns b.sp_start_ns) (List.rev l.l_spans)
      in
      (* Emit recorded spans, and fill gaps between top-level (non
         cross-check) spans with synthesized idle slices so each lane
         visually accounts for the whole run. *)
      let cursor = ref 0 in
      List.iter
        (fun sp ->
          let rel = sp.sp_start_ns - t0 in
          (match sp.sp_phase with
          | Cross_check -> ()
          | _ ->
              if rel - !cursor > 1_000 then
                Obs_trace.complete tr ~cat:"prof" ~pid ~tid:l.l_domain
                  ~ts_us:(float_of_int !cursor /. 1e3)
                  ~dur_us:(float_of_int (rel - !cursor) /. 1e3)
                  "idle";
              cursor := max !cursor (rel + sp.sp_dur_ns));
          let name =
            if sp.sp_label = "" then phase_tag sp.sp_phase
            else phase_tag sp.sp_phase ^ " " ^ sp.sp_label
          in
          Obs_trace.complete tr ~cat:"prof" ~pid ~tid:l.l_domain
            ~ts_us:(float_of_int rel /. 1e3)
            ~dur_us:(float_of_int sp.sp_dur_ns /. 1e3)
            name)
        spans;
      if w - !cursor > 1_000 then
        Obs_trace.complete tr ~cat:"prof" ~pid ~tid:l.l_domain
          ~ts_us:(float_of_int !cursor /. 1e3)
          ~dur_us:(float_of_int (w - !cursor) /. 1e3)
          "idle")
    (lanes t)
