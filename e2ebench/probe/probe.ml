(* The benchmark's in-process probe.

   The end-to-end figures come from timing the `hermes` command itself
   (see ../run.py). This program re-runs the same inputs through the
   public library functions, in one of two modes:

     probe check  --run FLAGS ...
         re-runs each `hermes run` configuration traced and on one domain
         (the windowed engine for --domains > 1: its schedule does not
         depend on the domain count), prints its summary for comparison
         with the command's, and folds over the raw history operations to
         check that local commits agree with global decisions.

     probe layers --run FLAGS ... --explore FLAGS ...
         what `check` does, plus the per-layer timings and counts of the
         traced benchmark run, summed over the given configurations.

   FLAGS is one quoted string of the `hermes run` / `hermes explore`
   flags the workloads use. It is turned into a setup the way the CLI
   does it; run.py compares the two summaries, so any drift between the
   probe's setup and the command's shows as a failed check. The result
   is one JSON object on stdout. *)

module Clock = Hermes_kernel.Clock
module Site = Hermes_kernel.Site
module Txn = Hermes_kernel.Txn
module Config = Hermes_core.Config
module Dtm = Hermes_core.Dtm
module Failure = Hermes_ltm.Failure
module Network = Hermes_net.Network
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Driver = Hermes_workload.Driver
module H = Hermes_history
module Json = Hermes_obs.Json
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Explore = Hermes_protocol.Explore

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* ------------------------------------------------------------------ *)
(* `hermes run` configurations                                         *)
(* ------------------------------------------------------------------ *)

type run_flags = {
  sites : int;
  globals : int;
  mpl : int;
  theta : float;
  rate : float option;
  dup : float;
  group_commit : bool;
  domains : int;
  seed : int;
}

(* The CLI's defaults. *)
let run_defaults =
  {
    sites = 3;
    globals = 100;
    mpl = 4;
    theta = 0.6;
    rate = None;
    dup = 0.0;
    group_commit = false;
    domains = 1;
    seed = 1;
  }

let parse_run s =
  let rec go f = function
    | [] -> f
    | "--sites" :: v :: r -> go { f with sites = int_of_string v } r
    | ("-n" | "--globals") :: v :: r -> go { f with globals = int_of_string v } r
    | "--mpl" :: v :: r -> go { f with mpl = int_of_string v } r
    | ("--zipf" | "--theta") :: v :: r -> go { f with theta = float_of_string v } r
    | "--open-loop" :: v :: r -> go { f with rate = Some (float_of_string v) } r
    | "--dup" :: v :: r -> go { f with dup = float_of_string v } r
    | "--group-commit" :: r -> go { f with group_commit = true } r
    | "--domains" :: v :: r -> go { f with domains = int_of_string v } r
    | "--seed" :: v :: r -> go { f with seed = int_of_string v } r
    | w :: _ -> failwith ("probe: unsupported run flag " ^ w)
  in
  go run_defaults (words s)

(* The setup `hermes run` builds from the same flags. *)
let setup_of f ~obs =
  let certifier =
    if f.group_commit then
      {
        Config.full with
        Config.group_commit_window = Config.grouped.Config.group_commit_window;
        max_batch = Config.grouped.Config.max_batch;
      }
    else Config.full
  in
  let arrival =
    match f.rate with
    | Some rate -> Spec.Open { rate; max_in_flight = f.mpl }
    | None -> Spec.Closed { mpl = f.mpl; think_time_mean = Spec.think_time Spec.default }
  in
  {
    Driver.default_setup with
    Driver.protocol = Driver.Two_pca certifier;
    failure = Failure.prepared_rate 0.0;
    net =
      {
        Network.default_config with
        Network.faults = { Network.no_faults with Network.dup = f.dup; gray_factor = 20 };
      };
    clock_of_site = (fun _ -> Clock.make ~offset:0 ());
    seed = f.seed;
    spec =
      Spec.make ~n_sites:f.sites ~n_global:f.globals ~arrival
        ~key_dist:(Spec.Zipf { theta = f.theta })
        ();
    obs;
    reconfigure_at = 30_000;
    domains = f.domains;
  }

(* On the calling domain: the sequential engine, or the windowed engine
   whose schedule the command runs on [f.domains] domains. *)
let run_one f ~obs =
  let setup = setup_of f ~obs in
  if f.domains > 1 then Driver.run_windowed ~domains:1 setup else Driver.run setup

let timed fn =
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let x = fn () in
  let t = Unix.gettimeofday () -. t0 in
  (x, t, Gc.allocated_bytes () -. a0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let summary (r : Driver.result) =
  let s = r.Driver.stats and t = r.Driver.totals in
  Json.Obj
    [
      ("committed", Json.Int (Stats.committed s));
      ("gave_up", Json.Int (Stats.aborted_final s));
      ("retries", Json.Int (Stats.retries s));
      ("stuck", Json.Int r.Driver.stuck);
      ("local_committed", Json.Int (Stats.local_committed s));
      ("local_aborted", Json.Int (Stats.local_aborted s));
      ("prepared", Json.Int t.Dtm.prepared);
      ("refused_extension", Json.Int t.Dtm.refused_extension);
      ("refused_interval", Json.Int t.Dtm.refused_interval);
      ("refused_dead", Json.Int t.Dtm.refused_dead);
      ("resubmissions", Json.Int t.Dtm.resubmissions);
      ("commit_retries", Json.Int t.Dtm.commit_retries);
      ("dlu_denials", Json.Int t.Dtm.dlu_denials);
      ("log_forces", Json.Int (t.Dtm.agent_log_forces + t.Dtm.coord_log_forces));
      ("gc_flushes", Json.Int t.Dtm.gc_flushes);
      ("sim_ms", Json.Float (float_of_int r.Driver.sim_ticks /. 1000.0));
    ]

(* Local commits against global decisions, from the raw operations
   alone: every globally committed transaction's final incarnation
   committed locally at each site the transaction touched, and no
   globally aborted transaction committed locally anywhere. Returns the
   number of globally committed transactions and the first few errors. *)
let fold_check h =
  let final = Hashtbl.create 4096 (* (gid, site) -> highest incarnation *)
  and local_commits = Hashtbl.create 4096 (* (gid, site, inc) *)
  and decided = Hashtbl.create 4096 (* gid -> true if committed *)
  and errors = ref [] in
  let error fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let gid = function Txn.Global g -> Some g | Txn.Local _ -> None in
  let touch (i : Txn.Incarnation.t) ~commit =
    Option.iter
      (fun g ->
        let site = Site.to_int i.Txn.Incarnation.site and inc = i.Txn.Incarnation.inc in
        (match Hashtbl.find_opt final (g, site) with
        | Some seen when seen >= inc -> ()
        | _ -> Hashtbl.replace final (g, site) inc);
        if commit then Hashtbl.replace local_commits (g, site, inc) ())
      (gid i.Txn.Incarnation.txn)
  in
  let decide txn commit =
    Option.iter
      (fun g ->
        match Hashtbl.find_opt decided g with
        | Some c when c <> commit -> error "T%d was both committed and aborted globally" g
        | _ -> Hashtbl.replace decided g commit)
      (gid txn)
  in
  H.History.fold
    (fun () -> function
      | H.Op.Dml { inc; _ } | H.Op.Local_abort inc -> touch inc ~commit:false
      | H.Op.Local_commit inc -> touch inc ~commit:true
      | H.Op.Prepare _ -> ()
      | H.Op.Global_commit txn -> decide txn true
      | H.Op.Global_abort txn -> decide txn false)
    () h;
  Hashtbl.iter
    (fun (g, site) inc ->
      if Hashtbl.find_opt decided g = Some true && not (Hashtbl.mem local_commits (g, site, inc))
      then
        error "T%d committed globally, but its final incarnation %d at site %d did not commit locally"
          g inc site)
    final;
  Hashtbl.iter
    (fun (g, site, inc) () ->
      if Hashtbl.find_opt decided g = Some false then
        error "T%d aborted globally, but incarnation %d committed locally at site %d" g inc site)
    local_commits;
  let committed = Hashtbl.fold (fun _ c n -> if c then n + 1 else n) decided 0 in
  let errors = List.sort compare !errors in
  (committed, List.filteri (fun i _ -> i < 5) errors)

let check_json (r : Driver.result) =
  let committed, errors = fold_check r.Driver.history in
  Json.Obj
    [
      ("summary", summary r);
      ("history_global_commits", Json.Int committed);
      ("fold_errors", Json.List (List.map (fun e -> Json.String e) errors));
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer sums                                                      *)
(* ------------------------------------------------------------------ *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value ~default:0.0 (Hashtbl.find_opt sums k)
let add k v = Hashtbl.replace sums k (get k +. v)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Untraced and traced runs alternate, so that the difference of their
   medians is the cost of tracing rather than drift of the host. *)
let reps = 3

let run_layers f =
  let untraced = ref [] and traced = ref [] in
  for _ = 1 to reps do
    let _, t, a = timed (fun () -> run_one f ~obs:None) in
    untraced := (t, a) :: !untraced;
    let obs = Obs.create () in
    let r, t, _ = timed (fun () -> run_one f ~obs:(Some obs)) in
    traced := (t, r, obs) :: !traced
  done;
  let run_s = median (List.map fst !untraced) in
  let _, r, obs = List.hd !traced in
  add "run_s" run_s;
  add "run_alloc" (median (List.map snd !untraced));
  add "traced_s" (median (List.map (fun (t, _, _) -> t) !traced));
  (* The windowed engine on one domain and on two, same schedule. *)
  let w1 = Driver.run_windowed ~domains:1 (setup_of f ~obs:None) in
  let w2 = Driver.run_windowed ~domains:2 (setup_of f ~obs:None) in
  add "w1_s" w1.Driver.wall_s;
  add "w2_s" w2.Driver.wall_s;
  let reg = Obs.metrics obs in
  let counter name = add name (float_of_int (Registry.sum_counter reg name)) in
  List.iter counter [ "sim.cancelled"; "net.sent"; "net.duplicated"; "workload.attempts" ];
  let high_water =
    List.fold_left
      (fun m (row : Registry.row) ->
        match row.Registry.value with
        | Registry.Gauge_value { high_water; _ } when row.Registry.name = "sim.max_pending" ->
            max m high_water
        | _ -> m)
      0 (Registry.rows reg)
  in
  Hashtbl.replace sums "sim.max_pending" (Float.max (get "sim.max_pending") (float_of_int high_water));
  let s = r.Driver.stats and t = r.Driver.totals in
  let addi k v = add k (float_of_int v) in
  addi "events" r.Driver.events;
  addi "committed" (Stats.committed s);
  addi "forces" (t.Dtm.agent_log_forces + t.Dtm.coord_log_forces);
  addi "gc_staged" t.Dtm.gc_staged;
  addi "gc_flushes" t.Dtm.gc_flushes;
  addi "commit_retries" t.Dtm.commit_retries;
  addi "prepared" t.Dtm.prepared;
  addi "refusals"
    (t.Dtm.refused_extension + t.Dtm.refused_interval + t.Dtm.refused_dead + t.Dtm.refused_epoch
   + t.Dtm.refused_drift);
  addi "resubmissions" t.Dtm.resubmissions;
  addi "unilateral_aborts" t.Dtm.unilateral_aborts;
  addi "lock_timeouts" t.Dtm.lock_timeouts;
  addi "deadlock_victims" t.Dtm.deadlock_victims;
  (* Each public checker once, on the traced run's history. The combined
     analysis runs first, on a fresh copy, as the command runs it. *)
  let h = r.Driver.history in
  addi "ops" (H.History.length h);
  let _, t_analyze, _ = timed (fun () -> H.Report.analyze (H.History.of_ops (H.History.ops h))) in
  add "analyze_s" t_analyze;
  let c, t_project, _ = timed (fun () -> H.Committed.extended h) in
  add "project_s" t_project;
  let checker name fn =
    let (), t, a = timed fn in
    add (name ^ "_s") t;
    add (name ^ "_alloc") a
  in
  checker "rigorous" (fun () -> ignore (H.Rigorous.check_all_sites h));
  checker "sg" (fun () -> ignore (H.Serialization_graph.find_cycle c));
  checker "cg" (fun () -> ignore (H.Commit_order_graph.find_cycle c));
  checker "distortion" (fun () -> ignore (H.Anomaly.global_view_distortions c));
  checker "vsr" (fun () -> ignore (H.View.view_serializable ~limit:10 c));
  checker "quasi" (fun () -> ignore (H.Quasi.check c));
  checker "values" (fun () -> ignore (H.Values.check h));
  check_json r

(* ------------------------------------------------------------------ *)
(* `hermes explore` instances                                          *)
(* ------------------------------------------------------------------ *)

(* The scenario `hermes explore` builds from the same flags. *)
let parse_explore s =
  let d = Explore.default in
  let rec go (sc : Explore.scenario) = function
    | [] -> sc
    | "--sites" :: v :: r -> go { sc with Explore.n_sites = int_of_string v } r
    | "--txns" :: v :: r -> go { sc with Explore.n_txns = int_of_string v } r
    | "--uaborts" :: v :: r ->
        go { sc with Explore.budgets = { sc.Explore.budgets with Explore.uaborts = int_of_string v } } r
    | "--alive-fires" :: v :: r ->
        go
          { sc with Explore.budgets = { sc.Explore.budgets with Explore.alive_fires = int_of_string v } }
          r
    | "--commit-retries" :: v :: r ->
        go
          {
            sc with
            Explore.budgets = { sc.Explore.budgets with Explore.commit_retries = int_of_string v };
          }
          r
    | "--dups" :: v :: r ->
        go { sc with Explore.budgets = { sc.Explore.budgets with Explore.dups = int_of_string v } } r
    | w :: _ -> failwith ("probe: unsupported explore flag " ^ w)
  in
  go d (words s)

(* The first [n] distinct states of the depth-first search. *)
let sample_states sc n =
  let seen = Hashtbl.create 4096 and out = ref [] and count = ref 0 in
  let rec go g =
    if !count < n then begin
      let fp = Explore.fingerprint g in
      if not (Hashtbl.mem seen fp) then begin
        Hashtbl.add seen fp ();
        incr count;
        out := g :: !out;
        List.iter
          (fun a -> match Explore.apply sc g a with g' -> go g' | exception Explore.Violation _ -> ())
          (Explore.enabled sc g)
      end
    end
  in
  go (Explore.init sc);
  List.rev !out

(* Repeats [pass] (which makes some calls and returns how many) for at
   least [min_s] seconds; adds the time and the calls under [name]. *)
let per_call name pass =
  let min_s = 0.1 in
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  while Unix.gettimeofday () -. t0 < min_s do
    calls := !calls + pass ()
  done;
  add (name ^ "_time") (Unix.gettimeofday () -. t0);
  add (name ^ "_calls") (float_of_int !calls)

let explore_layers sc =
  let st, t, a = timed (fun () -> Explore.run sc) in
  add "x.time" t;
  add "x.alloc" a;
  add "x.states" (float_of_int st.Explore.states);
  add "x.transitions" (float_of_int st.Explore.transitions);
  add "x.deduped" (float_of_int st.Explore.deduped);
  add "x.terminals" (float_of_int st.Explore.terminals);
  let sample = sample_states sc 2_000 in
  let moves = List.concat_map (fun g -> List.map (fun a -> (g, a)) (Explore.enabled sc g)) sample in
  let n_sample = List.length sample and n_moves = List.length moves in
  per_call "fingerprint" (fun () ->
      List.iter (fun g -> ignore (Explore.fingerprint g)) sample;
      n_sample);
  per_call "enabled" (fun () ->
      List.iter (fun g -> ignore (Explore.enabled sc g)) sample;
      n_sample);
  per_call "apply" (fun () ->
      List.iter
        (fun (g, a) -> try ignore (Explore.apply sc g a) with Explore.Violation _ -> ())
        moves;
      n_moves);
  Json.Obj [ ("states", Json.Int st.Explore.states) ]

let layer_metrics () =
  let mb b = b /. 1e6 in
  let us name = ratio (get (name ^ "_time")) (get (name ^ "_calls")) *. 1e6 in
  [
    ("workload.run_s", get "run_s");
    ("workload.events_per_s", ratio (get "events") (get "run_s"));
    ("workload.alloc_mb", mb (get "run_alloc"));
    ("workload.words_per_event", ratio (get "run_alloc" /. 8.0) (get "events"));
    ("workload.commit_ratio", ratio (get "committed") (get "workload.attempts"));
    ("workload.events", get "events");
    ("sim.windowed_speedup", ratio (get "w1_s") (get "w2_s"));
    ("sim.cancelled", get "sim.cancelled");
    ("sim.max_pending", get "sim.max_pending");
    ("net.msgs_per_commit", ratio (get "net.sent") (get "committed"));
    ("net.duplicated", get "net.duplicated");
    ("core.log_forces_per_commit", ratio (get "forces") (get "committed"));
    ("core.gc_batch", ratio (get "gc_staged") (get "gc_flushes"));
    ("core.commit_retries_per_commit", ratio (get "commit_retries") (get "committed"));
    ("core.ready_ratio", ratio (get "prepared") (get "prepared" +. get "refusals"));
    ("core.resubmissions", get "resubmissions");
    ("ltm.unilateral_aborts", get "unilateral_aborts");
    ("ltm.lock_timeouts", get "lock_timeouts");
    ("ltm.deadlock_victims", get "deadlock_victims");
    ("history.ops", get "ops");
    ("history.analyze_s", get "analyze_s");
    ("history.ops_per_s", ratio (get "ops") (get "analyze_s"));
    ("history.project_s", get "project_s");
    ("history.rigorous_s", get "rigorous_s");
    ("history.sg_s", get "sg_s");
    ("history.cg_s", get "cg_s");
    ("history.distortion_s", get "distortion_s");
    ("history.vsr_s", get "vsr_s");
    ("history.quasi_s", get "quasi_s");
    ("history.values_s", get "values_s");
    ("history.rigorous_alloc_mb", mb (get "rigorous_alloc"));
    ("history.sg_alloc_mb", mb (get "sg_alloc"));
    ("history.quasi_alloc_mb", mb (get "quasi_alloc"));
    ("history.distortion_alloc_mb", mb (get "distortion_alloc"));
    ("obs.overhead_s", get "traced_s" -. get "run_s");
    ("explore.states_per_s", ratio (get "x.states") (get "x.time"));
    ("explore.transitions", get "x.transitions");
    ("explore.dedup_ratio", ratio (get "x.deduped") (get "x.transitions"));
    ("explore.terminals", get "x.terminals");
    ("explore.fingerprint_us", us "fingerprint");
    ("explore.apply_us", us "apply");
    ("explore.enabled_us", us "enabled");
    ("explore.bytes_per_state", ratio (get "x.alloc") (get "x.states"));
  ]

let () =
  let mode, args =
    match Array.to_list Sys.argv with
    | _ :: mode :: args -> (mode, args)
    | _ -> failwith "usage: probe (check|layers) [--run FLAGS]... [--explore FLAGS]..."
  in
  let rec collect runs explores = function
    | [] -> (List.rev runs, List.rev explores)
    | "--run" :: f :: r -> collect (parse_run f :: runs) explores r
    | "--explore" :: f :: r -> collect runs (parse_explore f :: explores) r
    | w :: _ -> failwith ("probe: unexpected argument " ^ w)
  in
  let runs, explores = collect [] [] args in
  let out =
    match mode with
    | "check" ->
        Json.Obj
          [ ("runs", Json.List (List.map (fun f -> check_json (run_one f ~obs:(Some (Obs.create ())))) runs)) ]
    | "layers" ->
        let runs = List.map run_layers runs in
        let explores = List.map explore_layers explores in
        Json.Obj
          [
            ("runs", Json.List runs);
            ("explores", Json.List explores);
            ( "metrics",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (layer_metrics ())) );
          ]
    | m -> failwith ("probe: unknown mode " ^ m)
  in
  print_endline (Json.to_string out)
