[@@@fosc.digest_sensitive]

type backend_kind = Dense | Sparse

type t = {
  platform : Platform.t;
  pool : Util.Pool.t;
  steady_cache : Sched.Peak.Cache.t;
  stepup_cache : Sched.Peak.Cache.t;
  kind : backend_kind;
  screen_margin : float;
      (* ROM-screening margin in kelvin; 0 disables screening.  Only a
         [Sparse] context ever screens — [Dense] contexts report no
         screening regardless. *)
  (* The deferred engines below are [Util.Once] cells, not [Lazy]:
     evaluation contexts are shared across pool workers, and with ?par
     policies a worker can be the first caller to need an engine.
     [Lazy.force] racing across domains raises [Lazy.RacyLazy] — the
     crash class fosc-race's R8 flags — while [Once.get] single-flights
     the build under a mutex and is one atomic read thereafter. *)
  backend : Thermal.Backend.t Util.Once.t;
      (* The one engine every exact and delta evaluator runs on, chosen
         by [kind].  [Dense] wraps [modal]; [Sparse] wraps [response]
         and never forces the O(n³) eigensolve. *)
  modal : Thermal.Modal.t Util.Once.t;
      (* The context's own modal engine, the one [engine] returns. *)
  sparse : Thermal.Sparse_model.t Util.Once.t;
      (* The Krylov engine of the model's spec, assembled on the
         context's pool — shared by the response engine and the
         reduction, so both superpose/project over one operator.  Never
         forced by a [Dense] context. *)
  response : Thermal.Sparse_response.t Util.Once.t;
      (* Superposition tables over [sparse], shared by the Sparse
         backend and the reduction's static tier. *)
  rom : Thermal.Reduced.t Util.Once.t;
      (* The Lanczos-reduced screening model over [response]. *)
}

type stats = {
  steady : Sched.Peak.Cache.stats;
  stepup : Sched.Peak.Cache.stats;
}

let create ?pool ?(cache_size = 1024) ?(backend = Dense) ?(screen_margin = 0.)
    platform =
  if not (screen_margin >= 0.) then
    invalid_arg "Eval.create: negative screen_margin";
  let pool = match pool with Some p -> p | None -> Util.Pool.get () in
  let modal =
    Util.Once.make (fun () -> Thermal.Modal.make platform.Platform.model)
  in
  let sparse =
    Util.Once.make (fun () ->
        Thermal.Sparse_model.of_model ~pool platform.Platform.model)
  in
  let response =
    Util.Once.make (fun () ->
        Thermal.Sparse_response.make (Util.Once.get sparse))
  in
  {
    platform;
    pool;
    steady_cache = Sched.Peak.Cache.create ~max_entries:cache_size ();
    stepup_cache = Sched.Peak.Cache.create ~max_entries:cache_size ();
    kind = backend;
    screen_margin;
    modal;
    sparse;
    response;
    rom =
      Util.Once.make (fun () ->
          Thermal.Reduced.of_engine (Util.Once.get response));
    backend =
      Util.Once.make (fun () ->
          match backend with
          | Dense -> Thermal.Backend.of_modal (Util.Once.get modal)
          | Sparse -> Thermal.Backend.of_response (Util.Once.get response));
  }

let platform t = t.platform
let pool t = t.pool
let kind t = t.kind
let engine t = Util.Once.get t.modal
let backend t = Util.Once.get t.backend

let power t = t.platform.Platform.power

let steady_peak t voltages =
  Sched.Peak.steady_constant_cached t.steady_cache (backend t) (power t) voltages

let step_up_peak t s =
  Sched.Peak.of_step_up_cached t.stepup_cache (backend t) (power t) s

let two_mode_peak t ~period ~low ~high ~high_ratio =
  Sched.Peak.of_two_mode_cached t.stepup_cache (backend t) (power t) ~period ~low
    ~high ~high_ratio

let any_peak t ?(samples_per_segment = 32) s =
  Sched.Peak.of_any (backend t) (power t) ~samples_per_segment s

let stable_end_core_temps t s =
  Sched.Peak.stable_end_core_temps (backend t) (power t) s

let two_mode_end_core_temps t ~period ~low ~high ~high_ratio =
  Sched.Peak.two_mode_end_core_temps (backend t) (power t) ~period ~low ~high
    ~high_ratio

(* -------------------------------------- prepared-base delta scans *)

(* The delta evaluators are per-domain and uncached by design: delta
   scores are within Krylov/rounding tolerance of the exact paths but
   not bit-identical, so they must never enter the exact memo tables.
   Callers (the TPT loops) re-verify winners through [two_mode_peak]. *)

let two_mode_delta_base t ~period ~low ~high ~high_ratio =
  Sched.Peak.two_mode_delta_base (backend t) (power t) ~period ~low ~high
    ~high_ratio

let two_mode_delta_peak t ~core ~low ~high ~high_ratio =
  Sched.Peak.two_mode_delta_peak (backend t) (power t) ~core ~low ~high
    ~high_ratio

let two_mode_delta_temp_at t ~at ~core ~low ~high ~high_ratio =
  Sched.Peak.two_mode_delta_temp_at (backend t) (power t) ~at ~core ~low ~high
    ~high_ratio

(* ---------------------------------------------- two-tier screening *)

let screening t =
  match t.kind with
  | Dense -> None
  | Sparse ->
      if t.screen_margin > 0. then begin
        (* Build the reduction (and the response under it) up front, so
           the first ROM scores do not serialize behind the builds. *)
        ignore (Util.Once.get t.rom : Thermal.Reduced.t);
        Some t.screen_margin
      end
      else None

let rom_two_mode_peak t ~period ~low ~high ~high_ratio =
  match t.kind with
  | Dense ->
      (* No reduction on the dense path: the "approximate" score is the
         exact evaluation, which keeps callers backend-blind. *)
      two_mode_peak t ~period ~low ~high ~high_ratio
  | Sparse ->
      Sched.Peak.rom_of_two_mode (Util.Once.get t.rom) (power t) ~period ~low
        ~high ~high_ratio

let rom_any_peak t ?(samples_per_segment = 32) s =
  match t.kind with
  | Dense -> any_peak t ~samples_per_segment s
  | Sparse ->
      Sched.Peak.rom_of_any (Util.Once.get t.rom) (power t) ~samples_per_segment s

let stats t =
  {
    steady = Sched.Peak.Cache.stats t.steady_cache;
    stepup = Sched.Peak.Cache.stats t.stepup_cache;
  }

let sparse_response_stats t =
  match t.kind with
  | Dense -> None
  | Sparse ->
      if Util.Once.is_forced t.response then
        Some (Thermal.Sparse_response.stats (Util.Once.get t.response))
      else None

let response_stats t =
  match t.kind with
  | Sparse -> None
  | Dense ->
      if Util.Once.is_forced t.modal then
        Some (Thermal.Modal.stats (engine t))
      else None

let hit_rate t =
  let s = stats t in
  let hits = s.steady.Sched.Peak.Cache.hits + s.stepup.Sched.Peak.Cache.hits in
  let total =
    hits + s.steady.Sched.Peak.Cache.misses + s.stepup.Sched.Peak.Cache.misses
  in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let clear t =
  Sched.Peak.Cache.clear t.steady_cache;
  Sched.Peak.Cache.clear t.stepup_cache
