open Harmony_param
open Harmony_objective

let log_src = Logs.Src.create "harmony.analyzer" ~doc:"Workload data analyzer"

module Log = (val Logs.src_log log_src)

type t = {
  db : History.t;
  classifier : History.t -> float array -> History.entry option;
}

let with_classifier classifier db = { db; classifier }
let create db = with_classifier History.find_closest db
let database t = t.db

let characterize ~probe ~samples =
  if samples < 1 then invalid_arg "Analyzer.characterize: samples < 1";
  let first = probe () in
  let acc = Array.copy first in
  for _ = 2 to samples do
    let obs = probe () in
    if Array.length obs <> Array.length acc then
      invalid_arg "Analyzer.characterize: probe arity changed";
    Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) obs
  done;
  Array.map (fun v -> v /. float_of_int samples) acc

let classify t observed = t.classifier t.db observed

type preparation = {
  matched : History.entry option;
  init : Simplex.Init.t;
  estimated_vertices : int;
}

module Telemetry = Harmony_telemetry.Telemetry

(* Farthest-first traversal: start from the best point of [pool]
   (best first), then repeatedly add the candidate whose nearest chosen
   seed is farthest away, until [k] are chosen or the pool runs out.
   Each point is normalized once; [nearest.(j)] holds candidate j's
   distance to its nearest seed so far and is lowered with one distance
   call per candidate as each seed joins, so the pick costs O(k * P)
   distances.  The left-to-right scan with a strict [>] gives ties to
   the earliest (better) candidate. *)
let farthest_first space pool ~k =
  let points = Array.of_list pool in
  let n = Array.length points in
  let normalized = Array.map (fun (c, _) -> Space.normalize space c) points in
  let nearest = Array.make n infinity in
  let taken = Array.make n false in
  let rec pick chosen count last =
    taken.(last) <- true;
    let chosen = points.(last) :: chosen in
    if count + 1 >= k then List.rev chosen
    else begin
      let next = ref (-1) in
      for j = 0 to n - 1 do
        if not taken.(j) then begin
          nearest.(j) <-
            Float.min nearest.(j)
              (Harmony_numerics.Stats.euclidean_distance normalized.(j)
                 normalized.(last));
          if !next < 0 || nearest.(j) > nearest.(!next) then next := j
        end
      done;
      if !next < 0 then List.rev chosen else pick chosen (count + 1) !next
    end
  in
  if n = 0 then [] else pick [] 0 0

let prepare ?(telemetry = Telemetry.off) ?(fallback = Simplex.Init.Spread) t obj
    ~characteristics =
  let matched =
    Telemetry.span telemetry "history.lookup" (fun () ->
        classify t characteristics)
  in
  let space = obj.Objective.space in
  let dims = Space.dims space in
  (* Only evaluations recorded in a space of this one's arity can seed
     it: a run tuned under [~top_n] stores configurations of the
     projected space.  An entry with evaluations but none usable counts
     as no match. *)
  let usable =
    Option.bind matched (fun entry ->
        let all = entry.History.evaluations in
        match List.filter (fun (c, _) -> Array.length c = dims) all with
        | [] when all <> [] -> None
        | evaluations -> Some (entry, evaluations))
  in
  match usable with
  | None ->
      Log.info (fun m -> m "no matching experience; cold start");
      Telemetry.instant telemetry "history.cold-start";
      { matched = None; init = fallback; estimated_vertices = 0 }
  | Some (entry, evaluations) ->
      (* Seed vertices are chosen for quality *and* diversity: the
         best historical configurations of one run cluster tightly
         around its optimum, and a degenerate simplex cannot adapt
         when the new workload's optimum lies elsewhere.  Pick
         farthest-first among the better half of the history. *)
      let pool =
        History.best_evaluations obj
          { entry with History.evaluations }
          ~n:max_int
      in
      let pool =
        let len = List.length pool in
        List.filteri (fun i _ -> 2 * i <= len) pool
      in
      let seeds = farthest_first space pool ~k:(dims + 1) in
      (* Historical performance values are only trusted when the
         stored characteristics match the observed ones exactly; under
         a different workload the configurations still seed the
         simplex but are re-measured, since stale values would anchor
         the search to a falsely good vertex. *)
      let exact_match =
        Array.length entry.History.characteristics = Array.length characteristics
        && Harmony_numerics.Stats.euclidean_distance entry.History.characteristics
             characteristics
           < 1e-9
      in
      let trusted =
        List.map
          (fun (c, p) ->
            (Space.snap space c, if exact_match then Some p else None))
          seeds
      in
      let missing = (dims + 1) - List.length trusted in
      let estimated =
        if missing <= 0 || not exact_match then []
        else begin
          (* Fill the simplex with spread vertices whose performance is
             estimated by triangulation over the entry's history. *)
          let spread = Simplex.Init.vertices Simplex.Init.Spread space in
          let candidates =
            List.filter
              (fun (c, _) ->
                not (List.exists (fun (s, _) -> Space.config_equal c s) trusted))
              spread
          in
          let targets =
            List.filteri (fun i _ -> i < missing) (List.map fst candidates)
          in
          let points =
            List.map (fun (c, p) -> (Space.snap space c, p)) evaluations
          in
          if points = [] then List.map (fun c -> (c, None)) targets
          else
            Telemetry.span telemetry "estimator.fill" (fun () ->
                List.map
                  (fun (c, p) -> (c, Some p))
                  (Estimator.fill ~space ~points ~targets ()))
        end
      in
      let estimated_vertices =
        List.length (List.filter (fun (_, p) -> p <> None) estimated)
      in
      Log.info (fun m ->
          m "matched experience %S (%d seeds, %d estimated, trusted %b)"
            entry.History.label (List.length trusted) estimated_vertices
            exact_match);
      Telemetry.instant telemetry "history.matched"
        ~args:
          [
            ("label", Telemetry.Str entry.History.label);
            ("seeds", Telemetry.Int (List.length trusted));
            ("estimated", Telemetry.Int estimated_vertices);
            ("trusted", Telemetry.Bool exact_match);
          ];
      {
        matched = Some entry;
        init = Simplex.Init.Seeded (trusted @ estimated);
        estimated_vertices;
      }

let tune_with_experience ?(telemetry = Telemetry.off) ?ctx ?pool
    ?(options = Tuner.default_options) ?label t obj ~characteristics =
  let preparation =
    prepare ~telemetry ~fallback:options.Tuner.init t obj ~characteristics
  in
  let options = { options with Tuner.init = preparation.init } in
  let outcome = Tuner.tune ~telemetry ?ctx ?pool ~options obj in
  ignore (History.add_outcome t.db ?label ~characteristics outcome);
  (outcome, preparation)
