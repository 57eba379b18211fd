(* Runners take the pool (or [None] for the sequential path): most
   experiments are single tasks, but long ones (fig7) fan their own
   independent arms out through it — nested submission, which the pool
   supports — so the critical path is not one monolithic experiment. *)
let all =
  [
    ("fig4", fun _pool -> Fig4.table ());
    ("fig5", fun _pool -> Fig5.table ());
    ("fig6", fun _pool -> Fig6.table ());
    ("fig7", fun pool -> Fig7.table ?pool ());
    ("fig8", fun _pool -> Fig8.table ());
    ("fig9", fun _pool -> Fig9.table ());
    ("table1", fun _pool -> Table1.table ());
    ("table2", fun _pool -> Table2.table ());
    ("fig10", fun _pool -> Fig10.table ());
    ("restriction", fun _pool -> Restriction.table ());
    ("headline", fun _pool -> Headline.table ());
  ]

let ids = List.map fst all

let find id = List.assoc_opt id all

(* Each experiment constructs its own objectives and RNGs from fixed
   seeds, so the runners share no mutable state and can execute on any
   domain: the tables are identical however they are scheduled.  Only
   the printing is ordered — always in paper order. *)
let tables ?pool () =
  let run (id, f) = (id, f pool) in
  match pool with
  | Some pool when Harmony_parallel.Pool.size pool > 1 ->
      Harmony_parallel.Pool.map pool run all
  | _ -> List.map run all

let run_all ?pool ppf =
  List.iter (fun (_, table) -> Report.print ppf table) (tables ?pool ())
