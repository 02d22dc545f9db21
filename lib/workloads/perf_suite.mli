(** The core-solver benchmark suite behind [bench --perf] and
    [treetrav perf].

    Seeded, fully deterministic instance families (stair-weighted chains,
    re-weighted complete binary trees, flat stars, nested harpoons,
    caterpillars, random trees, and the largest assembly trees of
    {!Dataset.small_corpus}) crossed with the kernels they stress:

    - [postorder] — {!Tt_core.Postorder_opt.run};
    - [liu] — {!Tt_core.Liu_exact.run} on deep / star / corpus shapes;
    - [minmem] — {!Tt_core.Minmem.run} (Explore rounds);
    - [minio/<policy>] — {!Tt_core.Minio.run} for each of the paper's six
      eviction heuristics, on a seeded-random traversal with memory a
      quarter of the way between the feasibility floor and the traversal
      peak, so deficit events fire throughout;
    - [minio/fig7] — the paper's Fig. 7 mix in one row: the six
      policies at the four Fig. 7 budgets (0, 1/4, 1/2 and 3/4 of the
      way from the working-set floor to the in-core optimum) along
      each tree's MinMem traversal, over [Dataset.corpus ~scale:1
      ~seed:42] in both modes. Most of those traversals fit, so unlike
      the rows above this one weighs the in-core shortcut too; the
      payload is every I/O volume;
    - [divisible-lb] — {!Tt_core.Minio.divisible_lower_bound};
    - [tree/encode] — {!Tt_core.Tree.to_string} on the random and corpus
      trees, the canonical encoding every content address is computed
      from; its payload is the encoding itself, so its digest pins the
      bytes;
    - [sched/<algo>] — the parallel scheduling tier on dedicated
      caterpillar/random instances at 4 processors: [greedy]
      ({!Tt_core.Parallel.list_schedule} at 1.5× the sequential
      optimum), [booking] ({!Tt_core.Parallel.booking_schedule} at
      exactly the optimum, MinMem activation), [split]
      ({!Tt_sched.Split.run}, budget-free), [validate]
      ({!Tt_sched.Validate.check} of the booking schedule against its
      activation order, as the serving path runs it; the payload is the
      verdict, the makespan it checked against the replay, and
      {!Tt_sched.Validate.peak_usage}) and [pareto]
      ({!Tt_sched.Pareto.sweep}, 4 budget steps). The [sched-star]
      instance, a star whose even leaves carry a 10⁶-word execution
      file (8k leaves quick, 64k full), runs greedy, booking, split and
      validate: its heavy leaves rank first but few fit at once, the
      case where a greedy scan that revisits passed-over tasks turns
      quadratic.
    - [pipeline/mindeg] — {!Tt_ordering.Min_degree.order} on three
      scale-1 corpus matrices ({!Dataset.matrices}, seed 42):
      [rand-1500-3.5], [arrow-1200] and [grid3d-10]; the payload is the
      permutation.

    Every spec's payload encodes the kernel's {e full} result (traversal,
    tau vector, I/O volume…), so the digests in [BENCH_CORE.json] are
    parity witnesses across optimization PRs, not just timings. *)

type mode =
  | Quick  (** Small sizes — CI smoke (seconds). *)
  | Full  (** Paper-scale sizes, p up to 2·10⁵. *)

val default_reps : mode -> int
(** Suggested repetition count (3 quick, 5 full). *)

val specs : mode -> Tt_profile.Microbench.spec list
(** The full benchmark matrix for the mode. Trees are built lazily and
    shared between the kernels that run on the same instance. *)
