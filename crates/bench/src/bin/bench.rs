//! The kernel benchmark: one run times every search, model and simulator
//! kernel, each against its naive reference where one exists, writes one
//! report to the path given, and with `--enforce` exits 1 when any gate
//! in the gate table fails.
//!
//! ```text
//! cargo run --release -p uptime-bench --bin bench -- OUT.json [--enforce]
//! ```
//!
//! The report is `{schema_version, hardware, rows, gates, gates_pass}`. A
//! row is `{layer, workload, ns, ...counts}`, where `ns` is the best of
//! several timed runs of one call. `layer` is the flight recorder's span
//! name where the daemon has one (`optimizer.bnb.search`,
//! `optimizer.pareto.search`, `broker.recommend`, `broker.sync`,
//! `broker.recover`); naive references are `naive.*`. A gate is
//! `{gate, value, op, bound, pass}`.
//!
//! The sections run in order: serial chains, the `6^6` Pareto frontier,
//! series–parallel composition, model and simulator kernels, and last the
//! journal, so its fsync storms cannot pollute the other timings. An
//! engine that disagrees with its reference panics.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use serde_json::{json, Map, Value};
use uptime_bench::{
    hybrid_metacloud_space, option_system, paper_broker, paper_catalog, paper_cloud, paper_model,
    paper_request, paper_space, synthetic_model, synthetic_space,
};
use uptime_broker::{
    settlement, BrokerService, CloudProvider, DurabilityConfig, SimulatedProvider,
};
use uptime_catalog::{case_study, CatalogStore, CloudId, ComponentKind};
use uptime_core::confidence::{uptime_interval, ConfidenceLevel, ProbabilityInterval};
use uptime_core::{
    binomial, ClusterSpec, FailuresPerYear, Minutes, MoneyPerMonth, PenaltyClause, Probability,
    RoundingPolicy, SensitivityReport, SystemSpec, TcoModel,
};
use uptime_durability::FsyncPolicy;
use uptime_optimizer::{
    anneal, composition, composition_bnb, exhaustive, greedy, pareto_bnb, pruned, sweep, Archetype,
    BnbStats, CompositionEvaluator, CompositionNode, CompositionSpace, Evaluation, Objective,
    ParetoPoint, SearchSpace,
};
use uptime_sim::{
    CommonCause, CorrelatedSimulation, FailureScript, SimConfig, SimDuration, SimTime, Simulation,
};

const USAGE: &str = "usage: bench OUT.json [--enforce]";

/// The report layout's version.
const SCHEMA_VERSION: u64 = 1;

/// The largest serial space the naive sweep times in full (`6^6`).
const NAIVE_MAX: u128 = 46_656;

/// The largest serial space the kernel stream times in full (`6^9`);
/// past it the enumeration cost is projected from the last measured rate.
const STREAM_MAX: u128 = 10_077_696;

/// The paper's options #1–#8 (Figs. 3–10): `[compute, storage, network]`,
/// 0 = no HA, 1 = the paper's HA method.
const PAPER_OPTIONS: [[usize; 3]; 8] = [
    [0, 0, 0],
    [0, 0, 1],
    [0, 1, 0],
    [1, 0, 0],
    [0, 1, 1],
    [1, 0, 1],
    [1, 1, 0],
    [1, 1, 1],
];

/// Absorbs per timed journal run (each is a full harvest + estimate +
/// absorb). Sized to put automatic snapshots (default cadence: one per
/// 1024 absorbs) inside the timed window, so the measured overhead
/// includes amortized snapshot cost, not just journal appends.
const ABSORBS: u64 = 2048;

/// Absorbs per interleaving slice of a paired journal run (see
/// [`measure_policy`]).
const CHUNK: usize = 64;

/// Paired runs per fsync policy (see [`measure_policy`]).
const JOURNAL_REPS: u32 = 5;

/// The first seed of the journal's sync plan (see [`sync_plan`]).
const SYNC_SEED: u64 = 5_000;

/// The rows and gates of one run.
#[derive(Default)]
struct Bench {
    rows: Vec<Value>,
    gates: Vec<Value>,
    failed: usize,
}

impl Bench {
    /// Records a row timed as one whole run of `ns` nanoseconds.
    fn row(&mut self, layer: &str, workload: &str, ns: u128, fields: &[Value]) {
        self.push(layer, workload, json!(ns as u64), fields);
    }

    /// Times one call of `body` (see [`per_call_ns`]) and records it.
    fn call<T>(&mut self, layer: &str, workload: &str, body: impl FnMut() -> T) {
        self.seeded_call(layer, workload, None, body);
    }

    /// [`Bench::call`] for a workload that comes from `seed`.
    fn seeded_call<T>(
        &mut self,
        layer: &str,
        workload: &str,
        seed: Option<u64>,
        body: impl FnMut() -> T,
    ) {
        let (ns, calls) = per_call_ns(body);
        let ns = (ns * 10.0).round() / 10.0;
        self.push(
            layer,
            workload,
            json!(ns),
            &[json!({"calls": calls, "seed": seed})],
        );
    }

    /// Merges `fields` (objects; `null` members dropped) into one row and
    /// echoes it to stdout.
    fn push(&mut self, layer: &str, workload: &str, ns: Value, fields: &[Value]) {
        println!("{layer:<36} {workload:<30} {ns:>14}");
        let mut row = Map::new();
        for field in fields.iter().filter_map(Value::as_object) {
            let present = field.iter().filter(|(_, v)| !v.is_null());
            row.extend(present.map(|(k, v)| (k.clone(), v.clone())));
        }
        row.insert("layer".into(), json!(layer));
        row.insert("workload".into(), json!(workload));
        row.insert("ns".into(), ns);
        self.rows.push(Value::Object(row));
    }

    /// Records one gate: `value op bound` must hold.
    fn gate(&mut self, name: &str, value: f64, op: &str, bound: f64) {
        let pass = match op {
            ">=" => value >= bound,
            ">" => value > bound,
            "<" => value < bound,
            "<=" => value <= bound,
            "==" => value == bound,
            _ => unreachable!("unknown gate operator `{op}`"),
        };
        let verdict = if pass { "pass" } else { "FAIL" };
        println!("{verdict} {name}: {value} {op} {bound}");
        if !pass {
            self.failed += 1;
            eprintln!("GATE FAILED: {name}: {value} is not {op} {bound}");
        }
        let gate = json!({"gate": name, "value": value, "op": op, "bound": bound, "pass": pass});
        self.gates.push(gate);
    }
}

/// Times `body` over `reps` runs and returns the best (least-noise) wall
/// time in nanoseconds. Each run's output goes through [`black_box`], so
/// the work cannot be optimized away.
fn time_ns<T>(reps: u32, mut body: impl FnMut() -> T) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let out = body();
        best = best.min(start.elapsed().as_nanos());
        black_box(&out);
    }
    best
}

/// Best-of-5 nanoseconds per call of `body` and the calls per timed run:
/// each run is a batch of calls at least a millisecond long, so the
/// clock's resolution does not show.
fn per_call_ns<T>(mut body: impl FnMut() -> T) -> (f64, u64) {
    let mut calls = 1u64;
    let mut batch = |calls| {
        time_ns(1, || {
            for _ in 0..calls {
                black_box(body());
            }
        })
    };
    while batch(calls) < 1_000_000 {
        calls *= 2;
    }
    let best = (0..5).map(|_| batch(calls)).min().expect("five runs");
    (best as f64 / calls as f64, calls)
}

/// `count` per second at `count` in `ns` nanoseconds.
fn per_sec(count: u128, ns: u128) -> f64 {
    count as f64 / (ns.max(1) as f64 / 1e9)
}

/// How many times faster `fast_ns` is than `slow_ns`.
fn speedup(slow_ns: f64, fast_ns: u128) -> f64 {
    slow_ns / fast_ns.max(1) as f64
}

/// The members every whole-space sweep row carries.
fn sweep_fields(assignments: u128, ns: u128) -> Value {
    json!({"assignments": assignments as u64, "variants_per_sec": per_sec(assignments, ns)})
}

/// The share of the space branch-and-bound evaluated at leaves.
fn visited_fraction(stats: &BnbStats, assignments: u128) -> f64 {
    stats.leaves_evaluated as f64 / assignments as f64
}

/// The naive reference: evaluate every assignment from scratch (clone
/// clusters, rebuild the `SystemSpec`), then rank.
fn naive_sweep(space: &SearchSpace, model: &TcoModel) -> Evaluation {
    let evaluations: Vec<Evaluation> = space
        .assignments()
        .map(|a| Evaluation::evaluate(space, model, &a))
        .collect();
    Objective::MinTco.best(&evaluations).unwrap().clone()
}

/// One serial chain's measurements the gates read.
struct Chain {
    assignments: u128,
    stream_ns: Option<u128>,
    serial: BnbStats,
    parallel: BnbStats,
    parallel_ns: u128,
}

/// Times the naive sweep (up to [`NAIVE_MAX`]), the composition kernel's
/// stream (up to [`STREAM_MAX`]) and branch-and-bound at one and all
/// threads on one serial chain. `rate` carries the last stream's
/// variants per nanosecond, from which a space too large to enumerate
/// projects its enumeration cost.
fn serial_chain(
    b: &mut Bench,
    workload: &str,
    space: &SearchSpace,
    model: &TcoModel,
    reps: u32,
    rate: &mut f64,
) -> Chain {
    let chain = CompositionSpace::from_serial(space);
    let assignments = chain.assignment_count();
    let (serial, serial_stats) = composition_bnb::search(&chain, model, 1);
    let serial_best = serial.best().expect("non-empty space").clone();
    for threads in [2, 0] {
        let (sharded, _) = composition_bnb::search(&chain, model, threads);
        assert_eq!(
            sharded.best().expect("non-empty space"),
            &serial_best,
            "{workload}: branch-and-bound winner must be thread-count independent"
        );
    }

    let stream = || composition::search(&chain, model, Objective::MinTco);
    let mut naive_ns = None;
    if assignments <= NAIVE_MAX {
        assert_eq!(
            stream().best().expect("non-empty space").assignment(),
            naive_sweep(space, model).assignment(),
            "{workload}: engines disagree on the argmin"
        );
        let ns = time_ns(reps, || naive_sweep(space, model));
        b.row(
            "naive.sweep",
            workload,
            ns,
            &[sweep_fields(assignments, ns)],
        );
        naive_ns = Some(ns);
    }
    let mut stream_ns = None;
    if assignments <= STREAM_MAX {
        assert_eq!(
            stream().best().expect("non-empty space"),
            &serial_best,
            "{workload}: branch-and-bound argmin diverged from full enumeration"
        );
        let ns = time_ns(reps, stream);
        b.row(
            "optimizer.composition.search",
            workload,
            ns,
            &[
                sweep_fields(assignments, ns),
                json!({"speedup_vs_naive": naive_ns.map(|naive| speedup(naive as f64, ns))}),
            ],
        );
        *rate = assignments as f64 / ns as f64;
        stream_ns = Some(ns);
    }

    let serial_ns = time_ns(reps, || composition_bnb::search(&chain, model, 1));
    let visited = visited_fraction(&serial_stats, assignments);
    b.row(
        "optimizer.bnb.search",
        workload,
        serial_ns,
        &[
            json!(serial_stats),
            json!({"assignments": assignments as u64, "visited_fraction": visited}),
        ],
    );
    let parallel_ns = time_ns(reps, || composition_bnb::search(&chain, model, 0));
    let (_, parallel_stats) = composition_bnb::search(&chain, model, 0);
    b.row(
        "optimizer.bnb.search",
        workload,
        parallel_ns,
        &[
            json!(parallel_stats),
            json!({
                "speedup_vs_stream": stream_ns.map(|ns| speedup(ns as f64, parallel_ns)),
                "projected_enumeration_ns": stream_ns.is_none().then(|| assignments as f64 / *rate),
            }),
        ],
    );
    Chain {
        assignments,
        stream_ns,
        serial: serial_stats,
        parallel: parallel_stats,
        parallel_ns,
    }
}

/// The paper's 2³, the metacloud 972 and synthetic `6^6`, `6^9` and
/// `6^12`, in that order.
fn serial_chains(b: &mut Bench) -> Vec<Chain> {
    let mut rate = f64::NAN;
    let workloads = [
        ("paper_2^3", paper_space(), paper_model(), 20),
        ("metacloud_972", hybrid_metacloud_space(), paper_model(), 10),
        ("synthetic_6^6", synthetic_space(6, 6), synthetic_model(), 5),
        ("synthetic_6^9", synthetic_space(9, 6), synthetic_model(), 3),
        (
            "synthetic_6^12",
            synthetic_space(12, 6),
            synthetic_model(),
            3,
        ),
    ];
    workloads
        .iter()
        .map(|(workload, space, model, reps)| {
            serial_chain(b, workload, space, model, *reps, &mut rate)
        })
        .collect()
}

/// The `6^6` frontier: epsilon-dominance branch-and-bound (best of 3)
/// against one naive O(N²) dominance sweep, which is too slow to repeat.
/// Returns the speedup and the number of points that differ.
fn frontier(b: &mut Bench) -> (f64, usize) {
    let workload = "synthetic_6^6";
    let space = synthetic_space(6, 6);
    let chain = CompositionSpace::from_serial(&space);
    let model = synthetic_model();
    let constraints = pareto_bnb::FrontierConstraints::NONE;
    let epsilon = 1e-9;

    let mut naive = Vec::new();
    let naive_ns = time_ns(1, || {
        naive = pareto_bnb::naive_frontier(&space, &model, &constraints);
    });
    assert!(!naive.is_empty(), "the naive 6^6 frontier is empty");
    let bnb = pareto_bnb::composition_search(&chain, &model, &constraints, epsilon, 1);
    let bnb_ns = time_ns(3, || {
        pareto_bnb::composition_search(&chain, &model, &constraints, epsilon, 1)
    });

    // The frontier contract, not whole `Evaluation`s: fields off the
    // frontier axes are summed in a different order by the fast path and
    // may differ in the last ulp (see `tests/frontier_gate.rs`).
    let key = |p: &ParetoPoint| {
        (
            p.evaluation().assignment().to_vec(),
            p.ha_cost().value(),
            p.uptime().value(),
        )
    };
    let differing = naive.len().abs_diff(bnb.points().len())
        + naive
            .iter()
            .zip(bnb.points())
            .filter(|(n, p)| key(n) != key(p))
            .count();
    let assignments = space.assignment_count() as u64;
    let gain = speedup(naive_ns as f64, bnb_ns);
    b.row(
        "naive.frontier",
        workload,
        naive_ns,
        &[json!({"assignments": assignments, "points": naive.len()})],
    );
    b.row(
        "optimizer.pareto.search",
        workload,
        bnb_ns,
        &[
            json!(*bnb.stats()),
            json!({
                "assignments": assignments,
                "speedup_vs_naive": gain,
                "points_differing": differing,
            }),
        ],
    );
    (gain, differing)
}

/// A gateway tier in series with `zones` parallel replica stacks of
/// `per_zone` components each, every leaf with `k` HA candidates —
/// `k^(zones·per_zone + 1)` assignments.
fn replica_space(zones: usize, per_zone: usize, k: usize) -> CompositionSpace {
    let serial = synthetic_space(zones * per_zone + 1, k);
    let comps = serial.components();
    let gateway = CompositionNode::Component(comps[0].clone());
    let stacks = (0..zones)
        .map(|z| {
            CompositionNode::Series(
                comps[1 + z * per_zone..1 + (z + 1) * per_zone]
                    .iter()
                    .cloned()
                    .map(CompositionNode::Component)
                    .collect(),
            )
        })
        .collect();
    CompositionSpace::new(CompositionNode::Series(vec![
        gateway,
        CompositionNode::Parallel(stacks),
    ]))
    .expect("replica topology is well-formed")
}

/// One naive `Block` evaluation: materialize the diagram, fold its
/// failover-aware availability, price it through the TCO model. Returns
/// the total so the sweep can argmin without the factorized evaluator.
fn naive_eval(space: &CompositionSpace, model: &TcoModel, assignment: &[usize]) -> f64 {
    let block = space.to_block(assignment);
    let avail = block.failover_aware_availability();
    let cost = MoneyPerMonth::new(space.monthly_cost(assignment)).expect("finite candidate costs");
    model.evaluate(cost, avail).total().value()
}

/// Full naive sweep: `Block` re-evaluation per variant, argmin under the
/// same `(total, cardinality)` preference the streaming engine uses.
fn naive_block_sweep(space: &CompositionSpace, model: &TcoModel) -> (Vec<usize>, f64) {
    let mut best: Option<(Vec<usize>, f64, usize)> = None;
    for assignment in space.assignments() {
        let total = naive_eval(space, model, &assignment);
        let cardinality = space.cardinality(&assignment);
        let better = match &best {
            None => true,
            Some((_, bt, bc)) => total < *bt || (total == *bt && cardinality < *bc),
        };
        if better {
            best = Some((assignment, total, cardinality));
        }
    }
    let (assignment, total, _) = best.expect("non-empty space");
    (assignment, total)
}

/// Times the factorized fold and branch-and-bound on one composition
/// space against the naive `Block` sweep: in full when `sweep_naive` is
/// set, otherwise projected from a 2,048-variant sample. Returns the fold
/// speedup, branch-and-bound's counts and its visited fraction.
fn replica(
    b: &mut Bench,
    workload: &str,
    space: &CompositionSpace,
    model: &TcoModel,
    sweep_naive: bool,
) -> (f64, BnbStats, f64) {
    let reps = 3;
    let leaves = space.leaf_count();
    let assignments = space.assignment_count();
    let fold = composition::search(space, model, Objective::MinTco);
    let fold_best = fold.best().expect("non-empty space").clone();
    assert_eq!(
        u128::from(fold.stats().evaluated),
        assignments,
        "{workload}: streaming fold must cover the space"
    );
    let (bnb, bnb_stats) = composition_bnb::search(space, model, 0);
    assert_eq!(
        bnb.best().expect("non-empty space").assignment(),
        fold_best.assignment(),
        "{workload}: branch-and-bound argmin diverged from the streaming fold"
    );

    let mut naive_ns = None;
    if sweep_naive {
        let (naive_assignment, naive_total) = naive_block_sweep(space, model);
        assert_eq!(
            &naive_assignment[..],
            fold_best.assignment(),
            "{workload}: factorized fold argmin diverged from naive Block sweep"
        );
        assert!(
            (naive_total - fold_best.tco().total().value()).abs() <= 1e-9,
            "{workload}: fold total diverged from naive Block sweep"
        );
        let ns = time_ns(reps, || naive_block_sweep(space, model));
        b.row(
            "naive.block_sweep",
            workload,
            ns,
            &[json!({"leaves": leaves}), sweep_fields(assignments, ns)],
        );
        naive_ns = Some(ns);
    }

    // Per-variant naive cost over a fixed sample: projects spaces too
    // large to sweep, and cross-checks the swept ones.
    let sample: Vec<Vec<usize>> = space.assignments().take(2048).collect();
    let sample_ns = time_ns(reps, || {
        sample
            .iter()
            .map(|assignment| naive_eval(space, model, assignment))
            .sum::<f64>()
    });
    let per_variant = sample_ns as f64 / sample.len() as f64;
    let projected = per_variant * assignments as f64;
    let fields = json!({"variants": sample.len(), "ns_per_variant": per_variant});
    let projection = json!({"projected_ns": projected});
    b.row(
        "naive.block_sample",
        workload,
        sample_ns,
        &[fields, projection],
    );

    let fold_ns = time_ns(reps, || {
        composition::search(space, model, Objective::MinTco)
    });
    let fold_speedup = speedup(naive_ns.map_or(projected, |ns| ns as f64), fold_ns);
    b.row(
        "optimizer.composition.search",
        workload,
        fold_ns,
        &[
            json!({"leaves": leaves, "speedup_vs_naive": fold_speedup}),
            sweep_fields(assignments, fold_ns),
        ],
    );
    let bnb_ns = time_ns(reps, || composition_bnb::search(space, model, 0));
    let visited = visited_fraction(&bnb_stats, assignments);
    b.row(
        "optimizer.bnb.search",
        workload,
        bnb_ns,
        &[json!(bnb_stats), json!({"visited_fraction": visited})],
    );
    (fold_speedup, bnb_stats, visited)
}

/// Replica `4^7` (naive-swept) and `4^10` (sample-projected), then the
/// six deployment archetypes on the case-study catalog, for the record.
/// Returns what [`replica`] returns for each replica space.
fn composition_section(b: &mut Bench) -> [(f64, BnbStats, f64); 2] {
    let model = synthetic_model();
    // Contract space: 3 zones × 2 components + gateway, 4 candidates each
    // (`4^7` = 16 384 variants) — small enough to naive-sweep in full.
    // Scale space: 3 zones × 3 components + gateway (`4^10` ≈ 1 M
    // variants) — fold-swept in full, naive cost projected from a sample.
    let replicas = [
        replica(b, "replica_4^7", &replica_space(3, 2, 4), &model, true),
        replica(b, "replica_4^10", &replica_space(3, 3, 4), &model, false),
    ];

    let catalog = paper_catalog();
    let cloud = paper_cloud();
    let model = paper_model();
    for &archetype in Archetype::all() {
        let space = archetype.space(&catalog, &cloud).expect("case-study space");
        let fold = composition::search(&space, &model, Objective::MinTco);
        let (bnb, stats) = composition_bnb::search(&space, &model, 0);
        let best = fold.best().expect("non-empty space");
        assert_eq!(
            bnb.best().expect("non-empty space").assignment(),
            best.assignment(),
            "{archetype}: engines disagree on the case-study catalog"
        );
        let fold_ns = time_ns(5, || composition::search(&space, &model, Objective::MinTco));
        b.row(
            "optimizer.composition.search",
            archetype.name(),
            fold_ns,
            &[json!({
                "leaves": space.leaf_count(),
                "assignments": space.assignment_count() as u64,
                "winner_assignment": best.assignment(),
                "winner_tco": best.tco().total().value(),
                "winner_availability": best.uptime().availability().value(),
                "bnb_leaves_evaluated": stats.leaves_evaluated,
                "bnb_subtrees_pruned": stats.subtrees_pruned,
            })],
        );
    }
    replicas
}

/// Option evaluation, the broker pipeline, Eqs. 1–4 and their ablations,
/// the serial engines as the space grows, and the simulators.
fn model_and_simulator(b: &mut Bench) {
    let space = paper_space();
    let model = paper_model();
    for (i, assignment) in PAPER_OPTIONS.iter().enumerate() {
        b.call("naive.evaluate", &format!("paper_opt{}", i + 1), || {
            Evaluation::evaluate(&space, &model, assignment)
        });
    }
    // One evaluation with cached terms against one from scratch.
    let synthetic = synthetic_space(6, 6);
    let synthetic_chain = CompositionSpace::from_serial(&synthetic);
    let synthetic_tco = synthetic_model();
    let evaluator = CompositionEvaluator::new(&synthetic_chain, &synthetic_tco);
    let deep = vec![3usize; 6];
    b.call("naive.evaluate", "synthetic_6^6", || {
        Evaluation::evaluate(&synthetic, &synthetic_tco, &deep)
    });
    b.call("optimizer.composition.evaluate", "synthetic_6^6", || {
        evaluator.evaluate(&deep)
    });

    // Fig. 10: the full broker pipeline.
    let broker = paper_broker();
    let request = paper_request();
    let rec = broker.recommend(&request).expect("valid request");
    assert_eq!(
        rec.clouds()[0].best().evaluation().tco().total().value(),
        1250.0,
        "the broker's case-study answer moved"
    );
    b.call("broker.recommend", "paper_2^3", || {
        broker.recommend(&request).expect("valid request")
    });

    // Eqs. 1–4, the `F_s = 0` ablation, sensitivity and confidence.
    let all_ha = option_system(&[1, 1, 1]);
    b.call("core.uptime", "paper_opt8", || {
        all_ha.uptime().availability()
    });
    b.call("core.uptime_ignoring_failover", "paper_opt8", || {
        all_ha.uptime_ignoring_failover()
    });
    let p = Probability::new(0.99).expect("constant");
    for n in [4u32, 16, 64, 256] {
        let m = n - n / 4;
        let workload = format!("n{n}_m{m}_p0.99");
        b.call("core.binomial.survival_at_least", &workload, || {
            binomial::survival_at_least(black_box(n), m, p)
        });
        b.call("core.binomial.survival_at_least_log", &workload, || {
            binomial::survival_at_least_log(black_box(n), m, p)
        });
    }
    b.call("core.sensitivity.analyze", "paper_opt8", || {
        SensitivityReport::analyze(&all_ha)
    });
    let intervals: Vec<_> = all_ha
        .clusters()
        .iter()
        .map(|c| ProbabilityInterval::wald(c.node_down_probability(), 1000.0, ConfidenceLevel::P95))
        .collect();
    b.call("core.confidence.uptime_interval", "paper_opt8", || {
        uptime_interval(&all_ha, &intervals)
    });

    // §III.C: the serial engines as the space grows. The serial-chain
    // section already times branch-and-bound on the paper's space.
    let mut scaling = vec![("paper_2^3".to_owned(), paper_space(), paper_model())];
    for (n, k) in [(4, 2), (6, 2), (8, 2), (10, 2), (6, 3), (6, 4)] {
        scaling.push((
            format!("synthetic_{k}^{n}"),
            synthetic_space(n, k),
            synthetic_model(),
        ));
    }
    for (workload, space, model) in &scaling {
        let objective = Objective::MinTco;
        b.call("optimizer.exhaustive.search", workload, || {
            exhaustive::search(space, model, objective)
        });
        b.call("optimizer.pruned.search", workload, || {
            pruned::search(space, model, objective)
        });
        b.call("optimizer.greedy.search", workload, || {
            greedy::search(space, model, objective)
        });
        b.call("optimizer.anneal.search", workload, || {
            anneal::search(space, model, objective)
        });
        if workload != "paper_2^3" {
            let chain = CompositionSpace::from_serial(space);
            b.call("optimizer.bnb.search", workload, || {
                composition_bnb::search(&chain, model, 1)
            });
        }
    }
    let penalty = PenaltyClause::per_hour(100.0).expect("constant");
    b.call(
        "optimizer.sweep.sla_sweep_range",
        "paper_2^3_20_targets",
        || sweep::sla_sweep_range(&space, &penalty, RoundingPolicy::CeilHour, 90.0, 99.5, 20),
    );

    // The simulator (experiment V1's engine): three options for a year,
    // then one cluster at rising failover latency (hot/warm/cold standby).
    let mut sims = Vec::new();
    for option in [1, 5, 8] {
        let system = option_system(&PAPER_OPTIONS[option - 1]);
        sims.push((format!("paper_opt{option}_1y"), system, 1.0, 7));
    }
    for (name, seconds) in [("hot_5s", 5.0), ("warm_60s", 60.0), ("cold_360s", 360.0)] {
        let cluster = ClusterSpec::builder("tier")
            .total_nodes(2)
            .standby_budget(1)
            .node_down_probability(Probability::new(0.05).expect("constant"))
            .failures_per_year(FailuresPerYear::new(4.0).expect("constant"))
            .failover_time(Minutes::from_seconds(seconds).expect("constant"))
            .build()
            .expect("valid cluster");
        let system = SystemSpec::new(vec![cluster]).expect("one cluster");
        sims.push((format!("standby_{name}_10y"), system, 10.0, 9));
    }
    for (workload, system, years, seed) in &sims {
        let config = SimConfig::years(*years).with_seed(*seed);
        let run = || Simulation::new(system, config).expect("valid system").run();
        b.seeded_call("sim.simulation.run", workload, Some(*seed), run);
    }
    // A dense scripted month: an outage every 6 hours on rotating nodes.
    let mut script = FailureScript::new();
    for i in 0..120u64 {
        script = script.outage(
            (i % 3) as usize,
            (i % 2) as usize,
            SimTime::from_minutes(i as f64 * 360.0),
            SimDuration::from_minutes(30.0),
        );
    }
    b.call("sim.failure_script.run", "paper_opt8_120_outages", || {
        script
            .run(&all_ha, SimDuration::from_minutes(45_000.0))
            .expect("valid script")
    });
    let storage_ha = option_system(&[0, 1, 0]);
    let horizon = SimDuration::from_minutes(10.0 * 525_600.0);
    let rack = CommonCause {
        rate_per_year: 4.0,
        blast_radius: 2,
        mttr_minutes: 120.0,
    };
    let causes = vec![CommonCause::NONE, rack, CommonCause::NONE];
    let correlated = || {
        let sim = CorrelatedSimulation::new(&storage_ha, causes.clone(), horizon, 7);
        sim.expect("valid config").run()
    };
    b.seeded_call("sim.correlated.run", "paper_opt3_10y", Some(7), correlated);
    let premium = MoneyPerMonth::new(350.0).expect("constant");
    let settle =
        || settlement::settle(&storage_ha, &model, premium, 36, 7).expect("valid settlement");
    b.seeded_call(
        "broker.settlement.settle",
        "paper_opt3_36m",
        Some(7),
        settle,
    );
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("uptime-bench-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Registers a clean simulated provider per cloud of `store` and returns
/// the absorb plan every broker of a comparison executes: [`ABSORBS`]
/// calls round-robin over every observed (cloud, kind), with per-call
/// seeds.
fn sync_plan(broker: &BrokerService, store: &CatalogStore) -> Vec<(CloudId, ComponentKind, u64)> {
    let mut targets = Vec::new();
    for (provider, kinds) in SimulatedProvider::for_catalog(store) {
        for (k, kind) in kinds.into_iter().enumerate() {
            targets.push((provider.id().clone(), kind, k as u64));
        }
        broker.register_provider(Box::new(provider));
    }
    targets
        .iter()
        .cycle()
        .zip(0..ABSORBS)
        .map(|((cloud, kind, k), i)| (cloud.clone(), *kind, SYNC_SEED + i * 31 + k))
        .collect()
}

/// Drives one chunk of the plan through `broker`, returning elapsed ns.
fn drive_chunk(broker: &BrokerService, chunk: &[(CloudId, ComponentKind, u64)]) -> u128 {
    let start = Instant::now();
    for (cloud, kind, seed) in chunk {
        broker
            .sync_telemetry(cloud, *kind, 20, 5.0, *seed)
            .expect("clean sync absorbs");
    }
    let ns = start.elapsed().as_nanos();
    black_box(broker.telemetry_epoch());
    ns
}

/// [`JOURNAL_REPS`] paired runs of one fsync policy. In each, an undurable
/// baseline broker and a durable one alternate [`CHUNK`]-absorb slices of
/// the same plan, so CPU-frequency and cache drift, which unfolds over
/// tens of milliseconds and would swamp a single-digit-percent overhead,
/// lands on both sides and cancels in their ratio; the median ratio
/// rejects a rep that hit a writeback burst. Returns the best baseline
/// and durable times, the journal's size and the overhead in percent.
fn measure_policy(store: &CatalogStore, fsync: FsyncPolicy) -> (u128, u128, u64, f64) {
    let (mut base_best, mut durable_best, mut journal_bytes) = (u128::MAX, u128::MAX, 0);
    let mut ratios = Vec::new();
    for rep in 0..JOURNAL_REPS {
        let dir = scratch_dir(&format!("{fsync:?}-{rep}"));
        let baseline = BrokerService::new(store.clone());
        let (durable, _) = BrokerService::new(store.clone())
            .with_durability(DurabilityConfig::new(&dir).with_fsync(fsync))
            .expect("durability attaches");
        let plan = sync_plan(&baseline, store);
        sync_plan(&durable, store);
        let (mut base_ns, mut durable_ns) = (0, 0);
        for chunk in plan.chunks(CHUNK) {
            base_ns += drive_chunk(&baseline, chunk);
            durable_ns += drive_chunk(&durable, chunk);
        }
        base_best = base_best.min(base_ns);
        if durable_ns < durable_best {
            durable_best = durable_ns;
            journal_bytes = std::fs::metadata(dir.join("journal.log")).map_or(0, |m| m.len());
        }
        ratios.push(durable_ns as f64 / base_ns as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    (base_best, durable_best, journal_bytes, overhead_pct)
}

/// Write-ahead journaling overhead on the telemetry absorb path under the
/// default `fsync os` policy (gated), then `fsync always` after every
/// gated rep, then a cold replay of a journal of [`ABSORBS`] records with
/// no snapshot. Returns the `fsync os` overhead in percent.
fn journal(b: &mut Bench) -> f64 {
    let store = case_study::catalog();
    let (base_ns, os_ns, os_bytes, os_overhead) = measure_policy(&store, FsyncPolicy::Os);
    let (_, always_ns, always_bytes, always_overhead) = measure_policy(&store, FsyncPolicy::Always);
    let plan = json!({"absorbs": ABSORBS, "seed": SYNC_SEED, "reps": JOURNAL_REPS, "chunk": CHUNK});
    for (workload, ns, journal) in [
        ("absorb_2048_no_journal", base_ns, json!({})),
        (
            "absorb_2048_fsync_os",
            os_ns,
            json!({"journal_bytes": os_bytes, "overhead_pct": os_overhead}),
        ),
        (
            "absorb_2048_fsync_always",
            always_ns,
            json!({"journal_bytes": always_bytes, "overhead_pct": always_overhead}),
        ),
    ] {
        b.row("broker.sync", workload, ns, &[plan.clone(), journal]);
    }

    let dir = scratch_dir("replay");
    let config = DurabilityConfig::new(&dir).with_snapshot_every(0);
    let (writer, _) = BrokerService::new(store.clone())
        .with_durability(config)
        .expect("durability attaches");
    drive_chunk(&writer, &sync_plan(&writer, &store));
    drop(writer);
    let start = Instant::now();
    let report = BrokerService::new(store.clone())
        .verify_recovery(&dir)
        .expect("recovery replays");
    let replay_ns = start.elapsed().as_nanos();
    assert_eq!(report.replayed, ABSORBS, "every record replays");
    let _ = std::fs::remove_dir_all(&dir);
    b.row(
        "broker.recover",
        "replay_2048",
        replay_ns,
        &[json!({
            "records": report.replayed,
            "records_per_sec": per_sec(u128::from(report.replayed), replay_ns),
        })],
    );
    os_overhead
}

/// The machine the numbers were taken on.
fn hardware() -> Value {
    json!({
        "cpus": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .ok(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out_path, enforce) = match args.as_slice() {
        [path] => (path, false),
        [path, flag] | [flag, path] if flag == "--enforce" => (path, true),
        _ => usage(),
    };
    if out_path.starts_with('-') {
        usage();
    }

    let mut b = Bench::default();
    let chains = serial_chains(&mut b);
    let (speedup_6, differing) = frontier(&mut b);
    let [(fold_4_7, ..), (fold_4_10, bnb_4_10, visited_4_10)] = composition_section(&mut b);
    model_and_simulator(&mut b);
    let overhead_os = journal(&mut b);

    // The gate table: 6^9 is the serial contract space and 6^12 proves
    // scale; 4^7 is the composition contract space and 4^10 its scale.
    let (c9, c12) = (&chains[3], &chains[4]);
    let enumeration_9 = c9.stream_ns.expect("6^9 is enumerated") as f64;
    let speedup_9 = speedup(enumeration_9, c9.parallel_ns);
    let visited_9 = visited_fraction(&c9.serial, c9.assignments);
    let pruned_9 = c9.serial.subtrees_pruned as f64;
    let leaves_12 = c12.parallel.leaves_evaluated as f64;
    let differing_6 = differing as f64;
    let pruned_4_10 = bnb_4_10.subtrees_pruned as f64;
    let gates = [
        ("6^9 bnb(N) speedup over enumeration", speedup_9, ">=", 10.0),
        ("6^9 bnb(1) visited fraction", visited_9, "<", 0.10),
        ("6^9 bnb(1) subtrees pruned", pruned_9, ">", 0.0),
        ("6^12 bnb(N) leaves evaluated", leaves_12, ">", 0.0),
        ("frontier 6^6 speedup over naive", speedup_6, ">=", 5.0),
        ("frontier 6^6 points differing", differing_6, "==", 0.0),
        ("4^7 fold speedup over naive Block", fold_4_7, ">=", 10.0),
        ("4^10 fold speedup, projected", fold_4_10, ">=", 10.0),
        ("4^10 bnb(N) subtrees pruned", pruned_4_10, ">", 0.0),
        ("4^10 bnb(N) visited fraction", visited_4_10, "<", 0.50),
        ("journal fsync os overhead percent", overhead_os, "<=", 10.0),
    ];
    for (name, value, op, bound) in gates {
        b.gate(name, value, op, bound);
    }

    let report = json!({
        "schema_version": SCHEMA_VERSION,
        "hardware": hardware(),
        "rows": b.rows,
        "gates": b.gates,
        "gates_pass": b.failed == 0,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out_path, format!("{rendered}\n")).expect("write the report");
    println!("wrote {out_path}");

    if enforce && b.failed > 0 {
        eprintln!("--enforce: {} gate(s) failed", b.failed);
        std::process::exit(1);
    }
}

/// Prints the usage line and exits 2 before any work: the report path has
/// no default, so a bare or mistyped run never overwrites a report.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}
