//! The observability overhead budget: running the hot streaming engine
//! with the no-op recorder must stay within 5% of the uninstrumented
//! search.
//!
//! The instrumented wrapper's only cost with [`uptime_obs::NOOP`] is one
//! span guard (two `Instant::now` calls) and two no-op counter flushes per
//! search — nothing per variant — so the budget holds with a wide margin.
//! Best-of-N timing plus a retry loop keeps the check robust to scheduler
//! noise on shared CI runners.

use std::hint::black_box;
use std::time::Instant;

use uptime_bench::{synthetic_model, synthetic_space};
use uptime_optimizer::{composition, CompositionSpace, Objective};

fn best_of<T>(reps: u32, mut body: impl FnMut() -> T) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let out = body();
        best = best.min(start.elapsed().as_nanos());
        black_box(&out);
    }
    best
}

#[test]
fn noop_recorder_overhead_is_within_budget() {
    let space = CompositionSpace::from_serial(&synthetic_space(6, 6));
    let model = synthetic_model();

    // Results must be bit-identical before timing means anything.
    let plain = composition::search(&space, &model, Objective::MinTco);
    let recorded = composition::search_recorded(
        &space,
        &model,
        Objective::MinTco,
        &uptime_obs::NOOP,
        &uptime_obs::TraceSpan::disabled(),
    );
    assert_eq!(plain, recorded, "no-op instrumentation changed the result");

    // Warm-up, then up to three timing rounds: accept the first round
    // within budget, fail only if every round regresses past 5%.
    let _ = best_of(2, || composition::search(&space, &model, Objective::MinTco));
    let mut last_ratio = f64::NAN;
    for round in 0..3 {
        let plain_ns = best_of(5, || composition::search(&space, &model, Objective::MinTco));
        let noop_ns = best_of(5, || {
            composition::search_recorded(
                &space,
                &model,
                Objective::MinTco,
                &uptime_obs::NOOP,
                &uptime_obs::TraceSpan::disabled(),
            )
        });
        last_ratio = noop_ns as f64 / plain_ns.max(1) as f64;
        if last_ratio <= 1.05 {
            return;
        }
        eprintln!("round {round}: noop/plain ratio {last_ratio:.4}, retrying");
    }
    panic!("no-op recorder overhead exceeded 5% in every round (ratio {last_ratio:.4})");
}
