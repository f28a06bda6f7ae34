//! Scale regression for the streaming search (ISSUE PR 2 satellite).
//!
//! The pre-PR-2 search collected **every** assignment into a
//! `Vec<Vec<usize>>` before walking it, so memory grew with `k^n` even
//! when the caller only wanted the argmin. The streaming search must
//! complete a 6⁶ (46 656-variant) space while holding only its cursor
//! state plus the single winning evaluation.

use uptime_bench::{synthetic_model, synthetic_space};
use uptime_optimizer::{composition, composition_bnb, CompositionSpace, Objective};

/// Peak RSS of this process in kilobytes, from `/proc/self/status`
/// (`VmHWM`). Returns `None` off Linux so the functional assertions still
/// run everywhere.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn six_to_the_sixth_completes_streaming_with_bounded_memory() {
    let space = CompositionSpace::from_serial(&synthetic_space(6, 6));
    let model = synthetic_model();
    assert_eq!(space.assignment_count(), 46_656);

    let outcome = composition::search(&space, &model, Objective::MinTco);
    assert_eq!(outcome.stats().evaluated, 46_656);
    assert_eq!(
        outcome.evaluations().len(),
        1,
        "streaming search must keep only the winner"
    );

    // The streaming argmin is the bounded search's winner.
    let bounded = composition_bnb::search(&space, &model);
    assert_eq!(outcome.best().unwrap(), bounded.best().unwrap());

    // The whole test binary — space construction included — must stay far
    // below what materializing 6⁶ evaluation reports would cost. The bound
    // is deliberately loose (CI machines differ); the old implementation's
    // O(k^n) buffers are the regression being guarded.
    if let Some(kb) = peak_rss_kb() {
        assert!(kb < 262_144, "peak RSS {kb} kB exceeds 256 MiB bound");
    }
}

#[test]
fn six_to_the_sixth_thread_counts_agree() {
    // The bounded search proves the streaming winner at every width,
    // oversubscribed or at the machine's parallelism (`0`).
    let space = CompositionSpace::from_serial(&synthetic_space(6, 6));
    let model = synthetic_model();
    let reference = composition::search(&space, &model, Objective::MinTco);
    for threads in [0, 1, 3, 16] {
        let outcome = composition_bnb::search_with_threads(&space, &model, threads);
        assert_eq!(
            outcome.best().unwrap(),
            reference.best().unwrap(),
            "threads = {threads}"
        );
        assert_eq!(outcome.stats().considered(), 46_656, "threads = {threads}");
    }
}
