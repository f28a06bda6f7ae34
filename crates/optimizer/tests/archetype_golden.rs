//! Golden snapshots of the archetype scenario pack (ISSUE PR 7).
//!
//! Pins, as a checked-in text file, everything a catalog or archetype
//! change could silently move: each archetype's leaf layout (names,
//! candidate labels, costs, topology rendering) and the winning
//! recommendation on the paper's case-study catalog (assignment,
//! cardinality, TCO, availability to 15 decimals).
//!
//! On an intended change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p uptime-optimizer --test archetype_golden`
//! and review the diff like any other code change.

use std::fmt::Write as _;

use uptime_catalog::case_study;
use uptime_optimizer::{composition, composition_bnb, Archetype, Objective};

fn render_golden() -> String {
    let catalog = case_study::catalog();
    let cloud = case_study::cloud_id();
    let model = case_study::tco_model();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Archetype scenario pack on the paper's case-study catalog\n\
         # (98% SLA, $100/h penalty, ceiling rounding). Regenerate with\n\
         # UPDATE_GOLDEN=1 cargo test -p uptime-optimizer --test archetype_golden\n"
    );
    for &archetype in Archetype::all() {
        let space = archetype.space(&catalog, &cloud).expect("case-study space");
        let _ = writeln!(out, "== {archetype} ==");
        let _ = writeln!(out, "description: {}", archetype.description());
        let _ = writeln!(
            out,
            "leaves: {}  assignments: {}  pure-series: {}",
            space.leaf_count(),
            space.assignment_count(),
            space.is_pure_series()
        );
        let _ = writeln!(out, "topology: {space}");
        for leaf in space.leaves() {
            let candidates: Vec<String> = leaf
                .candidates()
                .iter()
                .map(|c| format!("{} (${:.0})", c.label(), c.monthly_cost().value()))
                .collect();
            let _ = writeln!(out, "leaf {}: {}", leaf.name(), candidates.join(" | "));
        }
        let outcome = composition::search(&space, &model, Objective::MinTco);
        let best = outcome.best().expect("non-empty space");
        let _ = writeln!(out, "winner assignment: {:?}", best.assignment());
        let _ = writeln!(out, "winner cardinality: {}", best.cardinality());
        let _ = writeln!(out, "winner tco: ${:.4}/mo", best.tco().total().value());
        let _ = writeln!(
            out,
            "winner availability: {:.15}",
            best.uptime().availability().value()
        );
        let _ = writeln!(out);
    }
    out
}

#[test]
fn archetype_pack_matches_golden_file() {
    let actual = render_golden();
    let path = format!("{}/tests/golden/archetypes.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path}: {e}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "archetype pack drifted from tests/golden/archetypes.txt; if the \
         change is intended, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn bnb_agrees_with_golden_winners() {
    // The golden file pins the streaming search; the exact branch-and-bound
    // must land on the same optimum for every shape.
    let catalog = case_study::catalog();
    let cloud = case_study::cloud_id();
    let model = case_study::tco_model();
    for &archetype in Archetype::all() {
        let space = archetype.space(&catalog, &cloud).unwrap();
        let fast = composition::search(&space, &model, Objective::MinTco);
        let (bnb, _) = composition_bnb::search(&space, &model, 0);
        assert_eq!(
            bnb.best().unwrap().assignment(),
            fast.best().unwrap().assignment(),
            "{archetype}"
        );
    }
}
