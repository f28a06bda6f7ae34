//! Regression tests pinning every number the paper reports in its
//! evaluation section (Figs. 3–10), exercised through the full stack
//! (catalog → optimizer → broker).

use uptime_suite::broker::{BrokerService, SolutionRequest};
use uptime_suite::catalog::{case_study, ComponentKind, HaMethodId};
use uptime_suite::optimizer::{exhaustive, Objective, SearchSpace};

fn paper_request() -> SolutionRequest {
    SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(98.0)
        .unwrap()
        .penalty_per_hour(100.0)
        .unwrap()
        .cloud(case_study::cloud_id())
        .as_is(vec![
            HaMethodId::new("vmware-ha-3p1"),
            HaMethodId::new("raid1"),
            HaMethodId::new("dual-gw"),
        ])
        .build()
        .unwrap()
}

/// Figs. 4–9 (and Fig. 3 = option #8): per-option uptime, slippage hours,
/// HA cost, penalty, and TCO.
#[test]
fn per_option_numbers_match_figures() {
    let broker = BrokerService::new(case_study::catalog());
    let rec = broker.recommend(&paper_request()).unwrap();
    let cloud = &rec.clouds()[0];

    // (option #, U_s %, billed hours, C_HA, penalty, TCO)
    let expected: [(usize, f64, f64, f64, f64, f64); 8] = [
        (1, 92.17, 43.0, 0.0, 4300.0, 4300.0),
        (2, 94.01, 30.0, 1000.0, 3000.0, 4000.0),
        (3, 96.78, 9.0, 350.0, 900.0, 1250.0),
        (4, 93.04, 37.0, 2200.0, 3700.0, 5900.0),
        (5, 98.71, 0.0, 1350.0, 0.0, 1350.0),
        (6, 94.91, 23.0, 3200.0, 2300.0, 5500.0),
        (7, 97.70, 3.0, 2550.0, 300.0, 2850.0),
        (8, 99.65, 0.0, 3550.0, 0.0, 3550.0),
    ];
    for (number, uptime, hours, ha, penalty, tco) in expected {
        let option = &cloud.options()[number - 1];
        assert_eq!(option.option_number(), number);
        let e = option.evaluation();
        assert!(
            (e.uptime().availability().as_percent() - uptime).abs() < 0.02,
            "#{number} uptime: got {:.4} want {uptime}",
            e.uptime().availability().as_percent()
        );
        assert_eq!(
            e.tco().billed_slippage_hours(),
            hours,
            "#{number} slippage hours"
        );
        assert!(
            (e.tco().ha_cost().value() - ha).abs() < 0.5,
            "#{number} C_HA"
        );
        assert!(
            (e.tco().penalty().value() - penalty).abs() < 0.5,
            "#{number} penalty"
        );
        assert!((e.tco().total().value() - tco).abs() < 0.5, "#{number} TCO");
    }
}

/// Fig. 10's ranking: #3 < #5 < #7 < #8 < #2 < #1 < #6 < #4 by TCO.
#[test]
fn fig10_tco_ordering() {
    let broker = BrokerService::new(case_study::catalog());
    let rec = broker.recommend(&paper_request()).unwrap();
    let cloud = &rec.clouds()[0];
    let mut by_tco: Vec<(usize, f64)> = cloud
        .options()
        .iter()
        .map(|o| (o.option_number(), o.evaluation().tco().total().value()))
        .collect();
    by_tco.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let order: Vec<usize> = by_tco.iter().map(|(n, _)| *n).collect();
    assert_eq!(order, vec![3, 5, 7, 8, 2, 1, 6, 4]);
}

/// Fig. 10's bottom line: OptCh = #3 at $1250; min-risk = #5 at $1350;
/// as-is = #8 at $3550; savings ≈ 62 %.
#[test]
fn fig10_headlines() {
    let broker = BrokerService::new(case_study::catalog());
    let rec = broker.recommend(&paper_request()).unwrap();
    let cloud = &rec.clouds()[0];
    assert_eq!(cloud.best().option_number(), 3);
    assert_eq!(cloud.best().evaluation().tco().total().value(), 1250.0);
    assert_eq!(cloud.min_risk().unwrap().option_number(), 5);
    assert_eq!(
        cloud.min_risk().unwrap().evaluation().tco().total().value(),
        1350.0
    );
    assert_eq!(cloud.as_is().unwrap().option_number(), 8);
    assert_eq!(
        cloud.as_is().unwrap().evaluation().tco().total().value(),
        3550.0
    );
    let savings = cloud.savings_vs_as_is().unwrap();
    assert!(
        (savings - 0.6197).abs() < 0.001,
        "paper's ≈62 %, got {savings}"
    );
}

/// Only options #5 and #8 avoid the penalty (Fig. 10's "SLA Violation?"
/// column).
#[test]
fn sla_violation_column() {
    let broker = BrokerService::new(case_study::catalog());
    let rec = broker.recommend(&paper_request()).unwrap();
    let cloud = &rec.clouds()[0];
    let no_violation: Vec<usize> = cloud
        .options()
        .iter()
        .filter(|o| o.meets_sla())
        .map(|o| o.option_number())
        .collect();
    assert_eq!(no_violation, vec![5, 8]);
}

/// The factorized fast path (the composition kernel on the paper's
/// pure-series chain) reproduces the paper's golden numbers exactly:
/// option #1 (all baseline) shows `U_s` = 92.17 %, 43 billed slippage
/// hours, $4300 TCO; option #3 (RAID-1 only) shows `U_s` = 96.78 % at
/// $1250 and is the streaming argmin.
#[test]
fn fast_path_reproduces_golden_numbers() {
    use uptime_suite::optimizer::{composition, CompositionEvaluator, CompositionSpace};

    let serial = SearchSpace::from_catalog(
        &case_study::catalog(),
        &case_study::cloud_id(),
        &ComponentKind::paper_tiers(),
    )
    .unwrap();
    let space = CompositionSpace::from_serial(&serial);
    let model = case_study::tco_model();
    let engine = CompositionEvaluator::new(&space, &model);

    // Option #1: no HA anywhere.
    let option1 = engine.evaluate(&[0, 0, 0]);
    assert!(
        (option1.uptime().availability().as_percent() - 92.17).abs() < 0.02,
        "option #1 U_s: {}",
        option1.uptime().availability().as_percent()
    );
    assert_eq!(option1.tco().billed_slippage_hours(), 43.0);
    assert!((option1.tco().total().value() - 4300.0).abs() < 0.5);

    // Option #3: RAID-1 on storage only.
    let option3 = engine.evaluate(&[0, 1, 0]);
    assert!(
        (option3.uptime().availability().as_percent() - 96.78).abs() < 0.02,
        "option #3 U_s: {}",
        option3.uptime().availability().as_percent()
    );
    assert!((option3.tco().total().value() - 1250.0).abs() < 0.5);

    // The streaming search lands on option #3 having visited all 8.
    let outcome = composition::search(&space, &model, Objective::MinTco);
    assert_eq!(outcome.best().unwrap().assignment(), &[0, 1, 0]);
    assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);
    assert_eq!(outcome.stats().evaluated, 8);
}

/// §III.C's worked example — the pruned search clips option #8 after #5 —
/// and still lands on the paper's optimum.
#[test]
fn pruned_search_clips_option_8() {
    let space = SearchSpace::from_catalog(
        &case_study::catalog(),
        &case_study::cloud_id(),
        &ComponentKind::paper_tiers(),
    )
    .unwrap();
    let model = case_study::tco_model();
    let outcome = uptime_suite::optimizer::pruned::search(&space, &model, Objective::MinTco);
    assert_eq!(outcome.stats().evaluated, 7);
    assert_eq!(outcome.stats().skipped, 1);
    assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);

    let full = exhaustive::search(&space, &model, Objective::MinTco);
    assert_eq!(
        full.best().unwrap().assignment(),
        outcome.best().unwrap().assignment()
    );
}
