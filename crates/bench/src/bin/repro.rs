//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation section, plus the two extra experiments (Monte-Carlo
//! validation and search-complexity ablation) documented in DESIGN.md.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p uptime-bench --bin repro [figures|complexity|validate|all]
//! ```

use uptime_bench::{paper_broker, paper_request, synthetic_model, synthetic_space};
use uptime_broker::{audit_recommendation, report, settlement};
use uptime_catalog::ComponentKind;
use uptime_core::{MoneyPerMonth, PenaltyClause, RoundingPolicy, SystemSpec};
use uptime_optimizer::{composition_bnb, exhaustive, pruned, sweep, CompositionSpace, Objective};
use uptime_sim::{CommonCause, CorrelatedSimulation, SimDuration};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    match mode.as_str() {
        "figures" => figures()?,
        "complexity" => complexity(),
        "validate" => validate()?,
        "settlement" => settlement_experiment()?,
        "correlated" => correlated_experiment()?,
        "sweep" => sweep_experiment()?,
        "staffing" => staffing_experiment()?,
        "metacloud" => metacloud_experiment()?,
        "all" => {
            figures()?;
            complexity();
            validate()?;
            sweep_experiment()?;
            settlement_experiment()?;
            correlated_experiment()?;
            staffing_experiment()?;
            metacloud_experiment()?;
        }
        other => {
            eprintln!(
                "unknown mode `{other}`; use figures|complexity|validate|settlement|correlated|sweep|staffing|metacloud|all"
            );
            std::process::exit(2);
        }
    }
    Ok(())
}

/// Figs. 3–10: the eight solution options and the summary.
fn figures() -> Result<(), Box<dyn std::error::Error>> {
    let broker = paper_broker();
    let request = paper_request();
    let recommendation = broker.recommend(&request)?;
    let cloud = &recommendation.clouds()[0];
    let model = request.tco_model();
    let catalog = broker.catalog_snapshot();

    println!("================================================================");
    println!(" Paper Figs. 3-9: per-option tables");
    println!("================================================================\n");
    for option in cloud.options() {
        println!(
            "{}",
            report::render_option_table_detailed(
                &catalog,
                cloud.cloud(),
                option,
                &ComponentKind::paper_tiers(),
                &model,
            )?
        );
    }
    println!("================================================================");
    println!(" Paper Fig. 10: summary of results & cost efficiency");
    println!("================================================================\n");
    print!("{}", report::render_fig10_summary(cloud));
    println!();
    Ok(())
}

/// §III.C: evaluations performed by each search algorithm as `n`, `k` grow.
/// `REPRO_MAX_SPACE` caps the largest space evaluated (default 1e6) so CI
/// smoke tests can run the table quickly in debug builds.
fn complexity() {
    println!("================================================================");
    println!(" Paper §III.C: search-complexity ablation (evaluations)");
    println!("================================================================\n");
    let max_space: u128 = std::env::var("REPRO_MAX_SPACE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let model = synthetic_model();
    println!(
        "{:>3} {:>3} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "n", "k", "space", "exhaustive", "pruned", "B&B", "agree"
    );
    for &k in &[2usize, 3, 4] {
        for &n in &[2usize, 4, 6, 8, 10, 12] {
            if (k as u128).pow(n as u32) > max_space {
                continue;
            }
            let space = synthetic_space(n, k);
            let full = exhaustive::search(&space, &model, Objective::MinTco);
            let fast = pruned::search(&space, &model, Objective::MinTco);
            let bb = composition_bnb::search(&CompositionSpace::from_serial(&space), &model);
            let best = full.best().expect("non-empty").tco().total();
            let agree = fast.best().expect("non-empty").tco().total() == best
                && bb.best().expect("non-empty").tco().total() == best;
            println!(
                "{:>3} {:>3} {:>12} {:>12} {:>12} {:>12} {:>7}",
                n,
                k,
                space.assignment_count(),
                full.stats().evaluated,
                fast.stats().evaluated,
                bb.stats().evaluated,
                if agree { "yes" } else { "NO" }
            );
        }
    }
    println!();
}

/// Experiment SW1: the winning option per SLA target, with crossovers.
fn sweep_experiment() -> Result<(), Box<dyn std::error::Error>> {
    println!("================================================================");
    println!(" Experiment SW1: SLA sweep and crossovers");
    println!("================================================================\n");
    let space = uptime_bench::paper_space();
    let result = sweep::sla_sweep_range(
        &space,
        &PenaltyClause::per_hour(100.0)?,
        RoundingPolicy::CeilHour,
        90.0,
        99.5,
        20,
    );
    println!(
        "{:>8} {:>14} {:>10} {:>12} {:>6}",
        "SLA %", "winner", "U_s %", "TCO $/mo", "meets"
    );
    for point in result.points() {
        println!(
            "{:>8.2} {:>14} {:>10.2} {:>12.0} {:>6}",
            point.sla_percent,
            format!("{:?}", point.best_assignment),
            point.best_uptime.as_percent(),
            point.best_tco.value(),
            if point.meets_sla { "yes" } else { "no" }
        );
    }
    println!("crossovers: {:?}\n", result.crossovers());
    Ok(())
}

/// Experiment S1: expected (Eq. 5) vs realized monthly TCO.
fn settlement_experiment() -> Result<(), Box<dyn std::error::Error>> {
    println!("================================================================");
    println!(" Experiment S1: Eq. 5 expected vs realized settlement (120 mo)");
    println!("================================================================\n");
    let space = uptime_bench::paper_space();
    let model = uptime_bench::paper_model();
    println!(
        "{:<12} {:>12} {:>14} {:>10} {:>9}",
        "option", "Eq.5 $/mo", "realized $/mo", "gap $/mo", "breaches"
    );
    for (i, assignment) in space.assignments().enumerate() {
        let system = uptime_bench::option_system(&assignment);
        let ha_cost: MoneyPerMonth = assignment
            .iter()
            .zip(space.components())
            .map(|(&idx, comp)| comp.candidates()[idx].monthly_cost())
            .sum();
        let report = settlement::settle(&system, &model, ha_cost, 120, 7_000 + i as u64)?;
        println!(
            "{:<12} {:>12.0} {:>14.0} {:>10.0} {:>6}/120",
            format!("{assignment:?}"),
            report.expected_tco().value(),
            report.mean_realized_tco().value(),
            report.jensen_gap(),
            report.months_in_breach(),
        );
    }
    println!();
    Ok(())
}

/// Experiment T1: independence assumption vs common-cause failures.
fn correlated_experiment() -> Result<(), Box<dyn std::error::Error>> {
    println!("================================================================");
    println!(" Experiment T1: Eq. 2 independence vs common-cause failures");
    println!("================================================================\n");
    let system = SystemSpec::new(vec![
        uptime_bench::option_system(&[0, 1, 0]).clusters()[1].clone()
    ])?;
    let analytic = system.uptime().availability();
    println!(
        "RAID-1 pair, analytic U_s = {:.4}% assuming independence",
        analytic.as_percent()
    );
    println!(
        "{:>14} {:>14} {:>16}",
        "rack events/yr", "observed U_s %", "model error (pp)"
    );
    let horizon = SimDuration::from_minutes(1500.0 * 525_600.0);
    for rate in [0.0, 2.0, 4.0, 8.0] {
        let report = CorrelatedSimulation::new(
            &system,
            vec![CommonCause {
                rate_per_year: rate,
                blast_radius: 2,
                mttr_minutes: 240.0,
            }],
            horizon,
            42,
        )?
        .run();
        println!(
            "{:>14.1} {:>14.4} {:>16.4}",
            rate,
            report.availability().as_percent(),
            analytic.as_percent() - report.availability().as_percent(),
        );
    }
    println!();
    Ok(())
}

/// Experiment L1: repair-crew staffing vs availability.
fn staffing_experiment() -> Result<(), Box<dyn std::error::Error>> {
    use uptime_core::{ClusterSpec, FailuresPerYear, Minutes, Probability};
    use uptime_sim::crews::CrewSimulation;
    println!("================================================================");
    println!(" Experiment L1: repair crews (the labor behind C_HA) vs uptime");
    println!("================================================================\n");
    let system = SystemSpec::new(vec![ClusterSpec::builder("farm")
        .total_nodes(8)
        .standby_budget(3)
        .node_down_probability(Probability::new(0.10)?)
        .failures_per_year(FailuresPerYear::new(12.0)?)
        .failover_time(Minutes::new(0.5)?)
        .build()?])?;
    let analytic = system.uptime().availability();
    println!(
        "8-node farm (5 active), P=10%, f=12/yr; analytic U_s = {:.3}% (unlimited repairs)",
        analytic.as_percent()
    );
    println!("{:>8} {:>16} {:>14}", "crews", "observed U_s %", "gap (pp)");
    let horizon = SimDuration::from_minutes(150.0 * 525_600.0);
    for crews in [1u32, 2, 4, 8] {
        let report = CrewSimulation::new(&system, vec![crews], horizon, 5)?.run();
        println!(
            "{:>8} {:>16.3} {:>14.3}",
            crews,
            report.availability().as_percent(),
            analytic.as_percent() - report.availability().as_percent()
        );
    }
    println!();
    Ok(())
}

/// Experiment M1: metacloud (cross-provider) vs best single cloud.
fn metacloud_experiment() -> Result<(), Box<dyn std::error::Error>> {
    use uptime_broker::{BrokerService, SolutionRequest};
    use uptime_catalog::extended;
    println!("================================================================");
    println!(" Experiment M1: metacloud (paper §V's larger goal)");
    println!("================================================================\n");
    let broker = BrokerService::new(extended::hybrid_catalog());
    let request = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(98.0)?
        .penalty_per_hour(100.0)?
        .build()?;
    let single = broker.recommend(&request)?;
    let meta = broker.recommend_metacloud(&request)?;
    println!(
        "best single cloud: `{}` at ${:.0}/mo",
        single.best_cloud().expect("clouds").cloud(),
        single.best_tco().expect("clouds").value()
    );
    println!(
        "metacloud ({} assignments searched): ${:.0}/mo at U_s {:.2}%",
        meta.assignments_searched(),
        meta.evaluation().tco().total().value(),
        meta.evaluation().uptime().availability().as_percent()
    );
    for placement in meta.placements() {
        println!(
            "    {:<18} -> {:<10} via {}",
            placement.component.label(),
            placement.cloud,
            placement.method
        );
    }
    println!();
    Ok(())
}

/// Experiment V1: analytic Eqs. 1–4 vs Monte-Carlo simulation.
fn validate() -> Result<(), Box<dyn std::error::Error>> {
    println!("================================================================");
    println!(" Experiment V1: analytic model vs discrete-event simulation");
    println!("================================================================\n");
    let space = uptime_bench::paper_space();
    println!(
        "{:<12} {:>11} {:>12} {:>19} {:>6}",
        "assignment", "analytic %", "simulated %", "95% CI", "pass"
    );
    for (i, assignment) in space.assignments().enumerate() {
        let system = uptime_bench::option_system(&assignment);
        let audit = audit_recommendation(&system, 16, 20.0, 4.0, 900 + i as u64)?;
        let (lo, hi) = audit.estimate().ci95();
        println!(
            "{:<12} {:>11.3} {:>12.3} {:>9.3}-{:<9.3} {:>6}",
            format!("{assignment:?}"),
            audit.analytic().as_percent(),
            audit.estimate().mean().as_percent(),
            lo.as_percent(),
            hi.as_percent(),
            if audit.passes() { "ok" } else { "FAIL" }
        );
    }
    println!();
    Ok(())
}
