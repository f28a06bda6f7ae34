//! Recommendation artifacts: what the broker hands back.

use serde::{Deserialize, Serialize};
use uptime_catalog::{CloudId, HaMethodId};
use uptime_core::MoneyPerMonth;
use uptime_optimizer::{Evaluation, SearchStats};

/// One fully-described solution option (a row of the paper's Fig. 10).
///
/// Options are numbered the way the paper numbers them: ascending by how
/// many components are clustered, then by the assignment's mixed-radix
/// value (so the case study's options come out exactly #1–#8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedOption {
    option_number: usize,
    labels: Vec<String>,
    method_ids: Vec<HaMethodId>,
    tier_costs: Vec<MoneyPerMonth>,
    evaluation: Evaluation,
    meets_sla: bool,
}

impl RankedOption {
    /// Assembles an option.
    #[must_use]
    pub fn new(
        option_number: usize,
        labels: Vec<String>,
        method_ids: Vec<HaMethodId>,
        tier_costs: Vec<MoneyPerMonth>,
        evaluation: Evaluation,
        meets_sla: bool,
    ) -> Self {
        RankedOption {
            option_number,
            labels,
            method_ids,
            tier_costs,
            evaluation,
            meets_sla,
        }
    }

    /// Monthly `C_HA` contribution of each tier, in serial order.
    #[must_use]
    pub fn tier_costs(&self) -> &[MoneyPerMonth] {
        &self.tier_costs
    }

    /// Paper-style option number (1-based).
    #[must_use]
    pub fn option_number(&self) -> usize {
        self.option_number
    }

    /// HA method display names, one per tier.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// HA method ids, one per tier.
    #[must_use]
    pub fn method_ids(&self) -> &[HaMethodId] {
        &self.method_ids
    }

    /// The full evaluation (uptime + TCO).
    #[must_use]
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// Whether the modeled uptime satisfies the contractual SLA.
    #[must_use]
    pub fn meets_sla(&self) -> bool {
        self.meets_sla
    }
}

/// The evaluated options for one cloud.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudRecommendation {
    cloud: CloudId,
    options: Vec<RankedOption>,
    best_index: usize,
    min_risk_index: Option<usize>,
    as_is_index: Option<usize>,
    stats: SearchStats,
}

impl CloudRecommendation {
    /// Assembles a cloud recommendation.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or an index is out of range; the
    /// service constructs these from non-empty search outcomes.
    #[must_use]
    pub fn new(
        cloud: CloudId,
        options: Vec<RankedOption>,
        best_index: usize,
        min_risk_index: Option<usize>,
        as_is_index: Option<usize>,
        stats: SearchStats,
    ) -> Self {
        assert!(!options.is_empty(), "cloud recommendation needs options");
        assert!(best_index < options.len());
        CloudRecommendation {
            cloud,
            options,
            best_index,
            min_risk_index,
            as_is_index,
            stats,
        }
    }

    /// The cloud these options are priced on.
    #[must_use]
    pub fn cloud(&self) -> &CloudId {
        &self.cloud
    }

    /// Every option, in paper numbering order.
    #[must_use]
    pub fn options(&self) -> &[RankedOption] {
        &self.options
    }

    /// The minimum-TCO option (the paper's `OptCh`).
    #[must_use]
    pub fn best(&self) -> &RankedOption {
        &self.options[self.best_index]
    }

    /// The cheapest option with no expected penalty, if any meets the SLA.
    #[must_use]
    pub fn min_risk(&self) -> Option<&RankedOption> {
        self.min_risk_index.map(|i| &self.options[i])
    }

    /// The customer's as-is option, when the request declared one.
    #[must_use]
    pub fn as_is(&self) -> Option<&RankedOption> {
        self.as_is_index.map(|i| &self.options[i])
    }

    /// Search instrumentation.
    #[must_use]
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The cheapest-TCO option whose HA spend fits a monthly budget cap —
    /// the "we can only spend $X on redundancy" constraint clients bring.
    /// Returns `None` when even the free baseline exceeds the cap (i.e.
    /// never, unless the space has no zero-cost candidate).
    #[must_use]
    pub fn best_within_budget(&self, ha_budget: MoneyPerMonth) -> Option<&RankedOption> {
        self.options
            .iter()
            .filter(|o| o.evaluation().tco().ha_cost() <= ha_budget)
            .min_by_key(|o| o.evaluation().tco().total())
    }

    /// The highest-uptime option whose HA spend fits the budget cap.
    #[must_use]
    pub fn max_uptime_within_budget(&self, ha_budget: MoneyPerMonth) -> Option<&RankedOption> {
        self.options
            .iter()
            .filter(|o| o.evaluation().tco().ha_cost() <= ha_budget)
            .max_by_key(|o| o.evaluation().uptime().availability())
    }

    /// Fractional savings versus the as-is TCO — the paper's 62 % headline.
    ///
    /// Fig. 10 compares the as-is deployment ($3550, penalty-free) with the
    /// framework's *penalty-free* recommendation ($1350, option #5), not
    /// with the absolute min-TCO option #3: when the customer's current
    /// deployment meets the SLA, the like-for-like replacement is the
    /// cheapest option that also meets it. When the as-is violates the
    /// SLA, the comparison target is the overall best.
    #[must_use]
    pub fn savings_vs_as_is(&self) -> Option<f64> {
        let as_is = self.as_is()?;
        let as_is_tco = as_is.evaluation().tco().total();
        if as_is_tco.value() == 0.0 {
            return None;
        }
        let target = if as_is.meets_sla() {
            self.min_risk().unwrap_or_else(|| self.best())
        } else {
            self.best()
        };
        Some(1.0 - target.evaluation().tco().total() / as_is_tco)
    }
}

/// How a degraded answer came to be degraded.
///
/// When a provider's circuit breaker is open or its telemetry stream is
/// quarantined, the broker still answers — from the last known-good
/// catalog — but annotates the answer so the client can weigh staleness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedMode {
    /// Clouds whose answers rest on a stale catalog.
    pub stale_clouds: Vec<CloudId>,
    /// Telemetry batches quarantined across those clouds.
    pub quarantined_batches: u64,
    /// Human-readable explanation.
    pub note: String,
}

/// The broker's full answer, across every considered cloud.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    clouds: Vec<CloudRecommendation>,
    degraded: Option<DegradedMode>,
}

impl Recommendation {
    /// Assembles a recommendation.
    #[must_use]
    pub fn new(clouds: Vec<CloudRecommendation>) -> Self {
        Recommendation {
            clouds,
            degraded: None,
        }
    }

    /// Annotates the answer as degraded.
    #[must_use]
    pub fn with_degraded(mut self, degraded: DegradedMode) -> Self {
        self.degraded = Some(degraded);
        self
    }

    /// Degradation metadata, when the answer rests on a stale catalog.
    #[must_use]
    pub fn degraded(&self) -> Option<&DegradedMode> {
        self.degraded.as_ref()
    }

    /// Whether the answer is served in degraded mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Per-cloud recommendations.
    #[must_use]
    pub fn clouds(&self) -> &[CloudRecommendation] {
        &self.clouds
    }

    /// The cloud recommendation containing the globally cheapest option.
    #[must_use]
    pub fn best_cloud(&self) -> Option<&CloudRecommendation> {
        self.clouds
            .iter()
            .min_by_key(|c| c.best().evaluation().tco().total())
    }

    /// The globally minimum-TCO option.
    #[must_use]
    pub fn best(&self) -> Option<&RankedOption> {
        self.best_cloud().map(CloudRecommendation::best)
    }

    /// The globally cheapest penalty-free option, if any cloud has one.
    #[must_use]
    pub fn min_risk(&self) -> Option<(&CloudId, &RankedOption)> {
        self.clouds
            .iter()
            .filter_map(|c| c.min_risk().map(|o| (c.cloud(), o)))
            .min_by_key(|(_, o)| o.evaluation().tco().total())
    }

    /// The globally cheapest TCO value.
    #[must_use]
    pub fn best_tco(&self) -> Option<MoneyPerMonth> {
        self.best().map(|o| o.evaluation().tco().total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uptime_catalog::{case_study, ComponentKind};
    use uptime_optimizer::SearchSpace;

    fn option(n: usize, assignment: &[usize]) -> RankedOption {
        let space = SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        let model = case_study::tco_model();
        let e = Evaluation::evaluate(&space, &model, assignment);
        let meets = model.sla().is_met_by(e.uptime().availability());
        let (labels, costs) = assignment
            .iter()
            .zip(space.components())
            .map(|(&idx, comp)| {
                let candidate = &comp.candidates()[idx];
                (candidate.label().to_owned(), candidate.monthly_cost())
            })
            .unzip();
        RankedOption::new(n, labels, vec![HaMethodId::new("x"); 3], costs, e, meets)
    }

    fn cloud_rec() -> CloudRecommendation {
        // Options 1 (no HA), 3 (storage), 5 (storage+network), 8 (all).
        let options = vec![
            option(1, &[0, 0, 0]),
            option(3, &[0, 1, 0]),
            option(5, &[0, 1, 1]),
            option(8, &[1, 1, 1]),
        ];
        CloudRecommendation::new(
            case_study::cloud_id(),
            options,
            1,       // best = option #3
            Some(2), // min risk = option #5
            Some(3), // as-is = option #8
            SearchStats {
                evaluated: 8,
                skipped: 0,
            },
        )
    }

    #[test]
    fn accessors() {
        let rec = cloud_rec();
        assert_eq!(rec.cloud().as_str(), "softlayer");
        assert_eq!(rec.options().len(), 4);
        assert_eq!(rec.best().option_number(), 3);
        assert_eq!(rec.min_risk().unwrap().option_number(), 5);
        assert_eq!(rec.as_is().unwrap().option_number(), 8);
        assert_eq!(rec.stats().evaluated, 8);
        assert!(rec.best().labels().contains(&"RAID 1".to_owned()));
    }

    #[test]
    fn savings_match_paper_62_percent() {
        let rec = cloud_rec();
        // As-is (#8) meets the SLA, so the like-for-like target is the
        // penalty-free option #5 at $1350: 1 − 1350/3550 ≈ 62 %.
        let savings = rec.savings_vs_as_is().unwrap();
        assert!((savings - (1.0 - 1350.0 / 3550.0)).abs() < 1e-12);
        assert!((savings - 0.62).abs() < 0.005, "≈62 %, got {savings}");
    }

    #[test]
    fn budget_constrained_selection() {
        let rec = cloud_rec();
        let money = |v: f64| uptime_core::MoneyPerMonth::new(v).unwrap();
        // $500 budget: only options #1 ($0) and #3 ($350) qualify; #3 wins
        // on TCO and on uptime.
        let best = rec.best_within_budget(money(500.0)).unwrap();
        assert_eq!(best.option_number(), 3);
        let top = rec.max_uptime_within_budget(money(500.0)).unwrap();
        assert_eq!(top.option_number(), 3);
        // $2000 budget admits #5: still min TCO at #3 but max uptime at #5.
        assert_eq!(
            rec.best_within_budget(money(2000.0))
                .unwrap()
                .option_number(),
            3
        );
        assert_eq!(
            rec.max_uptime_within_budget(money(2000.0))
                .unwrap()
                .option_number(),
            5
        );
        // Unlimited budget: max uptime is the full-HA option #8.
        assert_eq!(
            rec.max_uptime_within_budget(money(1e9))
                .unwrap()
                .option_number(),
            8
        );
    }

    #[test]
    fn meets_sla_flags() {
        let rec = cloud_rec();
        assert!(!rec.options()[0].meets_sla());
        assert!(!rec.options()[1].meets_sla());
        assert!(rec.options()[2].meets_sla());
        assert!(rec.options()[3].meets_sla());
    }

    #[test]
    fn recommendation_aggregates_across_clouds() {
        let rec = Recommendation::new(vec![cloud_rec()]);
        assert_eq!(rec.clouds().len(), 1);
        assert_eq!(rec.best().unwrap().option_number(), 3);
        assert_eq!(rec.best_tco().unwrap().value(), 1250.0);
        let (cloud, opt) = rec.min_risk().unwrap();
        assert_eq!(cloud.as_str(), "softlayer");
        assert_eq!(opt.option_number(), 5);
    }

    #[test]
    fn empty_recommendation() {
        let rec = Recommendation::new(vec![]);
        assert!(rec.best().is_none());
        assert!(rec.min_risk().is_none());
        assert!(rec.best_tco().is_none());
    }

    #[test]
    fn savings_none_without_as_is() {
        let mut rec = cloud_rec();
        rec.as_is_index = None;
        assert!(rec.savings_vs_as_is().is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let rec = Recommendation::new(vec![cloud_rec()]);
        let json = serde_json::to_string(&rec).unwrap();
        let back: Recommendation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn degraded_annotation() {
        let rec = Recommendation::new(vec![cloud_rec()]);
        assert!(!rec.is_degraded());
        assert!(rec.degraded().is_none());

        let rec = rec.with_degraded(DegradedMode {
            stale_clouds: vec![case_study::cloud_id()],
            quarantined_batches: 3,
            note: "circuit breaker open".into(),
        });
        assert!(rec.is_degraded());
        let meta = rec.degraded().unwrap();
        assert_eq!(meta.stale_clouds.len(), 1);
        assert_eq!(meta.quarantined_batches, 3);
        // Degradation survives serialization.
        let json = serde_json::to_string(&rec).unwrap();
        let back: Recommendation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        assert!(back.is_degraded());
    }
}
