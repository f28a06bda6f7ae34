//! # uptime-optimizer
//!
//! Searches the space of HA-enabled variants of a base cloud architecture
//! for the minimum-TCO deployment (the paper's Eq. 6, `OptCh = min TCO_i`).
//!
//! A [`SearchSpace`] holds, per serial component, the list of [`Candidate`]
//! HA constructs (cluster spec + monthly cost); a [`CompositionSpace`]
//! arranges such candidate sets in a series–parallel topology, and the
//! paper's serial chain is its pure-series case
//! ([`CompositionSpace::from_serial`]). Every exact engine runs on one
//! kernel — the [`composition`] fold, `O(1)` amortized work per variant
//! from cached per-cluster terms:
//!
//! * [`composition::search`] — streaming argmin over the whole space, no
//!   per-assignment allocation.
//! * [`exhaustive::search`] / [`exhaustive::composition_search`] — all
//!   `k^n` permutations materialized (paper §II.C, Fig. 10's table).
//! * [`composition_bnb::search`] — tight-bound branch-and-bound: cost plus
//!   an admissible penalty lower bound from best-case suffix survival,
//!   with a work-stealing parallel variant
//!   ([`composition_bnb::search_with_threads`]) pruning against a shared
//!   incumbent. Exact for `MinTco`, thread-count-independent results.
//! * [`pareto_bnb::composition_search`] — the cost/uptime Pareto frontier
//!   by epsilon-dominance branch-and-bound with hard SLO box constraints;
//!   [`pareto_bnb::composition_sweep`] is its exhaustive twin, and
//!   [`pareto::frontier`] the unconstrained sweep of a serial chain.
//! * [`archetypes`] generates the deployment-archetype survey's six shapes
//!   as ready-made composition spaces.
//!
//! Oracles and ablations stay beside the kernel: the naive
//! [`Evaluation::evaluate`] and [`pareto_bnb::naive_frontier`]; the paper's
//! §III.C [`pruned::search`] (evaluate by ascending number of clustered
//! components and skip supersets of any SLA-satisfying permutation — exact,
//! see the module docs for the cost argument, which is sharper than the
//! paper's uptime argument); the [`greedy::search`] / [`anneal::search`]
//! heuristics; and the [`sweep`] of SLA targets.
//!
//! # Example: the paper's case study
//!
//! ```
//! use uptime_catalog::{case_study, ComponentKind};
//! use uptime_optimizer::{exhaustive, Objective, SearchSpace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let catalog = case_study::catalog();
//! let space = SearchSpace::from_catalog(
//!     &catalog,
//!     &case_study::cloud_id(),
//!     &ComponentKind::paper_tiers(),
//! )?;
//! let outcome = exhaustive::search(&space, &case_study::tco_model(), Objective::MinTco);
//! let best = outcome.best().expect("non-empty space");
//! // Paper Fig. 10: option #3 (RAID-1 only) wins at $1250/month.
//! assert_eq!(best.tco().total().value(), 1250.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod archetypes;
pub mod composition;
pub mod composition_bnb;
pub mod evaluate;
pub mod exhaustive;
pub mod greedy;
pub mod objective;
pub mod outcome;
pub mod pareto;
pub mod pareto_bnb;
pub mod pruned;
pub mod space;
pub mod sweep;

pub use archetypes::Archetype;
pub use composition::{CompositionCursor, CompositionEvaluator, CompositionNode, CompositionSpace};
pub use composition_bnb::BnbStats;
pub use evaluate::Evaluation;
pub use objective::{Objective, RankKey};
pub use outcome::{SearchOutcome, SearchStats};
pub use pareto::ParetoPoint;
pub use pareto_bnb::{FrontierConstraints, FrontierOutcome, ParetoStats};
pub use space::{Candidate, ComponentChoices, SearchSpace, SpaceError};
pub use sweep::{SlaSweep, SweepPoint};
