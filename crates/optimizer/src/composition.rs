//! Series–parallel composition search spaces — the one search kernel.
//!
//! The paper optimizes a *serial* chain (Fig. 1): every cluster is a
//! single point of failure, so Eqs. 2–3 fold per-component terms with one
//! running product. Real deployments (the Deployment Archetypes survey's
//! zonal → global ladder) replicate whole stacks *in parallel*:
//! `uptime_core::composition::Block` already evaluates such diagrams
//! analytically, and this module searches over them. The paper's chain is
//! the pure-series case ([`CompositionSpace::from_serial`]); every exact
//! engine in the crate runs on this one kernel.
//!
//! * a [`CompositionSpace`] attaches a per-leaf candidate set
//!   ([`crate::space::ComponentChoices`]) to every cluster position of a
//!   series–parallel shape;
//! * a [`CompositionEvaluator`] caches every candidate's
//!   `(a, φ, x, C_HA, baseline)` scalars once and folds them bottom-up
//!   through the topology;
//! * a [`CompositionCursor`] walks assignments in odometer order with
//!   per-leaf fold-state snapshots, so advancing costs `O(1)` amortized.
//!
//! # The serial recurrences
//!
//! Eqs. 2–3 factor per cluster. Eq. 2: `B_s = 1 − Π_i a_i` where
//! `a_i = Σ_{j=K−K̂}^{K} C(K,j)(1−P)^j P^{K−j}` depends only on the
//! candidate chosen for component `i`. Eq. 3: `F_s = Σ_i φ_i Π_{j≠i} x_j`
//! where `φ_i = f·t·(K−K̂)/δ` and `x_j = (1−P)^{K−K̂}` are likewise
//! per-candidate constants. Over a prefix `p` the fold keeps
//!
//! ```text
//! V_p = Π_{i<p} a_i        (Eq. 2 running product)
//! X_p = Π_{i<p} x_i        (Eq. 3 survival prefix)
//! S_p = Σ_{i<p} φ_i Π_{j<p, j≠i} x_j   via S_{p+1} = S_p·x_p + φ_p·X_p
//! C_p = Σ_{i<p} C_HA,i     κ_p = #non-baseline choices among i<p
//! ```
//!
//! so each odometer step refreshes only the accumulators right of the
//! carry position, with no heap allocation in the loop. `B_s` and `C_HA`
//! come out bit-identical to the naive [`Evaluation::evaluate`]; `F_s`
//! differs only in floating-point association (≤1e-15).
//!
//! # The topology fold
//!
//! Leaves are linearized in depth-first order. A leaf whose ancestors are
//! all `Series` sits on the **spine**: its terms enter the serial
//! accumulators above via the one `Accum::push` recurrence, so failover
//! blips are charged exactly as Eq. 3 charges them. A leaf under a
//! `Parallel` ancestor is **masked**: a sibling branch absorbs its blips,
//! so only its breakdown availability `a` participates, folded through its
//! enclosing Series (product) and Parallel (co-product of
//! unavailabilities) frames. Each maximal parallel subtree collapses to
//! one availability factor `mask ← mask · A_subtree` when it closes. The
//! final artifacts are
//!
//! ```text
//! B = 1 − V·mask        F = S·mask        C = C_spine + C_masked
//! ```
//!
//! matching [`uptime_core::composition::Block::failover_aware_availability`]
//! (spine uptime × parallel breakdown factors). On a pure-series topology
//! `mask = 1.0` and the extra cost term is `0.0`, so every artifact is the
//! serial fold's, bit for bit.
//!
//! # The spine step
//!
//! A spine leaf with no structural op before the next leaf (every leaf of a
//! pure-series space, and the spine runs of the archetypes) changes only
//! the serial accumulators. The cursor takes that step as one
//! `Accum::push`, copying the mask and masked cost and opening no frame;
//! the bounded descents bound a spine child from a register-held
//! accumulator and write its fold state only when they descend into it.
//! Pure-series search so runs at serial speed with no second engine —
//! decided per leaf from the space's own shape.

use std::fmt;

use uptime_core::composition::Block;
use uptime_core::{MoneyPerMonth, Probability, TcoBreakdown, TcoModel, UptimeBreakdown};

use crate::evaluate::Evaluation;
use crate::objective::{Objective, RankKey};
use crate::outcome::{SearchOutcome, SearchStats};
use crate::space::{ComponentChoices, SearchSpace, SpaceError};

/// A node of a composition search topology: the search-space analogue of
/// [`uptime_core::composition::Block`], with a candidate *set* at every
/// cluster position instead of a fixed cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum CompositionNode {
    /// A leaf: one component with its HA candidates.
    Component(ComponentChoices),
    /// All children must be up (serial chain).
    Series(Vec<CompositionNode>),
    /// At least one child must be up (site-level redundancy).
    Parallel(Vec<CompositionNode>),
}

impl CompositionNode {
    /// Convenience: a series node over per-component choice sets.
    #[must_use]
    pub fn series(components: Vec<ComponentChoices>) -> Self {
        CompositionNode::Series(
            components
                .into_iter()
                .map(CompositionNode::Component)
                .collect(),
        )
    }
}

/// The structural (non-leaf) fold operations, in linearized order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StructOp {
    /// Open a series frame (only emitted under a parallel ancestor — the
    /// spine needs no frame).
    EnterSeries,
    /// Close a series frame and absorb its availability into the parent.
    ExitSeries,
    /// Open a parallel frame.
    EnterParallel,
    /// Close a parallel frame; at spine level this multiplies the mask.
    ExitParallel,
}

/// The private shape tree over leaf ordinals (depth-first order).
#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Leaf(usize),
    Series(Vec<Shape>),
    Parallel(Vec<Shape>),
}

/// A series–parallel search space: per-leaf candidate sets over a
/// [`Block`]-style topology.
///
/// An *assignment* is one candidate index per leaf, in depth-first leaf
/// order; the space holds `Π k_i` assignments.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{composition, CompositionNode, CompositionSpace, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let serial = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// // Two replica stacks of the paper's chain, in parallel.
/// let stack = || CompositionNode::series(serial.components().to_vec());
/// let space = CompositionSpace::new(CompositionNode::Parallel(vec![stack(), stack()]))?;
/// assert_eq!(space.leaf_count(), 6);
/// assert_eq!(space.assignment_count(), 64);
/// let outcome = composition::search(&space, &case_study::tco_model(), Default::default());
/// assert!(outcome.best().is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompositionSpace {
    leaves: Vec<ComponentChoices>,
    shape: Shape,
    /// `segs[p]` = structural ops between leaf `p−1` and leaf `p`
    /// (`segs[0]`: before the first leaf); `segs[n]` = trailing ops.
    segs: Vec<Vec<StructOp>>,
    /// Whether each leaf sits on the unguarded serial spine.
    spine_leaf: Vec<bool>,
    /// Whether each leaf is a spine step: on the spine, with no
    /// structural op before the next leaf.
    spine_step: Vec<bool>,
    /// Leaf ranges `[lo, hi)` of the *maximal* parallel subtrees (parallel
    /// nodes whose ancestors are all series), in order.
    par_ranges: Vec<(usize, usize)>,
}

impl CompositionSpace {
    /// Builds a space from a composition topology.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::EmptySpace`] if the topology contains an
    /// empty `Series`/`Parallel` node or no leaves at all.
    pub fn new(root: CompositionNode) -> Result<Self, SpaceError> {
        let mut leaves = Vec::new();
        let shape = flatten(root, &mut leaves)?;
        if leaves.is_empty() {
            return Err(SpaceError::EmptySpace);
        }
        let mut lin = Linearizer::new(leaves.len());
        lin.emit(&shape, false);
        lin.close();
        let spine_step = lin
            .spine_leaf
            .iter()
            .zip(&lin.segs[1..])
            .map(|(&spine, after)| spine && after.is_empty())
            .collect();
        Ok(CompositionSpace {
            leaves,
            shape,
            segs: lin.segs,
            spine_leaf: lin.spine_leaf,
            spine_step,
            par_ranges: lin.par_ranges,
        })
    }

    /// The pure-series space equivalent to a serial [`SearchSpace`] — the
    /// paper's chain, searched by the same kernel as every archetype.
    ///
    /// # Panics
    ///
    /// Never: a valid `SearchSpace` is non-empty by construction.
    #[must_use]
    pub fn from_serial(space: &SearchSpace) -> Self {
        CompositionSpace::new(CompositionNode::series(space.components().to_vec()))
            .expect("serial spaces are non-empty by construction")
    }

    /// Per-leaf choice sets, in depth-first leaf order.
    #[must_use]
    pub fn leaves(&self) -> &[ComponentChoices] {
        &self.leaves
    }

    /// Number of leaves `n`.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Total number of assignments `Π k_i`, saturating at `u128::MAX`.
    #[must_use]
    pub fn assignment_count(&self) -> u128 {
        crate::space::saturating_count(&self.leaves)
    }

    /// Whether the topology is a pure serial chain (no parallel node).
    #[must_use]
    pub fn is_pure_series(&self) -> bool {
        self.par_ranges.is_empty() && self.segs.iter().all(Vec::is_empty)
    }

    /// The HA cardinality of an assignment: leaves using a non-baseline
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one in-range index per leaf.
    #[must_use]
    pub fn cardinality(&self, assignment: &[usize]) -> usize {
        assignment
            .iter()
            .zip(&self.leaves)
            .filter(|(&idx, leaf)| !leaf.candidates()[idx].is_baseline())
            .count()
    }

    /// Iterates over every assignment in lexicographic (odometer) order.
    #[must_use]
    pub fn assignments(&self) -> CompositionAssignments<'_> {
        CompositionAssignments {
            space: self,
            next: Some(vec![0; self.leaves.len()]),
        }
    }

    /// Materializes the [`Block`] diagram an assignment selects — the
    /// naive reference the differential harness sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one in-range index per leaf.
    #[must_use]
    pub fn to_block(&self, assignment: &[usize]) -> Block {
        assert_eq!(
            assignment.len(),
            self.leaves.len(),
            "assignment arity must match leaf count"
        );
        self.shape_to_block(&self.shape, assignment)
    }

    fn shape_to_block(&self, shape: &Shape, assignment: &[usize]) -> Block {
        match shape {
            Shape::Leaf(i) => Block::Cluster(
                self.leaves[*i].candidates()[assignment[*i]]
                    .cluster()
                    .clone(),
            ),
            Shape::Series(children) => Block::Series(
                children
                    .iter()
                    .map(|c| self.shape_to_block(c, assignment))
                    .collect(),
            ),
            Shape::Parallel(children) => Block::Parallel(
                children
                    .iter()
                    .map(|c| self.shape_to_block(c, assignment))
                    .collect(),
            ),
        }
    }

    /// Monthly cost of an assignment (sum over leaves) — context-free, so
    /// the naive sweep can price diagrams without an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one in-range index per leaf.
    #[must_use]
    pub fn monthly_cost(&self, assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .zip(&self.leaves)
            .map(|(&idx, leaf)| leaf.candidates()[idx].monthly_cost().value())
            .sum()
    }

    /// Whether leaf `p` sits on the serial spine.
    pub(crate) fn spine_leaf(&self) -> &[bool] {
        &self.spine_leaf
    }

    /// Whether leaf `p` is a spine step (see the module docs).
    pub(crate) fn spine_step(&self) -> &[bool] {
        &self.spine_step
    }

    /// Maximal parallel subtree availability, per subtree `(lo, value)`,
    /// when every leaf takes the availability `leaf_avail[leaf]` — the
    /// monotone upper-completion the BnB bound folds through the remaining
    /// subtree.
    pub(crate) fn parallel_factors(&self, leaf_avail: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.par_ranges.len());
        collect_parallel_factors(&self.shape, leaf_avail, false, &mut out);
        debug_assert_eq!(out.len(), self.par_ranges.len());
        out
    }
}

impl fmt::Display for CompositionSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn render(
            shape: &Shape,
            leaves: &[ComponentChoices],
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            match shape {
                Shape::Leaf(i) => write!(f, "{}", leaves[*i].name()),
                Shape::Series(children) => {
                    write!(f, "series(")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, " -> ")?;
                        }
                        render(c, leaves, f)?;
                    }
                    write!(f, ")")
                }
                Shape::Parallel(children) => {
                    write!(f, "parallel(")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, " | ")?;
                        }
                        render(c, leaves, f)?;
                    }
                    write!(f, ")")
                }
            }
        }
        render(&self.shape, &self.leaves, f)
    }
}

/// Flattens a topology into a shape over leaf ordinals.
fn flatten(node: CompositionNode, leaves: &mut Vec<ComponentChoices>) -> Result<Shape, SpaceError> {
    match node {
        CompositionNode::Component(choices) => {
            let i = leaves.len();
            leaves.push(choices);
            Ok(Shape::Leaf(i))
        }
        CompositionNode::Series(children) => {
            if children.is_empty() {
                return Err(SpaceError::EmptySpace);
            }
            Ok(Shape::Series(
                children
                    .into_iter()
                    .map(|c| flatten(c, leaves))
                    .collect::<Result<_, _>>()?,
            ))
        }
        CompositionNode::Parallel(children) => {
            if children.is_empty() {
                return Err(SpaceError::EmptySpace);
            }
            Ok(Shape::Parallel(
                children
                    .into_iter()
                    .map(|c| flatten(c, leaves))
                    .collect::<Result<_, _>>()?,
            ))
        }
    }
}

/// Availability of a shape when every leaf takes `leaf_avail[leaf]`.
fn shape_availability(shape: &Shape, leaf_avail: &[f64]) -> f64 {
    match shape {
        Shape::Leaf(i) => leaf_avail[*i],
        Shape::Series(children) => children
            .iter()
            .map(|c| shape_availability(c, leaf_avail))
            .product(),
        Shape::Parallel(children) => {
            1.0 - children
                .iter()
                .map(|c| 1.0 - shape_availability(c, leaf_avail))
                .product::<f64>()
        }
    }
}

/// Records `(lo, availability)` for each maximal parallel subtree.
fn collect_parallel_factors(
    shape: &Shape,
    leaf_avail: &[f64],
    under_parallel: bool,
    out: &mut Vec<(usize, f64)>,
) {
    match shape {
        Shape::Leaf(_) => {}
        Shape::Series(children) => {
            for c in children {
                collect_parallel_factors(c, leaf_avail, under_parallel, out);
            }
        }
        Shape::Parallel(children) => {
            if under_parallel {
                for c in children {
                    collect_parallel_factors(c, leaf_avail, true, out);
                }
            } else {
                out.push((first_leaf(shape), shape_availability(shape, leaf_avail)));
            }
        }
    }
}

fn first_leaf(shape: &Shape) -> usize {
    match shape {
        Shape::Leaf(i) => *i,
        Shape::Series(children) | Shape::Parallel(children) => first_leaf(&children[0]),
    }
}

/// Builds the linearized fold schedule: structural op segments between
/// leaves, spine flags, and maximal-parallel leaf ranges.
struct Linearizer {
    segs: Vec<Vec<StructOp>>,
    current: Vec<StructOp>,
    spine_leaf: Vec<bool>,
    par_ranges: Vec<(usize, usize)>,
    emitted: usize,
}

impl Linearizer {
    fn new(n: usize) -> Self {
        Linearizer {
            segs: Vec::with_capacity(n + 1),
            current: Vec::new(),
            spine_leaf: Vec::with_capacity(n),
            par_ranges: Vec::new(),
            emitted: 0,
        }
    }

    fn emit(&mut self, shape: &Shape, under_parallel: bool) {
        match shape {
            Shape::Leaf(_) => {
                self.segs.push(std::mem::take(&mut self.current));
                self.spine_leaf.push(!under_parallel);
                self.emitted += 1;
            }
            Shape::Series(children) => {
                if under_parallel {
                    self.current.push(StructOp::EnterSeries);
                    for c in children {
                        self.emit(c, true);
                    }
                    self.current.push(StructOp::ExitSeries);
                } else {
                    for c in children {
                        self.emit(c, false);
                    }
                }
            }
            Shape::Parallel(children) => {
                let lo = self.emitted;
                self.current.push(StructOp::EnterParallel);
                for c in children {
                    self.emit(c, true);
                }
                self.current.push(StructOp::ExitParallel);
                if !under_parallel {
                    self.par_ranges.push((lo, self.emitted));
                }
            }
        }
    }

    fn close(&mut self) {
        self.segs.push(std::mem::take(&mut self.current));
    }
}

/// The cached per-candidate factors of Eqs. 2–3 and Eq. 5.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateTerms {
    /// `a_i`: binomial survival `Σ_j C(K,j)(1−P)^j P^{K−j}` (Eq. 2 factor).
    pub(crate) availability: f64,
    /// `φ_i = f·t·(K−K̂)/δ`: failover year fraction (Eq. 3 numerator).
    pub(crate) failover_fraction: f64,
    /// `x_i = (1−P)^{K−K̂}`: all-active-up survival (Eq. 3 factor).
    pub(crate) active_up: f64,
    /// Monthly `C_HA` contribution (Eq. 5 term).
    pub(crate) cost: f64,
    /// Whether this is the component's "no HA" baseline.
    pub(crate) baseline: bool,
}

/// Serial accumulators after consuming a prefix of spine leaves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Accum {
    /// `V_p = Π a_i` over the prefix.
    pub(crate) avail: f64,
    /// `X_p = Π x_i` over the prefix.
    pub(crate) active: f64,
    /// `S_p = Σ φ_i Π_{j≠i} x_j` over the prefix.
    pub(crate) failover: f64,
    /// `C_p = Σ C_HA,i` over the prefix.
    pub(crate) cost: f64,
    /// `κ_p`: non-baseline choices in the prefix.
    pub(crate) cardinality: usize,
}

impl Accum {
    pub(crate) const IDENTITY: Accum = Accum {
        avail: 1.0,
        active: 1.0,
        failover: 0.0,
        cost: 0.0,
        cardinality: 0,
    };

    /// Extends the prefix by one chosen candidate. This is the *only*
    /// place the recurrences live, so the cursor and the bounded walks
    /// combine terms in bit-identical order.
    #[inline]
    pub(crate) fn push(self, t: &CandidateTerms) -> Accum {
        Accum {
            avail: self.avail * t.availability,
            active: self.active * t.active_up,
            // Old-prefix `active` on purpose: φ_p multiplies the survival
            // of the *other* clusters seen so far.
            failover: self.failover * t.active_up + t.failover_fraction * self.active,
            cost: self.cost + t.cost,
            cardinality: self.cardinality + usize::from(!t.baseline),
        }
    }
}

/// Turns final accumulators into the same artifacts the naive path builds.
pub(crate) fn finish(model: &TcoModel, acc: &Accum) -> (UptimeBreakdown, TcoBreakdown, RankKey) {
    let breakdown = Probability::saturating(1.0 - acc.avail);
    let failover = Probability::saturating(acc.failover);
    let uptime = UptimeBreakdown::from_components(breakdown, failover);
    let ha_cost =
        MoneyPerMonth::new(acc.cost).expect("candidate costs are finite and non-negative");
    let tco = model.evaluate(ha_cost, uptime.availability());
    let key = RankKey {
        total: tco.total(),
        expects_penalty: tco.expects_penalty(),
        cardinality: acc.cardinality,
        availability: uptime.availability(),
    };
    (uptime, tco, key)
}

/// One open composite frame during a fold.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// Product of child availabilities seen so far.
    Series { avail: f64 },
    /// Product of child *unavailabilities* seen so far.
    Parallel { miss: f64 },
}

/// The part of a fold state a spine step leaves unchanged — what a walk
/// keeps in registers while it steps a spine leaf's candidates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Masked {
    /// Product of completed maximal parallel subtrees' availabilities.
    pub(crate) mask: f64,
    /// Cost contributed by masked (non-spine) leaves.
    pub(crate) extra_cost: f64,
    /// Non-baseline choices among masked leaves.
    pub(crate) extra_card: usize,
}

impl Masked {
    /// Combines spine accumulators with the masked part into the serial
    /// accumulator shape [`finish`] consumes: `B = 1 − V·mask`,
    /// `F = S·mask`. With `mask = 1.0` and no masked leaves every field is
    /// bit-identical to the serial fold.
    #[inline]
    pub(crate) fn combine(self, spine: &Accum) -> Accum {
        Accum {
            avail: spine.avail * self.mask,
            active: spine.active,
            failover: spine.failover * self.mask,
            cost: spine.cost + self.extra_cost,
            cardinality: spine.cardinality + self.extra_card,
        }
    }
}

/// Fold state after consuming a prefix of the linearized topology: the
/// serial accumulators of the spine, the mask of completed parallel
/// subtrees, the masked leaves' cost/cardinality, and the open frames.
#[derive(Debug, Clone)]
pub(crate) struct FoldState {
    /// Eq. 2/3/5 accumulators over spine leaves (the serial fast path).
    pub(crate) spine: Accum,
    /// Product of completed maximal parallel subtrees' availabilities.
    pub(crate) mask: f64,
    /// Cost contributed by masked (non-spine) leaves.
    pub(crate) extra_cost: f64,
    /// Non-baseline choices among masked leaves.
    pub(crate) extra_card: usize,
    stack: Vec<Frame>,
}

impl FoldState {
    pub(crate) fn identity() -> Self {
        FoldState {
            spine: Accum::IDENTITY,
            mask: 1.0,
            extra_cost: 0.0,
            extra_card: 0,
            stack: Vec::new(),
        }
    }

    /// Overwrites `self` with `other` without reallocating the frame stack
    /// once its capacity has grown.
    pub(crate) fn copy_from(&mut self, other: &FoldState) {
        self.spine = other.spine;
        self.mask = other.mask;
        self.extra_cost = other.extra_cost;
        self.extra_card = other.extra_card;
        self.stack.clear();
        self.stack.extend_from_slice(&other.stack);
    }

    /// Consumes the next leaf's chosen candidate terms.
    #[inline]
    pub(crate) fn apply_leaf(&mut self, t: &CandidateTerms) {
        match self.stack.last_mut() {
            // Spine leaf: the exact serial recurrence.
            None => self.spine = self.spine.push(t),
            // Masked leaf: breakdown availability only; blips are absorbed
            // by a parallel sibling.
            Some(frame) => {
                match frame {
                    Frame::Series { avail } => *avail *= t.availability,
                    Frame::Parallel { miss } => *miss *= 1.0 - t.availability,
                }
                self.extra_cost += t.cost;
                self.extra_card += usize::from(!t.baseline);
            }
        }
    }

    /// Consumes one structural op.
    #[inline]
    fn apply_struct(&mut self, op: StructOp) {
        match op {
            StructOp::EnterSeries => self.stack.push(Frame::Series { avail: 1.0 }),
            StructOp::EnterParallel => self.stack.push(Frame::Parallel { miss: 1.0 }),
            StructOp::ExitSeries | StructOp::ExitParallel => {
                let a = match self.stack.pop().expect("balanced fold schedule") {
                    Frame::Series { avail } => avail,
                    Frame::Parallel { miss } => 1.0 - miss,
                };
                self.absorb(a);
            }
        }
    }

    /// Folds a completed subtree's availability into the enclosing context.
    fn absorb(&mut self, a: f64) {
        match self.stack.last_mut() {
            None => self.mask *= a,
            Some(Frame::Series { avail }) => *avail *= a,
            Some(Frame::Parallel { miss }) => *miss *= 1.0 - a,
        }
    }

    /// Collapses the state into the serial accumulator shape [`finish`]
    /// consumes (see [`Masked::combine`]).
    #[inline]
    pub(crate) fn combined(&self) -> Accum {
        self.masked().combine(&self.spine)
    }

    /// Everything but the spine accumulators and the open frames.
    #[inline]
    pub(crate) fn masked(&self) -> Masked {
        Masked {
            mask: self.mask,
            extra_cost: self.extra_cost,
            extra_card: self.extra_card,
        }
    }

    /// Writes `prev` advanced by a spine step whose serial accumulators
    /// are `spine`: nothing but the spine moves, and no frame is open.
    #[inline]
    pub(crate) fn set_spine_step(&mut self, prev: &FoldState, spine: Accum) {
        debug_assert!(prev.stack.is_empty(), "spine leaves have no open frame");
        self.spine = spine;
        self.mask = prev.mask;
        self.extra_cost = prev.extra_cost;
        self.extra_card = prev.extra_card;
        self.stack.clear();
    }
}

/// A composition space with every candidate's Eq. 2/3/5 factors
/// precomputed.
///
/// Construction is `O(Σ k_i · K)` (one binomial sum per candidate); every
/// evaluation afterwards combines cached scalars.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{CompositionEvaluator, CompositionSpace, Evaluation, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let serial = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let space = CompositionSpace::from_serial(&serial);
/// let model = case_study::tco_model();
/// let folded = CompositionEvaluator::new(&space, &model).evaluate(&[0, 1, 0]);
/// let naive = Evaluation::evaluate(&serial, &model, &[0, 1, 0]);
/// assert_eq!(folded.tco().total(), naive.tco().total());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompositionEvaluator<'a> {
    space: &'a CompositionSpace,
    model: &'a TcoModel,
    terms: Vec<Vec<CandidateTerms>>,
}

impl<'a> CompositionEvaluator<'a> {
    /// Precomputes every candidate's per-leaf terms.
    #[must_use]
    pub fn new(space: &'a CompositionSpace, model: &'a TcoModel) -> Self {
        let terms = space
            .leaves
            .iter()
            .map(|comp| {
                comp.candidates()
                    .iter()
                    .map(|cand| {
                        let cluster = cand.cluster();
                        CandidateTerms {
                            availability: cluster.availability().value(),
                            failover_fraction: cluster.failover_year_fraction(),
                            active_up: cluster.all_active_up_probability().value(),
                            cost: cand.monthly_cost().value(),
                            baseline: cand.is_baseline(),
                        }
                    })
                    .collect()
            })
            .collect();
        CompositionEvaluator {
            space,
            model,
            terms,
        }
    }

    /// The space this evaluator was built for.
    #[must_use]
    pub fn space(&self) -> &'a CompositionSpace {
        self.space
    }

    /// The TCO model evaluations run under.
    #[must_use]
    pub fn model(&self) -> &'a TcoModel {
        self.model
    }

    /// The cached per-leaf candidate terms (crate-internal: the raw
    /// material `crate::composition_bnb` bounds and descends over).
    pub(crate) fn terms(&self) -> &[Vec<CandidateTerms>] {
        &self.terms
    }

    /// The fold state before any leaf: identity plus any structural ops
    /// preceding leaf 0.
    pub(crate) fn base_state(&self) -> FoldState {
        let mut state = FoldState::identity();
        for op in &self.space.segs[0] {
            state.apply_struct(*op);
        }
        state
    }

    /// Computes `states[i + 1]` from `states[i]`: apply leaf `i`'s chosen
    /// candidate, then the structural ops up to the next leaf (or the
    /// trailing ops when `i` is the last leaf).
    ///
    /// # Panics
    ///
    /// Panics if `states` is shorter than `i + 2`.
    #[inline]
    pub(crate) fn step_into(&self, states: &mut [FoldState], i: usize, digit: usize) {
        let (head, tail) = states.split_at_mut(i + 1);
        let (prev, next) = (&head[i], &mut tail[0]);
        let t = &self.terms[i][digit];
        if self.space.spine_step[i] {
            next.set_spine_step(prev, prev.spine.push(t));
            return;
        }
        next.copy_from(prev);
        next.apply_leaf(t);
        for op in &self.space.segs[i + 1] {
            next.apply_struct(*op);
        }
    }

    /// The fold state of a complete assignment, from scratch.
    pub(crate) fn fold(&self, assignment: &[usize]) -> FoldState {
        assert_eq!(
            assignment.len(),
            self.terms.len(),
            "assignment arity must match leaf count"
        );
        let mut state = self.base_state();
        for (i, &idx) in assignment.iter().enumerate() {
            state.apply_leaf(&self.terms[i][idx]);
            for op in &self.space.segs[i + 1] {
                state.apply_struct(*op);
            }
        }
        state
    }

    /// Evaluates one assignment from cached terms — the topology fold of
    /// `B`, `F` and cost, then Eq. 5 — semantically identical to the naive
    /// [`Evaluation::evaluate`] (pure series) or a `Block` sweep, with no
    /// cluster clones.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one in-range index per leaf.
    #[must_use]
    pub fn evaluate(&self, assignment: &[usize]) -> Evaluation {
        let acc = self.fold(assignment).combined();
        let (uptime, tco, _) = finish(self.model, &acc);
        Evaluation::from_parts(assignment.to_vec(), acc.cardinality, uptime, tco)
    }

    /// The ranking facts for one assignment, without materializing an
    /// [`Evaluation`].
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one in-range index per leaf.
    #[must_use]
    pub fn rank_key(&self, assignment: &[usize]) -> RankKey {
        finish(self.model, &self.fold(assignment).combined()).2
    }

    /// A cursor positioned at the all-zeros assignment.
    #[must_use]
    pub fn cursor(&self) -> CompositionCursor<'_, 'a> {
        let n = self.terms.len();
        let mut cursor = CompositionCursor {
            eval: self,
            digits: vec![0; n],
            states: vec![self.base_state(); n + 1],
            done: false,
        };
        cursor.refresh_from(0);
        cursor
    }
}

/// An odometer over a composition space's assignments with
/// incrementally-maintained fold-state snapshots per leaf position —
/// advancing replays only the suffix right of the carry. Advancing and
/// measuring allocate nothing.
#[derive(Debug)]
pub struct CompositionCursor<'e, 'a> {
    eval: &'e CompositionEvaluator<'a>,
    digits: Vec<usize>,
    /// `states[p]` is the fold state just before leaf `p` (structural ops
    /// up to it applied); `states[n]` is the final state after the
    /// trailing ops.
    states: Vec<FoldState>,
    done: bool,
}

impl CompositionCursor<'_, '_> {
    /// The current assignment, one candidate index per leaf.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.digits
    }

    /// Recomputes `states[p+1..]` after digits `p..` changed.
    fn refresh_from(&mut self, p: usize) {
        for i in p..self.digits.len() {
            self.eval.step_into(&mut self.states, i, self.digits[i]);
        }
    }

    /// Steps to the lexicographic successor. Returns `false` once the last
    /// assignment has been consumed; the cursor then stays exhausted.
    pub fn advance(&mut self) -> bool {
        if self.done {
            return false;
        }
        let mut pos = self.digits.len();
        loop {
            if pos == 0 {
                self.done = true;
                return false;
            }
            pos -= 1;
            self.digits[pos] += 1;
            if self.digits[pos] < self.eval.terms[pos].len() {
                break;
            }
            self.digits[pos] = 0;
        }
        self.refresh_from(pos);
        true
    }

    /// The combined accumulator of the current assignment — the compact
    /// facts the frontier sweeps rank on without materializing an
    /// [`Evaluation`].
    pub(crate) fn accum(&self) -> Accum {
        self.states[self.digits.len()].combined()
    }

    /// The ranking facts for the current assignment. Allocation-free.
    #[must_use]
    pub fn rank_key(&self) -> RankKey {
        let acc = self.states[self.digits.len()].combined();
        finish(self.eval.model, &acc).2
    }

    /// Materializes the current assignment as a full [`Evaluation`]
    /// (allocates the assignment vector; used by the paths that must
    /// report every option).
    #[must_use]
    pub fn evaluation(&self) -> Evaluation {
        let acc = self.states[self.digits.len()].combined();
        let (uptime, tco, _) = finish(self.eval.model, &acc);
        Evaluation::from_parts(self.digits.clone(), acc.cardinality, uptime, tco)
    }
}

/// Iterator over all assignments of a [`CompositionSpace`], lexicographic.
#[derive(Debug)]
pub struct CompositionAssignments<'a> {
    space: &'a CompositionSpace,
    next: Option<Vec<usize>>,
}

impl Iterator for CompositionAssignments<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        let mut pos = succ.len();
        loop {
            if pos == 0 {
                self.next = None;
                break;
            }
            pos -= 1;
            succ[pos] += 1;
            if succ[pos] < self.space.leaves()[pos].len() {
                self.next = Some(succ);
                break;
            }
            succ[pos] = 0;
        }
        Some(current)
    }
}

/// Streams every assignment through one incremental cursor, keeping only
/// the running optimum — the `O(1)`-amortized-per-variant exact search.
///
/// The returned outcome's `evaluations()` holds just the winner (streaming
/// cannot afford to materialize `k^n` reports); `stats().evaluated` still
/// counts the full space. Visit order is lexicographic, so ties resolve
/// exactly as [`crate::exhaustive::search`] resolves them.
///
/// # Examples
///
/// ```
/// use uptime_catalog::{case_study, ComponentKind};
/// use uptime_optimizer::{composition, CompositionSpace, Objective, SearchSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let serial = SearchSpace::from_catalog(
///     &case_study::catalog(),
///     &case_study::cloud_id(),
///     &ComponentKind::paper_tiers(),
/// )?;
/// let space = CompositionSpace::from_serial(&serial);
/// let outcome = composition::search(&space, &case_study::tco_model(), Objective::MinTco);
/// assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);
/// assert_eq!(outcome.stats().evaluated, 8);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn search(space: &CompositionSpace, model: &TcoModel, objective: Objective) -> SearchOutcome {
    let eval = CompositionEvaluator::new(space, model);
    let mut cursor = eval.cursor();
    let mut best_key: Option<RankKey> = None;
    let mut best_digits: Vec<usize> = Vec::with_capacity(space.leaf_count());
    let mut evaluated: u64 = 0;
    loop {
        evaluated = evaluated.saturating_add(1);
        let key = cursor.rank_key();
        let improved = match &best_key {
            None => true,
            Some(b) => objective.better_key(&key, b),
        };
        if improved {
            best_key = Some(key);
            best_digits.clear();
            best_digits.extend_from_slice(cursor.assignment());
        }
        if !cursor.advance() {
            break;
        }
    }
    let best = eval.evaluate(&best_digits);
    SearchOutcome::from_evaluations(
        objective,
        vec![best],
        SearchStats {
            evaluated,
            skipped: 0,
        },
    )
}

/// [`search`] with observability: the identical streaming fold wrapped in
/// an `optimizer.composition.search` span, flushing
/// `optimizer.composition.variants` once at the end. `parent` hangs a
/// matching trace span (variant count attached) under the caller's
/// request trace; pass [`uptime_obs::TraceSpan::disabled`] outside one.
#[must_use]
pub fn search_recorded(
    space: &CompositionSpace,
    model: &TcoModel,
    objective: Objective,
    rec: &dyn uptime_obs::Recorder,
    parent: &uptime_obs::TraceSpan,
) -> SearchOutcome {
    let _span = uptime_obs::span!(rec, "optimizer.composition.search");
    let mut trace_span = parent.child("optimizer.composition.search");
    let outcome = search(space, model, objective);
    rec.counter_add("optimizer.composition.variants", outcome.stats().evaluated);
    trace_span.attr_u64("variants", outcome.stats().evaluated);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Candidate;
    use uptime_catalog::{case_study, extended, ComponentKind};
    use uptime_core::{ClusterSpec, MoneyPerMonth, Probability};

    fn paper_space() -> SearchSpace {
        SearchSpace::from_catalog(
            &case_study::catalog(),
            &case_study::cloud_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap()
    }

    fn component(name: &str, downs: &[f64], costs: &[f64]) -> ComponentChoices {
        let candidates = downs
            .iter()
            .zip(costs)
            .enumerate()
            .map(|(i, (&down, &cost))| {
                Candidate::new(
                    format!("{name}-{i}"),
                    ClusterSpec::singleton(
                        format!("{name}-{i}"),
                        Probability::new(down).unwrap(),
                        1.0,
                    )
                    .unwrap(),
                    MoneyPerMonth::new(cost).unwrap(),
                    i == 0,
                )
            })
            .collect();
        ComponentChoices::new(name, candidates).unwrap()
    }

    fn dual_site_space() -> CompositionSpace {
        let site = |tag: &str| {
            CompositionNode::Series(vec![
                CompositionNode::Component(component(
                    &format!("{tag}-web"),
                    &[0.02, 0.002],
                    &[0.0, 80.0],
                )),
                CompositionNode::Component(component(
                    &format!("{tag}-db"),
                    &[0.05, 0.004],
                    &[0.0, 120.0],
                )),
            ])
        };
        CompositionSpace::new(CompositionNode::Series(vec![
            CompositionNode::Component(component("gw", &[0.01, 0.001], &[0.0, 60.0])),
            CompositionNode::Parallel(vec![site("a"), site("b")]),
        ]))
        .unwrap()
    }

    #[test]
    fn empty_composites_rejected() {
        assert!(matches!(
            CompositionSpace::new(CompositionNode::Series(vec![])),
            Err(SpaceError::EmptySpace)
        ));
        assert!(matches!(
            CompositionSpace::new(CompositionNode::Parallel(vec![CompositionNode::Series(
                vec![]
            )])),
            Err(SpaceError::EmptySpace)
        ));
    }

    #[test]
    fn serial_space_is_pure_series() {
        let space = CompositionSpace::from_serial(&paper_space());
        assert!(space.is_pure_series());
        assert_eq!(space.leaf_count(), 3);
        assert_eq!(space.assignment_count(), 8);
        assert_eq!(space.spine_leaf(), &[true, true, true]);
        assert_eq!(space.spine_step(), &[true, true, true]);
    }

    #[test]
    fn dual_site_shape_facts() {
        let space = dual_site_space();
        assert!(!space.is_pure_series());
        assert_eq!(space.leaf_count(), 5);
        assert_eq!(space.assignment_count(), 32);
        assert_eq!(space.spine_leaf(), &[true, false, false, false, false]);
        assert_eq!(space.spine_step(), &[false; 5]);
        assert_eq!(space.par_ranges, vec![(1, 5)]);
        assert_eq!(space.to_string().matches("parallel").count(), 1);
    }

    #[test]
    fn serial_fold_matches_naive_on_every_paper_assignment() {
        let serial = paper_space();
        let space = CompositionSpace::from_serial(&serial);
        let model = case_study::tco_model();
        let eval = CompositionEvaluator::new(&space, &model);
        for assignment in serial.assignments() {
            let naive = Evaluation::evaluate(&serial, &model, &assignment);
            let folded = eval.evaluate(&assignment);
            assert_eq!(folded.assignment(), naive.assignment());
            assert_eq!(folded.cardinality(), naive.cardinality());
            assert_eq!(folded.tco().total(), naive.tco().total(), "{assignment:?}");
            assert!(
                (folded.uptime().availability().value() - naive.uptime().availability().value())
                    .abs()
                    < 1e-14,
                "{assignment:?}"
            );
        }
    }

    #[test]
    fn serial_cursor_walks_lexicographically() {
        let serial = paper_space();
        let space = CompositionSpace::from_serial(&serial);
        let model = case_study::tco_model();
        let eval = CompositionEvaluator::new(&space, &model);
        let mut cursor = eval.cursor();
        let mut visited = vec![cursor.assignment().to_vec()];
        while cursor.advance() {
            visited.push(cursor.assignment().to_vec());
        }
        let expected: Vec<_> = serial.assignments().collect();
        assert_eq!(visited, expected);
        // Exhausted cursors stay exhausted.
        assert!(!cursor.advance());
    }

    #[test]
    fn serial_cursor_matches_from_scratch_evaluate() {
        let serial = SearchSpace::from_catalog(
            &extended::hybrid_catalog(),
            &extended::nimbus_id(),
            &ComponentKind::paper_tiers(),
        )
        .unwrap();
        let space = CompositionSpace::from_serial(&serial);
        let model = case_study::tco_model();
        let eval = CompositionEvaluator::new(&space, &model);
        let mut cursor = eval.cursor();
        let mut index = 0u128;
        loop {
            // Bit-identical accumulators regardless of how the state was
            // reached (incremental vs from-scratch).
            assert_eq!(cursor.evaluation(), eval.evaluate(cursor.assignment()));
            index += 1;
            if !cursor.advance() {
                break;
            }
        }
        assert_eq!(index, space.assignment_count());
    }

    #[test]
    fn spine_steps_around_a_parallel_block_match_the_fold() {
        // Spine steps before and after a parallel block: `a` steps into
        // `gw` (a spine step), `gw` opens the block (not one), and `tail`
        // closes the topology (a spine step again).
        let space = CompositionSpace::new(CompositionNode::Series(vec![
            CompositionNode::Component(component("a", &[0.03, 0.003], &[0.0, 40.0])),
            CompositionNode::Component(component("gw", &[0.01, 0.001], &[0.0, 60.0])),
            CompositionNode::Parallel(vec![
                CompositionNode::Component(component("x", &[0.02, 0.002], &[0.0, 80.0])),
                CompositionNode::Component(component("y", &[0.05, 0.004], &[0.0, 120.0])),
            ]),
            CompositionNode::Component(component("tail", &[0.04, 0.001], &[0.0, 90.0])),
        ]))
        .unwrap();
        assert_eq!(space.spine_step(), &[true, false, false, false, true]);
        let model = case_study::tco_model();
        let eval = CompositionEvaluator::new(&space, &model);
        let mut cursor = eval.cursor();
        loop {
            let assignment = cursor.assignment().to_vec();
            assert_eq!(cursor.evaluation(), eval.evaluate(&assignment));
            let direct = space
                .to_block(&assignment)
                .failover_aware_availability()
                .value();
            let folded = cursor.evaluation().uptime().availability().value();
            assert!((direct - folded).abs() < 1e-12, "{assignment:?}");
            if !cursor.advance() {
                break;
            }
        }
    }

    #[test]
    fn serial_search_finds_paper_optima() {
        let space = CompositionSpace::from_serial(&paper_space());
        let model = case_study::tco_model();
        let outcome = search(&space, &model, Objective::MinTco);
        assert_eq!(outcome.best().unwrap().assignment(), &[0, 1, 0]);
        assert_eq!(outcome.best().unwrap().tco().total().value(), 1250.0);
        assert_eq!(outcome.stats().evaluated, 8);
        assert_eq!(
            outcome.evaluations().len(),
            1,
            "streaming keeps the winner only"
        );
        let risk = search(&space, &model, Objective::MinPenaltyRisk);
        assert_eq!(risk.best().unwrap().tco().total().value(), 1350.0);
    }

    #[test]
    fn recorded_search_is_bit_identical_and_counts() {
        let space = CompositionSpace::from_serial(&paper_space());
        let model = case_study::tco_model();
        let registry = uptime_obs::MetricsRegistry::new();
        let plain = search(&space, &model, Objective::MinTco);
        let recorded = search_recorded(
            &space,
            &model,
            Objective::MinTco,
            &registry,
            &uptime_obs::TraceSpan::disabled(),
        );
        assert_eq!(plain, recorded, "instrumentation must not change results");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("optimizer.composition.variants"), Some(8));
        assert_eq!(snap.counter("optimizer.composition.search.calls"), Some(1));
        assert_eq!(
            snap.histogram("optimizer.composition.search.ns")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    #[should_panic(expected = "assignment arity")]
    fn wrong_arity_panics() {
        let space = CompositionSpace::from_serial(&paper_space());
        let model = case_study::tco_model();
        let _ = CompositionEvaluator::new(&space, &model).evaluate(&[0, 0]);
    }

    #[test]
    fn fold_matches_block_evaluation_pointwise() {
        let space = dual_site_space();
        let model = case_study::tco_model();
        let eval = CompositionEvaluator::new(&space, &model);
        for assignment in space.assignments() {
            let block = space.to_block(&assignment);
            let direct = block.failover_aware_availability().value();
            let folded = eval.evaluate(&assignment).uptime().availability().value();
            assert!(
                (direct - folded).abs() < 1e-12,
                "{assignment:?}: block {direct} vs fold {folded}"
            );
        }
    }

    #[test]
    fn cursor_matches_from_scratch_fold() {
        let space = dual_site_space();
        let model = case_study::tco_model();
        let eval = CompositionEvaluator::new(&space, &model);
        let mut cursor = eval.cursor();
        let mut index = 0u128;
        loop {
            assert_eq!(cursor.evaluation(), eval.evaluate(cursor.assignment()));
            index += 1;
            if !cursor.advance() {
                break;
            }
        }
        assert_eq!(index, space.assignment_count());
        assert!(!cursor.advance());
    }

    #[test]
    fn search_finds_block_sweep_optimum() {
        let space = dual_site_space();
        let model = case_study::tco_model();
        let outcome = search(&space, &model, Objective::MinTco);
        let eval = CompositionEvaluator::new(&space, &model);
        // Naive reference: every assignment through the evaluator.
        let mut best: Option<Evaluation> = None;
        for assignment in space.assignments() {
            let e = eval.evaluate(&assignment);
            let better = match &best {
                None => true,
                Some(b) => e.tco().total() < b.tco().total(),
            };
            if better {
                best = Some(e);
            }
        }
        assert_eq!(
            outcome.best().unwrap().tco().total(),
            best.unwrap().tco().total()
        );
        assert_eq!(outcome.stats().evaluated, 32);
    }

    #[test]
    fn single_leaf_space_works() {
        let space = CompositionSpace::new(CompositionNode::Component(component(
            "solo",
            &[0.01, 0.001],
            &[0.0, 10.0],
        )))
        .unwrap();
        assert_eq!(space.leaf_count(), 1);
        let model = case_study::tco_model();
        let outcome = search(&space, &model, Objective::MinTco);
        assert_eq!(outcome.stats().evaluated, 2);
        assert!(outcome.best().is_some());
    }

    #[test]
    fn cardinality_and_cost_count_all_leaves() {
        let space = dual_site_space();
        assert_eq!(space.cardinality(&[0, 0, 0, 0, 0]), 0);
        assert_eq!(space.cardinality(&[1, 0, 1, 0, 1]), 3);
        assert!((space.monthly_cost(&[1, 1, 0, 0, 1]) - 260.0).abs() < 1e-9);
    }
}
