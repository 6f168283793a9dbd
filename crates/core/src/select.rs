//! Engine tier selection — the cost model and promotion state behind
//! adaptive routing of closure queries.
//!
//! No single saturation strategy dominates: the retained naive pass scan
//! (`Tier 0`) is fastest on one-shot queries over small flat pools, the
//! indexed counting kernel (`Tier 1`, [`crate::kernel`]) wins on wide Σ
//! with overlapping LHS sets, and repeatedly-queried relations are best
//! served by precomputed dense closure rows (`Tier 2`,
//! [`crate::dense`]). This module supplies the pieces the engine routes
//! through:
//!
//! * [`Tier`] / [`TierPreference`] — the three tiers and the
//!   `auto`-or-forced override exposed by the CLI's `--engine` flag;
//! * [`CostModel`] — the static features (pool size, LHS overlap,
//!   path-table width) that pick between tiers 0 and 1, plus the
//!   observed-query-count threshold that promotes a relation to tier 2;
//! * [`SelectState`] — shared, per-relation promotion state (query
//!   counters, the built [`DenseClosure`](crate::dense::DenseClosure),
//!   a demotion latch for relations whose dense build exhausted its
//!   budget). A session attaches one `SelectState` to its resident
//!   engine; it is scoped to one `(Σ, policy)` compilation, like the
//!   shared closure cache, so a dense closure built once stays exact for
//!   every later query.
//!
//! Promotion uses hysteresis, not oscillation: a relation is promoted
//! after [`CostModel::promote_after`] queries, the build cost is charged
//! to the engine's [`Budget`](nfd_govern::Budget) (as
//! [`ResourceKind::DenseCells`](nfd_govern::ResourceKind)), and the
//! relation is never demoted — dense rows stay exact for the lifetime of
//! the compilation, and `Session::reconfigure` swaps in a fresh
//! `SelectState` (resetting counters and dropping the rows) exactly when
//! the compilation changes.
//!
//! Every tier computes the same least fixpoint `C(X)`, so tier choice can
//! change latency but never a verdict, a closure, or a proof — the
//! `tier_differential` suite holds all three tiers bit-identical.

use crate::dense::DenseClosure;
use nfd_model::Label;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One of the three closure-query engine tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Tier 0 — the retained naive pass scan (best for one-shot queries
    /// over small flat pools).
    Naive,
    /// Tier 1 — the indexed counting kernel of [`crate::kernel`].
    Indexed,
    /// Tier 2 — precomputed dense closure rows ([`crate::dense`]).
    Dense,
}

impl Tier {
    /// The stable lowercase name used by the CLI and reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Naive => "naive",
            Tier::Indexed => "indexed",
            Tier::Dense => "dense",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The routing override: let the cost model pick, or force one tier —
/// the engine-level form of the CLI's `--engine {auto,naive,indexed,
/// dense}` flag, used for debugging and differential testing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TierPreference {
    /// Route each query through the cost model (the default).
    #[default]
    Auto,
    /// Serve every query from the given tier. Forcing [`Tier::Dense`]
    /// builds the rows on first use and surfaces the build's budget
    /// exhaustion honestly instead of falling back.
    Fixed(Tier),
}

impl TierPreference {
    /// Parses the CLI spelling: `auto`, `naive`, `indexed` or `dense`.
    pub fn parse(text: &str) -> Result<TierPreference, String> {
        match text {
            "auto" => Ok(TierPreference::Auto),
            "naive" => Ok(TierPreference::Fixed(Tier::Naive)),
            "indexed" => Ok(TierPreference::Fixed(Tier::Indexed)),
            "dense" => Ok(TierPreference::Fixed(Tier::Dense)),
            other => Err(format!(
                "engine must be `auto`, `naive`, `indexed` or `dense`, got `{other}`"
            )),
        }
    }
}

impl std::fmt::Display for TierPreference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierPreference::Auto => f.write_str("auto"),
            TierPreference::Fixed(t) => f.write_str(t.name()),
        }
    }
}

/// What one routed query did: which tier served it, whether the shared
/// closure cache answered before any chaining ran, and what it cost.
/// Sessions thread this through `Decision.tier` and the saturation
/// attempt's `cost`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// The tier the router selected, or `None` when no chaining was
    /// needed at all (the goal followed by reflexivity).
    pub tier: Option<Tier>,
    /// Whether the closure came from the attached [`ClosureCache`]
    /// (tiers 0/1 only; dense rows sit above the cache).
    ///
    /// [`ClosureCache`]: crate::kernel::ClosureCache
    pub cache_hit: bool,
    /// The [`ResourceKind::ChainSteps`](nfd_govern::ResourceKind) units
    /// the query is charged: `1 + |C| + Σ_{p ∈ C} occ(p)` for the
    /// closure `C`, `occ(p)` being how many pool entries have `p` in
    /// their LHS; 1 when reflexivity answered. A function of the closure
    /// alone, so identical on every tier, cache hit or miss.
    pub chain_steps: u64,
}

/// The static per-relation features the cost model picks tiers from. All
/// are fixed once saturation completes, so the pick is computed once per
/// `(relation, compilation)` — queries pay nothing for the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostFeatures {
    /// Active (non-subsumed) pool entries — the Σ width after saturation.
    pub active_deps: usize,
    /// Total LHS paths over the active entries; `lhs_paths /
    /// active_deps` is the mean LHS size, the LHS-overlap proxy.
    pub lhs_paths: usize,
    /// Bitset words per [`PathSet`](nfd_path::table::PathSet) — the
    /// per-entry cost of one scan step.
    pub words: usize,
    /// Interned paths in the relation's table.
    pub table_len: usize,
}

/// The tier-0/1 cost model plus the tier-2 promotion threshold.
///
/// The pass scan does `passes × active_deps` subset tests of `words`
/// words each with no setup; the counting kernel pays a per-query setup
/// proportional to `lhs_paths` (counter seeding through the occurrence
/// index) but then touches each entry O(|LHS|) times total. Measured on
/// the B14 workloads (see EXPERIMENTS.md), the scan wins exactly on
/// small, flat, narrow pools — few entries, one-or-two-path LHS sets,
/// single-word bitsets — and loses progressively as any of those grow.
/// The thresholds below draw that boundary; the calibration suite
/// (`tests/tier_calibration.rs`) keeps them honest against the measured
/// workload shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Largest active pool the scan tier is considered for.
    pub scan_max_deps: usize,
    /// Widest bitset (words) the scan tier is considered for.
    pub scan_max_words: usize,
    /// Largest mean LHS size (scaled ×8 to stay integral) the scan tier
    /// is considered for; above it, counter seeding amortizes better
    /// than repeated subset tests.
    pub scan_max_mean_lhs_x8: usize,
    /// Queries observed on a relation before it is promoted to the dense
    /// tier (under [`TierPreference::Auto`]). The observed-query-count
    /// feature: promotion pays a build proportional to `table_len²`, so
    /// it must be amortized over a hot relation, not a one-shot query.
    pub promote_after: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            scan_max_deps: 2048,
            scan_max_words: 4,
            scan_max_mean_lhs_x8: 17, // mean |LHS| ≤ 2.125
            promote_after: 8,
        }
    }
}

impl CostModel {
    /// Picks the tier that should serve one-shot queries on a relation
    /// with the given features (tier 2 is a promotion decision, not a
    /// per-query one — see [`CostModel::should_promote`]).
    pub fn pick(&self, f: &CostFeatures) -> Tier {
        let mean_lhs_x8 = (f.lhs_paths * 8).checked_div(f.active_deps).unwrap_or(0);
        if f.active_deps <= self.scan_max_deps
            && f.words <= self.scan_max_words
            && mean_lhs_x8 <= self.scan_max_mean_lhs_x8
        {
            Tier::Naive
        } else {
            Tier::Indexed
        }
    }

    /// Has a relation seen enough queries to justify the dense build?
    pub fn should_promote(&self, queries: u64) -> bool {
        queries >= self.promote_after
    }
}

/// Per-relation promotion state: the observed query counter, the built
/// dense closure (if promoted), and the latch marking a relation whose
/// auto-promotion build exhausted its cell budget (so it is not retried
/// every query).
#[derive(Debug, Default)]
pub(crate) struct RelSelect {
    queries: AtomicU64,
    dense: Mutex<Option<Arc<DenseClosure>>>,
    dense_failed: AtomicBool,
}

impl RelSelect {
    /// Counts one query; returns the new total.
    pub(crate) fn record_query(&self) -> u64 {
        self.queries.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The built dense closure, if this relation has been promoted.
    pub(crate) fn dense(&self) -> Option<Arc<DenseClosure>> {
        let guard = match self.dense.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.clone()
    }

    /// Stores a freshly built dense closure. Racing builders may both
    /// store — builds are deterministic over the same pool, so either
    /// value is exact and the last write wins harmlessly.
    pub(crate) fn set_dense(&self, d: Arc<DenseClosure>) {
        let mut guard = match self.dense.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard = Some(d);
    }

    /// Latches this relation as unpromotable (its dense build ran out of
    /// cell budget); auto routing stops re-attempting the build.
    pub(crate) fn mark_dense_failed(&self) {
        self.dense_failed.store(true, Ordering::Relaxed);
    }

    /// Whether a previous auto-promotion build was abandoned.
    pub(crate) fn dense_failed(&self) -> bool {
        self.dense_failed.load(Ordering::Relaxed)
    }
}

/// Shared tier-selection state for one `(Σ, policy)` compilation: the
/// routing preference, the cost model, and per-relation promotion state.
///
/// A session creates one `SelectState` and attaches it (via
/// `Engine::with_engine_select`) to its resident engine, where the
/// promotion counters accumulate across queries — the hysteresis the
/// tiered design needs. Like the shared
/// [`ClosureCache`](crate::kernel::ClosureCache), the state is scoped to
/// one compilation; `reconfigure` replaces it wholesale.
#[derive(Debug)]
pub struct SelectState {
    preference: TierPreference,
    model: CostModel,
    rels: Mutex<HashMap<Label, Arc<RelSelect>>>,
}

impl SelectState {
    /// A fresh state (no queries observed, nothing promoted) routing by
    /// `preference` under the default [`CostModel`].
    pub fn new(preference: TierPreference) -> SelectState {
        SelectState::with_model(preference, CostModel::default())
    }

    /// [`SelectState::new`] with an explicit cost model (calibration
    /// tests pin thresholds through this).
    pub fn with_model(preference: TierPreference, model: CostModel) -> SelectState {
        SelectState {
            preference,
            model,
            rels: Mutex::new(HashMap::new()),
        }
    }

    /// The routing preference this state was created with.
    pub fn preference(&self) -> TierPreference {
        self.preference
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The promotion handle for `relation`, created on first use.
    pub(crate) fn rel(&self, relation: Label) -> Arc<RelSelect> {
        let mut rels = match self.rels.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(rels.entry(relation).or_default())
    }

    /// Replaces `relation`'s promotion handle with a fresh one, dropping
    /// any built dense closure and resetting the query counter and the
    /// demotion latch. Scoped invalidation for live Σ mutation: after
    /// `Engine::add_dep`/`remove_dep` rebuild a relation, dense rows
    /// built over the old pool are stale for it, while every other
    /// relation's promotion state stays warm. Engines attached to this
    /// state must re-fetch the handle (see `Engine` internals) — the old
    /// `Arc` they hold is detached, never consulted for the new pool.
    pub fn invalidate_relation(&self, relation: Label) {
        let mut rels = match self.rels.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        rels.remove(&relation);
    }

    /// Queries observed on `relation` so far (observability for tests
    /// and reports).
    pub fn queries(&self, relation: Label) -> u64 {
        self.rel(relation).queries.load(Ordering::Relaxed)
    }

    /// Whether `relation` has been promoted to the dense tier.
    pub fn dense_built(&self, relation: Label) -> bool {
        self.rel(relation).dense().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_parses_cli_spellings() {
        assert_eq!(TierPreference::parse("auto"), Ok(TierPreference::Auto));
        assert_eq!(
            TierPreference::parse("naive"),
            Ok(TierPreference::Fixed(Tier::Naive))
        );
        assert_eq!(
            TierPreference::parse("indexed"),
            Ok(TierPreference::Fixed(Tier::Indexed))
        );
        assert_eq!(
            TierPreference::parse("dense"),
            Ok(TierPreference::Fixed(Tier::Dense))
        );
        assert!(TierPreference::parse("turbo").is_err());
        assert_eq!(TierPreference::Fixed(Tier::Dense).to_string(), "dense");
    }

    #[test]
    fn cost_model_picks_scan_for_small_flat_pools() {
        let m = CostModel::default();
        let flat = CostFeatures {
            active_deps: 500,
            lhs_paths: 500,
            words: 1,
            table_len: 32,
        };
        assert_eq!(m.pick(&flat), Tier::Naive);
        let wide = CostFeatures {
            active_deps: 5000,
            lhs_paths: 40_000,
            words: 8,
            table_len: 400,
        };
        assert_eq!(m.pick(&wide), Tier::Indexed);
        // Heavy LHS overlap alone flips the pick even on a small pool.
        let overlapping = CostFeatures {
            active_deps: 400,
            lhs_paths: 4000,
            words: 1,
            table_len: 64,
        };
        assert_eq!(m.pick(&overlapping), Tier::Indexed);
    }

    #[test]
    fn promotion_counts_and_latch() {
        let state = SelectState::new(TierPreference::Auto);
        let r = Label::new("R");
        assert_eq!(state.queries(r), 0);
        let handle = state.rel(r);
        for _ in 0..5 {
            handle.record_query();
        }
        assert_eq!(state.queries(r), 5);
        assert!(!state.model().should_promote(5));
        assert!(state.model().should_promote(8));
        assert!(!handle.dense_failed());
        handle.mark_dense_failed();
        assert!(handle.dense_failed());
        assert!(!state.dense_built(r));
    }
}
