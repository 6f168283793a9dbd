//! Tier 2 — the dense-closure specialization for hot relations.
//!
//! When a relation is queried repeatedly (or the CLI forces
//! `--engine dense`), the engine promotes it: every gate-free unary
//! dependency in the saturated pool is folded into a precomputed,
//! transitively-closed *reach row* per interned path, so that the bulk of
//! a steady-state closure query is a handful of bitset word unions
//! instead of a fixpoint over the pool. The few entries that cannot be
//! folded — non-unary LHS sets or entries with a non-empty `need_x`
//! modified-transitivity gate — survive as a small *residual* list and
//! run as an ordinary fixpoint on top of the rows.
//!
//! **Exactness.** Let `C(X)` be the least fixpoint the kernels compute.
//! Subsumed entries are skipped, which is sound for the same reason the
//! tier-0 scan may skip them: every subsumed entry is transitively
//! subsumed by an active same-RHS entry with a smaller LHS, and `need_x`
//! is monotone in the LHS, so the active entry fires whenever the
//! subsumed one could. Splitting the active pool into a folded part `U`
//! (unary, gate-free) and a residual part `R` preserves the fixpoint
//! because the query loop closes over both: the seed `X ∪ ⋃_{x∈X}
//! reach[x]` is exactly the `U`-closure of `X` (rows are transitively
//! closed and include their source), and each residual firing re-unions
//! the fired path's row, restoring `U`-closedness before the next pass.
//! The result is a set closed under every active entry and contained in
//! any such closed set — the unique least fixpoint, bit-identical to
//! tiers 0 and 1 (the `tier_differential` suite enforces this).
//!
//! Dense rows answer *set* queries only; they never produce the
//! per-dependency `fired` provenance maps, so proofs and `chain_dump`
//! always run the counting kernel regardless of tier.
//!
//! **Cost.** A build materializes up to `n²` bitset cells for a table of
//! `n` paths. That cost is charged to the [`Budget`](nfd_govern::Budget)
//! of the query that promotes the relation (the engine's own budget for
//! unmetered queries and analysis sweeps) as
//! [`ResourceKind::DenseCells`](nfd_govern::ResourceKind) *before* any
//! allocation, and the row loop polls `check_live` so a promotion cannot
//! blow a deadline the govern layer promised.

use crate::engine::CDep;
use crate::error::CoreError;
use nfd_govern::{Budget, ResourceKind};
use nfd_path::table::{PathId, PathSet, PathTable};

/// One pool entry that could not be folded into the reach rows: a
/// non-unary LHS, or a non-empty `need_x` gate.
#[derive(Clone, Debug)]
struct Residual {
    lhs: PathSet,
    rhs: PathId,
    need_x: PathSet,
}

/// A promoted relation's precomputed closure structure: one
/// transitively-closed reach row per interned path, plus the residual
/// entries that still need a (small) fixpoint at query time.
#[derive(Clone, Debug)]
pub struct DenseClosure {
    words: usize,
    reach: Vec<PathSet>,
    residual: Vec<Residual>,
}

impl DenseClosure {
    /// Builds the dense structure for one relation from its saturated
    /// pool, charging `table.len()²` cells to `budget` up front.
    ///
    /// Fails with [`ResourceKind::DenseCells`] exhaustion when the table
    /// is too large for the configured cell budget, or with a liveness
    /// error (deadline/cancellation) raised by the periodic
    /// `check_live` poll; on failure nothing is cached and the caller
    /// decides whether to fall back (auto promotion) or surface the
    /// error (forced `--engine dense`).
    pub fn build(
        table: &PathTable,
        deps: &[CDep],
        budget: &Budget,
    ) -> Result<DenseClosure, CoreError> {
        let n = table.len();
        let cells = (n as u64).saturating_mul(n as u64);
        budget.check_counter(ResourceKind::DenseCells, cells)?;

        let words = table.words();
        // Partition the active pool: gate-free unary entries become
        // adjacency edges (folded into rows below); everything else is
        // residual and replays at query time.
        let mut succ: Vec<PathSet> = vec![PathSet::empty(words); n];
        let mut residual = Vec::new();
        for d in deps {
            if d.subsumed {
                continue;
            }
            if d.lhs.len() == 1 && d.need_x.is_empty() {
                if let Some(src) = d.lhs.iter().next() {
                    succ[src as usize].insert(d.rhs);
                }
            } else {
                residual.push(Residual {
                    lhs: d.lhs.clone(),
                    rhs: d.rhs,
                    need_x: d.need_x.clone(),
                });
            }
        }

        // One reflexive-transitive reach row per source. Worklist walk
        // per row; rows are independent, so liveness is polled on a
        // stride rather than per edge.
        let mut reach: Vec<PathSet> = Vec::with_capacity(n);
        let mut stack: Vec<PathId> = Vec::new();
        for p in 0..n {
            if p % 64 == 0 {
                budget.check_live()?;
            }
            let mut row = PathSet::empty(words);
            row.insert(p as PathId);
            stack.push(p as PathId);
            while let Some(q) = stack.pop() {
                for r in succ[q as usize].iter() {
                    if row.insert(r) {
                        stack.push(r);
                    }
                }
            }
            reach.push(row);
        }

        Ok(DenseClosure {
            words,
            reach,
            residual,
        })
    }

    /// The closure `C(X)` of the attribute set `x` — bit-identical to
    /// the tier-0/1 kernels (see the module docs for the argument).
    ///
    /// The folded part is pure word unions: seed with `X` and the reach
    /// row of every member. The residual part is an ordinary pass-scan
    /// fixpoint whose firings re-union reach rows to stay `U`-closed.
    pub fn closure(&self, x: &[PathId]) -> PathSet {
        let x_set = PathSet::from_ids(self.words, x.iter().copied());
        let mut c = x_set.clone();
        for id in &mut x.iter().copied() {
            if (id as usize) < self.reach.len() {
                c.union_with(&self.reach[id as usize]);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for d in &self.residual {
                if c.contains(d.rhs) {
                    continue;
                }
                if !d.lhs.is_subset(&c) {
                    continue;
                }
                if !d.need_x.is_subset(&x_set) {
                    continue;
                }
                c.insert(d.rhs);
                if (d.rhs as usize) < self.reach.len() {
                    c.union_with(&self.reach[d.rhs as usize]);
                }
                changed = true;
            }
        }
        c
    }

    /// Interned paths covered by the reach rows (the table size at
    /// build time).
    pub fn paths(&self) -> usize {
        self.reach.len()
    }

    /// Pool entries that stayed residual (not folded into rows).
    pub fn residual_deps(&self) -> usize {
        self.residual.len()
    }
}
