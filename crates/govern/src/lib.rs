//! Resource governance for the decision procedures.
//!
//! Every decider in this workspace — the saturation engine, the nested
//! tableau chase, and the Appendix A construction plus Section 2.2 formula
//! evaluation — is worst-case exponential. A production service cannot let
//! an adversarial schema pin a core or blow memory, so each hot loop
//! checks a [`Budget`] cooperatively and reports exhaustion as data rather
//! than panicking or running away:
//!
//! * counter limits (pool entries, closure-chain steps, chase steps, chase
//!   nulls, assignment enumerations, key candidates) bound the memory- and
//!   time-dominating quantities of each procedure;
//! * a wall-clock deadline and a shared [`CancelToken`] bound latency; the
//!   loops poll them every few thousand iterations, so cancellation is
//!   prompt without a per-iteration clock read;
//! * an exceeded limit surfaces as a [`ResourceReport`] inside the
//!   procedure's error type, and query answers become a three-valued
//!   [`Verdict`] — `Exhausted` is an honest "ran out of resources", never
//!   a wrong `Implied`/`NotImplied`.
//!
//! This crate is dependency-free so every layer (model, logic, core,
//! chase, the facade) can share the same vocabulary.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, thread-safe cancellation flag.
///
/// Clones observe the same flag; any holder may [`CancelToken::cancel`]
/// and every budgeted loop polling [`Budget::check_live`] stops promptly.
///
/// Tokens form a tree: [`CancelToken::child`] derives a token that also
/// observes its parent's cancellation but can be cancelled independently
/// without touching the parent. The parallel batch executor uses this to
/// give a worker pool its own stop signal layered over the caller's.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<CancelFlag>);

#[derive(Debug, Default)]
struct CancelFlag {
    flag: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parent.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that is cancelled when either it or `self` is cancelled.
    /// Cancelling the child never affects the parent.
    pub fn child(&self) -> CancelToken {
        CancelToken(Arc::new(CancelFlag {
            flag: AtomicBool::new(false),
            parent: Some(self.clone()),
        }))
    }

    /// Requests cancellation; all clones (and children) observe it.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested, here or on an ancestor?
    pub fn is_cancelled(&self) -> bool {
        let mut cur = self;
        loop {
            if cur.0.flag.load(Ordering::Relaxed) {
                return true;
            }
            match &cur.0.parent {
                Some(parent) => cur = parent,
                None => return false,
            }
        }
    }
}

/// Which resource a budget check found exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Saturation pool entries per relation (`Engine` memory).
    PoolDeps,
    /// Chase unification steps (`tableau` time).
    ChaseSteps,
    /// Nulls allocated by tableau templates (`tableau` memory).
    ChaseNulls,
    /// Assignment enumerations — quantifier instantiations in
    /// `logic::eval` and trie-assignment scans in the chase and the
    /// satisfaction checker.
    Assignments,
    /// Candidate subsets enumerated by the key search.
    KeyCandidates,
    /// Dense closure-matrix cells built when a relation is promoted to
    /// the specialized query tier (`nfd-core`'s Tier 2). Charged at
    /// promotion time so a tier build can never blow a deadline or
    /// memory budget unnoticed.
    DenseCells,
    /// Closure-chain steps charged by one implication query against a
    /// saturated pool: `1 + |C| + Σ_{p ∈ C} occ(p)` for the closure `C`,
    /// where `occ(p)` counts the pool entries whose LHS contains `p` (the
    /// counter decrements of `nfd-core`'s indexed kernel). A function of
    /// the closure alone, so every engine tier and a cache hit charge the
    /// same units.
    ChainSteps,
    /// Wall-clock deadline.
    Deadline,
    /// Explicit cancellation via a [`CancelToken`].
    Cancelled,
    /// A fault injected by a `fail_point!` site (chaos testing only;
    /// never produced in a build without the `failpoints` feature).
    Injected,
}

impl ResourceKind {
    /// Short human noun for reports.
    pub fn noun(self) -> &'static str {
        match self {
            ResourceKind::PoolDeps => "saturation pool entries",
            ResourceKind::ChaseSteps => "chase steps",
            ResourceKind::ChaseNulls => "chase nulls",
            ResourceKind::Assignments => "assignment enumerations",
            ResourceKind::KeyCandidates => "key candidates",
            ResourceKind::DenseCells => "dense closure-matrix cells",
            ResourceKind::ChainSteps => "closure chain steps",
            ResourceKind::Deadline => "wall-clock deadline",
            ResourceKind::Cancelled => "cancellation",
            ResourceKind::Injected => "injected fault",
        }
    }
}

/// What ran out: the exhausted resource, its limit, and how much was used
/// when the loop gave up. Attached to `Exhausted` verdicts and errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceReport {
    /// The exhausted resource.
    pub kind: ResourceKind,
    /// The configured limit: counter units for counter kinds, the
    /// configured timeout in milliseconds for `Deadline` (0 when the
    /// deadline was set as an absolute instant with no stored duration),
    /// and 0 for `Cancelled`/`Injected`, where no limit applies.
    pub limit: u64,
    /// Usage at the moment the limit was hit: counter units, or elapsed
    /// milliseconds for `Deadline`.
    pub used: u64,
}

impl ResourceReport {
    /// A report for a counter limit.
    pub fn counter(kind: ResourceKind, limit: u64, used: u64) -> ResourceReport {
        ResourceReport { kind, limit, used }
    }

    /// The report attached to faults injected by `fail_point!` sites.
    pub fn injected() -> ResourceReport {
        ResourceReport::counter(ResourceKind::Injected, 0, 0)
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ResourceKind::Deadline if self.limit > 0 => {
                write!(
                    f,
                    "wall-clock deadline of {} ms exceeded ({} ms elapsed)",
                    self.limit, self.used
                )
            }
            ResourceKind::Deadline => f.write_str("wall-clock deadline exceeded"),
            ResourceKind::Cancelled => f.write_str("cancelled by caller"),
            ResourceKind::Injected => f.write_str("injected fault (failpoint)"),
            kind => write!(f, "{} limit of {} reached", kind.noun(), self.limit),
        }
    }
}

/// Cooperative resource limits for one query or engine build.
///
/// Counters are `u64::MAX` when unlimited. [`Budget::standard`] matches
/// the legacy hard-wired limits (100 000 pool entries, 100 000 chase
/// steps) with everything else unbounded; [`Budget::limited`] caps every
/// counter at `n` for graceful degradation under pressure.
///
/// One budget shape serves two roles. As a *build* budget (session
/// construction, snapshot thaw, Σ mutation) it governs saturation: pool
/// growth, dense promotion, deadline and cancellation. As a *query*
/// budget it governs what one query does against the already-saturated
/// pool: closure-chain steps, the fallback deciders' counters, deadline
/// and cancellation. `max_pool_deps` of a query budget only reaches the
/// fallback deciders, which saturate privately.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Max saturation pool entries per relation.
    pub max_pool_deps: u64,
    /// Max chase unification steps per run.
    pub max_chase_steps: u64,
    /// Max nulls allocated by tableau templates per run.
    pub max_chase_nulls: u64,
    /// Max assignment enumerations per evaluation/scan.
    pub max_assignments: u64,
    /// Max candidate subsets enumerated by the key search.
    pub max_key_candidates: u64,
    /// Max dense closure-matrix cells built per tier promotion.
    pub max_dense_cells: u64,
    /// Max closure-chain steps charged per implication query.
    pub max_chain_steps: u64,
    deadline: Option<Instant>,
    /// The duration the deadline was configured from, kept so exhaustion
    /// reports can say *which* timeout tripped ("deadline of 50 ms
    /// exceeded") and so [`Budget::escalate`] can re-arm a fresh, scaled
    /// deadline for a retry.
    timeout: Option<Duration>,
    cancel: CancelToken,
}

impl Budget {
    /// No limits at all (counters at `u64::MAX`, no deadline).
    pub fn unlimited() -> Budget {
        Budget {
            max_pool_deps: u64::MAX,
            max_chase_steps: u64::MAX,
            max_chase_nulls: u64::MAX,
            max_assignments: u64::MAX,
            max_key_candidates: u64::MAX,
            max_dense_cells: u64::MAX,
            max_chain_steps: u64::MAX,
            deadline: None,
            timeout: None,
            cancel: CancelToken::new(),
        }
    }

    /// The default limits historically hard-wired into the engine and the
    /// chase: 100 000 pool entries per relation, 100 000 chase steps,
    /// everything else unbounded.
    pub fn standard() -> Budget {
        Budget {
            max_pool_deps: 100_000,
            max_chase_steps: 100_000,
            ..Budget::unlimited()
        }
    }

    /// Every counter capped at `n` — the "tiny budget" shape used for
    /// graceful degradation tests and the CLI `--budget` flag.
    pub fn limited(n: u64) -> Budget {
        Budget {
            max_pool_deps: n,
            max_chase_steps: n,
            max_chase_nulls: n,
            max_assignments: n,
            max_key_candidates: n,
            max_dense_cells: n,
            max_chain_steps: n,
            ..Budget::unlimited()
        }
    }

    /// Adds a wall-clock deadline `d` from now. A zero duration is
    /// honoured literally: the budget is already past its deadline and
    /// the first [`Budget::check_live`] reports exhaustion.
    pub fn with_timeout(mut self, d: Duration) -> Budget {
        self.deadline = Some(Instant::now() + d);
        self.timeout = Some(d);
        self
    }

    /// Adds a wall-clock deadline `ms` milliseconds from now.
    pub fn with_timeout_ms(self, ms: u64) -> Budget {
        self.with_timeout(Duration::from_millis(ms))
    }

    /// Attaches an externally controlled cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = token;
        self
    }

    /// The attached cancellation token (clone it to cancel from another
    /// thread).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Polls the liveness conditions: cancellation first (cheap atomic
    /// load), then the deadline (clock read). Hot loops call this every
    /// few thousand iterations.
    pub fn check_live(&self) -> Result<(), ResourceReport> {
        if self.cancel.is_cancelled() {
            return Err(ResourceReport::counter(ResourceKind::Cancelled, 0, 0));
        }
        if let Some(d) = self.deadline {
            let now = Instant::now();
            if now >= d {
                // Coherent report: limit = the configured timeout in ms,
                // used = elapsed ms (≥ limit by construction).
                let limit = self
                    .timeout
                    .map(|t| t.as_millis().min(u64::MAX as u128) as u64)
                    .unwrap_or(0);
                let over = now.duration_since(d).as_millis().min(u64::MAX as u128) as u64;
                return Err(ResourceReport::counter(
                    ResourceKind::Deadline,
                    limit,
                    limit.saturating_add(over),
                ));
            }
        }
        Ok(())
    }

    /// The limit configured for a counter kind (`u64::MAX` for the
    /// non-counter kinds).
    pub fn limit(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::PoolDeps => self.max_pool_deps,
            ResourceKind::ChaseSteps => self.max_chase_steps,
            ResourceKind::ChaseNulls => self.max_chase_nulls,
            ResourceKind::Assignments => self.max_assignments,
            ResourceKind::KeyCandidates => self.max_key_candidates,
            ResourceKind::DenseCells => self.max_dense_cells,
            ResourceKind::ChainSteps => self.max_chain_steps,
            ResourceKind::Deadline | ResourceKind::Cancelled | ResourceKind::Injected => u64::MAX,
        }
    }

    /// A scaled-up copy of this budget for a retry after exhaustion:
    /// every finite counter limit is multiplied by `factor` (and grows by
    /// at least one, so even a zero limit makes progress), and a timeout,
    /// if one was configured, is re-armed *from now* at `factor` times
    /// its previous duration — the original absolute deadline has by
    /// definition already passed when a retry is considered.
    ///
    /// Factors below 1 (or non-finite) are treated as 1: escalation never
    /// shrinks a budget. The cancellation token is shared with the
    /// original, so a caller's cancel still reaches every retry.
    pub fn escalate(&self, factor: f64) -> Budget {
        let factor = if factor.is_finite() && factor > 1.0 {
            factor
        } else {
            1.0
        };
        // `as u64` saturates on overflow, so huge limits stay huge
        // instead of wrapping.
        let scale = |v: u64| {
            if v == u64::MAX {
                v
            } else {
                ((v as f64 * factor) as u64).max(v.saturating_add(1))
            }
        };
        let mut next = self.clone();
        next.max_pool_deps = scale(self.max_pool_deps);
        next.max_chase_steps = scale(self.max_chase_steps);
        next.max_chase_nulls = scale(self.max_chase_nulls);
        next.max_assignments = scale(self.max_assignments);
        next.max_key_candidates = scale(self.max_key_candidates);
        next.max_dense_cells = scale(self.max_dense_cells);
        next.max_chain_steps = scale(self.max_chain_steps);
        if let Some(t) = self.timeout {
            let ms = t.as_millis().min(u64::MAX as u128) as u64;
            return next.with_timeout(Duration::from_millis(scale(ms)));
        }
        next
    }

    /// Checks a counter against its limit: `Err` when `used` exceeds the
    /// configured maximum. Callers pass the would-be count, so a limit of
    /// `n` admits exactly `n` units.
    pub fn check_counter(&self, kind: ResourceKind, used: u64) -> Result<(), ResourceReport> {
        let limit = self.limit(kind);
        if used > limit {
            Err(ResourceReport::counter(kind, limit, used))
        } else {
            Ok(())
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::standard()
    }
}

/// A three-valued query answer: the classical verdict, or an honest
/// admission that resources ran out before one was reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `Σ ⊨ σ` was established.
    Implied,
    /// A counterexample regime exists: `Σ ⊭ σ`.
    NotImplied,
    /// No decider reached an answer within the budget; the report says
    /// what ran out first.
    Exhausted(ResourceReport),
}

impl Verdict {
    /// Wraps a classical boolean verdict.
    pub fn from_bool(implied: bool) -> Verdict {
        if implied {
            Verdict::Implied
        } else {
            Verdict::NotImplied
        }
    }

    /// The classical verdict, if one was reached.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Verdict::Implied => Some(true),
            Verdict::NotImplied => Some(false),
            Verdict::Exhausted(_) => None,
        }
    }

    /// Did the query run out of resources?
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Verdict::Exhausted(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Implied => f.write_str("implied"),
            Verdict::NotImplied => f.write_str("not implied"),
            Verdict::Exhausted(r) => write!(f, "exhausted: {r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn child_tokens_observe_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        assert!(!child.is_cancelled());

        // Cancelling a child leaves the parent (and siblings) alone.
        child.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert!(!parent.is_cancelled());
        assert!(!parent.child().is_cancelled());

        // Cancelling the parent reaches every descendant.
        let other = parent.child();
        parent.cancel();
        assert!(other.is_cancelled());
        assert!(parent.is_cancelled());
    }

    #[test]
    fn standard_matches_legacy_limits() {
        let b = Budget::standard();
        assert_eq!(b.max_pool_deps, 100_000);
        assert_eq!(b.max_chase_steps, 100_000);
        assert_eq!(b.max_assignments, u64::MAX);
        assert_eq!(b.max_chain_steps, u64::MAX);
        assert!(b.check_live().is_ok());
    }

    #[test]
    fn counter_limits_admit_exactly_n() {
        let b = Budget::limited(3);
        assert!(b.check_counter(ResourceKind::ChaseSteps, 3).is_ok());
        let err = b.check_counter(ResourceKind::ChaseSteps, 4).unwrap_err();
        assert_eq!(err.kind, ResourceKind::ChaseSteps);
        assert_eq!(err.limit, 3);
        assert!(err.to_string().contains("chase steps"));
    }

    #[test]
    fn deadline_and_cancellation_trip_check_live() {
        let b = Budget::unlimited().with_timeout(Duration::from_secs(0));
        assert_eq!(
            b.check_live().unwrap_err().kind,
            ResourceKind::Deadline,
            "zero deadline is already past"
        );
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert!(b.check_live().is_ok());
        token.cancel();
        assert_eq!(b.check_live().unwrap_err().kind, ResourceKind::Cancelled);
    }

    #[test]
    fn zero_timeout_trips_first_check_with_a_labeled_report() {
        let b = Budget::unlimited().with_timeout_ms(0);
        let report = b.check_live().unwrap_err();
        assert_eq!(report.kind, ResourceKind::Deadline);
        assert_eq!(report.limit, 0, "the configured timeout was 0 ms");
        assert!(report.used >= report.limit);
        assert!(report.to_string().contains("wall-clock deadline"));
    }

    #[test]
    fn deadline_report_names_the_configured_timeout() {
        let b = Budget::unlimited().with_timeout_ms(25);
        assert!(b.check_live().is_ok(), "25 ms have not elapsed yet");
        std::thread::sleep(Duration::from_millis(30));
        let report = b.check_live().unwrap_err();
        assert_eq!(report.kind, ResourceKind::Deadline);
        assert_eq!(report.limit, 25);
        assert!(report.used >= 25, "elapsed ms at the trip: {}", report.used);
        assert!(report.to_string().contains("deadline of 25 ms"));
    }

    #[test]
    fn zero_limit_counters_trip_on_first_unit() {
        let b = Budget::limited(0);
        let report = b.check_counter(ResourceKind::PoolDeps, 1).unwrap_err();
        assert_eq!(report.kind, ResourceKind::PoolDeps);
        assert_eq!(report.limit, 0);
        assert_eq!(report.used, 1);
    }

    #[test]
    fn escalate_scales_counters_and_rearms_the_deadline() {
        let b = Budget::limited(10).with_timeout_ms(40);
        let up = b.escalate(4.0); // deadline re-armed from now: 160 ms
        assert_eq!(up.max_pool_deps, 40);
        assert_eq!(up.max_chase_steps, 40);
        assert_eq!(up.max_chain_steps, 40);
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.check_live().is_err(), "original 40 ms deadline passed");
        assert!(
            up.check_live().is_ok(),
            "escalated deadline was re-armed and scaled"
        );

        // Progress from zero, saturation at the top, shared cancel token.
        assert_eq!(Budget::limited(0).escalate(4.0).max_assignments, 1);
        assert_eq!(Budget::limited(0).escalate(4.0).max_chain_steps, 1);
        assert_eq!(Budget::unlimited().escalate(4.0).max_pool_deps, u64::MAX);
        let escalated = b.escalate(f64::NAN);
        assert_eq!(escalated.max_pool_deps, 11, "bad factors grow by one");
        b.cancel_token().cancel();
        assert!(escalated.cancel_token().is_cancelled());
    }

    #[test]
    fn injected_report_renders() {
        let r = ResourceReport::injected();
        assert_eq!(r.kind, ResourceKind::Injected);
        assert!(r.to_string().contains("injected fault"));
        assert_eq!(Budget::unlimited().limit(ResourceKind::Injected), u64::MAX);
    }

    #[test]
    fn verdict_roundtrip() {
        assert_eq!(Verdict::from_bool(true), Verdict::Implied);
        assert_eq!(Verdict::from_bool(false).as_bool(), Some(false));
        let ex = Verdict::Exhausted(ResourceReport::counter(ResourceKind::PoolDeps, 5, 6));
        assert!(ex.is_exhausted());
        assert!(ex.as_bool().is_none());
        assert!(ex.to_string().contains("exhausted"));
    }
}
