//! Bench `retry_escalation` (EXPERIMENTS.md §B13): what graceful
//! degradation costs, and what the failpoint plumbing costs when it is
//! compiled out.
//!
//! Two questions:
//!
//! * **Escalation vs. one big budget.** A starved budget that heals
//!   itself by retrying under escalating limits (`implies_retry`, factor
//!   4) does the early rounds' work only to throw it away. How much
//!   slower is starting tiny and escalating to a workable budget than
//!   granting that final budget up front? Saturation's chain charge
//!   exhausts a starved round at once, but the round then pays the chase
//!   and logic-eval fallbacks before the next escalation.
//!
//! * **Feature-off failpoint overhead.** `fail_point!` sites thread the
//!   hot paths of every crate; with the `failpoints` feature disabled
//!   (always, for benches) the macro expands to an empty block. The
//!   `baseline` group runs the B10/B11-shaped all-pairs workload through
//!   per-goal `implies_with` (each call runs the budgeted cascade over
//!   the session's resident engine, so every instrumented query layer is
//!   on the measured path). Its numbers are
//!   recorded in EXPERIMENTS.md §B13 as their own drift baseline — the
//!   acceptance bar for failpoint plumbing is <1% drift on re-runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nfd::prelude::*;
use nfd_bench::*;
use nfd_core::Nfd;
use nfd_model::Schema;
use std::hint::black_box;
use std::time::Duration;

/// The B10/B11 goal batch: every `R:[ai -> aj]`, `i ≠ j`.
fn goal_batch(schema: &Schema, n: usize) -> Vec<Nfd> {
    let mut goals = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                goals.push(Nfd::parse(schema, &format!("R:[a{i} -> a{j}]")).unwrap());
            }
        }
    }
    goals
}

/// Starved-start retries vs. the final budget granted up front, on one
/// implication query over the flat chain.
fn bench_escalation_vs_upfront(c: &mut Criterion) {
    let mut group = c.benchmark_group("retry/escalation_vs_upfront");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [16usize, 24] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let session = Session::new(&schema, &sigma).unwrap();
        let goal = Nfd::parse(&schema, &format!("R:[a0 -> a{}]", n - 1)).unwrap();

        // Calibrate: starting from 1, how many ×4 escalations until the
        // budget decides, and what budget is that? `implies_retry` must
        // end on an answer, not exhaustion, for the comparison to be fair.
        let policy = RetryPolicy::new(12).with_escalation(4.0);
        let decision = session
            .implies_retry(&goal, &Budget::limited(1), &policy)
            .unwrap();
        let rounds = decision.attempts.iter().map(|a| a.round).max().unwrap();
        assert!(
            decision.verdict.as_bool().is_some() && rounds >= 1,
            "calibration: escalation must retry at least once and then answer"
        );
        let final_cap = 4u64.pow(rounds);

        group.bench_with_input(BenchmarkId::new("escalating", n), &n, |b, _| {
            b.iter(|| {
                session
                    .implies_retry(black_box(&goal), &Budget::limited(1), &policy)
                    .unwrap()
                    .verdict
                    .as_bool()
            })
        });
        group.bench_with_input(BenchmarkId::new("upfront", n), &n, |b, _| {
            b.iter(|| {
                session
                    .implies_with(black_box(&goal), &Budget::limited(final_cap))
                    .unwrap()
                    .verdict
                    .as_bool()
            })
        });
    }
    group.finish();
}

/// The B11 standard-budget workload, rerun so feature-off failpoint
/// overhead shows up as drift against EXPERIMENTS.md §B11.
fn bench_failpoint_free_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("retry/failpoint_free_baseline");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [12usize, 16] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = goal_batch(&schema, n);
        let budget = Budget::standard();
        group.bench_with_input(BenchmarkId::new("standard", n), &n, |b, _| {
            b.iter(|| {
                let session = Session::new(&schema, &sigma).unwrap();
                let mut implied = 0usize;
                for goal in &goals {
                    let d = session.implies_with(black_box(goal), &budget).unwrap();
                    if d.verdict.as_bool() == Some(true) {
                        implied += 1;
                    }
                }
                implied
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_escalation_vs_upfront,
    bench_failpoint_free_baseline
);
criterion_main!(benches);
