//! The compiled-IR [`Session`] against everything else.
//!
//! The session front end compiles `(Schema, Σ)` once and serves every
//! query from the cached saturation. This suite pins it to
//!
//! 1. the paper artifacts the repository reproduces (E1′ inference, E5
//!    proofs, E8/E9 closures, E11 set observations, E12 empty-set
//!    refusals) — the verdicts must be *exactly* the printed ones;
//! 2. the nested tableau chase on randomized schemas — an independent
//!    algorithm that must agree goal by goal; and
//! 3. the full [`Decider`] panel (saturation / chase / logic-eval) on
//!    randomized schemas — three unrelated procedures, one verdict.

mod common;

use common::*;
use nfd::chase;
use nfd::core::engine::Engine;
use nfd::core::nfd::parse_set;
use nfd::core::{EmptySetPolicy, Nfd};
use nfd::govern::Budget;
use nfd::model::{Label, Schema};
use nfd::path::{Path, RootedPath};
use nfd::session::{all_deciders, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E1′ + E5: the Section 1 motivating inference through the session,
/// with a verified certificate, plus the refusal the paper contrasts it
/// with.
#[test]
fn session_reproduces_intro_inference_and_proof() {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let session = Session::new(&schema, &sigma).unwrap();

    assert!(session
        .implies_text("Course:[time, students:sid -> books]")
        .unwrap());
    assert!(!session
        .implies_text("Course:[students:sid -> books]")
        .unwrap());

    let goal = Nfd::parse(&schema, "Course:[time, students:sid -> books]").unwrap();
    let pf = session.prove(&goal).unwrap().expect("implied ⇒ provable");
    session.verify(&pf).unwrap();
    assert!(
        session
            .prove(&Nfd::parse(&schema, "Course:[students:sid -> books]").unwrap())
            .unwrap()
            .is_none(),
        "refused goals have no certificate"
    );
}

/// E8: Example A.1's closure through the session, exactly as printed.
#[test]
fn session_reproduces_example_a1_closure() {
    let schema = Schema::parse(
        "R : { <A: int, B: {<C: int>}, D: int, E: {<F: int, G: int>},
               H: {<J: int, L: int>}, I: int, M: {<N: int, O: int>}> };",
    )
    .unwrap();
    let sigma = parse_set(
        &schema,
        "R:[A -> B:C]; R:[B:C -> D]; R:[D -> E:F];
         R:[A -> E:G]; R:[B:C -> H]; R:[I -> H:J];",
    )
    .unwrap();
    let session = Session::new(&schema, &sigma).unwrap();
    let closure = session
        .closure(
            &RootedPath::parse("R").unwrap(),
            &[Path::parse("B").unwrap()],
        )
        .unwrap();
    let shown: Vec<String> = closure.iter().map(|p| p.to_string()).collect();
    assert_eq!(shown, ["R:B", "R:D", "R:H", "R:B:C", "R:E:F", "R:H:J"]);
}

/// E9: Example A.2's closure (deep nesting, set-valued RHS) through the
/// session, exactly as printed.
#[test]
fn session_reproduces_example_a2_closure() {
    let schema =
        Schema::parse("R : { <A: {<B: {<C: int, D: int, E: {<F: int, G: int>}>}>}, H: int> };")
            .unwrap();
    let sigma = parse_set(
        &schema,
        "R:[A:B:C -> A:B]; R:[A:B:C -> A:B:E:F]; R:[H -> A:B:D];",
    )
    .unwrap();
    let session = Session::new(&schema, &sigma).unwrap();
    let closure = session
        .closure(
            &RootedPath::parse("R").unwrap(),
            &[Path::parse("A:B:C").unwrap()],
        )
        .unwrap();
    let shown: Vec<String> = closure.iter().map(|p| p.to_string()).collect();
    assert_eq!(shown, ["R:A:B", "R:A:B:C", "R:A:B:D", "R:A:B:E:F"]);
}

/// E11: the Section 2.1 set observations as session inferences — the
/// singleton rule fires for `R:[D → A:B], R:[D → A:C] ⊢ R:[D → A]`.
#[test]
fn session_reproduces_singleton_inference() {
    let schema = Schema::parse("R : {<A: {<B: int, C: int>}, D: int>};").unwrap();
    let sigma = parse_set(&schema, "R:[D -> A:B]; R:[D -> A:C];").unwrap();
    let session = Session::new(&schema, &sigma).unwrap();
    assert!(session.implies_text("R:[D -> A]").unwrap());
}

/// E12: the Section 3.2 empty-set refusals under `reconfigure` — the
/// strict-regime derivations exist, the pessimistic ones are refused,
/// and a NON-NULL annotation restores them. The pessimistic session
/// reuses the strict one's compiled tables.
#[test]
fn session_reproduces_empty_set_refusals() {
    let schema = Schema::parse("R : { <A: int, B: {<C: int>}, D: int> };").unwrap();
    let sigma = parse_set(&schema, "R:[A -> B:C]; R:[B:C -> D];").unwrap();
    let strict = Session::new(&schema, &sigma).unwrap();
    assert!(strict.implies_text("R:[A -> D]").unwrap());
    assert!(strict.implies_text("R:[A -> B]").unwrap());

    let pessimistic = strict.reconfigure(EmptySetPolicy::pessimistic()).unwrap();
    assert!(!pessimistic.implies_text("R:[A -> D]").unwrap());
    assert!(!pessimistic.implies_text("R:[A -> B]").unwrap());

    let annotated = strict
        .reconfigure(EmptySetPolicy::non_empty([
            RootedPath::parse("R:B").unwrap()
        ]))
        .unwrap();
    assert!(annotated.implies_text("R:[A -> D]").unwrap());
    assert!(annotated.implies_text("R:[A -> B]").unwrap());
}

/// One session serving many random goals must agree with the chase (an
/// unrelated algorithm) and with a fresh engine per goal (the
/// amortization must not change verdicts).
fn session_vs_chase_trial(seed: u64, shape: SchemaShape, goals: usize) {
    let schema = random_schema(seed, shape);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55);
    let sigma = random_sigma(&mut rng, &schema, 2);
    let session = Session::new(&schema, &sigma).unwrap();
    for _ in 0..goals {
        let Some(goal) = random_nfd(&mut rng, &schema) else {
            continue;
        };
        let by_session = session.implies(&goal).unwrap();
        let by_chase = chase::implies_by_chase(&schema, &sigma, &goal).unwrap();
        assert_eq!(
            by_session, by_chase,
            "session vs chase differ (seed {seed}) for {goal}\nΣ = {sigma:?}"
        );
        let fresh = Engine::new(&schema, &sigma).unwrap();
        assert_eq!(
            by_session,
            fresh.implies(&goal).unwrap(),
            "session vs fresh engine differ (seed {seed}) for {goal}"
        );
    }
}

#[test]
fn session_agrees_with_chase_on_flat_schemas() {
    for seed in 0..120 {
        session_vs_chase_trial(
            seed,
            SchemaShape {
                max_depth: 0,
                fields: (2, 4),
                set_prob: 0.0,
            },
            4,
        );
    }
}

#[test]
fn session_agrees_with_chase_on_nested_schemas() {
    for seed in 0..120 {
        session_vs_chase_trial(
            seed,
            SchemaShape {
                max_depth: 2,
                fields: (2, 3),
                set_prob: 0.5,
            },
            4,
        );
    }
}

/// All three deciders — saturation, chase, logic-eval (Appendix A
/// construction + Section 2.2 formula evaluation) — on random schemas.
#[test]
fn decider_panel_agrees_on_random_schemas() {
    let deciders = all_deciders();
    for seed in 0..40 {
        let schema = random_schema(
            seed,
            SchemaShape {
                max_depth: 1,
                fields: (2, 3),
                set_prob: 0.4,
            },
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEC1);
        let sigma = random_sigma(&mut rng, &schema, 2);
        for _ in 0..3 {
            let Some(goal) = random_nfd(&mut rng, &schema) else {
                continue;
            };
            let verdicts: Vec<(&str, bool)> = deciders
                .iter()
                .map(|d| {
                    (
                        d.name(),
                        d.implies(&schema, &sigma, &goal)
                            .unwrap_or_else(|e| panic!("seed {seed}: {e} on {goal}")),
                    )
                })
                .collect();
            assert!(
                verdicts.windows(2).all(|w| w[0].1 == w[1].1),
                "deciders disagree (seed {seed}) on {goal}: {verdicts:?}\nΣ = {sigma:?}"
            );
        }
    }
}

/// A query never saturates: saturation ran once, under the session's
/// build budget, so a query budget that admits no pool entry at all still
/// gets every goal of the corpus — the Course goals of the paper plus
/// random nested schemas — answered by `saturation`, with the unmetered
/// verdict, and `implies_with` equals `implies_with_resident`.
#[test]
fn a_query_never_saturates() {
    let mut no_pool = Budget::standard();
    no_pool.max_pool_deps = 0;
    let check = |session: &Session, goal: &Nfd, what: &str| {
        let d = session.implies_with(goal, &no_pool).unwrap();
        assert_eq!(
            d.answered_by(),
            Some("saturation"),
            "{what}: `{goal}` fell back: {:?}",
            d.attempts
        );
        assert_eq!(
            d.verdict.as_bool(),
            Some(session.implies(goal).unwrap()),
            "{what}: `{goal}`"
        );
        assert_eq!(
            d,
            session.implies_with_resident(goal, &no_pool).unwrap(),
            "{what}: `{goal}`"
        );
    };

    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    for text in [
        "Course:[time, students:sid -> books]",
        "Course:[cnum -> students:age]",
        "Course:[time -> cnum]",
        "Course:[books:title -> books:isbn]",
        "Course:[cnum -> time]",
        "Course:[students:sid -> students:age]",
        "Course:students:[sid -> grade]",
        "Course:[time, students:sid -> cnum]",
    ] {
        check(&session, &Nfd::parse(&schema, text).unwrap(), "course");
    }

    for seed in 0..40 {
        let schema = random_schema(
            seed,
            SchemaShape {
                max_depth: 2,
                fields: (2, 3),
                set_prob: 0.5,
            },
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B0D);
        let sigma = random_sigma(&mut rng, &schema, 3);
        let session = Session::new(&schema, &sigma).unwrap();
        for _ in 0..6 {
            if let Some(goal) = random_nfd(&mut rng, &schema) {
                check(&session, &goal, &format!("seed {seed}"));
            }
        }
    }
}

/// The session's candidate-key search must match the classical notion on
/// the worked example.
#[test]
fn session_keys_on_the_worked_example() {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let keys = session.candidate_keys(Label::new("Course"), 2).unwrap();
    assert!(
        keys.iter()
            .any(|k| k.len() == 1 && k[0].to_string() == "cnum"),
        "cnum is a key: {keys:?}"
    );
}

/// [`Session::reconfigure`] discards the closure cache, keys memo and
/// tier state, and signals it through `Decision.caches_invalidated` —
/// which must latch on the rebuilt session exactly once, including when
/// the first decision after the rebuild goes through the retrying entry
/// point.
#[test]
fn reconfigure_invalidation_latches_exactly_once() {
    use nfd::govern::Budget;
    use nfd::session::RetryPolicy;

    let schema = Schema::parse("R : { <A: int, B: {<C: int>}, D: int> };").unwrap();
    let sigma = parse_set(&schema, "R:[A -> B:C]; R:[B:C -> D];").unwrap();
    let goal = Nfd::parse(&schema, "R:[A -> D]").unwrap();
    let budget = Budget::standard();

    let strict = Session::new(&schema, &sigma).unwrap();
    assert!(
        !strict
            .implies_with(&goal, &budget)
            .unwrap()
            .caches_invalidated,
        "a freshly compiled session never claims invalidation"
    );

    let pessimistic = strict.reconfigure(EmptySetPolicy::pessimistic()).unwrap();
    let first = pessimistic.implies_with(&goal, &budget).unwrap();
    assert!(
        first.caches_invalidated,
        "the first decision drains the latch"
    );
    let second = pessimistic.implies_with(&goal, &budget).unwrap();
    assert!(!second.caches_invalidated, "the latch fires exactly once");
    assert!(
        !strict
            .implies_with(&goal, &budget)
            .unwrap()
            .caches_invalidated,
        "the original session's latch is untouched by reconfigure"
    );

    // Same contract when the first post-reconfigure decision runs (and
    // retries) through implies_retry: one latched decision, then clear.
    let restrict = pessimistic.reconfigure(EmptySetPolicy::Forbidden).unwrap();
    let policy = RetryPolicy::new(3);
    let retried = restrict.implies_retry(&goal, &budget, &policy).unwrap();
    assert!(retried.caches_invalidated, "retry path surfaces the latch");
    let after = restrict.implies_retry(&goal, &budget, &policy).unwrap();
    assert!(!after.caches_invalidated, "and drains it exactly once too");
}

/// The E12 schema flips its verdict between the strict and pessimistic
/// regimes — which makes it the sharpest probe for a stale closure
/// cache: if `reconfigure` leaked the old policy's cached closures,
/// `implies_retry` on the rebuilt session would serve the *old* verdict
/// from a cache hit. It must instead recompute under the new policy,
/// from a cold cache.
#[test]
fn implies_retry_after_reconfigure_never_serves_a_stale_closure() {
    use nfd::govern::{Budget, Verdict};
    use nfd::session::RetryPolicy;

    let schema = Schema::parse("R : { <A: int, B: {<C: int>}, D: int> };").unwrap();
    let sigma = parse_set(&schema, "R:[A -> B:C]; R:[B:C -> D];").unwrap();
    let goal = Nfd::parse(&schema, "R:[A -> D]").unwrap();
    let budget = Budget::standard();
    let policy = RetryPolicy::new(2);

    // Warm the strict session's closure cache on exactly this goal.
    let strict = Session::new(&schema, &sigma).unwrap();
    for _ in 0..3 {
        let warm = strict.implies_retry(&goal, &budget, &policy).unwrap();
        assert_eq!(warm.verdict, Verdict::Implied, "strict regime: implied");
    }
    assert!(
        strict.cache_stats().hits > 0,
        "the repeat queries were served from the warm cache: {:?}",
        strict.cache_stats()
    );

    // Rebuild under the pessimistic policy: the same goal must flip to
    // not-implied, and must not be answered from the old cache.
    let pessimistic = strict.reconfigure(EmptySetPolicy::pessimistic()).unwrap();
    let flipped = pessimistic.implies_retry(&goal, &budget, &policy).unwrap();
    assert_eq!(
        flipped.verdict,
        Verdict::NotImplied,
        "pessimistic regime must recompute, not replay the strict cache"
    );
    assert_eq!(
        flipped.cache_hits, 0,
        "the first post-reconfigure decision cannot hit any cache"
    );

    // And back again: a second reconfigure restores the strict verdict,
    // proving the pessimistic cache did not leak either.
    let strict_again = pessimistic.reconfigure(EmptySetPolicy::Forbidden).unwrap();
    let restored = strict_again.implies_retry(&goal, &budget, &policy).unwrap();
    assert_eq!(restored.verdict, Verdict::Implied);
    assert_eq!(restored.cache_hits, 0, "cold again after the round trip");
}
