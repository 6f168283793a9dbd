//! `cli_wide`: one `nfdtool` process at a time over the flat wide Σ, like
//! a script waiting on each exit (a closed loop of concurrency 1).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{self, closure_text, keys_text, Flat, FlatDep, GoalPool, Nested, Rng};
use crate::util::{self, Report};
use crate::Outcome;

/// The fixture files of one set-up.
pub struct Files {
    pub wide_schema: String,
    pub wide_deps: String,
    pub snapshot: String,
    pub course_schema: String,
    pub course_deps: String,
    pub instance: String,
    pub goals: String,
    pub image_bytes: u64,
}

/// The request kinds of the stream, one per end-to-end metric family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Implies,
    Closure,
    Warm,
    Check,
    Keys,
    Batch,
    Write,
    Connect,
}

/// One block of the closed loop: the stream repeats seeded shuffles of
/// this multiset, so every run sees the same mix of kinds. The two
/// writes are one `--add-dep` and one `--drop-dep`.
const BLOCK: [Kind; 10] = [
    Kind::Implies,
    Kind::Closure,
    Kind::Batch,
    Kind::Write,
    Kind::Write,
    Kind::Warm,
    Kind::Keys,
    Kind::Check,
    Kind::Connect,
    Kind::Connect,
];

/// Blocks a run completes at least, however long they take: each tail
/// (`implies`, `closure`, `batch`, and each write verb) then has 21
/// samples, the fewest with ten beyond a percentile above the median.
const MIN_BLOCKS: usize = 21;

/// Goals in the `--goals` batch file.
const BATCH_GOALS: usize = 16;

/// One invocation with the answer an oracle expects from it.
pub struct Op {
    pub kind: Kind,
    pub args: Vec<String>,
    /// Expected exit code.
    pub code: i32,
    /// Expected canonical answer (see [`answer`]).
    pub expect: String,
}

/// Everything a `cli_wide` run needs, generated from the seed.
pub struct Inputs {
    pub flat: Flat,
    pub course: Nested,
    pub instance: String,
    pub check_expect: Vec<(String, bool)>,
    pub batch: Vec<FlatDep>,
    pub pool: GoalPool,
    pub keys: String,
    pub rng: Rng,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let flat = Flat::wide();
    let course = Nested::course();
    let instance = gen::course_instance(&mut rng);
    let check_expect = gen::check_oracle(gen::COURSE_SCHEMA, gen::COURSE_DEPS, &instance);
    let pool = flat.goal_pool();
    let batch = (0..BATCH_GOALS).map(|_| pool.draw(&mut rng, 0.5)).collect();
    let keys = keys_text(&flat.keys());
    Inputs {
        flat,
        course,
        instance,
        check_expect,
        batch,
        pool,
        keys,
        rng,
    }
}

/// Writes the fixtures and the warm-start image into `dir`.
pub fn setup(nfdtool: &str, dir: &Path, inp: &Inputs) -> Result<Files, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = |name: &str| -> String { dir.join(name).to_string_lossy().into_owned() };
    let write = |name: &str, text: &str| -> Result<String, String> {
        let p = path(name);
        std::fs::write(&p, text).map_err(|e| format!("{p}: {e}"))?;
        Ok(p)
    };
    let batch: Vec<String> = inp.batch.iter().map(|g| format!("{};", g.text())).collect();
    let mut files = Files {
        wide_schema: write("wide.nfds", &inp.flat.schema_src())?,
        wide_deps: write("wide.nfdd", &inp.flat.deps_src())?,
        snapshot: path("wide.snap"),
        course_schema: write("course.nfds", &inp.course.schema_src)?,
        course_deps: write("course.nfdd", &inp.course.deps_src)?,
        instance: write("course.nfdi", &inp.instance)?,
        goals: write("batch.goals", &batch.join("\n"))?,
        image_bytes: 0,
    };
    let out = util::run(
        nfdtool,
        &strings(&[
            "snapshot",
            "--schema",
            &files.wide_schema,
            "--deps",
            &files.wide_deps,
            "--out",
            &files.snapshot,
        ]),
    )
    .map_err(|e| format!("nfdtool snapshot: {e}"))?;
    if out.code != 0 {
        return Err(format!("nfdtool snapshot exited {}", out.code));
    }
    files.image_bytes = std::fs::metadata(&files.snapshot)
        .map_err(|e| format!("{}: {e}", files.snapshot))?
        .len();
    Ok(files)
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn lhs_arg(lhs: &[usize]) -> String {
    lhs.iter()
        .map(|a| format!("a{a}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn verdict(yes: bool) -> String {
    if yes { "implied" } else { "not implied" }.to_string()
}

/// Block `b` of the seeded stream, with expected answers.
pub fn block(inp: &mut Inputs, f: &Files) -> Vec<Op> {
    let wide = ["--schema", &f.wide_schema, "--deps", &f.wide_deps];
    let writes = inp.flat.write_pool();
    let mut kinds = BLOCK;
    inp.rng.shuffle(&mut kinds);
    let mut ops = Vec::new();
    let mut add_next = true;
    for kind in kinds {
        let op = match kind {
            Kind::Implies | Kind::Warm => {
                let g = inp.pool.draw(&mut inp.rng, 0.5);
                let yes = inp.flat.implies(&g);
                let mut args = strings(&["implies"]);
                args.extend(strings(&wide));
                if kind == Kind::Warm {
                    args.extend(strings(&["--snapshot", &f.snapshot]));
                }
                args.push(g.text());
                Op {
                    kind,
                    args,
                    code: if yes { 0 } else { 1 },
                    expect: verdict(yes),
                }
            }
            Kind::Closure => {
                let lhs = inp.pool.closure_lhs(&mut inp.rng);
                let mut args = strings(&["closure"]);
                args.extend(strings(&wide));
                args.extend(strings(&["--base", "R", "--lhs", &lhs_arg(&lhs)]));
                Op {
                    kind,
                    args,
                    code: 0,
                    expect: closure_text(&inp.flat.closure(&lhs)),
                }
            }
            Kind::Check => Op {
                kind,
                args: strings(&[
                    "check",
                    "--schema",
                    &f.course_schema,
                    "--deps",
                    &f.course_deps,
                    "--instance",
                    &f.instance,
                ]),
                code: if inp.check_expect.iter().all(|c| c.1) {
                    0
                } else {
                    1
                },
                expect: check_text(&inp.check_expect),
            },
            Kind::Keys => {
                let mut args = strings(&["keys"]);
                args.extend(strings(&wide));
                args.extend(strings(&["--relation", "R"]));
                Op {
                    kind,
                    args,
                    code: 0,
                    expect: inp.keys.clone(),
                }
            }
            Kind::Batch => {
                let mut args = strings(&["implies"]);
                args.extend(strings(&wide));
                args.extend(strings(&["--goals", &f.goals]));
                let all = inp.batch.iter().all(|g| inp.flat.implies(g));
                Op {
                    kind,
                    args,
                    code: if all { 0 } else { 1 },
                    expect: inp
                        .batch
                        .iter()
                        .map(|g| verdict(inp.flat.implies(g)))
                        .collect::<Vec<_>>()
                        .join(","),
                }
            }
            Kind::Write => {
                // One added dependency from the write pool and one
                // dropped member of Σ per block; the closure queried is
                // the mutated one's left-hand side.
                let mut args = strings(&["closure"]);
                args.extend(strings(&wide));
                args.extend(strings(&["--snapshot", &f.snapshot]));
                let (mutated, dep, flag) = if std::mem::replace(&mut add_next, false) {
                    let d = writes[inp.rng.below(writes.len())].clone();
                    (inp.flat.with(Some(&d)), d, "--add-dep")
                } else {
                    let plain: Vec<usize> = (0..inp.flat.deps.len())
                        .filter(|&i| {
                            let d = &inp.flat.deps[i];
                            d.lhs[0] != d.lhs[1] && !d.lhs.contains(&d.rhs)
                        })
                        .collect();
                    let i = plain[inp.rng.below(plain.len())];
                    let mut m = inp.flat.clone();
                    let d = m.deps.remove(i);
                    (m, d, "--drop-dep")
                };
                args.extend([flag.to_string(), dep.text()]);
                args.extend(strings(&["--base", "R", "--lhs", &lhs_arg(&dep.lhs)]));
                Op {
                    kind,
                    args,
                    code: 0,
                    expect: closure_text(&mutated.closure(&dep.lhs)),
                }
            }
            Kind::Connect => {
                let (goal, yes) = &inp.course.goals[inp.rng.below(inp.course.goals.len())];
                Op {
                    kind,
                    args: strings(&[
                        "implies",
                        "--schema",
                        &f.course_schema,
                        "--deps",
                        &f.course_deps,
                        goal,
                    ]),
                    code: if *yes { 0 } else { 1 },
                    expect: verdict(*yes),
                }
            }
        };
        ops.push(op);
    }
    ops
}

fn check_text(c: &[(String, bool)]) -> String {
    c.iter()
        .map(|(_, ok)| if *ok { "ok" } else { "FAIL" })
        .collect::<Vec<_>>()
        .join(",")
}

/// The canonical answer in an `nfdtool` transcript, for comparison with
/// [`Op::expect`].
pub fn answer(kind: Kind, stdout: &str) -> String {
    let lines = stdout.lines().map(str::trim_end);
    match kind {
        Kind::Implies | Kind::Warm | Kind::Connect => lines
            .filter(|l| *l == "implied" || *l == "not implied")
            .collect::<Vec<_>>()
            .join(","),
        Kind::Closure | Kind::Write => {
            let mut v: Vec<&str> = lines.filter(|l| l.starts_with("R:")).collect();
            v.sort_unstable();
            v.join(" ")
        }
        Kind::Keys => gen::canon_keys(
            lines
                .filter(|l| l.starts_with('{'))
                .map(|l| {
                    l.trim_matches(|c| c == '{' || c == '}')
                        .split(", ")
                        .map(String::from)
                        .collect()
                })
                .collect(),
        ),
        Kind::Batch => lines
            .filter_map(|l| {
                if l.starts_with("not implied") {
                    Some("not implied")
                } else if l.starts_with("implied") {
                    Some("implied")
                } else {
                    None
                }
            })
            .collect::<Vec<_>>()
            .join(","),
        Kind::Check => lines
            .filter_map(|l| {
                if l.starts_with("ok ") {
                    Some("ok")
                } else if l.starts_with("FAIL ") {
                    Some("FAIL")
                } else {
                    None
                }
            })
            .collect::<Vec<_>>()
            .join(","),
    }
}

/// Runs `op` as a process and checks its answer.
pub fn execute(nfdtool: &str, op: &Op) -> (Outcome, f64, i64) {
    match util::run(nfdtool, &op.args) {
        Ok(out) => {
            // A rejected image silently measures a cold start instead.
            let warm_ok = !op.args.iter().any(|a| a == "--snapshot")
                || out.stdout.contains("(warm start: thawed snapshot");
            let outcome = if out.code != op.code || !warm_ok {
                Outcome::Failed(format!(
                    "{:?} exited {} (expected {}): {}",
                    op.kind,
                    out.code,
                    op.code,
                    out.stdout.lines().next().unwrap_or_default()
                ))
            } else if answer(op.kind, &out.stdout) != op.expect {
                Outcome::Wrong(format!(
                    "{:?} `{}` answered `{}`, oracle says `{}`",
                    op.kind,
                    op.args.join(" "),
                    answer(op.kind, &out.stdout),
                    op.expect
                ))
            } else {
                Outcome::Ok
            };
            (outcome, util::ms(out.wall), out.maxrss_kb)
        }
        Err(e) => (Outcome::Failed(format!("spawn: {e}")), 0.0, 0),
    }
}

/// Set-ups per run; `setup_s` is their median. The first comes before
/// the window; set-up `k` replaces the fixtures at the first block
/// boundary after `k / SETUPS` of the window, so the set-ups meet the
/// host as it is across the run rather than in one moment of it (a vCPU
/// of a shared host can run half again as slow for tens of seconds).
const SETUPS: usize = 9;

pub fn run(nfdtool: &str, work: &Path, seed: u64, seconds: u64, rep: &mut Report) -> crate::Tally {
    let mut inp = inputs(seed);
    let mut setup_s = Vec::new();
    let mut set_up = |inp: &Inputs| -> Result<Files, String> {
        let dir: PathBuf = work.join(format!("cli_wide-{}", setup_s.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let f = setup(nfdtool, &dir, inp)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(f)
    };
    let mut files = match set_up(&inp) {
        Ok(f) => f,
        Err(e) => return crate::Tally::broken(e),
    };

    let mut tally = crate::Tally::default();
    let mut lat: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut peak_kb = 0i64;
    let mut implied = (0usize, 0usize);
    let mut seen_goals = std::collections::HashSet::new();
    let mut repeats = 0usize;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut block = 0;
    let mut busy = Duration::ZERO;
    // Whole blocks only, so every run measures the same mix of kinds.
    let mut done = 1;
    while block < MIN_BLOCKS || start.elapsed() < budget {
        if done < SETUPS && start.elapsed() >= budget.mul_f64(done as f64 / SETUPS as f64) {
            done += 1;
            files = match set_up(&inp) {
                Ok(f) => f,
                Err(e) => return crate::Tally::broken(e),
            };
        }
        let ops = self::block(&mut inp, &files);
        block += 1;
        for op in &ops {
            let t = Instant::now();
            let (outcome, wall_ms, rss) = execute(nfdtool, op);
            busy += t.elapsed();
            tally.attempted += 1;
            peak_kb = peak_kb.max(rss);
            if matches!(op.kind, Kind::Implies | Kind::Warm) {
                implied.1 += 1;
                implied.0 += usize::from(op.code == 0);
                if !seen_goals.insert(op.args.last().cloned()) {
                    repeats += 1;
                }
            }
            match outcome {
                Outcome::Ok => {
                    let key = match op.kind {
                        Kind::Write if op.args.iter().any(|a| a == "--add-dep") => "write_add",
                        Kind::Write => "write_drop",
                        k => metric_of(k),
                    };
                    lat.entry(key).or_default().push(wall_ms)
                }
                Outcome::Failed(why) => tally.fail(why),
                Outcome::Wrong(why) => {
                    tally.wrong(why);
                    break;
                }
            }
        }
        if !tally.correct {
            break;
        }
    }
    rep.put(
        "setup_s",
        util::median(&setup_s).unwrap_or_default(),
        "s",
        format!(
            "median of {} set-ups, one before the window and the rest spread over it: {setup_s:?}",
            setup_s.len()
        ),
    );
    for (prefix, tail) in [
        ("implies", true),
        ("closure", true),
        ("warm_implies", false),
        ("check", false),
        ("keys", false),
        ("batch", true),
        ("connect", false),
    ] {
        rep.latency(prefix, lat.get(prefix).map_or(&[][..], |v| v), tail);
    }
    let get = |k: &str| lat.get(k).cloned().unwrap_or_default();
    rep.write_latency(&get("write_add"), &get("write_drop"));
    rep.put(
        "max_rate_rps",
        tally.attempted as f64 / busy.as_secs_f64(),
        "req/s",
        format!(
            "closed loop of one process at a time: {} invocations in {:.2} s",
            tally.attempted,
            busy.as_secs_f64()
        ),
    );
    rep.put(
        "peak_rss_mb",
        peak_kb as f64 / 1024.0,
        "MiB",
        "largest child maxrss",
    );
    let total = tally.attempted.max(1) as f64;
    rep.fact("blocks", block);
    rep.fact(
        "traffic.implied_share",
        implied.0 as f64 / implied.1.max(1) as f64,
    );
    rep.fact(
        "traffic.repeated_goal_share",
        repeats as f64 / implied.1.max(1) as f64,
    );
    rep.fact("traffic.one_shot_share", 1.0);
    rep.fact(
        "traffic.write_share",
        (get("write_add").len() + get("write_drop").len()) as f64 / total,
    );
    rep.fact("traffic.tenants", 2);
    rep.fact(
        "traffic.sigma_sizes",
        format!(
            "wide {} attrs x {} deps; course 7 deps",
            inp.flat.attrs,
            inp.flat.deps.len()
        ),
    );
    rep.fact("traffic.snapshot_image_bytes", files.image_bytes);
    tally
}

pub fn metric_of(kind: Kind) -> &'static str {
    match kind {
        Kind::Implies => "implies",
        Kind::Closure => "closure",
        Kind::Warm => "warm_implies",
        Kind::Check => "check",
        Kind::Keys => "keys",
        Kind::Batch => "batch",
        Kind::Write => "write",
        Kind::Connect => "connect",
    }
}
