//! `serve_read`: TCP clients of a real `nfdtool serve` daemon.
//!
//! The run has three phases, apart from each other:
//! * nominal: one back-to-back client per core, each on a persistent
//!   connection, sending its next request as soon as the previous reply
//!   is in — a client that keeps its connection busy, such as a script
//!   or a service looping over queries. Every latency metric but
//!   `connect_p50_ms` and `check_p50_ms` comes from here;
//! * probe: one-shot connections (connect, one `IMPLIES`, reply), with
//!   `nfdtool check` processes beside them;
//! * ladder: open-loop `IMPLIES` at fixed rates over the persistent
//!   connections, for `max_rate_rps`.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::gen::{self, canon_keys, closure_text, keys_text, Flat, FlatDep, GoalPool, Nested, Rng};
use crate::util::{self, ms, Report};
use crate::wire::{self, Conn, Daemon};
use crate::{Outcome, Tally};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `IMPLIES` of a goal not asked before, on a persistent connection.
    Implies,
    /// `IMPLIES` repeating an earlier goal (closure cache and dense reuse).
    Warm,
    /// `IMPLIES` on a fresh one-shot connection.
    Connect,
    Batch,
    Closure,
    Keys,
    /// `nfdtool check` on the daemon's host.
    Check,
    /// `ADDDEP` on the scratch tenant.
    Add,
    /// `DROPDEP` on the scratch tenant.
    Drop,
}

impl Kind {
    pub fn metric(self) -> &'static str {
        match self {
            Kind::Implies => "implies",
            Kind::Warm => "warm_implies",
            Kind::Connect => "connect",
            Kind::Batch => "batch",
            Kind::Closure => "closure",
            Kind::Keys => "keys",
            Kind::Check => "check",
            Kind::Add => "write_add",
            Kind::Drop => "write_drop",
        }
    }

    pub fn verb(self) -> &'static str {
        match self {
            Kind::Implies | Kind::Warm | Kind::Connect => "IMPLIES",
            Kind::Batch => "BATCH",
            Kind::Closure => "CLOSURE",
            Kind::Keys => "KEYS",
            Kind::Check => "CHECK",
            Kind::Add => "ADDDEP",
            Kind::Drop => "DROPDEP",
        }
    }
}

/// A resident tenant: its `LOAD` line and how its answers are known.
pub struct Tenant {
    pub name: &'static str,
    pub schema: String,
    pub deps: String,
    pub shape: Shape,
}

pub enum Shape {
    /// Flat wide Σ and its goal pool.
    Flat(Flat, GoalPool),
    Nested(Vec<(String, bool)>),
    /// Receives writes only.
    Scratch,
}

impl Tenant {
    pub fn load_line(&self) -> String {
        format!("LOAD {} {} | {}", self.name, self.schema, self.deps)
    }
}

/// One request with the reply the oracle expects.
pub struct Op {
    pub kind: Kind,
    pub line: String,
    /// Canonical expected reply (see [`canon`]); for a write, the
    /// prefix of its `OK` reply.
    pub expect: String,
    /// `IMPLIES` verdict, for the traffic record.
    pub implied: Option<bool>,
}

/// Everything a serve run needs, generated from the seed.
pub struct Inputs {
    pub tenants: Vec<Tenant>,
    pub instance: String,
    pub check_expect: Vec<(String, bool)>,
    rng: Rng,
    seen: HashSet<(bool, String)>,
    issued: Vec<(usize, String)>,
    keys: BTreeMap<usize, String>,
    /// Scratch-tenant writes generated so far.
    writes: usize,
}

/// Persistent connections: one per core.
pub fn read_conns() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Requests generated per nominal client: at the ~44 ms per reply of
/// today's daemon, several times what a run sends. A daemon fast enough
/// to finish the stream early ends the nominal phase early.
const STREAM_LEN: usize = 4000;
/// On the first connection every `WRITE_EVERY`-th request is the next
/// scratch-tenant write (`ADDDEP d`, then `DROPDEP d`, so Σ returns to
/// its start).
const WRITE_EVERY: usize = 4;
/// Share of the run spent in the nominal phase, and in the probe.
const NOMINAL_SHARE: f64 = 0.5;
const PROBE_SHARE: f64 = 0.15;
/// One ladder rung lasts this share of the run (at least a second).
const RUNG_SHARE: f64 = 0.03;
/// A rung passes when its `IMPLIES` tail is within this limit, nothing
/// failed, and at most max(2, n/50) requests were still unsent at its
/// end.
const LIMIT_MS: f64 = 100.0;
/// The ladder starts at half the nominal phase's throughput and moves by
/// this factor until one rung passes and one fails, at most `MAX_RUNGS`
/// times; then `BISECTIONS` geometric bisections between the two narrow
/// the step to about 3 %.
const STEP: f64 = 1.25;
const MAX_RUNGS: usize = 8;
const BISECTIONS: usize = 3;
/// Idle time before each rung, longer than the 40 ms delayed-ACK
/// timeout, so no rung inherits the previous one's acknowledgement state.
const RUNG_PAUSE: Duration = Duration::from_millis(200);
/// The probe starts a `check` process this often, after a few untimed.
const CHECK_EVERY: Duration = Duration::from_millis(200);
const CHECK_WARMUP: usize = 4;
/// Goals per tenant in the untimed warm-up batch.
const WARM_GOALS: usize = 16;
/// Share of `IMPLIES` that repeat an earlier goal.
const REPEAT_SHARE: f64 = 0.25;

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5);
    let flat = Flat::wide();
    let wide = |name| Tenant {
        name,
        schema: flat.schema_src(),
        deps: flat.deps_src(),
        shape: Shape::Flat(flat.clone(), flat.goal_pool()),
    };
    let nested = |n: Nested| Tenant {
        name: n.name,
        schema: n.schema_src.clone(),
        deps: n.deps_src.clone(),
        shape: Shape::Nested(n.goals),
    };
    let tenants = vec![
        nested(Nested::course()),
        nested(Nested::a1()),
        nested(Nested::ladder()),
        wide("wideA"),
        wide("wideB"),
        Tenant {
            name: "scratch",
            schema: gen::COURSE_SCHEMA.to_string(),
            deps: gen::COURSE_DEPS.to_string(),
            shape: Shape::Scratch,
        },
    ];
    let instance = gen::course_instance(&mut rng);
    let check_expect = gen::check_oracle(gen::COURSE_SCHEMA, gen::COURSE_DEPS, &instance);
    let mut inp = Inputs {
        tenants,
        instance,
        check_expect,
        rng,
        seen: HashSet::new(),
        issued: Vec::new(),
        keys: BTreeMap::new(),
        writes: 0,
    };
    // Keys, before any timing.
    for (t, tenant) in inp.tenants.iter().enumerate() {
        if let Shape::Flat(f, _) = &tenant.shape {
            inp.keys.insert(t, keys_text(&f.keys()));
        }
    }
    inp
}

impl Inputs {
    fn read_tenants(&self) -> Vec<usize> {
        (0..self.tenants.len())
            .filter(|&t| !matches!(self.tenants[t].shape, Shape::Scratch))
            .collect()
    }

    fn flat_tenants(&self) -> Vec<usize> {
        (0..self.tenants.len())
            .filter(|&t| matches!(self.tenants[t].shape, Shape::Flat(..)))
            .collect()
    }

    /// A goal for tenant `t` and its verdict.
    fn goal(&mut self, t: usize) -> (String, bool) {
        match &self.tenants[t].shape {
            Shape::Flat(f, pool) => {
                let g = pool.draw(&mut self.rng, 0.5);
                (g.text(), f.implies(&g))
            }
            Shape::Nested(goals) => goals[self.rng.below(goals.len())].clone(),
            Shape::Scratch => unreachable!("reads never target the scratch tenant"),
        }
    }

    /// The next read of the nominal mix.
    pub fn next_op(&mut self) -> Op {
        match self.rng.below(100) {
            0..=15 => self.batch_op(),
            16..=31 => self.closure_op(),
            32..=43 => self.keys_op(),
            _ => self.implies_op(false),
        }
    }

    /// The nominal streams, one per client; the first carries the
    /// scratch-tenant writes. Generated round-robin, so a seed gives the
    /// same streams on any machine with the same core count.
    pub fn streams(&mut self, clients: usize, len: usize) -> Vec<Vec<Op>> {
        let mut out: Vec<Vec<Op>> = (0..clients).map(|_| Vec::with_capacity(len)).collect();
        for i in 0..len {
            for (w, stream) in out.iter_mut().enumerate() {
                stream.push(if w == 0 && i % WRITE_EVERY == WRITE_EVERY - 1 {
                    self.write_op()
                } else {
                    self.next_op()
                });
            }
        }
        out
    }

    /// `BATCH` of eight goals on a read tenant.
    fn batch_op(&mut self) -> Op {
        let reads = self.read_tenants();
        let t = reads[self.rng.below(reads.len())];
        let goals: Vec<(String, bool)> = (0..8).map(|_| self.goal(t)).collect();
        let words: Vec<&str> = goals
            .iter()
            .map(|g| if g.1 { "implied" } else { "not-implied" })
            .collect();
        let text: Vec<String> = goals.iter().map(|g| format!("{};", g.0)).collect();
        Op {
            kind: Kind::Batch,
            line: format!("BATCH {} {}", self.tenants[t].name, text.join(" ")),
            expect: words.join(","),
            implied: None,
        }
    }

    /// `CLOSURE` on a flat tenant.
    fn closure_op(&mut self) -> Op {
        let flats = self.flat_tenants();
        let t = flats[self.rng.below(flats.len())];
        let Shape::Flat(f, pool) = &self.tenants[t].shape else {
            unreachable!("flat_tenants returns flat tenants")
        };
        let lhs = pool.closure_lhs(&mut self.rng);
        let lhs_text: Vec<String> = lhs.iter().map(|a| format!("a{a}")).collect();
        Op {
            kind: Kind::Closure,
            line: format!("CLOSURE {} R {}", self.tenants[t].name, lhs_text.join(",")),
            expect: closure_text(&f.closure(&lhs)),
            implied: None,
        }
    }

    /// `KEYS` on a flat tenant.
    fn keys_op(&mut self) -> Op {
        let flats = self.flat_tenants();
        let t = flats[self.rng.below(flats.len())];
        Op {
            kind: Kind::Keys,
            line: format!("KEYS {} R", self.tenants[t].name),
            expect: self.keys[&t].clone(),
            implied: None,
        }
    }

    /// The next scratch-tenant write: `ADDDEP d`, then `DROPDEP d`, for
    /// each Course write dependency in turn.
    fn write_op(&mut self) -> Op {
        let k = self.writes;
        self.writes += 1;
        let d = gen::COURSE_WRITES[(k / 2) % gen::COURSE_WRITES.len()];
        let (kind, verb, expect) = if k.is_multiple_of(2) {
            (Kind::Add, "ADDDEP", "OK added relation=Course")
        } else {
            (Kind::Drop, "DROPDEP", "OK dropped relation=Course")
        };
        Op {
            kind,
            line: format!("{verb} scratch {d}"),
            expect: expect.to_string(),
            implied: None,
        }
    }

    pub fn implies_op(&mut self, one_shot: bool) -> Op {
        let reads = self.read_tenants();
        let repeat = !one_shot && !self.issued.is_empty() && self.rng.chance(REPEAT_SHARE);
        let (t, goal, yes) = if repeat {
            let (t, g) = self.issued[self.rng.below(self.issued.len())].clone();
            let yes = self.verdict_of(t, &g);
            (t, g, yes)
        } else {
            let t = reads[self.rng.below(reads.len())];
            let (g, yes) = self.goal(t);
            (t, g, yes)
        };
        // Same-source tenants share a closure cache, so a goal repeats
        // across them too.
        let flat = matches!(self.tenants[t].shape, Shape::Flat(..));
        let key = (
            flat,
            format!("{}|{goal}", if flat { "" } else { self.tenants[t].name }),
        );
        let fresh = self.seen.insert(key);
        if fresh {
            self.issued.push((t, goal.clone()));
        }
        let kind = if one_shot {
            Kind::Connect
        } else if fresh {
            Kind::Implies
        } else {
            Kind::Warm
        };
        Op {
            kind,
            line: format!("IMPLIES {} {goal}", self.tenants[t].name),
            expect: if yes { "implied" } else { "not-implied" }.to_string(),
            implied: Some(yes),
        }
    }

    fn verdict_of(&self, t: usize, goal: &str) -> bool {
        match &self.tenants[t].shape {
            Shape::Flat(f, _) => f.implies(&parse_flat(goal)),
            Shape::Nested(goals) => {
                goals
                    .iter()
                    .find(|(g, _)| g == goal)
                    .expect("issued goal")
                    .1
            }
            Shape::Scratch => unreachable!("reads never target the scratch tenant"),
        }
    }
}

/// Parses the benchmark's own `R:[a_i, a_j -> a_k]` spelling back.
pub fn parse_flat(text: &str) -> FlatDep {
    let inner = text.trim_start_matches("R:[").trim_end_matches(']');
    let (l, r) = inner.split_once(" -> ").expect("flat goal spelling");
    let idx = |s: &str| {
        s.trim()
            .trim_start_matches('a')
            .parse::<usize>()
            .expect("aN")
    };
    FlatDep {
        lhs: l.split(',').map(idx).collect(),
        rhs: idx(r),
    }
}

/// Canonical form of a reply, comparable with [`Op::expect`]; `None`
/// unless the reply is `OK`.
pub fn canon(kind: Kind, reply: &str) -> Option<String> {
    let payload = reply.strip_prefix("OK")?.trim();
    Some(match kind {
        Kind::Closure => {
            let mut v: Vec<&str> = payload.split_whitespace().collect();
            v.sort_unstable();
            v.join(" ")
        }
        Kind::Keys => canon_keys(
            payload
                .split_whitespace()
                .map(|k| {
                    k.trim_matches(|c| c == '{' || c == '}')
                        .split(',')
                        .map(String::from)
                        .collect()
                })
                .collect(),
        ),
        _ => payload.to_string(),
    })
}

/// Judges a reply against the oracle: a reply other than `OK` is a
/// failure, an `OK` with another answer is wrong.
pub fn judge(op: &Op, reply: &str) -> Outcome {
    let Some(got) = canon(op.kind, reply) else {
        return Outcome::Failed(format!("`{}` -> {reply}", op.line));
    };
    let right = match op.kind {
        Kind::Add | Kind::Drop => reply.starts_with(&op.expect),
        _ => got == op.expect,
    };
    if right {
        Outcome::Ok
    } else {
        Outcome::Wrong(format!(
            "`{}` answered `{got}`, oracle says `{}`",
            op.line, op.expect
        ))
    }
}

/// Writes the `check` probe's fixtures; returns its `nfdtool` arguments.
pub fn check_files(dir: &Path, inp: &Inputs) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut args = vec!["check".to_string()];
    for (flag, name, text) in [
        ("--schema", "course.nfds", gen::COURSE_SCHEMA),
        ("--deps", "course.nfdd", gen::COURSE_DEPS),
        ("--instance", "course.nfdi", inp.instance.as_str()),
    ] {
        let p = dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
        args.push(flag.to_string());
        args.push(p.to_string_lossy().into_owned());
    }
    Ok(args)
}

/// Judges a `check` transcript (exit code and output, from a process or
/// from `nfd::cli::run`) against the logic-evaluator oracle.
pub fn check_answer(inp: &Inputs, code: i32, stdout: &str) -> Outcome {
    let got = crate::cli_wide::answer(crate::cli_wide::Kind::Check, stdout);
    let expect: Vec<&str> = inp
        .check_expect
        .iter()
        .map(|c| if c.1 { "ok" } else { "FAIL" })
        .collect();
    if code != i32::from(!inp.check_expect.iter().all(|c| c.1)) {
        Outcome::Failed(format!("check exited {code}"))
    } else if got != expect.join(",") {
        Outcome::Wrong(format!(
            "check answered {got}, oracle says {}",
            expect.join(",")
        ))
    } else {
        Outcome::Ok
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Spawns the daemon and loads every tenant.
fn start(nfdtool: &str, inp: &Inputs) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(nfdtool).map_err(|e| format!("spawn serve: {e}"))?;
    let mut c = Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for t in &inp.tenants {
        let r = c
            .request(&t.load_line())
            .map_err(|e| format!("LOAD: {e}"))?;
        if !r.starts_with("OK loaded") {
            return Err(format!("LOAD {}: {r}", t.name));
        }
    }
    Ok(daemon)
}

/// What one request produced.
struct Done {
    kind: Kind,
    outcome: Outcome,
    sent: Instant,
    done: Instant,
}

/// The one-shot client pauses between connections for a time below
/// this, one of `THINK_STEPS` evenly spaced values, so connects land at
/// every phase of the daemon's 50 ms accept poll.
const ONE_SHOT_THINK_MS: f64 = 50.0;
const THINK_STEPS: usize = 50;

/// Requests seen, by what they tell about the traffic.
#[derive(Default)]
struct Traffic {
    requests: usize,
    implies: usize,
    implied: usize,
    repeats: usize,
    one_shots: usize,
    writes: usize,
}

impl Traffic {
    fn count(&mut self, op: &Op) {
        self.requests += 1;
        if let Some(y) = op.implied {
            self.implies += 1;
            self.implied += usize::from(y);
            self.repeats += usize::from(op.kind == Kind::Warm);
        }
        self.one_shots += usize::from(op.kind == Kind::Connect);
        self.writes += usize::from(matches!(op.kind, Kind::Add | Kind::Drop));
    }
}

pub fn run(nfdtool: &str, work: &Path, seed: u64, seconds: u64, rep: &mut Report) -> Tally {
    let mut inp = inputs(seed);
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut files = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let d = start(nfdtool, &inp);
        let f = check_files(&work.join(format!("serve_read-{i}")), &inp);
        setup_s.push(t.elapsed().as_secs_f64());
        match (d, f) {
            (Ok(d), Ok(f)) => {
                if let Some(old) = daemon.replace(d) {
                    old.shutdown();
                }
                files = Some(f);
            }
            (Err(e), _) | (_, Err(e)) => return Tally::broken(e),
        }
    }
    let daemon = daemon.expect("a set-up ran");
    let files = files.expect("a set-up ran");
    rep.put(
        "setup_s",
        util::median(&setup_s).unwrap_or_default(),
        "s",
        format!("median of {SETUPS} set-ups (spawn + every LOAD): {setup_s:?}"),
    );

    // Warm-up, untimed, as after any deployment's first minutes: the
    // first KEYS per tenant computes and memoizes, and a batch of goals
    // per tenant lets the tier selector promote hot relations.
    let mut admin = match Conn::connect(daemon.addr) {
        Ok(c) => c,
        Err(e) => return Tally::broken(format!("connect: {e}")),
    };
    for t in inp.flat_tenants() {
        let _ = admin.request(&format!("KEYS {} R", inp.tenants[t].name));
    }
    for t in inp.read_tenants() {
        let goals: Vec<String> = (0..WARM_GOALS)
            .map(|_| format!("{};", inp.goal(t).0))
            .collect();
        let _ = admin.request(&format!(
            "BATCH {} {}",
            inp.tenants[t].name,
            goals.join(" ")
        ));
    }

    // The nominal streams and the probe's requests, with every expected
    // answer, before the timed window.
    let secs = seconds as f64;
    let clients = read_conns();
    let streams = inp.streams(clients, STREAM_LEN);
    let probe_s = secs * PROBE_SHARE;
    let one_shots: Vec<Op> = (0..(probe_s * 1000.0 / (ONE_SHOT_THINK_MS / 2.0)) as usize + 1)
        .map(|_| inp.implies_op(true))
        .collect();
    // Pauses on an even grid over one accept-poll period, in seeded
    // order: every phase is sampled equally often, so the median does
    // not depend on where the daemon's poll happened to start.
    let mut grid: Vec<usize> = (0..THINK_STEPS).collect();
    Rng::new(seed ^ 0x0e5).shuffle(&mut grid);
    let thinks: Vec<Duration> = (0..one_shots.len())
        .map(|i| {
            let step = grid[i % THINK_STEPS] as f64;
            Duration::from_secs_f64(step * ONE_SHOT_THINK_MS / THINK_STEPS as f64 / 1e3)
        })
        .collect();

    let stats_before = admin.request("STATS").unwrap_or_default();
    let conns: Vec<Mutex<Option<Conn>>> = (0..clients)
        .map(|_| Mutex::new(Conn::connect(daemon.addr).ok()))
        .collect();
    let abort = AtomicBool::new(false);
    let mut tally = Tally::default();
    let mut traffic = Traffic::default();
    let mut lat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut record = |tally: &mut Tally, d: &Done, latency: f64, put: bool| match &d.outcome {
        Outcome::Ok => {
            if put {
                lat.entry(d.kind.metric()).or_default().push(latency)
            }
        }
        Outcome::Failed(why) => tally.fail(why.clone()),
        Outcome::Wrong(why) => tally.wrong(why.clone()),
    };

    // Nominal: back-to-back clients.
    let window = Instant::now();
    let nominal_end = window + Duration::from_secs_f64(secs * NOMINAL_SHARE);
    let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
    let nominal = wire::closed_loop(&lens, nominal_end, |w, i| {
        if abort.load(Ordering::SeqCst) {
            return None;
        }
        let d = execute(&streams[w][i], &conns[w]);
        if matches!(d.outcome, Outcome::Wrong(_)) {
            abort.store(true, Ordering::SeqCst);
        }
        Some(d)
    });
    let mut turnaround = Vec::new();
    let mut last_done = window;
    let mut completed = 0usize;
    for (w, log) in nominal.iter().enumerate() {
        for (i, d) in log.iter().enumerate() {
            tally.attempted += 1;
            traffic.count(&streams[w][i]);
            if i > 0 {
                turnaround.push(ms(d.sent.saturating_duration_since(log[i - 1].done)));
            }
            last_done = last_done.max(d.done);
            completed += usize::from(matches!(d.outcome, Outcome::Ok));
            record(&mut tally, d, ms(d.done - d.sent), true);
        }
    }
    let throughput = completed as f64 / (last_done - window).as_secs_f64().max(1e-3);

    // Probe: one-shot connections in a closed loop, and `check`
    // processes on their own thread, one every CHECK_EVERY: run inline
    // they would shift the connects off their even grid, and run back to
    // back they tend to share one CPU, whose speed then decides every
    // sample of the run.
    let probe_end = Instant::now() + Duration::from_secs_f64(probe_s);
    let check_op = Op {
        kind: Kind::Check,
        line: String::new(),
        expect: String::new(),
        implied: None,
    };
    let checks = || {
        let mut out = Vec::new();
        for _ in 0..CHECK_WARMUP {
            let _ = util::run(crate::nfdtool(), &files);
        }
        while Instant::now() < probe_end && !abort.load(Ordering::SeqCst) {
            let sent = Instant::now();
            let outcome = match util::run(crate::nfdtool(), &files) {
                Ok(o) => check_answer(&inp, o.code, &o.stdout),
                Err(e) => Outcome::Failed(format!("spawn check: {e}")),
            };
            let done = Instant::now();
            out.push((
                Done {
                    kind: Kind::Check,
                    outcome,
                    sent,
                    done,
                },
                &check_op,
            ));
            std::thread::sleep(CHECK_EVERY.saturating_sub(done - sent));
        }
        out
    };
    let probed = std::thread::scope(|ps| {
        let checker = ps.spawn(checks);
        let mut out = Vec::new();
        for (op, think) in one_shots.iter().zip(&thinks) {
            std::thread::sleep(*think);
            if Instant::now() >= probe_end || abort.load(Ordering::SeqCst) {
                break;
            }
            let sent = Instant::now();
            let outcome = match Conn::connect(daemon.addr).and_then(|mut c| c.request(&op.line)) {
                Ok(r) => judge(op, &r),
                Err(e) => Outcome::Failed(format!("one-shot: {e}")),
            };
            let d = Done {
                kind: op.kind,
                outcome,
                sent,
                done: Instant::now(),
            };
            out.push((d, op));
        }
        out.extend(checker.join().expect("the check prober does not panic"));
        out
    });
    for (d, op) in &probed {
        tally.attempted += 1;
        if op.kind != Kind::Check {
            traffic.count(op);
        }
        record(&mut tally, d, ms(d.done - d.sent), true);
    }

    // Ladder: open-loop IMPLIES at fixed rates over the persistent
    // connections.
    let rung_s = (secs * RUNG_SHARE).max(1.0);
    let mut ladder = Vec::new();
    let mut lateness = Vec::new();
    let mut rung = |rate: f64, tally: &mut Tally| -> Option<f64> {
        std::thread::sleep(RUNG_PAUSE);
        let n = (rate * rung_s).ceil().max(1.0) as usize;
        let ops: Vec<Op> = (0..n).map(|_| inp.implies_op(false)).collect();
        let out: Vec<Mutex<Option<Done>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let start = Instant::now();
        let sent = wire::open_loop(conns.len(), rate, n, start, |w, i| {
            if abort.load(Ordering::SeqCst) {
                return false;
            }
            let d = execute(&ops[i], &conns[w]);
            let ok = !matches!(d.outcome, Outcome::Wrong(_));
            if !ok {
                abort.store(true, Ordering::SeqCst);
            }
            *out[i].lock().expect("one writer per slot") = Some(d);
            ok
        });
        let end = start + Duration::from_secs_f64(rung_s);
        let backlog = sent.iter().filter(|s| s.due <= end && s.sent > end).count();
        let mut implies_ms = Vec::new();
        let mut failed = 0;
        let mut first_due = None;
        let mut last = None;
        for s in &sent {
            let Some(d) = out[s.idx].lock().expect("workers joined").take() else {
                continue;
            };
            tally.attempted += 1;
            traffic.count(&ops[s.idx]);
            first_due = first_due.or(Some(s.due));
            last = Some(last.map_or(d.done, |l: Instant| l.max(d.done)));
            lateness.push(ms(s.sent.saturating_duration_since(s.due)));
            match &d.outcome {
                Outcome::Ok => implies_ms.push(ms(d.done - s.due)),
                Outcome::Failed(why) => {
                    failed += 1;
                    tally.fail(why.clone());
                }
                Outcome::Wrong(why) => tally.wrong(why.clone()),
            }
        }
        let achieved = match (first_due, last) {
            (Some(a), Some(b)) if b > a => (sent.len() - failed) as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        };
        let tail_ms = util::tail(&implies_ms).map_or(f64::INFINITY, |t| t.0);
        let pass = failed == 0
            && tail_ms <= LIMIT_MS
            && backlog <= 2.max(sent.len() / 50)
            && !abort.load(Ordering::SeqCst);
        ladder.push(format!(
            "{rate:.1}rps:n={} achieved={achieved:.2} implies_tail={tail_ms:.1}ms backlog={backlog} failed={failed} {}",
            sent.len(),
            if pass { "pass" } else { "fail" }
        ));
        pass.then_some(achieved)
    };
    // (rate, achieved) of the highest passing rung, and the lowest
    // failing rate.
    let mut lo: Option<(f64, f64)> = None;
    let mut hi: Option<f64> = None;
    let mut rate = (throughput / 2.0).max(1.0);
    for _ in 0..MAX_RUNGS {
        if abort.load(Ordering::SeqCst) {
            break;
        }
        match rung(rate, &mut tally) {
            Some(achieved) => {
                lo = Some((rate, achieved));
                rate *= STEP;
            }
            None => {
                hi = Some(rate);
                rate /= STEP;
            }
        }
        if lo.is_some() && hi.is_some() {
            break;
        }
    }
    for _ in 0..BISECTIONS {
        let (Some((l, _)), Some(h)) = (lo, hi) else {
            break;
        };
        if abort.load(Ordering::SeqCst) {
            break;
        }
        let mid = (l * h).sqrt();
        match rung(mid, &mut tally) {
            Some(achieved) => lo = Some((mid, achieved)),
            None => hi = Some(mid),
        }
    }

    let stats_after = admin.request("STATS").unwrap_or_default();
    let peak_kb = util::vm_hwm_kb(daemon.pid()).unwrap_or(0);
    drop(admin);
    for c in &conns {
        c.lock().expect("clients joined").take();
    }
    if !daemon.shutdown() {
        tally.fail("daemon did not drain cleanly on SHUTDOWN".to_string());
    }

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
        lo.map_or(0.0, |l| l.1),
        "req/s",
        format!(
            "achieved IMPLIES rate of the highest passing rung (tail <= {LIMIT_MS} ms, no growing backlog); ladder: {}",
            ladder.join("; ")
        ),
    );
    rep.put(
        "peak_rss_mb",
        peak_kb as f64 / 1024.0,
        "MiB",
        "daemon VmHWM",
    );

    // Traffic and program-reported counts.
    let share = |n: usize, d: usize| n as f64 / d.max(1) as f64;
    rep.fact(
        "traffic.implied_share",
        share(traffic.implied, traffic.implies),
    );
    rep.fact(
        "traffic.repeated_goal_share",
        share(traffic.repeats, traffic.implies),
    );
    rep.fact(
        "traffic.one_shot_share",
        share(traffic.one_shots, traffic.requests),
    );
    rep.fact(
        "traffic.write_share",
        share(traffic.writes, traffic.requests),
    );
    rep.fact(
        "traffic.tenants",
        inp.tenants
            .iter()
            .map(|t| t.name)
            .collect::<Vec<_>>()
            .join(","),
    );
    rep.fact(
        "traffic.sigma_sizes",
        format!(
            "wide {} attrs x {} deps (x2); course 7; a1 6; ladder 7; scratch 7",
            gen::WIDE_ATTRS,
            gen::WIDE_DEPS
        ),
    );
    rep.fact(
        "traffic.snapshot_image_bytes",
        "n/a (no snapshot on this path)",
    );
    rep.fact("read_connections", clients);
    rep.fact("nominal", "back-to-back clients, one per connection");
    rep.fact("nominal_throughput_rps", throughput);
    rep.fact(
        "loadgen.turnaround_ms_p50",
        util::median(&turnaround).unwrap_or_default(),
    );
    rep.fact(
        "loadgen.lateness_ms_p50",
        util::median(&lateness).unwrap_or_default(),
    );
    for key in [
        "queries",
        "epoch_swaps",
        "closure_hits",
        "closure_misses",
        "shared_cache_hits",
        "shared_cache_misses",
        "shed",
        "requests",
        "connections",
        "worker_queue_depth",
    ] {
        let before = wire::stat(&stats_before, key).unwrap_or(0.0);
        let after = wire::stat(&stats_after, key).unwrap_or(0.0);
        rep.fact(&format!("stats.{key}_delta"), after - before);
    }
    tally
}

fn execute(op: &Op, conn: &Mutex<Option<Conn>>) -> Done {
    let sent = Instant::now();
    let mut guard = conn.lock().expect("one request per connection at a time");
    let outcome = match guard.as_mut().map(|c| c.request(&op.line)) {
        None => Outcome::Failed("no connection".to_string()),
        Some(Ok(r)) => judge(op, &r),
        Some(Err(e)) => {
            *guard = None;
            Outcome::Failed(format!("{:?}: {e}", op.kind))
        }
    };
    Done {
        kind: op.kind,
        outcome,
        sent,
        done: Instant::now(),
    }
}
