//! The traced run: each workload's seeded stream replayed in-process,
//! with spans around the calls into every layer's public functions.
//!
//! Spans are recorded by this file only (the program is not
//! instrumented): name, detail (the verb or request kind), start, end,
//! parent span and request id. They stay in memory and are written to
//! `<work>/<workload>-seed<N>-spans.jsonl` when the run ends. A span's
//! self time is its duration minus the time its children cover.
//!
//! The replay has three parts, each on the workload's own inputs:
//! * CLI: `nfd::cli::run` in-process per request, then the same request
//!   split into its layer calls (parse, compile or thaw, query, check),
//!   and a few real processes for the process overhead;
//! * wire: an in-process `Server` around the `Registry` (the handler
//!   `nfdtool serve` runs), TCP clients timing each round trip, and the
//!   handler timing `Registry::handle`;
//! * session: the same goals against a locally compiled `Session`
//!   (resident and per-query paths, batch, keys, closure, snapshot
//!   encode/decode/thaw, delta add/drop).
//!
//! `cli_wide` replays its whole stream through the CLI part and probes
//! the wire with a short IMPLIES stream; `serve_read` replays its
//! nominal streams through the wire part and its `check` requests
//! through the CLI part.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nfd::core::nfd::parse_set;
use nfd::core::{EmptySetPolicy, Nfd, Tier, TierPreference};
use nfd::govern::Budget;
use nfd::model::{Instance, Label, Schema};
use nfd::net::{Command, Handler, Response, Server, ServerConfig};
use nfd::path::{Path as NPath, RootedPath};
use nfd::serve::{Registry, RegistryConfig};
use nfd::session::Session;

use crate::cli_wide;
use crate::gen;
use crate::serve::{self, Kind as WKind, Shape};
use crate::util::{self, median, ms, Report};
use crate::wire::{self, Conn};
use crate::{Outcome, Tally};

/// Per-layer metrics, every one reported by every workload's traced
/// run. See `perfbench/README.md` for what each should move.
pub const PER_LAYER: [&str; 36] = [
    "model.parse_ms",
    "engine.saturate_ms",
    "engine.pool_deps",
    "session.rebuild_ms",
    "session.resident_query_us",
    "session.batch_us",
    "session.keys_ms",
    "session.keys_memo_hit_ratio",
    "session.fallback_share",
    "session.exhausted_share",
    "select.tier_naive_share",
    "select.tier_indexed_share",
    "select.tier_dense_share",
    "select.dense_promotions",
    "kernel.cache_hit_ratio",
    "registry.shared_cache_hit_ratio",
    "snap.encode_ms",
    "snap.image_bytes",
    "snap.decode_ms",
    "snap.thaw_ms",
    "delta.add_ms",
    "delta.drop_ms",
    "delta.pool_delta",
    "delta.overdeleted",
    "registry.epoch_swaps",
    "satisfy.check_ms",
    "cli.inproc_ms",
    "cli.process_overhead_ms",
    "proto.parse_us",
    "gate.shed",
    "registry.hop_us",
    "registry.worker_queue_depth",
    "wire.self_ms",
    "wire.connect_ms",
    "loadgen.lateness_ms",
    "trace.overhead_ratio",
];

/// Requests per client in the traced wire replay of `serve_read`: more
/// than its share of the run sends at today's ~44 ms per reply.
const TRACED_STREAM_LEN: usize = 600;

struct Span {
    name: &'static str,
    detail: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span log.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    next_req: AtomicU64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_req: AtomicU64::new(1),
        }
    }

    fn req(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span; parents are linked after the run.
    fn record(&self, name: &'static str, detail: &str, req: u64, start: Instant, end: Instant) {
        self.spans
            .lock()
            .expect("no panics while recording")
            .push(Span {
                name,
                detail: detail.to_string(),
                start: start - self.t0,
                end: end - self.t0,
                parent: None,
                req,
            });
    }

    /// Runs `f` inside a span.
    fn span<T>(&self, name: &'static str, detail: &str, req: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, detail, req, start, Instant::now());
        out
    }

    /// Durations (ms) of spans named `name` whose detail matches.
    fn ms(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        let spans = self.spans.lock().expect("no panics while recording");
        spans
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(|s| ms(s.end - s.start))
            .collect()
    }

    /// `(detail, duration ms)` of spans named `name`.
    fn ms_detailed(&self, name: &str) -> Vec<(String, f64)> {
        let spans = self.spans.lock().expect("no panics while recording");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.detail.clone(), ms(s.end - s.start)))
            .collect()
    }

    /// Self time (ms) of every span: its duration minus the union of its
    /// children's intervals.
    fn self_times(&self) -> Vec<f64> {
        let spans = self.spans.lock().expect("no panics while recording");
        let mut kids: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, k)| {
                k.sort();
                let (mut covered, mut reach) = (Duration::ZERO, s.start);
                for &(a, b) in k.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                ms((s.end - s.start).saturating_sub(covered))
            })
            .collect()
    }

    fn dump(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no panics while recording");
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"detail\": \"{}\", \"req\": {}, \"parent\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name,
                util::esc(&s.detail),
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        std::fs::write(path, out)
    }
}

/// The `Registry` with `handle` timed: the handler `nfdtool serve` runs.
struct TracedHandler {
    inner: Registry,
    tr: Arc<Tracer>,
    on: Arc<AtomicBool>,
}

impl Handler for TracedHandler {
    fn handle(&self, cmd: Command) -> Response {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.handle(cmd);
        }
        let verb = cmd.verb();
        let start = Instant::now();
        let r = self.inner.handle(cmd);
        self.tr
            .record("registry.handle", verb, 0, start, Instant::now());
        r
    }

    fn stats_line(&self) -> String {
        self.inner.stats_line()
    }

    fn on_shutdown(&self) {
        self.inner.on_shutdown()
    }
}

/// An in-process server with the daemon's default configuration.
struct InProc {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
    on: Arc<AtomicBool>,
}

impl InProc {
    fn start(tr: &Arc<Tracer>) -> Result<InProc, String> {
        let on = Arc::new(AtomicBool::new(true));
        let registry = Registry::new(RegistryConfig {
            max_resident: 8,
            default_quota: None,
            query_budget: None,
            request_timeout_ms: 30_000,
            workers: 0,
        });
        let handler = TracedHandler {
            inner: registry,
            tr: Arc::clone(tr),
            on: Arc::clone(&on),
        };
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), handler)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let thread = std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok(InProc { addr, thread, on })
    }

    fn stop(self) {
        let _ = Conn::connect(self.addr).and_then(|mut c| c.request("SHUTDOWN"));
        let _ = self.thread.join();
    }
}

/// Samples and counts gathered across the three parts.
#[derive(Default)]
struct Acc {
    decisions: usize,
    fallback: usize,
    exhausted: usize,
    tiers: [usize; 3],
    cache: (u64, u64),
    keys_calls: u64,
    keys_hits: u64,
    pool_deps: usize,
    image_bytes: usize,
    pool_delta: Vec<f64>,
    overdeleted: Vec<f64>,
    dense_promotions: usize,
    lateness: Vec<f64>,
    process_ms: Vec<f64>,
    stats_before: String,
    stats_after: String,
    depth_max: f64,
    overhead: Vec<f64>,
}

impl Acc {
    fn decision(&mut self, d: &nfd::session::Decision) {
        self.decisions += 1;
        if d.verdict.as_bool().is_none() {
            self.exhausted += 1;
        } else if d.answered_by() != Some("saturation") {
            self.fallback += 1;
        }
        match d.tier {
            Some(Tier::Naive) => self.tiers[0] += 1,
            Some(Tier::Indexed) => self.tiers[1] += 1,
            Some(Tier::Dense) => self.tiers[2] += 1,
            None => {}
        }
    }
}

fn budget() -> Budget {
    Budget::standard()
}

/// One schema and Σ, compiled locally and exercised layer by layer:
/// parse, compile, resident and per-query implication, batch, closure,
/// keys, snapshot encode/decode/thaw, and delta add/drop.
struct Layered<'a> {
    tr: &'a Tracer,
    acc: &'a mut Acc,
}

impl Layered<'_> {
    #[allow(clippy::too_many_arguments)]
    /// `tag` labels the spans: `main` for the workload's wide Σ, else
    /// `nested` or `scratch`.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        tag: &str,
        schema_src: &str,
        deps_src: &str,
        goals: &[String],
        closures: &[(String, Vec<String>)],
        keys: Option<&str>,
        writes: &[String],
        rebuilds: usize,
    ) -> Result<(), String> {
        let tr = self.tr;
        let req = tr.req();
        let (schema, sigma) = tr.span("model.parse", tag, req, || {
            let schema = Schema::parse(schema_src).map_err(|e| e.to_string())?;
            let sigma = parse_set(&schema, deps_src).map_err(|e| e.to_string())?;
            Ok::<_, String>((schema, sigma))
        })?;
        let session = tr
            .span("engine.saturate", tag, req, || {
                Session::with_tiers(
                    &schema,
                    &sigma,
                    EmptySetPolicy::Forbidden,
                    budget(),
                    TierPreference::Auto,
                )
            })
            .map_err(|e| e.to_string())?;
        self.acc.pool_deps = self.acc.pool_deps.max(session.engine().pool_size());
        let goals: Vec<Nfd> = goals
            .iter()
            .map(|g| Nfd::parse(&schema, g).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        for g in &goals {
            let d = tr
                .span("session.resident_query", "implies", tr.req(), || {
                    session.implies_with_resident(g, &budget())
                })
                .map_err(|e| e.to_string())?;
            self.acc.decision(&d);
        }
        for g in goals.iter().take(rebuilds) {
            let r = tr.req();
            tr.span("session.implies_with", "implies", r, || {
                session.implies_with(g, &budget())
            })
            .map_err(|e| e.to_string())?;
            tr.span("session.resident_pair", "implies", r, || {
                session.implies_with_resident(g, &budget())
            })
            .map_err(|e| e.to_string())?;
        }
        for chunk in goals.chunks(8).filter(|c| c.len() == 8) {
            let b = tr
                .span("session.batch", "batch", tr.req(), || {
                    session.implies_batch_resident(chunk, &budget(), 0)
                })
                .map_err(|e| e.to_string())?;
            for d in b.decisions.iter().flatten() {
                self.acc.decision(d);
            }
        }
        for (base, lhs) in closures {
            let base = RootedPath::parse(base).map_err(|e| e.to_string())?;
            let lhs: Vec<NPath> = lhs
                .iter()
                .map(|p| NPath::parse(p).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            tr.span("session.closure", "closure", tr.req(), || {
                session.closure(&base, &lhs)
            })
            .map_err(|e| e.to_string())?;
        }
        if let Some(rel) = keys {
            for _ in 0..2 {
                self.acc.keys_calls += 1;
                tr.span("session.keys", "keys", tr.req(), || {
                    session.candidate_keys(Label::new(rel), 4)
                })
                .map_err(|e| e.to_string())?;
            }
            self.acc.keys_hits += session.keys_memo_hits();
        }
        let stats = session.cache_stats();
        self.acc.cache.0 += stats.hits;
        self.acc.cache.1 += stats.misses;
        self.acc.dense_promotions += schema
            .relation_names()
            .filter(|l| session.select_state().dense_built(*l))
            .count();

        // Snapshot round trip, as a warm start or an epoch swap does it.
        let bytes = tr.span("snap.encode", tag, req, || {
            nfd::snap::encode(&session.freeze())
        });
        self.acc.image_bytes = self.acc.image_bytes.max(bytes.len());
        let image = tr
            .span("snap.decode", tag, req, || nfd::snap::decode(&bytes))
            .map_err(|e| e.to_string())?;
        let mut thawed = tr
            .span("snap.thaw", tag, req, || {
                Session::thaw(
                    &schema,
                    &sigma,
                    EmptySetPolicy::Forbidden,
                    budget(),
                    TierPreference::Auto,
                    &image,
                )
            })
            .map_err(|e| e.to_string())?;

        // Delta maintenance: add then drop each write dependency.
        for w in writes {
            let d = Nfd::parse(&schema, w).map_err(|e| e.to_string())?;
            let add = tr
                .span("delta.add", tag, req, || {
                    thawed.add_deps(std::slice::from_ref(&d))
                })
                .map_err(|e| e.to_string())?;
            let drop = tr
                .span("delta.drop", tag, req, || {
                    thawed.remove_deps(std::slice::from_ref(&d))
                })
                .map_err(|e| e.to_string())?;
            for r in &add {
                self.acc
                    .pool_delta
                    .push(r.pool_after as f64 - r.pool_before as f64);
            }
            for r in &drop {
                self.acc.overdeleted.push(r.overdeleted as f64);
            }
        }
        drop(session);
        Ok(())
    }
}

/// Runs one `nfdtool` request in-process and as its layer calls.
fn cli_request(
    tr: &Tracer,
    acc: &mut Acc,
    op: &cli_wide::Op,
    files: &cli_wide::Files,
) -> Result<Outcome, String> {
    let req = tr.req();
    let kind = cli_wide::metric_of(op.kind);
    let start = Instant::now();
    let mut out = String::new();
    let code = nfd::cli::run(&op.args, &mut out);
    tr.record("cli.run", kind, req, start, Instant::now());
    let outcome = if code != op.code {
        Outcome::Failed(format!("{kind} exited {code}"))
    } else if cli_wide::answer(op.kind, &out) != op.expect {
        Outcome::Wrong(format!(
            "in-process {kind} answered `{}`, oracle says `{}`",
            cli_wide::answer(op.kind, &out),
            op.expect
        ))
    } else {
        Outcome::Ok
    };

    // The same request, split into its layer calls.
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (schema_path, deps_path) = match op.kind {
        cli_wide::Kind::Check | cli_wide::Kind::Connect => {
            (&files.course_schema, &files.course_deps)
        }
        _ => (&files.wide_schema, &files.wide_deps),
    };
    let (s_src, d_src) = (read(schema_path)?, read(deps_path)?);
    let (schema, sigma) = tr.span("model.parse", kind, req, || {
        let schema = Schema::parse(&s_src).map_err(|e| e.to_string())?;
        let sigma = parse_set(&schema, &d_src).map_err(|e| e.to_string())?;
        Ok::<_, String>((schema, sigma))
    })?;
    let arg_after = |flag: &str| {
        op.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| op.args.get(i + 1))
            .cloned()
    };
    match op.kind {
        cli_wide::Kind::Check => {
            let inst_src = read(&files.instance)?;
            let inst = Instance::parse(&schema, &inst_src).map_err(|e| e.to_string())?;
            tr.span("satisfy.check", kind, req, || {
                sigma
                    .iter()
                    .map(|n| nfd::core::check(&schema, &inst, n).map(|r| r.holds))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        }
        cli_wide::Kind::Warm | cli_wide::Kind::Write => {
            let bytes = std::fs::read(&files.snapshot).map_err(|e| e.to_string())?;
            let image = tr
                .span("snap.decode", kind, req, || nfd::snap::decode(&bytes))
                .map_err(|e| e.to_string())?;
            let mut session = tr
                .span("snap.thaw", kind, req, || {
                    Session::thaw(
                        &schema,
                        &sigma,
                        EmptySetPolicy::Forbidden,
                        budget(),
                        TierPreference::Auto,
                        &image,
                    )
                })
                .map_err(|e| e.to_string())?;
            if op.kind == cli_wide::Kind::Warm {
                let goal = Nfd::parse(&schema, op.args.last().expect("goal"))
                    .map_err(|e| e.to_string())?;
                let d = tr
                    .span("session.implies_with", kind, req, || {
                        session.implies_with(&goal, &budget())
                    })
                    .map_err(|e| e.to_string())?;
                acc.decision(&d);
            } else {
                let (flag, name) = if let Some(d) = arg_after("--add-dep") {
                    (d, "delta.add")
                } else {
                    (
                        arg_after("--drop-dep").expect("a write adds or drops"),
                        "delta.drop",
                    )
                };
                let dep = Nfd::parse(&schema, &flag).map_err(|e| e.to_string())?;
                let reports = tr
                    .span(name, kind, req, || {
                        if name == "delta.add" {
                            session.add_deps(std::slice::from_ref(&dep))
                        } else {
                            session.remove_deps(std::slice::from_ref(&dep))
                        }
                    })
                    .map_err(|e| e.to_string())?;
                for r in &reports {
                    if name == "delta.add" {
                        acc.pool_delta
                            .push(r.pool_after as f64 - r.pool_before as f64);
                    } else {
                        acc.overdeleted.push(r.overdeleted as f64);
                    }
                }
            }
        }
        _ => {
            let session = tr
                .span("engine.saturate", kind, req, || {
                    Session::with_tiers(
                        &schema,
                        &sigma,
                        EmptySetPolicy::Forbidden,
                        budget(),
                        TierPreference::Auto,
                    )
                })
                .map_err(|e| e.to_string())?;
            acc.pool_deps = acc.pool_deps.max(session.engine().pool_size());
            match op.kind {
                cli_wide::Kind::Implies | cli_wide::Kind::Connect => {
                    let goal = Nfd::parse(&schema, op.args.last().expect("goal"))
                        .map_err(|e| e.to_string())?;
                    let d = tr
                        .span("session.implies_with", kind, req, || {
                            session.implies_with(&goal, &budget())
                        })
                        .map_err(|e| e.to_string())?;
                    acc.decision(&d);
                    tr.span("session.resident_pair", kind, req, || {
                        session.implies_with_resident(&goal, &budget())
                    })
                    .map_err(|e| e.to_string())?;
                }
                cli_wide::Kind::Closure => {
                    let lhs: Vec<NPath> = arg_after("--lhs")
                        .unwrap_or_default()
                        .split(',')
                        .map(|p| NPath::parse(p).map_err(|e| e.to_string()))
                        .collect::<Result<_, _>>()?;
                    let base = RootedPath::parse("R").map_err(|e| e.to_string())?;
                    tr.span("session.closure", kind, req, || {
                        session.closure(&base, &lhs)
                    })
                    .map_err(|e| e.to_string())?;
                }
                cli_wide::Kind::Keys => {
                    acc.keys_calls += 1;
                    tr.span("session.keys", kind, req, || {
                        session.candidate_keys_threaded(Label::new("R"), 4, 0)
                    })
                    .map_err(|e| e.to_string())?;
                    acc.keys_hits += session.keys_memo_hits();
                }
                cli_wide::Kind::Batch => {
                    let text = read(&arg_after("--goals").expect("goals file"))?;
                    let goals = parse_set(&schema, &text).map_err(|e| e.to_string())?;
                    let b = tr
                        .span("session.batch", kind, req, || {
                            session.implies_batch(&goals, &budget(), 0)
                        })
                        .map_err(|e| e.to_string())?;
                    for d in b.decisions.iter().flatten() {
                        acc.decision(d);
                    }
                }
                _ => {}
            }
            let stats = session.cache_stats();
            acc.cache.0 += stats.hits;
            acc.cache.1 += stats.misses;
        }
    }
    Ok(outcome)
}

/// Streams of wire requests with expected answers, replayed by
/// back-to-back clients against the in-process server.
struct WireReplay<'a> {
    tr: &'a Tracer,
    server: &'a InProc,
}

impl WireReplay<'_> {
    /// `LOAD` every tenant; returns false on a refused load.
    fn load(&self, tenants: &[serve::Tenant]) -> Result<(), String> {
        let mut c = Conn::connect(self.server.addr).map_err(|e| e.to_string())?;
        for t in tenants {
            let r = self.round_trip(&mut c, &t.load_line(), "LOAD")?;
            if !r.starts_with("OK loaded") {
                return Err(format!("LOAD {}: {r}", t.name));
            }
        }
        Ok(())
    }

    fn round_trip(&self, c: &mut Conn, line: &str, verb: &str) -> Result<String, String> {
        let req = self.tr.req();
        let cmd = self
            .tr
            .span("proto.parse", verb, req, || Command::parse(line));
        if let Err(e) = cmd {
            return Err(format!("unparsable request `{line}`: {e}"));
        }
        let sent = Instant::now();
        let reply = c.request(line).map_err(|e| e.to_string())?;
        self.tr.record("wire.rtt", verb, req, sent, Instant::now());
        Ok(reply)
    }

    /// One back-to-back client per stream, each on its own persistent
    /// connection, for `budget_s` seconds or to the end of its stream.
    fn run(
        &self,
        streams: &[Vec<serve::Op>],
        budget_s: f64,
        acc: &Mutex<Acc>,
        tally: &Mutex<Tally>,
    ) {
        let pool: Vec<Mutex<Option<Conn>>> = streams
            .iter()
            .map(|_| Mutex::new(Conn::connect(self.server.addr).ok()))
            .collect();
        let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
        let abort = AtomicBool::new(false);
        let end = Instant::now() + Duration::from_secs_f64(budget_s);
        let log = wire::closed_loop(&lens, end, |w, i| {
            if abort.load(Ordering::SeqCst) {
                return None;
            }
            let op = &streams[w][i];
            let sent = Instant::now();
            let outcome = {
                let mut guard = pool[w].lock().expect("one request per connection");
                match guard.as_mut() {
                    None => Outcome::Failed("no connection".to_string()),
                    Some(c) => match self.round_trip(c, &op.line, op.kind.verb()) {
                        Ok(r) => serve::judge(op, &r),
                        Err(e) => Outcome::Failed(e),
                    },
                }
            };
            let done = Instant::now();
            let mut t = tally.lock().expect("tally");
            t.attempted += 1;
            match outcome {
                Outcome::Ok => {}
                Outcome::Failed(why) => t.fail(why),
                Outcome::Wrong(why) => {
                    t.wrong(why);
                    abort.store(true, Ordering::SeqCst);
                }
            }
            Some((sent, done))
        });
        // The client's own turnaround: from a reply to the next send.
        let mut a = acc.lock().expect("acc");
        for client in &log {
            a.lateness.extend(
                client
                    .windows(2)
                    .map(|p| ms(p[1].0.saturating_duration_since(p[0].1))),
            );
        }
    }
}

fn check_inproc(tr: &Tracer, inp: &serve::Inputs, args: &[String]) -> Outcome {
    let req = tr.req();
    let start = Instant::now();
    let mut out = String::new();
    let code = nfd::cli::run(args, &mut out);
    tr.record("cli.run", "check", req, start, Instant::now());
    serve::check_answer(inp, code, &out)
}

/// Links each `registry.handle` span to the client round trip of the
/// same verb that contains it (earliest first), so the round trip's self
/// time is the wire's share.
fn link_handles(tr: &Tracer) {
    let mut spans = tr.spans.lock().expect("no panics while recording");
    let mut rtts: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "wire.rtt")
        .collect();
    rtts.sort_by_key(|&i| spans[i].start);
    let mut taken = vec![false; spans.len()];
    let handles: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "registry.handle")
        .collect();
    for h in handles {
        let (hs, he) = (spans[h].start, spans[h].end);
        if let Some(&r) = rtts.iter().find(|&&r| {
            !taken[r]
                && spans[r].detail == spans[h].detail
                && spans[r].start <= hs
                && he <= spans[r].end
        }) {
            taken[r] = true;
            spans[h].parent = Some(r);
            spans[h].req = spans[r].req;
        }
    }
}

pub fn run(workload: &str, work: &Path, seed: u64, seconds: u64, rep: &mut Report) -> Tally {
    let tr = Arc::new(Tracer::new());
    let acc = Mutex::new(Acc::default());
    let tally = Mutex::new(Tally::default());
    let secs = seconds as f64;
    let result = match workload {
        "cli_wide" => run_cli(&tr, work, seed, secs, &acc, &tally),
        _ => run_serve(&tr, work, seed, secs, &acc, &tally),
    };
    let mut tally = tally.into_inner().expect("workers joined");
    if let Err(e) = result {
        return Tally::broken(e);
    }
    link_handles(&tr);
    let acc = acc.into_inner().expect("workers joined");
    report(&tr, &acc, rep);
    rep.fact("mode", "in-process replay with spans");
    let spans = work.join(format!("{workload}-seed{seed}-spans.jsonl"));
    if let Err(e) = tr.dump(&spans) {
        tally.notes.push(format!("span dump: {e}"));
    }
    rep.fact("spans_file", spans.display());
    tally
}

fn run_cli(
    tr: &Arc<Tracer>,
    work: &Path,
    seed: u64,
    secs: f64,
    acc: &Mutex<Acc>,
    tally: &Mutex<Tally>,
) -> Result<(), String> {
    let mut inp = cli_wide::inputs(seed);
    let files = cli_wide::setup(crate::nfdtool(), &work.join("traced-cli_wide"), &inp)?;
    let start = Instant::now();
    let mut block = 0;
    let mut a = acc.lock().expect("acc");
    let mut connect_ops = Vec::new();
    while block == 0 || start.elapsed().as_secs_f64() < secs * 0.7 {
        let ops = cli_wide::block(&mut inp, &files);
        block += 1;
        for op in ops {
            let outcome = cli_request(tr, &mut a, &op, &files)?;
            let mut t = tally.lock().expect("tally");
            t.attempted += 1;
            match outcome {
                Outcome::Ok => {}
                Outcome::Failed(w) => t.fail(w),
                Outcome::Wrong(w) => {
                    t.wrong(w);
                    return Ok(());
                }
            }
            if op.kind == cli_wide::Kind::Connect {
                connect_ops.push(op);
            }
        }
    }
    // Process overhead: the tiny `implies` as a real process.
    for op in connect_ops.iter().take(8) {
        if let Ok(out) = util::run(crate::nfdtool(), &op.args) {
            a.process_ms.push(ms(out.wall));
        }
    }
    let tenant = serve::Tenant {
        name: "wide",
        schema: inp.flat.schema_src(),
        deps: inp.flat.deps_src(),
        shape: Shape::Scratch,
    };
    // Layer calls on a resident session of the same Σ, and a short wire
    // probe: this workload never reaches them, but every workload
    // reports every layer.
    let goals: Vec<String> = (0..32)
        .map(|_| inp.pool.draw(&mut inp.rng, 0.5).text())
        .collect();
    let writes: Vec<String> = inp.flat.write_pool().iter().map(|d| d.text()).collect();
    let closures = (0..8)
        .map(|_| {
            let lhs = inp.pool.closure_lhs(&mut inp.rng);
            (
                "R".to_string(),
                lhs.iter().map(|a| format!("a{a}")).collect(),
            )
        })
        .collect::<Vec<_>>();
    Layered { tr, acc: &mut a }.run(
        "main",
        &tenant.schema,
        &tenant.deps,
        &goals,
        &closures,
        Some("R"),
        &writes[..1],
        2,
    )?;
    drop(a);
    let mut streams: Vec<Vec<serve::Op>> = (0..serve::read_conns()).map(|_| Vec::new()).collect();
    for (i, g) in goals.iter().enumerate() {
        let yes = inp.flat.implies(&serve::parse_flat(g));
        let n = streams.len();
        streams[i % n].push(serve::Op {
            kind: WKind::Implies,
            line: format!("IMPLIES wide {g}"),
            expect: if yes { "implied" } else { "not-implied" }.to_string(),
            implied: Some(yes),
        });
    }
    wire_part(tr, &[tenant], &streams, secs * 0.2, acc, tally)
}

/// Starts the in-process server, loads `tenants`, replays `streams`
/// with one back-to-back client each, runs one-shot probes, measures the
/// handler-tracing overhead, and collects the STATS deltas.
fn wire_part(
    tr: &Arc<Tracer>,
    tenants: &[serve::Tenant],
    streams: &[Vec<serve::Op>],
    budget_s: f64,
    acc: &Mutex<Acc>,
    tally: &Mutex<Tally>,
) -> Result<(), String> {
    let server = InProc::start(tr)?;
    let replay = WireReplay {
        tr,
        server: &server,
    };
    replay.load(tenants)?;
    let mut admin = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    for t in tenants
        .iter()
        .filter(|t| matches!(t.shape, Shape::Flat(..)))
    {
        let _ = admin.request(&format!("KEYS {} R", t.name));
    }
    acc.lock().expect("acc").stats_before = admin.request("STATS").unwrap_or_default();
    replay.run(streams, budget_s, acc, tally);
    acc.lock().expect("acc").depth_max = admin
        .request("STATS")
        .ok()
        .and_then(|r| wire::stat(&r, "worker_queue_depth"))
        .unwrap_or(0.0);

    // Tracing overhead: the same IMPLIES requests, handler untraced then
    // traced, on one connection.
    let implies: Vec<&serve::Op> = streams
        .iter()
        .flatten()
        .filter(|o| matches!(o.kind, WKind::Implies | WKind::Warm))
        .take(40)
        .collect();
    let mut c = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let mut pass = |on: bool| -> Vec<f64> {
        server.on.store(on, Ordering::SeqCst);
        implies
            .iter()
            .filter_map(|o| {
                std::thread::sleep(Duration::from_millis(90));
                let t = Instant::now();
                c.request(&o.line).ok().map(|_| ms(t.elapsed()))
            })
            .collect()
    };
    let off = pass(false);
    let on = pass(true);
    if let (Some(off), Some(on)) = (median(&off), median(&on)) {
        acc.lock().expect("acc").overhead.push(on / off);
    }

    // One-shot probes: connect, one IMPLIES, reply.
    for (i, op) in implies.iter().take(12).enumerate() {
        std::thread::sleep(Duration::from_millis(7 + (i as u64 * 13) % 50));
        let req = tr.req();
        let start = Instant::now();
        let r = Conn::connect(server.addr).and_then(|mut c| c.request(&op.line));
        tr.record("wire.connect", "IMPLIES", req, start, Instant::now());
        if !r.is_ok_and(|r| matches!(serve::judge(op, &r), Outcome::Ok)) {
            tally
                .lock()
                .expect("tally")
                .fail(format!("one-shot `{}` failed", op.line));
        }
    }
    acc.lock().expect("acc").stats_after = admin.request("STATS").unwrap_or_default();
    drop(admin);
    server.stop();
    Ok(())
}

fn run_serve(
    tr: &Arc<Tracer>,
    work: &Path,
    seed: u64,
    secs: f64,
    acc: &Mutex<Acc>,
    tally: &Mutex<Tally>,
) -> Result<(), String> {
    let mut inp = serve::inputs(seed);
    let streams = inp.streams(serve::read_conns(), TRACED_STREAM_LEN);
    let files = serve::check_files(&work.join("traced-serve_read"), &inp)?;

    // Wire part: the nominal streams, scratch-tenant writes included
    // (their replies carry the delta counts).
    wire_part(tr, &inp.tenants, &streams, secs * 0.6, acc, tally)?;
    let ops: Vec<&serve::Op> = streams.iter().flatten().collect();

    // Session part: the same goals and closures against local sessions.
    let mut a = acc.lock().expect("acc");
    for t in &inp.tenants {
        let mine: Vec<&serve::Op> = ops
            .iter()
            .copied()
            .filter(|o| o.line.split_whitespace().nth(1) == Some(t.name))
            .collect();
        let goals: Vec<String> = mine
            .iter()
            .flat_map(|o| match o.kind {
                WKind::Implies | WKind::Warm | WKind::Connect => {
                    vec![o.line.splitn(3, ' ').nth(2).unwrap_or_default().to_string()]
                }
                WKind::Batch => o
                    .line
                    .splitn(3, ' ')
                    .nth(2)
                    .unwrap_or_default()
                    .split(';')
                    .map(str::trim)
                    .filter(|g| !g.is_empty())
                    .map(String::from)
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        let closures: Vec<(String, Vec<String>)> = mine
            .iter()
            .filter(|o| o.kind == WKind::Closure)
            .map(|o| {
                let mut w = o.line.split_whitespace().skip(2);
                let base = w.next().unwrap_or("R").to_string();
                let lhs = w
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .map(String::from)
                    .collect();
                (base, lhs)
            })
            .collect();
        let (keys, writes, rebuilds) = match &t.shape {
            Shape::Flat(..) => (Some("R"), Vec::new(), 1),
            Shape::Scratch => (
                None,
                gen::COURSE_WRITES.iter().map(|s| s.to_string()).collect(),
                0,
            ),
            Shape::Nested(_) => (None, Vec::new(), 0),
        };
        let tag = match t.shape {
            Shape::Flat(..) => "main",
            Shape::Nested(_) => "nested",
            Shape::Scratch => "scratch",
        };
        Layered { tr, acc: &mut a }.run(
            tag, &t.schema, &t.deps, &goals, &closures, keys, &writes, rebuilds,
        )?;
    }
    // The check probe, in-process and as a process, for the overhead.
    for _ in 0..4 {
        if let Outcome::Wrong(why) = check_inproc(tr, &inp, &files) {
            tally.lock().expect("tally").wrong(why);
        }
        if let Ok(out) = util::run(crate::nfdtool(), &files) {
            a.process_ms.push(ms(out.wall));
        }
    }
    // Satisfy layer on the probe's instance.
    let schema = Schema::parse(gen::COURSE_SCHEMA).map_err(|e| e.to_string())?;
    let sigma = parse_set(&schema, gen::COURSE_DEPS).map_err(|e| e.to_string())?;
    let inst = Instance::parse(&schema, &inp.instance).map_err(|e| e.to_string())?;
    for _ in 0..4 {
        tr.span("satisfy.check", "check", tr.req(), || {
            sigma
                .iter()
                .map(|n| nfd::core::check(&schema, &inst, n).map(|r| r.holds))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn report(tr: &Tracer, acc: &Acc, rep: &mut Report) {
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    // Compile, snapshot and delta figures for the workload's wide Σ; the
    // small schemas only where no wide one took that path.
    let main = |name: &str| -> f64 {
        let minor = ["nested", "scratch", "connect", "check"];
        let all = tr.ms_detailed(name);
        let wide: Vec<f64> = all
            .iter()
            .filter(|(d, _)| !minor.contains(&d.as_str()))
            .map(|(_, t)| *t)
            .collect();
        if wide.is_empty() {
            med(all.into_iter().map(|(_, t)| t).collect())
        } else {
            med(wide)
        }
    };
    let share = |n: usize, d: usize| n as f64 / d.max(1) as f64;
    rep.put(
        "model.parse_ms",
        main("model.parse"),
        "ms",
        "Schema::parse + parse_set",
    );
    rep.put(
        "engine.saturate_ms",
        main("engine.saturate"),
        "ms",
        "Session::with_tiers (interning + saturation)",
    );
    rep.put(
        "engine.pool_deps",
        acc.pool_deps as f64,
        "count",
        "saturated pool size, largest Σ",
    );
    let rebuild = med(tr.ms("session.implies_with", Some("implies")))
        - med(tr.ms("session.resident_pair", Some("implies")));
    let rebuild = if rebuild == 0.0 {
        med(tr.ms("session.implies_with", None)) - med(tr.ms("session.resident_pair", None))
    } else {
        rebuild
    };
    rep.put(
        "session.rebuild_ms",
        rebuild,
        "ms",
        "implies_with minus implies_with_resident, same goals",
    );
    let resident = med(tr.ms("session.resident_query", None));
    rep.put(
        "session.resident_query_us",
        resident * 1e3,
        "us",
        "implies_with_resident",
    );
    rep.put(
        "session.batch_us",
        med(tr.ms("session.batch", None)) * 1e3,
        "us",
        "batch of 8 (resident) or the --goals file",
    );
    rep.put(
        "session.keys_ms",
        med(tr.ms("session.keys", None)),
        "ms",
        "candidate_keys, size <= 4",
    );
    rep.put(
        "session.keys_memo_hit_ratio",
        acc.keys_hits as f64 / acc.keys_calls.max(1) as f64,
        "share",
        "keys_memo_hits over candidate_keys calls",
    );
    rep.put(
        "session.fallback_share",
        share(acc.fallback, acc.decisions),
        "share",
        "decisions not answered by saturation",
    );
    rep.put(
        "session.exhausted_share",
        share(acc.exhausted, acc.decisions),
        "share",
        "decisions without a verdict",
    );
    let tiers: usize = acc.tiers.iter().sum();
    for (i, name) in ["naive", "indexed", "dense"].iter().enumerate() {
        rep.put(
            &format!("select.tier_{name}_share"),
            share(acc.tiers[i], tiers),
            "share",
            format!("of {tiers} decisions that chained"),
        );
    }
    rep.put(
        "select.dense_promotions",
        acc.dense_promotions as f64,
        "count",
        "relations with a dense closure built",
    );
    rep.put(
        "kernel.cache_hit_ratio",
        acc.cache.0 as f64 / (acc.cache.0 + acc.cache.1).max(1) as f64,
        "share",
        format!(
            "closure cache {}/{}",
            acc.cache.0,
            acc.cache.0 + acc.cache.1
        ),
    );
    let delta = |k: &str| {
        wire::stat(&acc.stats_after, k).unwrap_or(0.0)
            - wire::stat(&acc.stats_before, k).unwrap_or(0.0)
    };
    let (sh, sm) = (delta("shared_cache_hits"), delta("shared_cache_misses"));
    rep.put(
        "registry.shared_cache_hit_ratio",
        if sh + sm > 0.0 { sh / (sh + sm) } else { 0.0 },
        "share",
        format!("STATS shared_cache_hits/misses delta {sh}/{sm}"),
    );
    rep.put(
        "snap.encode_ms",
        main("snap.encode"),
        "ms",
        "freeze + encode",
    );
    rep.put(
        "snap.image_bytes",
        acc.image_bytes as f64,
        "bytes",
        "largest image",
    );
    rep.put(
        "snap.decode_ms",
        main("snap.decode"),
        "ms",
        "nfd::snap::decode",
    );
    rep.put("snap.thaw_ms", main("snap.thaw"), "ms", "Session::thaw");
    rep.put(
        "delta.add_ms",
        main("delta.add"),
        "ms",
        "Session::add_deps, one dep",
    );
    rep.put(
        "delta.drop_ms",
        main("delta.drop"),
        "ms",
        "Session::remove_deps, one dep",
    );
    rep.put(
        "delta.pool_delta",
        med(acc.pool_delta.clone()),
        "count",
        "pool_after - pool_before per add",
    );
    rep.put(
        "delta.overdeleted",
        med(acc.overdeleted.clone()),
        "count",
        "over-delete set per drop",
    );
    rep.put(
        "registry.epoch_swaps",
        delta("epoch_swaps"),
        "count",
        "STATS delta",
    );
    rep.put(
        "satisfy.check_ms",
        med(tr.ms("satisfy.check", None)),
        "ms",
        "nfd::core::check over every NFD",
    );
    let inproc = tr.ms("cli.run", None);
    rep.put("cli.inproc_ms", med(inproc), "ms", "nfd::cli::run");
    let small = tr.ms("cli.run", Some("connect"));
    let base = if small.is_empty() {
        tr.ms("cli.run", Some("check"))
    } else {
        small
    };
    rep.put(
        "cli.process_overhead_ms",
        med(acc.process_ms.clone()) - med(base),
        "ms",
        "process wall minus in-process time, same request",
    );
    rep.put(
        "proto.parse_us",
        med(tr.ms("proto.parse", None)) * 1e3,
        "us",
        "Command::parse",
    );
    rep.put("gate.shed", delta("shed"), "count", "STATS shed delta");
    let handle = med(tr.ms("registry.handle", Some("IMPLIES")));
    rep.put(
        "registry.hop_us",
        (handle - resident) * 1e3,
        "us",
        "Registry::handle(IMPLIES) minus implies_with_resident, medians",
    );
    rep.put(
        "registry.worker_queue_depth",
        acc.depth_max,
        "count",
        "STATS worker_queue_depth, end of replay",
    );
    let selfs = tr.self_times();
    let wire_self: Vec<f64> = {
        let spans = tr.spans.lock().expect("spans");
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "wire.rtt" && s.detail == "IMPLIES")
            .map(|(_, t)| *t)
            .collect()
    };
    rep.put(
        "wire.self_ms",
        med(wire_self),
        "ms",
        "IMPLIES round trip minus Registry::handle",
    );
    rep.put(
        "wire.connect_ms",
        med(tr.ms("wire.connect", None)) - handle,
        "ms",
        "one-shot connect + IMPLIES + reply, minus Registry::handle",
    );
    rep.put(
        "loadgen.lateness_ms",
        med(acc.lateness.clone()),
        "ms",
        "client turnaround: reply to the next send on the same connection",
    );
    rep.put(
        "trace.overhead_ratio",
        med(acc.overhead.clone()),
        "ratio",
        "median IMPLIES round trip, handler traced over untraced",
    );

    // Breakdown of the workload's own requests (not the layer probes):
    // CLI requests split into `cli.run`'s own share and the layer calls
    // replayed after it; wire requests (LOAD excluded) split into the
    // round trip's self time (wire), the handler's session work at the
    // medians measured locally (session), the rest of the handler
    // (registry), and mutations (delta: freeze, thaw, delta, swap).
    let spans = tr.spans.lock().expect("spans");
    let mut per: BTreeMap<&str, f64> = BTreeMap::new();
    let cli_reqs: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "cli.run")
        .map(|s| s.req)
        .collect();
    let session_med = |verb: &str| match verb {
        "IMPLIES" => resident,
        "BATCH" => med(tr_ms(&spans, "session.batch")),
        "CLOSURE" => med(tr_ms(&spans, "session.closure")),
        "KEYS" => med(tr_ms(&spans, "session.keys")),
        _ => 0.0,
    };
    for (s, t) in spans.iter().zip(&selfs) {
        match s.name {
            "cli.run" => *per.entry("cli").or_default() += t,
            _ if cli_reqs.contains(&s.req) => {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *per.entry(layer).or_default() += t;
                *per.entry("cli").or_default() -= t;
            }
            "wire.rtt" if s.detail != "LOAD" && s.detail != "STATS" => {
                *per.entry("wire").or_default() += t
            }
            "proto.parse" if s.detail != "LOAD" => *per.entry("proto").or_default() += t,
            "registry.handle" if s.detail == "ADDDEP" || s.detail == "DROPDEP" => {
                *per.entry("delta").or_default() += ms(s.end - s.start)
            }
            "registry.handle" if s.parent.is_some() && s.detail != "LOAD" => {
                let h = ms(s.end - s.start);
                let work = session_med(&s.detail).min(h);
                *per.entry("session").or_default() += work;
                *per.entry("registry").or_default() += h - work;
            }
            _ => {}
        }
    }
    let mut rows: Vec<(&str, f64)> = per.into_iter().map(|(l, t)| (l, t.max(0.0))).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rep.fact(
        "breakdown_ms",
        rows.iter()
            .map(|(l, t)| format!("{l}={t:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    rep.fact("dominant_layer", rows.first().map_or("none", |r| r.0));
    rep.fact(
        "not_measurable_from_outside",
        "gate.admit_wait_us: admission happens inside the server's connection thread between Command::parse and Handler::handle; no public call brackets it, so it is part of wire.self_ms",
    );
}

fn tr_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| ms(s.end - s.start))
        .collect()
}
