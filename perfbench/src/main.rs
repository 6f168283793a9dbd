//! End-to-end and per-layer benchmark of `nfdtool` and `nfdtool serve`.
//!
//! ```text
//! perfbench --nfdtool PATH --work DIR --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives the real binary (processes for
//! `cli_wide`, TCP clients of a daemon for `serve_read`)
//! and reports the end-to-end metrics; with `--trace 1` it replays the
//! same seeded stream in-process, timing the calls into each layer, and
//! reports the per-layer metrics. Every answer is checked against an
//! independent oracle. The last stdout line is the result object; the
//! lines before it carry each metric's percentile and sample count, the
//! traffic record and the environment. See `perfbench/README.md`.

mod cli_wide;
mod gen;
mod serve;
mod traced;
mod util;
mod wire;

use std::path::PathBuf;
use std::sync::OnceLock;

use util::Report;

/// End-to-end metrics, every one reported by every workload.
const END_TO_END: [&str; 15] = [
    "setup_s",
    "implies_p50_ms",
    "implies_tail_ms",
    "closure_p50_ms",
    "closure_tail_ms",
    "warm_implies_p50_ms",
    "check_p50_ms",
    "keys_p50_ms",
    "batch_p50_ms",
    "batch_tail_ms",
    "write_p50_ms",
    "write_tail_ms",
    "connect_p50_ms",
    "max_rate_rps",
    "peak_rss_mb",
];

/// How one request ended.
pub enum Outcome {
    Ok,
    /// Refused, timed out, errored or exited unexpectedly.
    Failed(String),
    /// Answered, but not what the oracle expects.
    Wrong(String),
}

/// Requests attempted and failed, and whether every answer was right.
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub notes: Vec<String>,
    /// Set-up failed: no result can be reported.
    pub broken: Option<String>,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
            broken: None,
        }
    }
}

impl Tally {
    pub fn broken(why: String) -> Tally {
        Tally {
            broken: Some(why),
            ..Tally::default()
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(format!("failed: {why}"));
        }
    }

    pub fn wrong(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("WRONG: {why}"));
    }
}

static NFDTOOL: OnceLock<String> = OnceLock::new();

/// Path of the binary under test.
pub fn nfdtool() -> &'static str {
    NFDTOOL.get().expect("set at start-up")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    nfdtool: String,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        nfdtool: get("--nfdtool")?,
        work: PathBuf::from(get("--work")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !std::path::Path::new(&args.nfdtool).is_file() {
        eprintln!("perfbench: no nfdtool binary at {}", args.nfdtool);
        std::process::exit(2);
    }
    NFDTOOL.set(args.nfdtool.clone()).expect("set once");
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        std::process::exit(2);
    }

    let mut rep = Report::default();
    rep.fact("workload", &args.workload);
    rep.fact("seed", args.seed);
    rep.fact("seconds", args.seconds);
    rep.fact("trace", if args.trace { "on" } else { "off" });
    rep.fact(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    rep.fact(
        "rustc",
        std::env::var("RUSTC_VERSION").unwrap_or_else(|_| "unknown".into()),
    );
    rep.fact("profile", "release");
    rep.fact("nfdtool_checksum", util::checksum(&args.nfdtool));

    let (w, seed, secs, work) = (args.workload.as_str(), args.seed, args.seconds, &args.work);
    let tally = match (w, args.trace) {
        ("cli_wide", false) => cli_wide::run(&args.nfdtool, work, seed, secs, &mut rep),
        ("serve_read", false) => serve::run(&args.nfdtool, work, seed, secs, &mut rep),
        ("cli_wide" | "serve_read", true) => traced::run(w, work, seed, secs, &mut rep),
        _ => {
            eprintln!("perfbench: unknown workload `{w}`");
            std::process::exit(2);
        }
    };
    if let Some(why) = &tally.broken {
        eprintln!("perfbench: set-up failed: {why}");
        std::process::exit(1);
    }
    let names: Vec<&str> = if args.trace {
        traced::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let missing: Vec<&&str> = names
        .iter()
        .filter(|n| !rep.metrics.contains_key(**n))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "perfbench: no samples for {missing:?}; notes: {:?}",
            tally.notes
        );
        std::process::exit(1);
    }
    rep.fact(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    for note in &tally.notes {
        eprintln!("perfbench: {note}");
    }

    for name in &names {
        let m = &rep.metrics[*name];
        println!("# {name:<34} {:>14.4} {:<6} {}", m.value, m.unit, m.note);
    }
    let detail = rep.detail_json();
    println!("# detail {detail}");
    let record = work.join(format!("{w}-seed{seed}-trace{}.json", u8::from(args.trace)));
    if let Err(e) = std::fs::write(&record, &detail) {
        eprintln!("perfbench: {}: {e}", record.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct,
        tally.attempted.max(1),
        tally.failed,
        rep.metrics_json(&names)
    );
    if !tally.correct {
        std::process::exit(1);
    }
}
