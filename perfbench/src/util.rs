//! Sample statistics, the result record, and child processes with their
//! resource usage.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Median of `xs` (lower-middle interpolated to the mean of the two
/// middle values); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`. Below 21 samples no percentile above the median
/// qualifies, so the median is reported with percentile 50.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 21 {
        return median(xs).map(|m| (m, 50.0));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported metric: value, unit, and how it was obtained.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Metrics in name order plus free-form facts about the run.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub facts: BTreeMap<String, String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                note: note.into(),
            },
        );
    }

    /// `<prefix>_p50_ms` and, when `with_tail`, `<prefix>_tail_ms`.
    pub fn latency(&mut self, prefix: &str, samples: &[f64], with_tail: bool) {
        let n = samples.len();
        if let Some(m) = median(samples) {
            let mut v = samples.to_vec();
            v.sort_by(f64::total_cmp);
            let q = |p: f64| v[((n - 1) as f64 * p).round() as usize];
            self.put(
                &format!("{prefix}_p50_ms"),
                m,
                "ms",
                format!(
                    "n={n} min={:.4} p25={:.4} p75={:.4} max={:.4}",
                    v[0],
                    q(0.25),
                    q(0.75),
                    v[n - 1]
                ),
            );
        }
        if with_tail {
            if let Some((t, pct)) = tail(samples) {
                self.put(
                    &format!("{prefix}_tail_ms"),
                    t,
                    "ms",
                    format!("p{pct:.1} n={n}"),
                );
            }
        }
    }

    /// `write_p50_ms` and `write_tail_ms` from the two verbs' samples.
    /// Adds and drops alternate and cost differently, so a pooled median
    /// would sit on the gap between them and jump from run to run; the
    /// p50 is the mean of the two medians and the tail the larger tail.
    pub fn write_latency(&mut self, adds: &[f64], drops: &[f64]) {
        let (Some(a), Some(d)) = (median(adds), median(drops)) else {
            return;
        };
        let (ta, pa) = tail(adds).expect("non-empty");
        let (td, pd) = tail(drops).expect("non-empty");
        self.put(
            "write_p50_ms",
            (a + d) / 2.0,
            "ms",
            format!(
                "mean of add median {a:.4} (n={}) and drop median {d:.4} (n={})",
                adds.len(),
                drops.len()
            ),
        );
        let (t, p, which) = if ta >= td {
            (ta, pa, "add")
        } else {
            (td, pd, "drop")
        };
        self.put(
            "write_tail_ms",
            t,
            "ms",
            format!("larger per-verb tail: {which} p{p:.1}"),
        );
    }

    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.insert(key.to_string(), value.to_string());
    }

    /// The metrics object of the result line, limited to `names`.
    pub fn metrics_json(&self, names: &[&str]) -> String {
        let mut s = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = &self.metrics[*name];
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }

    /// Every metric with its note, and every fact, as one JSON object.
    pub fn detail_json(&self) -> String {
        let mut s = String::from("{\"metrics\": {");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
                num(m.value),
                m.unit,
                esc(&m.note)
            );
        }
        s.push_str("}, \"facts\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": \"{}\"", esc(v));
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

pub fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

/// FNV-1a over a file: the identity of the binary under test.
pub fn checksum(path: &str) -> String {
    let bytes = std::fs::read(path).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}

/// What one child process did.
pub struct ProcOut {
    pub code: i32,
    pub stdout: String,
    pub wall: Duration,
    pub maxrss_kb: i64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `program args`, collecting stdout, the exit code, the wall time
/// from spawn to reap, and the child's peak resident set.
pub fn run(program: &str, args: &[String]) -> std::io::Result<ProcOut> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (std never waits on it
    // because `child.wait` is not called), and both out-pointers refer to
    // live, properly sized locals for the duration of the call.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = start.elapsed();
    if rc != pid {
        return Err(std::io::Error::last_os_error());
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(ProcOut {
        code,
        stdout,
        wall,
        maxrss_kb: usage.maxrss,
    })
}

/// Peak resident set (`VmHWM`, KiB) of a live process.
pub fn vm_hwm_kb(pid: u32) -> Option<i64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}
