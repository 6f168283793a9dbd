//! The `nfdtool serve` daemon as a child process, line-protocol
//! connections, and the closed- and open-loop request generators.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reply deadline: a request unanswered this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// A request-reply connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line (in a single write) and reads one reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a reply",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// A running `nfdtool serve` child.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port (deployment flags only:
    /// `--addr`) and waits for its listening line.
    pub fn spawn(nfdtool: &str) -> std::io::Result<Daemon> {
        let mut child = Command::new(nfdtool)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if err.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("daemon exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let text = rest.split_whitespace().next().unwrap_or_default();
                break text.parse::<SocketAddr>().map_err(std::io::Error::other)?;
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while err.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SHUTDOWN`, then reap; a daemon that does not drain within ten
    /// seconds is killed. Returns whether it drained cleanly.
    pub fn shutdown(mut self) -> bool {
        let acked = Conn::connect(self.addr)
            .and_then(|mut c| c.request("SHUTDOWN"))
            .map(|r| r.starts_with("OK"))
            .unwrap_or(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break acked && status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        clean
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.drain.take() {
                let _ = h.join();
            }
        }
    }
}

/// Parses `key=value` counters out of a `STATS` reply.
pub fn stat(stats: &str, key: &str) -> Option<f64> {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Sleeps until shortly before `due`, then spins: timer slack would
/// otherwise add a variable delay to every latency timed from `due`.
pub fn wait_until(due: Instant) {
    let slack = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + slack {
        std::thread::sleep(due - now - slack);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One request the open-loop generator issued.
pub struct Sent {
    pub idx: usize,
    pub due: Instant,
    pub sent: Instant,
}

/// Issues requests `0..n` at fixed intervals of `1/rate` from `start`
/// into a pool of `workers` (each a sequential request-reply client):
/// a free worker takes the next request and waits for its due time; a
/// busy pool leaves requests queued, so their latency — timed from the
/// due time — includes the wait. `exec(worker, idx)` performs request
/// `idx` and returns false to abort the phase.
pub fn open_loop<F>(workers: usize, rate: f64, n: usize, start: Instant, exec: F) -> Vec<Sent>
where
    F: Fn(usize, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let out = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for w in 0..workers {
            let (next, stop, out, exec) = (&next, &stop, &out, &exec);
            s.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::SeqCst);
                if idx >= n || stop.load(Ordering::SeqCst) {
                    break;
                }
                let due = start + Duration::from_secs_f64(idx as f64 / rate);
                wait_until(due);
                let sent = Instant::now();
                if !exec(w, idx) {
                    stop.store(true, Ordering::SeqCst);
                }
                out.lock()
                    .expect("no worker panics holding the log")
                    .push(Sent { idx, due, sent });
            });
        }
    });
    let mut v = out.into_inner().expect("workers joined");
    v.sort_by_key(|s| s.idx);
    v
}

/// Runs one back-to-back client per stream: client `w` performs
/// `exec(w, 0)`, `exec(w, 1)`, … each as soon as the previous one
/// returns, until `end`, the end of its `lens[w]` requests, or `exec`
/// returning `None`. Returns each client's results in order.
pub fn closed_loop<T, F>(lens: &[usize], end: Instant, exec: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize) -> Option<T> + Sync,
{
    std::thread::scope(|s| {
        let clients: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(w, &n)| {
                let exec = &exec;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..n {
                        if Instant::now() >= end {
                            break;
                        }
                        match exec(w, i) {
                            Some(t) => out.push(t),
                            None => break,
                        }
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("clients do not panic"))
            .collect()
    })
}
