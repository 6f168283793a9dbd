//! The multi-tenant schema registry behind `nfdtool serve`.
//!
//! [`Registry`] implements [`nfd_serve::Handler`]: it keeps many named
//! schemas resident as compiled [`Session`]s and answers the protocol's
//! workload verbs against them. The transport, admission gate, unwind
//! boundaries and drain protocol all live in the `nfd-serve` crate;
//! what lives here is the NFD side:
//!
//! * **Read-parallel epochs without `'static` gymnastics.**
//!   `Session<'s>` borrows its `Schema`, which is exactly right for one
//!   CLI invocation and exactly wrong for a daemon. Rather than leak or
//!   unsafely self-reference, each tenant gets an *epoch thread* that
//!   owns `(Schema, Σ, Session)` on its stack and serves work over an
//!   `mpsc` channel — but unlike the one-actor model this replaced, the
//!   epoch runs a pool of [`RegistryConfig::workers`] readers
//!   (`nfd_par::scoped_workers`) draining the channel concurrently: the
//!   session read path is `&self`, so IMPLIES/BATCH/CLOSURE/KEYS on one
//!   hot tenant execute in parallel, every one answered from the
//!   tenant's resident saturated engine. One worker is a pool of one;
//!   decisions are identical at every worker count (see DESIGN.md
//!   §"Read-parallel registry").
//! * **Epoch-swap mutation.** Write verbs (ADDDEP/DROPDEP) never touch
//!   the serving session: under a per-tenant write gate, the registry
//!   freezes the current epoch (an in-memory snapshot over the channel
//!   it already serves), builds the *next* epoch off to the side —
//!   thaw, apply the delta, ready-handshake — and atomically swaps the
//!   tenant's handle. Readers in flight finish on the old epoch, which
//!   drains on channel hangup; no reader ever observes a half-applied
//!   Σ, and a failure (or injected panic) anywhere before the swap
//!   leaves the old epoch serving untouched.
//! * **A shared cross-tenant closure cache.** Tenants loaded from
//!   identical `(schema source, Σ source, policy)` under the daemon's
//!   single build budget compile bit-identical engines, so they share
//!   one [`ClosureCache`] from a registry-held pool and warm each
//!   other. A mutated tenant's next epoch deliberately gets a private
//!   cache: its Σ has diverged, and writing its closures into the
//!   shared pool would poison the tenants still serving the original.
//! * **Crash containment in depth.** Every query is answered inside
//!   `catch_unwind` (on top of the server's per-request boundary), so a
//!   poisoned query answers `ERR` and the *epoch survives* — the next
//!   query on the same tenant is served from the same warm caches.
//!   Should an epoch die anyway, the failed channel send is detected,
//!   the tenant is evicted, and the client gets `ERR`, never a hang.
//! * **Per-tenant quotas.** A tenant's remaining work units (set at
//!   `LOAD` from [`RegistryConfig::default_quota`], adjusted by
//!   `QUOTA`) cap the [`Budget`] of every query; a drained quota
//!   answers `EXHAUSTED` *before* dispatch. Queries are charged their
//!   actual decider cost (max attempt counter, min 1): for an answer
//!   from saturation that is the metered closure-chain steps, so
//!   expensive goals drain a tenant faster.
//! * **LRU residency.** At most [`RegistryConfig::max_resident`]
//!   sessions stay warm; loading past the cap retires the
//!   least-recently-used tenant (its epoch exits, freeing the compiled
//!   tables).
//!
//! Per-request deadlines ([`RegistryConfig::request_timeout_ms`]) apply
//! to the *query* budgets only. The resident engine is compiled under a
//! counters-only budget: a deadline baked into the session at `LOAD`
//! would be in the past for every later query, poisoning `CLOSURE` and
//! `KEYS`, which run on the resident engine.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use nfd_core::{
    ClosureCache, CoreError, EmptySetPolicy, Nfd, TierPreference, DEFAULT_CLOSURE_CACHE_CAPACITY,
};
use nfd_faults::fail_point;
use nfd_govern::{Budget, Verdict};
use nfd_model::{Label, Schema};
use nfd_path::{Path, RootedPath};
use nfd_serve::{Command, Handler, Response};

use crate::session::Session;

/// Cap on distinct shared closure caches the registry keeps pooled;
/// past it, entries no resident tenant holds are dropped first.
const SHARED_CACHE_POOL_CAP: usize = 32;

/// Tuning for the registry side of the server (the transport side is
/// [`nfd_serve::ServerConfig`]).
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Resident-session cap; loading past it evicts the LRU tenant.
    pub max_resident: usize,
    /// Work-unit quota a tenant starts with (`None` = unmetered).
    pub default_quota: Option<u64>,
    /// Per-query budget counters ([`Budget::limited`]); `None` uses
    /// [`Budget::standard`]. Also governs session compilation and the
    /// resident engine serving `CLOSURE`/`KEYS`.
    pub query_budget: Option<u64>,
    /// Wall-clock deadline per `IMPLIES`/`BATCH` query (ms; 0 = none).
    pub request_timeout_ms: u64,
    /// Concurrent read workers per resident tenant, each answering from
    /// the tenant's resident compiled engine; `BATCH` goals run at this
    /// thread count. `1` is a pool of one; `0` means all available
    /// parallelism.
    pub workers: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            max_resident: 8,
            default_quota: None,
            query_budget: None,
            request_timeout_ms: 30_000,
            workers: 1,
        }
    }
}

/// A read-only query shipped to a tenant's epoch pool. Mutations do not
/// appear here: they build the next epoch instead (see
/// [`Registry::run_write`]).
enum Query {
    Implies { goal: String },
    Batch { goals: String },
    Closure { base: String, lhs: Option<String> },
    Keys { relation: String },
    Snapshot { path: String },
}

struct Request {
    query: Query,
    budget: Budget,
    reply: mpsc::Sender<Reply>,
}

struct Reply {
    response: Response,
    /// Work units to charge against the tenant quota.
    cost: u64,
}

/// Work an epoch's reader pool drains: queries, plus the freeze request
/// the write path uses to fork the next epoch off the current one.
enum Work {
    Query(Request),
    Freeze(mpsc::Sender<Box<nfd_snap::Snapshot>>),
}

/// The registry's handle on one live epoch: the work channel, the
/// queue-depth gauge, and the closure cache the epoch serves from (held
/// here so STATS can read it without a channel round trip).
struct EpochHandle {
    tx: mpsc::Sender<Work>,
    depth: Arc<AtomicU64>,
    cache: Arc<ClosureCache>,
}

/// One resident tenant: its current epoch, quota state, the write gate
/// serializing its mutations, and the epoch threads still draining.
/// The `Vec<Tenant>` in [`Registry`] is kept in most-recently-used
/// order, front first — that ordering *is* the LRU policy.
struct Tenant {
    name: String,
    epoch: Option<EpochHandle>,
    quota: Option<u64>,
    /// Serializes ADDDEP/DROPDEP on this tenant; readers never take it.
    write_gate: Arc<Mutex<()>>,
    /// The current epoch's thread plus superseded epochs still draining
    /// in-flight readers. Reaped opportunistically, joined on retire.
    threads: Vec<JoinHandle<()>>,
}

impl Tenant {
    /// Drops finished epoch threads (already drained; join is a no-op
    /// we skip by detaching). Called under the registry lock — cheap.
    fn reap(&mut self) {
        self.threads.retain(|t| !t.is_finished());
    }

    /// Hangs up the current epoch's channel and joins every epoch
    /// thread. Joining may wait for an in-flight query on another
    /// connection to finish — that is the drain guarantee, not a bug.
    fn retire(mut self) {
        self.epoch.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Tenant {
    fn drop(&mut self) {
        // `retire` already took both; this path covers tenants dropped
        // without an explicit retire (e.g. an unwinding test).
        self.epoch.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[derive(Debug, Default)]
struct RegistryCounters {
    loads: AtomicU64,
    reloads: AtomicU64,
    evicted: AtomicU64,
    evicted_lru: AtomicU64,
    queries: AtomicU64,
    quota_denials: AtomicU64,
    worker_failures: AtomicU64,
    /// `SNAPSHOT` verbs that wrote an image to disk.
    snapshots_written: AtomicU64,
    /// `RESTORE` verbs answered from a bit-identical thaw.
    restores_ok: AtomicU64,
    /// `RESTORE` verbs whose image was unusable even for salvage.
    restores_rejected: AtomicU64,
    /// `RESTORE` verbs that degraded to a fresh compile (corrupt or
    /// stale compiled sections with salvageable sources).
    thaw_fallbacks: AtomicU64,
    /// Mutations that built and atomically installed a next epoch.
    epoch_swaps: AtomicU64,
}

/// The key under which tenants may share one closure cache: the literal
/// `(schema source, Σ source, policy)` triple. Keying on full text (not
/// a hash of it) makes accidental cross-schema sharing impossible; the
/// pool map hashes the strings internally anyway. Sound because the
/// daemon compiles every tenant under one fixed build budget and engine
/// builds are deterministic — same key, same saturated pool, same
/// closures (see DESIGN.md §"Read-parallel registry").
type CacheKey = (String, String, String);

/// The multi-tenant session registry; implement [`Handler`] and hand it
/// to [`nfd_serve::Server::bind`].
pub struct Registry {
    cfg: RegistryConfig,
    tenants: Mutex<Vec<Tenant>>,
    shared_caches: Mutex<HashMap<CacheKey, Arc<ClosureCache>>>,
    counters: RegistryCounters,
}

impl Registry {
    /// An empty registry.
    pub fn new(cfg: RegistryConfig) -> Registry {
        Registry {
            cfg,
            tenants: Mutex::new(Vec::new()),
            shared_caches: Mutex::new(HashMap::new()),
            counters: RegistryCounters::default(),
        }
    }

    /// The resolved per-epoch reader count (`0` = all available).
    fn read_workers(&self) -> usize {
        match self.cfg.workers {
            0 => nfd_par::available(),
            n => n,
        }
    }

    /// The budget sessions are *compiled* under and the resident engine
    /// serves `CLOSURE`/`KEYS` with: counters only, never a deadline
    /// (see the module docs for why).
    fn build_budget(&self) -> Budget {
        match self.cfg.query_budget {
            Some(n) => Budget::limited(n),
            None => Budget::standard(),
        }
    }

    /// The budget for one `IMPLIES`/`BATCH` query: configured counters
    /// tightened to the tenant's remaining quota, plus the per-request
    /// deadline. A deadline this close to the wire is what keeps a
    /// pathological goal from holding an admission slot forever.
    fn query_budget(&self, remaining_quota: Option<u64>) -> Budget {
        let budget = match (self.cfg.query_budget, remaining_quota) {
            (None, None) => Budget::standard(),
            (cap, quota) => Budget::limited(cap.unwrap_or(u64::MAX).min(quota.unwrap_or(u64::MAX))),
        };
        if self.cfg.request_timeout_ms > 0 {
            budget.with_timeout_ms(self.cfg.request_timeout_ms)
        } else {
            budget
        }
    }

    /// The shared closure cache for `key`, created on first use. The
    /// pool is bounded: past [`SHARED_CACHE_POOL_CAP`], entries no
    /// resident epoch holds (sole `Arc` here) are dropped first.
    fn shared_cache_for(&self, key: CacheKey) -> Arc<ClosureCache> {
        fail_point!("serve::shared_cache");
        let mut pool = self
            .shared_caches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if pool.len() >= SHARED_CACHE_POOL_CAP && !pool.contains_key(&key) {
            pool.retain(|_, cache| Arc::strong_count(cache) > 1);
        }
        Arc::clone(pool.entry(key).or_insert_with(|| {
            Arc::new(ClosureCache::with_capacity(DEFAULT_CLOSURE_CACHE_CAPACITY))
        }))
    }

    /// Registers a freshly handshaken tenant: MRU-front insert, reload
    /// bookkeeping, and LRU eviction past the residency cap.
    fn adopt(&self, name: String, epoch: EpochHandle, thread: JoinHandle<()>) {
        let tenant = Tenant {
            name: name.clone(),
            epoch: Some(epoch),
            quota: self.cfg.default_quota,
            write_gate: Arc::new(Mutex::new(())),
            threads: vec![thread],
        };
        let mut retired: Vec<Tenant> = Vec::new();
        {
            let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = tenants.iter().position(|t| t.name == name) {
                retired.push(tenants.remove(pos));
                self.counters.reloads.fetch_add(1, Ordering::Relaxed);
            } else {
                self.counters.loads.fetch_add(1, Ordering::Relaxed);
            }
            tenants.insert(0, tenant);
            while tenants.len() > self.cfg.max_resident.max(1) {
                if let Some(cold) = tenants.pop() {
                    self.counters.evicted_lru.fetch_add(1, Ordering::Relaxed);
                    retired.push(cold);
                }
            }
        }
        // Join retired epochs outside the lock: an in-flight query on a
        // replaced tenant may still need to finish.
        for tenant in retired {
            tenant.retire();
        }
    }

    fn load(&self, name: String, schema: String, deps: String) -> Response {
        let key: CacheKey = (
            schema.clone(),
            deps.clone(),
            format!("{:?}", EmptySetPolicy::Forbidden),
        );
        let cache = self.shared_cache_for(key);
        let (ready_tx, ready_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        let budget = self.build_budget();
        let depth = Arc::new(AtomicU64::new(0));
        let epoch = EpochHandle {
            tx,
            depth: Arc::clone(&depth),
            cache: Arc::clone(&cache),
        };
        let workers = self.read_workers();
        let thread = std::thread::spawn(move || {
            load_epoch(schema, deps, budget, cache, workers, depth, rx, ready_tx)
        });
        match ready_rx.recv() {
            Ok(Ok(dep_count)) => {
                self.adopt(name, epoch, thread);
                Response::Ok(format!("loaded deps={dep_count}"))
            }
            Ok(Err(resp)) => {
                drop(epoch);
                let _ = thread.join();
                resp
            }
            Err(_) => {
                // The epoch died before the handshake — nothing was
                // registered, so nothing to evict.
                drop(epoch);
                let _ = thread.join();
                self.counters
                    .worker_failures
                    .fetch_add(1, Ordering::Relaxed);
                Response::Err("session worker died during load".to_string())
            }
        }
    }

    /// `RESTORE <name> <path>`: resurrect a session from a snapshot
    /// file. A clean image thaws without re-running saturation; an image
    /// with corrupt compiled sections but salvageable sources (or one
    /// whose thaw is rejected by replay validation) degrades to a fresh
    /// compile of those sources — a logged fallback, not a failure. Only
    /// an image too damaged to recover the sources answers `ERR`.
    fn restore(&self, name: String, path: String) -> Response {
        // Decode on the connection thread so the shared-cache key (the
        // snapshot's canonical source texts) is known before any epoch
        // spawns; a typed rejection never registers anything.
        let salvaged = match nfd_snap::read_file(std::path::Path::new(&path))
            .and_then(|bytes| nfd_snap::decode_lenient(&bytes))
        {
            Ok(salvaged) => salvaged,
            Err(e) => {
                self.counters
                    .restores_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Response::Err(format!("restore: {e}"));
            }
        };
        let key: CacheKey = (
            salvaged.snapshot.schema_text.clone(),
            salvaged.snapshot.sigma_text.clone(),
            match crate::snapshot::policy_from_snap(&salvaged.snapshot.policy) {
                Ok(policy) => format!("{policy:?}"),
                Err(e) => {
                    self.counters
                        .restores_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    return Response::Err(format!("restore: policy: {e}"));
                }
            },
        );
        let cache = self.shared_cache_for(key);
        let (ready_tx, ready_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        let budget = self.build_budget();
        let depth = Arc::new(AtomicU64::new(0));
        let epoch = EpochHandle {
            tx,
            depth: Arc::clone(&depth),
            cache: Arc::clone(&cache),
        };
        let workers = self.read_workers();
        let degraded = salvaged.degraded;
        let snap = Box::new(salvaged.snapshot);
        let thread = std::thread::spawn(move || {
            restore_epoch(snap, degraded, budget, cache, workers, depth, rx, ready_tx)
        });
        match ready_rx.recv() {
            Ok(Ok((dep_count, fallback))) => {
                self.adopt(name, epoch, thread);
                if fallback {
                    self.counters.thaw_fallbacks.fetch_add(1, Ordering::Relaxed);
                    Response::Ok(format!(
                        "restored deps={dep_count} (thaw rejected; compiled fresh)"
                    ))
                } else {
                    self.counters.restores_ok.fetch_add(1, Ordering::Relaxed);
                    Response::Ok(format!("restored deps={dep_count} (thawed)"))
                }
            }
            Ok(Err(resp)) => {
                self.counters
                    .restores_rejected
                    .fetch_add(1, Ordering::Relaxed);
                drop(epoch);
                let _ = thread.join();
                resp
            }
            Err(_) => {
                drop(epoch);
                let _ = thread.join();
                self.counters
                    .restores_rejected
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .worker_failures
                    .fetch_add(1, Ordering::Relaxed);
                Response::Err("session worker died during restore".to_string())
            }
        }
    }

    fn run_query(&self, name: &str, query: Query) -> Response {
        fail_point!(
            "serve::tenant_query",
            Response::Exhausted("injected fault (failpoint)".to_string())
        );
        let (tx, depth, remaining) = {
            let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(pos) = tenants.iter().position(|t| t.name == name) else {
                return Response::Err(format!("unknown tenant `{name}` (LOAD it first)"));
            };
            if tenants[pos].quota == Some(0) {
                self.counters.quota_denials.fetch_add(1, Ordering::Relaxed);
                return Response::Exhausted(format!("tenant `{name}` quota exhausted"));
            }
            // Touch for LRU: most-recently-used lives at the front.
            let mut tenant = tenants.remove(pos);
            tenant.reap();
            let handle = (
                tenant.epoch.as_ref().map(|e| e.tx.clone()),
                tenant.epoch.as_ref().map(|e| Arc::clone(&e.depth)),
                tenant.quota,
            );
            tenants.insert(0, tenant);
            handle
        };
        let Some(tx) = tx else {
            return self.worker_failed(name);
        };
        let budget = self.query_budget(remaining);
        let (reply_tx, reply_rx) = mpsc::channel();
        let request = Request {
            query,
            budget,
            reply: reply_tx,
        };
        if let Some(depth) = &depth {
            depth.fetch_add(1, Ordering::Relaxed);
        }
        if tx.send(Work::Query(request)).is_err() {
            if let Some(depth) = &depth {
                depth.fetch_sub(1, Ordering::Relaxed);
            }
            return self.worker_failed(name);
        }
        match reply_rx.recv() {
            Ok(reply) => {
                self.counters.queries.fetch_add(1, Ordering::Relaxed);
                self.charge(name, reply.cost);
                reply.response
            }
            Err(_) => self.worker_failed(name),
        }
    }

    /// ADDDEP/DROPDEP: freeze the current epoch, build the next one off
    /// to the side (thaw + delta, under a private closure cache), and
    /// atomically swap it in. Readers in flight finish on the old
    /// epoch; any failure — or the armed `serve::epoch_swap` failpoint
    /// — before the swap leaves the old epoch serving untouched.
    fn run_write(&self, name: &str, verb: &'static str, dep: String) -> Response {
        fail_point!(
            "serve::tenant_query",
            Response::Exhausted("injected fault (failpoint)".to_string())
        );
        // Quota gate + LRU touch, as for reads; then take the tenant's
        // write gate so concurrent mutations serialize per tenant.
        let gate = {
            let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(pos) = tenants.iter().position(|t| t.name == name) else {
                return Response::Err(format!("unknown tenant `{name}` (LOAD it first)"));
            };
            if tenants[pos].quota == Some(0) {
                self.counters.quota_denials.fetch_add(1, Ordering::Relaxed);
                return Response::Exhausted(format!("tenant `{name}` quota exhausted"));
            }
            let mut tenant = tenants.remove(pos);
            tenant.reap();
            let gate = Arc::clone(&tenant.write_gate);
            tenants.insert(0, tenant);
            gate
        };
        let _write = gate.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-read the *current* epoch under the gate: a racing writer
        // may have swapped since the lookup above.
        let tx = {
            let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            match tenants
                .iter()
                .find(|t| t.name == name && Arc::ptr_eq(&t.write_gate, &gate))
            {
                Some(t) => match &t.epoch {
                    Some(e) => e.tx.clone(),
                    None => return self.worker_failed(name),
                },
                None => {
                    return Response::Err(format!(
                        "tenant `{name}` changed during mutation; not applied"
                    ))
                }
            }
        };
        let (snap_tx, snap_rx) = mpsc::channel();
        if tx.send(Work::Freeze(snap_tx)).is_err() {
            return self.worker_failed(name);
        }
        let snapshot = match snap_rx.recv() {
            Ok(snap) => snap,
            Err(_) => return self.worker_failed(name),
        };
        let budget = self.build_budget();
        let workers = self.read_workers();
        let depth = Arc::new(AtomicU64::new(0));
        // The next epoch's Σ diverges from whatever this tenant shared
        // before, so it gets a *private* cache — writing its closures
        // into the shared pool would poison same-key tenants.
        let cache = Arc::new(ClosureCache::with_capacity(DEFAULT_CLOSURE_CACHE_CAPACITY));
        let (ready_tx, ready_rx) = mpsc::channel();
        let (next_tx, next_rx) = mpsc::channel();
        let op_depth = Arc::clone(&depth);
        let op_cache = Arc::clone(&cache);
        let thread = std::thread::spawn(move || {
            mutate_epoch(
                snapshot, verb, dep, budget, op_cache, workers, op_depth, next_rx, ready_tx,
            )
        });
        match ready_rx.recv() {
            Ok(Ok(reports)) => {
                // The armed mid-swap failpoint: the next epoch is built
                // and ready, the old one still installed. A panic here
                // unwinds past `next_tx` and `thread`, hanging up the
                // next epoch — which exits before serving anything —
                // while the old epoch keeps serving (proved by
                // tests/serve_chaos.rs).
                fail_point!(
                    "serve::epoch_swap",
                    Response::Exhausted("injected fault (failpoint)".to_string())
                );
                let epoch = EpochHandle {
                    tx: next_tx,
                    depth,
                    cache,
                };
                let swapped = {
                    let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
                    match tenants
                        .iter_mut()
                        .find(|t| t.name == name && Arc::ptr_eq(&t.write_gate, &gate))
                    {
                        Some(t) => {
                            let old = t.epoch.replace(epoch);
                            t.threads.push(thread);
                            // Hang up the superseded epoch inside the
                            // lock (cheap — just a sender drop); it
                            // drains its in-flight queue in background.
                            drop(old);
                            true
                        }
                        None => false,
                    }
                };
                if !swapped {
                    return Response::Err(format!(
                        "tenant `{name}` changed during mutation; not applied"
                    ));
                }
                self.counters.epoch_swaps.fetch_add(1, Ordering::Relaxed);
                let reply = mutation_reply(verb, &reports);
                self.counters.queries.fetch_add(1, Ordering::Relaxed);
                self.charge(name, reply.cost);
                reply.response
            }
            Ok(Err(resp)) => {
                // Typed input failure (bad dep, not in Σ, exhausted):
                // the next epoch never started; the old one serves on.
                drop(next_tx);
                let _ = thread.join();
                self.counters.queries.fetch_add(1, Ordering::Relaxed);
                self.charge(name, 1);
                resp
            }
            Err(_) => {
                drop(next_tx);
                let _ = thread.join();
                self.counters
                    .worker_failures
                    .fetch_add(1, Ordering::Relaxed);
                Response::Err(format!(
                    "tenant `{name}` mutation worker died; previous epoch keeps serving"
                ))
            }
        }
    }

    /// A tenant's epoch hung up mid-request: evict it so the registry
    /// converges back to a healthy state, and say so honestly.
    fn worker_failed(&self, name: &str) -> Response {
        self.counters
            .worker_failures
            .fetch_add(1, Ordering::Relaxed);
        let dead = {
            let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            tenants
                .iter()
                .position(|t| t.name == name)
                .map(|pos| tenants.remove(pos))
        };
        if let Some(tenant) = dead {
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
            tenant.retire();
        }
        Response::Err(format!("tenant `{name}` worker failed; session evicted"))
    }

    fn charge(&self, name: &str, cost: u64) {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(tenant) = tenants.iter_mut().find(|t| t.name == name) {
            if let Some(quota) = tenant.quota.as_mut() {
                *quota = quota.saturating_sub(cost.max(1));
            }
        }
    }

    fn set_quota(&self, name: &str, units: u64) -> Response {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        match tenants.iter_mut().find(|t| t.name == name) {
            Some(tenant) => {
                tenant.quota = Some(units);
                Response::Ok(format!("quota={units}"))
            }
            None => Response::Err(format!("unknown tenant `{name}` (LOAD it first)")),
        }
    }

    fn evict(&self, name: &str) -> Response {
        let gone = {
            let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            tenants
                .iter()
                .position(|t| t.name == name)
                .map(|pos| tenants.remove(pos))
        };
        match gone {
            Some(tenant) => {
                self.counters.evicted.fetch_add(1, Ordering::Relaxed);
                tenant.retire();
                Response::Ok("evicted".to_string())
            }
            None => Response::Err(format!("unknown tenant `{name}`")),
        }
    }
}

impl Handler for Registry {
    fn handle(&self, cmd: Command) -> Response {
        match cmd {
            Command::Load { name, schema, deps } => self.load(name, schema, deps),
            Command::Implies { name, goal } => self.run_query(&name, Query::Implies { goal }),
            Command::Batch { name, goals } => self.run_query(&name, Query::Batch { goals }),
            Command::Closure { name, base, lhs } => {
                self.run_query(&name, Query::Closure { base, lhs })
            }
            Command::Keys { name, relation } => self.run_query(&name, Query::Keys { relation }),
            Command::AddDep { name, dep } => self.run_write(&name, "added", dep),
            Command::DropDep { name, dep } => self.run_write(&name, "dropped", dep),
            Command::Snapshot { name, path } => {
                let response = self.run_query(&name, Query::Snapshot { path });
                if response.is_ok() {
                    self.counters
                        .snapshots_written
                        .fetch_add(1, Ordering::Relaxed);
                }
                response
            }
            Command::Restore { name, path } => self.restore(name, path),
            Command::Quota { name, units } => self.set_quota(&name, units),
            Command::Evict { name } => self.evict(&name),
            // The server answers these itself; reaching here means a
            // custom harness skipped it — answer something sane.
            Command::Stats => Response::Ok(self.stats_line()),
            Command::Ping => Response::Ok("pong".to_string()),
            Command::Shutdown => Response::Ok("draining".to_string()),
        }
    }

    fn stats_line(&self) -> String {
        let (resident, tenant_cache, queue_depth, closure) = {
            let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            let resident: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
            let mut per_tenant: Vec<String> = Vec::new();
            let mut depth = 0u64;
            // Sum hit/miss over *distinct* caches: tenants sharing one
            // pool entry must not double-count it.
            let mut seen: Vec<*const ClosureCache> = Vec::new();
            let mut hits = 0u64;
            let mut misses = 0u64;
            for t in tenants.iter() {
                if let Some(e) = &t.epoch {
                    let stats = e.cache.stats();
                    per_tenant.push(format!("{}:{}/{}", t.name, stats.hits, stats.misses));
                    depth += e.depth.load(Ordering::Relaxed);
                    let ptr = Arc::as_ptr(&e.cache);
                    if !seen.contains(&ptr) {
                        seen.push(ptr);
                        hits += stats.hits;
                        misses += stats.misses;
                    }
                }
            }
            (resident, per_tenant, depth, (hits, misses))
        };
        let (pool_len, shared_hits, shared_misses) = {
            let pool = self
                .shared_caches
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut hits = 0u64;
            let mut misses = 0u64;
            for cache in pool.values() {
                let stats = cache.stats();
                hits += stats.hits;
                misses += stats.misses;
            }
            (pool.len(), hits, misses)
        };
        let c = &self.counters;
        format!(
            "sessions={} resident=[{}] loads={} reloads={} evicted={} evicted_lru={} queries={} quota_denials={} worker_failures={} snapshots_written={} restores_ok={} restores_rejected={} thaw_fallbacks={} workers={} epoch_swaps={} worker_queue_depth={} closure_hits={} closure_misses={} shared_caches={} shared_cache_hits={} shared_cache_misses={} tenant_cache=[{}]",
            resident.len(),
            resident.join(","),
            c.loads.load(Ordering::Relaxed),
            c.reloads.load(Ordering::Relaxed),
            c.evicted.load(Ordering::Relaxed),
            c.evicted_lru.load(Ordering::Relaxed),
            c.queries.load(Ordering::Relaxed),
            c.quota_denials.load(Ordering::Relaxed),
            c.worker_failures.load(Ordering::Relaxed),
            c.snapshots_written.load(Ordering::Relaxed),
            c.restores_ok.load(Ordering::Relaxed),
            c.restores_rejected.load(Ordering::Relaxed),
            c.thaw_fallbacks.load(Ordering::Relaxed),
            self.read_workers(),
            c.epoch_swaps.load(Ordering::Relaxed),
            queue_depth,
            closure.0,
            closure.1,
            pool_len,
            shared_hits,
            shared_misses,
            tenant_cache.join(","),
        )
    }

    fn on_shutdown(&self) {
        let tenants =
            std::mem::take(&mut *self.tenants.lock().unwrap_or_else(PoisonError::into_inner));
        for tenant in tenants {
            tenant.retire();
        }
    }
}

/// The epoch thread behind `LOAD`: owns the compiled `(Schema, Σ,
/// Session)` on its stack and runs the reader pool until every channel
/// sender is dropped (eviction, reload, swap, or shutdown). This is
/// what makes borrowed `Session<'s>` residency safe: the borrow lives
/// inside one thread's stack frame.
#[allow(clippy::too_many_arguments)]
fn load_epoch(
    schema_src: String,
    deps_src: String,
    budget: Budget,
    cache: Arc<ClosureCache>,
    workers: usize,
    depth: Arc<AtomicU64>,
    rx: mpsc::Receiver<Work>,
    ready: mpsc::Sender<Result<usize, Response>>,
) {
    let schema = match Schema::parse(&schema_src) {
        Ok(schema) => schema,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("schema: {e}"))));
            return;
        }
    };
    let sigma = match nfd_core::nfd::parse_set(&schema, &deps_src) {
        Ok(sigma) => sigma,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("deps: {e}"))));
            return;
        }
    };
    let session = match Session::with_tiers_cached(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        budget,
        TierPreference::Auto,
        cache,
    ) {
        Ok(session) => session,
        Err(e) => {
            let _ = ready.send(Err(core_error_response(e)));
            return;
        }
    };
    if ready.send(Ok(sigma.len())).is_err() {
        return;
    }
    epoch_loop(&session, &schema, workers, &depth, rx);
}

/// The epoch thread behind `RESTORE`: thaws the (pre-decoded) snapshot
/// when its compiled sections are intact, and degrades to a fresh
/// compile of the salvaged sources otherwise. The ready handshake
/// reports `(dep_count, fell_back_to_fresh_compile)` so the registry
/// keeps honest counters.
#[allow(clippy::too_many_arguments)]
fn restore_epoch(
    snap: Box<nfd_snap::Snapshot>,
    degraded: bool,
    budget: Budget,
    cache: Arc<ClosureCache>,
    workers: usize,
    depth: Arc<AtomicU64>,
    rx: mpsc::Receiver<Work>,
    ready: mpsc::Sender<Result<(usize, bool), Response>>,
) {
    let schema = match Schema::parse(&snap.schema_text) {
        Ok(schema) => schema,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("restore: schema: {e}"))));
            return;
        }
    };
    let sigma = match nfd_core::nfd::parse_set(&schema, &snap.sigma_text) {
        Ok(sigma) => sigma,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("restore: deps: {e}"))));
            return;
        }
    };
    let policy = match crate::snapshot::policy_from_snap(&snap.policy) {
        Ok(policy) => policy,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("restore: policy: {e}"))));
            return;
        }
    };
    // Warm path first: a clean image replays without re-running
    // saturation. Any thaw rejection — truncated compiled sections in a
    // lenient salvage, or replay validation refusing the pools — falls
    // back to compiling the salvaged sources fresh.
    let mut fallback = degraded;
    let thawed = if fallback {
        None
    } else {
        match Session::thaw_cached(
            &schema,
            &sigma,
            policy.clone(),
            budget.clone(),
            TierPreference::Auto,
            &snap,
            Arc::clone(&cache),
        ) {
            Ok(session) => Some(session),
            Err(_) => {
                fallback = true;
                None
            }
        }
    };
    let session = match thawed {
        Some(session) => session,
        None => match Session::with_tiers_cached(
            &schema,
            &sigma,
            policy,
            budget,
            TierPreference::Auto,
            cache,
        ) {
            Ok(session) => session,
            Err(e) => {
                let _ = ready.send(Err(core_error_response(e)));
                return;
            }
        },
    };
    if ready.send(Ok((sigma.len(), fallback))).is_err() {
        return;
    }
    epoch_loop(&session, &schema, workers, &depth, rx);
}

/// The next-epoch thread behind ADDDEP/DROPDEP: rebuild the tenant from
/// the current epoch's freeze (thaw; fresh compile as a fallback),
/// apply the delta, and — only if the delta succeeded — handshake ready
/// and start serving. The closure cache is deliberately *private*: the
/// mutated Σ has diverged from whatever shared pool entry the previous
/// epoch used, and `Session::thaw` already imports the frozen entries
/// before `add_deps`/`remove_deps` invalidate the touched relation.
#[allow(clippy::too_many_arguments)]
fn mutate_epoch(
    snap: Box<nfd_snap::Snapshot>,
    verb: &'static str,
    dep: String,
    budget: Budget,
    cache: Arc<ClosureCache>,
    workers: usize,
    depth: Arc<AtomicU64>,
    rx: mpsc::Receiver<Work>,
    ready: mpsc::Sender<Result<Vec<nfd_core::DeltaReport>, Response>>,
) {
    let schema = match Schema::parse(&snap.schema_text) {
        Ok(schema) => schema,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("mutate: schema: {e}"))));
            return;
        }
    };
    let sigma = match nfd_core::nfd::parse_set(&schema, &snap.sigma_text) {
        Ok(sigma) => sigma,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("mutate: deps: {e}"))));
            return;
        }
    };
    let policy = match crate::snapshot::policy_from_snap(&snap.policy) {
        Ok(policy) => policy,
        Err(e) => {
            let _ = ready.send(Err(Response::Err(format!("mutate: policy: {e}"))));
            return;
        }
    };
    let nfd = match Nfd::parse(&schema, &dep) {
        Ok(nfd) => nfd,
        Err(e) => {
            let _ = ready.send(Err(core_error_response(e)));
            return;
        }
    };
    // Build + mutate under an unwind boundary: a panic while applying
    // the delta (e.g. an armed `delta::retract` fault) answers a typed
    // `contained panic` ERR — exactly as the in-place actor did — and
    // the old epoch keeps serving untouched.
    let built = catch_unwind(AssertUnwindSafe(
        || -> Result<(Session<'_>, Vec<nfd_core::DeltaReport>), Response> {
            // The freeze came from a live session moments ago, so the
            // thaw is expected to succeed; the fresh-compile fallback
            // keeps a mutation from failing on a replay technicality.
            let mut session = match Session::thaw_cached(
                &schema,
                &sigma,
                policy.clone(),
                budget.clone(),
                TierPreference::Auto,
                &snap,
                Arc::clone(&cache),
            ) {
                Ok(session) => session,
                Err(_) => Session::with_tiers_cached(
                    &schema,
                    &sigma,
                    policy.clone(),
                    budget.clone(),
                    TierPreference::Auto,
                    Arc::clone(&cache),
                )
                .map_err(core_error_response)?,
            };
            let reports = match verb {
                "added" => session.add_deps(std::slice::from_ref(&nfd)),
                _ => session.remove_deps(std::slice::from_ref(&nfd)),
            }
            .map_err(core_error_response)?;
            Ok((session, reports))
        },
    ));
    match built {
        Ok(Ok((session, reports))) => {
            if ready.send(Ok(reports)).is_err() {
                return;
            }
            epoch_loop(&session, &schema, workers, &depth, rx);
        }
        Ok(Err(resp)) => {
            let _ = ready.send(Err(resp));
        }
        Err(payload) => {
            let _ = ready.send(Err(Response::Err(format!(
                "contained panic: {}",
                panic_text(payload.as_ref())
            ))));
        }
    }
}

/// The reader pool every epoch runs: `workers` threads drain one shared
/// channel until every sender is dropped, each answering from the
/// session's resident engine. Per-query panics are contained so the warm
/// session survives a poisoned request.
fn epoch_loop(
    session: &Session<'_>,
    schema: &Schema,
    workers: usize,
    depth: &AtomicU64,
    rx: mpsc::Receiver<Work>,
) {
    let shared_rx = Mutex::new(rx);
    nfd_par::scoped_workers(workers, |_| loop {
        // Hold the receiver lock only to take one work item; processing
        // happens unlocked, so workers genuinely serve concurrently.
        let work = match shared_rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
        {
            Ok(work) => work,
            Err(_) => break,
        };
        serve_one(session, schema, work, depth, workers);
    });
}

/// One unit of epoch work, with the inner unwind boundary: a poisoned
/// query answers ERR and the warm session keeps serving (the server's
/// per-request boundary would otherwise only save the connection, not
/// the tenant).
fn serve_one(
    session: &Session<'_>,
    schema: &Schema,
    work: Work,
    depth: &AtomicU64,
    batch_threads: usize,
) {
    match work {
        Work::Freeze(reply) => {
            let snap = catch_unwind(AssertUnwindSafe(|| Box::new(session.freeze())));
            if let Ok(snap) = snap {
                let _ = reply.send(snap);
            }
            // A panicked freeze drops `reply`; the write path sees the
            // hangup and reports the worker failure.
        }
        Work::Query(request) => {
            depth.fetch_sub(1, Ordering::Relaxed);
            let reply = catch_unwind(AssertUnwindSafe(|| {
                answer(
                    session,
                    schema,
                    request.query,
                    &request.budget,
                    batch_threads,
                )
            }))
            .unwrap_or_else(|payload| Reply {
                response: Response::Err(format!(
                    "contained panic: {}",
                    panic_text(payload.as_ref())
                )),
                cost: 1,
            });
            let _ = request.reply.send(reply);
        }
    }
}

fn answer(
    session: &Session<'_>,
    schema: &Schema,
    query: Query,
    budget: &Budget,
    batch_threads: usize,
) -> Reply {
    match query {
        Query::Implies { goal } => {
            let goal = match Nfd::parse(schema, &goal) {
                Ok(goal) => goal,
                Err(e) => return input_error(e),
            };
            match session.implies_with(&goal, budget) {
                Ok(decision) => {
                    let cost = decision_cost(&decision);
                    Reply {
                        response: verdict_response(&decision.verdict),
                        cost,
                    }
                }
                Err(e) => input_error(e),
            }
        }
        Query::Batch { goals } => {
            let goals = match nfd_core::nfd::parse_set(schema, &goals) {
                Ok(goals) => goals,
                Err(e) => return input_error(e),
            };
            if goals.is_empty() {
                return Reply {
                    response: Response::Err("BATCH: empty goal set".to_string()),
                    cost: 1,
                };
            }
            match session.implies_batch(&goals, budget, batch_threads) {
                Ok(batch) => {
                    let statuses: Vec<&str> = batch
                        .decisions
                        .iter()
                        .map(|d| match d {
                            Ok(d) => match d.verdict {
                                Verdict::Implied => "implied",
                                Verdict::NotImplied => "not-implied",
                                Verdict::Exhausted(_) => "exhausted",
                            },
                            Err(_) => "failed",
                        })
                        .collect();
                    let cost = batch
                        .decisions
                        .iter()
                        .map(|d| d.as_ref().map(decision_cost).unwrap_or(1))
                        .sum::<u64>()
                        .max(1);
                    Reply {
                        response: Response::Ok(statuses.join(",")),
                        cost,
                    }
                }
                Err(e) => input_error(e),
            }
        }
        Query::Closure { base, lhs } => {
            let base = match RootedPath::parse(&base) {
                Ok(base) => base,
                Err(e) => {
                    return Reply {
                        response: Response::Err(format!("base: {e}")),
                        cost: 1,
                    }
                }
            };
            let lhs: Vec<Path> = match lhs
                .as_deref()
                .unwrap_or("")
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| Path::parse(s.trim()))
                .collect()
            {
                Ok(lhs) => lhs,
                Err(e) => {
                    return Reply {
                        response: Response::Err(format!("lhs: {e}")),
                        cost: 1,
                    }
                }
            };
            match session.closure(&base, &lhs) {
                Ok(closure) => Reply {
                    response: Response::Ok(
                        closure
                            .iter()
                            .map(RootedPath::to_string)
                            .collect::<Vec<_>>()
                            .join(" "),
                    ),
                    cost: 1,
                },
                Err(e) => input_error(e),
            }
        }
        Query::Snapshot { path } => {
            let image = session.freeze();
            let bytes = nfd_snap::encode(&image);
            match nfd_snap::write_atomic(std::path::Path::new(&path), &bytes) {
                // Charged by image size: persisting a bigger compiled
                // session is more of the tenant's work made durable.
                Ok(()) => Reply {
                    response: Response::Ok(format!("snapshot bytes={} path={path}", bytes.len())),
                    cost: (bytes.len() as u64 / 1024).max(1),
                },
                Err(e) => Reply {
                    response: Response::Err(format!("snapshot: {e}")),
                    cost: 1,
                },
            }
        }
        Query::Keys { relation } => match session.candidate_keys(Label::new(&relation), 4) {
            Ok(keys) if keys.is_empty() => Reply {
                response: Response::Ok("(no candidate keys of size <= 4)".to_string()),
                cost: 1,
            },
            Ok(keys) => Reply {
                response: Response::Ok(
                    keys.iter()
                        .map(|k| {
                            format!(
                                "{{{}}}",
                                k.iter().map(Path::to_string).collect::<Vec<_>>().join(",")
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
                cost: 1,
            },
            Err(e) => input_error(e),
        },
    }
}

/// The wire form of a three-valued verdict.
fn verdict_response(verdict: &Verdict) -> Response {
    match verdict {
        Verdict::Implied => Response::Ok("implied".to_string()),
        Verdict::NotImplied => Response::Ok("not-implied".to_string()),
        Verdict::Exhausted(report) => Response::Exhausted(report.to_string()),
    }
}

/// The wire form of a Σ mutation, charged the rebuilt pool size: a
/// delta mutation replays the touched relation's saturation, so the
/// fresh pool length is the work the tenant actually bought.
fn mutation_reply(verb: &str, reports: &[nfd_core::DeltaReport]) -> Reply {
    let line: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{verb} relation={} pool={}->{} overdeleted={}",
                r.relation, r.pool_before, r.pool_after, r.overdeleted
            )
        })
        .collect();
    let cost = reports
        .iter()
        .map(|r| r.pool_after as u64)
        .sum::<u64>()
        .max(1);
    Reply {
        response: Response::Ok(line.join("; ")),
        cost,
    }
}

/// Work units one decision costs its tenant: the largest decider
/// counter in the cascade log — the metered chain steps when saturation
/// answered — floored at 1.
fn decision_cost(decision: &crate::session::Decision) -> u64 {
    decision
        .attempts
        .iter()
        .filter_map(|a| a.cost)
        .max()
        .unwrap_or(0)
        .max(1)
}

fn input_error(e: CoreError) -> Reply {
    let response = core_error_response(e);
    Reply { response, cost: 1 }
}

fn core_error_response(e: CoreError) -> Response {
    match e {
        CoreError::Exhausted(report) => Response::Exhausted(report.to_string()),
        other => Response::Err(other.to_string()),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic payload"
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "R : {<A: int, B: int, C: int>};";
    const DEPS: &str = "R:[A -> B]; R:[B -> C];";

    fn cmd(line: &str) -> Command {
        Command::parse(line).expect("test command parses")
    }

    fn load(reg: &Registry, name: &str) -> Response {
        reg.handle(cmd(&format!("LOAD {name} {SCHEMA} | {DEPS}")))
    }

    #[test]
    fn load_then_query_round_trip() {
        let reg = Registry::new(RegistryConfig::default());
        assert_eq!(load(&reg, "t"), Response::Ok("loaded deps=2".to_string()));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("BATCH t R:[A -> C]; R:[C -> A];")),
            Response::Ok("implied,not-implied".to_string())
        );
        let keys = reg.handle(cmd("KEYS t R"));
        assert!(
            matches!(&keys, Response::Ok(p) if p.contains("{A}")),
            "{keys:?}"
        );
        let closure = reg.handle(cmd("CLOSURE t R A"));
        assert!(
            matches!(&closure, Response::Ok(p) if p.contains("R:B") && p.contains("R:C")),
            "{closure:?}"
        );
        reg.on_shutdown();
    }

    #[test]
    fn unknown_tenant_and_bad_sources_answer_err() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(matches!(
            reg.handle(cmd("IMPLIES ghost R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(matches!(
            reg.handle(cmd("LOAD bad not-a-schema | whatever")),
            Response::Err(msg) if msg.starts_with("schema:")
        ));
        assert!(matches!(
            reg.handle(cmd(&format!("LOAD bad {SCHEMA} | not-deps"))),
            Response::Err(msg) if msg.starts_with("deps:")
        ));
        // A malformed goal against a healthy tenant: ERR, and the
        // session keeps answering.
        assert!(load(&reg, "t").is_ok());
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[Nope -> B]")),
            Response::Err(_)
        ));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Ok("implied".to_string())
        );
        reg.on_shutdown();
    }

    #[test]
    fn adddep_dropdep_mutate_the_resident_session() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        let resp = reg.handle(cmd("ADDDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("added relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        let resp = reg.handle(cmd("DROPDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("dropped relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        // Retracting an NFD that is not in Σ answers ERR and leaves the
        // warm session serving.
        assert!(matches!(
            reg.handle(cmd("DROPDEP t R:[C -> A]")),
            Response::Err(msg) if msg.contains("not in")
        ));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        reg.on_shutdown();
    }

    #[test]
    fn mutations_are_charged_to_the_tenant_quota() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("QUOTA t 2")),
            Response::Ok("quota=2".to_string())
        );
        // The mutation costs the rebuilt pool size (>= 2 here), so the
        // quota drains to zero and the next workload verb is denied
        // before dispatch.
        assert!(reg.handle(cmd("ADDDEP t R:[C -> A]")).is_ok());
        assert!(matches!(
            reg.handle(cmd("ADDDEP t R:[B -> A]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        reg.on_shutdown();
    }

    #[test]
    fn quota_zero_denies_before_dispatch_and_is_recoverable() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("QUOTA t 0")),
            Response::Ok("quota=0".to_string())
        );
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        // Raising the quota restores service on the same warm session.
        assert_eq!(
            reg.handle(cmd("QUOTA t 100000")),
            Response::Ok("quota=100000".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Ok("implied".to_string())
        );
        assert!(reg.stats_line().contains("quota_denials=1"));
        reg.on_shutdown();
    }

    #[test]
    fn queries_deplete_a_metered_quota() {
        let reg = Registry::new(RegistryConfig {
            default_quota: Some(1),
            ..RegistryConfig::default()
        });
        assert!(load(&reg, "t").is_ok());
        // First query runs (cost ≥ 1 drains the single unit), second is
        // denied before dispatch. The first may itself exhaust its
        // quota-tightened budget — either way it is never an ERR.
        assert!(!matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Err(_)
        ));
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        reg.on_shutdown();
    }

    #[test]
    fn lru_eviction_under_resident_cap() {
        let reg = Registry::new(RegistryConfig {
            max_resident: 2,
            ..RegistryConfig::default()
        });
        assert!(load(&reg, "a").is_ok());
        assert!(load(&reg, "b").is_ok());
        // Touch `a` so `b` is the LRU when `c` arrives.
        assert!(reg.handle(cmd("IMPLIES a R:[A -> B]")).is_ok());
        assert!(load(&reg, "c").is_ok());
        assert!(matches!(
            reg.handle(cmd("IMPLIES b R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(reg.handle(cmd("IMPLIES a R:[A -> B]")).is_ok());
        assert!(reg.handle(cmd("IMPLIES c R:[A -> B]")).is_ok());
        let stats = reg.stats_line();
        assert!(stats.contains("evicted_lru=1"), "{stats}");
        assert!(
            stats.contains("resident=[c,a]") || stats.contains("resident=[a,c]"),
            "{stats}"
        );
        reg.on_shutdown();
    }

    #[test]
    fn evict_and_reload_lifecycle() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("EVICT t")),
            Response::Ok("evicted".to_string())
        );
        assert!(matches!(
            reg.handle(cmd("EVICT t")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(load(&reg, "t").is_ok());
        assert!(load(&reg, "t").is_ok(), "reload replaces in place");
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        let stats = reg.stats_line();
        assert!(stats.contains("reloads=1"), "{stats}");
        assert!(stats.contains("evicted=1"), "{stats}");
        reg.on_shutdown();
    }

    /// A scratch file path in the system temp dir, removed on drop.
    struct TempSnap(std::path::PathBuf);

    impl TempSnap {
        fn new(tag: &str) -> TempSnap {
            TempSnap(
                std::env::temp_dir().join(format!("nfd-serve-{tag}-{}.snap", std::process::id())),
            )
        }

        fn as_str(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }

    impl Drop for TempSnap {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn snapshot_then_restore_round_trips_a_tenant() {
        let file = TempSnap::new("roundtrip");
        let path = file.as_str();
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        let resp = reg.handle(cmd(&format!("SNAPSHOT t {path}")));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("snapshot bytes=")),
            "{resp:?}"
        );
        // Evict, then resurrect from disk under a new name: the thawed
        // session answers exactly like the compiled one did.
        assert!(reg.handle(cmd("EVICT t")).is_ok());
        let resp = reg.handle(cmd(&format!("RESTORE warm {path}")));
        assert_eq!(resp, Response::Ok("restored deps=2 (thawed)".to_string()));
        assert_eq!(
            reg.handle(cmd("IMPLIES warm R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES warm R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        // Mutations work on the thawed session too.
        assert!(reg.handle(cmd("ADDDEP warm R:[C -> A]")).is_ok());
        assert_eq!(
            reg.handle(cmd("IMPLIES warm R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        let stats = reg.stats_line();
        assert!(stats.contains("snapshots_written=1"), "{stats}");
        assert!(stats.contains("restores_ok=1"), "{stats}");
        assert!(stats.contains("restores_rejected=0"), "{stats}");
        assert!(stats.contains("thaw_fallbacks=0"), "{stats}");
        reg.on_shutdown();
    }

    #[test]
    fn corrupt_restore_falls_back_or_rejects_with_typed_reason() {
        let file = TempSnap::new("corrupt");
        let path = file.as_str();
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert!(reg.handle(cmd(&format!("SNAPSHOT t {path}"))).is_ok());

        // Corrupt a compiled section (late in the file): the sources
        // salvage, so RESTORE degrades to a fresh compile and the
        // session still answers correctly.
        let pristine = std::fs::read(&file.0).unwrap();
        let mut bytes = pristine.clone();
        let late = bytes.len() - 9;
        bytes[late] ^= 0xFF;
        std::fs::write(&file.0, &bytes).unwrap();
        let resp = reg.handle(cmd(&format!("RESTORE hurt {path}")));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.contains("compiled fresh")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES hurt R:[A -> C]")),
            Response::Ok("implied".to_string())
        );

        // Destroy the header: nothing salvages, RESTORE answers ERR and
        // no tenant appears.
        std::fs::write(&file.0, b"garbage").unwrap();
        let resp = reg.handle(cmd(&format!("RESTORE dead {path}")));
        assert!(
            matches!(&resp, Response::Err(msg) if msg.starts_with("restore:")),
            "{resp:?}"
        );
        assert!(matches!(
            reg.handle(cmd("IMPLIES dead R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));

        // A missing file is the same typed rejection.
        let resp = reg.handle(cmd("RESTORE ghost /nonexistent/nope.snap"));
        assert!(
            matches!(&resp, Response::Err(msg) if msg.starts_with("restore:")),
            "{resp:?}"
        );
        let stats = reg.stats_line();
        assert!(stats.contains("thaw_fallbacks=1"), "{stats}");
        assert!(stats.contains("restores_rejected=2"), "{stats}");
        reg.on_shutdown();
    }

    #[test]
    fn snapshot_is_quota_charged_and_unknown_tenant_rejected() {
        let file = TempSnap::new("quota");
        let path = file.as_str();
        let reg = Registry::new(RegistryConfig::default());
        assert!(matches!(
            reg.handle(cmd(&format!("SNAPSHOT ghost {path}"))),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("QUOTA t 1")),
            Response::Ok("quota=1".to_string())
        );
        // The snapshot drains the single unit; the next workload verb is
        // denied before dispatch.
        assert!(reg.handle(cmd(&format!("SNAPSHOT t {path}"))).is_ok());
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        reg.on_shutdown();
    }

    #[test]
    fn shutdown_drains_every_actor() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "a").is_ok());
        assert!(load(&reg, "b").is_ok());
        reg.on_shutdown();
        assert!(reg.stats_line().contains("sessions=0"));
        assert!(matches!(
            reg.handle(cmd("IMPLIES a R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
    }

    /// The parallel pool answers every verb — reads, mutations,
    /// reads-after-mutation — with the same wire responses a pool of one
    /// gives.
    #[test]
    fn parallel_pool_matches_the_sequential_daemon() {
        let reg = Registry::new(RegistryConfig {
            workers: 4,
            ..RegistryConfig::default()
        });
        assert_eq!(load(&reg, "t"), Response::Ok("loaded deps=2".to_string()));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("BATCH t R:[A -> C]; R:[C -> A];")),
            Response::Ok("implied,not-implied".to_string())
        );
        let keys = reg.handle(cmd("KEYS t R"));
        assert!(
            matches!(&keys, Response::Ok(p) if p.contains("{A}")),
            "{keys:?}"
        );
        let closure = reg.handle(cmd("CLOSURE t R A"));
        assert!(
            matches!(&closure, Response::Ok(p) if p.contains("R:B") && p.contains("R:C")),
            "{closure:?}"
        );
        // A mutation swaps the epoch under the pool; verdicts follow.
        let resp = reg.handle(cmd("ADDDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("added relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        let resp = reg.handle(cmd("DROPDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("dropped relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert!(matches!(
            reg.handle(cmd("DROPDEP t R:[C -> A]")),
            Response::Err(msg) if msg.contains("not in")
        ));
        assert_eq!(
            reg.handle(cmd("BATCH t R:[A -> C]; R:[C -> A];")),
            Response::Ok("implied,not-implied".to_string())
        );
        reg.on_shutdown();
    }

    /// Two tenants loaded from identical sources resolve to the *same*
    /// pooled closure cache and warm each other; a mutation forks the
    /// mutated tenant onto a private cache, leaving the pool entry to
    /// the tenants still serving the original Σ.
    #[test]
    fn same_source_tenants_share_a_cache_until_one_mutates() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "a").is_ok());
        assert!(load(&reg, "b").is_ok());
        let (cache_a, cache_b) = {
            let tenants = reg.tenants.lock().unwrap();
            let find = |name: &str| {
                Arc::clone(
                    &tenants
                        .iter()
                        .find(|t| t.name == name)
                        .unwrap()
                        .epoch
                        .as_ref()
                        .unwrap()
                        .cache,
                )
            };
            (find("a"), find("b"))
        };
        assert!(
            Arc::ptr_eq(&cache_a, &cache_b),
            "identical sources must share one pooled cache"
        );
        assert!(reg.handle(cmd("ADDDEP b R:[C -> A]")).is_ok());
        let cache_b2 = {
            let tenants = reg.tenants.lock().unwrap();
            Arc::clone(
                &tenants
                    .iter()
                    .find(|t| t.name == "b")
                    .unwrap()
                    .epoch
                    .as_ref()
                    .unwrap()
                    .cache,
            )
        };
        assert!(
            !Arc::ptr_eq(&cache_a, &cache_b2),
            "a mutated tenant must not keep writing into the shared cache"
        );
        // The un-mutated tenant still answers from the original Σ.
        assert_eq!(
            reg.handle(cmd("IMPLIES a R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES b R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        reg.on_shutdown();
    }

    /// The new observability fields ride at the end of the STATS line:
    /// worker count, epoch swaps, queue depth, and closure-cache
    /// hit/miss broken out per tenant and for the shared pool.
    #[test]
    fn stats_line_reports_parallel_and_cache_observability() {
        let reg = Registry::new(RegistryConfig {
            workers: 2,
            ..RegistryConfig::default()
        });
        assert!(load(&reg, "t").is_ok());
        // CLOSURE twice: the second is a cache hit on the shared entry.
        assert!(reg.handle(cmd("CLOSURE t R A")).is_ok());
        assert!(reg.handle(cmd("CLOSURE t R A")).is_ok());
        assert!(reg.handle(cmd("ADDDEP t R:[C -> A]")).is_ok());
        let stats = reg.stats_line();
        for field in [
            "workers=2",
            "epoch_swaps=1",
            "worker_queue_depth=0",
            "closure_hits=",
            "closure_misses=",
            "shared_caches=1",
            "shared_cache_hits=",
            "shared_cache_misses=",
            "tenant_cache=[t:",
        ] {
            assert!(stats.contains(field), "missing `{field}` in: {stats}");
        }
        reg.on_shutdown();
    }
}
