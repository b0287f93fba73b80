//! The threaded sharded store: one [`NetStore`] per server group — each
//! its own router, slot space, worker threads and (optionally) durable
//! directory — behind a shared, thread-safe route table, with a live
//! migration engine that moves a register between groups *under
//! concurrent client traffic*.

use crate::migrate::MigrationReport;
use crate::namespace::{Namespace, NamespaceError};
use lucky_checker::Violations;
use lucky_core::runtime::ServerCore;
use lucky_core::StoreConfig;
use lucky_net::{
    Driver, GroupStats, NetConfig, NetError, NetOutcome, NetRegisterHandle, NetStats, NetStore,
    Transport,
};
use lucky_types::{GroupId, Placement, RegisterId, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Byzantine cores queued for one group: `(server index, core)` pairs.
type ByzCores = Vec<(u16, Box<dyn ServerCore>)>;

/// Why a sharded-store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardNetError {
    /// The namespace refused (unknown register, quota, capacity).
    Namespace(NamespaceError),
    /// The register's group refused (timeout, shutdown).
    Net(NetError),
}

impl std::fmt::Display for ShardNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardNetError::Namespace(e) => write!(f, "namespace: {e}"),
            ShardNetError::Net(e) => write!(f, "net: {e}"),
        }
    }
}

impl std::error::Error for ShardNetError {}

impl From<NamespaceError> for ShardNetError {
    fn from(e: NamespaceError) -> ShardNetError {
        ShardNetError::Namespace(e)
    }
}

impl From<NetError> for ShardNetError {
    fn from(e: NetError) -> ShardNetError {
        ShardNetError::Net(e)
    }
}

/// One register's live route: the group and handle ops go through, plus
/// the two atomics the migration drain protocol rides on.
///
/// The protocol (both sides `SeqCst`): a client *enters* by incrementing
/// `inflight` and only then checking `migrating` — backing out (and
/// re-fetching the route) if set. The migrator sets `migrating` and only
/// then waits for `inflight == 0`. In the seqcst total order one of the
/// two observations must land: either the client sees the flag (and
/// retires), or the migrator sees the client's increment (and waits) —
/// no op can slip through a drain.
struct Route {
    group: GroupId,
    backing: RegisterId,
    handle: NetRegisterHandle,
    inflight: AtomicU64,
    migrating: AtomicBool,
}

/// A sharded threaded store over real OS resources. Built from the same
/// multi-group [`StoreConfig`] as [`ShardSimStore`](crate::ShardSimStore)
/// plus a [`NetConfig`]; ops take `&self` and are safe to drive from
/// many threads, which is what lets [`ShardNetStore::migrate`] run
/// against live concurrent traffic.
pub struct ShardNetStore {
    groups: Vec<Mutex<NetStore>>,
    namespace: Mutex<Namespace>,
    routes: Mutex<BTreeMap<RegisterId, Arc<Route>>>,
}

/// Builder for [`ShardNetStore`]; see [`ShardNetStore::builder`].
pub struct ShardNetStoreBuilder {
    cfg: StoreConfig,
    net: NetConfig,
    driver: Option<Driver>,
    register_quota: usize,
    byzantine: Vec<(GroupId, u16, Box<dyn ServerCore>)>,
    crashed: Vec<(GroupId, u16)>,
}

impl std::fmt::Debug for ShardNetStoreBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardNetStoreBuilder")
            .field("groups", &self.cfg.groups)
            .field("driver", &self.driver)
            .finish_non_exhaustive()
    }
}

impl ShardNetStoreBuilder {
    /// Changes nothing: every group runs over loopback sockets, the only
    /// [`Transport`]. Kept so that callers which still name the
    /// transport, such as the end-to-end benchmark (`benchmark/`), keep
    /// compiling.
    #[must_use]
    pub fn transport(self, _transport: Transport) -> Self {
        self
    }

    /// Pin every group's wait strategy (chainable); unset, each group
    /// picks [`Driver::Reactor`] on Linux and [`Driver::Polled`]
    /// otherwise.
    #[must_use]
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = Some(driver);
        self
    }

    /// Cap live namespace registers (chainable; default unbounded).
    #[must_use]
    pub fn register_quota(mut self, quota: usize) -> Self {
        self.register_quota = quota;
        self
    }

    /// Replace server `i` **of group `g`** with a Byzantine core
    /// (chainable). Other groups keep their honest servers — fault
    /// isolation is the point of sharding.
    #[must_use]
    pub fn byzantine(mut self, g: GroupId, i: u16, core: Box<dyn ServerCore>) -> Self {
        self.byzantine.push((g, i, core));
        self
    }

    /// Start server `i` of group `g` crashed (chainable).
    #[must_use]
    pub fn crashed(mut self, g: GroupId, i: u16) -> Self {
        self.crashed.push((g, i));
        self
    }

    /// Spawn every group's servers, routers and shard workers.
    pub fn build(self) -> ShardNetStore {
        let cfg = self.cfg;
        let mut byzantine: BTreeMap<usize, ByzCores> = BTreeMap::new();
        for (g, i, core) in self.byzantine {
            byzantine.entry(g.index()).or_default().push((i, core));
        }
        let groups: Vec<Mutex<NetStore>> = (0..cfg.groups)
            .map(|g| {
                let gid = GroupId(g as u16);
                let mut net = self.net.clone();
                net.seed = net.seed.wrapping_add(g as u64);
                let mut b = NetStore::builder(cfg.setup_for(gid), net)
                    .registers(cfg.registers)
                    .readers_per_register(cfg.readers_per_register)
                    .protocol(cfg.protocol)
                    .batch(cfg.batch)
                    .trace(cfg.trace);
                if let Some(driver) = self.driver {
                    b = b.driver(driver);
                }
                if let Some(dir) = &cfg.durable_dir {
                    b = b.durable(dir.join(format!("{gid}")));
                }
                for (i, core) in byzantine.remove(&g).unwrap_or_default() {
                    b = b.byzantine(i, core);
                }
                for (bg, i) in &self.crashed {
                    if bg.index() == g {
                        b = b.crashed(*i);
                    }
                }
                Mutex::new(b.build())
            })
            .collect();
        let placement = Placement::new(cfg.groups);
        ShardNetStore {
            groups,
            namespace: Mutex::new(Namespace::new(placement, cfg.registers, self.register_quota)),
            routes: Mutex::new(BTreeMap::new()),
        }
    }
}

impl std::fmt::Debug for ShardNetStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardNetStore")
            .field("groups", &self.groups.len())
            .field("materialized", &self.namespace.lock().materialized())
            .finish_non_exhaustive()
    }
}

impl ShardNetStore {
    /// Start building: one server set per `cfg.groups`, group `g`
    /// running `cfg.setup_for(g)` with net seed `net.seed + g` and (when
    /// durability is on) durable subdirectory `<dir>/g<g>/`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.groups` is zero.
    pub fn builder(cfg: StoreConfig, net: NetConfig) -> ShardNetStoreBuilder {
        assert!(cfg.groups >= 1, "a sharded store serves at least one group");
        ShardNetStoreBuilder {
            cfg,
            net,
            driver: None,
            register_quota: usize::MAX,
            byzantine: Vec::new(),
            crashed: Vec::new(),
        }
    }

    /// Group count.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Live namespace registers.
    pub fn len(&self) -> usize {
        self.namespace.lock().len()
    }

    /// `true` iff no register exists.
    pub fn is_empty(&self) -> bool {
        self.namespace.lock().is_empty()
    }

    /// Registers that have materialized (bound a backing slot).
    pub fn materialized(&self) -> usize {
        self.namespace.lock().materialized()
    }

    /// The group currently serving `reg`.
    pub fn group_of(&self, reg: RegisterId) -> GroupId {
        self.namespace.lock().group_of(reg)
    }

    /// Create registers `0..n` in one step — O(1) memory; nothing
    /// materializes until first use.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn bulk_create(&self, n: u32) -> Result<(), NamespaceError> {
        self.namespace.lock().bulk_create(n)
    }

    /// Create one register.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn create_register(&self, reg: RegisterId) -> Result<(), NamespaceError> {
        self.namespace.lock().create_register(reg)
    }

    /// Drop one register: its route and handle are discarded and its
    /// backing slot retired — a recreate materializes a fresh slot with
    /// fresh (⊥) state.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn drop_register(&self, reg: RegisterId) -> Result<(), NamespaceError> {
        let mut routes = self.routes.lock();
        self.namespace.lock().drop_register(reg)?;
        routes.remove(&reg);
        Ok(())
    }

    /// The register's live route, materializing it on first touch.
    /// Lock order everywhere: `routes` → `namespace` → group store.
    fn route(&self, reg: RegisterId) -> Result<Arc<Route>, NamespaceError> {
        let mut routes = self.routes.lock();
        if let Some(r) = routes.get(&reg) {
            return Ok(r.clone());
        }
        let binding = self.namespace.lock().bind(reg)?;
        let handle = self.groups[binding.group.index()]
            .lock()
            .register(binding.backing)
            .expect("fresh backing slots are never double-registered");
        let route = Arc::new(Route {
            group: binding.group,
            backing: binding.backing,
            handle,
            inflight: AtomicU64::new(0),
            migrating: AtomicBool::new(false),
        });
        routes.insert(reg, route.clone());
        Ok(route)
    }

    /// Enter the drain protocol: a route whose `inflight` this op is
    /// counted in and whose `migrating` flag was clear *after* the
    /// count. Spins (yielding) across a concurrent migration, picking up
    /// the re-routed entry once it lands.
    fn enter(&self, reg: RegisterId) -> Result<Arc<Route>, NamespaceError> {
        loop {
            let route = self.route(reg)?;
            route.inflight.fetch_add(1, Ordering::SeqCst);
            if route.migrating.load(Ordering::SeqCst) {
                route.inflight.fetch_sub(1, Ordering::SeqCst);
                std::thread::yield_now();
                continue;
            }
            return Ok(route);
        }
    }

    /// WRITE `v` to `reg` (blocking).
    ///
    /// # Errors
    ///
    /// Propagates [`ShardNetError`].
    pub fn write(&self, reg: RegisterId, v: Value) -> Result<NetOutcome, ShardNetError> {
        let route = self.enter(reg)?;
        let out = route.handle.write(v);
        route.inflight.fetch_sub(1, Ordering::SeqCst);
        Ok(out?)
    }

    /// READ `reg` through reader `j` (blocking).
    ///
    /// # Errors
    ///
    /// Propagates [`ShardNetError`].
    pub fn read(&self, reg: RegisterId, j: u16) -> Result<NetOutcome, ShardNetError> {
        let route = self.enter(reg)?;
        let out = route.handle.read(j);
        route.inflight.fetch_sub(1, Ordering::SeqCst);
        Ok(out?)
    }

    /// Live-migrate `reg` to group `to`, safe under concurrent
    /// [`write`](ShardNetStore::write)/[`read`](ShardNetStore::read)
    /// traffic: new ops block at the drain gate, in-flight ones are
    /// waited out, the latest value crosses via an atomic READ + WRITE
    /// pair (persisting through `lucky-log` before acking on durable
    /// stores), and the route swap releases the blocked ops onto the
    /// destination group.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardNetError`].
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a group of this store.
    pub fn migrate(&self, reg: RegisterId, to: GroupId) -> Result<MigrationReport, ShardNetError> {
        let route = self.route(reg)?;
        let from = crate::namespace::Binding { group: route.group, backing: route.backing };
        // Draining: close the gate, wait out everything already counted.
        route.migrating.store(true, Ordering::SeqCst);
        let drained = route.inflight.load(Ordering::SeqCst);
        while route.inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        // Transferring: the drain left nothing in flight, so this READ
        // returns the last linearized value; the WRITE makes it the
        // destination slot's first write before anyone can route there.
        let carried = route.handle.read(0)?.value;
        let dest = self.namespace.lock().rebind(reg, to)?;
        let handle = self.groups[dest.group.index()]
            .lock()
            .register(dest.backing)
            .expect("fresh backing slots are never double-registered");
        // A never-written register carries ⊥ — nothing to install, the
        // fresh destination slot already starts there (and ⊥ is not a
        // legal WRITE input, §2.2).
        if !carried.is_bot() {
            handle.write(carried.clone())?;
        }
        // Rerouted: blocked clients re-fetch and land on the new group.
        let new_route = Arc::new(Route {
            group: dest.group,
            backing: dest.backing,
            handle,
            inflight: AtomicU64::new(0),
            migrating: AtomicBool::new(false),
        });
        self.routes.lock().insert(reg, new_route);
        Ok(MigrationReport { reg, from, to: dest, carried, drained })
    }

    /// Crash server `i` of group `g` (drop its connections, stop it).
    pub fn crash_server(&self, g: GroupId, i: u16) {
        self.groups[g.index()].lock().crash_server(i);
    }

    /// Restart server `i` of group `g` (amnesiac unless durable).
    pub fn restart_server(&self, g: GroupId, i: u16) {
        self.groups[g.index()].lock().restart_server(i);
    }

    /// Group `g`'s raw router counters.
    pub fn group_stats(&self, g: GroupId) -> NetStats {
        self.groups[g.index()].lock().stats()
    }

    /// Group `g`'s trace report (all-zero unless `cfg.trace` enabled
    /// tracing).
    pub fn group_trace(&self, g: GroupId) -> lucky_trace::TraceReport {
        self.groups[g.index()].lock().trace()
    }

    /// Rolled-up counters: every scalar summed across groups, and
    /// [`NetStats::per_group`] filled with one [`GroupStats`] per group
    /// (ops served, wire bytes, recoveries, and the lucky ratio —
    /// fast-path ops over completed ops — when tracing is on). The
    /// per-register and per-server maps stay empty in the rollup: their
    /// keys are group-local; read them via
    /// [`ShardNetStore::group_stats`].
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for (g, store) in self.groups.iter().enumerate() {
            let store = store.lock();
            let s = store.stats();
            total.messages += s.messages;
            total.parts += s.parts;
            total.batches_sent += s.batches_sent;
            total.bytes += s.bytes;
            total.wire_bytes += s.wire_bytes;
            total.decode_errors += s.decode_errors;
            total.dropped += s.dropped;
            total.recoveries += s.recoveries;
            total.log_bytes += s.log_bytes;
            total.io_errors += s.io_errors;
            total.reactor_wakeups += s.reactor_wakeups;
            total.frame_allocs += s.frame_allocs;
            let report = store.trace();
            let fast = report.fast_reads + report.fast_writes;
            let slow = report.slow_reads + report.slow_writes;
            let lucky_ratio =
                if fast + slow == 0 { 0.0 } else { fast as f64 / (fast + slow) as f64 };
            total.per_group.insert(
                GroupId(g as u16),
                GroupStats {
                    ops: store.history_len() as u64,
                    wire_bytes: s.wire_bytes,
                    recoveries: s.recoveries,
                    lucky_ratio,
                },
            );
        }
        total
    }

    /// Check atomicity of every group's history, each partitioned per
    /// backing register (retired pre-migration slots included).
    ///
    /// # Errors
    ///
    /// All violations across all groups, merged.
    pub fn check_atomicity(&self) -> Result<(), Violations> {
        let mut all = Vec::new();
        for store in self.groups.iter() {
            if let Err(v) = store.lock().check_atomicity() {
                all.extend(v.0);
            }
        }
        if all.is_empty() {
            Ok(())
        } else {
            Err(Violations(all))
        }
    }

    /// Stop every group's servers, routers and workers. Idempotent.
    pub fn shutdown(&self) {
        for store in self.groups.iter() {
            store.lock().shutdown();
        }
    }
}

impl Drop for ShardNetStore {
    fn drop(&mut self) {
        self.shutdown();
    }
}
