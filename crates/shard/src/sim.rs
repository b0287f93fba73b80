//! The simulated sharded store: one [`SimStore`] per server group behind
//! a shared [`Namespace`], plus the deterministic migration engine and
//! the differential walk harness the tests drive.

use crate::migrate::MigrationReport;
use crate::namespace::{Namespace, NamespaceError};
use lucky_checker::Violations;
use lucky_core::{OpOutcome, SimStore, StoreConfig};
use lucky_types::{GroupId, OpId, OpKind, Placement, RegisterId, Value};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// A sharded simulated store: `cfg.groups` independent [`SimStore`]
/// engines — each its own server set, event queue, quorum parameters
/// (via [`StoreConfig::group_setup`]) and seed — with a [`Namespace`]
/// routing namespace-level [`RegisterId`]s onto per-group backing slots.
///
/// Faults stay group-local by construction: crash or Byzantine-corrupt
/// servers of one group through [`ShardSimStore::group_mut`] and the
/// other groups' worlds never see a single message of it.
#[derive(Debug)]
pub struct ShardSimStore {
    namespace: Namespace,
    groups: Vec<SimStore>,
    /// Ops invoked through the async API, pending a drain; migration
    /// drains the ones targeting its register first.
    pending: Vec<(RegisterId, GroupId, OpId)>,
}

impl ShardSimStore {
    /// Build one engine per group from the template `cfg`: group `g`
    /// runs `cfg.setup_for(g)`, seed `cfg.seed + g` (decorrelated
    /// schedules), durable subdirectory `<dir>/g<g>/` when durability is
    /// on, and `cfg.registers` backing slots.
    ///
    /// The namespace starts empty with an unbounded register quota; see
    /// [`ShardSimStore::with_register_quota`].
    pub fn new(cfg: StoreConfig) -> ShardSimStore {
        ShardSimStore::with_register_quota(cfg, usize::MAX)
    }

    /// [`ShardSimStore::new`] with a cap on live namespace registers.
    pub fn with_register_quota(cfg: StoreConfig, quota: usize) -> ShardSimStore {
        assert!(cfg.groups >= 1, "a sharded store serves at least one group");
        let groups: Vec<SimStore> = (0..cfg.groups)
            .map(|g| {
                let gid = GroupId(g as u16);
                let mut c = cfg.clone();
                c.setup = cfg.setup_for(gid);
                c.seed = cfg.seed.wrapping_add(g as u64);
                c.groups = 1;
                c.group_setups = Vec::new();
                if let Some(dir) = &cfg.durable_dir {
                    c.durable_dir = Some(dir.join(format!("{gid}")));
                }
                c.build_sim()
            })
            .collect();
        let placement = Placement::new(cfg.groups);
        ShardSimStore {
            namespace: Namespace::new(placement, cfg.registers, quota),
            groups,
            pending: Vec::new(),
        }
    }

    /// The namespace (existence, placement, bindings).
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Group count.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`'s engine, for stats and checks.
    pub fn group(&self, g: GroupId) -> &SimStore {
        &self.groups[g.index()]
    }

    /// Group `g`'s engine, for fault injection (`crash_server`,
    /// `install_byzantine`, `restart_server`, ...).
    pub fn group_mut(&mut self, g: GroupId) -> &mut SimStore {
        &mut self.groups[g.index()]
    }

    /// The group currently serving `reg`.
    pub fn group_of(&self, reg: RegisterId) -> GroupId {
        self.namespace.group_of(reg)
    }

    /// Create registers `0..n` in one step (lazy; see
    /// [`Namespace::bulk_create`]).
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn bulk_create(&mut self, n: u32) -> Result<(), NamespaceError> {
        self.namespace.bulk_create(n)
    }

    /// Create one register.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn create_register(&mut self, reg: RegisterId) -> Result<(), NamespaceError> {
        self.namespace.create_register(reg)
    }

    /// Drop one register; its backing slot is retired, never reused.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn drop_register(&mut self, reg: RegisterId) -> Result<(), NamespaceError> {
        self.pending.retain(|(r, _, _)| *r != reg);
        self.namespace.drop_register(reg)
    }

    /// WRITE `v` to `reg` and run its group until the op completes.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`]; protocol stalls panic like
    /// [`SimRegister::write`](lucky_core::SimRegister::write).
    pub fn write(&mut self, reg: RegisterId, v: Value) -> Result<OpOutcome, NamespaceError> {
        let b = self.namespace.bind(reg)?;
        Ok(self.groups[b.group.index()].register(b.backing).write(v))
    }

    /// READ `reg` through reader `j` and run its group until the op
    /// completes.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`]; protocol stalls panic like
    /// [`SimRegister::read`](lucky_core::SimRegister::read).
    pub fn read(&mut self, reg: RegisterId, j: u16) -> Result<OpOutcome, NamespaceError> {
        let b = self.namespace.bind(reg)?;
        Ok(self.groups[b.group.index()].register(b.backing).read(j))
    }

    /// Invoke a WRITE without running it; drained by
    /// [`ShardSimStore::drain`] or a migration of the same register.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn invoke_write(&mut self, reg: RegisterId, v: Value) -> Result<OpId, NamespaceError> {
        let b = self.namespace.bind(reg)?;
        let op = self.groups[b.group.index()].register(b.backing).invoke_write(v);
        self.pending.push((reg, b.group, op));
        Ok(op)
    }

    /// Invoke a READ without running it.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    pub fn invoke_read(&mut self, reg: RegisterId, j: u16) -> Result<OpId, NamespaceError> {
        let b = self.namespace.bind(reg)?;
        let op = self.groups[b.group.index()].register(b.backing).invoke_read(j);
        self.pending.push((reg, b.group, op));
        Ok(op)
    }

    /// Run every group until all invoked ops complete; returns their
    /// outcomes in invocation order.
    ///
    /// # Panics
    ///
    /// Panics if a group stalls with ops pending (a protocol bug or an
    /// over-budget fault load — same contract as the inner stores).
    pub fn drain(&mut self) -> Vec<OpOutcome> {
        let pending = std::mem::take(&mut self.pending);
        for (_, g, op) in &pending {
            self.groups[g.index()]
                .run_until_complete(*op)
                .expect("pending op must complete under a within-budget fault load");
        }
        pending.iter().map(|(_, g, op)| self.groups[g.index()].outcome(*op)).collect()
    }

    /// Live-migrate `reg` to group `to`: drain its in-flight ops, carry
    /// the latest value across with an atomic READ + WRITE pair, then
    /// re-route (pin) the register onto a fresh backing slot in `to`.
    ///
    /// # Errors
    ///
    /// Propagates [`NamespaceError`].
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a group of this store, or if a drain or
    /// transfer op stalls.
    pub fn migrate(
        &mut self,
        reg: RegisterId,
        to: GroupId,
    ) -> Result<MigrationReport, NamespaceError> {
        let from = self.namespace.bind(reg)?;
        // Draining: finish every invoked op targeting this register.
        let mine: Vec<(RegisterId, GroupId, OpId)> =
            self.pending.iter().filter(|(r, _, _)| *r == reg).copied().collect();
        self.pending.retain(|(r, _, _)| *r != reg);
        let drained = mine.len() as u64;
        for (_, g, op) in mine {
            self.groups[g.index()]
                .run_until_complete(op)
                .expect("draining op must complete before the transfer");
        }
        // Transferring: atomic READ on the source returns the last
        // linearized value (nothing is in flight any more); the WRITE
        // installs it as the destination slot's first write.
        let carried = self.groups[from.group.index()].register(from.backing).read(0).value;
        let dest = self.namespace.rebind(reg, to)?;
        // A never-written register carries ⊥ — nothing to install, the
        // fresh destination slot already starts there (and ⊥ is not a
        // legal WRITE input, §2.2).
        if !carried.is_bot() {
            self.groups[dest.group.index()].register(dest.backing).write(carried.clone());
        }
        // Rerouted: the namespace pin already points every later
        // bind() at the destination.
        Ok(MigrationReport { reg, from, to: dest, carried, drained })
    }

    /// Check atomicity of every group's history, each partitioned per
    /// backing register. Retired (pre-migration) slots are checked too —
    /// their histories simply end at the transfer READ.
    ///
    /// # Errors
    ///
    /// All violations across all groups, merged.
    pub fn check_atomicity(&self) -> Result<(), Violations> {
        let mut all = Vec::new();
        for g in self.groups.iter() {
            if let Err(v) = g.check_atomicity() {
                all.extend(v.0);
            }
        }
        if all.is_empty() {
            Ok(())
        } else {
            Err(Violations(all))
        }
    }
}

/// One step of a [`differential_migration_walk`] schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WalkStep {
    Write(RegisterId, u64),
    Read(RegisterId),
    Migrate(RegisterId, GroupId),
}

/// What a differential walk observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkReport {
    /// Client operations executed (per store).
    pub ops: usize,
    /// Migrations the migrating store performed.
    pub migrations: usize,
    /// Every READ's `(register, value)` — identical between the two
    /// stores by the time the walk returns.
    pub reads: Vec<(RegisterId, Option<u64>)>,
}

/// Differential migration harness: run one seed-derived schedule of
/// writes and reads against **two** stores built from the same `cfg` —
/// one interleaving live migrations into the schedule, one never
/// migrating — and require that every read observes the same value in
/// both, and that both pass the per-group atomicity check. Migration is
/// thus shown to be invisible to clients, under whatever quorum shapes
/// `cfg.group_setups` mixes.
///
/// # Panics
///
/// Panics on any divergence or atomicity violation — this is a checking
/// harness, its return means the walk passed.
pub fn differential_migration_walk(cfg: StoreConfig, seed: u64, steps: usize) -> WalkReport {
    assert!(cfg.groups >= 2, "a migration walk needs at least two groups");
    let regs: u32 = 4.min(cfg.registers as u32).max(1);
    let groups = cfg.groups as u16;
    // Derive the whole schedule up front so both stores replay the exact
    // same client ops; migrations are extra steps only the first store
    // takes.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut schedule = Vec::with_capacity(steps);
    for step in 0..steps {
        let reg = RegisterId(rng.gen_range(0..regs));
        match rng.gen_range(0u8..10) {
            0..=5 => schedule.push(WalkStep::Write(reg, 1 + step as u64)),
            6..=7 => schedule.push(WalkStep::Read(reg)),
            _ => schedule.push(WalkStep::Migrate(reg, GroupId(rng.gen_range(0..groups)))),
        }
    }

    let mut migrating = ShardSimStore::new(cfg.clone());
    let mut fixed = ShardSimStore::new(cfg);
    migrating.bulk_create(regs).unwrap();
    fixed.bulk_create(regs).unwrap();

    let mut report = WalkReport { ops: 0, migrations: 0, reads: Vec::new() };
    for step in &schedule {
        match step {
            WalkStep::Write(reg, x) => {
                migrating.write(*reg, Value::from_u64(*x)).unwrap();
                fixed.write(*reg, Value::from_u64(*x)).unwrap();
                report.ops += 1;
            }
            WalkStep::Read(reg) => {
                let a = migrating.read(*reg, 0).unwrap();
                let b = fixed.read(*reg, 0).unwrap();
                assert_eq!(a.kind, OpKind::Read);
                assert_eq!(
                    a.value, b.value,
                    "walk(seed {seed}) diverged on {reg}: migrated store read {:?}, \
                     fixed store read {:?}",
                    a.value, b.value
                );
                report.reads.push((*reg, a.value.as_u64()));
                report.ops += 1;
            }
            WalkStep::Migrate(reg, to) => {
                migrating.migrate(*reg, *to).unwrap();
                report.migrations += 1;
            }
        }
    }
    migrating.check_atomicity().expect("migrating store must stay atomic across the walk");
    fixed.check_atomicity().expect("fixed store must stay atomic across the walk");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::Params;

    fn cfg(groups: usize) -> StoreConfig {
        StoreConfig::synchronous(Params::new(1, 0, 1, 0).unwrap()).registers(8).groups(groups)
    }

    #[test]
    fn routes_ops_to_the_placement_group() {
        let mut store = ShardSimStore::new(cfg(4));
        store.bulk_create(16).unwrap();
        let reg = RegisterId(3);
        let g = store.group_of(reg);
        store.write(reg, Value::from_u64(7)).unwrap();
        let r = store.read(reg, 0).unwrap();
        assert_eq!(r.value.as_u64(), Some(7));
        // Only the placement group saw traffic.
        for i in 0..4u16 {
            let ops = store.group(GroupId(i)).history().ops.len();
            if GroupId(i) == g {
                assert_eq!(ops, 2, "placement group serves the ops");
            } else {
                assert_eq!(ops, 0, "group {i} must stay idle");
            }
        }
        store.check_atomicity().unwrap();
    }

    #[test]
    fn groups_can_run_different_quorum_shapes() {
        let big = Params::new(2, 1, 1, 0).unwrap(); // S = 6
        let cfg = cfg(2).group_setup(1, big);
        let mut store = ShardSimStore::new(cfg);
        assert_eq!(store.group(GroupId(0)).server_count(), 3); // S = 2t + b + 1
        assert_eq!(store.group(GroupId(1)).server_count(), 6);
        store.bulk_create(8).unwrap();
        for i in 0..8u32 {
            store.write(RegisterId(i), Value::from_u64(i as u64)).unwrap();
            assert_eq!(store.read(RegisterId(i), 0).unwrap().value.as_u64(), Some(i as u64));
        }
        store.check_atomicity().unwrap();
    }

    #[test]
    fn migration_carries_the_latest_value() {
        let mut store = ShardSimStore::new(cfg(2));
        store.bulk_create(4).unwrap();
        let reg = RegisterId(0);
        store.write(reg, Value::from_u64(1)).unwrap();
        store.write(reg, Value::from_u64(2)).unwrap();
        let from = store.group_of(reg);
        let to = GroupId((from.0 + 1) % 2);
        let report = store.migrate(reg, to).unwrap();
        assert_eq!(report.carried.as_u64(), Some(2));
        assert_eq!(report.from.group, from);
        assert_eq!(report.to.group, to);
        assert_eq!(store.group_of(reg), to);
        assert_eq!(store.read(reg, 0).unwrap().value.as_u64(), Some(2));
        store.write(reg, Value::from_u64(3)).unwrap();
        assert_eq!(store.read(reg, 0).unwrap().value.as_u64(), Some(3));
        store.check_atomicity().unwrap();
    }

    #[test]
    fn migration_drains_invoked_ops_first() {
        let mut store = ShardSimStore::new(cfg(2));
        store.bulk_create(4).unwrap();
        let reg = RegisterId(1);
        store.write(reg, Value::from_u64(10)).unwrap();
        store.invoke_write(reg, Value::from_u64(11)).unwrap();
        let to = GroupId((store.group_of(reg).0 + 1) % 2);
        let report = store.migrate(reg, to).unwrap();
        assert_eq!(report.drained, 1, "the invoked write must be waited out");
        assert_eq!(report.carried.as_u64(), Some(11), "the drained write is the latest value");
        assert_eq!(store.read(reg, 0).unwrap().value.as_u64(), Some(11));
        store.check_atomicity().unwrap();
    }

    #[test]
    fn differential_walks_pass_across_seeds() {
        // Plenty of backing slots: every migration retires one and
        // allocates a fresh one, so capacity must cover the walk.
        let template = cfg(3).group_setup(1, Params::new(2, 1, 1, 0).unwrap()).registers(64);
        for seed in 0..4u64 {
            let report = differential_migration_walk(template.clone(), seed, 60);
            assert_eq!(report.ops + report.migrations, 60);
        }
    }
}
