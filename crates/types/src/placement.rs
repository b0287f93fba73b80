//! Server-group identity and register placement.
//!
//! The paper's protocol is per-register: nothing requires two registers
//! to share a quorum. A production namespace therefore shards its
//! registers across independent **server groups** — each group its own
//! `S = 2t + b + 1` cluster with its own parameters — and routes every
//! operation by register. [`GroupId`] names one group; [`Placement`] is
//! the routing table: a consistent-hash ring of virtual nodes (so
//! adding a group moves only `~1/groups` of the keyspace) plus an
//! override table for registers that have been explicitly re-homed
//! (live migration pins a register to its destination group).
//!
//! ```
//! use lucky_types::{Placement, RegisterId};
//!
//! let placement = Placement::new(4);
//! let g = placement.group_of(RegisterId(7));
//! assert!(g.index() < 4);
//! // Deterministic: the same register always routes to the same group.
//! assert_eq!(placement.group_of(RegisterId(7)), g);
//! ```

use crate::{splitmix64, RegisterId};
use std::collections::BTreeMap;
use std::fmt;

/// Name of one server group: an independent quorum of servers with its
/// own resilience parameters, serving the registers the [`Placement`]
/// routes to it. Single-group deployments use [`GroupId::DEFAULT`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GroupId(pub u16);

impl GroupId {
    /// The group implied by the classic single-quorum store.
    pub const DEFAULT: GroupId = GroupId(0);

    /// Iterator over the first `count` group ids: `0 .. count`.
    pub fn all(count: usize) -> impl Iterator<Item = GroupId> {
        (0..count as u16).map(GroupId)
    }

    /// Zero-based index usable for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The register → server-group routing table.
///
/// A classic consistent-hash ring: every group projects
/// [`Placement::vnodes`] virtual stations onto the `u64` hash circle,
/// and a register belongs to the first station clockwise of its own
/// hash. On top of the ring sits an **override table**: a register
/// pinned there routes to its pinned group regardless of the ring —
/// this is how live migration re-homes a register without disturbing
/// any other key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Ring stations, sorted by hash. Ties (astronomically rare) break
    /// toward the lower group id via the sort on the pair.
    ring: Vec<(u64, GroupId)>,
    groups: u16,
    vnodes: usize,
    overrides: BTreeMap<RegisterId, GroupId>,
}

impl Placement {
    /// Virtual stations per group when built with [`Placement::new`]:
    /// enough that a 4-group ring balances within a few percent.
    pub const DEFAULT_VNODES: usize = 64;

    /// A ring over `groups` groups with [`Placement::DEFAULT_VNODES`]
    /// stations each.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or exceeds the [`GroupId`] range.
    pub fn new(groups: usize) -> Placement {
        Placement::with_vnodes(groups, Placement::DEFAULT_VNODES)
    }

    /// A ring over `groups` groups with `vnodes` stations per group.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `vnodes` is zero, or `groups` exceeds the
    /// [`GroupId`] range.
    pub fn with_vnodes(groups: usize, vnodes: usize) -> Placement {
        assert!(groups >= 1, "a placement routes to at least one group");
        assert!(groups <= u16::MAX as usize, "group count exceeds the GroupId range");
        assert!(vnodes >= 1, "each group needs at least one ring station");
        let mut ring = Vec::with_capacity(groups * vnodes);
        for g in GroupId::all(groups) {
            for v in 0..vnodes {
                // Station key: group in the high half, vnode in the low —
                // disjoint preimages, so stations never collide by
                // construction of the input (only by hash collision).
                let station = ((g.0 as u64) << 32) | v as u64;
                ring.push((splitmix64(station), g));
            }
        }
        ring.sort_unstable();
        Placement { ring, groups: groups as u16, vnodes, overrides: BTreeMap::new() }
    }

    /// Number of groups on the ring.
    pub fn group_count(&self) -> usize {
        self.groups as usize
    }

    /// Virtual stations per group.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The group serving `reg`: its override pin if present, otherwise
    /// the first ring station clockwise of the register's hash.
    pub fn group_of(&self, reg: RegisterId) -> GroupId {
        if let Some(&g) = self.overrides.get(&reg) {
            return g;
        }
        self.ring_group(reg)
    }

    /// The group the *ring* assigns `reg`, ignoring overrides — where
    /// the register lives before any migration pins it elsewhere.
    pub fn ring_group(&self, reg: RegisterId) -> GroupId {
        let h = splitmix64((reg.0 as u64) | (1 << 48));
        // First station at or clockwise of `h`, wrapping past the top.
        let i = self.ring.partition_point(|&(station, _)| station < h);
        let (_, g) = self.ring[if i == self.ring.len() { 0 } else { i }];
        g
    }

    /// Pin `reg` to `group`, overriding the ring (chain-independent of
    /// every other register). Re-pinning replaces the previous pin.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not on the ring.
    pub fn pin(&mut self, reg: RegisterId, group: GroupId) {
        assert!(group.index() < self.group_count(), "pin target {group} is not on the ring");
        self.overrides.insert(reg, group);
    }

    /// Remove `reg`'s pin (if any): it routes by the ring again.
    pub fn unpin(&mut self, reg: RegisterId) {
        self.overrides.remove(&reg);
    }

    /// `true` iff `reg` is explicitly pinned.
    pub fn is_pinned(&self, reg: RegisterId) -> bool {
        self.overrides.contains_key(&reg)
    }

    /// Number of pinned registers.
    pub fn pinned_count(&self) -> usize {
        self.overrides.len()
    }

    /// How the first `sample` registers spread across groups (counts per
    /// group, overrides included) — the balance diagnostic the scale
    /// smoke and the placement tests print and assert on.
    pub fn spread(&self, sample: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.group_count()];
        for reg in RegisterId::all(sample) {
            counts[self.group_of(reg).index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let p = Placement::new(4);
        for reg in RegisterId::all(1000) {
            let g = p.group_of(reg);
            assert!(g.index() < 4);
            assert_eq!(p.group_of(reg), g, "stable for {reg}");
        }
        // A freshly built identical ring routes identically.
        let q = Placement::new(4);
        for reg in RegisterId::all(1000) {
            assert_eq!(p.group_of(reg), q.group_of(reg));
        }
    }

    #[test]
    fn default_ring_balances_within_a_factor_of_two() {
        let p = Placement::new(4);
        let spread = p.spread(100_000);
        assert_eq!(spread.iter().sum::<usize>(), 100_000);
        let (min, max) = (spread.iter().min().unwrap(), spread.iter().max().unwrap());
        assert!(*min > 0, "every group serves keys: {spread:?}");
        assert!(*max < 2 * *min, "balanced within 2x: {spread:?}");
    }

    #[test]
    fn adding_a_group_moves_only_a_fraction_of_keys() {
        let before = Placement::new(4);
        let after = Placement::new(5);
        let moved =
            RegisterId::all(10_000).filter(|&r| before.group_of(r) != after.group_of(r)).count();
        // Consistent hashing: ~1/5 of keys move; a modulo table would
        // move ~4/5. Allow generous slack either side.
        assert!(moved > 500, "the new group took some keys ({moved})");
        assert!(moved < 4_000, "most keys stayed put ({moved})");
    }

    #[test]
    fn pins_override_the_ring_and_unpin_restores_it() {
        let mut p = Placement::new(4);
        let reg = RegisterId(42);
        let home = p.group_of(reg);
        let away = GroupId((home.0 + 1) % 4);
        p.pin(reg, away);
        assert_eq!(p.group_of(reg), away);
        assert!(p.is_pinned(reg));
        assert_eq!(p.pinned_count(), 1);
        // Other registers are untouched by the pin.
        assert_eq!(p.group_of(RegisterId(43)), Placement::new(4).group_of(RegisterId(43)));
        p.unpin(reg);
        assert_eq!(p.group_of(reg), home);
        assert!(!p.is_pinned(reg));
    }

    #[test]
    fn single_group_ring_routes_everything_to_it() {
        let p = Placement::new(1);
        for reg in RegisterId::all(100) {
            assert_eq!(p.group_of(reg), GroupId::DEFAULT);
        }
    }

    #[test]
    #[should_panic(expected = "not on the ring")]
    fn pinning_to_a_foreign_group_is_rejected() {
        let mut p = Placement::new(2);
        p.pin(RegisterId(0), GroupId(2));
    }

    #[test]
    fn group_id_display_and_iteration() {
        assert_eq!(GroupId(3).to_string(), "g3");
        let all: Vec<GroupId> = GroupId::all(3).collect();
        assert_eq!(all, vec![GroupId(0), GroupId(1), GroupId(2)]);
        assert_eq!(GroupId::DEFAULT.index(), 0);
    }
}
