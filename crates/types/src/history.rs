//! Operation histories.
//!
//! A [`History`] is the record of a run as the atomicity definition of
//! §2.2 sees it: for every READ/WRITE invocation, when it was invoked, when
//! (and whether) it completed, what it returned, and the complexity
//! metadata the paper's "fast operation" definition cares about (round
//! trips, messages). Histories are produced by the simulator and consumed
//! by the `lucky-checker` oracles and the benchmark tables.

use crate::{ProcessId, RegisterId, Time, Value};
use std::fmt;

/// Identifier of one operation instance within a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// An operation a client may invoke on the storage.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `WRITE(v)` — only the writer invokes these.
    Write(Value),
    /// `READ()` — only readers invoke these.
    Read,
}

impl Op {
    /// `true` iff this is a WRITE.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(_))
    }

    /// The kind of this operation, without its payload.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Write(_) => OpKind::Write,
            Op::Read => OpKind::Read,
        }
    }
}

/// The kind of an operation, detached from its payload — carried by
/// outcome types so consumers need not infer it from call-site context.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OpKind {
    /// A `WRITE(v)`.
    Write,
    /// A `READ()`.
    Read,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Write => write!(f, "WRITE"),
            OpKind::Read => write!(f, "READ"),
        }
    }
}

/// The record of one operation in a run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpRecord {
    /// Operation id (unique within the run).
    pub id: OpId,
    /// The register the operation targets.
    pub reg: RegisterId,
    /// The invoking client.
    pub client: ProcessId,
    /// What was invoked.
    pub op: Op,
    /// Invocation instant.
    pub invoked_at: Time,
    /// Completion instant, `None` while (or forever if) incomplete.
    pub completed_at: Option<Time>,
    /// Value returned by a READ (`None` for WRITEs and incomplete ops).
    pub result: Option<Value>,
    /// Communication round-trips the operation used.
    pub rounds: u32,
    /// `true` iff the operation was *fast*: one round-trip (§2.4).
    pub fast: bool,
    /// Messages this client sent plus replies delivered to it during the
    /// operation.
    pub msgs: u64,
    /// Estimated wire bytes for those messages.
    pub bytes: u64,
}

impl OpRecord {
    /// `true` iff the operation has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Latency in microseconds (`None` while incomplete).
    pub fn latency(&self) -> Option<u64> {
        self.completed_at.map(|t| t.since(self.invoked_at))
    }

    /// `true` iff `self` precedes `other` in real-time order: `self`
    /// completed before `other` was invoked (§2.2).
    pub fn precedes(&self, other: &OpRecord) -> bool {
        match self.completed_at {
            Some(t) => t < other.invoked_at,
            None => false,
        }
    }

    /// `true` iff the two operations are concurrent (neither precedes the
    /// other).
    pub fn concurrent_with(&self, other: &OpRecord) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// A full run history: every operation, in the order its runtime
/// recorded them.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct History {
    /// Operations in record order: a simulator history appends each op
    /// when it is invoked, a `NetStore` history when it settles or fails,
    /// so there a READ invoked before a WRITE may come after it. The
    /// checkers rely only on each register's WRITEs being in order,
    /// which its one sequential writer guarantees in either runtime.
    pub ops: Vec<OpRecord>,
}

impl History {
    /// Empty history.
    pub fn new() -> History {
        History::default()
    }

    /// All WRITE records, each register's in invocation (= timestamp)
    /// order.
    pub fn writes(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|r| r.op.is_write())
    }

    /// All READ records.
    pub fn reads(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|r| !r.op.is_write())
    }

    /// All completed READ records.
    pub fn complete_reads(&self) -> impl Iterator<Item = &OpRecord> {
        self.reads().filter(|r| r.is_complete())
    }

    /// Look up a record by id.
    pub fn get(&self, id: OpId) -> Option<&OpRecord> {
        self.ops.iter().find(|r| r.id == id)
    }

    /// The distinct registers this history touches, in id order.
    pub fn registers(&self) -> Vec<RegisterId> {
        let set: std::collections::BTreeSet<RegisterId> = self.ops.iter().map(|r| r.reg).collect();
        set.into_iter().collect()
    }

    /// The sub-history of operations on register `reg`, preserving order.
    pub fn for_register(&self, reg: RegisterId) -> History {
        History { ops: self.ops.iter().filter(|r| r.reg == reg).cloned().collect() }
    }

    /// Partition into per-register sub-histories, preserving order within
    /// each register. Registers are independent objects, so correctness
    /// conditions (atomicity, regularity, safeness) apply to each
    /// partition separately.
    pub fn partition_by_register(&self) -> std::collections::BTreeMap<RegisterId, History> {
        let mut parts: std::collections::BTreeMap<RegisterId, History> =
            std::collections::BTreeMap::new();
        for rec in &self.ops {
            parts.entry(rec.reg).or_default().ops.push(rec.clone());
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, client: ProcessId, op: Op, inv: u64, comp: Option<u64>) -> OpRecord {
        OpRecord {
            id: OpId(id),
            reg: RegisterId::DEFAULT,
            client,
            op,
            invoked_at: Time(inv),
            completed_at: comp.map(Time),
            result: None,
            rounds: 1,
            fast: true,
            msgs: 0,
            bytes: 0,
        }
    }

    #[test]
    fn precedence_and_concurrency() {
        let a = rec(0, ProcessId::Writer, Op::Write(Value::from_u64(1)), 0, Some(10));
        let b = rec(1, ProcessId::Writer, Op::Write(Value::from_u64(2)), 20, Some(30));
        let c = rec(2, ProcessId::Writer, Op::Write(Value::from_u64(3)), 25, Some(40));
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(b.concurrent_with(&c));
        assert!(!a.concurrent_with(&b));
    }

    #[test]
    fn incomplete_ops_never_precede() {
        let mut a = rec(0, ProcessId::Writer, Op::Write(Value::from_u64(1)), 0, None);
        let b = rec(1, ProcessId::Writer, Op::Write(Value::from_u64(2)), 100, Some(200));
        assert!(!a.precedes(&b));
        assert!(a.concurrent_with(&b));
        a.completed_at = Some(Time(50));
        assert!(a.precedes(&b));
    }

    #[test]
    fn latency() {
        let a = rec(0, ProcessId::Writer, Op::Write(Value::from_u64(1)), 5, Some(17));
        assert_eq!(a.latency(), Some(12));
        let b = rec(1, ProcessId::Writer, Op::Write(Value::from_u64(2)), 5, None);
        assert_eq!(b.latency(), None);
    }

    #[test]
    fn history_filters() {
        use crate::ReaderId;
        let h = History {
            ops: vec![
                rec(0, ProcessId::Writer, Op::Write(Value::from_u64(1)), 0, Some(1)),
                rec(1, ProcessId::Reader(ReaderId(0)), Op::Read, 2, Some(3)),
                rec(2, ProcessId::Reader(ReaderId(0)), Op::Read, 4, None),
            ],
        };
        assert_eq!(h.writes().count(), 1);
        assert_eq!(h.reads().count(), 2);
        assert_eq!(h.complete_reads().count(), 1);
        assert!(h.get(OpId(2)).is_some());
        assert!(h.get(OpId(9)).is_none());
    }

    #[test]
    fn op_kinds() {
        assert_eq!(Op::Write(Value::from_u64(1)).kind(), OpKind::Write);
        assert_eq!(Op::Read.kind(), OpKind::Read);
        assert_eq!(OpKind::Write.to_string(), "WRITE");
        assert_eq!(OpKind::Read.to_string(), "READ");
    }

    #[test]
    fn partition_by_register_preserves_order_and_separates() {
        let mut a = rec(0, ProcessId::Writer, Op::Write(Value::from_u64(1)), 0, Some(1));
        a.reg = RegisterId(1);
        let mut b = rec(1, ProcessId::Writer, Op::Write(Value::from_u64(2)), 2, Some(3));
        b.reg = RegisterId(2);
        let mut c = rec(2, ProcessId::Writer, Op::Write(Value::from_u64(3)), 4, Some(5));
        c.reg = RegisterId(1);
        let h = History { ops: vec![a, b, c] };
        assert_eq!(h.registers(), vec![RegisterId(1), RegisterId(2)]);
        let parts = h.partition_by_register();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[&RegisterId(1)].ops.len(), 2);
        assert_eq!(parts[&RegisterId(1)].ops[0].id, OpId(0));
        assert_eq!(parts[&RegisterId(1)].ops[1].id, OpId(2));
        assert_eq!(parts[&RegisterId(2)].ops.len(), 1);
        assert_eq!(h.for_register(RegisterId(2)).ops[0].id, OpId(1));
        assert!(h.for_register(RegisterId(9)).ops.is_empty());
    }
}
