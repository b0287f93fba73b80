//! # lucky-checker
//!
//! History-based correctness oracles for SWMR register implementations.
//!
//! Given a [`History`] produced by a run (real or
//! simulated), these checkers decide — independently of any protocol
//! internals — whether the run satisfied:
//!
//! * **atomicity**, per the four conditions of §2.2 of the paper;
//! * **regularity**, per the three conditions of Appendix D;
//! * **safeness**, per the contention-free condition of Appendix B.
//!
//! The checkers exploit the single-writer structure: WRITEs have a natural
//! total order (their invocation order), so a returned value maps to a
//! write index `k` and all conditions become index comparisons. To keep
//! that mapping unambiguous the checkers require distinct written values
//! and report [`Violation::DuplicateWrite`] otherwise — experiment drivers
//! simply write unique values.
//!
//! ```
//! use lucky_checker::{check_atomicity, Violation};
//! use lucky_types::{History, Op, OpId, OpRecord, ProcessId, ReaderId, Time, Value};
//!
//! # fn rec(id: u64, client: ProcessId, op: Op, inv: u64, comp: u64, res: Option<Value>) -> OpRecord {
//! #     OpRecord { id: OpId(id), reg: lucky_types::RegisterId::DEFAULT, client, op,
//! #         invoked_at: Time(inv), completed_at: Some(Time(comp)), result: res, rounds: 1,
//! #         fast: true, msgs: 0, bytes: 0 }
//! # }
//! let history = History {
//!     ops: vec![
//!         rec(0, ProcessId::Writer, Op::Write(Value::from_u64(1)), 0, 10, None),
//!         // This read returns a value that was never written: violation.
//!         rec(1, ProcessId::Reader(ReaderId(0)), Op::Read, 20, 30,
//!             Some(Value::from_u64(99))),
//!     ],
//! };
//! let violations = check_atomicity(&history).unwrap_err();
//! assert!(matches!(violations[0], Violation::PhantomValue { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod violations;

pub use violations::Violation;

use lucky_types::{History, Op, OpId, OpRecord, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A non-empty list of violations, usable as an error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violations(pub Vec<Violation>);

impl fmt::Display for Violations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} violation(s):", self.0.len())?;
        for v in &self.0 {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Violations {}

/// Check the four SWMR **atomicity** conditions of §2.2.
///
/// # Errors
///
/// Returns every violated condition, in a deterministic order.
pub fn check_atomicity(history: &History) -> Result<(), Vec<Violation>> {
    let mut v = Vec::new();
    let Some(index) = value_index(history, &mut v) else {
        return Err(v);
    };
    check_no_creation(history, &index, &mut v);
    check_read_write_order(history, &index, &mut v);
    check_no_future_values(history, &index, &mut v);
    check_read_read_order(history, &index, &mut v);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

/// Check the three **regularity** conditions of Appendix D (atomicity
/// minus the read–read ordering).
///
/// # Errors
///
/// Returns every violated condition, in a deterministic order.
pub fn check_regularity(history: &History) -> Result<(), Vec<Violation>> {
    let mut v = Vec::new();
    let Some(index) = value_index(history, &mut v) else {
        return Err(v);
    };
    check_no_creation(history, &index, &mut v);
    check_read_write_order(history, &index, &mut v);
    check_no_future_values(history, &index, &mut v);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

/// Check **safeness** (Appendix B): a contention-free READ that succeeds
/// some WRITE `wr_k` returns `val_l` with `l ≥ k` — plus the no-creation
/// condition. Reads concurrent with a WRITE may return anything written
/// (or `⊥`), so only contention-free reads are constrained beyond
/// no-creation.
///
/// # Errors
///
/// Returns every violated condition, in a deterministic order.
pub fn check_safeness(history: &History) -> Result<(), Vec<Violation>> {
    let mut v = Vec::new();
    let Some(index) = value_index(history, &mut v) else {
        return Err(v);
    };
    check_no_creation(history, &index, &mut v);
    for read in history.complete_reads() {
        let contention_free = history.writes().all(|w| w.precedes(read) || read.precedes(w));
        if !contention_free {
            continue;
        }
        let Some(l) = read_index(read, &index) else {
            continue; // already reported by no-creation
        };
        let min = min_allowed_index(history, read);
        if l < min {
            v.push(Violation::StaleRead { read: read.id, returned_index: l, min_index: min });
        }
    }
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

/// Map every written value to its write index `k` (1-based; `⊥` is 0).
/// Reports duplicates, which would make the mapping ambiguous.
fn value_index(history: &History, v: &mut Vec<Violation>) -> Option<BTreeMap<Value, u64>> {
    let mut index = BTreeMap::new();
    for (k, w) in history.writes().enumerate() {
        let Op::Write(value) = &w.op else { unreachable!("writes() filters") };
        if value.is_bot() {
            v.push(Violation::BotWritten { write: w.id });
            return None;
        }
        if index.insert(value.clone(), k as u64 + 1).is_some() {
            v.push(Violation::DuplicateWrite { write: w.id, value: value.clone() });
            return None;
        }
    }
    Some(index)
}

/// The write index of the value a read returned, if it maps to one.
fn read_index(read: &OpRecord, index: &BTreeMap<Value, u64>) -> Option<u64> {
    match &read.result {
        Some(value) if value.is_bot() => Some(0),
        Some(value) => index.get(value).copied(),
        None => None,
    }
}

/// Condition (1), *no creation*: every returned value was written (or ⊥).
fn check_no_creation(history: &History, index: &BTreeMap<Value, u64>, v: &mut Vec<Violation>) {
    for read in history.complete_reads() {
        match &read.result {
            None => v.push(Violation::ReadWithoutValue { read: read.id }),
            Some(value) => {
                if !value.is_bot() && !index.contains_key(value) {
                    v.push(Violation::PhantomValue { read: read.id, value: value.clone() });
                }
            }
        }
    }
}

/// Highest `k` such that complete `wr_k` precedes `read` (0 when none).
fn min_allowed_index(history: &History, read: &OpRecord) -> u64 {
    history
        .writes()
        .enumerate()
        .filter(|(_, w)| w.precedes(read))
        .map(|(k, _)| k as u64 + 1)
        .max()
        .unwrap_or(0)
}

/// Condition (2): a READ succeeding complete `wr_k` returns `val_l`, `l ≥ k`.
fn check_read_write_order(history: &History, index: &BTreeMap<Value, u64>, v: &mut Vec<Violation>) {
    for read in history.complete_reads() {
        let Some(l) = read_index(read, index) else { continue };
        let min = min_allowed_index(history, read);
        if l < min {
            v.push(Violation::StaleRead { read: read.id, returned_index: l, min_index: min });
        }
    }
}

/// Condition (3): if a READ returns `val_k` (k ≥ 1), `wr_k` precedes it or
/// is concurrent with it — i.e. the READ does not precede `wr_k`.
fn check_no_future_values(history: &History, index: &BTreeMap<Value, u64>, v: &mut Vec<Violation>) {
    let writes: Vec<&OpRecord> = history.writes().collect();
    for read in history.complete_reads() {
        let Some(l) = read_index(read, index) else { continue };
        if l == 0 {
            continue;
        }
        let write = writes[l as usize - 1];
        if read.precedes(write) {
            v.push(Violation::FutureRead { read: read.id, write: write.id });
        }
    }
}

/// Condition (4): if `rd_1` returns `val_k` and `rd_2` succeeds `rd_1` and
/// returns `val_l`, then `l ≥ k` — across *all* readers.
fn check_read_read_order(history: &History, index: &BTreeMap<Value, u64>, v: &mut Vec<Violation>) {
    let reads: Vec<(&OpRecord, u64)> =
        history.complete_reads().filter_map(|r| read_index(r, index).map(|l| (r, l))).collect();
    for (rd1, k) in &reads {
        for (rd2, l) in &reads {
            if rd1.id != rd2.id && rd1.precedes(rd2) && l < k {
                v.push(Violation::NewOldInversion {
                    first: rd1.id,
                    first_index: *k,
                    second: rd2.id,
                    second_index: *l,
                });
            }
        }
    }
}

/// Check a multi-register history: partition by [`lucky_types::RegisterId`]
/// and check each register's sub-history independently with `check`.
///
/// Registers are independent objects, so the correctness conditions apply
/// per register: a value written to register `x` may never satisfy a READ
/// of register `y` (the per-register no-creation condition catches such
/// cross-register leaks), and the same value written to two *different*
/// registers is not a duplicate.
///
/// # Errors
///
/// Returns the violations of every register, in register-id order, each
/// wrapped in [`Violation::InRegister`] naming the register it occurred
/// in.
pub fn check_per_register<F>(history: &History, mut check: F) -> Result<(), Vec<Violation>>
where
    F: FnMut(&History) -> Result<(), Vec<Violation>>,
{
    let mut all = Vec::new();
    for (reg, part) in history.partition_by_register() {
        if let Err(violations) = check(&part) {
            all.extend(
                violations
                    .into_iter()
                    .map(|v| Violation::InRegister { reg, violation: Box::new(v) }),
            );
        }
    }
    if all.is_empty() {
        Ok(())
    } else {
        Err(all)
    }
}

/// Check every register of a multi-register history against the atomicity
/// conditions of §2.2 (see [`check_per_register`]).
///
/// # Errors
///
/// Returns the concatenated per-register violations.
pub fn check_atomicity_per_register(history: &History) -> Result<(), Vec<Violation>> {
    check_per_register(history, check_atomicity)
}

/// Check every register of a multi-register history against the
/// regularity conditions of Appendix D (see [`check_per_register`]).
///
/// # Errors
///
/// Returns the concatenated per-register violations.
pub fn check_regularity_per_register(history: &History) -> Result<(), Vec<Violation>> {
    check_per_register(history, check_regularity)
}

/// Convenience: run [`check_atomicity_per_register`] and wrap failures in
/// [`Violations`].
///
/// # Errors
///
/// See [`check_atomicity_per_register`].
pub fn assert_atomic_per_register(history: &History) -> Result<(), Violations> {
    check_atomicity_per_register(history).map_err(Violations)
}

/// Convenience: run [`check_regularity_per_register`] and wrap failures
/// in [`Violations`].
///
/// # Errors
///
/// See [`check_regularity_per_register`].
pub fn assert_regular_per_register(history: &History) -> Result<(), Violations> {
    check_regularity_per_register(history).map_err(Violations)
}

/// Like [`assert_atomic_per_register`], but a failed verdict also dumps
/// `tracer`'s flight recorder — so the violation report arrives with the
/// recent event log that produced it.
///
/// # Errors
///
/// See [`check_atomicity_per_register`].
pub fn assert_atomic_per_register_traced(
    history: &History,
    tracer: &lucky_trace::Tracer,
) -> Result<(), Violations> {
    assert_atomic_per_register(history).inspect_err(|v| tracer.note_check_failed(&v.to_string()))
}

/// Like [`assert_regular_per_register`], but a failed verdict also dumps
/// `tracer`'s flight recorder.
///
/// # Errors
///
/// See [`check_regularity_per_register`].
pub fn assert_regular_per_register_traced(
    history: &History,
    tracer: &lucky_trace::Tracer,
) -> Result<(), Violations> {
    assert_regular_per_register(history).inspect_err(|v| tracer.note_check_failed(&v.to_string()))
}

/// The ids of the operations blamed by each violation — handy in tests.
pub fn violating_ops(violations: &[Violation]) -> Vec<OpId> {
    violations.iter().filter_map(Violation::op).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::{ProcessId, ReaderId, Time};

    fn w(id: u64, v: u64, inv: u64, comp: Option<u64>) -> OpRecord {
        OpRecord {
            id: OpId(id),
            reg: lucky_types::RegisterId::DEFAULT,
            client: ProcessId::Writer,
            op: Op::Write(Value::from_u64(v)),
            invoked_at: Time(inv),
            completed_at: comp.map(Time),
            result: None,
            rounds: 1,
            fast: true,
            msgs: 0,
            bytes: 0,
        }
    }

    fn r(id: u64, reader: u16, ret: Option<u64>, inv: u64, comp: u64) -> OpRecord {
        OpRecord {
            id: OpId(id),
            reg: lucky_types::RegisterId::DEFAULT,
            client: ProcessId::Reader(ReaderId(reader)),
            op: Op::Read,
            invoked_at: Time(inv),
            completed_at: Some(Time(comp)),
            result: Some(ret.map(Value::from_u64).unwrap_or(Value::Bot)),
            rounds: 1,
            fast: true,
            msgs: 0,
            bytes: 0,
        }
    }

    fn h(ops: Vec<OpRecord>) -> History {
        History { ops }
    }

    #[test]
    fn sequential_run_is_atomic() {
        let history = h(vec![
            w(0, 1, 0, Some(10)),
            r(1, 0, Some(1), 20, 30),
            w(2, 2, 40, Some(50)),
            r(3, 1, Some(2), 60, 70),
        ]);
        assert!(check_atomicity(&history).is_ok());
        assert!(check_regularity(&history).is_ok());
        assert!(check_safeness(&history).is_ok());
    }

    #[test]
    fn initial_bot_read_is_fine() {
        let history = h(vec![r(0, 0, None, 0, 10)]);
        assert!(check_atomicity(&history).is_ok());
    }

    #[test]
    fn phantom_value_is_caught() {
        let history = h(vec![w(0, 1, 0, Some(10)), r(1, 0, Some(99), 20, 30)]);
        let v = check_atomicity(&history).unwrap_err();
        assert!(matches!(v[0], Violation::PhantomValue { .. }));
        // Safeness also requires no-creation.
        assert!(check_safeness(&history).is_err());
    }

    #[test]
    fn traced_verdicts_dump_the_flight_recorder() {
        use lucky_trace::{TraceConfig, Tracer};
        let tracer = Tracer::new(TraceConfig::enabled());
        let clean = h(vec![w(0, 1, 0, Some(10)), r(1, 0, Some(1), 20, 30)]);
        assert!(assert_atomic_per_register_traced(&clean, &tracer).is_ok());
        assert!(tracer.last_dump().is_none(), "a clean verdict dumps nothing");
        let dirty = h(vec![w(0, 1, 0, Some(10)), r(1, 0, Some(99), 20, 30)]);
        assert!(assert_atomic_per_register_traced(&dirty, &tracer).is_err());
        let dump = tracer.last_dump().expect("a failed verdict dumps");
        assert!(dump.contains("checker verdict failed"));
        assert!(assert_regular_per_register_traced(&dirty, &tracer).is_err());
        assert_eq!(tracer.report().dumps, 2);
    }

    #[test]
    fn stale_read_is_caught() {
        // Read strictly after write 2 returns value of write 1.
        let history =
            h(vec![w(0, 1, 0, Some(10)), w(1, 2, 20, Some(30)), r(2, 0, Some(1), 40, 50)]);
        let v = check_atomicity(&history).unwrap_err();
        assert_eq!(v[0], Violation::StaleRead { read: OpId(2), returned_index: 1, min_index: 2 });
        // Regularity is equally violated.
        assert!(check_regularity(&history).is_err());
    }

    #[test]
    fn read_concurrent_with_write_may_return_either() {
        // Write 2 is concurrent with the read: returning 1 or 2 is fine.
        let history =
            |ret| h(vec![w(0, 1, 0, Some(10)), w(1, 2, 20, Some(40)), r(2, 0, Some(ret), 30, 35)]);
        assert!(check_atomicity(&history(1)).is_ok());
        assert!(check_atomicity(&history(2)).is_ok());
    }

    #[test]
    fn bot_after_complete_write_is_stale() {
        let history = h(vec![w(0, 1, 0, Some(10)), r(1, 0, None, 20, 30)]);
        let v = check_atomicity(&history).unwrap_err();
        assert_eq!(v[0], Violation::StaleRead { read: OpId(1), returned_index: 0, min_index: 1 });
    }

    #[test]
    fn future_read_is_caught() {
        // The read completes before the write of the value it returns is
        // even invoked.
        let history = h(vec![r(0, 0, Some(1), 0, 10), w(1, 1, 20, Some(30))]);
        let v = check_atomicity(&history).unwrap_err();
        assert!(v.iter().any(|x| matches!(x, Violation::FutureRead { .. })));
    }

    #[test]
    fn new_old_inversion_is_caught() {
        let history = h(vec![
            w(0, 1, 0, Some(10)),
            w(1, 2, 20, Some(100)), // write 2 concurrent with both reads
            r(2, 0, Some(2), 30, 40),
            r(3, 1, Some(1), 50, 60), // succeeds r2 but returns older value
        ]);
        let v = check_atomicity(&history).unwrap_err();
        assert_eq!(
            v[0],
            Violation::NewOldInversion {
                first: OpId(2),
                first_index: 2,
                second: OpId(3),
                second_index: 1,
            }
        );
        // Regularity does not include condition (4): this history is regular.
        assert!(check_regularity(&history).is_ok());
    }

    #[test]
    fn concurrent_reads_may_disagree() {
        // rd1 and rd2 overlap: no ordering constraint between them.
        let history = h(vec![
            w(0, 1, 0, Some(10)),
            w(1, 2, 20, Some(100)),
            r(2, 0, Some(2), 30, 60),
            r(3, 1, Some(1), 40, 70),
        ]);
        assert!(check_atomicity(&history).is_ok());
    }

    #[test]
    fn incomplete_write_value_may_be_returned() {
        // The write never completes but its value is readable (it was
        // invoked before the read completed).
        let history = h(vec![w(0, 1, 0, None), r(1, 0, Some(1), 10, 20)]);
        assert!(check_atomicity(&history).is_ok());
    }

    #[test]
    fn incomplete_write_does_not_raise_min_index() {
        // Write 2 never completes; a later read may still return value 1.
        let history = h(vec![w(0, 1, 0, Some(10)), w(1, 2, 20, None), r(2, 0, Some(1), 50, 60)]);
        assert!(check_atomicity(&history).is_ok());
    }

    #[test]
    fn duplicate_written_values_are_rejected() {
        let history = h(vec![w(0, 7, 0, Some(10)), w(1, 7, 20, Some(30))]);
        let v = check_atomicity(&history).unwrap_err();
        assert!(matches!(v[0], Violation::DuplicateWrite { .. }));
    }

    #[test]
    fn bot_write_is_rejected() {
        let mut bad = w(0, 1, 0, Some(10));
        bad.op = Op::Write(Value::Bot);
        let v = check_atomicity(&h(vec![bad])).unwrap_err();
        assert!(matches!(v[0], Violation::BotWritten { .. }));
    }

    #[test]
    fn incomplete_reads_are_unconstrained() {
        let mut read = r(1, 0, Some(99), 20, 30);
        read.completed_at = None;
        read.result = None;
        let history = h(vec![w(0, 1, 0, Some(10)), read]);
        assert!(check_atomicity(&history).is_ok());
    }

    #[test]
    fn complete_read_without_result_is_flagged() {
        let mut read = r(1, 0, Some(1), 20, 30);
        read.result = None;
        let history = h(vec![w(0, 1, 0, Some(10)), read]);
        let v = check_atomicity(&history).unwrap_err();
        assert!(matches!(v[0], Violation::ReadWithoutValue { .. }));
    }

    #[test]
    fn safeness_ignores_contended_reads() {
        // Read concurrent with write 2 returns a stale value: safeness
        // does not constrain it...
        let history =
            h(vec![w(0, 1, 0, Some(10)), w(1, 2, 20, Some(40)), r(2, 0, Some(1), 30, 35)]);
        assert!(check_safeness(&history).is_ok());
        // ...but a contention-free stale read is a safeness violation.
        let history =
            h(vec![w(0, 1, 0, Some(10)), w(1, 2, 20, Some(30)), r(2, 0, Some(1), 40, 50)]);
        assert!(check_safeness(&history).is_err());
    }

    #[test]
    fn per_register_checks_partition_the_history() {
        use lucky_types::RegisterId;
        let on = |mut rec: OpRecord, reg: u32| {
            rec.reg = RegisterId(reg);
            rec
        };
        // Register 1 and register 2 each carry a sequential run; the same
        // value (7) is written to both — a duplicate only if the checker
        // wrongly flattened the registers together.
        let history = h(vec![
            on(w(0, 7, 0, Some(10)), 1),
            on(w(1, 7, 5, Some(15)), 2),
            on(r(2, 0, Some(7), 20, 30), 1),
            on(r(3, 1, Some(7), 20, 30), 2),
        ]);
        assert!(check_atomicity(&history).is_err(), "flat check sees a duplicate write");
        assert!(check_atomicity_per_register(&history).is_ok());
        assert!(check_regularity_per_register(&history).is_ok());
        assert!(assert_atomic_per_register(&history).is_ok());
        assert!(assert_regular_per_register(&history).is_ok());
    }

    #[test]
    fn per_register_checks_catch_cross_register_leaks() {
        use lucky_types::RegisterId;
        let on = |mut rec: OpRecord, reg: u32| {
            rec.reg = RegisterId(reg);
            rec
        };
        // The value 9 was written to register 1 only; a READ of register 2
        // returning it is a per-register phantom even though a flat check
        // would accept it.
        let history = h(vec![on(w(0, 9, 0, Some(10)), 1), on(r(1, 0, Some(9), 20, 30), 2)]);
        assert!(check_atomicity(&history).is_ok(), "flat check misses the leak");
        let v = check_atomicity_per_register(&history).unwrap_err();
        let Violation::InRegister { reg, ref violation } = v[0] else {
            panic!("expected a register-attributed violation, got {:?}", v[0]);
        };
        assert_eq!(reg, RegisterId(2), "the violated partition is named");
        assert!(matches!(**violation, Violation::PhantomValue { .. }));
        assert!(v[0].to_string().starts_with("register x2:"));
    }

    #[test]
    fn per_register_aggregates_violations_across_registers() {
        use lucky_types::RegisterId;
        let on = |mut rec: OpRecord, reg: u32| {
            rec.reg = RegisterId(reg);
            rec
        };
        let history = h(vec![
            on(r(0, 0, Some(1), 0, 10), 1), // phantom in register 1
            on(r(1, 1, Some(2), 0, 10), 2), // phantom in register 2
        ]);
        let v = check_atomicity_per_register(&history).unwrap_err();
        assert_eq!(v.len(), 2);
        assert!(assert_atomic_per_register(&history).is_err());
    }

    #[test]
    fn violations_display_lists_each() {
        let history = h(vec![w(0, 1, 0, Some(10)), r(1, 0, Some(99), 20, 30)]);
        let err = Violations(check_atomicity(&history).unwrap_err());
        let text = err.to_string();
        assert!(text.contains("violation"));
        assert!(text.contains("op1"));
        assert_eq!(violating_ops(&err.0), vec![OpId(1)]);
    }
}
