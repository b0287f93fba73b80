//! The net store's op log: what a `NetStore` keeps of every op it has
//! served, in a fixed-size record per op plus one byte arena for the
//! values.
//!
//! A [`History`] holds one 152 B `OpRecord` per op, and each of its
//! values is an allocation of its own: ~250 B per op, kept for the life
//! of a store. An [`OpLog`] keeps one [`Record`] (64 B) per
//! op and appends each value's bytes to a shared arena, except that a
//! READ returning the last WRITE value logged for its register points
//! at that write's span and copies nothing. [`OpLog::to_history`]
//! rebuilds exactly the `History` the records stand for.

use crate::cluster::NetOutcome;
use bytes::Bytes;
use lucky_types::{
    History, Op, OpId, OpRecord, ProcessId, ReaderId, RegisterId, ServerId, Time, Value,
};
use std::collections::HashMap;

/// The record is a WRITE (else a READ).
const WRITE: u8 = 1;
/// The op was fast.
const FAST: u8 = 1 << 1;
/// The op completed (else it stays an incomplete record).
const COMPLETE: u8 = 1 << 2;
/// The record's value — a WRITE's input, or a completed READ's result —
/// is data, whose bytes are `value` in the arena (else `⊥`).
const DATA: u8 = 1 << 3;

/// A byte range of the arena. Offsets and lengths are `usize`, the
/// arena's own index type, so no conversion can narrow them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Span {
    off: usize,
    len: usize,
}

/// One logged op. Its id is its index in the log.
#[derive(Clone, Copy, Debug)]
struct Record {
    invoked_at: u64,
    /// Meaningful only with [`COMPLETE`].
    completed_at: u64,
    msgs: u64,
    bytes: u64,
    /// Meaningful only with [`DATA`].
    value: Span,
    reg: u32,
    rounds: u32,
    /// The client's [`ProcessId`], packed by [`pack_client`].
    client_id: u32,
    client_tag: u8,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 64);

/// `client` as a tag and a 32-bit id: every id it names is at most
/// 32 bits wide, so the pair fits it by construction.
fn pack_client(client: ProcessId) -> (u8, u32) {
    match client {
        ProcessId::Writer => (0, 0),
        ProcessId::Reader(r) => (1, u32::from(r.0)),
        ProcessId::Server(s) => (2, u32::from(s.0)),
        ProcessId::WriterOf(reg) => (3, reg.0),
    }
}

/// The inverse of [`pack_client`].
fn unpack_client(tag: u8, id: u32) -> ProcessId {
    let narrow = || u16::try_from(id).expect("a reader or server id packed from a u16");
    match tag {
        0 => ProcessId::Writer,
        1 => ProcessId::Reader(ReaderId(narrow())),
        2 => ProcessId::Server(ServerId(narrow())),
        3 => ProcessId::WriterOf(RegisterId(id)),
        _ => unreachable!("client tag {tag} was never packed"),
    }
}

/// An append-only log of the ops a store has served: completed or
/// failed, in the order they were logged.
#[derive(Default)]
pub(crate) struct OpLog {
    records: Vec<Record>,
    /// Every logged value's bytes, back to back.
    arena: Vec<u8>,
    /// The span of the last WRITE value logged for each register whose
    /// last logged WRITE wrote data.
    last_write: HashMap<RegisterId, Span>,
}

impl OpLog {
    /// Ops logged so far.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Log one finished (or abandoned) operation. `completion` is
    /// `None` for a failed operation: it stays an incomplete record,
    /// with no result, 0 rounds and not fast, so the checkers treat it
    /// as pending, never as a bogus completion. `traffic` is the op's
    /// `(msgs, bytes)` attribution.
    pub(crate) fn push(
        &mut self,
        reg: RegisterId,
        client: ProcessId,
        op: &Op,
        invoked_at: Time,
        completion: Option<(Time, &NetOutcome)>,
        traffic: (u64, u64),
    ) {
        let (client_tag, client_id) = pack_client(client);
        let mut flags = 0;
        let (completed_at, rounds) = match completion {
            Some((at, net)) => {
                flags |= COMPLETE;
                if net.fast {
                    flags |= FAST;
                }
                (at.0, net.rounds)
            }
            None => (0, 0),
        };
        let value = match (op, completion) {
            (Op::Write(v), _) => {
                flags |= WRITE;
                Some(v)
            }
            (Op::Read, Some((_, net))) => Some(&net.value),
            (Op::Read, None) => None,
        };
        let span = match value {
            Some(Value::Data(data)) => {
                flags |= DATA;
                self.store(reg, op.is_write(), data)
            }
            Some(Value::Bot) if op.is_write() => {
                self.last_write.remove(&reg);
                Span::default()
            }
            _ => Span::default(),
        };
        self.records.push(Record {
            invoked_at: invoked_at.0,
            completed_at,
            msgs: traffic.0,
            bytes: traffic.1,
            value: span,
            reg: reg.0,
            rounds,
            client_id,
            client_tag,
            flags,
        });
    }

    /// The span holding `data`: a READ of its register's last logged
    /// WRITE value reuses that write's span, anything else is appended.
    fn store(&mut self, reg: RegisterId, write: bool, data: &[u8]) -> Span {
        if !write {
            if let Some(&span) = self.last_write.get(&reg) {
                if self.arena[span.off..span.off + span.len] == *data {
                    return span;
                }
            }
        }
        let span = Span { off: self.arena.len(), len: data.len() };
        self.arena.extend_from_slice(data);
        if write {
            self.last_write.insert(reg, span);
        }
        span
    }

    /// The history the log stands for: op ids are log indices, failed
    /// ops stay incomplete, `⊥` stays distinct from empty data. Every
    /// value is a window of one shared buffer, so the build allocates
    /// that buffer and the record vector, not one buffer per op.
    pub(crate) fn to_history(&self) -> History {
        let arena = Bytes::copy_from_slice(&self.arena);
        let ops = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let value = (r.flags & (WRITE | COMPLETE) != 0).then(|| {
                    if r.flags & DATA != 0 {
                        Value::Data(arena.slice(r.value.off..r.value.off + r.value.len))
                    } else {
                        Value::Bot
                    }
                });
                let (op, result) = if r.flags & WRITE != 0 {
                    (Op::Write(value.expect("a write's input")), None)
                } else {
                    (Op::Read, value)
                };
                OpRecord {
                    id: OpId(i as u64),
                    reg: RegisterId(r.reg),
                    client: unpack_client(r.client_tag, r.client_id),
                    op,
                    invoked_at: Time(r.invoked_at),
                    completed_at: (r.flags & COMPLETE != 0).then_some(Time(r.completed_at)),
                    result,
                    rounds: r.rounds,
                    fast: r.flags & FAST != 0,
                    msgs: r.msgs,
                    bytes: r.bytes,
                }
            })
            .collect();
        History { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    /// The body `append_history` had when the store kept a `History`
    /// itself: the oracle whose history the log must rebuild exactly.
    fn oracle_append(
        h: &mut History,
        reg: RegisterId,
        client: ProcessId,
        op: Op,
        invoked_at: Time,
        completion: Option<(Time, &NetOutcome)>,
        traffic: (u64, u64),
    ) {
        let id = OpId(h.ops.len() as u64);
        let (completed_at, result, rounds, fast) = match completion {
            Some((at, net)) => (
                Some(at),
                match op {
                    Op::Read => Some(net.value.clone()),
                    Op::Write(_) => None,
                },
                net.rounds,
                net.fast,
            ),
            None => (None, None, 0, false),
        };
        h.ops.push(OpRecord {
            id,
            reg,
            client,
            op,
            invoked_at,
            completed_at,
            result,
            rounds,
            fast,
            msgs: traffic.0,
            bytes: traffic.1,
        });
    }

    /// One op as both sides take it.
    struct Entry {
        reg: RegisterId,
        client: ProcessId,
        op: Op,
        invoked_at: Time,
        completion: Option<(Time, NetOutcome)>,
        traffic: (u64, u64),
    }

    impl Entry {
        fn log(&self, log: &mut OpLog) {
            let completion = self.completion.as_ref().map(|(at, net)| (*at, net));
            log.push(self.reg, self.client, &self.op, self.invoked_at, completion, self.traffic);
        }

        fn oracle(&self, h: &mut History) {
            let completion = self.completion.as_ref().map(|(at, net)| (*at, net));
            let op = self.op.clone();
            oracle_append(h, self.reg, self.client, op, self.invoked_at, completion, self.traffic);
        }
    }

    fn outcome(reg: RegisterId, op: &Op, value: Value, rounds: u32, fast: bool) -> NetOutcome {
        NetOutcome { reg, kind: op.kind(), value, rounds, fast, elapsed: Duration::ZERO }
    }

    /// A draw that lands on either end of the range one time in four.
    fn extreme(rng: &mut SmallRng, max: u64) -> u64 {
        match rng.gen_range(0..8u32) {
            0 => 0,
            1 => max,
            _ => rng.gen_range(0..=max),
        }
    }

    fn data(rng: &mut SmallRng, len: usize) -> Value {
        Value::from_bytes((0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>())
    }

    /// A seeded stream over four registers (one of them `u32::MAX`):
    /// WRITEs of data (empty included) and, rarely, of `⊥`; READs that
    /// return the register's last logged WRITE value, an older one, `⊥`
    /// or a value never written; failed ops of both kinds; times,
    /// `msgs`, `bytes` and rounds at both ends of their ranges.
    fn random_stream(seed: u64, n: usize) -> Vec<Entry> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let regs = [RegisterId(0), RegisterId(1), RegisterId(7), RegisterId(u32::MAX)];
        let mut written: HashMap<RegisterId, Vec<Value>> = HashMap::new();
        let mut fresh = 0u64;
        (0..n)
            .map(|_| {
                let reg = regs[rng.gen_range(0..regs.len())];
                let past = written.entry(reg).or_default();
                let write = rng.gen_bool(0.4);
                let (client, op, value) = if write {
                    let value = match rng.gen_range(0..10u32) {
                        0 => Value::Bot,
                        1 => Value::from_bytes(Vec::new()),
                        _ => {
                            let len = rng.gen_range(1..80usize);
                            data(&mut rng, len)
                        }
                    };
                    past.push(value.clone());
                    (ProcessId::writer(reg), Op::Write(value.clone()), value)
                } else {
                    let value = match (rng.gen_range(0..5u32), past.len()) {
                        (0 | 1, k) if k > 0 => past[k - 1].clone(),
                        (2, k) if k > 0 => past[rng.gen_range(0..k)].clone(),
                        (3, _) => Value::Bot,
                        _ => {
                            fresh += 1;
                            let mut bytes = fresh.to_be_bytes().to_vec();
                            bytes.insert(0, 0xFF);
                            Value::from_bytes(bytes)
                        }
                    };
                    let client = match rng.gen_range(0..8u32) {
                        0 => ProcessId::Server(ServerId(extreme(&mut rng, 0xFFFF) as u16)),
                        _ => ProcessId::Reader(ReaderId(extreme(&mut rng, 0xFFFF) as u16)),
                    };
                    (client, Op::Read, value)
                };
                let completion = (!rng.gen_bool(0.15)).then(|| {
                    let rounds = extreme(&mut rng, u64::from(u32::MAX)) as u32;
                    let net = outcome(reg, &op, value, rounds, rng.gen());
                    (Time(extreme(&mut rng, u64::MAX)), net)
                });
                Entry {
                    reg,
                    client,
                    op,
                    invoked_at: Time(extreme(&mut rng, u64::MAX)),
                    completion,
                    traffic: (extreme(&mut rng, u64::MAX), extreme(&mut rng, u64::MAX)),
                }
            })
            .collect()
    }

    #[test]
    fn the_log_rebuilds_exactly_the_history_the_old_append_kept() {
        for seed in 0..64 {
            let mut log = OpLog::default();
            let mut oracle = History::new();
            for (i, entry) in random_stream(seed, 400).iter().enumerate() {
                entry.log(&mut log);
                entry.oracle(&mut oracle);
                if i % 97 == 0 {
                    assert!(log.to_history() == oracle, "seed {seed}, after op {i}");
                }
            }
            assert_eq!(log.len(), oracle.ops.len());
            let rebuilt = log.to_history();
            assert!(rebuilt == oracle, "seed {seed}");
            // `==` on values compares bytes: `⊥` and empty data must
            // also keep their variants apart.
            for (got, want) in rebuilt.ops.iter().zip(&oracle.ops) {
                assert_eq!(got.op.is_write(), want.op.is_write());
                assert_eq!(
                    got.result.as_ref().map(Value::is_bot),
                    want.result.as_ref().map(Value::is_bot)
                );
                if let (Op::Write(a), Op::Write(b)) = (&got.op, &want.op) {
                    assert_eq!(a.is_bot(), b.is_bot());
                }
            }
        }
    }

    impl OpLog {
        /// Bytes the log keeps for what it has logged: its records and
        /// its arena, not the spare capacity of either.
        fn retained_bytes(&self) -> usize {
            self.records.len() * std::mem::size_of::<Record>() + self.arena.len()
        }
    }

    fn write(log: &mut OpLog, reg: u32, value: Value) {
        let reg = RegisterId(reg);
        let op = Op::Write(value.clone());
        let net = outcome(reg, &op, value, 1, true);
        log.push(reg, ProcessId::writer(reg), &op, Time(1), Some((Time(2), &net)), (6, 300));
    }

    fn read(log: &mut OpLog, reg: u32, value: Value) {
        let reg = RegisterId(reg);
        let net = outcome(reg, &Op::Read, value, 1, true);
        log.push(
            reg,
            ProcessId::Reader(ReaderId(0)),
            &Op::Read,
            Time(3),
            Some((Time(4), &net)),
            (6, 300),
        );
    }

    #[test]
    fn a_read_of_the_last_logged_write_copies_nothing_and_any_other_copies_its_length() {
        let mut log = OpLog::default();
        let v = |x: u8, len: usize| Value::from_bytes(vec![x; len]);
        let arena = |log: &OpLog| log.arena.len();
        write(&mut log, 0, v(1, 64));
        assert_eq!(arena(&log), 64, "a write copies its value");
        let before = arena(&log);
        read(&mut log, 0, v(1, 64));
        assert_eq!(arena(&log), before, "the register's last logged write");
        write(&mut log, 0, v(2, 40));
        let before = arena(&log);
        read(&mut log, 0, v(1, 64));
        assert_eq!(arena(&log), before + 64, "an older write");
        let before = arena(&log);
        read(&mut log, 1, v(2, 40));
        assert_eq!(arena(&log), before + 40, "another register's last write");
        write(&mut log, 1, v(3, 8));
        let before = arena(&log);
        read(&mut log, 0, v(2, 40));
        read(&mut log, 1, v(3, 8));
        assert_eq!(arena(&log), before, "each register keeps its own last write");
        read(&mut log, 0, v(9, 17));
        assert_eq!(arena(&log), before + 17, "a value never written");
        let before = arena(&log);
        read(&mut log, 0, Value::Bot);
        read(&mut log, 0, v(0, 0));
        assert_eq!(arena(&log), before, "⊥ and empty data keep no bytes");
        write(&mut log, 0, Value::Bot);
        read(&mut log, 0, v(2, 40));
        assert_eq!(arena(&log), before + 40, "a ⊥ write is the last write now");
    }

    #[test]
    fn n_logged_ops_keep_exactly_the_bytes_computed_for_them() {
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<Record>(), 64);
        for seed in 0..16 {
            let stream = random_stream(100 + seed, 1_000);
            let mut log = OpLog::default();
            // The arena bytes each op costs, by the rule alone.
            let mut last: HashMap<RegisterId, Value> = HashMap::new();
            let mut expected = 0;
            let mut shared = 0;
            for entry in &stream {
                entry.log(&mut log);
                let value = match (&entry.op, &entry.completion) {
                    (Op::Write(v), _) => {
                        last.insert(entry.reg, v.clone());
                        v
                    }
                    (Op::Read, Some((_, net))) if last.get(&entry.reg) == Some(&net.value) => {
                        shared += 1;
                        continue;
                    }
                    (Op::Read, Some((_, net))) => &net.value,
                    (Op::Read, None) => continue,
                };
                expected += value.len();
            }
            assert!(shared > 100, "seed {seed}: the stream barely exercises sharing ({shared})");
            assert_eq!(log.arena.len(), expected, "seed {seed}");
            let record = std::mem::size_of::<Record>();
            assert_eq!(log.retained_bytes(), stream.len() * record + expected, "seed {seed}");
        }
    }

    #[test]
    fn every_rebuilt_value_is_a_window_of_one_allocation() {
        let mut log = OpLog::default();
        write(&mut log, 0, Value::from_u64(1));
        read(&mut log, 0, Value::from_u64(1));
        write(&mut log, 1, Value::from_bytes(Vec::new()));
        read(&mut log, 1, Value::from_u64(7));
        let history = log.to_history();
        let values: Vec<&Bytes> = history
            .ops
            .iter()
            .filter_map(|r| match (&r.op, &r.result) {
                (Op::Write(Value::Data(b)), _) | (Op::Read, Some(Value::Data(b))) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(values.len(), 4);
        for pair in values.windows(2) {
            assert!(pair[0].shares_allocation(pair[1]), "{:?} and {:?}", pair[0], pair[1]);
        }
        // A second rebuild is a buffer of its own: no history pins the log.
        let again = log.to_history();
        let Op::Write(Value::Data(first)) = &again.ops[0].op else { panic!("a data write") };
        assert!(!first.shares_allocation(values[0]));
    }
}
