//! Register values and timestamp–value pairs.
//!
//! The paper works with abstract values plus a distinguished initial value
//! `⊥` that is not a valid WRITE input (§2.2). [`Value`] models exactly
//! that; [`TsVal`] is the `⟨ts, val⟩` pair the protocols store and compare.

use bytes::Bytes;
use std::fmt;

/// Byte length of the canonical LEB128 varint encoding of `x` — the
/// integer encoding `lucky-wire` puts on the wire (seven value bits per
/// byte, one byte minimum).
///
/// Lives here, not in `lucky-wire`, so the wire-size arithmetic on
/// [`Message`](crate::Message) can be *exact* without reversing the
/// crate dependency; `lucky-wire`'s property tests pin the two crates
/// together (`encode(m).len() == m.wire_size()`).
pub fn varint_len(x: u64) -> usize {
    if x == 0 {
        1
    } else {
        (64 - x.leading_zeros() as usize).div_ceil(7)
    }
}

/// Logical write timestamp assigned by the writer (`ts` in the paper).
///
/// `Seq(0)` is `ts0`, the timestamp of the initial value `⊥`; the writer
/// assigns `1, 2, …` to successive WRITEs, so a timestamp doubles as the
/// write's index `k` in the atomicity definition of §2.2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Seq(pub u64);

impl Seq {
    /// `ts0`, the timestamp associated with the initial value `⊥`.
    pub const INITIAL: Seq = Seq(0);

    /// The next timestamp (`inc(ts)` in Fig. 1).
    #[must_use]
    pub fn next(self) -> Seq {
        Seq(self.0 + 1)
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

/// Logical read timestamp local to one reader (`tsr` in the paper).
///
/// Increased once at the beginning of every READ invocation (Fig. 2 line
/// 12); servers store the highest value seen from rounds > 1 and the writer
/// freezes values against it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ReadSeq(pub u64);

impl ReadSeq {
    /// `tsr0`, the initial reader timestamp.
    pub const INITIAL: ReadSeq = ReadSeq(0);

    /// The next reader timestamp (`inc(tsr)` in Fig. 2).
    #[must_use]
    pub fn next(self) -> ReadSeq {
        ReadSeq(self.0 + 1)
    }
}

impl fmt::Display for ReadSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tsr{}", self.0)
    }
}

/// A register value: the initial `⊥` or application data.
///
/// `⊥` is not a valid input to a WRITE (§2.2); [`Value::is_bot`] lets the
/// API enforce that. Data payloads are cheaply-cloneable [`Bytes`] so that
/// benchmarks can sweep payload sizes without copying.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Value {
    /// The initial value `⊥`.
    #[default]
    Bot,
    /// Application data.
    Data(Bytes),
}

impl Value {
    /// Build a value from raw bytes.
    pub fn from_bytes(data: impl Into<Bytes>) -> Value {
        Value::Data(data.into())
    }

    /// Build a value encoding a `u64` (big-endian); convenient for tests
    /// and checkers that map values back to write indices.
    pub fn from_u64(x: u64) -> Value {
        Value::Data(Bytes::copy_from_slice(&x.to_be_bytes()))
    }

    /// Decode a value previously built with [`Value::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Bot => None,
            Value::Data(b) => {
                let arr: [u8; 8] = b.as_ref().try_into().ok()?;
                Some(u64::from_be_bytes(arr))
            }
        }
    }

    /// `true` iff this is the initial value `⊥`.
    pub fn is_bot(&self) -> bool {
        matches!(self, Value::Bot)
    }

    /// Number of payload bytes (0 for `⊥`); used for wire-size accounting.
    pub fn len(&self) -> usize {
        match self {
            Value::Bot => 0,
            Value::Data(b) => b.len(),
        }
    }

    /// `true` iff the payload is empty (`⊥` counts as empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact encoded size in bytes under the `lucky-wire` codec: one
    /// tag byte, plus (for data) the varint length prefix and the
    /// payload itself.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Bot => 1,
            Value::Data(b) => 1 + varint_len(b.len() as u64) + b.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bot => write!(f, "⊥"),
            Value::Data(b) => match self.as_u64() {
                Some(x) => write!(f, "v{x}"),
                None => write!(f, "data[{}B]", b.len()),
            },
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::from_u64(x)
    }
}

impl From<&[u8]> for Value {
    fn from(data: &[u8]) -> Self {
        Value::Data(Bytes::copy_from_slice(data))
    }
}

/// A timestamp–value pair `⟨ts, val⟩` — the unit the protocol stores in the
/// `pw`, `w`, `vw` and `frozen` server fields and compares in every
/// predicate.
///
/// Ordering is lexicographic by `(ts, val)`. The protocols only ever rely
/// on the timestamp order (`update()` in Fig. 3 compares `ts`); the value
/// tiebreak merely makes the order total, which keeps candidate selection
/// deterministic even against equivocating Byzantine servers that send two
/// different values with one timestamp.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TsVal {
    /// Write timestamp.
    pub ts: Seq,
    /// The value written at that timestamp.
    pub val: Value,
}

impl TsVal {
    /// Build a pair.
    pub fn new(ts: Seq, val: Value) -> TsVal {
        TsVal { ts, val }
    }

    /// `⟨ts0, ⊥⟩` — the initial pair every register field starts from.
    pub fn initial() -> TsVal {
        TsVal { ts: Seq::INITIAL, val: Value::Bot }
    }

    /// `true` iff this pair is strictly newer (higher timestamp) than
    /// `other` — the `update()` guard of Fig. 3 line 17.
    pub fn is_newer_than(&self, other: &TsVal) -> bool {
        self.ts > other.ts
    }

    /// `true` iff this pair is "older-or-conflicting" with respect to
    /// candidate `c`: the condition counted by `invalidw` / `invalidpw`
    /// (Fig. 2 lines 8–9): `ts < c.ts ∨ (ts = c.ts ∧ val ≠ c.val)`.
    pub fn invalidates(&self, c: &TsVal) -> bool {
        self.ts < c.ts || (self.ts == c.ts && self.val != c.val)
    }

    /// Exact encoded size in bytes under the `lucky-wire` codec:
    /// varint timestamp plus the encoded value.
    pub fn wire_size(&self) -> usize {
        varint_len(self.ts.0) + self.val.wire_size()
    }
}

impl fmt::Display for TsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.ts, self.val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_next_increments() {
        assert_eq!(Seq::INITIAL.next(), Seq(1));
        assert_eq!(Seq(41).next(), Seq(42));
    }

    #[test]
    fn read_seq_next_increments() {
        assert_eq!(ReadSeq::INITIAL.next(), ReadSeq(1));
    }

    #[test]
    fn value_u64_roundtrip() {
        let v = Value::from_u64(123456789);
        assert_eq!(v.as_u64(), Some(123456789));
        assert!(!v.is_bot());
    }

    #[test]
    fn bot_is_default_and_has_no_u64() {
        assert!(Value::default().is_bot());
        assert_eq!(Value::Bot.as_u64(), None);
        assert_eq!(Value::Bot.len(), 0);
        assert!(Value::Bot.is_empty());
    }

    #[test]
    fn arbitrary_bytes_are_not_u64() {
        let v = Value::from_bytes(vec![1, 2, 3]);
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn tsval_initial_is_minimal() {
        let init = TsVal::initial();
        let one = TsVal::new(Seq(1), Value::from_u64(9));
        assert!(one > init);
        assert!(one.is_newer_than(&init));
        assert!(!init.is_newer_than(&one));
    }

    #[test]
    fn invalidates_lower_timestamp() {
        let c = TsVal::new(Seq(5), Value::from_u64(5));
        let older = TsVal::new(Seq(4), Value::from_u64(4));
        assert!(older.invalidates(&c));
        assert!(!c.invalidates(&older));
    }

    #[test]
    fn invalidates_same_timestamp_different_value() {
        let c = TsVal::new(Seq(5), Value::from_u64(5));
        let conflicting = TsVal::new(Seq(5), Value::from_u64(99));
        assert!(conflicting.invalidates(&c));
        assert!(c.invalidates(&conflicting));
        // A pair never invalidates itself.
        assert!(!c.invalidates(&c.clone()));
    }

    #[test]
    fn invalidates_is_false_for_strictly_newer() {
        let c = TsVal::new(Seq(5), Value::from_u64(5));
        let newer = TsVal::new(Seq(6), Value::from_u64(6));
        assert!(!newer.invalidates(&c));
    }

    #[test]
    fn ordering_is_by_timestamp_first() {
        let a = TsVal::new(Seq(1), Value::from_u64(100));
        let b = TsVal::new(Seq(2), Value::from_u64(0));
        assert!(b > a);
    }

    #[test]
    fn wire_size_counts_payload() {
        // ⟨ts0,⊥⟩: one varint byte + one Value tag byte.
        assert_eq!(TsVal::initial().wire_size(), 2);
        // ⟨ts1,v1⟩: varint ts (1) + tag (1) + len prefix (1) + 8 bytes.
        assert_eq!(TsVal::new(Seq(1), Value::from_u64(1)).wire_size(), 11);
    }

    #[test]
    fn varint_len_breakpoints() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_383), 2);
        assert_eq!(varint_len(16_384), 3);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn display_is_compact() {
        let c = TsVal::new(Seq(3), Value::from_u64(7));
        assert_eq!(c.to_string(), "⟨ts3,v7⟩");
        assert_eq!(TsVal::initial().to_string(), "⟨ts0,⊥⟩");
    }
}
