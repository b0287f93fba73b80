//! The seeded op schedule: the only thing derived from `--seed`, and the
//! only thing that reaches the store.
//!
//! Everything here is a pure function of `(seed, shape)`: the same seed
//! yields a byte-identical schedule (pinned by the test at the bottom),
//! a different seed a different one. The harness owns its RNG so no
//! change to the workspace's `rand` shim can silently alter a workload.

use lucky_types::Value;

/// Payload size of every written value, bytes.
pub const VALUE_BYTES: usize = 64;

/// splitmix64: small, fast, and good enough for workload shaping.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is
    /// below 2^-32 and identical on every run).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How keys are drawn.
#[derive(Clone, Debug)]
pub enum Keys {
    /// Uniform over `0..n`.
    Uniform(u32),
    /// Zipf over ranks `0..n` by inverse-CDF lookup; rank = register id
    /// (the placement ring hashes ids, so hot ranks spread over groups).
    Zipf(Vec<f64>),
}

impl Keys {
    pub fn zipf(n: u32, theta: f64) -> Keys {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / f64::from(i).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Keys::Zipf(cdf)
    }

    fn draw(&self, rng: &mut Rng) -> u32 {
        match self {
            Keys::Uniform(n) => rng.below(u64::from(*n)) as u32,
            Keys::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u32
            }
        }
    }
}

/// One scheduled operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SchedOp {
    pub reg: u32,
    /// `None` = WRITE, `Some(j)` = READ on the register's reader `j`.
    pub reader: Option<u16>,
}

impl SchedOp {
    pub fn is_write(&self) -> bool {
        self.reader.is_none()
    }
}

/// The schedule as a stream: op `i` is the `i`-th draw.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    keys: Keys,
    /// Reads per 1000 ops.
    read_permille: u32,
    readers: u16,
}

impl OpGen {
    pub fn new(seed: u64, keys: Keys, read_permille: u32, readers: u16) -> OpGen {
        OpGen { rng: Rng::new(seed), keys, read_permille, readers }
    }

    pub fn next_op(&mut self) -> SchedOp {
        let reg = self.keys.draw(&mut self.rng);
        let kind = self.rng.below(1000) as u32;
        let j = self.rng.below(u64::from(self.readers)) as u16;
        SchedOp { reg, reader: (kind < self.read_permille).then_some(j) }
    }

    /// The first `n` ops serialised (7 bytes each) — what "the same
    /// schedule" means, byte for byte.
    #[cfg(test)]
    pub fn schedule_bytes(mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * 7);
        for _ in 0..n {
            let op = self.next_op();
            out.extend_from_slice(&op.reg.to_be_bytes());
            out.push(u8::from(op.is_write()));
            out.extend_from_slice(&op.reader.unwrap_or(0).to_be_bytes());
        }
        out
    }
}

/// The unique 64-byte value of register `reg`'s `wseq`-th write
/// (`wseq ≥ 1`). The sequence number rides in the value so a reader can
/// tell, in O(1), how fresh what it got is.
pub fn value_for(reg: u32, wseq: u64) -> Value {
    let mut buf = [0xA5u8; VALUE_BYTES];
    buf[..4].copy_from_slice(&reg.to_be_bytes());
    buf[4..12].copy_from_slice(&wseq.to_be_bytes());
    Value::from(&buf[..])
}

/// Inverse of [`value_for`]: `(reg, wseq)`, with `⊥` reading as write 0
/// of `expected_reg`. `None` for bytes this harness never wrote.
pub fn decode_value(v: &Value, expected_reg: u32) -> Option<(u32, u64)> {
    match v {
        Value::Bot => Some((expected_reg, 0)),
        Value::Data(b) => {
            let b: &[u8] = b.as_ref();
            if b.len() != VALUE_BYTES {
                return None;
            }
            let reg = u32::from_be_bytes(b[..4].try_into().ok()?);
            let wseq = u64::from_be_bytes(b[4..12].try_into().ok()?);
            Some((reg, wseq))
        }
    }
}

/// The O(1)-per-op client-side freshness oracle: a READ must never
/// return a value older than the last WRITE acknowledged on its register
/// before the READ was issued (atomicity condition 2 of §2.2, checked
/// online; the per-register checker re-checks it offline with the other
/// three).
#[derive(Debug)]
pub struct Freshness {
    next_wseq: Vec<u64>,
    acked: Vec<u64>,
    pub stale_reads: u64,
    pub foreign_values: u64,
}

impl Freshness {
    pub fn new(registers: usize) -> Freshness {
        Freshness {
            next_wseq: vec![0; registers],
            acked: vec![0; registers],
            stale_reads: 0,
            foreign_values: 0,
        }
    }

    /// Allocate the next write of `reg`: its sequence number and value.
    pub fn next_write(&mut self, reg: u32) -> (u64, Value) {
        let w = &mut self.next_wseq[reg as usize];
        *w += 1;
        (*w, value_for(reg, *w))
    }

    pub fn write_acked(&mut self, reg: u32, wseq: u64) {
        let a = &mut self.acked[reg as usize];
        *a = (*a).max(wseq);
    }

    /// The freshness floor a READ issued now must meet.
    pub fn floor(&self, reg: u32) -> u64 {
        self.acked[reg as usize]
    }

    pub fn read_returned(&mut self, reg: u32, floor: u64, v: &Value) {
        match decode_value(v, reg) {
            Some((r, wseq)) if r == reg => {
                if wseq < floor {
                    self.stale_reads += 1;
                }
            }
            _ => self.foreign_values += 1,
        }
    }

    pub fn violations(&self) -> u64 {
        self.stale_reads + self.foreign_values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> OpGen {
        OpGen::new(seed, Keys::Uniform(256), 900, 2)
    }

    #[test]
    fn same_seed_yields_a_byte_identical_schedule() {
        assert_eq!(gen(7).schedule_bytes(50_000), gen(7).schedule_bytes(50_000));
        let zipf =
            |seed| OpGen::new(seed, Keys::zipf(100_000, 0.99), 900, 1).schedule_bytes(20_000);
        assert_eq!(zipf(3), zipf(3));
    }

    #[test]
    fn a_different_seed_changes_the_schedule() {
        assert_ne!(gen(7).schedule_bytes(1_000), gen(8).schedule_bytes(1_000));
    }

    #[test]
    fn mix_and_keys_follow_the_shape() {
        let mut g = gen(1);
        let ops: Vec<SchedOp> = (0..100_000).map(|_| g.next_op()).collect();
        let reads = ops.iter().filter(|o| !o.is_write()).count();
        assert!((89_000..91_000).contains(&reads), "90% reads, got {reads}");
        assert!(ops.iter().all(|o| o.reg < 256 && o.reader.is_none_or(|j| j < 2)));
        // Zipf(0.99) over 100k: rank 0 is drawn ~8% of the time.
        let mut z = OpGen::new(1, Keys::zipf(100_000, 0.99), 900, 1);
        let hot = (0..100_000).filter(|_| z.next_op().reg == 0).count();
        assert!((6_000..10_000).contains(&hot), "hot key share, got {hot}");
    }

    #[test]
    fn values_roundtrip_and_the_oracle_catches_stale_reads() {
        let v = value_for(9, 41);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(decode_value(&v, 9), Some((9, 41)));
        assert_eq!(decode_value(&Value::Bot, 9), Some((9, 0)));
        let mut f = Freshness::new(16);
        let (w1, _) = f.next_write(9);
        let (w2, v2) = f.next_write(9);
        f.write_acked(9, w1);
        f.write_acked(9, w2);
        let floor = f.floor(9);
        f.read_returned(9, floor, &v2);
        assert_eq!(f.violations(), 0);
        f.read_returned(9, floor, &value_for(9, w1));
        assert_eq!(f.stale_reads, 1);
        f.read_returned(9, 0, &value_for(3, 1));
        assert_eq!(f.foreign_values, 1);
    }
}
