//! Byzantine server behaviours.
//!
//! A malicious server in the paper's model (§2.1) "can change its state in
//! an arbitrary manner" and send whatever it likes to whoever contacts it
//! — but it cannot tamper with channels between non-malicious processes.
//! That is exactly what these automata do: each is an alternative
//! implementation of [`ServerCore`] installed at a server's address.
//!
//! This module is the one adversary catalogue: the sim and TCP runtimes
//! install these cores, and `lucky-explore` explores the same ones
//! (`ByzKind` names one constructor here per variant). Every core the
//! explorer runs is `Clone + Eq + Hash` — deterministic state with no
//! hidden RNG — so the explorer can deduplicate the states it reaches.
//!
//! The catalogue covers the behaviours the paper's proofs construct plus
//! the generic attacks the fault-injection tests sweep:
//!
//! * [`ForgeState`] — an honest automaton started from a forged snapshot
//!   (the σ1 forgery of run r5, Fig. 4);
//! * [`SplitBrain`] — protocol-compliant towards a chosen set of
//!   processes, amnesiac towards everyone else (the B2 equivocation of
//!   run r4);
//! * [`ForgeValue`] — answers every READ with a fixed fabricated pair;
//! * [`InflateTs`] — answers with an ever-growing timestamp to bait
//!   readers into returning garbage;
//! * [`StaleEcho`] — permanently answers with the initial state, denying
//!   every write;
//! * [`Mute`] — receives everything, answers nothing (distinct from a
//!   crash only in that it burns a *malicious* fault slot);
//! * [`RandomNoise`] — seeded random mixture of honest and forged
//!   replies, for property tests;
//! * [`MangleBatch`] — serves every register honestly but weaponizes the
//!   batching layer: replies arrive as batches that replay stale acks,
//!   duplicate fresh ones, reorder rounds and mix registers;
//! * [`WireFuzz`] — serves every register honestly but attacks the
//!   **codec layer**: each reply is encoded as a real `lucky-wire` frame
//!   and corrupted (bit flips, truncations, oversized length prefixes,
//!   version skew, magic smashes) before being decoded again the way a
//!   receiver would — corrupt frames must be rejected cleanly (the
//!   adversary asserts it) and only checksum-valid frames, including a
//!   periodically emitted semantically-mangled batch, reach the wire.
//!
//! [`MangleBatch`] and [`WireFuzz`] wrap any honest core: a
//! [`RegisterMux`] (the default) in the multi-register runtimes, a bare
//! [`AtomicServer`] in the single-register explorer.
//!
//! The scripted behaviours ([`ForgeValue`], [`InflateTs`], [`StaleEcho`],
//! [`RandomNoise`]) unwrap incoming [`Message::Batch`] envelopes and
//! answer every part — a batched request gives the adversary strictly
//! more requests to lie about, never fewer.

use crate::atomic::AtomicServer;
use crate::runtime::{RegisterMux, ServerCore};
use lucky_sim::Effects;
use lucky_types::{
    FrozenSlot, Message, ProcessId, PwAckMsg, ReadAckMsg, ReadMsg, Seq, TsVal, Value, WriteAckMsg,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// An honest server automaton whose registers were forged to an arbitrary
/// snapshot before the run — the "forges its state to σ1" step of run r5
/// in the Proposition 2 proof (§4).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ForgeState {
    inner: AtomicServer,
}

impl ForgeState {
    /// Forge the state as if the pair `c` had been pre-written here.
    pub fn prewritten(c: TsVal) -> ForgeState {
        ForgeState { inner: AtomicServer::with_state(c, TsVal::initial(), TsVal::initial()) }
    }

    /// Forge an arbitrary register snapshot.
    pub fn with_registers(pw: TsVal, w: TsVal, vw: TsVal) -> ForgeState {
        ForgeState { inner: AtomicServer::with_state(pw, w, vw) }
    }
}

impl ServerCore for ForgeState {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        self.inner.handle(from, msg, eff);
    }
}

/// Equivocation: towards the processes in `honest_to` this server runs the
/// protocol faithfully; towards everyone else it pretends it never
/// received anything from the processes in `honest_to` — the behaviour of
/// the malicious B2 in run r4 of the Proposition 2 proof, which answers
/// the writer and `reader1` correctly but shows `reader2` a blank past.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SplitBrain {
    honest_to: BTreeSet<ProcessId>,
    faithful: AtomicServer,
    amnesiac: AtomicServer,
}

impl SplitBrain {
    /// Behave honestly towards `honest_to`, amnesiac to everyone else.
    pub fn new(honest_to: impl IntoIterator<Item = ProcessId>) -> SplitBrain {
        SplitBrain {
            honest_to: honest_to.into_iter().collect(),
            faithful: AtomicServer::new(),
            amnesiac: AtomicServer::new(),
        }
    }
}

impl ServerCore for SplitBrain {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        if self.honest_to.contains(&from) {
            self.faithful.handle(from, msg, eff);
        } else {
            self.amnesiac.handle(from, msg, eff);
        }
    }
}

/// The one reply builder of the scripted liars: answers every part of
/// `msg`, in order — each PW and WRITE acked without being applied, each
/// READ answered with the pair (as `pw`, `w` and `vw`) and frozen slot
/// `read` picks for it. `read` runs once per READ part, so stateful
/// liars advance exactly once per request they answer.
fn lie(
    from: ProcessId,
    msg: Message,
    eff: &mut Effects,
    mut read: impl FnMut(&ReadMsg) -> (TsVal, FrozenSlot),
) {
    for part in msg.flatten() {
        let reply = match part {
            Message::Pw(m) => Message::PwAck(PwAckMsg { reg: m.reg, ts: m.ts, newread: vec![] }),
            Message::Write(m) => {
                Message::WriteAck(WriteAckMsg { reg: m.reg, round: m.round, tag: m.tag })
            }
            Message::Read(m) => {
                let (pair, frozen) = read(&m);
                Message::ReadAck(ReadAckMsg {
                    reg: m.reg,
                    tsr: m.tsr,
                    rnd: m.rnd,
                    pw: pair.clone(),
                    w: pair.clone(),
                    vw: Some(pair),
                    frozen,
                })
            }
            _ => continue,
        };
        eff.send(from, reply);
    }
}

/// Answers every READ with a fixed fabricated pair in all registers, and
/// acks every write without applying it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ForgeValue {
    fake: TsVal,
}

impl ForgeValue {
    /// Fabricate `pair` everywhere.
    pub fn new(pair: TsVal) -> ForgeValue {
        ForgeValue { fake: pair }
    }
}

impl ServerCore for ForgeValue {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        lie(from, msg, eff, |m| {
            (self.fake.clone(), FrozenSlot { pw: self.fake.clone(), tsr: m.tsr })
        });
    }
}

/// Answers every READ with a fresh, ever-higher timestamp and a garbage
/// value — the classic bait for a reader that trusts single reporters.
#[derive(Clone, Debug)]
pub struct InflateTs {
    next: u64,
}

impl InflateTs {
    /// Start inflating from timestamp `start`.
    pub fn new(start: u64) -> InflateTs {
        InflateTs { next: start }
    }
}

impl ServerCore for InflateTs {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        lie(from, msg, eff, |m| {
            self.next += 1;
            let fake = TsVal::new(Seq(self.next), Value::from_u64(u64::MAX - self.next));
            (fake.clone(), FrozenSlot { pw: fake, tsr: m.tsr })
        });
    }
}

/// Permanently answers with the initial state: acknowledges writes but
/// never stores them, showing every reader an empty register.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct StaleEcho;

impl StaleEcho {
    /// A new stale echo server.
    pub fn new() -> StaleEcho {
        StaleEcho
    }
}

impl ServerCore for StaleEcho {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        lie(from, msg, eff, |_| (TsVal::initial(), FrozenSlot::initial()));
    }
}

/// Receives everything and answers nothing.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Mute;

impl Mute {
    /// A new mute server.
    pub fn new() -> Mute {
        Mute
    }
}

impl ServerCore for Mute {
    fn deliver(&mut self, _from: ProcessId, _msg: Message, _eff: &mut Effects) {}
}

/// A seeded mixture: with probability `p_forge` (out of 256) a reply is
/// forged with a random timestamp; otherwise the honest protocol answers.
/// Deterministic per seed, so property tests stay reproducible.
#[derive(Clone, Debug)]
pub struct RandomNoise {
    inner: AtomicServer,
    rng: SmallRng,
    p_forge: u8,
}

impl RandomNoise {
    /// A noisy server with the given seed and forge probability
    /// (`p_forge`/256 per message).
    pub fn new(seed: u64, p_forge: u8) -> RandomNoise {
        RandomNoise { inner: AtomicServer::new(), rng: SmallRng::seed_from_u64(seed), p_forge }
    }
}

impl ServerCore for RandomNoise {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        if matches!(msg, Message::Batch(_)) {
            // Per-part forgery decisions: a batch is a run of deliveries.
            for part in msg.flatten() {
                self.deliver(from, part, eff);
            }
            return;
        }
        let forge = self.rng.gen::<u8>() < self.p_forge;
        if !forge {
            self.inner.handle(from, msg, eff);
            return;
        }
        let fake_ts: u64 = self.rng.gen_range(0..100);
        let fake = TsVal::new(Seq(fake_ts), Value::from_u64(self.rng.gen()));
        lie(from, msg, eff, |_| (fake.clone(), FrozenSlot::initial()));
    }
}

/// A batching-layer adversary: computes the *honest* reply to every
/// request (it keeps real state in its inner core `S`), but ships its
/// replies as maximally confusing batches — the fresh acks reversed, the
/// first one duplicated, and a replay of stale acks from earlier
/// requests (possibly other registers and rounds) prepended.
///
/// This is the worst a malicious server can do *through the batch
/// envelope alone*: every part it sends is a message it was entitled to
/// send at some point, just at the wrong time, in the wrong order, in the
/// wrong company. Clients that unwrap batches part-by-part and re-apply
/// the ordinary stale-ack filters (§3.4) are immune; per-register
/// linearizability and the liveness of non-target registers must survive
/// it with no extra fault budget beyond the one Byzantine slot it burns.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MangleBatch<S = RegisterMux> {
    inner: S,
    /// Bounded replay pool of acks this server previously sent.
    stash: Vec<Message>,
}

/// How many past acks [`MangleBatch`] keeps for replay.
const MANGLE_STASH: usize = 16;

/// How many stale acks [`MangleBatch`] prepends to each reply batch.
const MANGLE_REPLAY: usize = 3;

impl<S: ServerCore> MangleBatch<S> {
    /// A batch-mangling server whose honest replies come from `inner`
    /// (e.g. `RegisterMux::new(setup)`).
    pub fn new(inner: S) -> MangleBatch<S> {
        MangleBatch { inner, stash: Vec::new() }
    }
}

impl<S> std::fmt::Debug for MangleBatch<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MangleBatch").field("stash", &self.stash.len()).finish_non_exhaustive()
    }
}

impl<S: ServerCore> ServerCore for MangleBatch<S> {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        let mut honest = Effects::new();
        self.inner.deliver(from, msg, &mut honest);
        let (sends, _, _) = honest.into_parts();
        // The acks an honest server would send to `from`, flattened.
        let mut fresh: Vec<Message> = Vec::new();
        for (_, m) in sends {
            fresh.extend(m.flatten());
        }
        // Mangled reply: stale replays first (newest stashed first, so
        // cross-register and cross-round mixes are likely), then the
        // first fresh ack twice, then the fresh acks in reverse order.
        let mut out: Vec<Message> = self.stash.iter().rev().take(MANGLE_REPLAY).cloned().collect();
        if let Some(first) = fresh.first() {
            out.push(first.clone());
        }
        out.extend(fresh.iter().rev().cloned());
        self.stash.extend(fresh);
        if self.stash.len() > MANGLE_STASH {
            let excess = self.stash.len() - MANGLE_STASH;
            self.stash.drain(..excess);
        }
        if !out.is_empty() {
            eff.send(from, Message::batch(out));
        }
    }
}

/// A codec-level adversary: serves honestly (real state in its inner
/// core `S`) but drags each reply through the byte level a malicious
/// server actually controls. Every reply is encoded as a complete
/// `lucky-wire` frame and then, cycling deterministically per reply,
/// either
///
/// * corrupted — a bit flip at a pseudo-random position, a truncation,
///   an oversized length prefix, a version skew or a magic smash — in
///   which case **decode must reject it** (asserted: a corrupt frame
///   that decoded would be a codec soundness bug) and the reply is
///   dropped, exactly as the receive side drops undecodable frames; or
/// * left checksum-valid: passed through intact, or re-shipped as a
///   *semantically mangled* batch (first ack duplicated, parts
///   reversed) that decodes perfectly and attacks the protocol layer
///   behind the codec instead.
///
/// The "randomness" of each attack is a SplitMix mix of (seed, reply
/// counter, draw index) — no RNG state — so two adversaries with equal
/// state corrupt identically, which is what lets the explorer hash it.
///
/// Either way, what the recipient sees has round-tripped through
/// encode → (attack) → decode, so runs with a `WireFuzz` server
/// exercise the real codec on live traffic. The checker verdicts must
/// be unchanged: dropped replies cost the one fault slot the adversary
/// burns, and mangled-but-valid batches are exactly what the batch
/// unwrapping defenses already absorb.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WireFuzz<S = RegisterMux> {
    inner: S,
    seed: u64,
    step: u64,
    rejected: u64,
    delivered: u64,
}

impl<S: ServerCore> WireFuzz<S> {
    /// A wire-fuzzing server whose honest replies come from `inner`
    /// (e.g. `RegisterMux::new(setup)`), corrupting with the given seed.
    pub fn new(inner: S, seed: u64) -> WireFuzz<S> {
        WireFuzz { inner, seed, step: 0, rejected: 0, delivered: 0 }
    }

    /// Corrupted frames decode rejected so far (each one a proven clean
    /// rejection — the adversary asserts the rejection as it happens).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Replies that reached the wire (intact or semantically mangled).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl<S> std::fmt::Debug for WireFuzz<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireFuzz")
            .field("seed", &self.seed)
            .field("step", &self.step)
            .field("rejected", &self.rejected)
            .field("delivered", &self.delivered)
            .finish_non_exhaustive()
    }
}

impl<S: ServerCore> ServerCore for WireFuzz<S> {
    fn deliver(&mut self, from: ProcessId, msg: Message, eff: &mut Effects) {
        let mut honest = Effects::new();
        self.inner.deliver(from, msg, &mut honest);
        let (sends, _, _) = honest.into_parts();
        for (to, reply) in sends {
            self.step += 1;
            let frame = lucky_wire::frame_message(&reply);
            // The `index`-th draw of the `step`-th reply; seed 0 keeps
            // the plain counter mix.
            let salt = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.step.wrapping_mul(131);
            let mut index = 0u64;
            let mut draw = |bound: u64| {
                index += 1;
                lucky_types::splitmix64(salt.wrapping_add(index)) % bound
            };
            let (bytes, must_decode) =
                lucky_wire::fuzz::fuzz_frame(&reply, frame, self.step, &mut draw);
            match lucky_wire::unframe_message(&bytes) {
                Ok(decoded) => {
                    assert!(
                        must_decode,
                        "codec soundness: a corrupted frame decoded as {}",
                        decoded.kind()
                    );
                    self.delivered += 1;
                    eff.send(to, decoded);
                }
                Err(_) => {
                    assert!(!must_decode, "a clean frame failed to decode");
                    self.rejected += 1;
                    // The receive side drops undecodable frames; so
                    // does the adversary's victimized reply.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Setup;
    use lucky_types::{Params, PwMsg, ReadSeq, ReaderId, RegisterId, Tag, WriteMsg};

    fn read_from(core: &mut dyn ServerCore, reader: u16) -> ReadAckMsg {
        let mut eff = Effects::new();
        core.deliver(
            ProcessId::Reader(ReaderId(reader)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 }),
            &mut eff,
        );
        let (sends, _, _) = eff.into_parts();
        match sends.into_iter().next() {
            Some((_, Message::ReadAck(a))) => a,
            other => panic!("expected a ReadAck, got {other:?}"),
        }
    }

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    #[test]
    fn forge_state_claims_the_forged_pair() {
        let mut s = ForgeState::prewritten(pair(1));
        let ack = read_from(&mut s, 0);
        assert_eq!(ack.pw, pair(1));
        assert_eq!(ack.w, TsVal::initial());
    }

    #[test]
    fn split_brain_answers_differently_by_sender() {
        let r1 = ProcessId::Reader(ReaderId(1));
        let mut s = SplitBrain::new([ProcessId::Writer, r1]);
        // The writer's PW is applied on the faithful side only.
        let mut eff = Effects::new();
        s.deliver(
            ProcessId::Writer,
            Message::Pw(PwMsg {
                reg: RegisterId::DEFAULT,
                ts: Seq(1),
                pw: pair(1),
                w: TsVal::initial(),
                frozen: vec![],
            }),
            &mut eff,
        );
        let honest_view = read_from(&mut s, 1);
        assert_eq!(honest_view.pw, pair(1));
        let blank_view = read_from(&mut s, 2);
        assert_eq!(blank_view.pw, TsVal::initial());
    }

    #[test]
    fn forge_value_fabricates_everywhere() {
        let mut s = ForgeValue::new(pair(9));
        let ack = read_from(&mut s, 0);
        assert_eq!(ack.pw, pair(9));
        assert_eq!(ack.w, pair(9));
        assert_eq!(ack.vw, Some(pair(9)));
        assert_eq!(ack.frozen.pw, pair(9));
    }

    #[test]
    fn inflate_ts_grows_monotonically() {
        let mut s = InflateTs::new(100);
        let a = read_from(&mut s, 0);
        let b = read_from(&mut s, 0);
        assert!(b.pw.ts > a.pw.ts);
        assert!(a.pw.ts > Seq(100));
    }

    #[test]
    fn stale_echo_acks_writes_but_stays_initial() {
        let mut s = StaleEcho::new();
        let mut eff = Effects::new();
        s.deliver(
            ProcessId::Writer,
            Message::Write(WriteMsg {
                reg: RegisterId::DEFAULT,
                round: 2,
                tag: Tag::Write(Seq(1)),
                c: pair(1),
                frozen: vec![],
            }),
            &mut eff,
        );
        assert_eq!(eff.send_count(), 1);
        let ack = read_from(&mut s, 0);
        assert_eq!(ack.pw, TsVal::initial());
    }

    #[test]
    fn mute_never_replies() {
        let mut s = Mute::new();
        let mut eff = Effects::new();
        s.deliver(
            ProcessId::Reader(ReaderId(0)),
            Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 }),
            &mut eff,
        );
        assert!(eff.is_empty());
    }

    #[test]
    fn mangle_batch_replays_duplicates_and_mixes_registers() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut s = MangleBatch::new(RegisterMux::new(setup));
        let reader = ProcessId::Reader(ReaderId(0));
        let read = |reg: u32, tsr: u64| {
            Message::Read(ReadMsg { reg: RegisterId(reg), tsr: ReadSeq(tsr), rnd: 1 })
        };
        // First request: one fresh ack, duplicated inside a batch.
        let mut eff = Effects::new();
        s.deliver(reader, read(0, 1), &mut eff);
        let (sends, _, _) = eff.into_parts();
        assert_eq!(sends.len(), 1);
        let parts = sends[0].1.clone().flatten();
        assert_eq!(parts.len(), 2, "fresh ack duplicated");
        assert_eq!(parts[0], parts[1]);
        // Second request for another register: the reply batch replays
        // register 0's stale ack alongside register 1's fresh one.
        let mut eff = Effects::new();
        s.deliver(reader, read(1, 2), &mut eff);
        let (sends, _, _) = eff.into_parts();
        let parts = sends[0].1.clone().flatten();
        let regs: BTreeSet<_> = parts.iter().filter_map(Message::register).collect();
        assert!(
            regs.contains(&RegisterId(0)) && regs.contains(&RegisterId(1)),
            "one batch mixes acks of two registers: {parts:?}"
        );
    }

    #[test]
    fn scripted_behaviours_answer_every_part_of_a_batch() {
        let mut forge = ForgeValue::new(pair(9));
        let batch = Message::batch(vec![
            Message::Read(ReadMsg { reg: RegisterId(0), tsr: ReadSeq(1), rnd: 1 }),
            Message::Read(ReadMsg { reg: RegisterId(1), tsr: ReadSeq(1), rnd: 1 }),
        ]);
        let mut eff = Effects::new();
        forge.deliver(ProcessId::Reader(ReaderId(0)), batch.clone(), &mut eff);
        assert_eq!(eff.send_count(), 2, "one forged ack per part");
        let mut stale = StaleEcho::new();
        let mut eff = Effects::new();
        stale.deliver(ProcessId::Reader(ReaderId(0)), batch.clone(), &mut eff);
        assert_eq!(eff.send_count(), 2);
        // Parts are answered in order, one inflated timestamp each.
        let mut inflate = InflateTs::new(100);
        let mut eff = Effects::new();
        inflate.deliver(ProcessId::Reader(ReaderId(0)), batch, &mut eff);
        let answered: Vec<_> = eff
            .into_parts()
            .0
            .into_iter()
            .map(|(_, m)| match m {
                Message::ReadAck(a) => (a.reg, a.pw.ts),
                other => panic!("expected a ReadAck, got {other:?}"),
            })
            .collect();
        assert_eq!(answered, [(RegisterId(0), Seq(101)), (RegisterId(1), Seq(102))]);
    }

    #[test]
    fn wire_fuzz_rejects_every_corrupt_frame_and_keeps_valid_ones_decodable() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut s = WireFuzz::new(RegisterMux::new(setup), 42);
        let reader = ProcessId::Reader(ReaderId(0));
        // Drive enough requests to cycle every corruption mode many
        // times; the adversary's internal assertions prove each corrupt
        // frame was rejected and each valid one decoded.
        for i in 1..=120u64 {
            let mut eff = Effects::new();
            s.deliver(
                reader,
                Message::Read(ReadMsg { reg: RegisterId(i as u32 % 4), tsr: ReadSeq(i), rnd: 1 }),
                &mut eff,
            );
            // Whatever survived is a message that round-tripped the
            // codec; a dropped reply leaves the effects empty.
            let (sends, _, _) = eff.into_parts();
            assert!(sends.len() <= 1);
        }
        // Four of six modes corrupt; two keep the frame valid.
        assert_eq!(s.rejected(), 80, "corrupting modes all rejected");
        assert_eq!(s.delivered(), 40, "valid modes all delivered");
    }

    #[test]
    fn wire_fuzz_semantic_mangle_is_a_valid_hostile_batch() {
        let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
        let mut s = WireFuzz::new(RegisterMux::new(setup), 1);
        let reader = ProcessId::Reader(ReaderId(0));
        // The corruption mode cycles with the reply counter: the fifth
        // reply (step % 6 == 5) takes the mangle arm.
        let mut mangled = None;
        for i in 1..=5u64 {
            let mut eff = Effects::new();
            s.deliver(
                reader,
                Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(i), rnd: 1 }),
                &mut eff,
            );
            let (sends, _, _) = eff.into_parts();
            if i == 5 {
                mangled = sends.into_iter().next().map(|(_, m)| m);
            }
        }
        let mangled = mangled.expect("the mangle arm always delivers");
        assert!(mangled.part_count() >= 2, "duplicated + reversed parts: {mangled:?}");
    }

    #[test]
    fn random_noise_is_deterministic_per_seed() {
        let acks = |seed| {
            let mut s = RandomNoise::new(seed, 128);
            (0..20).map(|_| read_from(&mut s, 0).pw.ts.0).collect::<Vec<_>>()
        };
        assert_eq!(acks(7), acks(7));
        assert_ne!(acks(7), acks(8));
    }

    /// One single-register request sequence: three writes (PW, then
    /// both W rounds) interleaved with READs from two readers.
    fn requests() -> Vec<(ProcessId, Message)> {
        let reg = RegisterId::DEFAULT;
        let read = |r: u16, tsr: u64| {
            let m = Message::Read(ReadMsg { reg, tsr: ReadSeq(tsr), rnd: 1 });
            (ProcessId::Reader(ReaderId(r)), m)
        };
        let write = |ts: u64, round: u8| {
            let c = pair(ts);
            let m = Message::Write(WriteMsg {
                reg,
                round,
                tag: Tag::Write(Seq(ts)),
                c,
                frozen: vec![],
            });
            (ProcessId::Writer, m)
        };
        let mut out = Vec::new();
        for ts in 1..=3u64 {
            let w = if ts == 1 { TsVal::initial() } else { pair(ts - 1) };
            let pw = PwMsg { reg, ts: Seq(ts), pw: pair(ts), w, frozen: vec![] };
            out.push((ProcessId::Writer, Message::Pw(pw)));
            out.push(read(0, ts));
            out.push(write(ts, 2));
            out.push(read(1, ts));
            out.push(write(ts, 3));
        }
        out
    }

    /// The sends `core` answers each of `requests` with.
    fn replies(
        core: &mut dyn ServerCore,
        requests: &[(ProcessId, Message)],
    ) -> Vec<Vec<(ProcessId, Message)>> {
        requests
            .iter()
            .map(|(from, msg)| {
                let mut eff = Effects::new();
                core.deliver(*from, msg.clone(), &mut eff);
                eff.into_parts().0
            })
            .collect()
    }

    fn mux() -> RegisterMux {
        RegisterMux::new(Setup::Atomic(Params::new(1, 0, 1, 0).unwrap()))
    }

    #[test]
    fn mangle_batch_lies_the_same_over_any_honest_core() {
        let reqs = requests();
        let bare = replies(&mut MangleBatch::new(AtomicServer::new()), &reqs);
        assert_eq!(bare, replies(&mut MangleBatch::new(mux()), &reqs));
        assert!(bare.iter().all(|r| r.len() == 1), "every request draws one mangled batch");
    }

    #[test]
    fn wire_fuzz_corrupts_the_same_over_any_honest_core() {
        let reqs = requests();
        let bare = replies(&mut WireFuzz::new(AtomicServer::new(), 5), &reqs);
        assert_eq!(bare, replies(&mut WireFuzz::new(mux(), 5), &reqs));
        // Replies 1–15 run the six-arm cycle two and a half times: the
        // corrupting arms 1–4 drop replies 1–4, 7–10 and 13–15.
        assert_eq!(bare.iter().filter(|r| r.is_empty()).count(), 11);
    }

    #[test]
    fn a_cloned_wire_fuzz_corrupts_like_its_original() {
        // The explorer deduplicates states by hash: equal WireFuzz states
        // must corrupt identically from there on.
        let reqs = requests();
        let (head, tail) = reqs.split_at(7);
        let mut original = WireFuzz::new(AtomicServer::new(), 9);
        replies(&mut original, head);
        let mut clone = original.clone();
        assert_eq!(replies(&mut original, tail), replies(&mut clone, tail));
        assert!(original == clone);
    }
}
