//! Wire messages of the lucky storage protocols.
//!
//! One enum covers all three protocol variants (atomic §3, two-round
//! App. C, regular App. D); the variants simply use different subsets of
//! the fields (for example only the two-round writer sends `frozen` inside
//! a [`WriteMsg`], and the regular servers ignore reader write-backs).
//!
//! Field names follow the paper's pseudocode (Figs 1–3 and 6–8) so the
//! implementation can be audited line by line against it.

use crate::{varint_len, ReadSeq, ReaderId, RegisterId, Seq, TsVal};
use std::fmt;

/// A `⟨r_j, pw, tsr⟩` triple the writer sends to freeze a value for reader
/// `r_j`'s ongoing slow READ (Fig. 1 line 15).
#[derive(Clone, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct FrozenUpdate {
    /// The reader the value is frozen for.
    pub reader: ReaderId,
    /// The timestamp–value pair frozen for that reader.
    pub pw: TsVal,
    /// The READ timestamp the freeze is addressed to (`read_ts[r_j]`).
    pub tsr: ReadSeq,
}

/// A server's per-reader frozen slot `⟨frozen_rj.pw, frozen_rj.tsr⟩`
/// (Fig. 3 line 2), echoed to the reader inside [`ReadAckMsg`].
#[derive(Clone, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct FrozenSlot {
    /// Frozen timestamp–value pair.
    pub pw: TsVal,
    /// READ timestamp the pair was frozen for.
    pub tsr: ReadSeq,
}

impl FrozenSlot {
    /// The initial slot `⟨⟨ts0,⊥⟩, tsr0⟩`.
    pub fn initial() -> FrozenSlot {
        FrozenSlot { pw: TsVal::initial(), tsr: ReadSeq::INITIAL }
    }
}

impl Default for FrozenSlot {
    fn default() -> Self {
        FrozenSlot::initial()
    }
}

/// A `⟨r_j, tsr_j⟩` entry of the `newread` field servers piggyback on
/// `PW_ACK`s to report ongoing slow READs to the writer (Fig. 3 line 7).
#[derive(Clone, Copy, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct NewRead {
    /// The reader whose slow READ is in progress.
    pub reader: ReaderId,
    /// The server's stored timestamp `tsr_j` for that reader.
    pub tsr: ReadSeq,
}

/// Tag used to match `WRITE_ACK`s to the round they acknowledge.
///
/// The writer's W-phase messages are tagged with the write timestamp
/// (Fig. 1 line 10); a reader's write-back rounds are tagged with its READ
/// timestamp (Fig. 2 line 27). Keeping them in one enum means a writer can
/// never mistake a write-back ack for one of its own and vice versa.
#[derive(Clone, Copy, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub enum Tag {
    /// Writer W phase for write timestamp `ts`.
    Write(Seq),
    /// Reader write-back for READ timestamp `tsr`.
    WriteBack(ReadSeq),
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tag::Write(ts) => write!(f, "W:{ts}"),
            Tag::WriteBack(tsr) => write!(f, "WB:{tsr}"),
        }
    }
}

/// `PW⟨ts, pw, w, frozen⟩` — first (pre-write) round of a WRITE
/// (Fig. 1 line 4; Fig. 6 line 5 sends it without `frozen`).
#[derive(Clone, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct PwMsg {
    /// The register the WRITE targets.
    pub reg: RegisterId,
    /// Timestamp of the WRITE this message belongs to.
    pub ts: Seq,
    /// The new pre-written pair `⟨ts, v⟩`.
    pub pw: TsVal,
    /// The previous completed pair (the writer's `w` variable).
    pub w: TsVal,
    /// Values frozen for ongoing slow READs (empty when none).
    pub frozen: Vec<FrozenUpdate>,
}

/// `PW_ACK⟨ts, newread⟩` — server reply to [`PwMsg`] (Fig. 3 line 8).
#[derive(Clone, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct PwAckMsg {
    /// Echo of the register (validity check — the writer of register
    /// `reg` only counts acks for `reg`).
    pub reg: RegisterId,
    /// Echo of the WRITE timestamp (validity check, §3.4).
    pub ts: Seq,
    /// Ongoing slow READs this server knows about.
    pub newread: Vec<NewRead>,
}

/// `W⟨round, tag, c⟩` — W-phase round of a WRITE (rounds 2–3, Fig. 1
/// line 10) or a write-back round (Fig. 2 line 27). The two-round variant's
/// writer additionally carries `frozen` here (Fig. 6 line 9).
#[derive(Clone, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct WriteMsg {
    /// The register the round targets.
    pub reg: RegisterId,
    /// Round number within the operation (write-back rounds start at 1).
    pub round: u8,
    /// Ack-matching tag (write timestamp or READ timestamp).
    pub tag: Tag,
    /// The timestamp–value pair being written.
    pub c: TsVal,
    /// Frozen values — used only by the two-round (App. C) writer.
    pub frozen: Vec<FrozenUpdate>,
}

/// `WRITE_ACK⟨round, tag⟩` — server reply to [`WriteMsg`] (Fig. 3 line 16).
#[derive(Clone, Copy, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct WriteAckMsg {
    /// Echo of the register.
    pub reg: RegisterId,
    /// Echo of the round number.
    pub round: u8,
    /// Echo of the tag.
    pub tag: Tag,
}

/// `READ⟨tsr, rnd⟩` — one round of a READ (Fig. 2 line 16).
#[derive(Clone, Copy, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct ReadMsg {
    /// The register the READ targets.
    pub reg: RegisterId,
    /// The READ's timestamp.
    pub tsr: ReadSeq,
    /// Round number, starting at 1.
    pub rnd: u32,
}

/// `READ_ACK⟨tsr, rnd, pw, w, vw, frozen⟩` — server reply to [`ReadMsg`]
/// (Fig. 3 line 11).
#[derive(Clone, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub struct ReadAckMsg {
    /// Echo of the register.
    pub reg: RegisterId,
    /// Echo of the READ timestamp.
    pub tsr: ReadSeq,
    /// Echo of the round number.
    pub rnd: u32,
    /// Server's `pw` register.
    pub pw: TsVal,
    /// Server's `w` register.
    pub w: TsVal,
    /// Server's `vw` register (`None` in the two-round variant, which has
    /// no `vw` — see DESIGN.md §4.5).
    pub vw: Option<TsVal>,
    /// Server's frozen slot for the requesting reader.
    pub frozen: FrozenSlot,
}

/// Any protocol message. Clients send `Pw`/`Write`/`Read`; servers reply
/// with the matching acks. [`Message::Batch`] is a transport envelope
/// either side may use to ship several messages to one destination as a
/// single wire message.
#[derive(Clone, PartialEq, PartialOrd, Ord, Eq, Hash, Debug)]
pub enum Message {
    /// Pre-write round (writer → servers).
    Pw(PwMsg),
    /// Pre-write ack (server → writer).
    PwAck(PwAckMsg),
    /// W-phase / write-back round (client → servers).
    Write(WriteMsg),
    /// W-phase / write-back ack (server → client).
    WriteAck(WriteAckMsg),
    /// Several messages from one sender to one destination, travelling as
    /// a single wire message and delivered atomically, in order.
    ///
    /// A batch may span registers and rounds; it has no register of its
    /// own ([`Message::register`] is `None`). Recipients must treat the
    /// parts exactly as if they had arrived back-to-back from the same
    /// sender — a Byzantine sender can put *anything* in here, so no part
    /// may be trusted further than an individually-sent message would be.
    Batch(Vec<Message>),
    /// READ round (reader → servers).
    Read(ReadMsg),
    /// READ ack (server → reader).
    ReadAck(ReadAckMsg),
}

impl Message {
    /// The register this message belongs to, or `None` for a
    /// [`Message::Batch`], whose parts may span registers.
    ///
    /// Every request names the register it targets, and every ack echoes
    /// it back, so multi-register servers can dispatch on it and clients
    /// can discard acks addressed to another register — the same
    /// stale-filtering discipline the timestamps already provide within
    /// one register (§3.4), lifted to the register dimension. A batch
    /// deliberately reports `None` instead of picking an arbitrary part:
    /// dispatching must happen per part, after [`Message::flatten`].
    pub fn register(&self) -> Option<RegisterId> {
        match self {
            Message::Pw(m) => Some(m.reg),
            Message::PwAck(m) => Some(m.reg),
            Message::Write(m) => Some(m.reg),
            Message::WriteAck(m) => Some(m.reg),
            Message::Read(m) => Some(m.reg),
            Message::ReadAck(m) => Some(m.reg),
            Message::Batch(_) => None,
        }
    }

    /// Bundle `parts` into one wire message bound for one destination.
    ///
    /// Nested batches are flattened on construction, so a batch's parts
    /// are always plain protocol messages, in their original order. A
    /// single-part batch collapses to the part itself (its wire form is
    /// identical to sending the message unbatched), and an empty input
    /// yields an empty batch that every recipient ignores.
    pub fn batch(parts: Vec<Message>) -> Message {
        let mut flat = Vec::with_capacity(parts.len());
        for part in parts {
            flat.extend(part.flatten());
        }
        if flat.len() == 1 {
            flat.pop().expect("length checked")
        } else {
            Message::Batch(flat)
        }
    }

    /// The plain protocol messages this message carries: a batch's parts
    /// (flattened, in order), or the message itself.
    ///
    /// Iterative on purpose: a Byzantine sender can hand-nest `Batch`
    /// envelopes arbitrarily deep, and flattening (like every other
    /// traversal here) must not recurse once per nesting level.
    pub fn flatten(self) -> Vec<Message> {
        match self {
            Message::Batch(parts) => {
                let mut flat = Vec::with_capacity(parts.len());
                // LIFO worklist; children pushed in reverse keep order.
                let mut work: Vec<Message> = parts.into_iter().rev().collect();
                while let Some(m) = work.pop() {
                    match m {
                        Message::Batch(inner) => work.extend(inner.into_iter().rev()),
                        leaf => flat.push(leaf),
                    }
                }
                flat
            }
            m => vec![m],
        }
    }

    /// Visit every plain protocol message this message carries, in order,
    /// without consuming or cloning anything.
    pub fn for_each_part(&self, mut f: impl FnMut(&Message)) {
        let mut work: Vec<&Message> = vec![self];
        while let Some(m) = work.pop() {
            match m {
                Message::Batch(parts) => work.extend(parts.iter().rev()),
                leaf => f(leaf),
            }
        }
    }

    /// Number of plain protocol messages this message carries (1 unless
    /// it is a batch).
    pub fn part_count(&self) -> usize {
        let mut n = 0;
        self.for_each_part(|_| n += 1);
        n
    }

    /// **Exact** encoded size in bytes under the `lucky-wire` codec
    /// (payload only — the 12-byte frame header and the transport
    /// envelope are framing, accounted separately by the transports).
    ///
    /// This used to be a rough 8-bytes-per-scalar estimate; it now
    /// mirrors the codec's arithmetic field for field (one tag byte per
    /// enum, varints for every integer, length-prefixed value bytes),
    /// so the byte accounting in `NetStats` and the simulator reports
    /// true on-the-wire payload bytes. `lucky-wire`'s property tests
    /// pin the contract: `encode_message(m).len() == m.wire_size()`.
    pub fn wire_size(&self) -> usize {
        // One tag byte opens every encoded message.
        const TAG: usize = 1;
        let tag_size = |t: &Tag| match t {
            Tag::Write(ts) => 1 + varint_len(ts.0),
            Tag::WriteBack(tsr) => 1 + varint_len(tsr.0),
        };
        let frozen_update = |f: &FrozenUpdate| {
            varint_len(f.reader.0 as u64) + f.pw.wire_size() + varint_len(f.tsr.0)
        };
        match self {
            Message::Pw(m) => {
                TAG + varint_len(m.reg.0 as u64)
                    + varint_len(m.ts.0)
                    + m.pw.wire_size()
                    + m.w.wire_size()
                    + varint_len(m.frozen.len() as u64)
                    + m.frozen.iter().map(frozen_update).sum::<usize>()
            }
            Message::PwAck(m) => {
                TAG + varint_len(m.reg.0 as u64)
                    + varint_len(m.ts.0)
                    + varint_len(m.newread.len() as u64)
                    + m.newread
                        .iter()
                        .map(|n| varint_len(n.reader.0 as u64) + varint_len(n.tsr.0))
                        .sum::<usize>()
            }
            Message::Write(m) => {
                TAG + varint_len(m.reg.0 as u64)
                    + 1 // round: raw byte
                    + tag_size(&m.tag)
                    + m.c.wire_size()
                    + varint_len(m.frozen.len() as u64)
                    + m.frozen.iter().map(frozen_update).sum::<usize>()
            }
            Message::WriteAck(m) => TAG + varint_len(m.reg.0 as u64) + 1 + tag_size(&m.tag),
            Message::Read(m) => {
                TAG + varint_len(m.reg.0 as u64) + varint_len(m.tsr.0) + varint_len(m.rnd as u64)
            }
            Message::ReadAck(m) => {
                TAG + varint_len(m.reg.0 as u64)
                    + varint_len(m.tsr.0)
                    + varint_len(m.rnd as u64)
                    + m.pw.wire_size()
                    + m.w.wire_size()
                    + 1 // Option tag
                    + m.vw.as_ref().map_or(0, TsVal::wire_size)
                    + m.frozen.pw.wire_size()
                    + varint_len(m.frozen.tsr.0)
            }
            // One tag byte and a part count per envelope plus the
            // encoded parts: the whole point of the envelope is that
            // the per-message framing is paid once. Iterative so
            // hostile nesting cannot recurse.
            Message::Batch(_) => {
                let mut total = 0;
                let mut work: Vec<&Message> = vec![self];
                while let Some(m) = work.pop() {
                    match m {
                        Message::Batch(parts) => {
                            total += TAG + varint_len(parts.len() as u64);
                            work.extend(parts.iter());
                        }
                        leaf => total += leaf.wire_size(),
                    }
                }
                total
            }
        }
    }

    /// Short label for tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Pw(_) => "PW",
            Message::PwAck(_) => "PW_ACK",
            Message::Write(_) => "W",
            Message::WriteAck(_) => "W_ACK",
            Message::Read(_) => "READ",
            Message::ReadAck(_) => "READ_ACK",
            Message::Batch(_) => "BATCH",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn pair(ts: u64, v: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(v))
    }

    #[test]
    fn frozen_slot_initial() {
        let s = FrozenSlot::initial();
        assert_eq!(s.pw, TsVal::initial());
        assert_eq!(s.tsr, ReadSeq::INITIAL);
        assert_eq!(FrozenSlot::default(), s);
    }

    #[test]
    fn tags_for_write_and_writeback_never_collide() {
        // Same numeric payload, different namespaces.
        assert_ne!(Tag::Write(Seq(3)), Tag::WriteBack(ReadSeq(3)));
        assert_eq!(Tag::Write(Seq(3)), Tag::Write(Seq(3)));
    }

    #[test]
    fn wire_size_grows_with_frozen_entries() {
        let base = Message::Pw(PwMsg {
            reg: RegisterId::DEFAULT,
            ts: Seq(1),
            pw: pair(1, 1),
            w: TsVal::initial(),
            frozen: vec![],
        });
        let with_frozen = Message::Pw(PwMsg {
            reg: RegisterId::DEFAULT,
            ts: Seq(1),
            pw: pair(1, 1),
            w: TsVal::initial(),
            frozen: vec![FrozenUpdate { reader: ReaderId(0), pw: pair(1, 1), tsr: ReadSeq(1) }],
        });
        assert!(with_frozen.wire_size() > base.wire_size());
    }

    #[test]
    fn wire_size_read_ack_counts_optional_vw() {
        let without = Message::ReadAck(ReadAckMsg {
            reg: RegisterId::DEFAULT,
            tsr: ReadSeq(1),
            rnd: 1,
            pw: pair(1, 1),
            w: pair(1, 1),
            vw: None,
            frozen: FrozenSlot::initial(),
        });
        let with = Message::ReadAck(ReadAckMsg {
            reg: RegisterId::DEFAULT,
            tsr: ReadSeq(1),
            rnd: 1,
            pw: pair(1, 1),
            w: pair(1, 1),
            vw: Some(pair(1, 1)),
            frozen: FrozenSlot::initial(),
        });
        assert!(with.wire_size() > without.wire_size());
    }

    #[test]
    fn kind_labels() {
        let m = Message::Read(ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 });
        assert_eq!(m.kind(), "READ");
        let m = Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(1), newread: vec![] });
        assert_eq!(m.kind(), "PW_ACK");
    }

    #[test]
    fn every_message_reports_its_register() {
        let reg = RegisterId(7);
        let msgs = vec![
            Message::Pw(PwMsg {
                reg,
                ts: Seq(1),
                pw: pair(1, 1),
                w: TsVal::initial(),
                frozen: vec![],
            }),
            Message::PwAck(PwAckMsg { reg, ts: Seq(1), newread: vec![] }),
            Message::Write(WriteMsg {
                reg,
                round: 2,
                tag: Tag::Write(Seq(1)),
                c: pair(1, 1),
                frozen: vec![],
            }),
            Message::WriteAck(WriteAckMsg { reg, round: 2, tag: Tag::Write(Seq(1)) }),
            Message::Read(ReadMsg { reg, tsr: ReadSeq(1), rnd: 1 }),
            Message::ReadAck(ReadAckMsg {
                reg,
                tsr: ReadSeq(1),
                rnd: 1,
                pw: pair(1, 1),
                w: pair(1, 1),
                vw: None,
                frozen: FrozenSlot::initial(),
            }),
        ];
        for m in msgs {
            assert_eq!(m.register(), Some(reg), "{} must echo its register", m.kind());
        }
    }

    fn read(reg: u32, tsr: u64) -> Message {
        Message::Read(ReadMsg { reg: RegisterId(reg), tsr: ReadSeq(tsr), rnd: 1 })
    }

    #[test]
    fn batch_flattens_nested_batches_and_keeps_order() {
        let parts = vec![read(0, 1), read(1, 2), read(2, 3)];
        let nested = Message::batch(vec![Message::Batch(vec![read(0, 1), read(1, 2)]), read(2, 3)]);
        assert_eq!(nested.clone().flatten(), parts);
        assert_eq!(nested.part_count(), 3);
        assert_eq!(nested, Message::batch(parts));
    }

    #[test]
    fn single_part_batch_collapses_to_the_part() {
        let m = read(4, 7);
        assert_eq!(Message::batch(vec![m.clone()]), m);
        assert_eq!(m.clone().flatten(), vec![m]);
    }

    #[test]
    fn batch_has_no_register_of_its_own() {
        let b = Message::batch(vec![read(0, 1), read(1, 1)]);
        assert_eq!(b.register(), None, "a batch spans registers: no single register");
        assert_eq!(b.kind(), "BATCH");
    }

    #[test]
    fn batch_wire_size_is_one_envelope_plus_parts() {
        let parts = vec![read(0, 1), read(1, 2)];
        let part_bytes: usize = parts.iter().map(Message::wire_size).sum();
        let b = Message::batch(parts);
        // Envelope cost: one tag byte + a one-byte part count.
        assert_eq!(b.wire_size(), 2 + part_bytes);
        // Cheaper than two separately-framed messages would be on a real
        // wire, but still strictly larger than any single part.
        assert!(b.wire_size() > read(0, 1).wire_size());
    }

    #[test]
    fn wire_size_is_varint_tight() {
        // Small ids and timestamps cost one byte each: READ = tag +
        // reg + tsr + rnd.
        assert_eq!(read(0, 1).wire_size(), 4);
        // Bigger scalars grow the encoding varint by varint.
        let wide = Message::Read(ReadMsg {
            reg: RegisterId(u32::MAX),
            tsr: ReadSeq(u64::MAX),
            rnd: u32::MAX,
        });
        assert_eq!(wide.wire_size(), 1 + 5 + 10 + 5);
    }
}
