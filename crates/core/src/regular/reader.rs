//! The regular variant's reader — Fig. 2 without the write-back — as a
//! policy over the shared [`ReadEngine`] kernel.

use crate::config::ProtocolConfig;
use crate::engine::{ReadEngine, ReadPolicy};
use crate::predicates::Thresholds;
use crate::view::ViewTable;
use lucky_types::{Params, RegisterId, TsVal};

/// The regular variant's READ policy: the READ loop is the atomic
/// reader's (rounds, candidate set `C`, freezing), but a selected value
/// is returned **immediately** — no `fast(c)` gate and no write-back
/// (App. D.2 modification 2). A READ is fast exactly when it decides in
/// round 1, which Proposition 7 guarantees for every lucky READ despite
/// up to `fr = t` failures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RegularReadPolicy {
    params: Params,
    thresholds: Thresholds,
}

impl ReadPolicy for RegularReadPolicy {
    const WRITEBACK_ROUNDS: u8 = 0;
    const ROUND_ONE_TIMER: bool = true;

    fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    fn quorum(&self) -> usize {
        self.params.quorum()
    }

    fn server_count(&self) -> usize {
        self.params.server_count()
    }

    fn round_one_fast(&self, _views: &ViewTable, _c: &TsVal) -> bool {
        // Irrelevant: with no write-back the kernel returns the selected
        // value immediately, fast iff the READ decided in round 1.
        false
    }
}

/// A reader of the regular variant: the shared [`ReadEngine`] over
/// [`RegularReadPolicy`].
pub type RegularReader = ReadEngine<RegularReadPolicy>;

/// A fresh reader of register `reg`. Use [`Params::trading_reads`] for
/// the Appendix D thresholds.
pub fn reader(reg: RegisterId, params: Params, cfg: ProtocolConfig) -> RegularReader {
    let policy = RegularReadPolicy { params, thresholds: Thresholds::from(params) };
    ReadEngine::for_register(reg, policy, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::{Effects, TimerId};
    use lucky_types::{FrozenSlot, Message, ProcessId, ReadAckMsg, ReadSeq, Seq, ServerId, Value};

    /// Trading-reads params: t = 2, b = 1 → S = 6, quorum 4, safe 2.
    fn reader() -> RegularReader {
        let params = Params::trading_reads(2, 1).unwrap();
        super::reader(RegisterId::DEFAULT, params, ProtocolConfig::for_sync_bound(100))
    }

    fn pair(ts: u64) -> TsVal {
        TsVal::new(Seq(ts), Value::from_u64(ts))
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn read_ack(tsr: u64, rnd: u32, pw: TsVal, w: TsVal) -> Message {
        Message::ReadAck(ReadAckMsg {
            reg: RegisterId::DEFAULT,
            tsr: ReadSeq(tsr),
            rnd,
            pw,
            w,
            vw: Some(TsVal::initial()),
            frozen: FrozenSlot::initial(),
        })
    }

    #[test]
    fn decides_in_round_one_without_writeback() {
        let mut r = reader();
        let mut eff = Effects::new();
        r.invoke(&mut eff);
        let mut eff = Effects::new();
        // Only quorum agreement — in the atomic variant this would force
        // a write-back (no fastpw/fastvw); here it returns immediately.
        for i in 0..4 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1)), &mut eff);
        }
        r.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(sends.is_empty(), "regular reads never write back");
        let c = completion.expect("completion");
        assert_eq!((c.rounds, c.fast), (1, true));
        assert_eq!(c.value.unwrap().as_u64(), Some(1));
        assert!(r.is_idle());
    }

    #[test]
    fn undecided_round_one_rolls_to_round_two() {
        let mut r = reader();
        let mut eff = Effects::new();
        r.invoke(&mut eff);
        let mut eff = Effects::new();
        for (i, ts) in [(0u16, 2u64), (1, 3), (2, 4), (3, 5)] {
            r.on_message(server(i), read_ack(1, 1, pair(ts), pair(1)), &mut eff);
        }
        r.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Read(rm) if rm.rnd == 2)));
        // Round 2 decision is not fast.
        let mut eff = Effects::new();
        for i in 0..4 {
            r.on_message(server(i), read_ack(1, 2, pair(5), pair(5)), &mut eff);
        }
        let (_, _, completion) = eff.into_parts();
        let c = completion.expect("completion");
        assert_eq!((c.rounds, c.fast), (2, false));
        assert_eq!(c.value.unwrap().as_u64(), Some(5));
    }
}
