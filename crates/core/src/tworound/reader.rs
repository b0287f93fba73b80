//! The two-round variant's reader automaton (Fig. 7), as a policy over
//! the shared [`ReadEngine`] kernel.

use crate::config::ProtocolConfig;
use crate::engine::{ReadEngine, ReadPolicy};
use crate::predicates::{self, Thresholds};
use crate::view::ViewTable;
use lucky_types::{RegisterId, TsVal, TwoRoundParams};

/// The two-round variant's READ policy. Two deviations from the atomic
/// policy, both dictated by Fig. 7: the fast predicate is
/// `|{i : w_i = c}| ≥ S − t − fr` (line 5 — there is no `vw` register and
/// WRITEs never skip their W round), and the write-back takes two rounds,
/// mirroring the two-round WRITE.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TwoRoundReadPolicy {
    params: TwoRoundParams,
    thresholds: Thresholds,
    fast_reads: bool,
}

impl ReadPolicy for TwoRoundReadPolicy {
    const WRITEBACK_ROUNDS: u8 = 2;
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

    fn round_one_fast(&self, views: &ViewTable, c: &TsVal) -> bool {
        // Fig. 7 line 5: fast(c) counts `w` copies only.
        self.fast_reads && predicates::count_w(views, c) >= self.thresholds.fast_w
    }
}

/// A reader of the two-round algorithm: the shared [`ReadEngine`] over
/// [`TwoRoundReadPolicy`].
pub type TwoRoundReader = ReadEngine<TwoRoundReadPolicy>;

/// A fresh reader of register `reg`.
pub fn reader(reg: RegisterId, params: TwoRoundParams, cfg: ProtocolConfig) -> TwoRoundReader {
    let policy = TwoRoundReadPolicy {
        params,
        thresholds: Thresholds::from(params),
        fast_reads: cfg.fast_reads,
    };
    ReadEngine::for_register(reg, policy, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::{Effects, TimerId};
    use lucky_types::{
        FrozenSlot, Message, ProcessId, ReadAckMsg, ReadSeq, Seq, ServerId, Tag, Value, WriteAckMsg,
    };

    /// t = 2, b = 1, fr = 1 → S = 7, quorum 5, fast_w = 4, safe 2.
    fn reader() -> TwoRoundReader {
        let params = TwoRoundParams::new(2, 1, 1).unwrap();
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
            vw: None,
            frozen: FrozenSlot::initial(),
        })
    }

    fn wb_ack(round: u8, tsr: u64) -> Message {
        Message::WriteAck(WriteAckMsg {
            reg: RegisterId::DEFAULT,
            round,
            tag: Tag::WriteBack(ReadSeq(tsr)),
        })
    }

    #[test]
    fn fast_read_needs_s_minus_t_minus_fr_w_copies() {
        let mut r = reader();
        let mut eff = Effects::new();
        r.invoke(&mut eff);
        let mut eff = Effects::new();
        // 4 servers (= S − t − fr) report ⟨1⟩ in w; 1 lags.
        for i in 0..4 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1)), &mut eff);
        }
        r.on_message(server(4), read_ack(1, 1, pair(1), TsVal::initial()), &mut eff);
        r.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(sends.iter().all(|(_, m)| !matches!(m, Message::Write(_))));
        let c = completion.expect("fast completion");
        assert_eq!((c.rounds, c.fast), (1, true));
        assert_eq!(c.value.unwrap().as_u64(), Some(1));
    }

    #[test]
    fn slow_read_writes_back_in_two_rounds() {
        let mut r = reader();
        let mut eff = Effects::new();
        r.invoke(&mut eff);
        let mut eff = Effects::new();
        // Only 3 w-copies (< 4): safe but not fast.
        for i in 0..3 {
            r.on_message(server(i), read_ack(1, 1, pair(1), pair(1)), &mut eff);
        }
        for i in 3..5 {
            r.on_message(server(i), read_ack(1, 1, pair(1), TsVal::initial()), &mut eff);
        }
        r.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert_eq!(sends.len(), 7);
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 1)));
        // Two write-back rounds, then completion with rounds = 1 + 2.
        let mut eff = Effects::new();
        for i in 0..5 {
            r.on_message(server(i), wb_ack(1, 1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));
        let mut eff = Effects::new();
        for i in 0..5 {
            r.on_message(server(i), wb_ack(2, 1), &mut eff);
        }
        let (_, _, completion) = eff.into_parts();
        let c = completion.expect("slow completion");
        assert_eq!((c.rounds, c.fast), (3, false));
        assert!(r.is_idle());
    }

    #[test]
    fn no_candidate_forces_round_two() {
        let mut r = reader();
        let mut eff = Effects::new();
        r.invoke(&mut eff);
        let mut eff = Effects::new();
        // Divided pre-writes: no safe+highCand pair among 5 responders.
        for (i, ts) in [(0u16, 2u64), (1, 3), (2, 4), (3, 5), (4, 6)] {
            r.on_message(server(i), read_ack(1, 1, pair(ts), pair(1)), &mut eff);
        }
        r.on_timer(TimerId(1), &mut eff);
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Read(rm) if rm.rnd == 2)));
    }
}
