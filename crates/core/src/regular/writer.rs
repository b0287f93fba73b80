//! The regular variant's writer — Fig. 1 with a one-round W phase — as a
//! policy over the shared [`WriteEngine`] kernel.

use crate::config::ProtocolConfig;
use crate::engine::{WriteEngine, WritePolicy};
use lucky_types::{Params, RegisterId};

/// The regular variant's WRITE policy: identical to the atomic policy
/// except the W phase is a single round (so a slow WRITE takes two
/// round-trips and `vw` is never written; App. D.2 modification 1).
/// Intended to run with the Appendix D thresholds `fw = t − b` — i.e.
/// [`Params::trading_reads`] — where the fast path needs
/// `S − fw = t + 2b + 1` PW acks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RegularWritePolicy {
    params: Params,
    fast_writes: bool,
    freezing: bool,
}

impl WritePolicy for RegularWritePolicy {
    const PW_TIMER: bool = true;
    const W_ROUNDS: &'static [u8] = &[2];
    const FROZEN_ON_W: bool = false;

    fn quorum(&self) -> usize {
        self.params.quorum()
    }

    fn server_count(&self) -> usize {
        self.params.server_count()
    }

    fn b(&self) -> usize {
        self.params.b()
    }

    fn fast_write_acks(&self) -> Option<usize> {
        self.fast_writes.then(|| self.params.fast_write_acks())
    }

    fn freezing(&self) -> bool {
        self.freezing
    }
}

/// The writer of the regular variant: the shared [`WriteEngine`] over
/// [`RegularWritePolicy`].
pub type RegularWriter = WriteEngine<RegularWritePolicy>;

/// A fresh writer of register `reg`. Use [`Params::trading_reads`] for
/// the Appendix D thresholds.
pub fn writer(reg: RegisterId, params: Params, cfg: ProtocolConfig) -> RegularWriter {
    let policy =
        RegularWritePolicy { params, fast_writes: cfg.fast_writes, freezing: cfg.freezing };
    WriteEngine::for_register(reg, policy, cfg.timer_micros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::{Effects, TimerId};
    use lucky_types::{Message, ProcessId, PwAckMsg, Seq, ServerId, Tag, Value, WriteAckMsg};

    /// t = 2, b = 1, trading-reads: fw = 1, fr = 2 → S = 6, fast acks 5.
    fn writer() -> RegularWriter {
        let params = Params::trading_reads(2, 1).unwrap();
        super::writer(RegisterId::DEFAULT, params, ProtocolConfig::for_sync_bound(100))
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn pw_ack(ts: u64) -> Message {
        Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(ts), newread: vec![] })
    }

    #[test]
    fn fast_write_with_t_minus_b_failures() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::from_u64(1), &mut eff);
        let mut eff = Effects::new();
        // S - fw = 5 acks (one server crashed).
        for i in 0..5 {
            w.on_message(server(i), pw_ack(1), &mut eff);
        }
        w.on_timer(TimerId(1), &mut eff);
        let (_, _, completion) = eff.into_parts();
        let c = completion.expect("fast completion");
        assert_eq!((c.rounds, c.fast), (1, true));
    }

    #[test]
    fn slow_write_takes_two_rounds_total() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::from_u64(1), &mut eff);
        let mut eff = Effects::new();
        w.on_timer(TimerId(1), &mut eff);
        // Quorum only (4 < 5): single W round follows.
        for i in 0..4 {
            w.on_message(server(i), pw_ack(1), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none());
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));
        let mut eff = Effects::new();
        for i in 0..4 {
            w.on_message(
                server(i),
                Message::WriteAck(WriteAckMsg {
                    reg: RegisterId::DEFAULT,
                    round: 2,
                    tag: Tag::Write(Seq(1)),
                }),
                &mut eff,
            );
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(sends.is_empty(), "no third round in the regular variant");
        let c = completion.expect("slow completion");
        assert_eq!((c.rounds, c.fast), (2, false));
    }
}
