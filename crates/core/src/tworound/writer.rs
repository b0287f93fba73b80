//! The two-round variant's writer automaton (Fig. 6), as a policy over
//! the shared [`WriteEngine`] kernel.

use crate::engine::{WriteEngine, WritePolicy};
use lucky_types::{RegisterId, TwoRoundParams};

/// The two-round variant's WRITE policy. Compared with the atomic policy
/// (Fig. 1): no timer, no fast path, a single W round, and the frozen set
/// computed by `freezevalues()` ships inside the W message of the *same*
/// WRITE (Fig. 6 lines 7–10) rather than the next WRITE's PW message —
/// which is what lets the wait-freedom argument of Appendix C.5 go
/// through with only two rounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TwoRoundWritePolicy {
    params: TwoRoundParams,
}

impl WritePolicy for TwoRoundWritePolicy {
    const PW_TIMER: bool = false;
    const W_ROUNDS: &'static [u8] = &[2];
    const FROZEN_ON_W: bool = true;

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
        None // every WRITE takes exactly two rounds, unconditionally
    }

    fn freezing(&self) -> bool {
        true
    }
}

/// The writer of the two-round algorithm: every WRITE takes exactly two
/// communication round-trips, unconditionally. The shared
/// [`WriteEngine`] over [`TwoRoundWritePolicy`].
pub type TwoRoundWriter = WriteEngine<TwoRoundWritePolicy>;

/// A fresh writer of register `reg`.
pub fn writer(reg: RegisterId, params: TwoRoundParams) -> TwoRoundWriter {
    // No PW timer, so its length is never read.
    WriteEngine::for_register(reg, TwoRoundWritePolicy { params }, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_sim::Effects;
    use lucky_types::{
        Message, NewRead, ProcessId, PwAckMsg, ReadSeq, ReaderId, Seq, ServerId, Tag, TsVal, Value,
        WriteAckMsg,
    };

    /// t = 2, b = 1, fr = 1 → S = 7, quorum 5.
    fn writer() -> TwoRoundWriter {
        super::writer(RegisterId::DEFAULT, TwoRoundParams::new(2, 1, 1).unwrap())
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn pw_ack(ts: u64, newread: Vec<NewRead>) -> Message {
        Message::PwAck(PwAckMsg { reg: RegisterId::DEFAULT, ts: Seq(ts), newread })
    }

    fn w_ack(ts: u64) -> Message {
        Message::WriteAck(WriteAckMsg {
            reg: RegisterId::DEFAULT,
            round: 2,
            tag: Tag::Write(Seq(ts)),
        })
    }

    #[test]
    fn every_write_takes_exactly_two_rounds() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::from_u64(7), &mut eff);
        let (sends, timers, _) = eff.into_parts();
        assert_eq!(sends.len(), 7);
        assert!(timers.is_empty(), "no timer in the two-round variant");

        // All seven servers ack the PW round — still not complete.
        let mut eff = Effects::new();
        for i in 0..7 {
            w.on_message(server(i), pw_ack(1, vec![]), &mut eff);
        }
        let (sends, _, completion) = eff.into_parts();
        assert!(completion.is_none(), "no fast path even with all acks");
        assert!(sends.iter().all(|(_, m)| matches!(m, Message::Write(wm) if wm.round == 2)));

        // W-round quorum completes the WRITE in two rounds.
        let mut eff = Effects::new();
        for i in 0..5 {
            w.on_message(server(i), w_ack(1), &mut eff);
        }
        let (_, _, completion) = eff.into_parts();
        let c = completion.expect("completion");
        assert_eq!((c.rounds, c.fast), (2, false));
        assert!(w.is_idle());
    }

    #[test]
    fn frozen_set_rides_this_writes_w_round() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::from_u64(7), &mut eff);
        let nr = |tsr: u64| vec![NewRead { reader: ReaderId(0), tsr: ReadSeq(tsr) }];
        let mut eff = Effects::new();
        for i in 0..5 {
            w.on_message(server(i), pw_ack(1, nr(3)), &mut eff);
        }
        let (sends, _, _) = eff.into_parts();
        match &sends[0].1 {
            Message::Write(wm) => {
                assert_eq!(wm.round, 2);
                assert_eq!(wm.frozen.len(), 1);
                assert_eq!(wm.frozen[0].tsr, ReadSeq(3));
                // Frozen pair is *this* write's pair, not the previous one.
                assert_eq!(wm.frozen[0].pw, TsVal::new(Seq(1), Value::from_u64(7)));
            }
            other => panic!("expected Write, got {other:?}"),
        }
        assert_eq!(w.read_ts_for(ReaderId(0)), ReadSeq(3));
    }

    #[test]
    fn pw_acks_with_wrong_ts_are_invalid() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::from_u64(7), &mut eff);
        let mut eff = Effects::new();
        for i in 0..5 {
            w.on_message(server(i), pw_ack(9, vec![]), &mut eff);
        }
        assert!(eff.is_empty());
        assert!(!w.is_idle());
    }

    #[test]
    fn duplicate_acks_count_once() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::from_u64(7), &mut eff);
        let mut eff = Effects::new();
        for _ in 0..10 {
            w.on_message(server(0), pw_ack(1, vec![]), &mut eff);
        }
        assert!(eff.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a valid WRITE input")]
    fn bot_rejected() {
        let mut w = writer();
        let mut eff = Effects::new();
        w.invoke(Value::Bot, &mut eff);
    }
}
