//! Wire-message batching policy.
//!
//! Both runtimes amortize per-message overhead by coalescing protocol
//! messages bound for one destination into a single [`Message::Batch`]
//! wire message: the simulator delivers a batch as one schedulable event,
//! and the threaded runtime's router coalesces traffic per destination
//! socket-slot. [`BatchConfig`] is the shared knob set; batching is
//! **off by default**, in which case the wire traffic is identical to a
//! build without the batching layer.
//!
//! [`Message::Batch`]: crate::Message::Batch

use crate::{Message, ProcessId};

/// When and how aggressively to coalesce messages into batches.
///
/// Messages that become ready together are merged by
/// [`BatchConfig::coalesce`]: at most `max_msgs` parts per batch. The
/// threaded runtime's router may also hold a message back for
/// co-travellers, up to `max_delay_micros`; `max_delay_micros = 0`
/// sends on every scheduling opportunity (batching still groups
/// messages that become ready together, but never *waits* for more).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchConfig {
    /// Master switch. Disabled means no `Batch` envelope is ever created
    /// and the wire traffic is byte-identical to the unbatched protocol.
    pub enabled: bool,
    /// Most parts a single batch may carry (≥ 1).
    pub max_msgs: usize,
    /// Longest a staged message may wait for co-travellers before its
    /// batch is flushed, in microseconds.
    ///
    /// A wall-clock knob for the threaded runtime's router. The
    /// simulator ignores it: virtual time makes waiting free, so the sim
    /// coalesces exactly the messages that become ready together (one
    /// step's same-destination sends, a released link's backlog).
    pub max_delay_micros: u64,
}

impl BatchConfig {
    /// Batching off: the pre-batching wire behaviour, byte for byte.
    pub fn disabled() -> BatchConfig {
        BatchConfig { enabled: false, max_msgs: 1, max_delay_micros: 0 }
    }

    /// Batching on, flushing at `max_msgs` parts (and never holding a
    /// message back waiting for more).
    ///
    /// # Panics
    ///
    /// Panics if `max_msgs` is zero — a batch carries at least one part.
    pub fn enabled(max_msgs: usize) -> BatchConfig {
        assert!(max_msgs >= 1, "a batch carries at least one message");
        BatchConfig { enabled: true, max_msgs, max_delay_micros: 0 }
    }

    /// Replace the flush delay (chainable).
    #[must_use]
    pub fn with_max_delay_micros(mut self, micros: u64) -> BatchConfig {
        self.max_delay_micros = micros;
        self
    }

    /// Merge `sends` per destination into wire messages, in place — the
    /// one batching rule every site shares. Each destination's messages
    /// (in order of its first send, parts in send order) are cut into
    /// chunks of at most `max_msgs` *flattened* parts (a message may
    /// itself be a pre-formed batch, and merging flattens); a chunk of
    /// one message stays plain.
    ///
    /// The identity, allocating nothing, when batching is disabled or no
    /// destination repeats — so unbatched traffic is exactly the
    /// protocol's.
    #[inline]
    pub fn coalesce(&self, sends: &mut Vec<(ProcessId, Message)>) {
        let repeats = |i: usize| sends[..i].iter().any(|(seen, _)| *seen == sends[i].0);
        if !self.enabled || !(1..sends.len()).any(repeats) {
            return;
        }
        let mut groups: Vec<(ProcessId, Vec<Message>)> = Vec::new();
        for (to, msg) in sends.drain(..) {
            match groups.iter_mut().find(|(dest, _)| *dest == to) {
                Some((_, msgs)) => msgs.push(msg),
                None => groups.push((to, vec![msg])),
            }
        }
        // A chunk of one message goes as it is; a longer one is merged.
        fn emit(to: ProcessId, chunk: &mut Vec<Message>, sends: &mut Vec<(ProcessId, Message)>) {
            match chunk.len() {
                0 => {}
                1 => sends.push((to, chunk.pop().expect("length checked"))),
                _ => sends.push((to, Message::batch(std::mem::take(chunk)))),
            }
        }
        for (to, msgs) in groups {
            let mut chunk: Vec<Message> = Vec::new();
            let mut chunk_parts = 0;
            for msg in msgs {
                let parts = msg.part_count();
                if !chunk.is_empty() && chunk_parts + parts > self.max_msgs {
                    emit(to, &mut chunk, sends);
                    chunk_parts = 0;
                }
                chunk.push(msg);
                chunk_parts += parts;
                if chunk_parts >= self.max_msgs {
                    emit(to, &mut chunk, sends);
                    chunk_parts = 0;
                }
            }
            emit(to, &mut chunk, sends);
        }
    }
}

impl Default for BatchConfig {
    /// Off — batching is strictly opt-in.
    fn default() -> Self {
        BatchConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReadMsg, ReadSeq, RegisterId, ServerId};

    fn read(reg: u32) -> Message {
        Message::Read(ReadMsg { reg: RegisterId(reg), tsr: ReadSeq(1), rnd: 1 })
    }

    #[test]
    fn coalesce_batches_message_groups_per_destination() {
        let s0 = ProcessId::Server(ServerId(0));
        let s1 = ProcessId::Server(ServerId(1));
        let mut sends = vec![(s0, read(0)), (s1, read(0)), (s0, read(1))];
        BatchConfig::enabled(16).coalesce(&mut sends);
        assert_eq!(sends.len(), 2, "one wire message per destination");
        // s0's two messages merged into a batch, in send order.
        assert_eq!(sends[0].0, s0);
        assert_eq!(sends[0].1.clone().flatten(), vec![read(0), read(1)]);
        // s1's singleton group stays a plain message.
        assert_eq!(sends[1], (s1, read(0)));
    }

    #[test]
    fn coalesce_of_one_message_per_destination_is_verbatim() {
        let distinct: Vec<_> = vec![
            (ProcessId::Server(ServerId(2)), read(0)),
            (ProcessId::Server(ServerId(0)), Message::batch(vec![read(1), read(2), read(3)])),
            (ProcessId::Writer, read(4)),
        ];
        // A cap below a pre-formed batch's part count leaves it whole too.
        let mut sends = distinct.clone();
        BatchConfig::enabled(2).coalesce(&mut sends);
        assert_eq!(sends, distinct);
    }

    #[test]
    fn coalesce_counts_flattened_parts_not_envelopes() {
        let dest = ProcessId::Server(ServerId(0));
        // A pre-formed 3-part batch plus two plain messages with a cap
        // of 4: 3+1 fit in the first envelope, the last goes alone.
        let mut sends = vec![
            (dest, Message::batch(vec![read(0), read(1), read(2)])),
            (dest, read(3)),
            (dest, read(4)),
        ];
        BatchConfig::enabled(4).coalesce(&mut sends);
        let sizes: Vec<usize> = sends.iter().map(|(_, m)| m.part_count()).collect();
        assert_eq!(sizes, vec![4, 1], "the bound is on flattened parts, not envelopes");
    }

    #[test]
    fn disabled_coalesce_is_the_identity() {
        let dest = ProcessId::Server(ServerId(0));
        let repeated = vec![(dest, read(0)), (dest, read(1))];
        let mut sends = repeated.clone();
        BatchConfig::disabled().coalesce(&mut sends);
        assert_eq!(sends, repeated);
    }

    #[test]
    fn default_is_disabled() {
        assert_eq!(BatchConfig::default(), BatchConfig::disabled());
        assert!(!BatchConfig::default().enabled);
    }

    #[test]
    fn enabled_sets_the_size_bound() {
        let cfg = BatchConfig::enabled(16).with_max_delay_micros(250);
        assert!(cfg.enabled);
        assert_eq!(cfg.max_msgs, 16);
        assert_eq!(cfg.max_delay_micros, 250);
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn zero_sized_batches_are_rejected() {
        let _ = BatchConfig::enabled(0);
    }
}
