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

/// When and how aggressively to coalesce messages into batches.
///
/// A flush happens when either bound is hit: the staging buffer holds
/// `max_msgs` messages, or the oldest staged message has waited
/// `max_delay_micros`. `max_delay_micros = 0` flushes on every
/// scheduling opportunity (batching still groups messages that become
/// ready together, but never *waits* for more).
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
