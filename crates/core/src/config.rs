//! Protocol configuration knobs.

/// Tunables shared by all protocol cores.
///
/// The defaults implement the paper exactly; the switches exist for the
/// ablation experiments (see DESIGN.md §3):
///
/// * `fast_writes = false` removes Fig. 1 line 8 — every WRITE runs its W
///   phase (the *slow-only* baseline);
/// * `fast_reads = false` removes the Fig. 2 line 21 short-circuit — every
///   READ writes back;
/// * `freezing = false` removes `freezevalues()` — demonstrating the
///   reader starvation that Theorem 2's freezing mechanism prevents;
/// * `max_read_rounds` bounds a READ's round loop: on exceeding it the
///   reader stops issuing rounds and the operation silently never
///   completes (useful to keep starvation experiments finite).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProtocolConfig {
    /// Round-1 timer for both the writer's PW phase and the reader's first
    /// round, in microseconds. Per §2.3 this should be at least one
    /// round-trip under the synchrony bound: `2δ` plus a margin. A READ
    /// waits it out; a WRITE only does while its PW acks leave the
    /// outcome undecided (see [`crate::engine::WriteEngine`]).
    pub timer_micros: u64,
    /// Enable the one-round fast WRITE path (Fig. 1 line 8).
    pub fast_writes: bool,
    /// Enable the no-write-back fast READ path (Fig. 2 line 21).
    pub fast_reads: bool,
    /// Enable the freezing mechanism (Fig. 1 lines 13–15).
    pub freezing: bool,
    /// Optional cap on READ rounds (see type-level docs).
    pub max_read_rounds: Option<u32>,
    /// Override the reader's `fastpw` threshold (default: the paper's
    /// `2b + t + 1`). The bound-violation experiment T2 installs the
    /// *naive generalization* `S − fw − fr` here to demonstrate why
    /// `fw + fr > t − b` is impossible (Proposition 2). Never set this in
    /// production configurations.
    pub fastpw_override: Option<usize>,
}

impl ProtocolConfig {
    /// Paper-faithful configuration with round-1 timers sized for the
    /// given synchrony bound `delta_micros` (one-way message bound δ).
    pub fn for_sync_bound(delta_micros: u64) -> ProtocolConfig {
        ProtocolConfig {
            timer_micros: 2 * delta_micros + 1,
            fast_writes: true,
            fast_reads: true,
            freezing: true,
            max_read_rounds: None,
            fastpw_override: None,
        }
    }

    /// The *slow-only* ablation: both fast paths disabled — the paper's
    /// own algorithm as a baseline that needs no code of its own, beside
    /// ABD ([`crate::abd`]). Every WRITE runs its W phase (3 rounds in
    /// the atomic variant) and every READ writes back (4 rounds).
    pub fn slow_only(delta_micros: u64) -> ProtocolConfig {
        ProtocolConfig {
            fast_writes: false,
            fast_reads: false,
            ..ProtocolConfig::for_sync_bound(delta_micros)
        }
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::for_sync_bound(1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_bound_sizes_timer_to_round_trip() {
        let cfg = ProtocolConfig::for_sync_bound(500);
        assert_eq!(cfg.timer_micros, 1_001);
        assert!(cfg.fast_writes && cfg.fast_reads && cfg.freezing);
        assert_eq!(cfg.max_read_rounds, None);
    }

    #[test]
    fn slow_only_disables_both_fast_paths() {
        let cfg = ProtocolConfig::slow_only(500);
        assert!(!cfg.fast_writes);
        assert!(!cfg.fast_reads);
        assert!(cfg.freezing);
    }

    #[test]
    fn default_is_paper_faithful() {
        let cfg = ProtocolConfig::default();
        assert!(cfg.fast_writes && cfg.fast_reads && cfg.freezing);
    }
}
