//! Resilience parameters and derived quorum thresholds.
//!
//! Every numeric threshold the protocols use lives here, in one audited
//! place, expressed exactly as in the paper:
//!
//! * `S = 2t + b + 1` servers (optimal resilience, [21] in the paper),
//! * quorum `S − t` awaited in every round,
//! * fast-WRITE needs `S − fw` PW acks (Fig. 1 line 8),
//! * `fastpw` needs `S − fw − fr` (= `2b + t + 1` when `fw + fr = t − b`)
//!   matching `pw` replies (Fig. 2 line 5),
//! * `safe`/`safeFrozen`/`fastvw` need `b + 1` (Fig. 2 lines 3, 4, 6),
//! * `invalidw` needs `S − t`, `invalidpw` needs `S − b − t`
//!   (Fig. 2 lines 8, 9).

use std::fmt;

/// Error returned when resilience parameters are inconsistent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParamsError {
    /// `b` exceeds `t`: more malicious servers than total failures.
    ByzantineExceedsTotal {
        /// Requested `t`.
        t: usize,
        /// Requested `b`.
        b: usize,
    },
    /// `fw` or `fr` exceeds `t`.
    FastThresholdExceedsTotal {
        /// Requested `t`.
        t: usize,
        /// Requested `fw`.
        fw: usize,
        /// Requested `fr`.
        fr: usize,
    },
    /// `fw + fr` exceeds `t − b` — the paper's tight bound (Proposition 2).
    BeyondTightBound {
        /// Requested `t`.
        t: usize,
        /// Requested `b`.
        b: usize,
        /// Requested `fw`.
        fw: usize,
        /// Requested `fr`.
        fr: usize,
    },
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::ByzantineExceedsTotal { t, b } => {
                write!(f, "b = {b} malicious servers exceed t = {t} total failures")
            }
            ParamsError::FastThresholdExceedsTotal { t, fw, fr } => {
                write!(f, "fast thresholds fw = {fw}, fr = {fr} must each be at most t = {t}")
            }
            ParamsError::BeyondTightBound { t, b, fw, fr } => write!(
                f,
                "fw + fr = {} exceeds t - b = {} (Proposition 2: \
                 fw + fr <= t - b is a tight bound)",
                fw + fr,
                t.saturating_sub(*b)
            ),
        }
    }
}

impl std::error::Error for ParamsError {}

/// Resilience parameters of an optimally-resilient lucky storage instance:
/// `t` total failures, `b ≤ t` of them possibly malicious, and the fast
/// thresholds `fw` (failures a fast lucky WRITE survives) and `fr`
/// (failures a fast lucky READ survives).
///
/// # Examples
///
/// ```
/// use lucky_types::Params;
/// let p = Params::new(2, 1, 1, 0).unwrap();
/// assert_eq!(p.server_count(), 6);
/// assert_eq!(p.fastpw_threshold(), 5); // 2b + t + 1
/// assert!(Params::new(2, 1, 1, 1).is_err()); // fw + fr > t - b
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Params {
    t: usize,
    b: usize,
    fw: usize,
    fr: usize,
}

impl Params {
    /// Create parameters, validating `b ≤ t`, `fw, fr ≤ t` and the tight
    /// bound `fw + fr ≤ t − b`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the violated constraint.
    pub fn new(t: usize, b: usize, fw: usize, fr: usize) -> Result<Params, ParamsError> {
        if b > t {
            return Err(ParamsError::ByzantineExceedsTotal { t, b });
        }
        if fw > t || fr > t {
            return Err(ParamsError::FastThresholdExceedsTotal { t, fw, fr });
        }
        if fw + fr > t - b {
            return Err(ParamsError::BeyondTightBound { t, b, fw, fr });
        }
        Ok(Params { t, b, fw, fr })
    }

    /// Create parameters **without** the tight-bound check (`fw + fr` may
    /// exceed `t − b`, and `fr` may be as large as `t`).
    ///
    /// Two legitimate uses:
    /// * the *trading reads* configuration of Appendix A
    ///   (`fw = t − b`, `fr = t`) and the regular variant of Appendix D,
    ///   whose guarantees are weaker than "every lucky read is fast";
    /// * the bound-violation experiments (T2/T5 in DESIGN.md), which
    ///   deliberately configure an unachievable pair and demonstrate the
    ///   resulting atomicity violation.
    ///
    /// `b ≤ t` and `fw, fr ≤ t` are still enforced (they are model
    /// constraints, not protocol choices).
    ///
    /// # Panics
    ///
    /// Panics if `b > t`, `fw > t` or `fr > t`.
    pub fn new_unchecked(t: usize, b: usize, fw: usize, fr: usize) -> Params {
        assert!(b <= t, "b = {b} must be at most t = {t}");
        assert!(fw <= t && fr <= t, "fw, fr must be at most t");
        Params { t, b, fw, fr }
    }

    /// The Appendix A configuration: `fw = t − b`, `fr = t`. Every lucky
    /// WRITE is fast despite `t − b` failures and at most one lucky READ
    /// per consecutive sequence is slow regardless of failures.
    pub fn trading_reads(t: usize, b: usize) -> Result<Params, ParamsError> {
        if b > t {
            return Err(ParamsError::ByzantineExceedsTotal { t, b });
        }
        Ok(Params { t, b, fw: t - b, fr: t })
    }

    /// Maximum number of faulty servers `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Maximum number of malicious servers `b`.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Failures a fast lucky WRITE tolerates.
    pub fn fw(&self) -> usize {
        self.fw
    }

    /// Failures a fast lucky READ tolerates.
    pub fn fr(&self) -> usize {
        self.fr
    }

    /// Total number of servers `S = 2t + b + 1` (optimal resilience).
    pub fn server_count(&self) -> usize {
        2 * self.t + self.b + 1
    }

    /// Round quorum `S − t`: replies awaited in every round.
    pub fn quorum(&self) -> usize {
        self.server_count() - self.t
    }

    /// `S − fw`: PW acks for a WRITE to complete fast (Fig. 1 line 8).
    pub fn fast_write_acks(&self) -> usize {
        self.server_count() - self.fw
    }

    /// `b + 1`: matching replies for `safe`, `safeFrozen` and `fastvw`.
    pub fn safe_threshold(&self) -> usize {
        self.b + 1
    }

    /// `2b + t + 1` matching `pw` replies for `fastpw` (Fig. 2 line 5).
    ///
    /// Note this constant does **not** depend on `fw`/`fr`: the reader's
    /// code is identical across all threshold splits (only the writer's
    /// fast-ack count uses `fw`), which is what lets the very same
    /// algorithm serve the Appendix A configuration `fw = t − b, fr = t`.
    /// When `fw + fr = t − b` it coincides with `S − fw − fr`, the number
    /// of matching replies a lucky round-1 READ is guaranteed to collect.
    pub fn fastpw_threshold(&self) -> usize {
        2 * self.b + self.t + 1
    }

    /// `S − fw − fr`: the matching replies a lucky round-1 READ can count
    /// on when `fw` write-side and `fr` read-side failures are assumed.
    /// A hypothetical algorithm promising fast lucky reads despite `fr`
    /// failures must accept this many confirmations — the bound-violation
    /// experiments (T2) install it via
    /// `ProtocolConfig::fastpw_override` to demonstrate Proposition 2.
    pub fn naive_fastpw_threshold(&self) -> usize {
        self.server_count() - self.fw - self.fr
    }

    /// `S − t` responses with only-older pairs for `invalidw`.
    pub fn invalidw_threshold(&self) -> usize {
        self.server_count() - self.t
    }

    /// `S − b − t` `pw` responses with only-older pairs for `invalidpw`.
    pub fn invalidpw_threshold(&self) -> usize {
        self.server_count() - self.b - self.t
    }

    /// `true` iff the configuration satisfies the paper's tight bound
    /// `fw + fr ≤ t − b` (always true for values from [`Params::new`]).
    pub fn within_tight_bound(&self) -> bool {
        self.fw + self.fr <= self.t - self.b
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} b={} fw={} fr={} (S={})",
            self.t,
            self.b,
            self.fw,
            self.fr,
            self.server_count()
        )
    }
}

/// Parameters of the two-round-write variant (Appendix C):
/// `S = 2t + b + min(b, fr) + 1` servers, every WRITE exactly two rounds,
/// every lucky READ fast despite `fr` failures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TwoRoundParams {
    t: usize,
    b: usize,
    fr: usize,
    extra: usize,
}

impl TwoRoundParams {
    /// Create two-round parameters; `b ≤ t` and `fr ≤ t` are required.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] when `b > t` or `fr > t`.
    pub fn new(t: usize, b: usize, fr: usize) -> Result<TwoRoundParams, ParamsError> {
        if b > t {
            return Err(ParamsError::ByzantineExceedsTotal { t, b });
        }
        if fr > t {
            return Err(ParamsError::FastThresholdExceedsTotal { t, fw: 0, fr });
        }
        Ok(TwoRoundParams { t, b, fr, extra: 0 })
    }

    /// Like [`TwoRoundParams::new`] but with `shortfall` servers *removed*
    /// from the Appendix C lower bound `2t + b + min(b, fr) + 1`; used by
    /// the T6 experiment to demonstrate that the bound is tight.
    ///
    /// # Panics
    ///
    /// Panics if the shortfall would leave fewer than `2t + b + 1` servers
    /// (below optimal resilience nothing is implementable at all).
    pub fn with_shortfall(t: usize, b: usize, fr: usize, shortfall: usize) -> TwoRoundParams {
        let full = 2 * t + b + b.min(fr) + 1;
        assert!(
            full - shortfall > 2 * t + b,
            "shortfall {shortfall} drops below optimal resilience"
        );
        TwoRoundParams { t, b, fr, extra: shortfall }
    }

    /// Maximum number of faulty servers `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Maximum number of malicious servers `b`.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Failures a fast lucky READ tolerates.
    pub fn fr(&self) -> usize {
        self.fr
    }

    /// Total servers `S = 2t + b + min(b, fr) + 1 − shortfall`.
    pub fn server_count(&self) -> usize {
        2 * self.t + self.b + self.b.min(self.fr) + 1 - self.extra
    }

    /// Round quorum `S − t`.
    pub fn quorum(&self) -> usize {
        self.server_count() - self.t
    }

    /// `b + 1`: `safe` / `safeFrozen` threshold (Fig. 7 lines 3–4).
    pub fn safe_threshold(&self) -> usize {
        self.b + 1
    }

    /// `S − t − fr` matching `w` replies for `fast` (Fig. 7 line 5).
    pub fn fast_threshold(&self) -> usize {
        self.server_count() - self.t - self.fr
    }

    /// `S − t` for `invalidw` (Fig. 7 line 6).
    pub fn invalidw_threshold(&self) -> usize {
        self.server_count() - self.t
    }

    /// `S − b − t` for `invalidpw` (Fig. 7 line 7).
    pub fn invalidpw_threshold(&self) -> usize {
        self.server_count() - self.b - self.t
    }
}

impl fmt::Display for TwoRoundParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} b={} fr={} (S={})", self.t, self.b, self.fr, self.server_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_resilience_server_count() {
        let p = Params::new(2, 1, 1, 0).unwrap();
        assert_eq!(p.server_count(), 6);
        let p = Params::new(1, 0, 1, 0).unwrap();
        assert_eq!(p.server_count(), 3);
        let p = Params::new(3, 2, 0, 1).unwrap();
        assert_eq!(p.server_count(), 9);
    }

    #[test]
    fn rejects_b_above_t() {
        assert_eq!(Params::new(1, 2, 0, 0), Err(ParamsError::ByzantineExceedsTotal { t: 1, b: 2 }));
    }

    #[test]
    fn rejects_fw_fr_above_t() {
        assert!(matches!(
            Params::new(1, 0, 2, 0),
            Err(ParamsError::FastThresholdExceedsTotal { .. })
        ));
        assert!(matches!(
            Params::new(1, 0, 0, 2),
            Err(ParamsError::FastThresholdExceedsTotal { .. })
        ));
    }

    #[test]
    fn rejects_beyond_tight_bound() {
        // t - b = 1, fw + fr = 2.
        assert!(matches!(Params::new(2, 1, 1, 1), Err(ParamsError::BeyondTightBound { .. })));
        // b = t forces fw = fr = 0.
        assert!(matches!(Params::new(2, 2, 1, 0), Err(ParamsError::BeyondTightBound { .. })));
        assert!(Params::new(2, 2, 0, 0).is_ok());
    }

    #[test]
    fn unchecked_allows_broken_configs_but_not_model_violations() {
        let p = Params::new_unchecked(2, 1, 1, 1);
        assert!(!p.within_tight_bound());
        assert_eq!(p.server_count(), 6);
    }

    #[test]
    #[should_panic(expected = "must be at most t")]
    fn unchecked_still_rejects_b_above_t() {
        let _ = Params::new_unchecked(1, 2, 0, 0);
    }

    #[test]
    fn fastpw_matches_naive_formula_exactly_on_the_bound() {
        // When fw + fr = t - b the paper constant 2b + t + 1 coincides
        // with the guaranteed reply count S - fw - fr.
        for (t, b) in [(1usize, 0usize), (2, 1), (3, 1), (4, 2)] {
            for fw in 0..=(t - b) {
                let fr = t - b - fw;
                let p = Params::new(t, b, fw, fr).unwrap();
                assert_eq!(p.fastpw_threshold(), 2 * b + t + 1, "t={t} b={b} fw={fw}");
                assert_eq!(p.naive_fastpw_threshold(), p.fastpw_threshold());
            }
        }
        // Beyond the bound the naive formula under-shoots the safe value —
        // which is exactly the unsoundness Proposition 2 exposes.
        let broken = Params::new_unchecked(2, 1, 1, 1);
        assert!(broken.naive_fastpw_threshold() < broken.fastpw_threshold());
        // And in the Appendix A configuration it would over-shoot in the
        // other direction; the algorithm keeps using 2b + t + 1.
        let trading = Params::trading_reads(2, 1).unwrap();
        assert_eq!(trading.fastpw_threshold(), 5);
        assert!(trading.naive_fastpw_threshold() < trading.fastpw_threshold());
    }

    #[test]
    fn quorum_and_invalid_thresholds() {
        let p = Params::new(2, 1, 0, 1).unwrap();
        // S = 6, quorum = 4, invalidw = 4, invalidpw = 3, safe = 2.
        assert_eq!(p.quorum(), 4);
        assert_eq!(p.invalidw_threshold(), 4);
        assert_eq!(p.invalidpw_threshold(), 3);
        assert_eq!(p.safe_threshold(), 2);
        assert_eq!(p.fast_write_acks(), 6);
    }

    #[test]
    fn trading_reads_config() {
        let p = Params::trading_reads(3, 1).unwrap();
        assert_eq!(p.fw(), 2);
        assert_eq!(p.fr(), 3);
        assert!(!p.within_tight_bound()); // fw + fr = 5 > t - b = 2
        assert_eq!(p.server_count(), 8);
    }

    #[test]
    fn two_round_server_count_uses_min() {
        // b = 1, fr = 2 -> min = 1 -> S = 2t + b + 1 + 1.
        let p = TwoRoundParams::new(2, 1, 2).unwrap();
        assert_eq!(p.server_count(), 7);
        // b = 2, fr = 1 -> min = 1.
        let p = TwoRoundParams::new(3, 2, 1).unwrap();
        assert_eq!(p.server_count(), 10);
        // fr = 0 -> optimal resilience, no extra server.
        let p = TwoRoundParams::new(2, 1, 0).unwrap();
        assert_eq!(p.server_count(), 6);
    }

    #[test]
    fn two_round_fast_threshold() {
        let p = TwoRoundParams::new(2, 1, 1).unwrap();
        // S = 7, fast = S - t - fr = 4.
        assert_eq!(p.fast_threshold(), 4);
        assert_eq!(p.quorum(), 5);
    }

    #[test]
    fn two_round_shortfall_removes_servers() {
        let full = TwoRoundParams::new(2, 1, 1).unwrap();
        let short = TwoRoundParams::with_shortfall(2, 1, 1, 1);
        assert_eq!(short.server_count(), full.server_count() - 1);
    }

    #[test]
    #[should_panic(expected = "below optimal resilience")]
    fn two_round_shortfall_cannot_drop_below_optimal() {
        let _ = TwoRoundParams::with_shortfall(2, 1, 1, 2);
    }

    #[test]
    fn display_is_informative() {
        let p = Params::new(2, 1, 1, 0).unwrap();
        assert_eq!(p.to_string(), "t=2 b=1 fw=1 fr=0 (S=6)");
        let q = TwoRoundParams::new(2, 1, 1).unwrap();
        assert_eq!(q.to_string(), "t=2 b=1 fr=1 (S=7)");
    }

    #[test]
    fn error_display_mentions_proposition() {
        let e = Params::new(2, 1, 1, 1).unwrap_err();
        assert!(e.to_string().contains("Proposition 2"));
    }
}
