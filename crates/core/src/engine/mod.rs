//! The shared **round-engine kernel**.
//!
//! The paper's three algorithms — atomic (§3), two-round (App. C) and
//! regular (App. D) — differ only in their decision predicates and round
//! schedules; the round-trip *machinery* is identical: broadcast a round,
//! accumulate distinct server acks keyed by the operation timestamp and
//! round number, filter stale acks from abandoned operations or rounds,
//! gate round 1 on a timer, and sequence follow-up write rounds until the
//! schedule is exhausted. This module implements that machinery once:
//!
//! * [`AckSet`] — duplicate- and stale-filtering ack accumulation for one
//!   round of one operation;
//! * [`ReadEngine`] — the READ loop of Fig. 2 / Fig. 7: round iteration
//!   over a [`ViewTable`], candidate selection via [`crate::predicates`],
//!   the round-1 fast gate, write-back sequencing and the round-cap
//!   parking used by the starvation experiments;
//! * [`WriteEngine`] — the WRITE of Fig. 1 / Fig. 6: the PW phase (with
//!   or without the synchrony timer, ending as soon as its outcome is
//!   decided), the one-round fast path, the W-round schedule and the
//!   `freezevalues()` hand-off.
//!
//! Each variant contributes a **policy** — [`ReadPolicy`] /
//! [`WritePolicy`] — naming its thresholds, quorum sizes, round schedule,
//! round-1 timers and fast-path predicate. The policy objects in
//! [`crate::atomic`], [`crate::tworound`], [`crate::regular`] and the
//! ABD baseline [`crate::abd`] are a few lines each; everything that loops or counts lives here, so future
//! scaling work (sharding, batching, pipelining) lands once instead of
//! three times.
//!
//! [`ViewTable`]: crate::view::ViewTable

mod quorum;
mod read;
mod write;

pub use quorum::AckSet;
pub use read::{ReadEngine, ReadPolicy};
pub use write::{WriteEngine, WritePolicy};
