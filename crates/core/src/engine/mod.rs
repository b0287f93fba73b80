//! The shared **round-engine kernel**.
//!
//! The paper's three algorithms — atomic (§3), two-round (App. C) and
//! regular (App. D) — differ only in their decision predicates, round
//! schedules and a few server switches; the round-trip *machinery* is
//! identical: broadcast a round, accumulate distinct server acks keyed by
//! the operation timestamp and round number, filter stale acks from
//! abandoned operations or rounds, gate round 1 on a timer, sequence
//! follow-up write rounds until the schedule is exhausted, and answer
//! every round at the servers. This module implements that machinery
//! once:
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
//!   `freezevalues()` hand-off;
//! * [`Server`] — the server of Fig. 3 / Fig. 8: the `update()` rule,
//!   `tsr_j` tracking, `newread` reports, frozen-slot adoption and the
//!   durable snapshot codec.
//!
//! Each variant contributes a **policy** per role — [`ReadPolicy`],
//! [`WritePolicy`], [`ServerPolicy`] — naming its thresholds, quorum
//! sizes, round schedule, round-1 timers, fast-path predicate and server
//! switches. A variant's writer, reader and server *are* these engines
//! over its policies (its per-variant type names are aliases),
//! so everything that loops, counts or stores lives here once. The
//! policy objects in [`crate::atomic`], [`crate::tworound`],
//! [`crate::regular`] and the ABD baseline [`crate::abd`] are a few
//! lines each; ABD keeps its own one-pair server.
//!
//! [`ViewTable`]: crate::view::ViewTable

mod quorum;
mod read;
mod server;
mod write;

pub use quorum::AckSet;
pub use read::{ReadEngine, ReadPolicy};
pub use server::{Server, ServerPolicy};
pub use write::{WriteEngine, WritePolicy};
