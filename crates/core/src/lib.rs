//! # lucky-core
//!
//! The storage protocols of *Lucky Read/Write Access to Robust Atomic
//! Storage* (Guerraoui, Levy, Vukolić; DSN 2006), implemented as *sans-io*
//! state machines plus the glue to run them on the `lucky-sim` simulator
//! and the `lucky-net` threaded runtime.
//!
//! Three protocol variants, one module per pseudocode figure set, plus
//! the baseline the paper measures them against:
//!
//! * [`atomic`] — the main algorithm (§3, Figs 1–3): optimally-resilient
//!   SWMR **atomic** wait-free storage over `S = 2t + b + 1` servers where
//!   every lucky WRITE is fast despite `fw` failures and every lucky READ
//!   is fast despite `fr` failures, for any `fw + fr = t − b`
//!   (Proposition 1);
//! * [`tworound`] — the Appendix C algorithm (Figs 6–8): WRITEs always
//!   complete in two rounds and lucky READs are fast despite `fr` failures,
//!   over `S = 2t + b + min(b, fr) + 1` servers (Proposition 6);
//! * [`regular`] — the Appendix D variant: **regular** semantics, no
//!   write-back, tolerates malicious readers, `fw = t − b`, `fr = t`
//!   (Proposition 7);
//! * [`abd`] — the crash-only ABD register (§1's comparison point):
//!   `S = 2t + 1`, one-round WRITEs, READs that always write back in a
//!   second round. The other baseline, *slow-only* lucky, is a
//!   [`ProtocolConfig::slow_only`] setting and needs no code.
//!
//! ## Kernel / policy split
//!
//! The four protocols share one **kernel** ([`engine`]): generic
//! READ/WRITE drivers owning ack accumulation keyed by
//! `(timestamp, round)`, stale-ack filtering, the round-1 synchrony
//! timers, write-back and W-round sequencing and the round-cap parking
//! logic, plus the one honest server ([`engine::Server`]) the three lucky
//! variants share. A variant is nothing but its *policies* — thresholds,
//! quorum sizes, round schedule, fast-path predicate and two server
//! switches (`vw` kept? reader write-backs applied?) — and its writer,
//! reader and server types are aliases of the engines over them (e.g.
//! [`atomic::AtomicWriter`] is `WriteEngine<AtomicWritePolicy>`), built
//! by module functions such as [`atomic::writer()`]. ABD keeps its own
//! one-pair server. Every runtime builds its processes through the [`Setup`]
//! factories ([`Setup::make_writer`], [`Setup::make_reader`],
//! [`Setup::make_server`]), so the simulator and the threaded `lucky-net`
//! runtime run all four from the same enum.
//!
//! Supporting modules:
//!
//! * [`engine`] — the shared round-engine kernel described above;
//! * [`predicates`] — the reader's decision predicates (`safe`,
//!   `safeFrozen`, `fastpw`, `fastvw`, `invalidw`, `invalidpw`,
//!   `highCand`), shared by all variants and tested in isolation;
//! * [`byz`] — Byzantine server behaviours (state forging, split-brain
//!   equivocation, value forging, …) used by the bound-violation
//!   experiments and the fault-injection tests;
//! * [`runtime`] — `lucky-sim` adapters and the store facade
//!   ([`StoreConfig`] → [`SimStore`], with [`RegisterMux`] multiplexing
//!   per-register server state so one cluster serves a whole register
//!   namespace; the paper's single register is
//!   [`RegisterId::DEFAULT`](lucky_types::RegisterId::DEFAULT)).
//!
//! ## Example
//!
//! ```
//! use lucky_core::StoreConfig;
//! use lucky_types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::new(2, 1, 1, 0)?; // t=2, b=1, fw=1, fr=0
//! let mut store = StoreConfig::synchronous(params).build_sim();
//! assert!(store.register(RegisterId::DEFAULT).write(Value::from_u64(7)).fast);
//! let read = store.register(RegisterId::DEFAULT).read(0); // reader 0
//! assert_eq!(read.value.as_u64(), Some(7));
//! store.check_atomicity()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod abd;
pub mod atomic;
pub mod byz;
pub mod config;
pub mod engine;
mod freeze;
pub mod predicates;
pub mod regular;
pub mod runtime;
pub mod tworound;
pub mod view;

pub use config::ProtocolConfig;
pub use runtime::{
    ClientSession, OpOutcome, RegisterMux, SessionConfig, SessionError, SessionOutcome,
    SessionStatus, Setup, SimRegister, SimStore, StoreConfig, SYNC_BOUND_MICROS,
};
pub use view::{ServerView, ViewTable};
