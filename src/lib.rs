//! # lucky-atomic
//!
//! A complete Rust implementation of the storage protocols from
//! *Lucky Read/Write Access to Robust Atomic Storage*
//! (Rachid Guerraoui, Ron R. Levy, Marko Vukolić — DSN 2006).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — identities, timestamps, values, wire messages, parameters;
//! * [`sim`] — the deterministic discrete-event simulator the protocols are
//!   evaluated on;
//! * [`core`] — the protocol cores (atomic §3, two-round Appendix C,
//!   regular Appendix D, and the crash-only ABD baseline), Byzantine
//!   behaviours and the simulated store ([`core::StoreConfig`] →
//!   [`core::SimStore`]);
//! * [`checker`] — atomicity / regularity / safeness history checkers;
//! * [`wire`] — the hand-rolled binary codec and framing every byte on
//!   the real wire goes through;
//! * [`log`] — the append-only durable per-register backend servers
//!   persist to, with crash-recovery-on-open;
//! * [`net`] — a thread-based real-time runtime for the same cores,
//!   over real loopback TCP sockets;
//! * [`shard`] — consistent-hash server groups, a lazy register
//!   namespace with quotas, and live register migration between groups;
//! * [`trace`] — per-op span tracing, log₂ latency histograms and the
//!   flight recorder behind `SimStore::trace()` / `NetStore::trace()`.
//!
//! ## Quickstart
//!
//! ```
//! use lucky_atomic::core::StoreConfig;
//! use lucky_atomic::types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // t = 2 failures, b = 1 Byzantine; fast writes survive 1 failure.
//! let params = Params::new(2, 1, 1, 0)?;
//! // One register (the paper's), one reader, on a synchronous network.
//! let mut store = StoreConfig::synchronous(params).build_sim();
//! let mut register = store.register(RegisterId::DEFAULT);
//!
//! let w = register.write(Value::from_u64(7));
//! assert!(w.fast, "a lucky write completes in one round-trip");
//!
//! let r = register.read(0); // reader 0
//! assert_eq!(r.value.as_u64(), Some(7));
//! assert!(r.fast, "a lucky read completes in one round-trip");
//! store.check_atomicity()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use lucky_checker as checker;
pub use lucky_core as core;
pub use lucky_explore as explore;
pub use lucky_log as log;
pub use lucky_net as net;
pub use lucky_shard as shard;
pub use lucky_sim as sim;
pub use lucky_trace as trace;
pub use lucky_types as types;
pub use lucky_wire as wire;
