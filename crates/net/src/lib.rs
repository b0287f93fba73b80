//! # lucky-net
//!
//! A thread-based, wall-clock runtime for the lucky storage protocols.
//!
//! The same sans-io cores that run under the deterministic simulator run
//! here over real threads and loopback sockets: every server is one
//! thread, a router thread injects configurable per-message latency,
//! and shard worker threads drive the writer/reader cores on behalf of the
//! register handles the caller holds, whose `write`/`read` calls block
//! (tickets and futures do not). This is the runtime the
//! `replicated_config_store` example uses to demonstrate the library
//! outside the simulator.
//!
//! The runtime is **variant-generic**: stores are built from the same
//! `Setup` enum the simulator uses, and every process comes out of the
//! `Setup` factories in `lucky-core`, which in turn instantiate the
//! shared round-engine kernel (`lucky_core::engine`) with the chosen
//! variant's policy. The atomic (§3), two-round (App. C) and regular
//! (App. D) algorithms therefore all run on real threads with no
//! variant-specific code in this crate:
//!
//! ```
//! use lucky_net::{NetConfig, NetStore};
//! use lucky_types::{RegisterId, TwoRoundParams, Value};
//!
//! let params = TwoRoundParams::new(1, 0, 1).unwrap();
//! let mut store = NetStore::builder(params, NetConfig::default()).build();
//! let register = store.register(RegisterId(0)).expect("register handle");
//! let w = register.write(Value::from_u64(1)).unwrap();
//! assert_eq!((w.rounds, w.fast), (2, false)); // App. C: always two rounds
//! store.shutdown();
//! ```
//!
//! A store built without `.registers(n)` serves the paper's single
//! register: one writer, `readers_per_register` readers. The handle
//! takes `&self`, so one thread can write while others read:
//!
//! ```
//! use lucky_net::{NetConfig, NetStore};
//! use lucky_types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::new(1, 0, 1, 0)?;
//! let mut store = NetStore::builder(params, NetConfig::default()).build();
//! let register = store.register(RegisterId(0))?;
//!
//! std::thread::scope(|s| {
//!     s.spawn(|| register.write(Value::from_u64(42)).expect("write"));
//!     s.spawn(|| register.read(0).expect("read")); // ⊥ or 42, never a phantom
//! });
//! assert_eq!(register.read(0)?.value.as_u64(), Some(42));
//! store.check_atomicity()?;
//! store.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! ## Multi-register stores
//!
//! [`NetStore`] serves a whole namespace of independent registers over
//! one server cluster: every server thread multiplexes per-register
//! state, and client cores are **sharded across worker threads by
//! register** so independent registers proceed concurrently over the
//! shared router. Router statistics are broken down per register and
//! per destination server.
//!
//! ## Drivers
//!
//! Client cores are wrapped in `lucky-core`'s sans-io `ClientSession`
//! (the poll-based op lifecycle with the per-operation deadline built
//! in). Each shard worker multiplexes **all** of its sessions on one
//! thread, in one loop — drain jobs, feed input, fire due timers,
//! advance, wait — and accepts and reads its own socket with
//! `lucky-wire`'s push-based `FrameDecoder`. So does a server: there is
//! one receive path, and a thread that owns a socket waits for it one of
//! two ways:
//!
//! * [`Driver::Reactor`] — a real `epoll` instance (Linux): the thread
//!   sleeps in `epoll_wait` (a worker with its sessions' `next_wake`
//!   armed on a timerfd) and wakes only for actual IO, a timer, or a job
//!   submission or server command (signalled via `eventfd`) — so one
//!   thread drives thousands of concurrent in-flight sessions and an
//!   idle store burns zero CPU;
//! * [`Driver::Polled`] — sleep-capped polling: after at most a 500 µs
//!   tick the thread re-polls its sockets. The portable fallback, used
//!   off Linux and by any thread that cannot get an epoll set or an
//!   eventfd; the tick is paid once per hop.
//!
//! The store picks the reactor on Linux and polling otherwise, so the
//! builder method `driver` is only for pinning one (benchmarks, the
//! equivalence tests).
//! `tests/driver_equivalence.rs` proves the two observably
//! interchangeable, `tests/reactor.rs` pins the concurrency and
//! idle-CPU properties, and `tests/thread_budget.rs` the thread count
//! (servers + router + workers, nothing in between).
//!
//! ## Futures
//!
//! On top of the ticket API, [`NetRegisterHandle::write_future`] /
//! [`read_future`](NetRegisterHandle::read_future) (and their `async
//! fn` sugar [`write_async`](NetRegisterHandle::write_async) /
//! [`read_async`](NetRegisterHandle::read_async)) return real
//! [`OpFuture`]s: the op is submitted immediately, and the shard worker
//! settles it into the one cell its ticket and future both read, waking
//! the task whose poll found the cell empty. Any executor works; the
//! std-only batteries in [`exec`] ([`exec::block_on`],
//! [`exec::Executor`], [`exec::run_all`]) are enough to hold thousands
//! of operations in flight from one caller thread.
//!
//! ## Transport
//!
//! Every server and every shard worker owns a real `std::net` loopback
//! socket ([`Transport::Tcp`], the only transport): each wire message is
//! encoded by `lucky-wire`, framed with a checksum, written to the
//! destination slot's socket and reassembled from partial reads by the
//! thread that owns it. The frames that fall due in one router pass
//! leave in **one `write` per destination** (no hold-back: a lone frame
//! is written at once), so under load a message costs its bytes, not a
//! syscall and a wake-up of its receiver — [`NetStats::socket_writes`]
//! against [`NetStats::messages`] is the ratio achieved.
//! [`NetStats::wire_bytes`] reports the true framed byte count (strictly
//! above the codec-exact payload accounting in `bytes`),
//! [`NetStats::decode_errors`] counts rejected hostile frames, and
//! `server_addr` exposes each server's listener for adversarial
//! harnesses that talk raw bytes. The builders' `transport` setters are
//! inert; they remain for callers that still name the transport.
//!
//! ## Batching
//!
//! With an enabled `BatchConfig` (builder method `batch`), the router
//! coalesces messages bound for the same destination socket-slot — a
//! server, or the shard worker hosting a group of client cores — into
//! single `Message::Batch` wire messages (up to `max_msgs` parts,
//! waiting at most `max_delay_micros` for co-travellers), and servers
//! re-batch their acks per sender. [`NetStats`] reports the economics:
//! `messages` counts wire messages (a batch once), `parts` the protocol
//! messages carried, `batches_sent`/`msgs_per_batch` the coalescing
//! achieved. Batching is off by default, in which case the wire traffic
//! is identical to the pre-batching runtime.
//!
//! ```
//! use lucky_net::{NetConfig, NetStore};
//! use lucky_types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::new(1, 0, 1, 0)?;
//! let mut store = NetStore::builder(params, NetConfig::default()).registers(3).build();
//!
//! let h2 = store.register(RegisterId(2))?; // descriptive error if taken/unknown
//! h2.write(Value::from_u64(7))?;
//! assert_eq!(h2.read(0)?.value.as_u64(), Some(7));
//! assert!(store.stats().register(RegisterId(2)).messages > 0);
//! store.check_atomicity()?; // per-register linearizability oracle
//! store.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
pub mod exec;
mod oplog;
mod polled;
mod reactor;
mod router;
mod settle;
mod store;
mod tcp;

pub use cluster::{HandleError, NetConfig, NetError, NetOutcome};
pub use polled::Driver;
pub use router::{GroupStats, NetStats, RegisterStats, ServerStats};
pub use store::{NetRegisterHandle, NetStore, NetStoreBuilder, OpFuture, OpTicket};
pub use tcp::Transport;
