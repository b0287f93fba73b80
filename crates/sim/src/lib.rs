//! # lucky-sim
//!
//! A deterministic discrete-event simulator for message-passing protocols.
//!
//! The paper's system model (§2) is an asynchronous network of automata
//! exchanging messages over reliable point-to-point channels, observed by a
//! global clock no process can read. This crate implements exactly that
//! model:
//!
//! * processes are [`Automaton`]s — *sans-io* state machines reacting to
//!   invocations, messages and timers by emitting [`Effects`];
//! * the [`World`] owns the virtual clock and an event queue ordered by
//!   `(time, seq)`: the earliest instant first, and events due at one
//!   instant in the order they were scheduled, so runs are bit-for-bit
//!   reproducible from a seed;
//! * every invocation is recorded in the world's
//!   [`History`](lucky_types::History), and the operation id `OpId(n)`
//!   is always `history().ops[n]`;
//! * the [`NetworkModel`] assigns per-link delivery delays
//!   (constant or uniform), letting experiments dial synchrony up or down;
//! * **link gates** hold messages "in transit" indefinitely — the exact
//!   tool needed to script the indistinguishability runs of the paper's
//!   Figs 4 and 5 (`r1 … r5`);
//! * crash faults are scheduled points in time; Byzantine faults are just
//!   different `Automaton` implementations installed at a server's id.
//!
//! Processes exchange the protocols' [`Message`](lucky_types::Message),
//! so a simulated run carries exactly the messages the wire codec
//! encodes, and its byte counts are codec bytes.
//!
//! ```
//! use lucky_sim::{Automaton, Effects, NetworkModel, World};
//! use lucky_types::{Message, Op, ProcessId, ReadMsg, ReadSeq, RegisterId, ServerId, Time, Value};
//!
//! /// A server that echoes every message back to its sender.
//! struct Echo;
//! impl Automaton for Echo {
//!     fn on_message(&mut self, _now: Time, from: ProcessId, msg: Message, eff: &mut Effects) {
//!         eff.send(from, msg);
//!     }
//! }
//!
//! /// A client that sends one probe and completes on the reply.
//! struct Probe;
//! impl Automaton for Probe {
//!     fn on_invoke(&mut self, _now: Time, _op: Op, eff: &mut Effects) {
//!         let probe = ReadMsg { reg: RegisterId::DEFAULT, tsr: ReadSeq(1), rnd: 1 };
//!         eff.send(ProcessId::Server(ServerId(0)), Message::Read(probe));
//!     }
//!     fn on_message(&mut self, _now: Time, _from: ProcessId, msg: Message, eff: &mut Effects) {
//!         assert_eq!(msg.kind(), "READ");
//!         eff.complete(None, 1, true);
//!     }
//! }
//!
//! let mut world = World::new(NetworkModel::constant(100), 7);
//! world.add_process(ProcessId::Server(ServerId(0)), Box::new(Echo));
//! world.add_process(ProcessId::Writer, Box::new(Probe));
//! let op = world.invoke(ProcessId::Writer, Op::Write(Value::from_u64(0)));
//! let record = world.run_until_complete(op).unwrap();
//! assert_eq!(record.latency(), Some(200)); // one round trip at 100µs/hop
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod automaton;
mod network;
mod world;

pub use automaton::{Automaton, Completion, Effects, TimerId};
pub use network::{Delay, NetworkModel};
pub use world::{RunError, TraceEntry, World};
