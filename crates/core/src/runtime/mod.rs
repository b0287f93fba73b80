//! Drivers: the sans-io [`ClientSession`], `lucky-sim` adapters and the
//! [`SimStore`] facade.
//!
//! The protocol cores are sans-io; this module is where they meet an
//! execution substrate. [`ClientCore`]/[`ServerCore`] give every variant a
//! uniform surface; [`Setup`] names a variant and builds its processes;
//! [`ClientSession`] wraps a client core in the poll-based, time-explicit
//! operation lifecycle every runtime drives (begin → deliver/wake inputs →
//! drained outputs → outcome); [`SessionAutomaton`]/[`ServerAutomaton`]
//! lift sessions and server cores into simulator processes;
//! [`RegisterMux`] multiplexes one server process over a namespace of
//! registers; and [`SimStore`] (built from a [`StoreConfig`]) wires a full
//! cluster serving one or many independent registers, drives operations,
//! injects faults and hands the resulting history to the `lucky-checker`
//! oracles. The paper's single register is a one-register store addressed
//! as [`RegisterId::DEFAULT`](lucky_types::RegisterId::DEFAULT).

mod adapters;
mod mux;
mod session;
mod setup;
mod store;

pub use adapters::{ClientCore, ServerAutomaton, ServerCore, SessionAutomaton};
pub use mux::RegisterMux;
pub use session::{
    ClientSession, Input, Output, SessionConfig, SessionError, SessionOutcome, SessionStatus,
};
pub use setup::Setup;
pub use store::{OpOutcome, SimRegister, SimStore, StoreConfig, SYNC_BOUND_MICROS};
