//! The transport a store's router moves wire messages over: loopback TCP.
//!
//! Every destination **socket-slot** — a server, or the shard worker
//! hosting a group of client cores — owns a real `std::net` loopback
//! listener and reads it itself (`crate::polled` is the one receive path
//! for both). The router holds the write half: one persistent
//! `TcpStream` per slot, into which it writes the frames built by
//! `lucky-wire` ([`encode_packet`](lucky_wire::encode_packet)).

/// How the router moves wire messages to their destination slot. There
/// is one way, so naming it changes nothing; the type and the builders'
/// `transport` setters remain only because callers outside the
/// workspace, such as the end-to-end benchmark (`benchmark/`), still
/// name it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Transport {
    /// Real loopback TCP sockets: every wire message is encoded by
    /// `lucky-wire`, framed, written to the destination slot's socket
    /// and reassembled/decoded on the far side. `NetStats::wire_bytes`
    /// reports the true framed byte count.
    #[default]
    Tcp,
}
