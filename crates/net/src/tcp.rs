//! The two transports a store's router can move wire messages over.
//!
//! Under [`Transport::Tcp`] every destination **socket-slot** — a
//! server, or the shard worker hosting a group of client cores — owns a
//! real `std::net` loopback listener and reads it itself (`crate::polled`
//! is the one receive path for both). The router holds the write half:
//! one persistent `TcpStream` per slot, into which it writes the frames
//! built by `lucky-wire` ([`encode_packet`](lucky_wire::encode_packet)).

/// How the router moves wire messages to their destination slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Transport {
    /// In-process channels (the original runtime): zero-copy handoff,
    /// no bytes ever exist. `NetStats::bytes` is the codec-exact
    /// payload estimate; `wire_bytes` stays zero.
    #[default]
    Channel,
    /// Real loopback TCP sockets: every wire message is encoded by
    /// `lucky-wire`, framed, written to the destination slot's socket
    /// and reassembled/decoded on the far side. `NetStats::wire_bytes`
    /// reports the true framed byte count.
    Tcp,
}
