//! The real wire: every protocol message crossing loopback TCP sockets
//! as `lucky-wire` frames.
//!
//! Each server and each shard worker owns a real `std::net` listener;
//! the router encodes its per-destination socket-slot batches as
//! checksummed frames and writes them to the destination's socket, where
//! the thread that owns it (the server, or the shard worker) reassembles
//! them from whatever partial reads TCP produces. These tests pin down:
//!
//! * **equivalence** — all three variants complete a multi-register,
//!   batching-enabled workload over real sockets with checker-clean
//!   verdicts;
//! * **byte accounting** — `NetStats::wire_bytes` (true framed bytes)
//!   brackets `NetStats::bytes` (the codec-exact payload accounting)
//!   within framing overhead, and honest runs decode with zero errors;
//! * **fault tolerance** — crashes and Byzantine servers (value
//!   forgers, codec-level `WireFuzz`) within the budget change nothing;
//! * **hostile bytes** — raw garbage injected straight into a server's
//!   socket is rejected cleanly (counted, connection dropped) while the
//!   protocol sails on, before and after the server re-binds;
//! * **slot isolation** — a well-formed frame on server 0's socket
//!   addressed to anyone else is dropped (counted), never handled;
//! * **coalesced bursts** — with many frames per router pass sharing
//!   one socket write, a destination that crashes mid-burst loses its
//!   own parts and nothing else, and its restarted incarnation's socket
//!   sees only whole frames meant for it.

use lucky_atomic::core::byz::{ForgeValue, WireFuzz};
use lucky_atomic::core::Setup;
use lucky_atomic::explore::{random_walks, ByzKind, Scenario};
use lucky_atomic::net::{NetConfig, NetStats, NetStore};
use lucky_atomic::types::{
    BatchConfig, Message, Params, ProcessId, PwAckMsg, PwMsg, RegisterId, Seq, ServerId, TsVal,
    TwoRoundParams, Value,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const REGISTERS: usize = 4;
const READERS_PER_REGISTER: usize = 2;
const ROUNDS: u64 = 4;

fn net_cfg() -> NetConfig {
    let mut cfg = NetConfig::for_latency(Duration::from_micros(50), Duration::from_micros(400));
    cfg.seed = 11;
    cfg
}

/// The three variant setups, sized so one crash plus one Byzantine
/// server stays within the fault budget.
fn setups() -> Vec<Setup> {
    vec![
        Setup::Atomic(Params::new(2, 1, 1, 0).unwrap()),
        Setup::TwoRound(TwoRoundParams::new(2, 1, 1).unwrap()),
        Setup::Regular(Params::trading_reads(2, 1).unwrap()),
    ]
}

/// The framed-bytes bracket: actual on-the-wire bytes must exceed the
/// payload accounting (frames add headers and envelopes, never remove
/// payload) but only by bounded per-frame and per-part overhead — the
/// `NetStats` audit the exact `Message::wire_size` rewrite enables.
fn assert_wire_bytes_bracket(stats: &NetStats) {
    assert!(stats.wire_bytes > stats.bytes, "framing adds overhead: {stats:?}");
    let overhead_bound = stats.max_framing_overhead();
    assert!(
        stats.wire_bytes <= stats.bytes + overhead_bound,
        "framing overhead out of bounds: wire {} vs payload {} (+{overhead_bound} allowed)",
        stats.wire_bytes,
        stats.bytes
    );
}

/// Run the standard mixed workload over TCP and return the final stats.
fn run_workload(
    setup: Setup,
    byzantine: Option<(u16, Adversary)>,
    crashed: Option<u16>,
) -> NetStats {
    let mut builder = NetStore::builder(setup, net_cfg())
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(3)
        .batch(BatchConfig::enabled(16).with_max_delay_micros(500));
    if let Some((i, adversary)) = byzantine {
        builder = builder.byzantine(
            i,
            match adversary {
                Adversary::Forge => {
                    Box::new(ForgeValue::new(TsVal::new(Seq(9_000), Value::from_u64(666))))
                }
                Adversary::Fuzz => Box::new(WireFuzz::new(setup, 7)),
            },
        );
    }
    if let Some(i) = crashed {
        builder = builder.crashed(i);
    }
    let mut store = builder.build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    for round in 0..ROUNDS {
        let mut tickets = Vec::new();
        for h in &handles {
            tickets.push(h.invoke_write(Value::from_u64(1 + h.id().0 as u64 * 1_000 + round)));
        }
        for h in &handles {
            for j in 0..READERS_PER_REGISTER as u16 {
                tickets.push(h.invoke_read(j));
            }
        }
        for t in tickets {
            t.wait().expect("operation completes over TCP");
        }
    }
    match setup {
        Setup::Regular(_) => store.check_regularity().expect("regular verdict over TCP"),
        _ => store.check_atomicity().expect("atomic verdict over TCP"),
    }
    let stats = store.stats();
    store.shutdown();
    stats
}

#[derive(Clone, Copy)]
enum Adversary {
    Forge,
    Fuzz,
}

#[test]
fn all_variants_complete_batched_multi_register_workloads_over_tcp() {
    for setup in setups() {
        let stats = run_workload(setup, None, None);
        assert!(stats.messages > 0 && stats.parts > stats.messages, "batching engaged: {stats:?}");
        assert!(stats.batches_sent > 0, "{setup:?}");
        assert_eq!(stats.decode_errors, 0, "honest frames all decode: {setup:?}");
        assert_eq!(stats.dropped, 0, "no recipient ever went missing: {setup:?}");
        assert!(stats.wire_bytes > 0, "real bytes crossed the sockets: {setup:?}");
        assert_wire_bytes_bracket(&stats);
    }
}

#[test]
fn crash_plus_forging_byzantine_within_budget_over_tcp() {
    for setup in setups() {
        let stats = run_workload(setup, Some((1, Adversary::Forge)), Some(0));
        // The crashed server's slot has no socket: every frame routed
        // there is accounted as dropped parts, not silently lost.
        assert!(stats.dropped > 0, "frames to the crashed server count as dropped");
        assert_eq!(stats.decode_errors, 0);
        assert_wire_bytes_bracket(&stats);
    }
}

#[test]
fn wire_fuzzing_byzantine_server_cannot_break_verdicts_over_tcp() {
    // The codec-level adversary at server 1: most of its replies die in
    // its own corrupted frames (within its fault budget — a drop is a
    // legal Byzantine behaviour), the rest arrive as checksum-valid
    // mangled batches. Verdicts must be unchanged; the WireFuzz-internal
    // assertions additionally prove every corrupted frame was rejected.
    for setup in setups() {
        let stats = run_workload(setup, Some((1, Adversary::Fuzz)), None);
        assert_eq!(stats.decode_errors, 0, "the adversary corrupts pre-send, not the wire");
        assert_wire_bytes_bracket(&stats);
    }
}

#[test]
fn single_register_cluster_api_over_tcp() {
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store = NetStore::builder(params, net_cfg()).build();
    let h = store.register(RegisterId(0)).unwrap();
    for i in 1..=5u64 {
        h.write(Value::from_u64(i)).unwrap();
        assert_eq!(h.read(0).unwrap().value.as_u64(), Some(i));
    }
    let stats = store.stats();
    assert!(stats.bytes > 0, "the codec-exact payload is accounted");
    assert!(stats.wire_bytes > 0);
    assert_eq!(stats.decode_errors, 0);
    assert_wire_bytes_bracket(&stats);
    store.shutdown();
}

/// Poll `stats()` until `counter` reaches `target` (receive-side
/// accounting is asynchronous: the slot's thread does it).
fn await_count(store: &NetStore, what: &str, target: u64, counter: fn(&NetStats) -> u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let seen = counter(&store.stats());
        if seen >= target {
            assert_eq!(seen, target, "{what}: counted more than was sent");
            return;
        }
        assert!(Instant::now() < deadline, "{what}: only {seen} of {target} counted in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Three hostile connections to `addr`: plain garbage, a frame with a
/// smashed checksum, and an oversized length prefix. Each must be
/// counted and dropped without disturbing the protocol.
fn assault(store: &NetStore, addr: SocketAddr, errors_before: u64) {
    let mut garbage = TcpStream::connect(addr).unwrap();
    garbage.write_all(b"this is definitely not a lucky-wire frame....").unwrap();
    let mut bad_crc = TcpStream::connect(addr).unwrap();
    let mut frame = lucky_wire::encode_frame(b"payload");
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    bad_crc.write_all(&frame).unwrap();
    let mut oversized = TcpStream::connect(addr).unwrap();
    let mut frame = lucky_wire::encode_frame(b"payload");
    frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    oversized.write_all(&frame).unwrap();
    await_count(store, "hostile frames rejected", errors_before + 3, |s| s.decode_errors);
}

#[test]
fn raw_garbage_on_a_server_socket_is_rejected_cleanly() {
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store = NetStore::builder(params, net_cfg()).build();
    let h = store.register(RegisterId(0)).unwrap();
    let first = store.server_addr(ServerId(0)).expect("TCP transport exposes server addresses");
    assault(&store, first, 0);
    // The protocol keeps working around the rejects.
    h.write(Value::from_u64(7)).unwrap();
    assert_eq!(h.read(0).unwrap().value.as_u64(), Some(7));

    // A restarted server listens somewhere new, with the same manners.
    store.crash_server(0);
    store.restart_server(0);
    let second = store.server_addr(ServerId(0)).expect("restarted slot re-binds");
    assert_ne!(first, second);
    assault(&store, second, 3);
    h.write(Value::from_u64(8)).unwrap();
    assert_eq!(h.read(0).unwrap().value.as_u64(), Some(8));
    store.check_atomicity().unwrap();
    store.shutdown();
}

#[test]
fn well_formed_frames_for_someone_else_are_dropped_not_handled() {
    // Checksum-valid, codec-valid frames on server 0's socket that are
    // not *for* server 0. With b = 0 a reader trusts any single server,
    // so a forged pre-write that reached a core would be readable — the
    // checker below would see a value nobody wrote.
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store = NetStore::builder(params, net_cfg()).build();
    let h = store.register(RegisterId(0)).unwrap();
    h.write(Value::from_u64(1)).unwrap();
    let reg = RegisterId(0);
    let writer = ProcessId::writer(reg);
    let forged = TsVal::new(Seq(9_000), Value::from_u64(666));
    let pw = Message::Pw(PwMsg {
        reg,
        ts: forged.ts,
        pw: forged.clone(),
        w: forged,
        frozen: Vec::new(),
    });
    let ack = Message::PwAck(PwAckMsg { reg, ts: Seq(9_000), newread: Vec::new() });
    let mut wire = TcpStream::connect(store.server_addr(ServerId(0)).unwrap()).unwrap();

    // Two parts for server 1, arriving at server 0.
    let to_peer = (writer, ProcessId::Server(ServerId(1)), Message::batch(vec![pw.clone(), pw]));
    wire.write_all(&lucky_wire::encode_packet(&[to_peer])).unwrap();
    await_count(&store, "parts for another server", 2, |s| s.dropped);
    // One part for a client process, arriving at server 0.
    let to_client = (ProcessId::Server(ServerId(0)), writer, ack);
    wire.write_all(&lucky_wire::encode_packet(&[to_client])).unwrap();
    await_count(&store, "parts for a client", 3, |s| s.dropped);

    assert_eq!(store.stats().decode_errors, 0, "the frames were well-formed");
    assert_eq!(h.read(0).unwrap().value.as_u64(), Some(1));
    h.write(Value::from_u64(2)).unwrap();
    assert_eq!(h.read(0).unwrap().value.as_u64(), Some(2));
    store.check_atomicity().unwrap();
    store.shutdown();
}

#[test]
fn a_coalesced_burst_survives_the_crash_and_restart_of_a_destination() {
    // One WRITE in flight per register: every router pass finds many
    // frames due per destination and writes them as one buffer. S = 3
    // and t = 1, so S − 1 servers are a quorum (and, with fw = 1, enough
    // for a fast WRITE). The latency band keeps a burst's frames in
    // flight long enough for the crash to land among them; the timer is
    // far above the round trip, which a lucky WRITE does not wait out.
    const BURST: usize = 64;
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut cfg = NetConfig::for_latency(Duration::from_millis(10), Duration::from_micros(10_200));
    cfg.timer = Duration::from_millis(100);
    let mut store = NetStore::builder(params, cfg).registers(BURST).build();
    let handles: Vec<_> =
        RegisterId::all(BURST).map(|reg| store.register(reg).expect("fresh handle")).collect();
    let burst = |round: u64| -> Vec<_> {
        handles
            .iter()
            .map(|h| h.invoke_write(Value::from_u64(round * 1_000 + h.id().0 as u64)))
            .collect()
    };
    let s0 = ServerId(0);
    let first = store.server_addr(s0).expect("TCP transport exposes server addresses");

    // Crash server 0 under the burst: every ticket still resolves, and
    // what is lost is exactly traffic that was bound for server 0 — a
    // failed or sink-less flush counts its own slot's parts, no other's.
    let tickets = burst(1);
    store.crash_server(0);
    for t in tickets {
        t.wait().expect("S − 1 servers still answer");
    }
    let crashed = store.stats();
    assert!(crashed.dropped > 0, "the burst was still in flight when server 0 went: {crashed}");
    assert!(
        crashed.dropped <= crashed.server(s0).parts,
        "only parts bound for server 0 may be lost: {crashed}"
    );
    assert!(
        crashed.socket_writes < crashed.messages,
        "{BURST} tickets in flight must share socket writes: {crashed}"
    );

    // Restart it: a new listener, a new sink, and a burst that is fast
    // on all S again. Nothing more is dropped — by the router (the new
    // sink took every frame) or by server 0 (it was up to take them).
    store.restart_server(0);
    assert_ne!(first, store.server_addr(s0).expect("restarted slot re-binds"));
    let restarted = store.stats();
    for t in burst(2) {
        assert!(t.wait().expect("all S servers answer").fast);
    }
    let end = store.stats();
    assert_eq!(end.dropped, restarted.dropped, "server 0 is back: {end}");
    assert!(
        end.server(s0).parts >= restarted.server(s0).parts + BURST as u64,
        "server 0 is routed to again: {end}"
    );
    assert_eq!(end.decode_errors, 0, "every socket only ever saw whole frames");
    assert!(end.socket_writes < end.messages, "{end}");
    store.check_atomicity().unwrap();
    store.shutdown();
}

#[test]
fn values_past_the_frame_cap_fail_the_op_without_killing_the_router() {
    // A value whose PW encoding exceeds `MAX_FRAME_BYTES` can never
    // cross this transport: no splitting helps a single message. The
    // router must drop it (counted) and time the operation out — not
    // panic and take the whole store down with it.
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut cfg = net_cfg();
    cfg.timer = Duration::from_millis(1); // keep the op deadline short
    let mut store = NetStore::builder(params, cfg).registers(2).build();
    let h0 = store.register(RegisterId(0)).unwrap();
    let h1 = store.register(RegisterId(1)).unwrap();
    let oversized = Value::from_bytes(vec![0u8; lucky_wire::MAX_FRAME_BYTES + 64]);
    assert!(h0.write(oversized).is_err(), "unframeable write must fail, not hang or panic");
    // The router survives: other registers keep operating normally.
    h1.write(Value::from_u64(7)).unwrap();
    assert_eq!(h1.read(0).unwrap().value.as_u64(), Some(7));
    let stats = store.stats();
    assert!(stats.dropped > 0, "the unframeable parts are accounted: {stats:?}");
    store.shutdown();
}

#[test]
fn coalesced_loads_past_the_frame_cap_split_into_multiple_frames() {
    // Moderate values that fit a frame individually but not together:
    // an aggressive batching window stages them onto one socket-slot,
    // and the router must split the load across frames instead of
    // tripping the codec caps. Everything completes and stays clean.
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store = NetStore::builder(params, net_cfg())
        .registers(8)
        .shards(2)
        .batch(BatchConfig::enabled(16).with_max_delay_micros(2_000))
        .build();
    let handles: Vec<_> =
        RegisterId::all(8).map(|reg| store.register(reg).expect("fresh handle")).collect();
    // 8 concurrent ~200 KiB writes: the PWs to one server can stage to
    // ~1.6 MiB, past the 1 MiB frame cap.
    let payload = vec![0x5Au8; 200 * 1024];
    let tickets: Vec<_> =
        handles.iter().map(|h| h.invoke_write(Value::from_bytes(payload.clone()))).collect();
    for t in tickets {
        t.wait().expect("chunked frames still deliver every write");
    }
    for h in &handles {
        assert_eq!(h.read(0).unwrap().value.len(), payload.len());
    }
    store.check_atomicity().unwrap();
    let stats = store.stats();
    assert_eq!(stats.dropped, 0, "nothing was unframeable: {stats:?}");
    assert_eq!(stats.decode_errors, 0);
    assert!(stats.wire_bytes > 8 * payload.len() as u64, "the payloads crossed the wire");
    store.shutdown();
}

#[test]
fn explore_random_walks_with_wire_fuzzing_server_stay_atomic() {
    // The explorer's deterministic WireFuzz: every schedule of a write
    // racing two readers against a codec-level adversary keeps the
    // §2.2 verdicts (and the in-adversary assertions prove each
    // corrupted frame was cleanly rejected on every explored path).
    let params = Params::new(1, 1, 0, 0).unwrap();
    let scenario = Scenario::new(params)
        .write(Value::from_u64(1))
        .write(Value::from_u64(2))
        .reads(0, 1)
        .reads(1, 1)
        .byzantine(2, ByzKind::WireFuzz);
    let report = random_walks(&scenario, 400, 260, 13);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.completed_runs > 0, "fuzzed schedules still complete the workload");
}
