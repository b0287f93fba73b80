//! The six workloads: names, shapes and the fixed settings they share.
//! Names are final — every later performance claim in this repo reads
//! "metric X on workload Y" with the names in this table.

use crate::engine::Pacing;
use lucky_types::{BatchConfig, Params};
use std::time::Duration;

/// Registers of every single-group net workload, each with one writer
/// and [`READERS`] readers.
pub const REGISTERS: usize = 256;
pub const READERS: u16 = 2;
/// The round-1 timer of every net workload. Injected router latency is
/// 0/0, so an op's latency is this protocol timer + real loopback +
/// CPU — nothing simulated.
pub const TIMER: Duration = Duration::from_millis(2);

/// The knobs `--quick` shrinks. Full values are the benchmark; quick
/// ones only prove the harness still runs (numbers not for comparison).
#[derive(Clone, Copy, Debug)]
pub struct Tuning {
    /// Unmeasured warm-up before every measured window.
    pub warmup: Duration,
    /// Store set-ups timed per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Writes per register that fill `degraded_durable`'s logs.
    pub fill_rounds: usize,
    /// Ops of one simulator pass (repeated until the window is over).
    pub sim_ops: usize,
    /// Ops the layer replay hand-drives.
    pub replay_ops: usize,
}

impl Tuning {
    pub fn full() -> Tuning {
        Tuning {
            warmup: Duration::from_secs(2),
            setup_reps: 5,
            fill_rounds: 40,
            sim_ops: 100_000,
            replay_ops: 20_000,
        }
    }

    pub fn quick() -> Tuning {
        Tuning {
            warmup: Duration::from_millis(300),
            setup_reps: 1,
            fill_rounds: 4,
            sim_ops: 10_000,
            replay_ops: 2_000,
        }
    }
}

/// Shape of a single-group workload over `NetStore`.
#[derive(Clone, Debug)]
pub struct NetSpec {
    pub params: Params,
    pub pacing: Pacing,
    pub read_permille: u32,
    pub batch: BatchConfig,
    pub durable: bool,
    /// Writes per register before the warm-up (1 touches every register
    /// once; `degraded_durable` fills its logs with 40).
    pub prelude_rounds: usize,
    /// Crash this server after the prelude; restart it (timed) after
    /// the window and run [`NetSpec::tail_ops`] more ops.
    pub crash: Option<u16>,
    pub tail_ops: usize,
    /// Closed loops only: `peak_rss_mb` is read when this many ops of
    /// the pass have completed, not at the end of the window. The store
    /// keeps its whole history, so its memory grows with ops *served*;
    /// read at the end of a fixed-time window, a faster store would
    /// look like a memory regression. (An open loop serves the same
    /// number of ops every run, so there the end of the window is
    /// already a fixed amount of work.)
    pub rss_mark_ops: Option<u64>,
}

#[derive(Clone, Debug)]
pub enum Shape {
    Net(NetSpec),
    /// `ShardNetStore`, blocking client threads.
    Sharded,
    /// `SimStore`, no sockets or threads.
    Sim,
}

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

fn healthy() -> Params {
    Params::new(1, 0, 1, 0).expect("S = 3, one crash tolerated, fast writes despite it")
}

fn net(pacing: Pacing, read_permille: u32, batch: BatchConfig) -> NetSpec {
    NetSpec {
        params: healthy(),
        pacing,
        read_permille,
        batch,
        durable: false,
        prelude_rounds: 1,
        crash: None,
        tail_ops: 0,
        rss_mark_ops: match pacing {
            Pacing::Open(_) => None,
            // About half of what the sandbox serves in warm-up + window,
            // so that a run in one of its slow phases still gets there.
            Pacing::Closed(tasks) => Some(if tasks > 128 { 300_000 } else { 150_000 }),
        },
    }
}

pub const NAMES: [&str; 6] = [
    "steady_read_mostly",
    "saturate_unbatched",
    "saturate_batched",
    "degraded_durable",
    "sharded_zipf",
    "sim_contended_byz",
];

pub fn by_name(name: &str, tuning: &Tuning) -> Option<Workload> {
    let shape = match name {
        // ~25 % of the unbatched knee: queues stay empty, latency is the
        // protocol's own (timer + loopback + CPU).
        "steady_read_mostly" => {
            Shape::Net(net(Pacing::Open(6_000.0), 900, BatchConfig::disabled()))
        }
        // Six wire messages per op through router → socket → server:
        // per-message cost dominates.
        "saturate_unbatched" => Shape::Net(net(Pacing::Closed(128), 500, BatchConfig::disabled())),
        // The same layers used differently: coalescing amortises the
        // per-message cost, so session/core/futures/history dominate.
        "saturate_batched" => Shape::Net(net(
            Pacing::Closed(256),
            500,
            BatchConfig::enabled(16).with_max_delay_micros(100),
        )),
        // fw = 0 and one crash: every write is slow. The only workload
        // on the multi-round path, persist-before-ack and recovery.
        "degraded_durable" => Shape::Net(NetSpec {
            params: Params::new(1, 0, 0, 1).expect("S = 3 with fw = 0"),
            pacing: Pacing::Open(3_000.0),
            read_permille: 500,
            batch: BatchConfig::disabled(),
            durable: true,
            prelude_rounds: tuning.fill_rounds,
            crash: Some(2),
            tail_ops: 200,
            rss_mark_ops: None,
        }),
        "sharded_zipf" => Shape::Sharded,
        "sim_contended_byz" => Shape::Sim,
        _ => return None,
    };
    NAMES.iter().find(|n| **n == name).map(|name| Workload { name, shape })
}
