//! What one measured pass of a workload yields, before any metric is
//! derived from it. Net, sharded and sim passes all fill this shape, so
//! the metric arithmetic in `metrics.rs` exists once.

use crate::spans::Spans;
use lucky_net::NetStats;

/// One operation as the load generator saw it. Times are nanoseconds
/// since the pass epoch.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index in the seeded schedule (`u64::MAX` for prelude/fill ops).
    pub idx: u64,
    /// When the op was *due* (open loop: its scheduled instant; closed
    /// loop: the instant its task became free).
    pub due_ns: u64,
    /// When the generator took the op off the schedule (its lateness
    /// against `due_ns` is the generator's own lag).
    pub issued_ns: u64,
    /// When the submitting call started / returned.
    pub submit_ns: u64,
    pub submitted_ns: u64,
    /// When the generator observed the completion.
    pub done_ns: u64,
    /// The store's own elapsed figure (`NetOutcome.elapsed`), ns.
    pub store_elapsed_ns: u64,
    pub write: bool,
    pub ok: bool,
    pub fast: bool,
    pub rounds: u32,
    /// Per-op traffic as the store attributes it (sim outcomes only).
    pub msgs: u64,
    pub bytes: u64,
    /// Inside the measured window (by due time for an open loop, by
    /// completion time for a closed one).
    pub measured: bool,
    /// First op ever to touch its register (sharded workload).
    pub first_touch: bool,
    /// Carries a wall-clock latency (false only for the simulator's
    /// background ops, which have virtual latencies alone).
    pub timed: bool,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Cumulative counters read at a window edge.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub cpu_us: f64,
    pub messages: u64,
    pub parts: u64,
    pub batches_sent: u64,
    pub bytes: u64,
    pub wire_bytes: u64,
    pub reactor_wakeups: u64,
    pub frame_allocs: u64,
    pub dropped: u64,
    pub decode_errors: u64,
    pub io_errors: u64,
    pub log_bytes: u64,
    pub recoveries: u64,
}

impl Counters {
    pub fn read(stats: &NetStats) -> Counters {
        Counters {
            cpu_us: crate::procfs::cpu_micros(),
            messages: stats.messages,
            parts: stats.parts,
            batches_sent: stats.batches_sent,
            bytes: stats.bytes,
            wire_bytes: stats.wire_bytes,
            reactor_wakeups: stats.reactor_wakeups,
            frame_allocs: stats.frame_allocs,
            dropped: stats.dropped,
            decode_errors: stats.decode_errors,
            io_errors: stats.io_errors,
            log_bytes: stats.log_bytes,
            recoveries: stats.recoveries,
        }
    }

    /// Counters of a store-less pass (the simulator): CPU only.
    pub fn cpu_only() -> Counters {
        Counters { cpu_us: crate::procfs::cpu_micros(), ..Counters::default() }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cpu_us: self.cpu_us - earlier.cpu_us,
            messages: self.messages - earlier.messages,
            parts: self.parts - earlier.parts,
            batches_sent: self.batches_sent - earlier.batches_sent,
            bytes: self.bytes - earlier.bytes,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            reactor_wakeups: self.reactor_wakeups - earlier.reactor_wakeups,
            frame_allocs: self.frame_allocs - earlier.frame_allocs,
            dropped: self.dropped - earlier.dropped,
            decode_errors: self.decode_errors - earlier.decode_errors,
            io_errors: self.io_errors - earlier.io_errors,
            log_bytes: self.log_bytes - earlier.log_bytes,
            recoveries: self.recoveries - earlier.recoveries,
        }
    }
}

/// Everything one pass produced.
#[derive(Default, Debug)]
pub struct Pass {
    /// Measured window, ns since the pass epoch.
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Samples are windowed by due time (open loop) rather than by
    /// completion time (closed loop).
    pub by_due: bool,
    /// Every op the pass issued (all phases), in completion order.
    pub samples: Vec<Sample>,
    /// Counters over the measured window.
    pub window: Counters,
    /// Cumulative counters at every whole second of the window (entry
    /// `k` is read `k` seconds in), so per-second figures — whose median
    /// shrugs off the seconds a noisy neighbour steals — can be formed.
    pub at_second: Vec<Counters>,
    /// Counters at the very end of the pass (after tail phases).
    pub end: Counters,
    /// Ops due in the window that the open-loop generator issued.
    pub offered: u64,
    /// Ops still in flight when the drain gave up.
    pub unfinished: u64,
    /// Store build → first op acknowledged, one entry per repetition.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub threads: f64,
    pub verify_s: f64,
    pub ops_checked: u64,
    /// Checker violations + client-side freshness violations.
    pub violations: u64,
    /// The store's own luck-o-meter (traced passes only).
    pub trace: Option<lucky_trace::TraceReport>,
    /// `restart_server` wall time (degraded_durable's tail), ms.
    pub restart_ms: f64,
    /// Registers materialised / per-group op counts (sharded only).
    pub materialized: u64,
    pub group_ops: Vec<u64>,
    /// Simulator extras: virtual latencies (µs) and wall ns per op.
    pub virt_read_us: Vec<u64>,
    pub virt_write_us: Vec<u64>,
    pub sim_wall_ns_per_op: f64,
    /// Passes whose exact counts were compared against the first
    /// (sim only), and how many differed.
    pub repeat_mismatches: u64,
    pub spans: Spans,
}

impl Pass {
    pub fn window_s(&self) -> f64 {
        (self.t1_ns - self.t0_ns) as f64 / 1e9
    }

    pub fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.measured)
    }
}
