//! # lucky-explore
//!
//! Bounded **exhaustive schedule exploration** (small-scope model
//! checking) for the lucky storage protocols.
//!
//! The property tests in `tests/atomicity_random.rs` sample schedules; this
//! crate enumerates them. For a small scenario — a couple of operations
//! over a handful of servers — it explores *every* reachable interleaving
//! of message deliveries, timer firings and operation invocations that the
//! paper's asynchronous model (§2.1) permits, checking the §2.2 atomicity
//! conditions at every operation completion:
//!
//! * message channels are reliable but unordered, and a message may stay
//!   "in transit" for an arbitrary prefix of the run — both captured by
//!   letting the scheduler pick any in-flight message (or none, by
//!   exploring the branches where it is delivered later or never);
//! * client timers may fire at any point relative to deliveries
//!   (asynchronous local clocks) — which is why the writer ending its
//!   PW phase on the deciding ack, instead of waiting the timer out as
//!   Fig. 1 line 5 does, adds no schedule: "the timer fired right after
//!   that ack" was always one of the explored runs;
//! * Byzantine servers run a core from `lucky_core::byz` — the very
//!   catalogue the sim and TCP runtimes install — chosen by [`ByzKind`],
//!   including the split-brain equivocation used by the paper's
//!   impossibility proofs.
//!
//! States are deduplicated by hashing (protocol state + channel contents +
//! observable history), so the exploration converges despite the
//! factorial schedule space.
//!
//! ```
//! use lucky_explore::{ExploreConfig, Scenario};
//! use lucky_types::{Params, Value};
//!
//! // Every asynchronous schedule of one WRITE over S = 3 crash-only
//! // servers (all deliveries, timer firings and losses) stays atomic.
//! let scenario = Scenario::new(Params::new(1, 0, 1, 0).unwrap())
//!     .write(Value::from_u64(1));
//! let report = lucky_explore::explore(&scenario, &ExploreConfig::default());
//! assert!(report.violations.is_empty());
//! assert!(!report.truncated, "the scenario fits the state budget");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use lucky_core::atomic::{self, AtomicReader, AtomicServer, AtomicWriter};
use lucky_core::byz;
use lucky_core::runtime::{ClientCore, ClientSession, Input, ServerCore, SessionConfig};
use lucky_core::ProtocolConfig;
use lucky_sim::Effects;
use lucky_types::{
    History, Message, Op, OpId, OpRecord, Params, ProcessId, ReaderId, RegisterId, Time, TsVal,
    Value,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

/// A Byzantine behaviour a server may be assigned in a scenario: each
/// kind runs one core of the `lucky_core::byz` catalogue, the same code
/// the sim and TCP runtimes install.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ByzKind {
    /// Never answers: [`byz::Mute`].
    Mute,
    /// Answers every read with the initial state and acks writes without
    /// storing them: [`byz::StaleEcho`].
    StaleEcho,
    /// Answers every read with a fixed forged pair: [`byz::ForgeValue`].
    ForgeValue(TsVal),
    /// An honest automaton whose `pw` was forged to `c` before the run
    /// (the σ1 forgery of the Proposition 2 proof):
    /// [`byz::ForgeState::prewritten`].
    ForgeState(TsVal),
    /// Runs the honest protocol towards the listed processes; towards
    /// everyone else pretends it never heard from them (run r4's B2):
    /// [`byz::SplitBrain`].
    SplitBrain(Vec<ProcessId>),
    /// Answers honestly but ships its replies as mangled batches — the
    /// batching-layer adversary: [`byz::MangleBatch`] over an
    /// [`AtomicServer`].
    MangleBatch,
    /// Answers honestly but drags every reply through the `lucky-wire`
    /// byte level — the codec-layer adversary: [`byz::WireFuzz`] over an
    /// [`AtomicServer`], with seed 0. Its corruption is a pure function
    /// of its reply counter, so the explored state space stays hashable.
    WireFuzz,
}

/// A Byzantine server's state: the `lucky_core::byz` core its
/// [`ByzKind`] names.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Adversary {
    Mute(byz::Mute),
    StaleEcho(byz::StaleEcho),
    ForgeValue(byz::ForgeValue),
    ForgeState(byz::ForgeState),
    SplitBrain(byz::SplitBrain),
    MangleBatch(byz::MangleBatch<AtomicServer>),
    WireFuzz(byz::WireFuzz<AtomicServer>),
}

impl Adversary {
    fn new(kind: &ByzKind) -> Adversary {
        match kind {
            ByzKind::Mute => Adversary::Mute(byz::Mute::new()),
            ByzKind::StaleEcho => Adversary::StaleEcho(byz::StaleEcho::new()),
            ByzKind::ForgeValue(c) => Adversary::ForgeValue(byz::ForgeValue::new(c.clone())),
            ByzKind::ForgeState(c) => Adversary::ForgeState(byz::ForgeState::prewritten(c.clone())),
            ByzKind::SplitBrain(honest_to) => {
                Adversary::SplitBrain(byz::SplitBrain::new(honest_to.iter().copied()))
            }
            ByzKind::MangleBatch => {
                Adversary::MangleBatch(byz::MangleBatch::new(AtomicServer::new()))
            }
            ByzKind::WireFuzz => Adversary::WireFuzz(byz::WireFuzz::new(AtomicServer::new(), 0)),
        }
    }

    fn core(&mut self) -> &mut dyn ServerCore {
        match self {
            Adversary::Mute(c) => c,
            Adversary::StaleEcho(c) => c,
            Adversary::ForgeValue(c) => c,
            Adversary::ForgeState(c) => c,
            Adversary::SplitBrain(c) => c,
            Adversary::MangleBatch(c) => c,
            Adversary::WireFuzz(c) => c,
        }
    }
}

/// One process in the explored system. Clients are explored as
/// **sessions** — the same sans-io `ClientSession` lifecycle both real
/// runtimes drive — with concrete (hashable) cores, so the model checker
/// covers the production op event loop, not a parallel reimplementation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Proc {
    Writer(ClientSession<AtomicWriter>),
    Reader(ClientSession<AtomicReader>),
    Server(AtomicServer),
    /// A restartable server between its crash and its restart: `saved`
    /// is the durable state a restart replays. The protocol cores
    /// persist *before* acking (`lucky-log`'s persist-before-ack
    /// discipline), so at any crash point the persisted state equals
    /// the volatile state — which is why the explorer can model
    /// recovery as "resume from the state at the crash" without
    /// tracking a separate disk image. Deliveries while down are lost.
    Down {
        saved: AtomicServer,
    },
    Crashed,
    Byzantine(Adversary),
}

/// What to run and under which faults.
#[derive(Clone, Debug)]
pub struct Scenario {
    params: Params,
    protocol: ProtocolConfig,
    writer_script: Vec<Value>,
    reader_scripts: BTreeMap<u16, usize>,
    byzantine: BTreeMap<u16, ByzKind>,
    crashed: BTreeSet<u16>,
    restartable: BTreeSet<u16>,
    batching: bool,
}

impl Scenario {
    /// A scenario over a cluster with the given parameters and the
    /// default (paper-faithful) protocol configuration.
    pub fn new(params: Params) -> Scenario {
        Scenario {
            params,
            protocol: ProtocolConfig::default(),
            writer_script: Vec::new(),
            reader_scripts: BTreeMap::new(),
            byzantine: BTreeMap::new(),
            crashed: BTreeSet::new(),
            restartable: BTreeSet::new(),
            batching: false,
        }
    }

    /// Let the scheduler coalesce a link's in-flight messages into one
    /// atomically-delivered [`Message::Batch`] (an extra nondeterministic
    /// choice per non-empty link). This is how batch-delivery
    /// interleavings — the schedules the batching runtimes actually
    /// produce — enter the explored/walked schedule space.
    #[must_use]
    pub fn with_batching(mut self, batching: bool) -> Scenario {
        self.batching = batching;
        self
    }

    /// Replace the protocol configuration (e.g. to install the naive
    /// `fastpw` threshold for bound-violation scenarios).
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Scenario {
        self.protocol = protocol;
        self
    }

    /// Append a WRITE to the writer's script.
    #[must_use]
    pub fn write(mut self, v: Value) -> Scenario {
        self.writer_script.push(v);
        self
    }

    /// Give reader `r` a script of `n` sequential READs.
    #[must_use]
    pub fn reads(mut self, r: u16, n: usize) -> Scenario {
        self.reader_scripts.insert(r, n);
        self
    }

    /// Make server `i` Byzantine. Panics unless `i < S`.
    #[must_use]
    #[track_caller]
    pub fn byzantine(mut self, i: u16, kind: ByzKind) -> Scenario {
        self.check_server(i);
        self.byzantine.insert(i, kind);
        self
    }

    /// Crash server `i` from the start. Panics unless `i < S`.
    #[must_use]
    #[track_caller]
    pub fn crashed(mut self, i: u16) -> Scenario {
        self.check_server(i);
        self.crashed.insert(i);
        self
    }

    /// Let the scheduler crash-and-restart server `i` **anywhere** in
    /// the schedule (one crash–restart cycle, bounding the state
    /// space). The restarted incarnation resumes from its durable state
    /// — the explorer's model of a `lucky-log` replay — while messages
    /// delivered during the outage are lost. Together with the
    /// scheduler's freedom to hold a pre-crash message in transit until
    /// after the restart, this walks every interleaving of recovery
    /// against in-flight protocol traffic. Panics unless `i < S`.
    #[must_use]
    #[track_caller]
    pub fn restartable(mut self, i: u16) -> Scenario {
        self.check_server(i);
        self.restartable.insert(i);
        self
    }

    /// A fault on a server outside `0..S` would silently leave the
    /// explored system fault-free.
    #[track_caller]
    fn check_server(&self, i: u16) {
        let s = self.params.server_count();
        assert!(usize::from(i) < s, "server {i} does not exist: the scenario has S = {s} servers");
    }
}

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Stop after visiting this many distinct states.
    pub max_states: usize,
    /// Prune branches longer than this many scheduled events.
    pub max_depth: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_states: 250_000, max_depth: 120 }
    }
}

/// An observable history event (step order is the "real time" of §2.2).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Ev {
    Invoke { proc: ProcessId, write: Option<Value> },
    Complete { proc: ProcessId, value: Option<Value> },
}

/// A schedule prefix's full state. Client timers live *inside* the
/// sessions (surfaced only as their `next_wake`), so the state carries
/// no separate timer set.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    procs: Vec<(ProcessId, Proc)>,
    /// Multiset of in-flight messages.
    inflight: BTreeMap<(ProcessId, ProcessId, Message), u32>,
    /// Next script position per client.
    script_pos: BTreeMap<ProcessId, usize>,
    /// Clients with an operation in flight.
    pending: BTreeSet<ProcessId>,
    /// Remaining crash–restart cycles per restartable server.
    restarts_left: BTreeMap<ProcessId, u8>,
    /// Observable events so far.
    events: Vec<Ev>,
}

/// A violating schedule: the flattened event list plus the checker's
/// complaints.
#[derive(Clone, Debug)]
pub struct ViolationTrace {
    /// Invocation/completion events in schedule order.
    pub events: Vec<String>,
    /// The violations the checker reported.
    pub violations: Vec<lucky_checker::Violation>,
}

/// Exploration outcome.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Distinct states visited by [`explore`]; the number of walks taken
    /// by [`random_walks`].
    pub states: usize,
    /// Transitions taken (including ones leading to already-seen states).
    pub transitions: usize,
    /// Runs in which every scripted operation completed.
    pub completed_runs: usize,
    /// `true` iff the state or depth budget was hit.
    pub truncated: bool,
    /// Violating schedules found (exploration stops at the first).
    pub violations: Vec<ViolationTrace>,
}

/// Exhaustively explore `scenario` within `cfg`'s bounds.
pub fn explore(scenario: &Scenario, cfg: &ExploreConfig) -> Report {
    explore_from(scenario, initial_state(scenario), cfg)
}

/// [`explore`] every continuation of the schedule prefix that led to
/// `initial`.
fn explore_from(scenario: &Scenario, mut initial: State, cfg: &ExploreConfig) -> Report {
    let mut report = Report::default();
    prune_noops(&mut initial);
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(hash_state(&initial));
    let mut stack: Vec<(State, usize)> = vec![(initial, 0)];
    report.states = 1;

    while let Some((state, depth)) = stack.pop() {
        if report.states >= cfg.max_states {
            report.truncated = true;
            break;
        }
        if state.pending.is_empty() && all_scripts_done(scenario, &state) {
            report.completed_runs += 1;
        }
        if depth >= cfg.max_depth {
            report.truncated = true;
            continue;
        }
        for choice in enumerate_choices(scenario, &state) {
            report.transitions += 1;
            let mut next = state.clone();
            let completed = apply_choice(scenario, &mut next, &choice);
            prune_noops(&mut next);
            if let Some(trace) = completed.then(|| violation(&next)).flatten() {
                report.violations.push(trace);
                return report; // first counterexample is enough
            }
            let h = hash_state(&next);
            if seen.insert(h) {
                report.states += 1;
                stack.push((next, depth + 1));
            }
        }
    }
    report
}

/// Randomized schedule walks: the violation-hunting counterpart of
/// [`explore`]. Each walk picks uniformly among the enabled scheduler
/// choices until nothing is enabled or `max_steps` is hit, checking
/// atomicity at every completion. Far better than bounded DFS at
/// *finding* violations in larger scenarios; useless for proving their
/// absence.
pub fn random_walks(scenario: &Scenario, walks: usize, max_steps: usize, seed: u64) -> Report {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut report = Report::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..walks {
        let mut state = initial_state(scenario);
        prune_noops(&mut state);
        for _step in 0..max_steps {
            let choices = enumerate_choices(scenario, &state);
            if choices.is_empty() {
                break;
            }
            let choice = &choices[rng.gen_range(0..choices.len())];
            report.transitions += 1;
            let completed = apply_choice(scenario, &mut state, choice);
            prune_noops(&mut state);
            if let Some(trace) = completed.then(|| violation(&state)).flatten() {
                report.violations.push(trace);
                return report;
            }
        }
        if state.pending.is_empty() && all_scripts_done(scenario, &state) {
            report.completed_runs += 1;
        }
        report.states += 1;
    }
    report
}

/// The atomicity violation in `state`'s history, if any, as a trace.
fn violation(state: &State) -> Option<ViolationTrace> {
    let violations = lucky_checker::check_atomicity(&to_history(state)).err()?;
    Some(ViolationTrace {
        events: state.events.iter().map(|e| format!("{e:?}")).collect(),
        violations,
    })
}

/// Remove in-flight messages and pending session timers whose processing
/// provably leaves the system unchanged (no state change, no output).
/// Such events commute with everything and only multiply equivalent
/// schedules.
///
/// Soundness: a no-op event's subtree is identical to its parent's minus
/// the event, and the protocol's tag discipline makes "no-op now" imply
/// "no-op forever" (acks are matched against the *current* operation's
/// timestamp, which only ever grows).
fn prune_noops(state: &mut State) {
    let keys: Vec<(ProcessId, ProcessId, Message)> = state.inflight.keys().cloned().collect();
    for key in keys {
        let idx = proc_index(state, key.1);
        if delivery_is_noop(&state.procs[idx].1, key.0, &key.2) {
            state.inflight.remove(&key);
        }
    }
    for (_, proc_) in state.procs.iter_mut() {
        match proc_ {
            Proc::Writer(s) => s.prune_stale_timers(),
            Proc::Reader(s) => s.prune_stale_timers(),
            _ => {}
        }
    }
}

fn delivery_is_noop(proc_: &Proc, from: ProcessId, msg: &Message) -> bool {
    // NOT a no-op while down: the scheduler must keep both branches —
    // lose the message now, or hold it in transit and deliver it to the
    // restarted incarnation.
    if matches!(proc_, Proc::Down { .. }) {
        return false;
    }
    let mut clone = proc_.clone();
    let mut eff = Effects::new();
    deliver_to_proc(&mut clone, from, msg.clone(), &mut eff);
    eff.is_empty() && clone == *proc_
}

fn initial_state(scenario: &Scenario) -> State {
    // Explored sessions have no deadline: the scheduler itself decides
    // when (and whether) wakes happen, which subsumes every timing.
    let session = SessionConfig::default();
    let mut procs = Vec::new();
    procs.push((
        ProcessId::Writer,
        Proc::Writer(ClientSession::new(
            ProcessId::Writer,
            RegisterId::DEFAULT,
            atomic::writer(RegisterId::DEFAULT, scenario.params, scenario.protocol),
            session,
        )),
    ));
    for &r in scenario.reader_scripts.keys() {
        procs.push((
            ProcessId::Reader(ReaderId(r)),
            Proc::Reader(ClientSession::new(
                ProcessId::Reader(ReaderId(r)),
                RegisterId::DEFAULT,
                atomic::reader(RegisterId::DEFAULT, scenario.params, scenario.protocol),
                session,
            )),
        ));
    }
    for i in 0..scenario.params.server_count() as u16 {
        let id = ProcessId::Server(lucky_types::ServerId(i));
        let proc_ = if scenario.crashed.contains(&i) {
            Proc::Crashed
        } else {
            match scenario.byzantine.get(&i) {
                None => Proc::Server(AtomicServer::new()),
                Some(kind) => Proc::Byzantine(Adversary::new(kind)),
            }
        };
        procs.push((id, proc_));
    }
    let mut script_pos = BTreeMap::new();
    script_pos.insert(ProcessId::Writer, 0);
    for &r in scenario.reader_scripts.keys() {
        script_pos.insert(ProcessId::Reader(ReaderId(r)), 0);
    }
    let restarts_left = scenario
        .restartable
        .iter()
        .filter(|i| !scenario.crashed.contains(i) && !scenario.byzantine.contains_key(i))
        .map(|&i| (ProcessId::Server(lucky_types::ServerId(i)), 1u8))
        .collect();
    State {
        procs,
        inflight: BTreeMap::new(),
        script_pos,
        pending: BTreeSet::new(),
        restarts_left,
        events: Vec::new(),
    }
}

/// One scheduler decision.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Choice {
    Deliver(ProcessId, ProcessId, Message),
    /// Deliver the link's entire in-flight backlog as one atomic batch —
    /// enabled by [`Scenario::with_batching`].
    DeliverBatch(ProcessId, ProcessId),
    /// Wake a client session (its earliest pending timer fires) — the
    /// asynchronous-clock choice: the scheduler may interleave it
    /// anywhere relative to deliveries.
    Wake(ProcessId),
    Invoke(ProcessId),
    /// Crash a [`Scenario::restartable`] server: its volatile state is
    /// gone, its durable state (equal, by persist-before-ack) is kept
    /// for the restart, and deliveries until then are lost.
    Crash(ProcessId),
    /// Restart a crashed restartable server from its durable state —
    /// the explorer's `lucky-log` replay.
    Restart(ProcessId),
}

fn enumerate_choices(scenario: &Scenario, state: &State) -> Vec<Choice> {
    let mut out = Vec::new();
    for (pid, pos) in &state.script_pos {
        let quota = match pid {
            ProcessId::Writer => scenario.writer_script.len(),
            ProcessId::Reader(r) => scenario.reader_scripts.get(&r.0).copied().unwrap_or(0),
            // The explorer models the paper's single-register system: no
            // multi-register writers, and servers take no invocations.
            ProcessId::Server(_) | ProcessId::WriterOf(_) => 0,
        };
        if !state.pending.contains(pid) && *pos < quota {
            out.push(Choice::Invoke(*pid));
        }
    }
    for (pid, proc_) in &state.procs {
        let has_wake = match proc_ {
            Proc::Writer(s) => s.next_wake().is_some(),
            Proc::Reader(s) => s.next_wake().is_some(),
            _ => false,
        };
        if has_wake {
            out.push(Choice::Wake(*pid));
        }
        // Crash/restart choices for restartable servers: a crash is
        // enabled while the server is up and has budget left, a
        // restart exactly while it is down.
        match proc_ {
            Proc::Server(_) if state.restarts_left.get(pid).is_some_and(|&left| left > 0) => {
                out.push(Choice::Crash(*pid));
            }
            Proc::Down { .. } => out.push(Choice::Restart(*pid)),
            _ => {}
        }
    }
    for ((from, to, msg), count) in &state.inflight {
        if *count > 0 {
            out.push(Choice::Deliver(*from, *to, msg.clone()));
        }
    }
    if scenario.batching {
        // One batch-delivery choice per link with at least two in-flight
        // messages (a single message batches to itself: no new schedule).
        let mut links: Vec<(ProcessId, ProcessId)> = Vec::new();
        for ((from, to, _), count) in &state.inflight {
            let total: u32 = state
                .inflight
                .iter()
                .filter(|((f, t, _), _)| f == from && t == to)
                .map(|(_, c)| *c)
                .sum();
            if *count > 0 && total >= 2 && !links.contains(&(*from, *to)) {
                links.push((*from, *to));
            }
        }
        out.extend(links.into_iter().map(|(f, t)| Choice::DeliverBatch(f, t)));
    }
    out
}

fn all_scripts_done(scenario: &Scenario, state: &State) -> bool {
    let writer_done = state.script_pos[&ProcessId::Writer] >= scenario.writer_script.len();
    let readers_done = scenario
        .reader_scripts
        .iter()
        .all(|(&r, &n)| state.script_pos[&ProcessId::Reader(ReaderId(r))] >= n);
    writer_done && readers_done
}

fn proc_index(state: &State, pid: ProcessId) -> usize {
    state.procs.iter().position(|(id, _)| *id == pid).expect("process exists")
}

/// Apply `choice`; returns `true` iff a client operation completed.
fn apply_choice(scenario: &Scenario, state: &mut State, choice: &Choice) -> bool {
    let mut eff = Effects::new();
    let actor: ProcessId;
    match choice {
        Choice::Invoke(pid) => {
            actor = *pid;
            let pos = state.script_pos[pid];
            let idx = proc_index(state, *pid);
            match &mut state.procs[idx].1 {
                Proc::Writer(s) => {
                    if pos >= scenario.writer_script.len() {
                        return false;
                    }
                    let v = scenario.writer_script[pos].clone();
                    state.events.push(Ev::Invoke { proc: *pid, write: Some(v.clone()) });
                    s.begin(Op::Write(v), Time(0)).expect("scripts invoke one operation at a time");
                    drain_session(s, &mut eff);
                }
                Proc::Reader(s) => {
                    let quota = scenario
                        .reader_scripts
                        .get(&pid.as_reader().expect("reader pid").0)
                        .copied()
                        .unwrap_or(0);
                    if pos >= quota {
                        return false;
                    }
                    state.events.push(Ev::Invoke { proc: *pid, write: None });
                    s.begin(Op::Read, Time(0)).expect("scripts invoke one operation at a time");
                    drain_session(s, &mut eff);
                }
                _ => return false,
            }
            *state.script_pos.get_mut(pid).expect("client") += 1;
            state.pending.insert(*pid);
        }
        Choice::Wake(pid) => {
            actor = *pid;
            let idx = proc_index(state, *pid);
            match &mut state.procs[idx].1 {
                Proc::Writer(s) => {
                    if let Some(due) = s.next_wake() {
                        s.handle(Input::Wake, due);
                        drain_session(s, &mut eff);
                    }
                }
                Proc::Reader(s) => {
                    if let Some(due) = s.next_wake() {
                        s.handle(Input::Wake, due);
                        drain_session(s, &mut eff);
                    }
                }
                _ => {}
            }
        }
        Choice::Deliver(from, to, msg) => {
            actor = *to;
            let key = (*from, *to, msg.clone());
            let count = state.inflight.get_mut(&key).expect("message in flight");
            *count -= 1;
            if *count == 0 {
                state.inflight.remove(&key);
            }
            let idx = proc_index(state, *to);
            deliver_to_proc(&mut state.procs[idx].1, *from, msg.clone(), &mut eff);
        }
        Choice::Crash(pid) => {
            let idx = proc_index(state, *pid);
            let slot = &mut state.procs[idx].1;
            let Proc::Server(s) = slot else {
                return false; // only an up restartable server can crash
            };
            // Persist-before-ack: the durable image at any crash point
            // is exactly the current protocol state.
            *slot = Proc::Down { saved: s.clone() };
            *state.restarts_left.get_mut(pid).expect("restartable server") -= 1;
            return false;
        }
        Choice::Restart(pid) => {
            let idx = proc_index(state, *pid);
            let slot = &mut state.procs[idx].1;
            let Proc::Down { saved } = slot else {
                return false; // only a down server can restart
            };
            *slot = Proc::Server(saved.clone()); // the log replay
            return false;
        }
        Choice::DeliverBatch(from, to) => {
            actor = *to;
            // Drain the link's whole backlog (deterministic multiset
            // order) and deliver it as one atomic batch.
            let keys: Vec<(ProcessId, ProcessId, Message)> =
                state.inflight.keys().filter(|(f, t, _)| f == from && t == to).cloned().collect();
            let mut parts = Vec::new();
            for key in keys {
                let count = state.inflight.remove(&key).expect("key just listed");
                for _ in 0..count {
                    parts.push(key.2.clone());
                }
            }
            debug_assert!(parts.len() >= 2, "batch choices need a backlog");
            let idx = proc_index(state, *to);
            deliver_to_proc(&mut state.procs[idx].1, *from, Message::batch(parts), &mut eff);
        }
    }
    // Apply effects. (Client timers never surface here — they live
    // inside the sessions; server-side procs start none.)
    let (sends, _timers, completion) = eff.into_parts();
    for (to, msg) in sends {
        // Messages to processes outside the scenario (e.g. replies to a
        // reader with no script) are dropped.
        if state.procs.iter().any(|(id, _)| *id == to) {
            *state.inflight.entry((actor, to, msg)).or_insert(0) += 1;
        }
    }
    if let Some(c) = completion {
        state.pending.remove(&actor);
        state.events.push(Ev::Complete { proc: actor, value: c.value });
        return true;
    }
    false
}

/// Drain a session's outputs (and a completed outcome) into `eff`, the
/// common shape the scheduler applies.
fn drain_session<C: ClientCore>(s: &mut ClientSession<C>, eff: &mut Effects) {
    while let Some(out) = s.poll_output() {
        let (to, msg) = out.into_send();
        eff.send(to, msg);
    }
    if let Some(outcome) = s.take_outcome() {
        eff.complete(outcome.value, outcome.rounds, outcome.fast);
    }
}

/// Deliver one message (possibly a batch) to a process of any kind.
fn deliver_to_proc(proc_: &mut Proc, from: ProcessId, msg: Message, eff: &mut Effects) {
    match proc_ {
        Proc::Writer(s) => {
            s.handle(Input::Deliver(from, msg), Time(0));
            drain_session(s, eff);
        }
        Proc::Reader(s) => {
            s.handle(Input::Deliver(from, msg), Time(0));
            drain_session(s, eff);
        }
        Proc::Server(s) => s.deliver(from, msg, eff),
        Proc::Byzantine(a) => a.core().deliver(from, msg, eff),
        // A down server loses the delivery (crash semantics); the
        // scheduler separately explores keeping the message in transit
        // until after the restart.
        Proc::Down { .. } | Proc::Crashed => {}
    }
}

/// Convert the event list to a checker history (event index = time).
fn to_history(state: &State) -> History {
    let mut ops: Vec<OpRecord> = Vec::new();
    let mut open: BTreeMap<ProcessId, usize> = BTreeMap::new();
    for (step, ev) in state.events.iter().enumerate() {
        match ev {
            Ev::Invoke { proc, write } => {
                let id = OpId(ops.len() as u64);
                let op = match write {
                    Some(v) => Op::Write(v.clone()),
                    None => Op::Read,
                };
                open.insert(*proc, ops.len());
                ops.push(OpRecord {
                    id,
                    reg: lucky_types::RegisterId::DEFAULT,
                    client: *proc,
                    op,
                    invoked_at: Time(step as u64),
                    completed_at: None,
                    result: None,
                    rounds: 0,
                    fast: false,
                    msgs: 0,
                    bytes: 0,
                });
            }
            Ev::Complete { proc, value } => {
                let idx = open.remove(proc).expect("completion matches an invocation");
                ops[idx].completed_at = Some(Time(step as u64));
                ops[idx].result = value.clone();
            }
        }
    }
    History { ops }
}

fn hash_state(state: &State) -> u64 {
    let mut h = DefaultHasher::new();
    state.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Params {
        Params::new(1, 0, 1, 0).unwrap() // S = 3, crash-only
    }

    /// Debug builds get reduced budgets (bounded verification only);
    /// release builds (and the t10 experiment binary) run the full scope.
    /// A test whose scope fits both budgets pins its exact `(states,
    /// transitions)`: a kernel change that moves the explored space must
    /// say so by updating the pin.
    fn budget(full: usize, debug: usize) -> usize {
        if cfg!(debug_assertions) {
            debug
        } else {
            full
        }
    }

    #[test]
    fn single_write_explores_and_completes() {
        let scenario = Scenario::new(small_params()).write(Value::from_u64(1));
        let report = explore(&scenario, &ExploreConfig::default());
        assert!(report.violations.is_empty());
        assert!(!report.truncated);
        assert!(report.completed_runs > 0, "some schedule completes the write");
        assert_eq!((report.states, report.transitions), (49, 123));
    }

    #[test]
    fn write_concurrent_with_read_is_atomic_everywhere() {
        let scenario = Scenario::new(small_params()).write(Value::from_u64(1)).reads(0, 1);
        let cfg = ExploreConfig { max_states: budget(450_000, 25_000), ..ExploreConfig::default() };
        let report = explore(&scenario, &cfg);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        if !cfg!(debug_assertions) {
            // The full scope (~381k states) fits the release budget.
            assert!(!report.truncated, "explored {} states", report.states);
        }
    }

    /// Extend a schedule prefix by the first enabled choice `pick`
    /// accepts; returns whether a client operation completed in it.
    fn step(scenario: &Scenario, state: &mut State, pick: impl Fn(&Choice) -> bool) -> bool {
        let choice = enumerate_choices(scenario, state)
            .into_iter()
            .find(|c| pick(c))
            .expect("the prefix's next choice is enabled");
        let completed = apply_choice(scenario, state, &choice);
        prune_noops(state);
        completed
    }

    fn server(i: u16) -> ProcessId {
        ProcessId::Server(lucky_types::ServerId(i))
    }

    /// Extend the prefix by delivering the `from → to` message `is` accepts.
    fn deliver(
        scenario: &Scenario,
        state: &mut State,
        from: ProcessId,
        to: ProcessId,
        is: impl Fn(&Message) -> bool,
    ) -> bool {
        step(
            scenario,
            state,
            |c| matches!(c, Choice::Deliver(f, t, m) if *f == from && *t == to && is(m)),
        )
    }

    /// Invoke the scripted WRITE and deliver its PW to `servers`.
    fn prewrite(scenario: &Scenario, state: &mut State, servers: std::ops::Range<u16>) {
        step(scenario, state, |c| *c == Choice::Invoke(ProcessId::Writer));
        for i in servers {
            deliver(scenario, state, ProcessId::Writer, server(i), |m| matches!(m, Message::Pw(_)));
        }
    }

    fn deliver_pw_ack(scenario: &Scenario, state: &mut State, i: u16) -> bool {
        deliver(scenario, state, server(i), ProcessId::Writer, |m| matches!(m, Message::PwAck(_)))
    }

    fn writer_can_wake(scenario: &Scenario, state: &State) -> bool {
        enumerate_choices(scenario, state).contains(&Choice::Wake(ProcessId::Writer))
    }

    #[test]
    fn write_settled_on_the_deciding_ack_is_atomic_in_every_continuation() {
        // S = 3, fw = 1: the WRITE returns on its second PW ack. Two
        // prefixes the timer used to paper over — the third server's
        // ack, or its PW itself, still in transit at that return — each
        // followed by every schedule of a READ invoked at any later
        // point.
        let scenario = Scenario::new(small_params()).write(Value::from_u64(1)).reads(0, 1);
        for (pw_reaches, space) in [(3u16, (56, 136)), (2, (5_946, 27_479))] {
            let mut state = initial_state(&scenario);
            prewrite(&scenario, &mut state, 0..pw_reaches);
            assert!(!deliver_pw_ack(&scenario, &mut state, 0), "one ack is no quorum");
            assert!(deliver_pw_ack(&scenario, &mut state, 1), "the S − fw-th ack completes it");
            assert!(
                !writer_can_wake(&scenario, &state),
                "the PW timer died with the phase: no wake left to schedule"
            );
            // The straggler's ack is a no-op for an idle writer (pruned);
            // a PW still travelling to it is very much not.
            let in_transit: Vec<_> = state.inflight.keys().collect();
            if pw_reaches == 3 {
                assert!(in_transit.is_empty(), "{in_transit:?}");
            } else {
                assert!(
                    matches!(in_transit[..], [(ProcessId::Writer, to, Message::Pw(_))] if *to == server(2)),
                    "{in_transit:?}"
                );
            }
            let report = explore_from(&scenario, state, &ExploreConfig::default());
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            assert!(!report.truncated, "explored {} states", report.states);
            assert!(report.completed_runs > 0);
            assert_eq!((report.states, report.transitions), space);
        }
    }

    #[test]
    fn undecided_quorum_with_a_forger_goes_slow_and_stays_atomic() {
        // S = 4, b = 1, fw = 0: three PW acks (one of them the forger's)
        // are a quorum that decides nothing, so the writer still owes its
        // timer, and goes slow at it with the honest fourth ack held
        // back. Server 3 lags through the W rounds too: when the WRITE
        // returns, a READ invoked before it has reached nobody yet and
        // W2/W3 are still travelling to server 3. Every schedule from
        // there is explored — up to two READ rounds: the forged pair is
        // only refuted by all three honest replies, server 3's may come
        // arbitrarily late, and an uncapped reader would iterate rounds
        // (and states) without bound until it does.
        let params = Params::new(1, 1, 0, 0).unwrap();
        let protocol = ProtocolConfig { max_read_rounds: Some(2), ..ProtocolConfig::default() };
        let scenario = Scenario::new(params)
            .with_protocol(protocol)
            .write(Value::from_u64(1))
            .reads(0, 1)
            .byzantine(
                0,
                ByzKind::ForgeValue(TsVal::new(lucky_types::Seq(9), Value::from_u64(99))),
            );
        let mut state = initial_state(&scenario);
        step(&scenario, &mut state, |c| *c == Choice::Invoke(ProcessId::Reader(ReaderId(0))));
        prewrite(&scenario, &mut state, 0..4);
        for i in 0..3 {
            assert!(!deliver_pw_ack(&scenario, &mut state, i));
        }
        assert!(writer_can_wake(&scenario, &state), "luck in doubt: the timer is still owed");
        step(&scenario, &mut state, |c| *c == Choice::Wake(ProcessId::Writer));
        assert!(
            !state.inflight.keys().any(|(_, _, m)| matches!(m, Message::PwAck(_))),
            "the held-back ack is stale the moment the W phase starts"
        );
        let mut completed = false;
        for round in [2u8, 3] {
            for i in 0..3 {
                deliver(
                    &scenario,
                    &mut state,
                    ProcessId::Writer,
                    server(i),
                    |m| matches!(m, Message::Write(w) if w.round == round),
                );
                completed = deliver(
                    &scenario,
                    &mut state,
                    server(i),
                    ProcessId::Writer,
                    |m| matches!(m, Message::WriteAck(a) if a.round == round),
                );
            }
        }
        assert!(completed, "the third W3 ack completes the slow WRITE");
        let cfg = ExploreConfig { max_states: budget(400_000, 25_000), ..ExploreConfig::default() };
        let report = explore_from(&scenario, state, &cfg);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        if !cfg!(debug_assertions) {
            // ~330k states.
            assert!(!report.truncated, "explored {} states", report.states);
            assert!(report.completed_runs > 0);
        }
    }

    #[test]
    fn early_slow_path_leaves_no_dead_timer_to_explore() {
        // Fast writes off: nothing is decided until every server has
        // answered, and the S-th ack starts the W rounds. The PW timer
        // that phase no longer waits for must not survive as a wake
        // choice, or every later state would branch on a no-op.
        let scenario = Scenario::new(small_params())
            .with_protocol(ProtocolConfig::slow_only(100))
            .write(Value::from_u64(1));
        let mut state = initial_state(&scenario);
        prewrite(&scenario, &mut state, 0..3);
        for i in 0..3 {
            assert!(writer_can_wake(&scenario, &state), "acks so far: {i}");
            assert!(!deliver_pw_ack(&scenario, &mut state, i));
        }
        assert!(
            state.inflight.keys().any(|(_, _, m)| matches!(m, Message::Write(w) if w.round == 2)),
            "the last ack started W round 2"
        );
        assert!(!writer_can_wake(&scenario, &state), "the dead PW timer was pruned");
        let report = explore_from(&scenario, state, &ExploreConfig::default());
        assert!(report.violations.is_empty() && !report.truncated);
        assert!(report.completed_runs > 0);
        assert_eq!((report.states, report.transitions), (116, 324));
    }

    #[test]
    fn crashed_server_configurations_stay_atomic() {
        let scenario =
            Scenario::new(small_params()).write(Value::from_u64(1)).reads(0, 1).crashed(0);
        let report = explore(&scenario, &ExploreConfig::default());
        assert!(report.violations.is_empty());
        assert!(!report.truncated);
        assert_eq!((report.states, report.transitions), (3_092, 9_828));
    }

    #[test]
    fn no_byzantine_kind_breaks_small_scope() {
        // S = 4, b = 1: one Byzantine server of each kind in turn, one
        // write racing one read. The stateless-reply kinds are explored
        // within the budget; the two whose state grows with every reply
        // (a replay stash, a reply counter) are walked instead.
        let params = Params::new(1, 1, 0, 0).unwrap();
        let forged = TsVal::new(lucky_types::Seq(9), Value::from_u64(99));
        let kinds = [
            ByzKind::Mute,
            ByzKind::StaleEcho,
            ByzKind::ForgeValue(forged.clone()),
            ByzKind::ForgeState(forged),
            ByzKind::SplitBrain(vec![ProcessId::Writer]),
            ByzKind::MangleBatch,
            ByzKind::WireFuzz,
        ];
        for kind in kinds {
            let scenario = Scenario::new(params)
                .write(Value::from_u64(1))
                .reads(0, 1)
                .byzantine(0, kind.clone());
            let report = if matches!(kind, ByzKind::MangleBatch | ByzKind::WireFuzz) {
                random_walks(&scenario, budget(8_000, 1_500), 200, 46)
            } else {
                let cfg = ExploreConfig { max_states: budget(400_000, 25_000), max_depth: 90 };
                explore(&scenario, &cfg)
            };
            // Bounded guarantee: no violation within the explored scope.
            assert!(report.violations.is_empty(), "{kind:?}: {:?}", report.violations);
            assert!(report.completed_runs > 0, "{kind:?}: some schedule completes both ops");
        }
    }

    #[test]
    #[should_panic(expected = "server 4 does not exist: the scenario has S = 4 servers")]
    fn byzantine_server_out_of_range_is_rejected() {
        let _ = Scenario::new(Params::new(1, 1, 0, 0).unwrap()).byzantine(4, ByzKind::Mute);
    }

    #[test]
    #[should_panic(expected = "server 3 does not exist: the scenario has S = 3 servers")]
    fn crashed_server_out_of_range_is_rejected() {
        let _ = Scenario::new(small_params()).crashed(3);
    }

    #[test]
    #[should_panic(expected = "server 7 does not exist: the scenario has S = 3 servers")]
    fn restartable_server_out_of_range_is_rejected() {
        let _ = Scenario::new(small_params()).restartable(7);
    }

    #[test]
    fn naive_thresholds_beyond_bound_have_a_violating_schedule() {
        // t = 1, b = 1 (S = 4): the bound forces fw = fr = 0. Pretend
        // fw = 1 is achievable (naive fastpw = S − fw − fr = 3) and give
        // the adversary the proof's split-brain server: random schedule
        // walks find a Fig. 4-style interleaving on their own — no
        // hand-scripted gates or crashes.
        let params = Params::new_unchecked(1, 1, 1, 0);
        let protocol = ProtocolConfig {
            fastpw_override: Some(params.naive_fastpw_threshold()),
            ..ProtocolConfig::default()
        };
        let scenario = Scenario::new(params)
            .with_protocol(protocol)
            .write(Value::from_u64(1))
            .reads(0, 1)
            .reads(1, 1)
            .byzantine(
                1,
                ByzKind::SplitBrain(vec![ProcessId::Writer, ProcessId::Reader(ReaderId(0))]),
            );
        let report = random_walks(&scenario, budget(50_000, 8_000), 200, 42);
        assert!(
            !report.violations.is_empty(),
            "expected a violating schedule among {} walks",
            report.states,
        );
    }

    #[test]
    fn random_walks_find_nothing_within_the_bound() {
        // The same adversary against the correctly-configured algorithm:
        // tens of thousands of random schedules, no violation.
        let params = Params::new(1, 1, 0, 0).unwrap();
        let scenario =
            Scenario::new(params).write(Value::from_u64(1)).reads(0, 1).reads(1, 1).byzantine(
                1,
                ByzKind::SplitBrain(vec![ProcessId::Writer, ProcessId::Reader(ReaderId(0))]),
            );
        let report = random_walks(&scenario, budget(10_000, 2_000), 200, 43);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.completed_runs > 0);
    }

    #[test]
    fn batched_delivery_interleavings_stay_atomic() {
        // The same write⊕read scenario, but the scheduler may coalesce
        // any link's backlog into one atomically-delivered batch: the
        // schedules a batching transport produces. Bounded exploration
        // must find no atomicity violation.
        let scenario =
            Scenario::new(small_params()).with_batching(true).write(Value::from_u64(1)).reads(0, 1);
        let cfg = ExploreConfig { max_states: budget(250_000, 25_000), ..ExploreConfig::default() };
        let report = explore(&scenario, &cfg);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.completed_runs > 0, "batched schedules still complete operations");
    }

    #[test]
    fn batching_enables_strictly_more_schedules() {
        // Slow-path writes run the W schedule, so a W-round message can
        // share a link with the PW still in flight to a slow server —
        // exactly the backlog a batch-delivery choice coalesces. A
        // fast-path-only scenario never stacks two messages on one link.
        let base = Scenario::new(small_params())
            .with_protocol(ProtocolConfig::slow_only(100))
            .write(Value::from_u64(1));
        let batched = base.clone().with_batching(true);
        let cfg = ExploreConfig { max_states: budget(250_000, 25_000), ..ExploreConfig::default() };
        let plain_report = explore(&base, &cfg);
        let batched_report = explore(&batched, &cfg);
        assert!(plain_report.violations.is_empty());
        assert!(batched_report.violations.is_empty());
        assert!(
            batched_report.transitions > plain_report.transitions,
            "batch-delivery choices add transitions ({} vs {})",
            batched_report.transitions,
            plain_report.transitions,
        );
        assert_eq!((plain_report.states, plain_report.transitions), (975, 3_417));
        assert_eq!((batched_report.states, batched_report.transitions), (975, 3_933));
    }

    #[test]
    fn mangle_batch_adversary_cannot_break_atomicity_in_random_walks() {
        // S = 4, b = 1: one batch-mangling server against two writes and
        // two readers, with the scheduler also free to batch deliveries.
        let params = Params::new(1, 1, 0, 0).unwrap();
        let scenario = Scenario::new(params)
            .with_batching(true)
            .write(Value::from_u64(1))
            .write(Value::from_u64(2))
            .reads(0, 1)
            .reads(1, 1)
            .byzantine(0, ByzKind::MangleBatch);
        let report = random_walks(&scenario, budget(8_000, 1_500), 260, 44);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.completed_runs > 0, "mangled batches must not stall the protocol");
    }

    #[test]
    fn restart_interleavings_stay_atomic() {
        // S = 3, t = 1: the scheduler may crash server 0 anywhere in a
        // write⊕read run and restart it anywhere later, with its
        // durable state replayed and in-transit messages free to land
        // before, during (lost) or after the outage. Bounded
        // exploration over every such interleaving finds no atomicity
        // violation — the recovered server never resurrects
        // un-acked state and never forgets acked state.
        let scenario =
            Scenario::new(small_params()).write(Value::from_u64(1)).reads(0, 1).restartable(0);
        let cfg = ExploreConfig { max_states: budget(400_000, 25_000), ..ExploreConfig::default() };
        let report = explore(&scenario, &cfg);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.completed_runs > 0, "schedules complete despite the outage");
    }

    #[test]
    fn restart_choices_strictly_enlarge_the_schedule_space() {
        // A single write explores to completion under the default
        // budget with and without a restartable server, so the
        // transition counts are comparable — and the crash/restart
        // choices must add schedules.
        let base = Scenario::new(small_params()).write(Value::from_u64(1));
        let plain = explore(&base, &ExploreConfig::default());
        let restartable = explore(&base.clone().restartable(0), &ExploreConfig::default());
        assert!(plain.violations.is_empty());
        assert!(restartable.violations.is_empty());
        assert!(!plain.truncated && !restartable.truncated, "both scopes fit the budget");
        assert!(
            restartable.transitions > plain.transitions,
            "crash/restart choices add transitions ({} vs {})",
            restartable.transitions,
            plain.transitions,
        );
        assert_eq!((plain.states, plain.transitions), (49, 123));
        assert_eq!((restartable.states, restartable.transitions), (183, 549));
    }

    #[test]
    fn restart_random_walks_complete_and_stay_atomic() {
        // The violation-hunting counterpart: thousands of random
        // schedules over two writes and two readers with a restartable
        // server in the mix.
        let scenario = Scenario::new(small_params())
            .write(Value::from_u64(1))
            .write(Value::from_u64(2))
            .reads(0, 1)
            .restartable(1);
        let report = random_walks(&scenario, budget(10_000, 2_000), 220, 45);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.completed_runs > 0);
    }

    #[test]
    fn histories_are_reconstructed_faithfully() {
        let scenario = Scenario::new(small_params()).write(Value::from_u64(1));
        let report = explore(&scenario, &ExploreConfig::default());
        assert!(report.violations.is_empty());
        assert_eq!((report.states, report.transitions), (49, 123));
        // Sanity on the internal converter.
        let mut state = initial_state(&scenario);
        state.events.push(Ev::Invoke { proc: ProcessId::Writer, write: Some(Value::from_u64(1)) });
        state.events.push(Ev::Complete { proc: ProcessId::Writer, value: None });
        let h = to_history(&state);
        assert_eq!(h.ops.len(), 1);
        assert!(h.ops[0].is_complete());
    }
}
