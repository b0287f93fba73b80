//! [`Setup`] — which protocol variant a store runs, and the factories
//! that build its processes.

use crate::config::{ProtocolConfig, Variant};
use crate::runtime::adapters::{ClientCore, ServerCore};
use crate::runtime::mux::RegisterMux;
use crate::runtime::session::{ClientSession, SessionConfig};
use crate::{abd, atomic, regular, tworound};
use lucky_types::{Params, ReaderId, RegisterId, TwoRoundParams};

/// Which protocol instance a store runs, with its parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Setup {
    /// The atomic algorithm (§3) with `Params` thresholds.
    Atomic(Params),
    /// The two-round algorithm (App. C).
    TwoRound(TwoRoundParams),
    /// The regular variant (App. D); use [`Params::trading_reads`].
    Regular(Params),
    /// The crash-only ABD register ([`abd`]) over `S = 2t + 1` servers —
    /// the paper's comparison baseline (§1).
    Abd {
        /// Crash failures tolerated.
        t: usize,
    },
}

impl Setup {
    /// Number of servers this setup deploys.
    pub fn server_count(&self) -> usize {
        match self {
            Setup::Atomic(p) | Setup::Regular(p) => p.server_count(),
            Setup::TwoRound(p) => p.server_count(),
            Setup::Abd { t } => 2 * t + 1,
        }
    }

    /// The variant tag.
    pub fn variant(&self) -> Variant {
        match self {
            Setup::Atomic(_) => Variant::Atomic,
            Setup::TwoRound(_) => Variant::TwoRound,
            Setup::Regular(_) => Variant::Regular,
            Setup::Abd { .. } => Variant::Abd,
        }
    }

    // The factories below are the single place a variant name maps to
    // concrete protocol cores. Every runtime — the simulator's `SimStore`
    // and the threaded `NetStore` in `lucky-net` — builds its processes
    // through them, so adding a variant (or swapping a policy) lands in
    // one match arm per role.

    /// Build this variant's writer core for register `reg`.
    pub fn make_writer(&self, reg: RegisterId, protocol: ProtocolConfig) -> Box<dyn ClientCore> {
        match *self {
            Setup::Atomic(p) => Box::new(atomic::AtomicWriter::for_register(reg, p, protocol)),
            Setup::TwoRound(p) => Box::new(tworound::TwoRoundWriter::for_register(reg, p)),
            Setup::Regular(p) => Box::new(regular::RegularWriter::for_register(reg, p, protocol)),
            Setup::Abd { t } => Box::new(abd::AbdWriter::for_register(reg, t)),
        }
    }

    /// Build this variant's reader core with identity `id`, reading
    /// register `reg`.
    pub fn make_reader(
        &self,
        reg: RegisterId,
        id: ReaderId,
        protocol: ProtocolConfig,
    ) -> Box<dyn ClientCore> {
        match *self {
            Setup::Atomic(p) => Box::new(atomic::AtomicReader::for_register(reg, id, p, protocol)),
            Setup::TwoRound(p) => {
                Box::new(tworound::TwoRoundReader::for_register(reg, id, p, protocol))
            }
            Setup::Regular(p) => {
                Box::new(regular::RegularReader::for_register(reg, id, p, protocol))
            }
            Setup::Abd { t } => Box::new(abd::AbdReader::for_register(reg, t, protocol)),
        }
    }

    /// Build this variant's writer as a ready-to-drive [`ClientSession`]
    /// for register `reg` — the form every runtime consumes.
    pub fn make_writer_session(
        &self,
        reg: RegisterId,
        protocol: ProtocolConfig,
        session: SessionConfig,
    ) -> ClientSession {
        ClientSession::new(
            lucky_types::ProcessId::writer(reg),
            reg,
            self.make_writer(reg, protocol),
            session,
        )
    }

    /// Build this variant's reader with identity `id` as a ready-to-drive
    /// [`ClientSession`] for register `reg`.
    pub fn make_reader_session(
        &self,
        reg: RegisterId,
        id: ReaderId,
        protocol: ProtocolConfig,
        session: SessionConfig,
    ) -> ClientSession {
        ClientSession::new(
            lucky_types::ProcessId::Reader(id),
            reg,
            self.make_reader(reg, id, protocol),
            session,
        )
    }

    /// Build this variant's (correct) single-register server core — the
    /// building block [`RegisterMux`] instantiates per register.
    pub fn make_server(&self) -> Box<dyn ServerCore> {
        match self {
            Setup::Atomic(_) => Box::new(atomic::AtomicServer::new()),
            Setup::TwoRound(_) => Box::new(tworound::TwoRoundServer::new()),
            Setup::Regular(_) => Box::new(regular::RegularServer::new()),
            Setup::Abd { .. } => Box::new(abd::AbdServer::default()),
        }
    }

    /// Build this variant's multi-register server: a [`RegisterMux`]
    /// keeping one [`Setup::make_server`] core per register, created
    /// lazily on first contact. This is what every runtime deploys at a
    /// server's address, so one server cluster serves the whole register
    /// namespace.
    pub fn make_server_mux(&self) -> Box<dyn ServerCore> {
        Box::new(RegisterMux::new(*self))
    }

    /// Like [`Setup::make_server_mux`], with an ack-batching policy: a
    /// batch of `k` requests is answered with one batched ack message
    /// instead of `k` individual ones (when `batch.enabled`).
    pub fn make_server_mux_batched(&self, batch: lucky_types::BatchConfig) -> Box<dyn ServerCore> {
        Box::new(RegisterMux::with_batch(*self, batch))
    }

    /// Like [`Setup::make_server_mux_batched`], with a pluggable storage
    /// backend: per-register state is reloaded from `backend` on first
    /// contact and re-persisted after every delivered message, *before*
    /// any reply leaves the server — so a crash-restarted server rejoins
    /// the quorum with exactly the state its previous incarnation acked.
    pub fn make_server_mux_durable(
        &self,
        batch: lucky_types::BatchConfig,
        backend: Box<dyn lucky_log::ServerBackend>,
    ) -> Box<dyn ServerCore> {
        Box::new(RegisterMux::with_backend(*self, batch, backend))
    }

    /// Rebuild this variant's single-register server core from a
    /// [`ServerCore::snapshot`] image, or `None` when the image does not
    /// decode (callers fall back to a fresh core — the safe direction:
    /// the log layer already discarded torn records, so a non-decoding
    /// snapshot means an old-format or foreign-variant file).
    pub fn restore_server(&self, snapshot: &[u8]) -> Option<Box<dyn ServerCore>> {
        match self {
            Setup::Atomic(_) => atomic::AtomicServer::from_snapshot(snapshot)
                .ok()
                .map(|s| Box::new(s) as Box<dyn ServerCore>),
            Setup::TwoRound(_) => tworound::TwoRoundServer::from_snapshot(snapshot)
                .ok()
                .map(|s| Box::new(s) as Box<dyn ServerCore>),
            Setup::Regular(_) => regular::RegularServer::from_snapshot(snapshot)
                .ok()
                .map(|s| Box::new(s) as Box<dyn ServerCore>),
            Setup::Abd { .. } => abd::AbdServer::from_snapshot(snapshot)
                .ok()
                .map(|s| Box::new(s) as Box<dyn ServerCore>),
        }
    }
}

/// `Params` defaults to the main atomic algorithm (§3); build
/// [`Setup::Regular`] explicitly for the Appendix D variant.
impl From<Params> for Setup {
    fn from(params: Params) -> Setup {
        Setup::Atomic(params)
    }
}

impl From<TwoRoundParams> for Setup {
    fn from(params: TwoRoundParams) -> Setup {
        Setup::TwoRound(params)
    }
}
