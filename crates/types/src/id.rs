//! Process identities.
//!
//! The paper's system model (§2) has three disjoint process sets: a set of
//! `S` servers, a singleton writer, and a set of readers. [`ProcessId`]
//! is the union used for addressing messages; [`ServerId`] and [`ReaderId`]
//! are the typed indices used inside protocol state.
//!
//! A production store multiplexes many independent registers over one
//! server cluster; [`RegisterId`] names one register of that namespace.
//! Every register has its own (logical) writer — the paper's model stays
//! SWMR *per register* — addressed as [`ProcessId::writer`].

use std::fmt;

/// Name of one register in a multi-register store.
///
/// The paper emulates a single register; a store serves a whole namespace
/// of them over the same server cluster, each register an independent SWMR
/// atomic (or regular) register with its own writer, timestamps and frozen
/// slots. Single-register deployments use [`RegisterId::DEFAULT`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RegisterId(pub u32);

impl RegisterId {
    /// The register implied by the original single-register API.
    pub const DEFAULT: RegisterId = RegisterId(0);

    /// Iterator over the first `count` register ids: `0 .. count`.
    pub fn all(count: usize) -> impl Iterator<Item = RegisterId> {
        (0..count as u32).map(RegisterId)
    }

    /// Zero-based index usable for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The store-global [`ReaderId`] of this register's `j`-th reader
    /// when every register owns `readers_per_register` readers: register
    /// `x`'s readers occupy the dense id block
    /// `x.index() * readers_per_register ..`. Both runtimes' stores use
    /// this single allocation scheme, so a `(register, local reader)`
    /// pair names the same process everywhere.
    pub fn reader(self, readers_per_register: usize, j: u16) -> ReaderId {
        assert!(
            (j as usize) < readers_per_register,
            "reader index {j} out of range 0..{readers_per_register}"
        );
        ReaderId((self.index() * readers_per_register + j as usize) as u16)
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Index of a server process (`s_1 … s_S` in the paper), zero-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ServerId(pub u16);

impl ServerId {
    /// Iterator over the first `count` server ids: `0 .. count`.
    pub fn all(count: usize) -> impl Iterator<Item = ServerId> {
        (0..count as u16).map(ServerId)
    }

    /// Zero-based index usable for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Index of a reader process (`r_1 … r_R` in the paper), zero-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ReaderId(pub u16);

impl ReaderId {
    /// Iterator over the first `count` reader ids: `0 .. count`.
    pub fn all(count: usize) -> impl Iterator<Item = ReaderId> {
        (0..count as u16).map(ReaderId)
    }

    /// Zero-based index usable for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReaderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A process in the system: a writer, a reader, or a server.
///
/// The ordering (writer < readers < servers < extra writers) is arbitrary
/// but total, which the deterministic simulator relies on for reproducible
/// scheduling.
///
/// Multi-register stores give every register its own writer process.
/// [`ProcessId::Writer`] is the writer of [`RegisterId::DEFAULT`];
/// the writers of other registers are [`ProcessId::WriterOf`]. Always
/// build writer ids through [`ProcessId::writer`], which normalizes
/// `WriterOf(DEFAULT)` to `Writer` so each logical process has exactly one
/// representation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProcessId {
    /// The writer of the default register (`w` in the paper).
    Writer,
    /// Reader `r_j`.
    Reader(ReaderId),
    /// Server `s_i`.
    Server(ServerId),
    /// The writer of a non-default register in a multi-register store.
    ///
    /// Never constructed directly with [`RegisterId::DEFAULT`] — use
    /// [`ProcessId::writer`], which keeps the representation canonical.
    WriterOf(RegisterId),
}

impl ProcessId {
    /// The writer process of register `reg` (canonical representation:
    /// `ProcessId::Writer` for the default register).
    pub fn writer(reg: RegisterId) -> ProcessId {
        if reg == RegisterId::DEFAULT {
            ProcessId::Writer
        } else {
            ProcessId::WriterOf(reg)
        }
    }

    /// `true` iff this is a server process.
    pub fn is_server(self) -> bool {
        matches!(self, ProcessId::Server(_))
    }

    /// `true` iff this is a client (writer or reader).
    pub fn is_client(self) -> bool {
        !self.is_server()
    }

    /// `true` iff this is a writer process (of any register).
    pub fn is_writer(self) -> bool {
        matches!(self, ProcessId::Writer | ProcessId::WriterOf(_))
    }

    /// `true` iff this is the writer of register `reg` — the sender
    /// servers accept `PW` messages for that register from. Judged by
    /// [`ProcessId::writer_register`], so the non-canonical
    /// `WriterOf(RegisterId::DEFAULT)` spelling is still recognized.
    pub fn is_writer_of(self, reg: RegisterId) -> bool {
        self.writer_register() == Some(reg)
    }

    /// The register this process writes, if it is a writer.
    pub fn writer_register(self) -> Option<RegisterId> {
        match self {
            ProcessId::Writer => Some(RegisterId::DEFAULT),
            ProcessId::WriterOf(reg) => Some(reg),
            _ => None,
        }
    }

    /// The reader id, if this process is a reader.
    pub fn as_reader(self) -> Option<ReaderId> {
        match self {
            ProcessId::Reader(r) => Some(r),
            _ => None,
        }
    }

    /// The server id, if this process is a server.
    pub fn as_server(self) -> Option<ServerId> {
        match self {
            ProcessId::Server(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessId::Writer => write!(f, "w"),
            ProcessId::Reader(r) => write!(f, "{r}"),
            ProcessId::Server(s) => write!(f, "{s}"),
            ProcessId::WriterOf(reg) => write!(f, "w[{reg}]"),
        }
    }
}

impl From<ServerId> for ProcessId {
    fn from(s: ServerId) -> Self {
        ProcessId::Server(s)
    }
}

impl From<ReaderId> for ProcessId {
    fn from(r: ReaderId) -> Self {
        ProcessId::Reader(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_all_enumerates_in_order() {
        let ids: Vec<_> = ServerId::all(4).collect();
        assert_eq!(ids, vec![ServerId(0), ServerId(1), ServerId(2), ServerId(3)]);
    }

    #[test]
    fn reader_all_enumerates_in_order() {
        let ids: Vec<_> = ReaderId::all(2).collect();
        assert_eq!(ids, vec![ReaderId(0), ReaderId(1)]);
    }

    #[test]
    fn process_classification() {
        assert!(ProcessId::Writer.is_client());
        assert!(ProcessId::Reader(ReaderId(0)).is_client());
        assert!(ProcessId::Server(ServerId(3)).is_server());
        assert_eq!(ProcessId::Server(ServerId(3)).as_server(), Some(ServerId(3)));
        assert_eq!(ProcessId::Reader(ReaderId(1)).as_reader(), Some(ReaderId(1)));
        assert_eq!(ProcessId::Writer.as_reader(), None);
        assert_eq!(ProcessId::Writer.as_server(), None);
    }

    #[test]
    fn process_ordering_is_total_and_stable() {
        let mut v = vec![
            ProcessId::Server(ServerId(0)),
            ProcessId::Reader(ReaderId(1)),
            ProcessId::Writer,
            ProcessId::Reader(ReaderId(0)),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                ProcessId::Writer,
                ProcessId::Reader(ReaderId(0)),
                ProcessId::Reader(ReaderId(1)),
                ProcessId::Server(ServerId(0)),
            ]
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcessId::Writer.to_string(), "w");
        assert_eq!(ProcessId::Reader(ReaderId(2)).to_string(), "r2");
        assert_eq!(ProcessId::Server(ServerId(5)).to_string(), "s5");
    }

    #[test]
    fn conversions_from_typed_ids() {
        let p: ProcessId = ServerId(1).into();
        assert_eq!(p, ProcessId::Server(ServerId(1)));
        let p: ProcessId = ReaderId(1).into();
        assert_eq!(p, ProcessId::Reader(ReaderId(1)));
    }

    #[test]
    fn writer_constructor_is_canonical() {
        assert_eq!(ProcessId::writer(RegisterId::DEFAULT), ProcessId::Writer);
        assert_eq!(ProcessId::writer(RegisterId(3)), ProcessId::WriterOf(RegisterId(3)));
        assert_ne!(ProcessId::writer(RegisterId(3)), ProcessId::Writer);
    }

    #[test]
    fn writer_classification_covers_all_registers() {
        for p in [ProcessId::Writer, ProcessId::WriterOf(RegisterId(5))] {
            assert!(p.is_writer());
            assert!(p.is_client());
            assert!(!p.is_server());
        }
        assert!(!ProcessId::Reader(ReaderId(0)).is_writer());
        assert!(ProcessId::Writer.is_writer_of(RegisterId::DEFAULT));
        assert!(!ProcessId::Writer.is_writer_of(RegisterId(1)));
        assert!(ProcessId::WriterOf(RegisterId(1)).is_writer_of(RegisterId(1)));
        // The non-canonical spelling still counts as the default writer.
        assert!(ProcessId::WriterOf(RegisterId::DEFAULT).is_writer_of(RegisterId::DEFAULT));
        assert_eq!(ProcessId::Writer.writer_register(), Some(RegisterId::DEFAULT));
        assert_eq!(ProcessId::WriterOf(RegisterId(2)).writer_register(), Some(RegisterId(2)));
        assert_eq!(ProcessId::Server(ServerId(0)).writer_register(), None);
    }

    #[test]
    fn register_ids_enumerate_and_display() {
        let ids: Vec<_> = RegisterId::all(3).collect();
        assert_eq!(ids, vec![RegisterId(0), RegisterId(1), RegisterId(2)]);
        assert_eq!(RegisterId(4).to_string(), "x4");
        assert_eq!(RegisterId(4).index(), 4);
        assert_eq!(ProcessId::WriterOf(RegisterId(4)).to_string(), "w[x4]");
        assert_eq!(RegisterId::default(), RegisterId::DEFAULT);
    }

    #[test]
    fn reader_allocation_is_dense_per_register() {
        assert_eq!(RegisterId(0).reader(2, 0), ReaderId(0));
        assert_eq!(RegisterId(0).reader(2, 1), ReaderId(1));
        assert_eq!(RegisterId(3).reader(2, 0), ReaderId(6));
        assert_eq!(RegisterId(3).reader(2, 1), ReaderId(7));
        assert_eq!(RegisterId(5).reader(1, 0), ReaderId(5));
    }
}
