//! Unified zero-cost telemetry: one probe interface for every layer.
//!
//! Every component that does interesting work — the [`VcFabric`]
//! phases, the LOFT link schedulers and reservation ports, the NICs,
//! and the simulation driver itself — reports through a single
//! [`Probe`] trait instead of growing its own counters. The trait is
//! monomorphized into the fabric, so the telemetry-off configuration
//! ([`NoopProbe`], the default type parameter everywhere) compiles to
//! literally nothing: every hook is an empty `#[inline]` function and
//! every sampling scan is gated on the associated
//! [`Probe::ENABLED`] constant, which the optimizer resolves at
//! compile time. Telemetry-off runs are bit-identical to a build
//! without the probe plumbing.
//!
//! The live implementation ([`LiveProbe`]) turns the event stream
//! into the observability document a serving stack wants: per-link
//! utilization and stall counters, buffer-occupancy summaries sampled
//! on a configurable window, per-flow windowed latency/throughput
//! series, and QoS roll-ups (latency percentiles, Jain fairness, min
//! service rate). [`LiveProbe::finish`] freezes it into a
//! [`TelemetryReport`] with a versioned JSON export.
//!
//! # Profiling
//!
//! Host time per network phase goes through the same trait: a probe
//! with [`Probe::PROFILE`] set ([`PhaseProbe`], behind `sweep
//! --profile`) receives one [`Probe::on_phase`] lap per phase per
//! cycle; every other probe compiles the clock reads away.
//!
//! [`VcFabric`]: crate::fabric::VcFabric

mod live;
mod phase;
mod report;

pub use live::LiveProbe;
pub use phase::{Phase, PhaseClock, PhaseProbe};
pub use report::{
    jain_index, FlowTelemetry, TelemetryReport, WindowPoint, TELEMETRY_SCHEMA_VERSION,
};

use crate::flit::Packet;

/// The buffer classes whose occupancy the probes sample.
///
/// The meaning of the sample index depends on the class: buffer kinds
/// attached to a link use the global link index (`node * PORTS +
/// port`), per-node kinds use the node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BufKind {
    /// A virtual-channel input buffer (VC networks; occupancy in
    /// flits, indexed by the input link it sits on).
    Vc,
    /// LOFT's non-speculative central buffer (occupancy in quanta,
    /// indexed by the input link it serves).
    NonSpec,
    /// LOFT's speculative buffer (occupancy in quanta, indexed by the
    /// input link it serves).
    Spec,
    /// A source NIC's backlog — staged plus queued packets waiting to
    /// enter the network (indexed by node).
    Source,
}

impl BufKind {
    /// Number of buffer classes (for dense per-kind tables).
    pub const COUNT: usize = 4;

    /// Every buffer class, in index order.
    pub const ALL: [BufKind; BufKind::COUNT] = [
        BufKind::Vc,
        BufKind::NonSpec,
        BufKind::Spec,
        BufKind::Source,
    ];

    /// Dense index of this class, `0..COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case class name used in the JSON export.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BufKind::Vc => "vc",
            BufKind::NonSpec => "nonspec",
            BufKind::Spec => "spec",
            BufKind::Source => "source",
        }
    }
}

/// The work items that leave a worklist while blocked (see
/// [`Probe::on_block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockKind {
    /// A VC router (indexed by node): each of its blocked cycles is a
    /// link stall or a VC wait at every output its [`Causes`] name.
    Router,
    /// A VC source NIC (indexed by node) whose streaming packet has no
    /// credit: each blocked cycle is a NIC stall.
    Nic,
    /// A LOFT look-ahead queue (indexed by its output link) whose pass
    /// booked nothing: each blocked cycle is a scheduler denial.
    Lookahead,
}

impl BlockKind {
    /// Number of kinds (for dense per-kind tables).
    pub const COUNT: usize = 3;

    /// Every kind, in index order.
    pub const ALL: [BlockKind; BlockKind::COUNT] =
        [BlockKind::Router, BlockKind::Nic, BlockKind::Lookahead];

    /// Dense index of this kind, `0..COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a blocked VC router waits for, one bit per output port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Causes {
    /// Outputs whose switch-ready flits all wait for credit.
    pub credit: u8,
    /// Outputs whose VC requests all wait for a held VC.
    pub vc: u8,
}

/// Packet-level telemetry events, shared by every consumer of the
/// simulation's output: the statistics collector behind [`SimReport`]
/// implements exactly this trait, and every full [`Probe`] extends
/// it. Defaults are empty so implementors opt into the events they
/// care about.
///
/// [`SimReport`]: crate::stats::SimReport
pub trait PacketProbe {
    /// A packet entered a source queue (called once per packet, at
    /// creation time).
    fn on_generated(&mut self, packet: &Packet) {
        let _ = packet;
    }

    /// A packet fully left the network (its last flit or quantum was
    /// ejected and the packet reassembled).
    fn on_delivered(&mut self, packet: &Packet) {
        let _ = packet;
    }
}

/// The fabric-level probe interface, monomorphized into the networks.
///
/// All event hooks default to empty bodies; [`NoopProbe`] overrides
/// nothing, so a telemetry-off network inlines every call away.
/// Components gate *scans* (work done only to produce telemetry, like
/// walking every buffer for an occupancy sample) on
/// [`Probe::ENABLED`] so the disabled configuration does not even
/// loop.
///
/// Link arguments are global link indices: `node * PORTS + port`,
/// with `port` the *output* direction at `node` (see
/// [`crate::fabric::PORTS`]).
pub trait Probe: PacketProbe + std::fmt::Debug + Send {
    /// Whether this probe observes anything at all. `false` lets the
    /// fabric skip telemetry-only work at compile time.
    const ENABLED: bool;

    /// Whether the networks should time their phases for this probe
    /// (see [`PhaseClock`]). `false` keeps every clock read out of the
    /// stepping code at compile time.
    const PROFILE: bool = false;

    /// Whether buffer occupancy should be sampled at `cycle`.
    /// Components ask once per cycle and emit [`Probe::on_occupancy`]
    /// for every buffer they own when it returns `true`.
    #[must_use]
    fn sample_due(&self, cycle: u64) -> bool {
        let _ = cycle;
        false
    }

    /// `flits` flits crossed `link` this cycle (LOFT reports whole
    /// data quanta, so its per-event count is `flits_per_quantum`).
    fn on_link_flits(&mut self, link: usize, flits: u32) {
        let _ = (link, flits);
    }

    /// An output link with traffic ready to go could not forward this
    /// cycle (switch allocation failed, or LOFT's buffer-space check
    /// denied the move). Reported for visited routers only: a blocked
    /// router's stalls arrive settled, through [`Probe::on_block`].
    fn on_link_stall(&mut self, link: usize) {
        let _ = link;
    }

    /// A source NIC with a packet to inject was blocked this cycle
    /// (no credit, or no free central-buffer slot). Reported for
    /// visited NICs only: a blocked VC NIC's stalls arrive settled,
    /// through [`Probe::on_block`].
    fn on_nic_stall(&mut self, node: usize) {
        let _ = node;
    }

    /// A head flit waited this cycle for a VC of output `link`, every
    /// one of which is held (VC allocation found requests but nothing
    /// to grant). Reported for visited routers only: a blocked
    /// router's waits arrive settled, through [`Probe::on_block`].
    fn on_vc_wait(&mut self, link: usize) {
        let _ = link;
    }

    /// The `kind` item at `index` left its worklist blocked at the end
    /// of its visit in `cycle`, waiting for `causes` (a router's; empty
    /// for the other kinds). Until it is visited again, every cycle it
    /// misses is one stall, wait or denial per cause — a backlogged
    /// period whose count is its length — which the probe settles at
    /// that visit ([`Probe::on_visit`]) or at the end of the run.
    fn on_block(&mut self, kind: BlockKind, index: usize, causes: Causes, cycle: u64) {
        let _ = (kind, index, causes, cycle);
    }

    /// The `kind` item at `index` is visited in `cycle`: it is on its
    /// worklist, so any blocked span it had ends here, and this visit
    /// reports its own stalls.
    fn on_visit(&mut self, kind: BlockKind, index: usize, cycle: u64) {
        let _ = (kind, index, cycle);
    }

    /// A link scheduler booked a reservation on `link` (LOFT's LSF
    /// accepting a lookahead).
    fn on_sched_book(&mut self, link: usize) {
        let _ = link;
    }

    /// A link scheduler had lookahead work queued for `link` but
    /// could not book it this pass. Reported for visited queues only:
    /// a parked queue's denials arrive settled, through
    /// [`Probe::on_block`].
    fn on_sched_deny(&mut self, link: usize) {
        let _ = link;
    }

    /// `link` performed a local status reset (LOFT's idle-link
    /// resynchronization).
    fn on_link_reset(&mut self, link: usize) {
        let _ = link;
    }

    /// An occupancy sample: the buffer of class `kind` at `index`
    /// currently holds `occupied` units (flits, quanta, or packets —
    /// see [`BufKind`]).
    fn on_occupancy(&mut self, kind: BufKind, index: usize, occupied: u32) {
        let _ = (kind, index, occupied);
    }

    /// One call of `phase` took `nanos` host nanoseconds. Only
    /// reported when [`Probe::PROFILE`] is set.
    fn on_phase(&mut self, phase: Phase, nanos: u64) {
        let _ = (phase, nanos);
    }

    /// Cycle `cycle` finished. Lets the probe track elapsed time for
    /// utilization denominators without a side channel.
    fn on_cycle(&mut self, cycle: u64) {
        let _ = cycle;
    }
}

/// The telemetry-off probe: a zero-sized type whose hooks are all the
/// trait's empty defaults. With `ENABLED = false` every
/// telemetry-only scan is statically skipped, so a
/// `VcFabric<_, NoopProbe>` compiles to the same hot loop as a build
/// with no probe plumbing at all — the golden determinism pins hold
/// bit-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl PacketProbe for NoopProbe {}

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bufkind_indices_are_dense() {
        for (i, k) in BufKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn blockkind_indices_are_dense() {
        for (i, k) in BlockKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn noop_probe_defaults_are_inert() {
        let mut p = NoopProbe;
        const { assert!(!NoopProbe::ENABLED) };
        assert!(!p.sample_due(0));
        p.on_link_flits(0, 1);
        p.on_cycle(7);
        assert_eq!(p, NoopProbe);
    }
}
