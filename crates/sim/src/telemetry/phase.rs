//! The in-program phase profiler: host time per network phase.
//!
//! `Network::step` is one opaque span to anything timing from outside
//! the trait. A probe with [`Probe::PROFILE`] set makes the networks
//! read the clock at every phase boundary and report the laps through
//! [`Probe::on_phase`]; for every other probe (`NoopProbe`,
//! `LiveProbe`) [`PhaseClock`] is a compile-time `None` and the
//! stepping code contains no clock read at all.

use std::time::Instant;

use super::{PacketProbe, Probe};
use crate::json;

/// A phase of one network's cycle, as timed by [`PhaseClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// VC fabric: the policy's serial `pre_inject` hook.
    PreInject,
    /// VC fabric: link arrivals written into input VC buffers.
    DeliverArrivals,
    /// VC fabric: returned credits applied.
    ApplyCredits,
    /// VC fabric: NICs stream source packets into the local port.
    NicInject,
    /// VC fabric: the policy's VC allocation.
    VcAllocate,
    /// VC fabric: switch allocation, traversal and ejection.
    SwitchTraverse,
    /// LOFT: data-quantum arrivals and NIC injection at a slot
    /// boundary.
    DataPhase,
    /// LOFT: data quanta forwarded over booked links.
    DataMove,
    /// LOFT: local status reset of idle links.
    ResetIdleLinks,
    /// LOFT: look-ahead flits delivered off the wires.
    LaDeliver,
    /// LOFT: look-ahead flits booked by the link schedulers.
    LaSchedule,
    /// LOFT: new look-ahead flits launched by the NICs.
    LaLaunch,
}

impl Phase {
    /// Number of phases (for dense per-phase tables).
    pub const COUNT: usize = 12;

    /// The phases of a [`crate::fabric::VcFabric`] cycle, in order.
    pub const VC: [Phase; 6] = [
        Phase::PreInject,
        Phase::DeliverArrivals,
        Phase::ApplyCredits,
        Phase::NicInject,
        Phase::VcAllocate,
        Phase::SwitchTraverse,
    ];

    /// The phases of a LOFT cycle, in order.
    pub const LOFT: [Phase; 6] = [
        Phase::DataPhase,
        Phase::DataMove,
        Phase::ResetIdleLinks,
        Phase::LaDeliver,
        Phase::LaSchedule,
        Phase::LaLaunch,
    ];

    /// Dense index of this phase, `0..COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Snake-case phase name used in `sweep --profile` rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::PreInject => "pre_inject",
            Phase::DeliverArrivals => "deliver_arrivals",
            Phase::ApplyCredits => "apply_credits",
            Phase::NicInject => "nic_inject",
            Phase::VcAllocate => "vc_allocate",
            Phase::SwitchTraverse => "switch_traverse",
            Phase::DataPhase => "data_phase",
            Phase::DataMove => "data_move",
            Phase::ResetIdleLinks => "reset_idle_links",
            Phase::LaDeliver => "la_deliver",
            Phase::LaSchedule => "la_schedule",
            Phase::LaLaunch => "la_launch",
        }
    }
}

/// A lap timer over consecutive phases: one clock read per phase
/// boundary when the probe profiles, none at all otherwise
/// (`Pr::PROFILE` is a constant, so the `Option` folds away).
#[derive(Debug)]
pub struct PhaseClock(Option<Instant>);

impl PhaseClock {
    /// Starts timing iff `Pr` profiles.
    #[inline]
    #[must_use]
    pub fn start<Pr: Probe>() -> Self {
        PhaseClock(Pr::PROFILE.then(Instant::now))
    }

    /// Reports the time since the previous lap (or the start) as one
    /// call of `phase`, and restarts the lap.
    #[inline]
    pub fn lap<Pr: Probe>(&mut self, probe: &mut Pr, phase: Phase) {
        if let Some(since) = self.0 {
            let now = Instant::now();
            probe.on_phase(phase, (now - since).as_nanos() as u64);
            self.0 = Some(now);
        }
    }
}

/// The profiling probe: sums host nanoseconds and call counts per
/// [`Phase`], and counts stepped cycles. Observes nothing else
/// (`ENABLED` is `false`), so the simulated run is the `NoopProbe`
/// run plus clock reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProbe {
    /// Host nanoseconds per phase, indexed by [`Phase::index`].
    pub nanos: [u64; Phase::COUNT],
    /// Timed calls per phase, indexed by [`Phase::index`].
    pub calls: [u64; Phase::COUNT],
    /// Cycles stepped. Idle spans the engine fast-forwards are stepped
    /// too, so this is every cycle of the run and their phases are
    /// timed.
    pub cycles: u64,
}

impl PhaseProbe {
    /// Writes `phases` as the two `sweep --profile` row fields,
    /// `phase_ns_per_cycle` and `phase_share`: mean host nanoseconds
    /// per stepped cycle, and each phase's share of the listed phases'
    /// total.
    pub fn write_fields(&self, phases: &[Phase], row: &mut json::Object<'_>) {
        let total: u64 = phases.iter().map(|p| self.nanos[p.index()]).sum();
        let per = |scale: u64, digits: usize| {
            move |o: &mut json::Object<'_>| {
                for p in phases {
                    let v = self.nanos[p.index()] as f64 / scale.max(1) as f64;
                    o.field(p.name(), json::Value::Fixed(v, digits));
                }
            }
        };
        row.object("phase_ns_per_cycle", per(self.cycles, 1))
            .object("phase_share", per(total, 4));
    }
}

impl PacketProbe for PhaseProbe {}

impl Probe for PhaseProbe {
    const ENABLED: bool = false;
    const PROFILE: bool = true;

    #[inline]
    fn on_phase(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
        self.calls[phase.index()] += 1;
    }

    #[inline]
    fn on_cycle(&mut self, _cycle: u64) {
        self.cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NoopProbe;

    #[test]
    fn phase_indices_are_dense_and_lists_partition_them() {
        let all: Vec<Phase> = Phase::VC.iter().chain(&Phase::LOFT).copied().collect();
        assert_eq!(all.len(), Phase::COUNT);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn clock_is_inert_without_profile() {
        let mut clock = PhaseClock::start::<NoopProbe>();
        assert!(clock.0.is_none());
        clock.lap(&mut NoopProbe, Phase::SwitchTraverse);
    }

    #[test]
    fn laps_accumulate_per_phase() {
        let mut probe = PhaseProbe::default();
        let mut clock = PhaseClock::start::<PhaseProbe>();
        clock.lap(&mut probe, Phase::VcAllocate);
        clock.lap(&mut probe, Phase::VcAllocate);
        probe.on_cycle(0);
        let before = probe.nanos[Phase::VcAllocate.index()];
        probe.on_phase(Phase::VcAllocate, 5);
        probe.on_phase(Phase::SwitchTraverse, 7);
        assert_eq!(probe.calls[Phase::VcAllocate.index()], 3);
        assert_eq!(probe.nanos[Phase::VcAllocate.index()], before + 5);
        assert_eq!(probe.nanos[Phase::SwitchTraverse.index()], 7);
        assert_eq!(probe.cycles, 1);
        let json = json::object(|row| {
            probe.write_fields(&[Phase::VcAllocate, Phase::SwitchTraverse], row);
        });
        assert!(json.starts_with("{\"phase_ns_per_cycle\":{\"vc_allocate\":"));
        assert!(json.contains("\"phase_share\":{\"vc_allocate\":"));
    }
}
