//! The simulation driver: couples a traffic source to a network model
//! and gathers statistics.
//!
//! Each network architecture in this workspace (wormhole, GSF, LOFT)
//! implements [`Network`]; workload generators implement
//! [`TrafficSource`]. [`Simulation::run`] then executes the standard
//! methodology: warmup, a measurement window, and a bounded drain
//! phase, producing a [`SimReport`].

use crate::flit::Packet;
use crate::stats::{SimReport, StatsCollector};
use crate::telemetry::PacketProbe;

/// A cycle-driven network model.
///
/// Implementations own their source queues: [`Network::enqueue`]
/// places a freshly generated packet into the source NIC, and
/// [`Network::step`] advances the whole network one cycle, appending
/// any packets whose last flit reached its destination PE to
/// `delivered` (with `injected_at`/`ejected_at` filled in).
pub trait Network {
    /// Number of nodes in the network.
    fn num_nodes(&self) -> usize;

    /// Current cycle (number of completed [`Network::step`] calls).
    fn cycle(&self) -> u64;

    /// Queues a packet in the source queue of `packet.src`.
    ///
    /// Source queues are unbounded, matching the methodology of the
    /// paper (offered load beyond saturation accumulates at sources
    /// and shows up as source-queue latency).
    fn enqueue(&mut self, packet: Packet);

    /// Advances one cycle; delivered packets are appended to `out`.
    fn step(&mut self, out: &mut Vec<Packet>);

    /// Number of packets currently inside the network or its source
    /// queues (used to terminate the drain phase early).
    fn in_flight(&self) -> usize;

    /// Attempts to advance `cycles` cycles at once while the network
    /// is quiescent, returning how many cycles were actually jumped
    /// (`0` declines the jump and the driver falls back to
    /// [`Network::step`]).
    ///
    /// The contract is bit-identity: a successful jump must leave the
    /// network in exactly the state `cycles` idle `step` calls would
    /// have produced — including every time-dependent side effect
    /// (frame-window recycling, slot-pointer advancement, telemetry
    /// clock ticks and due occupancy samples). Implementations only
    /// accept when they can prove quiescence (nothing in flight, no
    /// wire/credit/worklist activity); the default declines always,
    /// so custom networks are unaffected until they opt in.
    fn fast_forward(&mut self, cycles: u64) -> u64 {
        let _ = cycles;
        0
    }
}

/// A workload: generates packets cycle by cycle.
pub trait TrafficSource {
    /// Number of flows this source generates for (flow ids are dense
    /// in `0..num_flows`).
    fn num_flows(&self) -> usize;

    /// Appends the packets generated at `cycle` to `out`, with
    /// `created_at == cycle`.
    fn generate(&mut self, cycle: u64, out: &mut Vec<Packet>);

    /// Returns the earliest cycle in `from..limit` at which this
    /// source will generate a packet, or `limit` if it stays silent
    /// for the whole span — consuming exactly the per-cycle RNG draws
    /// [`TrafficSource::generate`] would have consumed for the cycles
    /// it rules out, so a subsequent `generate` at the returned cycle
    /// (and beyond) produces the identical packet stream.
    ///
    /// The default returns `from` ("might fire right now"), which
    /// disables idle skipping without constraining implementations.
    fn next_active_cycle(&mut self, from: u64, limit: u64) -> u64 {
        let _ = limit;
        from
    }
}

/// Phases of a simulation run, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Cycles before measurement starts (network reaches steady state).
    pub warmup: u64,
    /// Length of the measurement window.
    pub measure: u64,
    /// Maximum extra cycles after the window during which traffic
    /// keeps being generated and in-flight packets may still complete
    /// (bounds latency samples for packets created late in the
    /// window).
    pub drain: u64,
}

impl RunConfig {
    /// A short configuration suitable for unit tests.
    pub fn short() -> Self {
        RunConfig {
            warmup: 1_000,
            measure: 5_000,
            drain: 5_000,
        }
    }

    /// The paper-scale configuration used by the experiment harness.
    pub fn paper() -> Self {
        RunConfig {
            warmup: 20_000,
            measure: 100_000,
            drain: 50_000,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::short()
    }
}

/// Bookkeeping about how a run executed (as opposed to what it
/// measured — that is the [`SimReport`]). Deliberately *not* part of
/// the report: a fast-forwarded run and a stepped run produce equal
/// reports, and this is where the difference between them is allowed
/// to show.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunInfo {
    /// Idle cycles jumped by quiescence fast-forward instead of being
    /// stepped (0 when disabled or never quiescent).
    pub skipped_cycles: u64,
    /// The cycle at which the run terminated: the full
    /// warmup+measure+drain span, or earlier when the drain phase
    /// found the network empty.
    pub end_cycle: u64,
}

/// Drives one network with one traffic source.
///
/// # Example
///
/// See the `noc-wormhole`, `noc-gsf`, and `loft` crates for concrete
/// networks; each of their crate-level docs contains a full
/// `Simulation` example.
#[derive(Debug)]
pub struct Simulation<N, T> {
    network: N,
    traffic: T,
    config: RunConfig,
    fast_forward: bool,
}

impl<N: Network, T: TrafficSource> Simulation<N, T> {
    /// Creates a simulation. Quiescence fast-forward is enabled by
    /// default — it is bit-identical to plain stepping, so there is
    /// no observable difference beyond wall-clock time; disable it
    /// with [`Simulation::with_fast_forward`] to measure that claim.
    pub fn new(network: N, traffic: T, config: RunConfig) -> Self {
        Simulation {
            network,
            traffic,
            config,
            fast_forward: true,
        }
    }

    /// Enables or disables quiescence fast-forward (see
    /// [`Simulation::run_full`]).
    #[must_use]
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Runs warmup + measurement + drain and returns the report.
    ///
    /// During warmup and measurement the traffic source is consulted
    /// every cycle; during drain it continues to run (keeping the
    /// network in steady state) but newly created packets no longer
    /// fall inside the measurement window. The drain phase ends early
    /// once the network is empty.
    pub fn run(self) -> SimReport {
        self.run_full(|| {}).0
    }

    /// Like [`Simulation::run`], with everything a harness needs
    /// around the report:
    ///
    /// * `after_warmup` is invoked once at the warmup/measurement
    ///   boundary, before the first measured cycle — where a
    ///   from-scratch allocation measurement snapshots its counter,
    ///   after the network's buffers and slabs have grown to steady
    ///   state;
    /// * the network is handed back, so telemetry callers can extract
    ///   the probe threaded through it (via its `into_probe`);
    /// * a [`RunInfo`] carries the run's execution bookkeeping (cycles
    ///   skipped by fast-forward, drain-termination cycle).
    ///
    /// The driver feeds packet events to the statistics collector
    /// through the [`PacketProbe`] interface — the same event stream
    /// a network-level telemetry probe sees — so every consumer of
    /// run results observes identical packet lifecycles.
    ///
    /// # Quiescence fast-forward
    ///
    /// Whenever the network reports nothing in flight, the driver
    /// asks the traffic source for its next active cycle (a scan that
    /// consumes exactly the per-cycle RNG draws plain generation
    /// would) and offers the network the whole idle span via
    /// [`Network::fast_forward`]. Jump targets are clamped to the
    /// warmup/measure/drain phase boundaries, so the warmup hook
    /// fires at the same cycle and the drain-termination check runs
    /// against the same states as a plain run. A network may decline
    /// (residual wire or credit activity); the driver then steps
    /// normally and retries next cycle. Results are bit-identical
    /// either way — only `RunInfo::skipped_cycles` and the wall clock
    /// differ.
    pub fn run_full(self, mut after_warmup: impl FnMut()) -> (SimReport, N, RunInfo) {
        let mut state = self.into_engine_state();
        state.drive(u64::MAX, &mut after_warmup);
        state.finish()
    }

    /// Runs the warmup phase and freezes the simulation at the
    /// warmup/measurement boundary as a
    /// [`Checkpoint`](crate::checkpoint::Checkpoint): the network,
    /// traffic source, and statistics state are all captured, so the
    /// checkpoint can be forked into any number of measurement runs
    /// that each resume from the identical warmed-up state — each
    /// bit-identical to a from-scratch run with the same settings.
    pub fn run_to_checkpoint(self) -> crate::checkpoint::Checkpoint<N, T> {
        crate::checkpoint::Checkpoint::capture(self)
    }

    /// Decomposes into the resumable engine state, positioned at
    /// cycle 0 with a fresh statistics collector.
    pub(crate) fn into_engine_state(self) -> EngineState<N, T> {
        let stats = StatsCollector::new(
            self.traffic.num_flows(),
            self.network.num_nodes(),
            self.config.warmup,
            self.config.measure,
        );
        EngineState {
            network: self.network,
            traffic: self.traffic,
            config: self.config,
            fast_forward: self.fast_forward,
            stats,
            cycle: 0,
            skipped_cycles: 0,
        }
    }
}

/// The mid-run state of a simulation: everything [`Simulation::run_full`]'s
/// loop owns, factored out so a run can stop at a phase boundary, be
/// cloned, and resumed later (the substrate of
/// [`crate::checkpoint::Checkpoint`]).
///
/// `Clone` (available when the network and traffic source are
/// `Clone`) snapshots the *entire* observable simulation — slab,
/// wires, RNG streams, statistics, clocks — so a clone resumed from
/// here is indistinguishable from the original continuing.
#[derive(Debug, Clone)]
pub(crate) struct EngineState<N, T> {
    pub(crate) network: N,
    pub(crate) traffic: T,
    pub(crate) config: RunConfig,
    pub(crate) fast_forward: bool,
    pub(crate) stats: StatsCollector,
    pub(crate) cycle: u64,
    pub(crate) skipped_cycles: u64,
}

impl<N: Network, T: TrafficSource> EngineState<N, T> {
    /// Advances the run up to (not past) cycle `stop`, or to the
    /// run's natural end — the drain bound, or the first drain cycle
    /// that starts with an empty network — whichever comes first.
    ///
    /// The loop body is exactly the pre-checkpoint `run_full` loop;
    /// `stop` only tightens the loop bound. Stopping at the warmup
    /// boundary exits *before* the `cycle == warmup` iteration runs,
    /// so `after_warmup` has not fired yet and a later `drive` call
    /// fires it at the same cycle a straight-through run would —
    /// splitting a run at any cycle is unobservable in the results.
    /// Fast-forward jump targets are clamped to phase boundaries,
    /// which `stop` always is for checkpoints, so a jump never
    /// overshoots `stop` either.
    pub(crate) fn drive(&mut self, stop: u64, after_warmup: &mut dyn FnMut()) {
        let mut fresh = Vec::new();
        let mut delivered = Vec::new();
        let warmup = self.config.warmup;
        let horizon = warmup + self.config.measure;
        let end = (horizon + self.config.drain).min(stop);
        while self.cycle < end {
            if self.cycle == warmup {
                after_warmup();
            }
            // Drain termination: decided on the state the previous
            // cycle's delivered batch left behind, before this cycle
            // generates anything — a drain-phase packet created this
            // cycle cannot resurrect an already-empty network.
            if self.cycle >= horizon && self.network.in_flight() == 0 {
                break;
            }
            if self.fast_forward && self.network.in_flight() == 0 {
                // An empty network in the drain phase broke out
                // above, so only the warmup and measure phases can
                // fast-forward — and never across their boundaries.
                debug_assert!(self.cycle < horizon);
                let bound = if self.cycle < warmup { warmup } else { horizon };
                let target = self.traffic.next_active_cycle(self.cycle, bound);
                debug_assert!(
                    (self.cycle..=bound).contains(&target),
                    "next_active_cycle out of range"
                );
                if target > self.cycle {
                    let jumped = self.network.fast_forward(target - self.cycle);
                    debug_assert!(jumped <= target - self.cycle, "network overshot the jump");
                    if jumped > 0 {
                        self.skipped_cycles += jumped;
                        self.cycle += jumped;
                        continue;
                    }
                }
            }
            fresh.clear();
            self.traffic.generate(self.cycle, &mut fresh);
            for p in fresh.drain(..) {
                debug_assert_eq!(p.created_at, self.cycle);
                self.stats.on_generated(&p);
                self.network.enqueue(p);
            }
            delivered.clear();
            self.network.step(&mut delivered);
            for p in delivered.drain(..) {
                self.stats.on_delivered(&p);
            }
            self.cycle += 1;
        }
    }

    /// Finalizes into the run's results.
    pub(crate) fn finish(self) -> (SimReport, N, RunInfo) {
        (
            self.stats.finish(),
            self.network,
            RunInfo {
                skipped_cycles: self.skipped_cycles,
                end_cycle: self.cycle,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlowId, NodeId, Packet, PacketId};

    /// A trivial network: fixed 10-cycle pipeline per packet.
    #[derive(Debug, Default)]
    struct DelayLine {
        cycle: u64,
        queue: Vec<Packet>,
    }

    impl Network for DelayLine {
        fn num_nodes(&self) -> usize {
            2
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn enqueue(&mut self, mut packet: Packet) {
            packet.injected_at = Some(self.cycle);
            self.queue.push(packet);
        }
        fn step(&mut self, out: &mut Vec<Packet>) {
            self.cycle += 1;
            let cycle = self.cycle;
            let mut i = 0;
            while i < self.queue.len() {
                if cycle >= self.queue[i].created_at + 10 {
                    let mut p = self.queue.swap_remove(i);
                    p.ejected_at = Some(cycle);
                    out.push(p);
                } else {
                    i += 1;
                }
            }
        }
        fn in_flight(&self) -> usize {
            self.queue.len()
        }
    }

    /// One packet every `period` cycles on flow 0.
    #[derive(Debug)]
    struct Periodic {
        period: u64,
        seq: u64,
    }

    impl TrafficSource for Periodic {
        fn num_flows(&self) -> usize {
            1
        }
        fn generate(&mut self, cycle: u64, out: &mut Vec<Packet>) {
            if cycle.is_multiple_of(self.period) {
                out.push(Packet::new(
                    PacketId {
                        flow: FlowId::new(0),
                        seq: self.seq,
                    },
                    NodeId::new(0),
                    NodeId::new(1),
                    4,
                    cycle,
                ));
                self.seq += 1;
            }
        }
    }

    #[test]
    fn delay_line_latency_is_ten() {
        let sim = Simulation::new(
            DelayLine::default(),
            Periodic { period: 20, seq: 0 },
            RunConfig {
                warmup: 100,
                measure: 1_000,
                drain: 100,
            },
        );
        let report = sim.run();
        assert_eq!(report.avg_latency(), 10.0);
        assert_eq!(report.total_latency.count(), 50);
        // 50 packets * 4 flits / 1000 cycles / 2 nodes
        assert!((report.throughput_per_node() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn drain_bound_is_respected() {
        // A network that never delivers must still terminate at the
        // drain bound.
        #[derive(Debug, Default)]
        struct BlackHole {
            cycle: u64,
            swallowed: usize,
        }
        impl Network for BlackHole {
            fn num_nodes(&self) -> usize {
                1
            }
            fn cycle(&self) -> u64 {
                self.cycle
            }
            fn enqueue(&mut self, _p: Packet) {
                self.swallowed += 1;
            }
            fn step(&mut self, _out: &mut Vec<Packet>) {
                self.cycle += 1;
            }
            fn in_flight(&self) -> usize {
                self.swallowed
            }
        }
        let report = Simulation::new(
            BlackHole::default(),
            Periodic { period: 10, seq: 0 },
            RunConfig {
                warmup: 0,
                measure: 100,
                drain: 50,
            },
        )
        .run();
        assert_eq!(report.total_latency.count(), 0);
        assert_eq!(report.flits_delivered, 0);
    }

    #[test]
    fn hook_fires_once_at_measurement_start() {
        let mut fired = 0;
        let sim = Simulation::new(
            DelayLine::default(),
            Periodic { period: 20, seq: 0 },
            RunConfig {
                warmup: 100,
                measure: 1_000,
                drain: 100,
            },
        );
        let (report, _, _) = sim.run_full(|| fired += 1);
        assert_eq!(fired, 1, "hook must fire exactly once");
        // The hooked run produces the same report as a plain run.
        assert_eq!(report.avg_latency(), 10.0);
        assert_eq!(report.total_latency.count(), 50);
    }

    /// Drain termination is part of the pinned observable behaviour:
    /// the run must end at the first drain cycle that starts with an
    /// empty network (a packet generated *during* drain keeps the
    /// drain alive, but cannot resurrect a network already observed
    /// empty). These counts gate the loop restructure that added
    /// fast-forward.
    #[test]
    fn drain_termination_cycles_are_pinned() {
        // Packet at cycle 0 delivers at cycle 10; the drain check at
        // cycle 10 sees an empty network and stops, long before the
        // drain bound and before the period-20 source fires again.
        let (report, _, info) = Simulation::new(
            DelayLine::default(),
            Periodic { period: 20, seq: 0 },
            RunConfig {
                warmup: 0,
                measure: 10,
                drain: 1_000_000,
            },
        )
        .run_full(|| {});
        assert_eq!(info.end_cycle, 10);
        assert_eq!(report.total_latency.count(), 1);

        // Packets at 0, 7, 14: the one created at 7 is still in
        // flight when the drain bound (cycle 15) lands, so the run
        // uses the whole drain allowance.
        let (_, _, info) = Simulation::new(
            DelayLine::default(),
            Periodic { period: 7, seq: 0 },
            RunConfig {
                warmup: 0,
                measure: 10,
                drain: 5,
            },
        )
        .run_full(|| {});
        assert_eq!(info.end_cycle, 15);
    }

    /// A delay line that accepts quiescence jumps, plus a periodic
    /// source with a closed-form next-active scan: the fast-forwarded
    /// run must reproduce the stepped run's report exactly while
    /// actually skipping cycles.
    #[test]
    fn fast_forward_matches_stepped_run() {
        #[derive(Debug, Default)]
        struct FfDelayLine(DelayLine);
        impl Network for FfDelayLine {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn cycle(&self) -> u64 {
                self.0.cycle()
            }
            fn enqueue(&mut self, packet: Packet) {
                self.0.enqueue(packet);
            }
            fn step(&mut self, out: &mut Vec<Packet>) {
                self.0.step(out);
            }
            fn in_flight(&self) -> usize {
                self.0.in_flight()
            }
            fn fast_forward(&mut self, cycles: u64) -> u64 {
                assert!(self.0.queue.is_empty(), "jumped a busy network");
                self.0.cycle += cycles;
                cycles
            }
        }

        #[derive(Debug)]
        struct ScanPeriodic(Periodic);
        impl TrafficSource for ScanPeriodic {
            fn num_flows(&self) -> usize {
                self.0.num_flows()
            }
            fn generate(&mut self, cycle: u64, out: &mut Vec<Packet>) {
                self.0.generate(cycle, out);
            }
            fn next_active_cycle(&mut self, from: u64, limit: u64) -> u64 {
                let next = from.div_ceil(self.0.period) * self.0.period;
                next.min(limit)
            }
        }

        let run = RunConfig {
            warmup: 100,
            measure: 1_000,
            drain: 100,
        };
        let make = |ff| {
            Simulation::new(
                FfDelayLine::default(),
                ScanPeriodic(Periodic { period: 20, seq: 0 }),
                run,
            )
            .with_fast_forward(ff)
        };
        let (stepped, _, stepped_info) = make(false).run_full(|| {});
        let (jumped, _, jumped_info) = make(true).run_full(|| {});
        assert_eq!(stepped, jumped, "fast-forward changed the report");
        assert_eq!(stepped_info.skipped_cycles, 0);
        assert!(
            jumped_info.skipped_cycles > 400,
            "only skipped {} cycles",
            jumped_info.skipped_cycles
        );
        assert_eq!(stepped_info.end_cycle, jumped_info.end_cycle);
        assert_eq!(jumped.avg_latency(), 10.0);
    }

    #[test]
    fn drain_stops_when_empty() {
        let sim = Simulation::new(
            DelayLine::default(),
            Periodic {
                period: 1_000_000,
                seq: 0,
            },
            RunConfig {
                warmup: 0,
                measure: 10,
                drain: 1_000_000,
            },
        );
        // Must terminate promptly despite the huge drain bound.
        let report = sim.run();
        assert_eq!(report.total_latency.count(), 1);
    }
}
