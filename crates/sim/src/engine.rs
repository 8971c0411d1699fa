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

    /// Advances `cycles` cycles over an idle span: the engine calls
    /// this when nothing is in flight and the traffic source is silent
    /// until `cycle() + cycles`. The provided method steps the network
    /// once per cycle, so every time-dependent side effect (frame
    /// recycling, trailing credits and wires, local resets, telemetry
    /// samples and clock ticks) happens exactly as in a plain run; with
    /// nothing in flight, nothing can be delivered. Returns `cycles`.
    fn fast_forward(&mut self, cycles: u64) -> u64 {
        debug_assert_eq!(self.in_flight(), 0, "fast-forward over a busy network");
        let mut delivered = Vec::new();
        for _ in 0..cycles {
            self.step(&mut delivered);
        }
        debug_assert!(delivered.is_empty(), "an idle span delivered packets");
        cycles
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
/// the report: a run with fast-forward on and one with it off produce
/// equal reports, and this is where the difference between them is
/// allowed to show.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunInfo {
    /// Idle cycles the engine passed over without consulting the
    /// traffic source or the statistics, because nothing was in flight
    /// and no packet was due (0 when disabled). The network still
    /// steps each of them, through [`Network::fast_forward`].
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
    /// with [`Simulation::with_fast_forward`].
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
    /// * a [`RunInfo`] carries the run's execution bookkeeping (idle
    ///   cycles fast-forwarded, drain-termination cycle).
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
    /// would) and hands the network the whole idle span via
    /// [`Network::fast_forward`], which steps it. Jump targets are
    /// clamped to the warmup/measure/drain phase boundaries, so the
    /// warmup hook fires at the same cycle and the drain-termination
    /// check runs against the same states as a plain run. Results are
    /// bit-identical either way — only `RunInfo::skipped_cycles` and
    /// the wall clock differ.
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
                    debug_assert_eq!(jumped, target - self.cycle, "network declined the span");
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
    use crate::flit::Packet;
    use crate::test_doubles::{DelayLine, Periodic};

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

    /// A fast-forwarded run must reproduce the stepped run's report
    /// exactly while actually skipping cycles.
    #[test]
    fn fast_forward_matches_stepped_run() {
        let run = RunConfig {
            warmup: 100,
            measure: 1_000,
            drain: 100,
        };
        let make = |ff| {
            Simulation::new(DelayLine::default(), Periodic { period: 20, seq: 0 }, run)
                .with_fast_forward(ff)
        };
        let (stepped, stepped_net, stepped_info) = make(false).run_full(|| {});
        let (jumped, jumped_net, jumped_info) = make(true).run_full(|| {});
        assert_eq!(stepped, jumped, "fast-forward changed the report");
        assert_eq!(stepped_info.skipped_cycles, 0);
        assert!(
            jumped_info.skipped_cycles > 400,
            "only skipped {} cycles",
            jumped_info.skipped_cycles
        );
        assert_eq!(stepped_info.end_cycle, jumped_info.end_cycle);
        assert_eq!(stepped_net.cycle(), jumped_net.cycle());
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
