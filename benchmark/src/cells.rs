//! Cells — (network, scenario, `RunConfig`) triples — and everything
//! the harness does to one: warm it to a checkpoint, time a
//! fork→resume repetition, re-run it from scratch, through the traced
//! loop, and with a `LiveProbe` attached.

use std::time::Instant;

use loft::LoftConfig;
use loft_bench::TELEMETRY_WINDOW;
use noc_sim::telemetry::{LiveProbe, NoopProbe, TelemetryReport};
use noc_sim::{Checkpoint, RunConfig, RunInfo, SimReport, Simulation};
use noc_traffic::{DestRule, Scenario, Workload};

use crate::net::NetKind;
use crate::trace::{traced_run, CellTrace};

/// Heap allocations so far; 0 unless the traced build's counting
/// allocator is compiled in.
pub fn allocs() -> u64 {
    #[cfg(feature = "alloc-count")]
    return loft_bench::alloc_count::total();
    #[cfg(not(feature = "alloc-count"))]
    0
}

/// Which paper figure a cell reproduces, if any (selects the fidelity
/// metrics and QoS checks computed from its report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Plain,
    Fig10a,
    Fig11a,
    Fig12,
    Fig13,
}

/// Host seconds of one set-up, by step.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub workload_build: f64,
    pub net_build: f64,
    /// Workload + network construction + warmup to the checkpoint.
    pub total: f64,
}

/// Host time and allocations of one fork→resume repetition.
#[derive(Debug, Clone, Copy)]
pub struct RepTimes {
    pub fork_secs: f64,
    pub resume_secs: f64,
    pub fork_allocs: u64,
    pub resume_allocs: u64,
}

impl RepTimes {
    pub fn secs(&self) -> f64 {
        self.fork_secs + self.resume_secs
    }
}

/// One fork→resume repetition and what it produced.
pub struct Rep {
    pub times: RepTimes,
    pub report: SimReport,
    pub info: RunInfo,
}

/// A from-scratch run with a `LiveProbe` attached.
pub struct LiveRun {
    pub report: SimReport,
    pub telemetry: TelemetryReport,
    pub run_secs: f64,
    pub finish_secs: f64,
    pub to_json_secs: f64,
}

pub trait Cell {
    fn net(&self) -> &'static str;
    fn scenario(&self) -> &Scenario;
    fn run(&self) -> RunConfig;
    fn role(&self) -> Role;
    fn loft_config(&self) -> Option<LoftConfig>;

    fn name(&self) -> String {
        format!("{}/{}", self.net(), self.scenario().name)
    }

    /// `Scenario` → `reservations` → `Network::new` →
    /// `Simulation::run_to_checkpoint`; keeps the checkpoint.
    fn setup(&mut self) -> SetupTimes;

    /// `ckpt.fork().resume()`, timed. The checkpoint is captured with
    /// fast-forward on (the engine's default); `fast_forward: false`
    /// resumes the fork stepping every cycle, for the idle probe.
    fn rep(&self, fast_forward: bool) -> Rep;

    /// `Simulation::run_full` from cycle 0, with its host seconds.
    fn scratch(&self) -> (SimReport, RunInfo, f64);

    /// The benchmark's own copy of the engine loop, from cycle 0.
    fn traced(&self, epoch: Instant) -> (SimReport, RunInfo, CellTrace);

    fn live(&self) -> LiveRun;
}

pub struct NetCell<K: NetKind> {
    scenario: Scenario,
    run: RunConfig,
    seed: u64,
    role: Role,
    cfg: K::Cfg,
    ckpt: Option<Checkpoint<K::Net<NoopProbe>, Workload>>,
}

impl<K: NetKind> NetCell<K> {
    pub fn new(scenario: Scenario, run: RunConfig, seed: u64, role: Role, threads: usize) -> Self {
        NetCell {
            cfg: K::config(scenario.topo, threads),
            scenario,
            run,
            seed,
            role,
            ckpt: None,
        }
    }

    fn simulation<P: noc_sim::telemetry::Probe + Clone>(
        &self,
        probe: P,
    ) -> Simulation<K::Net<P>, Workload> {
        Simulation::new(
            K::build(self.cfg, &self.scenario, probe),
            self.scenario.workload(self.seed),
            self.run,
        )
    }
}

impl<K: NetKind> Cell for NetCell<K> {
    fn net(&self) -> &'static str {
        K::NAME
    }

    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn run(&self) -> RunConfig {
        self.run
    }

    fn role(&self) -> Role {
        self.role
    }

    fn loft_config(&self) -> Option<LoftConfig> {
        K::loft_config(&self.cfg).copied()
    }

    fn setup(&mut self) -> SetupTimes {
        // Release the previous checkpoint first, so repeated set-ups
        // do not double the peak resident set.
        self.ckpt = None;
        let t0 = Instant::now();
        let workload = self.scenario.workload(self.seed);
        let t1 = Instant::now();
        let network = K::build(self.cfg, &self.scenario, NoopProbe);
        let t2 = Instant::now();
        self.ckpt = Some(Simulation::new(network, workload, self.run).run_to_checkpoint());
        SetupTimes {
            workload_build: (t1 - t0).as_secs_f64(),
            net_build: (t2 - t1).as_secs_f64(),
            total: t0.elapsed().as_secs_f64(),
        }
    }

    fn rep(&self, fast_forward: bool) -> Rep {
        let ckpt = self.ckpt.as_ref().expect("rep before setup");
        let a0 = allocs();
        let t0 = Instant::now();
        let fork = ckpt.fork().with_fast_forward(fast_forward);
        let t1 = Instant::now();
        let a1 = allocs();
        let (report, network, info) = fork.resume();
        drop(network);
        let resume_secs = t1.elapsed().as_secs_f64();
        let a2 = allocs();
        Rep {
            times: RepTimes {
                fork_secs: (t1 - t0).as_secs_f64(),
                resume_secs,
                fork_allocs: a1 - a0,
                resume_allocs: a2 - a1,
            },
            report,
            info,
        }
    }

    fn scratch(&self) -> (SimReport, RunInfo, f64) {
        let sim = self.simulation(NoopProbe);
        let t0 = Instant::now();
        let (report, _, info) = sim.run_full(|| {});
        (report, info, t0.elapsed().as_secs_f64())
    }

    fn traced(&self, epoch: Instant) -> (SimReport, RunInfo, CellTrace) {
        let network = K::build(self.cfg, &self.scenario, NoopProbe);
        let (report, _, info, trace) =
            traced_run(network, self.scenario.workload(self.seed), self.run, epoch);
        (report, info, trace)
    }

    fn live(&self) -> LiveRun {
        let sim = self.simulation(LiveProbe::new(TELEMETRY_WINDOW));
        let t0 = Instant::now();
        let (report, network, _) = sim.run_full(|| {});
        let t1 = Instant::now();
        let telemetry = K::into_probe(network).finish();
        let t2 = Instant::now();
        std::hint::black_box(telemetry.to_json());
        LiveRun {
            report,
            telemetry,
            run_secs: (t1 - t0).as_secs_f64(),
            finish_secs: (t2 - t1).as_secs_f64(),
            to_json_secs: t2.elapsed().as_secs_f64(),
        }
    }
}

/// LOFT's worst observed network latency against the §5.3.1
/// `F×WF×hops` bound, over the flows with a fixed destination (`None`
/// for other networks and for random-destination scenarios, whose
/// per-packet path the report does not keep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyOverBound {
    /// Worst latency of any flow ÷ the bound of the scenario's longest
    /// path: the claim EXPERIMENTS.md and `qos_guarantees.rs` make.
    pub longest_path: f64,
    /// Worst over flows of the flow's latency ÷ the bound of its own
    /// path. The guarantee covers traffic within its reservation; the
    /// over-subscribed sources of the hotspot cells exceed it on the
    /// short paths next to the hotspot, so this is reported, not
    /// checked.
    pub own_path: f64,
}

pub fn latency_over_bound(cell: &dyn Cell, report: &SimReport) -> Option<LatencyOverBound> {
    let cfg = cell.loft_config()?;
    let (mut worst_latency, mut longest_bound, mut own_path) = (0.0f64, 0.0f64, 0.0f64);
    for (flow, stats) in cell.scenario().flows.iter().zip(&report.flows) {
        let DestRule::Fixed(dst) = flow.dest else {
            return None;
        };
        let bound = noc_model::delay::loft_worst_case_for(&cfg, flow.src, dst) as f64;
        longest_bound = longest_bound.max(bound);
        if stats.network_latency.count() > 0 {
            worst_latency = worst_latency.max(stats.network_latency.max());
            own_path = own_path.max(stats.network_latency.max() / bound);
        }
    }
    Some(LatencyOverBound {
        longest_path: worst_latency / longest_bound,
        own_path,
    })
}

/// The QoS guarantees a LOFT cell must keep; each message fails the
/// cell.
pub fn qos_failures(cell: &dyn Cell, report: &SimReport) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(ratio) = latency_over_bound(cell, report) {
        if ratio.longest_path > 1.0 {
            out.push(format!(
                "{}: max network latency is {:.3} of the longest path's F*WF*hops bound",
                cell.name(),
                ratio.longest_path
            ));
        }
    }
    if cell.role() == Role::Fig12 && cell.net() == "loft" {
        let victim = report.flows[0].throughput;
        if (victim - 0.2).abs() > 0.01 {
            out.push(format!(
                "{}: victim throughput {victim:.4} is not within 0.01 of 0.2",
                cell.name()
            ));
        }
    }
    out
}
