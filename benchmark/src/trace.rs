//! Layer attribution from outside the program: the benchmark's own
//! copy of the engine loop over the public traits, with an `Instant`
//! pair around each call into a layer, and the spans it produces.

use std::time::Instant;

use noc_sim::stats::StatsCollector;
use noc_sim::telemetry::PacketProbe;
use noc_sim::{Network, RunConfig, RunInfo, SimReport, TrafficSource};

use crate::json::Value;

pub const PHASES: [&str; 3] = ["warmup", "measure", "drain"];

/// The calls the loop makes, one stage each. `collect` is
/// `PacketProbe::on_generated` + `on_delivered` on the
/// `StatsCollector`; `ff` is `TrafficSource::next_active_cycle` +
/// `Network::fast_forward`.
pub const STAGES: [&str; 5] = ["generate", "collect", "enqueue", "step", "ff"];
pub const GENERATE: usize = 0;
pub const COLLECT: usize = 1;
pub const ENQUEUE: usize = 2;
pub const STEP: usize = 3;
pub const FF: usize = 4;

/// Accumulated host time and event count of one stage in one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: u64,
    pub count: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTrace {
    /// Nanoseconds since the trace epoch; both 0 if never entered.
    pub start_ns: u64,
    pub end_ns: u64,
    pub stages: [Acc; 5],
}

impl PhaseTrace {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Self time: the phase's span minus its stage children (loop
    /// control, `in_flight` polls and the clock reads themselves).
    pub fn other_ns(&self) -> u64 {
        self.ns()
            .saturating_sub(self.stages.iter().map(|s| s.ns).sum())
    }
}

/// What the traced loop saw of one cell.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    pub phases: [PhaseTrace; 3],
    pub generated: u64,
    pub delivered: u64,
    /// `Network::in_flight()` when the loop ended.
    pub in_flight_at_end: u64,
}

impl CellTrace {
    pub fn ns(&self) -> u64 {
        self.phases.iter().map(PhaseTrace::ns).sum()
    }

    pub fn stage(&self, stage: usize) -> Acc {
        let mut acc = Acc::default();
        for p in &self.phases {
            acc.ns += p.stages[stage].ns;
            acc.count += p.stages[stage].count;
        }
        acc
    }

    pub fn other_ns(&self) -> u64 {
        self.phases.iter().map(PhaseTrace::other_ns).sum()
    }
}

#[inline]
fn timed<R>(acc: &mut Acc, count: u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    acc.ns += t.elapsed().as_nanos() as u64;
    acc.count += count;
    r
}

/// `noc_sim::engine`'s loop (`EngineState::drive` with fast-forward
/// on), statement for statement, except that the per-packet
/// `on_generated` calls run before the `enqueue` calls of the same
/// cycle instead of alternating with them, so each stage is one timed
/// batch; the collector and the network do not see each other, so the
/// report is the engine's bit for bit (checked by the caller).
pub fn traced_run<N: Network, T: TrafficSource>(
    mut network: N,
    mut traffic: T,
    run: RunConfig,
    epoch: Instant,
) -> (SimReport, N, RunInfo, CellTrace) {
    let mut stats = StatsCollector::new(
        traffic.num_flows(),
        network.num_nodes(),
        run.warmup,
        run.measure,
    );
    let mut trace = CellTrace::default();
    let mut fresh = Vec::new();
    let mut delivered = Vec::new();
    let warmup = run.warmup;
    let horizon = warmup + run.measure;
    let end = horizon + run.drain;
    let mut cycle = 0u64;
    let mut skipped_cycles = 0u64;
    let mut current: Option<usize> = None;
    let now_ns = || epoch.elapsed().as_nanos() as u64;

    while cycle < end {
        let phase = match cycle {
            c if c < warmup => 0,
            c if c < horizon => 1,
            _ => 2,
        };
        if current != Some(phase) {
            let now = now_ns();
            if let Some(prev) = current {
                trace.phases[prev].end_ns = now;
            }
            trace.phases[phase].start_ns = now;
            current = Some(phase);
        }
        let stages = &mut trace.phases[phase].stages;
        if cycle >= horizon && network.in_flight() == 0 {
            break;
        }
        if network.in_flight() == 0 {
            let bound = if cycle < warmup { warmup } else { horizon };
            let jumped = timed(&mut stages[FF], 1, || {
                let target = traffic.next_active_cycle(cycle, bound);
                if target > cycle {
                    network.fast_forward(target - cycle)
                } else {
                    0
                }
            });
            if jumped > 0 {
                skipped_cycles += jumped;
                cycle += jumped;
                continue;
            }
        }
        fresh.clear();
        timed(&mut stages[GENERATE], 1, || {
            traffic.generate(cycle, &mut fresh)
        });
        if !fresh.is_empty() {
            let n = fresh.len() as u64;
            trace.generated += n;
            timed(&mut stages[COLLECT], n, || {
                for p in &fresh {
                    stats.on_generated(p);
                }
            });
            timed(&mut stages[ENQUEUE], n, || {
                for p in fresh.drain(..) {
                    network.enqueue(p);
                }
            });
        }
        delivered.clear();
        timed(&mut stages[STEP], 1, || network.step(&mut delivered));
        if !delivered.is_empty() {
            let n = delivered.len() as u64;
            trace.delivered += n;
            timed(&mut stages[COLLECT], n, || {
                for p in delivered.drain(..) {
                    stats.on_delivered(&p);
                }
            });
        }
        cycle += 1;
    }
    if let Some(prev) = current {
        trace.phases[prev].end_ns = now_ns();
    }
    trace.in_flight_at_end = network.in_flight() as u64;
    let info = RunInfo {
        skipped_cycles,
        end_cycle: cycle,
    };
    (stats.finish(), network, info, trace)
}

/// One node of the span tree written to `out/trace-<workload>.json`.
/// A span that stands for many calls (a stage within a phase) covers
/// its parent's interval and carries the calls' summed time in
/// `busy_ns`; for a single interval `busy_ns = end_ns - start_ns`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

/// Spans kept in memory until the traced run ends.
#[derive(Debug, Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// Adds a single-interval span and returns its id.
    pub fn interval(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.many(name, parent, start_ns, end_ns, end_ns - start_ns, 1)
    }

    pub fn many(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        count: u64,
    ) -> usize {
        self.0.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
            busy_ns,
            count,
        });
        self.0.len() - 1
    }

    pub fn set_end(&mut self, id: usize, end_ns: u64) {
        let span = &mut self.0[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Adds a cell's phases and stages under `parent`.
    pub fn add_cell(&mut self, name: &str, parent: usize, trace: &CellTrace) {
        let entered = || trace.phases.iter().filter(|p| p.end_ns > 0);
        let start = entered().map(|p| p.start_ns).min().unwrap_or(0);
        let end = entered().map(|p| p.end_ns).max().unwrap_or(0);
        let cell = self.interval(name, Some(parent), start, end);
        for (phase, label) in trace.phases.iter().zip(PHASES) {
            if phase.end_ns == 0 {
                continue;
            }
            let id = self.interval(label, Some(cell), phase.start_ns, phase.end_ns);
            for (acc, stage) in phase.stages.iter().zip(STAGES) {
                if acc.count > 0 {
                    self.many(
                        stage,
                        Some(id),
                        phase.start_ns,
                        phase.end_ns,
                        acc.ns,
                        acc.count,
                    );
                }
            }
        }
    }

    /// Self time of span `id`: its busy time minus its children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .0
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.0[id].busy_ns.saturating_sub(children)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.0
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(&*s.name)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("busy_ns", Value::Num(s.busy_ns as f64)),
                        ("self_ns", Value::Num(self.self_ns(id) as f64)),
                        ("count", Value::Num(s.count as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::telemetry::NoopProbe;
    use noc_sim::Simulation;
    use noc_traffic::Scenario;

    use crate::net::{Loft, NetKind, Wormhole};

    const RUN: RunConfig = RunConfig {
        warmup: 300,
        measure: 1_500,
        drain: 600,
    };

    fn check<K: NetKind>(scenario: &Scenario) {
        let cfg = K::config(scenario.topo, 1);
        let (want, _, want_info) = Simulation::new(
            K::build(cfg, scenario, NoopProbe),
            scenario.workload(7),
            RUN,
        )
        .run_full(|| {});
        let (got, net, info, trace) = traced_run(
            K::build(cfg, scenario, NoopProbe),
            scenario.workload(7),
            RUN,
            Instant::now(),
        );
        assert_eq!(got, want, "{}: traced report differs", K::NAME);
        assert_eq!(info, want_info, "{}: traced run info differs", K::NAME);
        assert_eq!(
            trace.generated,
            trace.delivered + net.in_flight() as u64,
            "{}: packets lost",
            K::NAME
        );
        assert_eq!(
            trace.stage(STEP).count + info.skipped_cycles,
            info.end_cycle
        );
        let stages: u64 = (0..STAGES.len()).map(|s| trace.stage(s).ns).sum();
        assert_eq!(stages + trace.other_ns(), trace.ns());
    }

    #[test]
    fn traced_loop_reproduces_the_engine() {
        check::<Loft>(&Scenario::uniform(0.30));
        check::<Wormhole>(&Scenario::hotspot(0.05));
        // Mostly idle: exercises the fast-forward branch.
        check::<Loft>(&Scenario::bursty_low_duty(0.60));
        check::<Wormhole>(&Scenario::bursty_low_duty(0.60));
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut spans = Spans::default();
        let root = spans.interval("root", None, 0, 100);
        let phase = spans.interval("measure", Some(root), 10, 90);
        spans.many("step", Some(phase), 10, 90, 50, 7);
        spans.many("generate", Some(phase), 10, 90, 20, 7);
        assert_eq!(spans.self_ns(phase), 10);
        assert_eq!(spans.self_ns(root), 20);
        let doc = spans.to_json().render();
        assert!(crate::json::parse(&doc).is_ok());
    }
}
