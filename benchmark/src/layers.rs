//! `trace` on a cell workload: per-layer metrics from the traced
//! loop, a `LiveProbe` pass, the plain repetitions of the traced
//! build, and the layer probes homed on the workload.

use std::collections::BTreeMap;
use std::time::Instant;

use noc_sim::telemetry::TelemetryReport;

use crate::cells::{
    latency_over_bound, Cell, LatencyOverBound, LiveRun, RepTimes, Role, SetupTimes,
};
use crate::json::Value;
use crate::net::NETS;
use crate::probes;
use crate::result::{Metric, WorkloadResult};
use crate::run::{self, Budget, CellsRun};
use crate::spec;
use crate::stats::{median, Summary};
use crate::trace::{CellTrace, Spans, COLLECT, ENQUEUE, FF, GENERATE, STEP};

/// The per-layer metrics of one traced run. Every declared metric is
/// printed on every workload; one the workload does not exercise
/// reads 0 and says so.
pub struct Layers {
    declared: Vec<spec::PerLayer>,
    measured: BTreeMap<String, Summary>,
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            declared: spec::per_layer(),
            measured: BTreeMap::new(),
        }
    }

    /// # Panics
    ///
    /// Panics on a name `spec::per_layer` does not declare.
    pub fn set(&mut self, name: &str, summary: Summary) {
        assert!(
            self.declared.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        self.measured.insert(name.to_string(), summary);
    }

    fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.declared
            .into_iter()
            .map(|m| {
                let measured = self.measured.get(&m.name).copied();
                let note = match (measured, spec::paper_value(&m.name)) {
                    (None, _) => Some("not measured on this workload".to_string()),
                    (Some(_), Some(paper)) => Some(format!("paper: {paper}")),
                    (Some(_), None) => None,
                };
                Metric {
                    name: m.name,
                    unit: m.unit.to_string(),
                    better: m.better,
                    bound: None,
                    exact: m.exact,
                    summary: measured.unwrap_or(Summary::exact(0.0)),
                    note,
                }
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sums over the cells of one network (or all), for one traced pass.
struct PassSums {
    total_ns: f64,
    stage_ns: [f64; 5],
    stage_count: [f64; 5],
    other_ns: f64,
}

impl PassSums {
    fn of(cells: &[Box<dyn Cell>], pass: &[CellTrace], net: Option<&str>) -> Self {
        let mut s = PassSums {
            total_ns: 0.0,
            stage_ns: [0.0; 5],
            stage_count: [0.0; 5],
            other_ns: 0.0,
        };
        for (cell, trace) in cells.iter().zip(pass) {
            if net.is_some_and(|n| cell.net() != n) {
                continue;
            }
            s.total_ns += trace.ns() as f64;
            s.other_ns += trace.other_ns() as f64;
            for stage in 0..5 {
                let acc = trace.stage(stage);
                s.stage_ns[stage] += acc.ns as f64;
                s.stage_count[stage] += acc.count as f64;
            }
        }
        s
    }

    fn per_event(&self, stage: usize) -> f64 {
        ratio(self.stage_ns[stage], self.stage_count[stage])
    }

    fn share(&self, stage: usize) -> f64 {
        ratio(self.stage_ns[stage], self.total_ns)
    }
}

fn sum_u64(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64
}

/// The modelled-component counts of one network from its cells'
/// telemetry (exact: they repeat bit for bit at a seed).
fn modelled(layers: &mut Layers, net: &str, live: &[&TelemetryReport]) {
    let sum = |f: &dyn Fn(&TelemetryReport) -> f64| live.iter().map(|t| f(t)).sum::<f64>();
    for (metric, value) in [
        ("flit_hops", sum(&|t| sum_u64(&t.link_flits))),
        ("link_stalls", sum(&|t| sum_u64(&t.link_stalls))),
        ("nic_stalls", sum(&|t| sum_u64(&t.nic_stalls))),
        ("sched_book", sum(&|t| sum_u64(&t.sched_book))),
        ("sched_deny", sum(&|t| sum_u64(&t.sched_deny))),
        ("link_resets", sum(&|t| sum_u64(&t.link_resets))),
    ] {
        layers.set_value(&format!("{net}.{metric}"), value);
    }
    // Utilization over the links that carried anything, so the unused
    // ports of edge routers do not dilute the mean.
    let utils: Vec<f64> = live
        .iter()
        .flat_map(|t| {
            (0..t.link_flits.len())
                .filter(|&l| t.link_flits[l] > 0)
                .map(|l| t.link_utilization(l))
        })
        .collect();
    layers.set_value(
        &format!("{net}.mean_link_util"),
        ratio(utils.iter().sum(), utils.len() as f64),
    );
    layers.set_value(
        &format!("{net}.max_link_util"),
        utils.iter().copied().fold(0.0, f64::max),
    );
}

/// The worst delay-bound ratios over the workload's LOFT cells.
fn worst_latency_over_bound(cells: &[Box<dyn Cell>], run: &CellsRun) -> Option<LatencyOverBound> {
    cells
        .iter()
        .zip(&run.reference)
        .filter_map(|(c, (report, _))| latency_over_bound(&**c, report))
        .reduce(|a, b| LatencyOverBound {
            longest_path: a.longest_path.max(b.longest_path),
            own_path: a.own_path.max(b.own_path),
        })
}

/// Fidelity numbers from the cells that reproduce a paper figure.
fn model(layers: &mut Layers, cells: &[Box<dyn Cell>], run: &CellsRun) {
    let report = |role: Role, net: &str| {
        cells
            .iter()
            .zip(&run.reference)
            .find(|(c, _)| c.role() == role && c.net() == net)
            .map(|(c, (report, _))| (c, report))
    };
    if let Some(worst) = worst_latency_over_bound(cells, run) {
        layers.set_value("model.max_latency_over_bound", worst.longest_path);
    }
    if let (Some((_, loft)), Some((_, gsf))) =
        (report(Role::Fig11a, "loft"), report(Role::Fig11a, "gsf"))
    {
        layers.set_value(
            "model.fig11a_loft_over_gsf_throughput",
            ratio(loft.throughput_per_node(), gsf.throughput_per_node()),
        );
    }
    for net in ["loft", "gsf"] {
        if let Some((cell, r)) = report(Role::Fig10a, net) {
            let all = cell
                .scenario()
                .group("all")
                .expect("hotspot has an 'all' group");
            layers.set_value(
                &format!("model.fig10a_{net}_cv"),
                r.group_throughput(all).cv(),
            );
        }
        if let Some((_, r)) = report(Role::Fig12, net) {
            if net == "loft" {
                layers.set_value("model.fig12_loft_victim_throughput", r.flows[0].throughput);
            }
            layers.set_value(
                &format!("model.fig12_{net}_victim_latency"),
                r.flows[0].total_latency.mean(),
            );
        }
        if let Some((cell, r)) = report(Role::Fig13, net) {
            let stripped = cell
                .scenario()
                .group("stripped")
                .expect("case study II group")[0];
            layers.set_value(
                &format!("model.fig13_{net}_stripped_throughput"),
                r.flow_throughput(stripped),
            );
        }
    }
}

/// `trace` on a cell workload.
pub fn trace_cells(workload: &str, seed: u64, budget: &Budget) -> (WorkloadResult, Spans) {
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut spans = Spans::default();
    let root = spans.interval(workload, None, 0, 0);

    // Plain repetitions in this (allocation-counting) build: the
    // reference outputs, the allocation counts and the checkpoint
    // layer's times.
    let mut cells = run::cells(workload, seed, budget.smoke, 1);
    let plain = spans.interval("plain reps (setup, fork->resume)", Some(root), now_ns(), 0);
    let mut run = run::repeat(&mut cells, budget);
    spans.set_end(plain, now_ns());

    // Traced passes: every cell from cycle 0, once through the engine
    // (`Simulation::run_full`) and once through the benchmark's own
    // loop, back to back, so that host drift cancels in their ratio.
    let mut passes: Vec<Vec<CellTrace>> = Vec::new();
    let mut engine_secs: Vec<Vec<f64>> = Vec::new();
    let started = Instant::now();
    while passes.len() < budget.min_reps || started.elapsed().as_secs_f64() < budget.seconds {
        let pass = spans.interval(
            format!("traced pass {}", passes.len()),
            Some(root),
            now_ns(),
            0,
        );
        let mut traces = Vec::with_capacity(cells.len());
        let mut secs = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let reference = (&run.reference[i].0, &run.reference[i].1);
            let engine_start = now_ns();
            let (report, info, engine) = cell.scratch();
            spans.interval(
                format!("{} (engine)", cell.name()),
                Some(pass),
                engine_start,
                now_ns(),
            );
            if (&report, &info) != reference {
                run.failures[i].push(format!(
                    "{}: fork->resume differs from Simulation::run_full",
                    cell.name()
                ));
            }
            let (report, info, trace) = cell.traced(epoch);
            if (&report, &info) != reference {
                run.failures[i].push(format!(
                    "{}: the traced loop's report differs from the engine's",
                    cell.name()
                ));
            }
            if trace.generated != trace.delivered + trace.in_flight_at_end {
                run.failures[i].push(format!(
                    "{}: generated {} != delivered {} + in flight {}",
                    cell.name(),
                    trace.generated,
                    trace.delivered,
                    trace.in_flight_at_end
                ));
            }
            spans.add_cell(&cell.name(), pass, &trace);
            traces.push(trace);
            secs.push(engine);
        }
        spans.set_end(pass, now_ns());
        passes.push(traces);
        engine_secs.push(secs);
    }
    // Per cell, the engine's median from-scratch time.
    let scratch_secs: Vec<f64> = (0..cells.len())
        .map(|i| median(&engine_secs.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();

    // LiveProbe pass: modelled-component counts and telemetry cost.
    let live_span = spans.interval("LiveProbe pass", Some(root), now_ns(), 0);
    let live: Vec<LiveRun> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let live = cell.live();
            if live.report != run.reference[i].0 {
                run.failures[i].push(format!(
                    "{}: attaching a LiveProbe changed the report",
                    cell.name()
                ));
            }
            live
        })
        .collect();
    spans.set_end(live_span, now_ns());

    let mut layers = Layers::new();
    let per_pass = |f: &dyn Fn(&[CellTrace]) -> f64| {
        Summary::of(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let per_rep = |f: &dyn Fn(&[RepTimes]) -> f64| {
        Summary::of(&run.reps.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let per_setup = |f: &dyn Fn(&[SetupTimes]) -> f64| {
        Summary::of(&run.setups.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let of_net = |net: &'static str| {
        (0..cells.len())
            .filter(|&i| cells[i].net() == net)
            .collect::<Vec<usize>>()
    };

    for net in NETS {
        let idx = of_net(net);
        let sums = |p: &[CellTrace]| PassSums::of(&cells, p, Some(net));
        layers.set(
            &format!("{net}.step_ns_per_cycle"),
            per_pass(&|p| sums(p).per_event(STEP)),
        );
        layers.set(
            &format!("{net}.step_share"),
            per_pass(&|p| sums(p).share(STEP)),
        );
        layers.set(
            &format!("{net}.enqueue_ns_per_packet"),
            per_pass(&|p| sums(p).per_event(ENQUEUE)),
        );
        layers.set(
            &format!("{net}.enqueue_share"),
            per_pass(&|p| sums(p).share(ENQUEUE)),
        );
        let telemetry: Vec<&TelemetryReport> = idx.iter().map(|&i| &live[i].telemetry).collect();
        modelled(&mut layers, net, &telemetry);
        let flit_hops: f64 = telemetry.iter().map(|t| sum_u64(&t.link_flits)).sum();
        layers.set(
            &format!("{net}.step_ns_per_flit_hop"),
            per_pass(&|p| ratio(sums(p).stage_ns[STEP], flit_hops)),
        );
        layers.set(
            &format!("{net}.build_ms"),
            per_setup(&|s| idx.iter().map(|&i| s[i].net_build).sum::<f64>() * 1e3),
        );
        let cycles: u64 = idx.iter().map(|&i| run.cycles(&cells, i)).sum();
        layers.set(
            &format!("{net}.steady_allocs_per_kcycle"),
            per_rep(&|r| {
                ratio(
                    idx.iter().map(|&i| r[i].resume_allocs).sum::<u64>() as f64,
                    cycles as f64 / 1e3,
                )
            }),
        );
        let (accepted, latency) = run::simulated(&cells, &run.reference, net);
        layers.set_value(&format!("{net}.accepted_flits_per_cycle_node"), accepted);
        layers.set_value(&format!("{net}.avg_latency_cycles"), latency);
        layers.set_value(
            &format!("{net}.p99_latency_cycles"),
            telemetry.iter().map(|t| t.p99).max().unwrap_or(0) as f64,
        );
        layers.set_value(
            &format!("engine.ff_skipped_share.{net}"),
            ratio(
                idx.iter()
                    .map(|&i| run.reference[i].1.skipped_cycles)
                    .sum::<u64>() as f64,
                idx.iter()
                    .map(|&i| run.reference[i].1.end_cycle)
                    .sum::<u64>() as f64,
            ),
        );
        layers.set(
            &format!("checkpoint.capture_s.{net}"),
            per_setup(&|s| idx.iter().map(|&i| s[i].total).sum()),
        );
        let fork = |r: &[RepTimes]| idx.iter().map(|&i| r[i].fork_secs).sum::<f64>();
        let resume = |r: &[RepTimes]| idx.iter().map(|&i| r[i].resume_secs).sum::<f64>();
        layers.set(
            &format!("checkpoint.fork_ms.{net}"),
            per_rep(&|r| fork(r) * 1e3),
        );
        layers.set(
            &format!("checkpoint.fork_share.{net}"),
            per_rep(&|r| ratio(fork(r), fork(r) + resume(r))),
        );
        layers.set(
            &format!("checkpoint.fork_allocs.{net}"),
            per_rep(&|r| idx.iter().map(|&i| r[i].fork_allocs).sum::<u64>() as f64),
        );
        // Both sides from cycle 0, one run each.
        layers.set_value(
            &format!("telemetry.cps_ratio.{net}"),
            ratio(
                idx.iter().map(|&i| scratch_secs[i]).sum(),
                idx.iter().map(|&i| live[i].run_secs).sum(),
            ),
        );
    }

    let all = |p: &[CellTrace]| PassSums::of(&cells, p, None);
    layers.set(
        "traffic.generate_ns_per_cycle",
        per_pass(&|p| all(p).per_event(GENERATE)),
    );
    layers.set(
        "traffic.generate_share",
        per_pass(&|p| all(p).share(GENERATE)),
    );
    layers.set_value(
        "traffic.packets_generated",
        passes[0].iter().map(|t| t.generated).sum::<u64>() as f64,
    );
    layers.set(
        "traffic.workload_build_ms",
        per_setup(&|s| s.iter().map(|t| t.workload_build).sum::<f64>() * 1e3),
    );
    layers.set(
        "engine.collect_ns_per_packet",
        per_pass(&|p| all(p).per_event(COLLECT)),
    );
    layers.set("engine.collect_share", per_pass(&|p| all(p).share(COLLECT)));
    // The loop's self time, plus the fast-forward poll it makes when
    // the network is empty.
    layers.set(
        "engine.loop_other_share",
        per_pass(&|p| {
            let s = all(p);
            ratio(s.other_ns + s.stage_ns[FF], s.total_ns)
        }),
    );
    layers.set_value(
        "telemetry.finish_ms",
        live.iter().map(|l| l.finish_secs).sum::<f64>() * 1e3,
    );
    layers.set_value(
        "telemetry.to_json_ms",
        live.iter().map(|l| l.to_json_secs).sum::<f64>() * 1e3,
    );
    model(&mut layers, &cells, &run);
    layers.set("par.pool_dispatch_us", probes::pool_dispatch_us());

    // Probes homed on one workload each.
    let plain_net_cps = NETS.map(|net| median(&run.cycles_per_s(&cells, |c| c.net() == net)));
    let mut failures = Vec::new();
    match workload {
        "uniform-sat" => {
            let probe = spans.interval("probe: threads-2 cells", Some(root), now_ns(), 0);
            failures = probes::shard2(
                &mut layers,
                workload,
                seed,
                budget,
                plain_net_cps,
                &run.reference,
            );
            spans.set_end(probe, now_ns());
        }
        "uniform-low" => {
            let probe = spans.interval("probe: bursty_low_duty idle", Some(root), now_ns(), 0);
            failures = probes::idle(&mut layers, seed, budget.smoke);
            spans.set_end(probe, now_ns());
        }
        _ => {}
    }
    spans.set_end(root, now_ns());
    failures.splice(0..0, run.failure_lines());

    // Tracing overhead: per pass, the traced loop's host time over the
    // engine's for the same cells, both from cycle 0.
    let overhead = median(
        &passes
            .iter()
            .zip(&engine_secs)
            .map(|(traces, engine)| {
                let traced: u64 = traces.iter().map(CellTrace::ns).sum();
                traced as f64 / 1e9 / engine.iter().sum::<f64>() - 1.0
            })
            .collect::<Vec<_>>(),
    );
    let shares = Value::Arr(
        cells
            .iter()
            .zip(&passes[passes.len() - 1])
            .map(|(cell, t)| {
                let share = |ns: u64| Value::Num(ratio(ns as f64, t.ns() as f64));
                Value::obj([
                    ("cell", Value::str(cell.name())),
                    ("total_ms", Value::Num(t.ns() as f64 / 1e6)),
                    ("generate", share(t.stage(GENERATE).ns)),
                    ("collect", share(t.stage(COLLECT).ns)),
                    ("enqueue", share(t.stage(ENQUEUE).ns)),
                    ("step", share(t.stage(STEP).ns)),
                    ("ff", share(t.stage(FF).ns)),
                    ("other", share(t.other_ns())),
                ])
            })
            .collect(),
    );
    let mut extras = vec![
        ("trace_overhead".to_string(), Value::Num(overhead)),
        ("traced_passes".to_string(), Value::Num(passes.len() as f64)),
        ("stage_shares".to_string(), shares),
    ];
    if let Some(worst) = worst_latency_over_bound(&cells, &run) {
        // Beside model.max_latency_over_bound: the same latencies
        // against each flow's own path (see `LatencyOverBound`).
        extras.push((
            "loft_latency_over_own_path_bound".to_string(),
            Value::Num(worst.own_path),
        ));
    }
    let result = WorkloadResult {
        workload: workload.to_string(),
        cells_attempted: cells.len(),
        cells_failed: run.cells_failed(),
        failures,
        metrics: layers.into_metrics(),
        extras,
    };
    (result, spans)
}
