//! The three cell workloads: their cells, the repetition protocol
//! (set-up, one untimed rep, timed reps, output checks) and the
//! end-to-end metrics.

use std::time::Instant;

use noc_sim::{RunConfig, RunInfo, SimReport};
use noc_traffic::Scenario;

use crate::cells::{qos_failures, Cell, NetCell, RepTimes, Role, SetupTimes};
use crate::json::Value;
use crate::net::{Gsf, Loft, Wormhole, NETS};
use crate::result::{peak_rss_mb, Metric, WorkloadResult};
use crate::spec;
use crate::stats::{mean, median, Summary};

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Timed repetitions continue until they have taken this long.
    pub seconds: f64,
    pub min_reps: usize,
    /// Set-ups per run, at least; `setup_s` is their median.
    pub setups: usize,
    pub smoke: bool,
}

impl Budget {
    pub fn new(seconds: f64, smoke: bool) -> Self {
        if smoke {
            Budget {
                seconds: 0.0,
                min_reps: 1,
                setups: 1,
                smoke,
            }
        } else {
            Budget {
                seconds,
                min_reps: 3,
                setups: 5,
                smoke,
            }
        }
    }
}

/// `--smoke` windows: every phase a twentieth of its length.
fn window(warmup: u64, measure: u64, drain: u64, smoke: bool) -> RunConfig {
    let scale = if smoke { 20 } else { 1 };
    RunConfig {
        warmup: warmup / scale,
        measure: measure / scale,
        drain: drain / scale,
    }
}

/// The cells of a cell workload, networks interleaved (loft, gsf,
/// wormhole, loft, …). `--seed` reaches `Scenario::workload` only.
pub fn cells(workload: &str, seed: u64, smoke: bool, threads: usize) -> Vec<Box<dyn Cell>> {
    let (scenarios, run): (Vec<(Scenario, Role)>, RunConfig) = match workload {
        "uniform-sat" => (
            vec![(Scenario::uniform(0.60), Role::Fig11a)],
            window(2_000, 10_000, 2_000, smoke),
        ),
        "uniform-low" => (
            vec![(Scenario::uniform(0.05), Role::Plain)],
            window(2_000, 100_000, 3_000, smoke),
        ),
        "qos-hotspot" => (
            vec![
                (Scenario::hotspot(0.05), Role::Fig10a),
                (Scenario::hotspot(0.60), Role::Plain),
                (Scenario::case_study_1(0.8), Role::Fig12),
                (Scenario::case_study_2(0.64), Role::Fig13),
            ],
            window(5_000, 20_000, 5_000, smoke),
        ),
        other => panic!("{other} is not a cell workload"),
    };
    let mut out: Vec<Box<dyn Cell>> = Vec::new();
    for (scenario, role) in scenarios {
        out.push(Box::new(NetCell::<Loft>::new(
            scenario.clone(),
            run,
            seed,
            role,
            threads,
        )));
        out.push(Box::new(NetCell::<Gsf>::new(
            scenario.clone(),
            run,
            seed,
            role,
            threads,
        )));
        out.push(Box::new(NetCell::<Wormhole>::new(
            scenario, run, seed, role, threads,
        )));
    }
    out
}

/// Everything the repetition protocol recorded.
pub struct CellsRun {
    /// `[set-up][cell]`.
    pub setups: Vec<Vec<SetupTimes>>,
    /// Per cell, from the untimed rep; every later output must equal it.
    pub reference: Vec<(SimReport, RunInfo)>,
    /// `[rep][cell]`.
    pub reps: Vec<Vec<RepTimes>>,
    /// Per cell: the checks it failed.
    pub failures: Vec<Vec<String>>,
}

impl CellsRun {
    /// Simulated cycles one rep of `cell` covers.
    pub fn cycles(&self, cells: &[Box<dyn Cell>], cell: usize) -> u64 {
        self.reference[cell].1.end_cycle - cells[cell].run().warmup
    }

    /// Per-rep cycles/second over the cells `keep` selects.
    pub fn cycles_per_s(
        &self,
        cells: &[Box<dyn Cell>],
        keep: impl Fn(&dyn Cell) -> bool,
    ) -> Vec<f64> {
        let picked: Vec<usize> = (0..cells.len()).filter(|&i| keep(&*cells[i])).collect();
        let cycles: u64 = picked.iter().map(|&i| self.cycles(cells, i)).sum();
        self.reps
            .iter()
            .map(|rep| {
                let secs: f64 = picked.iter().map(|&i| rep[i].secs()).sum();
                cycles as f64 / secs
            })
            .collect()
    }

    /// Per cell: what it simulated and its median rep time, so a moved
    /// workload metric can be traced to the cell that moved it.
    pub fn cell_table(&self, cells: &[Box<dyn Cell>]) -> Value {
        Value::Arr(
            (0..cells.len())
                .map(|i| {
                    let (report, info) = &self.reference[i];
                    let secs: Vec<f64> = self.reps.iter().map(|r| r[i].secs()).collect();
                    Value::obj([
                        ("cell", Value::str(cells[i].name())),
                        ("cycles", Value::Num(self.cycles(cells, i) as f64)),
                        ("skipped_cycles", Value::Num(info.skipped_cycles as f64)),
                        ("rep_s", Value::Num(median(&secs))),
                        ("flits_delivered", Value::Num(report.flits_delivered as f64)),
                        (
                            "latency_samples",
                            Value::Num(report.total_latency.count() as f64),
                        ),
                        ("avg_latency", Value::Num(report.avg_latency())),
                    ])
                })
                .collect(),
        )
    }

    pub fn cells_failed(&self) -> usize {
        self.failures.iter().filter(|f| !f.is_empty()).count()
    }

    pub fn failure_lines(&self) -> Vec<String> {
        self.failures.iter().flatten().cloned().collect()
    }
}

/// Set-up → one untimed rep → timed reps, with the per-rep output
/// check (every rep's `SimReport` and `RunInfo` equal the first's) and
/// the QoS checks on the reference reports.
pub fn repeat(cells: &mut [Box<dyn Cell>], budget: &Budget) -> CellsRun {
    // A set-up of the low-load cells takes 40 ms: repeat short ones
    // for a second, so that their median is as steady as the rest.
    let mut setups: Vec<Vec<SetupTimes>> = Vec::new();
    let started = Instant::now();
    while setups.len() < budget.setups
        || (!budget.smoke
            && setups.len() < 5 * budget.setups
            && started.elapsed().as_secs_f64() < 1.0)
    {
        setups.push(cells.iter_mut().map(|c| c.setup()).collect());
    }
    let mut failures = vec![Vec::new(); cells.len()];
    let reference: Vec<(SimReport, RunInfo)> = cells
        .iter()
        .map(|c| {
            let rep = c.rep(true);
            (rep.report, rep.info)
        })
        .collect();
    for (i, cell) in cells.iter().enumerate() {
        failures[i].extend(qos_failures(&**cell, &reference[i].0));
    }
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < budget.min_reps || started.elapsed().as_secs_f64() < budget.seconds {
        let mut times = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let rep = cell.rep(true);
            times.push(rep.times);
            if (&rep.report, &rep.info) != (&reference[i].0, &reference[i].1) {
                failures[i].push(format!(
                    "{}: rep {} differs from the first rep",
                    cell.name(),
                    reps.len() + 1
                ));
            }
        }
        reps.push(times);
    }
    CellsRun {
        setups,
        reference,
        reps,
        failures,
    }
}

/// Fork→resume must equal a from-scratch `Simulation::run_full`.
/// Returns the from-scratch host seconds per cell.
pub fn check_scratch(cells: &[Box<dyn Cell>], run: &mut CellsRun) -> Vec<f64> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let (report, info, secs) = cell.scratch();
            if (&report, &info) != (&run.reference[i].0, &run.reference[i].1) {
                run.failures[i].push(format!(
                    "{}: fork->resume differs from Simulation::run_full",
                    cell.name()
                ));
            }
            secs
        })
        .collect()
}

fn end_to_end(name: &str, summary: Summary) -> Metric {
    let m = spec::end_to_end(name).expect("declared end-to-end metric");
    Metric {
        name: name.to_string(),
        unit: m.unit.to_string(),
        better: m.better,
        bound: Some(m.bound),
        exact: m.exact,
        summary,
        note: None,
    }
}

/// The eight end-to-end metrics from their samples.
pub fn end_to_end_metrics(
    setup_s: &[f64],
    sim_cps: &[f64],
    net_cps: [&[f64]; 3],
    loft_accepted: f64,
    loft_latency: f64,
) -> Vec<Metric> {
    vec![
        end_to_end("setup_s", Summary::of(setup_s)),
        end_to_end("sim_cycles_per_s", Summary::of(sim_cps)),
        end_to_end("loft_cycles_per_s", Summary::of(net_cps[0])),
        end_to_end("gsf_cycles_per_s", Summary::of(net_cps[1])),
        end_to_end("wormhole_cycles_per_s", Summary::of(net_cps[2])),
        end_to_end("peak_rss_mb", Summary::exact(peak_rss_mb())),
        end_to_end(
            "loft_accepted_flits_per_cycle_node",
            Summary::exact(loft_accepted),
        ),
        end_to_end("loft_avg_latency_cycles", Summary::exact(loft_latency)),
    ]
}

/// One network's simulated statistics over a cell workload: Σ
/// in-window flits ÷ Σ (measure × nodes), and the mean over its cells
/// with latency samples of the cell's mean total latency. For LOFT
/// these are the two simulated end-to-end metrics.
pub fn simulated(
    cells: &[Box<dyn Cell>],
    reference: &[(SimReport, RunInfo)],
    net: &str,
) -> (f64, f64) {
    let reports = || {
        cells
            .iter()
            .zip(reference)
            .filter(|(c, _)| c.net() == net)
            .map(|(_, (report, _))| report)
    };
    let flits: u64 = reports().map(|r| r.flits_delivered).sum();
    let capacity: u64 = reports()
        .map(|r| r.measured_cycles * r.num_nodes as u64)
        .sum();
    let latencies: Vec<f64> = reports()
        .filter(|r| r.total_latency.count() > 0)
        .map(SimReport::avg_latency)
        .collect();
    (flits as f64 / capacity as f64, mean(&latencies))
}

/// `run` on a cell workload.
pub fn run_cells(workload: &str, seed: u64, budget: &Budget) -> WorkloadResult {
    let mut cells = cells(workload, seed, budget.smoke, 1);
    let mut run = repeat(&mut cells, budget);
    check_scratch(&cells, &mut run);

    let setup_s: Vec<f64> = run
        .setups
        .iter()
        .map(|s| s.iter().map(|t| t.total).sum())
        .collect();
    let sim_cps = run.cycles_per_s(&cells, |_| true);
    let net_cps = NETS.map(|net| run.cycles_per_s(&cells, |c| c.net() == net));
    let (accepted, latency) = simulated(&cells, &run.reference, "loft");
    WorkloadResult {
        workload: workload.to_string(),
        cells_attempted: cells.len(),
        cells_failed: run.cells_failed(),
        failures: run.failure_lines(),
        metrics: end_to_end_metrics(
            &setup_s,
            &sim_cps,
            [&net_cps[0], &net_cps[1], &net_cps[2]],
            accepted,
            latency,
        ),
        extras: vec![("cells".to_string(), run.cell_table(&cells))],
    }
}
