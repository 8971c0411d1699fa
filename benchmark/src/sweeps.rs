//! The `sweep-matrix` workload: `loft_bench::sweep::run_sweep` over
//! the full matrix, end to end and by layer (from the `SweepRow`
//! fields — the sweep's interior is not visible from outside).

use std::collections::BTreeMap;
use std::time::Instant;

use loft_bench::sweep::{
    full_matrix, run_sweep, topo_name, Net, SweepGroup, SweepOptions, SweepRow, TrafficKind,
};
use noc_sim::RunConfig;
use noc_traffic::Scenario;

use crate::json::Value;
use crate::layers::Layers;
use crate::net::NETS;
use crate::probes;
use crate::result::{nproc, WorkloadResult};
use crate::run::{end_to_end_metrics, Budget};
use crate::stats::{mean, Summary};
use crate::trace::Spans;

/// `full_matrix` phases are divided by this: 30 groups at full length
/// take 7 s a sweep on two cores, which leaves too few repetitions in
/// a run for a steady median. The matrix itself is unchanged.
const PHASE_DIVISOR: u64 = 4;

pub fn jobs() -> usize {
    nproc().min(2)
}

/// `full_matrix(1, seed)` with shortened phases (`--smoke`: a further
/// twentieth).
pub fn groups(seed: u64, smoke: bool) -> Vec<SweepGroup> {
    let divisor = PHASE_DIVISOR * if smoke { 20 } else { 1 };
    let mut groups = full_matrix(1, seed);
    for g in &mut groups {
        g.run = RunConfig {
            warmup: g.run.warmup / divisor,
            measure: g.run.measure / divisor,
            drain: g.run.drain / divisor,
        };
    }
    groups
}

/// One `run_sweep` call and how long its caller waited.
pub struct Sweep {
    pub makespan: f64,
    pub start_ns: u64,
    pub rows: Vec<SweepRow>,
}

pub fn sweep(groups: &[SweepGroup], jobs: usize, fork_warmup: bool, epoch: Instant) -> Sweep {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let options = SweepOptions {
        jobs,
        fork_warmup,
        ..SweepOptions::default()
    };
    let rows = run_sweep(groups.to_vec(), &options);
    Sweep {
        makespan: t0.elapsed().as_secs_f64(),
        start_ns,
        rows,
    }
}

impl Sweep {
    /// The first row of every group: rows of a group are adjacent and
    /// share one warmup, which must be counted once.
    fn group_heads(&self) -> impl Iterator<Item = &SweepRow> {
        fn key(r: &SweepRow) -> (Net, &str, TrafficKind, u64) {
            (r.net, &r.topo, r.traffic, r.load.to_bits())
        }
        self.rows
            .iter()
            .enumerate()
            .filter(move |(i, r)| *i == 0 || key(&self.rows[i - 1]) != key(r))
            .map(|(_, r)| r)
    }

    pub fn warmup_secs(&self) -> f64 {
        self.group_heads().map(|r| r.warmup_secs).sum()
    }

    pub fn busy_secs(&self) -> f64 {
        self.warmup_secs() + self.rows.iter().map(|r| r.wall_secs).sum::<f64>()
    }

    /// Σ (end_cycle − warmup) over rows + warmup per group.
    fn cycles(&self, net: Option<&str>) -> u64 {
        let keep = |r: &&SweepRow| net.is_none_or(|n| r.net.name() == n);
        self.rows
            .iter()
            .filter(keep)
            .map(|r| r.end_cycle - r.warmup)
            .sum::<u64>()
            + self
                .group_heads()
                .filter(keep)
                .map(|r| r.warmup)
                .sum::<u64>()
    }

    pub fn cycles_per_s(&self) -> f64 {
        self.cycles(None) as f64 / self.makespan
    }

    /// One network's cycles ÷ (its rows' `wall_secs` + its groups'
    /// `warmup_secs`).
    pub fn net_cycles_per_s(&self, net: &str) -> f64 {
        let secs: f64 = self
            .rows
            .iter()
            .filter(|r| r.net.name() == net)
            .map(|r| r.wall_secs)
            .sum::<f64>()
            + self
                .group_heads()
                .filter(|r| r.net.name() == net)
                .map(|r| r.warmup_secs)
                .sum::<f64>();
        self.cycles(Some(net)) as f64 / secs
    }

    fn keys(&self) -> Vec<String> {
        self.rows.iter().map(SweepRow::equivalence_key).collect()
    }
}

/// Untimed sweep → timed sweeps → a re-warmed (`fork_warmup: false`)
/// sweep; every row of every sweep must carry the first sweep's
/// deterministic fields. A row is a cell.
pub struct SweepRun {
    pub groups: Vec<SweepGroup>,
    pub reference: Sweep,
    pub reps: Vec<Sweep>,
    /// Per row of `reference`.
    pub failures: Vec<Vec<String>>,
}

pub fn repeat(seed: u64, budget: &Budget, epoch: Instant) -> SweepRun {
    let groups = groups(seed, budget.smoke);
    let reference = sweep(&groups, jobs(), true, epoch);
    let keys = reference.keys();
    let mut failures = vec![Vec::new(); keys.len()];
    let mut check = |other: &Sweep, what: &str| {
        let got = other.keys();
        for (i, key) in keys.iter().enumerate() {
            if got.get(i) != Some(key) {
                failures[i].push(format!("row {i} [{key}]: {what}"));
            }
        }
    };
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < budget.min_reps || started.elapsed().as_secs_f64() < budget.seconds {
        let rep = sweep(&groups, jobs(), true, epoch);
        check(&rep, "a repeated sweep differs from the first");
        reps.push(rep);
    }
    check(
        &sweep(&groups, jobs(), false, epoch),
        "fork->resume differs from a from-scratch run",
    );
    SweepRun {
        groups,
        reference,
        reps,
        failures,
    }
}

impl SweepRun {
    fn nodes(&self) -> BTreeMap<String, u64> {
        self.groups
            .iter()
            .map(|g| (topo_name(g.topo), g.topo.num_nodes() as u64))
            .collect()
    }

    /// Accepted flits/cycle/node and mean of the rows' mean latency,
    /// for one network — over all its rows, or over those on the
    /// paper's 8×8 mesh only. The end-to-end metrics take the mesh
    /// rows, like every cell workload: LOFT's saturated torus row is
    /// chaotic in the seed (10–18k flits in a window), which would
    /// drown a model change in seed-to-seed spread.
    pub fn simulated(&self, net: &str, paper_mesh_only: bool) -> (f64, f64) {
        let nodes = self.nodes();
        let mesh = topo_name(Scenario::default_topology());
        let rows = || {
            self.reference
                .rows
                .iter()
                .filter(|r| r.net.name() == net && (!paper_mesh_only || r.topo == mesh))
        };
        let flits: u64 = rows().map(|r| r.flits).sum();
        let capacity: u64 = rows().map(|r| r.measure * nodes[&r.topo]).sum();
        let latencies: Vec<f64> = rows().filter_map(|r| r.avg_latency).collect();
        (flits as f64 / capacity as f64, mean(&latencies))
    }

    fn result(&self, metrics: Vec<crate::result::Metric>) -> WorkloadResult {
        WorkloadResult {
            workload: "sweep-matrix".to_string(),
            cells_attempted: self.reference.rows.len(),
            cells_failed: self.failures.iter().filter(|f| !f.is_empty()).count(),
            failures: self.failures.iter().flatten().cloned().collect(),
            metrics,
            // The first sweep's rows, as `sweep` itself prints them.
            extras: vec![(
                "rows".to_string(),
                Value::Arr(
                    self.reference
                        .rows
                        .iter()
                        .filter_map(|r| crate::json::parse(&r.to_json(jobs())).ok())
                        .collect(),
                ),
            )],
        }
    }

    fn end_to_end(&self) -> Vec<crate::result::Metric> {
        let per_rep = |f: &dyn Fn(&Sweep) -> f64| self.reps.iter().map(f).collect::<Vec<f64>>();
        let net_cps = NETS.map(|net| per_rep(&|s| s.net_cycles_per_s(net)));
        let (accepted, latency) = self.simulated("loft", true);
        end_to_end_metrics(
            &per_rep(&Sweep::warmup_secs),
            &per_rep(&Sweep::cycles_per_s),
            [&net_cps[0], &net_cps[1], &net_cps[2]],
            accepted,
            latency,
        )
    }
}

/// `run` on `sweep-matrix`.
pub fn run(seed: u64, budget: &Budget) -> WorkloadResult {
    let run = repeat(seed, budget, Instant::now());
    run.result(run.end_to_end())
}

/// `trace` on `sweep-matrix`: the sweep layer from the row fields, a
/// jobs-1 pass for `sweep.jobs_speedup`, and an outer span per sweep.
pub fn trace(seed: u64, budget: &Budget) -> (WorkloadResult, Spans) {
    let epoch = Instant::now();
    let run = repeat(seed, budget, epoch);
    let serial = sweep(&run.groups, 1, true, epoch);

    let mut spans = Spans::default();
    let root = spans.interval("sweep-matrix", None, 0, 0);
    for (i, s) in run.reps.iter().enumerate() {
        add_spans(
            &mut spans,
            root,
            &format!("run_sweep#{i} jobs={}", jobs()),
            s,
        );
    }
    add_spans(&mut spans, root, "run_sweep jobs=1", &serial);
    spans.set_end(root, epoch.elapsed().as_nanos() as u64);

    let mut layers = Layers::new();
    let reps = |f: &dyn Fn(&Sweep) -> f64| Summary::of(&run.reps.iter().map(f).collect::<Vec<_>>());
    let makespan = reps(&|s| s.makespan);
    layers.set("sweep.makespan_s", makespan);
    layers.set("sweep.busy_s", reps(&Sweep::busy_secs));
    layers.set(
        "sweep.pool_idle_share",
        reps(&|s| 1.0 - s.busy_secs() / (jobs() as f64 * s.makespan)),
    );
    layers.set(
        "sweep.warmup_share",
        reps(&|s| s.warmup_secs() / s.busy_secs()),
    );
    layers.set(
        "sweep.jobs_speedup",
        Summary::exact(serial.makespan / makespan.median),
    );
    let first = &run.reference;
    layers.set(
        "sweep.horizon_doublings",
        Summary::exact(
            first
                .rows
                .iter()
                .map(|r| f64::from(r.horizon_doublings))
                .sum(),
        ),
    );
    layers.set("sweep.rows", Summary::exact(first.rows.len() as f64));
    for net in NETS {
        let rows = || first.rows.iter().filter(|r| r.net.name() == net);
        let (accepted, latency) = run.simulated(net, false);
        layers.set(
            &format!("{net}.accepted_flits_per_cycle_node"),
            Summary::exact(accepted),
        );
        layers.set(
            &format!("{net}.avg_latency_cycles"),
            Summary::exact(latency),
        );
        layers.set(
            &format!("{net}.p99_latency_cycles"),
            Summary::exact(rows().filter_map(|r| r.p99).max().unwrap_or(0) as f64),
        );
        let ff_rows = || rows().filter(|r| r.ff);
        layers.set(
            &format!("engine.ff_skipped_share.{net}"),
            Summary::exact(
                ff_rows().map(|r| r.skipped_cycles).sum::<u64>() as f64
                    / ff_rows().map(|r| r.end_cycle).sum::<u64>() as f64,
            ),
        );
        layers.set(
            &format!("checkpoint.capture_s.{net}"),
            reps(&|s| {
                s.group_heads()
                    .filter(|r| r.net.name() == net)
                    .map(|r| r.warmup_secs)
                    .sum()
            }),
        );
    }
    layers.set("par.pool_dispatch_us", probes::pool_dispatch_us());

    let result = run.result(layers.into_metrics());
    (result, spans)
}

/// An outer span for the sweep; under it, per network, the summed
/// warmups and legs (`SweepRow` has durations, not start times).
fn add_spans(spans: &mut Spans, root: usize, name: &str, s: &Sweep) {
    let end = s.start_ns + (s.makespan * 1e9) as u64;
    let outer = spans.interval(name, Some(root), s.start_ns, end);
    for net in NETS {
        let heads: Vec<&SweepRow> = s.group_heads().filter(|r| r.net.name() == net).collect();
        let warm: f64 = heads.iter().map(|r| r.warmup_secs).sum();
        spans.many(
            format!("{net} warmup"),
            Some(outer),
            s.start_ns,
            end,
            (warm * 1e9) as u64,
            heads.len() as u64,
        );
        let legs: Vec<&SweepRow> = s.rows.iter().filter(|r| r.net.name() == net).collect();
        let wall: f64 = legs.iter().map(|r| r.wall_secs).sum();
        spans.many(
            format!("{net} legs (fork+resume)"),
            Some(outer),
            s.start_ns,
            end,
            (wall * 1e9) as u64,
            legs.len() as u64,
        );
    }
}
