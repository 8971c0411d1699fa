//! Layer probes: small experiments run in `trace` only, each aimed at
//! one layer the workloads themselves leave idle — `noc_sim::par`
//! (sharded stepping, pool dispatch) and the quiescence fast-forward.
//! Each returns the checks it failed.

use std::hint::black_box;
use std::time::Instant;

use noc_sim::par::WorkerPool;
use noc_sim::{RunConfig, RunInfo, SimReport, TrafficSource};
use noc_traffic::Scenario;

use crate::cells::{Cell, NetCell, Role};
use crate::layers::Layers;
use crate::net::{Gsf, Loft, Wormhole, NETS};
use crate::result::nproc;
use crate::run::{self, Budget};
use crate::stats::{median, Summary};

/// Host time of one `WorkerPool::run` of two empty tasks on the pool
/// width the harness uses (`min(2, nproc)` threads, caller included).
pub fn pool_dispatch_us() -> Summary {
    const BATCH: u32 = 2_000;
    let mut pool = WorkerPool::new(nproc().min(2) - 1);
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                pool.run(2, &|i| {
                    black_box(i);
                });
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH)
        })
        .collect();
    Summary::of(&samples)
}

/// `par.shard2_speedup.{net}`: the workload's cells stepped with two
/// shards against the single-shard cycles/second of the same process
/// (ROADMAP 1(d)'s keep-or-delete number). Sharding must not change
/// any output.
pub fn shard2(
    layers: &mut Layers,
    workload: &str,
    seed: u64,
    budget: &Budget,
    threads1_cps: [f64; 3],
    reference: &[(SimReport, RunInfo)],
) -> Vec<String> {
    let mut cells = run::cells(workload, seed, budget.smoke, 2);
    let budget = Budget {
        setups: 1,
        ..*budget
    };
    let sharded = run::repeat(&mut cells, &budget);
    let mut failures = sharded.failure_lines();
    for (cell, (got, want)) in cells.iter().zip(sharded.reference.iter().zip(reference)) {
        if got.0 != want.0 {
            failures.push(format!("{}: two shards changed the report", cell.name()));
        }
    }
    for (net, base) in NETS.into_iter().zip(threads1_cps) {
        let cps = median(&sharded.cycles_per_s(&cells, |c| c.net() == net));
        layers.set(
            &format!("par.shard2_speedup.{net}"),
            Summary::exact(cps / base),
        );
    }
    failures
}

/// The idle probe: `Scenario::bursty_low_duty(0.60)` (four corner
/// flows at 0.2% duty) over a long window, resumed with fast-forward
/// on and off — `engine.ff_speedup.{net}` — and the traffic source's
/// idle scan on its own — `traffic.next_active_ns_per_call`.
pub fn idle(layers: &mut Layers, seed: u64, smoke: bool) -> Vec<String> {
    let scenario = Scenario::bursty_low_duty(0.60);
    let run = RunConfig {
        warmup: 2_000,
        measure: if smoke { 200_000 } else { 4_000_000 },
        drain: 5_000,
    };
    let mut cells: Vec<Box<dyn Cell>> = vec![
        Box::new(NetCell::<Loft>::new(
            scenario.clone(),
            run,
            seed,
            Role::Plain,
            1,
        )),
        Box::new(NetCell::<Gsf>::new(
            scenario.clone(),
            run,
            seed,
            Role::Plain,
            1,
        )),
        Box::new(NetCell::<Wormhole>::new(
            scenario.clone(),
            run,
            seed,
            Role::Plain,
            1,
        )),
    ];
    let mut failures = Vec::new();
    for cell in &mut cells {
        cell.setup();
        let jumped = cell.rep(true);
        let stepped = cell.rep(false);
        if jumped.report != stepped.report || jumped.info.end_cycle != stepped.info.end_cycle {
            failures.push(format!("{}: fast-forward changed the outputs", cell.name()));
        }
        if jumped.info.skipped_cycles <= stepped.info.skipped_cycles {
            failures.push(format!("{}: fast-forward skipped nothing", cell.name()));
        }
        layers.set(
            &format!("engine.ff_speedup.{}", cell.net()),
            Summary::exact(stepped.times.secs() / jumped.times.secs()),
        );
    }

    // The scan the engine makes when the network is empty: find the
    // next firing cycle, generate there, scan on.
    let mut workload = scenario.workload(seed);
    let limit = run.warmup + run.measure;
    let mut out = Vec::new();
    let (mut cycle, mut calls) = (0u64, 0u64);
    let t0 = Instant::now();
    while cycle < limit {
        let next = workload.next_active_cycle(cycle, limit);
        calls += 1;
        if next < limit {
            out.clear();
            workload.generate(next, &mut out);
            black_box(&out);
        }
        cycle = next + 1;
    }
    layers.set(
        "traffic.next_active_ns_per_call",
        Summary::exact(t0.elapsed().as_nanos() as f64 / calls as f64),
    );
    failures
}
