//! Hot-loop throughput benchmark: simulated cycles/second and
//! delivered packets/second for each network architecture, at a low
//! load point, near saturation, and under hotspot traffic.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p loft-bench --bin perf
//! ```
//!
//! Each measurement prints one machine-readable JSON line:
//!
//! ```text
//! {"net":"loft","scenario":"uniform","load":0.05,"threads":1,
//!  "jobs":1,"forked_warmup":true,
//!  "sim_cycles":23000,"skipped_cycles":0,"wall_secs":0.0123,
//!  "cycles_per_sec":1951219.5,
//!  "packets_delivered":730,"packets_per_sec":59349.6,
//!  "flits_delivered":2920,"avg_latency":27.41,"p50":31,"p95":63,
//!  "p99":63,"saturated":false,"allocs_per_cycle":null}
//! ```
//!
//! `cycles_per_sec` is the headline number for hot-path optimization
//! work: compare it across commits at the same load point (the
//! simulations are fully deterministic, so the simulated work is
//! identical and only the wall clock moves).
//!
//! **Forked warmup**: each point runs its warmup once into a
//! `noc_sim::checkpoint::Checkpoint` and every timed iteration forks
//! that checkpoint instead of re-running construction + warmup. The
//! forked iterations are bit-identical to from-scratch runs, so the
//! reports are those of a straight run — but the timed span covers
//! only the measurement + drain phases, and
//! `sim_cycles`/`cycles_per_sec` are computed over that span. Every
//! row, `--telemetry` rows included, is measured this way, and
//! `forked_warmup` in the row records that basis, so rows are never
//! silently compared with full-run (warmup-inclusive) rows.
//!
//! `--jobs N` measures up to `N` points concurrently on a
//! work-stealing pool (whole simulations, unchanged results — rows
//! still print in matrix order). Jobs are clamped so `jobs × threads`
//! never oversubscribes the machine, and `--jobs` > 1 refuses to
//! combine with `--alloc-budget`: the allocation counter is
//! process-global, so concurrent points would pollute each other's
//! rates. Wall-clock rates from concurrent rows reflect a shared
//! machine; use `--jobs 1` (the default) for comparable
//! `cycles_per_sec` numbers.
//!
//! `packets_delivered` counts packets *ejected during the measurement
//! window* (the windowed throughput convention), so a saturated
//! network still reports its real delivery rate. `avg_latency` is the
//! mean over packets *created* in the window; past saturation none of
//! those complete, so the latency prints `null` and `saturated` is
//! `true` — offered load beyond capacity has unbounded latency, not
//! zero.
//!
//! `p50`/`p95`/`p99` are power-of-two upper bounds on total latency
//! from the measurement window's histogram
//! (`Histogram::quantile_upper_bound`); like `avg_latency` they print
//! `null` when the window produced no completed packets.
//!
//! `--telemetry PATH` attaches a live probe (`noc_sim::telemetry`) to
//! the warmup checkpoint and so to every fork of it — including the
//! timed iterations, so the printed `cycles_per_sec` genuinely
//! measures the telemetry-on hot loop —
//! and writes a JSON array to `PATH` with one entry per measured
//! point: `{"net","scenario","load","telemetry":<versioned telemetry
//! document>}`. Combine with `--min-cps` floors at ~0.9× of the
//! telemetry-off floors to gate the probe's overhead in CI.
//!
//! `allocs_per_cycle` is the steady-state allocation rate: heap
//! allocations between the warmup/measurement boundary and the end of
//! the run, divided by the measurement window. The counted span
//! starts after the fork completes (the deep copy is setup, not
//! steady state) and also covers the drain phase, so dividing by the
//! measurement window alone slightly overestimates the rate —
//! conservative for a budget gate. It requires the
//! `alloc-count` feature (which installs a counting global allocator)
//! and prints `null` without it. With `--alloc-budget X` the process
//! exits nonzero if any measured point exceeds `X` — the CI gate that
//! keeps the steady state allocation-free.
//!
//! `--profile` attaches the in-program phase profiler
//! (`noc_sim::telemetry::PhaseProbe`) instead and appends two objects
//! to each row: `"phase_ns_per_cycle":{..}` — mean host nanoseconds
//! per stepped cycle in each phase of the network's cycle, warmup
//! included — and `"phase_share":{..}`, each phase's share of their
//! sum. The timed iterations carry the clock reads too (one per phase
//! boundary), so a profiled row's `cycles_per_sec` is not comparable
//! with an unprofiled one; it does not combine with `--telemetry`.
//!
//! `--smoke` runs tiny windows with one timed iteration — a
//! seconds-long CI check that the harness and all three hot loops
//! still run end to end (the numbers it prints are not comparable
//! across machines, but `allocs_per_cycle` is machine-independent and
//! gateable even in smoke mode).
//!
//! `--min-cps net=floor[,net=floor...]` (e.g.
//! `--min-cps loft=200000,gsf=100000`) fails the process if any
//! measured point of a named network falls below its floor in
//! simulated cycles/second. Floors for CI must sit far below typical
//! hardware (they catch order-of-magnitude hot-loop regressions, not
//! percent-level drift — wall-clock gates on shared runners cannot do
//! better).
//!
//! `--threads N` steps every network with `N` shards on the
//! persistent worker pool (see `noc_sim::par`; default 1). Results
//! are bit-identical at every value — only the wall clock moves — and
//! each JSON row records the setting in its `threads` field, so
//! single- vs multi-thread rows are directly comparable.
//!
//! `skipped_cycles` counts simulated cycles covered by the engine's
//! quiescence fast-forward (closed-form jumps over globally idle
//! spans) instead of per-cycle stepping; results are bit-identical
//! either way, so the field only explains where `cycles_per_sec`
//! gains come from. `--no-fast-forward` disables the fast path — the
//! before/after pair at the same point isolates its speedup.
//!
//! `--traffic {bursty,regulated}` swaps the default uniform/hotspot
//! point matrix for the quiescence-heavy workloads
//! (`Scenario::bursty_low_duty`, `Scenario::regulated`), where idle
//! spans dominate the run and the fast path carries the load.

use loft::LoftConfig;
use loft_bench::sweep::{clamp_jobs, Net};
use loft_bench::{map_jobs, or_exit, simulation, NetSpec, SEED, TELEMETRY_WINDOW};
use noc_gsf::GsfConfig;
use noc_sim::telemetry::{LiveProbe, NoopProbe, PhaseProbe, Probe, TelemetryReport};
use noc_sim::{ConfigError, RunConfig};
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

/// Measurement-window sizing: long enough that per-run overhead
/// (network construction, warmup) is amortized, short enough that the
/// whole matrix finishes in seconds. `--smoke` shrinks the window to
/// a functional check.
fn run(smoke: bool) -> RunConfig {
    if smoke {
        RunConfig {
            warmup: 200,
            measure: 2_000,
            drain: 1_000,
        }
    } else {
        RunConfig {
            warmup: 1_000,
            measure: 20_000,
            drain: 3_000,
        }
    }
}

/// One cell of the perf matrix, dispatchable on a worker pool.
#[derive(Clone, Copy)]
struct Spec {
    net: Net,
    scenario: &'static str,
    load: f64,
}

/// Shared measurement settings (everything `Copy` so specs can run on
/// pool workers).
#[derive(Clone, Copy)]
struct Ctx {
    threads: usize,
    jobs: usize,
    iters: u32,
    cfg: RunConfig,
    fast_forward: bool,
    with_telemetry: bool,
    profile: bool,
}

/// One measured point: the printed JSON line, the simulated-cycle
/// rate, the steady-state allocation rate (`None` without the
/// `alloc-count` feature), and the telemetry array entry (`None`
/// without `--telemetry`).
struct Row {
    net: Net,
    line: String,
    cycles_per_sec: f64,
    allocs_per_cycle: Option<f64>,
    telemetry: Option<String>,
}

/// Heap allocations so far (`None` without the `alloc-count` feature).
fn allocs() -> Option<u64> {
    #[cfg(feature = "alloc-count")]
    return Some(loft_bench::alloc_count::total());
    #[cfg(not(feature = "alloc-count"))]
    None
}

/// Measures one point on the architecture configured by `C`: warms up
/// once into a checkpoint carrying `probe`, then forks it per
/// iteration, so the timed span covers the measurement + drain phases
/// only (`sim_cycles` records that basis) and every fork's report is
/// bit-identical to a from-scratch run's. `finish` turns the first
/// fork's probe into the point's telemetry document, if any, and the
/// extra row fields it contributes (empty, or starting with a comma).
fn measure<C: NetSpec, P: Probe + Clone>(
    spec: Spec,
    ctx: Ctx,
    scenario: &Scenario,
    probe: P,
    finish: impl Fn(P) -> (Option<TelemetryReport>, String),
) -> Result<Row, ConfigError> {
    let net_cfg = C::on(scenario.topo, ctx.threads);
    let ckpt = simulation(scenario, net_cfg, probe, ctx.cfg, SEED)?
        .with_fast_forward(ctx.fast_forward)
        .run_to_checkpoint();

    // One untimed leg, doubling as the allocation measurement. The
    // fork itself is setup (a deep copy), so the counter is
    // snapshotted after it.
    let leg = ckpt.fork();
    let at_boundary = allocs();
    let (report, network, info) = leg.resume();
    let allocs_per_cycle = allocs()
        .zip(at_boundary)
        .map(|(after, before)| (after - before) as f64 / ctx.cfg.measure as f64);

    // Serialize the telemetry document outside the counted and timed
    // spans: the JSON export is one-shot output formatting, not part
    // of the steady-state loop the allocation budget gates (the
    // probe's own recording stays inside the span, where it belongs).
    let (telemetry, probe_fields) = finish(C::into_probe(network));
    let telemetry = telemetry.map(|t| {
        let doc = t.to_json();
        format!(
            "{{\"net\":\"{}\",\"scenario\":\"{}\",\"load\":{},\"telemetry\":{doc}}}",
            C::NAME,
            spec.scenario,
            spec.load
        )
    });

    let start = std::time::Instant::now();
    for _ in 0..ctx.iters {
        std::hint::black_box(ckpt.fork().resume());
    }
    let wall = start.elapsed().as_secs_f64() / f64::from(ctx.iters);
    let sim_cycles = ctx.cfg.measure + ctx.cfg.drain;

    // Windowed delivery: packets ejected inside the measurement
    // window, regardless of when they were created. The latency mean
    // only covers created-in-window packets; under saturation none of
    // those finish, which is a property of the load point — report it
    // instead of a fake 0 latency.
    let packets: u64 = report.flows.iter().map(|f| f.packets_delivered).sum();
    let saturated = report.total_latency.count() == 0 && packets > 0;
    let no_samples = report.total_latency.count() == 0;
    let avg_latency = if no_samples {
        "null".to_string()
    } else {
        format!("{:.4}", report.avg_latency())
    };
    // Latency percentiles from the window's power-of-two histogram;
    // null alongside avg_latency (no completed in-window packets).
    let pq = |q: f64| {
        if no_samples {
            "null".to_string()
        } else {
            report.latency_histogram.quantile_upper_bound(q).to_string()
        }
    };
    let (p50, p95, p99) = (pq(0.50), pq(0.95), pq(0.99));
    let cycles_per_sec = sim_cycles as f64 / wall;
    let allocs = allocs_per_cycle.map_or_else(|| "null".to_string(), |a| format!("{a:.4}"));
    let line = format!(
        "{{\"net\":\"{}\",\"scenario\":\"{}\",\"load\":{},\
         \"threads\":{},\"jobs\":{},\"forked_warmup\":true,\
         \"sim_cycles\":{sim_cycles},\"skipped_cycles\":{},\
         \"wall_secs\":{wall:.6},\
         \"cycles_per_sec\":{cycles_per_sec:.1},\"packets_delivered\":{packets},\
         \"packets_per_sec\":{:.1},\"flits_delivered\":{},\
         \"avg_latency\":{avg_latency},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\
         \"saturated\":{saturated},\
         \"allocs_per_cycle\":{allocs}{probe_fields}}}",
        C::NAME,
        spec.scenario,
        spec.load,
        ctx.threads,
        ctx.jobs,
        info.skipped_cycles,
        packets as f64 / wall,
        report.flits_delivered,
    );
    Ok(Row {
        net: spec.net,
        line,
        cycles_per_sec,
        allocs_per_cycle,
        telemetry,
    })
}

/// [`measure`] with the probe `--telemetry` / `--profile` selects.
fn measure_on<C: NetSpec>(spec: Spec, ctx: Ctx, scenario: &Scenario) -> Result<Row, ConfigError> {
    if ctx.with_telemetry {
        let probe = LiveProbe::new(TELEMETRY_WINDOW);
        measure::<C, _>(spec, ctx, scenario, probe, |p| {
            (Some(p.finish()), String::new())
        })
    } else if ctx.profile {
        measure::<C, _>(spec, ctx, scenario, PhaseProbe::default(), |p| {
            (None, format!(",{}", p.to_json_fields(C::PHASES)))
        })
    } else {
        measure::<C, _>(spec, ctx, scenario, NoopProbe, |_| (None, String::new()))
    }
}

/// Runs one cell of the matrix.
fn run_spec(spec: Spec, ctx: Ctx) -> Result<Row, ConfigError> {
    let scenario = match spec.scenario {
        "uniform" => Scenario::uniform(spec.load),
        "hotspot" => Scenario::hotspot(spec.load),
        "bursty-low" => Scenario::bursty_low_duty(spec.load),
        "regulated" => Scenario::regulated(spec.load),
        other => unreachable!("unknown scenario {other}"),
    };
    match spec.net {
        Net::Loft => measure_on::<LoftConfig>(spec, ctx, &scenario),
        Net::Gsf => measure_on::<GsfConfig>(spec, ctx, &scenario),
        Net::Wormhole => measure_on::<WormholeConfig>(spec, ctx, &scenario),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let budget: Option<f64> = args.iter().position(|a| a == "--alloc-budget").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--alloc-budget takes a numeric argument")
    });
    if budget.is_some() && cfg!(not(feature = "alloc-count")) {
        eprintln!("--alloc-budget requires --features alloc-count (nothing to gate on)");
        std::process::exit(1);
    }
    let threads: usize = args.iter().position(|a| a == "--threads").map_or(1, |i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--threads takes a positive integer")
    });
    let jobs: usize = args.iter().position(|a| a == "--jobs").map_or(1, |i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--jobs takes a positive integer")
    });
    let jobs = clamp_jobs(jobs, threads);
    if budget.is_some() && jobs > 1 {
        eprintln!(
            "--alloc-budget cannot run with --jobs {jobs}: the allocation counter is \
             process-global, so concurrent points would pollute each other's rates"
        );
        std::process::exit(1);
    }
    let telemetry_path: Option<String> = args.iter().position(|a| a == "--telemetry").map(|i| {
        args.get(i + 1)
            .cloned()
            .expect("--telemetry takes an output path")
    });
    let with_telemetry = telemetry_path.is_some();
    let profile = args.iter().any(|a| a == "--profile");
    if profile && with_telemetry {
        eprintln!("--profile and --telemetry each attach their own probe; pick one");
        std::process::exit(1);
    }
    let fast_forward = !args.iter().any(|a| a == "--no-fast-forward");
    let traffic: Option<String> = args.iter().position(|a| a == "--traffic").map(|i| {
        args.get(i + 1)
            .cloned()
            .expect("--traffic takes bursty or regulated")
    });
    // Per-network cycles/second floors: "loft=200000,gsf=100000".
    let floors: Vec<(String, f64)> = args
        .iter()
        .position(|a| a == "--min-cps")
        .map(|i| {
            args.get(i + 1)
                .map(|v| {
                    v.split(',')
                        .map(|pair| {
                            let (net, cps) = pair
                                .split_once('=')
                                .expect("--min-cps entries look like net=cycles_per_sec");
                            (
                                net.to_string(),
                                cps.parse().expect("--min-cps floor must be numeric"),
                            )
                        })
                        .collect()
                })
                .expect("--min-cps takes net=floor[,net=floor...]")
        })
        .unwrap_or_default();

    let ctx = Ctx {
        threads,
        jobs,
        iters: if smoke { 1 } else { 5 },
        cfg: run(smoke),
        fast_forward,
        with_telemetry,
        profile,
    };
    // Low load: the hot loop is dominated by per-cycle scans over
    // mostly-idle state — exactly what active-set worklists target.
    // Near saturation: dominated by real queue and slab work, which
    // is where steady-state allocations would hide. Hotspot
    // concentrates that pressure on a few links. The --traffic
    // matrices swap in the quiescence-heavy workloads where the
    // engine's fast-forward dominates the wall clock.
    let points: &[(&'static str, f64)] = match traffic.as_deref() {
        Some("bursty") => &[("bursty-low", 0.60)],
        Some("regulated") => &[("regulated", 0.05)],
        Some(other) => panic!("--traffic must be bursty or regulated, got {other:?}"),
        None if smoke => &[("uniform", 0.05), ("uniform", 0.60)],
        None => &[("uniform", 0.05), ("uniform", 0.60), ("hotspot", 0.60)],
    };
    let specs: Vec<Spec> = points
        .iter()
        .flat_map(|&(scenario, load)| {
            [Net::Loft, Net::Gsf, Net::Wormhole].map(|net| Spec {
                net,
                scenario,
                load,
            })
        })
        .collect();
    let rows: Vec<Row> = map_jobs(jobs, specs, |spec| or_exit(run_spec(spec, ctx)));
    for row in &rows {
        println!("{}", row.line);
    }

    let mut worst: f64 = 0.0;
    // One telemetry document per measured point (--telemetry).
    let mut telemetry_docs: Vec<String> = Vec::new();
    // Slowest measured point per network, for the --min-cps gate.
    let mut min_cps = [Net::Loft, Net::Gsf, Net::Wormhole].map(|net| (net, f64::INFINITY));
    for row in rows {
        worst = row.allocs_per_cycle.iter().fold(worst, |w, &a| w.max(a));
        if let Some(slot) = min_cps.iter_mut().find(|(n, _)| *n == row.net) {
            slot.1 = slot.1.min(row.cycles_per_sec);
        }
        if let Some(doc) = row.telemetry {
            telemetry_docs.push(doc);
        }
    }
    if let Some(path) = &telemetry_path {
        let body = format!("[{}]", telemetry_docs.join(","));
        std::fs::write(path, body).expect("writing --telemetry output failed");
        eprintln!(
            "telemetry written: {path} ({} points)",
            telemetry_docs.len()
        );
    }
    let mut failed = false;
    if let Some(b) = budget {
        if worst > b {
            eprintln!("alloc budget exceeded: worst allocs_per_cycle {worst:.4} > budget {b}");
            failed = true;
        } else {
            eprintln!("alloc budget ok: worst allocs_per_cycle {worst:.4} <= budget {b}");
        }
    }
    for (net, floor) in &floors {
        match min_cps.iter().find(|(n, _)| n.name() == net) {
            Some(&(_, got)) => {
                if got < *floor {
                    eprintln!("cps floor violated: {net} ran at {got:.0} < floor {floor:.0}");
                    failed = true;
                } else {
                    eprintln!("cps floor ok: {net} ran at {got:.0} >= floor {floor:.0}");
                }
            }
            None => {
                eprintln!("--min-cps names unknown network {net:?}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
