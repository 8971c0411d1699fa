//! # loft-bench — experiment harness for the LOFT reproduction
//!
//! One `paper` binary regenerates every table and figure of the paper
//! (`paper ARTIFACT`, or plain `paper` for all of them), and one
//! `sweep` binary runs the experiment matrix ([`sweep`]) and CI's
//! performance gates, on the shared machinery here: the single
//! generic run path for all three network architectures, job-parallel
//! parameter sweeps, and plain-text table output.
//!
//! | Paper artifact | Command (default: every case) |
//! |----------------|---------|
//! | Table 1 (setup) | `paper table1` |
//! | Table 2 (storage) + area/power | `paper table2` |
//! | §5.3.1 delay bounds | `paper delay-bounds` |
//! | Figure 6 (flow-control timeline) | `paper fig6` |
//! | Figure 10 (fairness) | `paper fig10 [equal\|diff4\|diff2]` |
//! | Figure 11 (latency/throughput) | `paper fig11 [uniform\|hotspot]` |
//! | Figure 12 (Case Study I, DoS) | `paper fig12` |
//! | Figure 13 (Case Study II, pathological) | `paper fig13` |
//! | §4.3 optimizations decomposed (extension) | `paper ablation` |
//! | Frame size / window sweep (extension) | `paper sensitivity` |
//! | Per-link utilization heatmaps (extension) | `paper utilization [uniform\|hotspot\|case2 [RATE]]` (default: `case2 0.64`) |
//!
//! # One run path
//!
//! The paper applies one warmup/measure/drain methodology to LOFT,
//! GSF and the wormhole baseline, and so does the harness: the
//! network is chosen by the config type ([`NetSpec`] is implemented
//! for `LoftConfig`, `GsfConfig` and `WormholeConfig`), and
//! [`simulation`] is the only constructor. Probe, fast-forward,
//! warmup hook, checkpoint, fork and horizon are the existing
//! [`Simulation`] / [`noc_sim::Checkpoint`] methods chained onto it;
//! [`run`] is the probe-less, straight-through shorthand the `paper`
//! artifacts use.
//!
//! ```
//! use loft::LoftConfig;
//! use loft_bench::{simulation, NetSpec, SEED, TELEMETRY_WINDOW};
//! use noc_sim::telemetry::LiveProbe;
//! use noc_sim::RunConfig;
//! use noc_traffic::Scenario;
//!
//! # fn main() -> Result<(), noc_sim::ConfigError> {
//! let s = Scenario::hotspot(0.01);
//! let run = RunConfig { warmup: 200, measure: 500, drain: 500 };
//! // Warm up once with a live probe attached ...
//! let ckpt = simulation(&s, LoftConfig::default(), LiveProbe::new(TELEMETRY_WINDOW), run, SEED)?
//!     .run_to_checkpoint();
//! // ... then measure as many variants as needed from that state.
//! let (report, network, _) = ckpt.fork().with_fast_forward(false).resume();
//! let telemetry = LoftConfig::into_probe(network).finish();
//! let (doubled, _, _) = ckpt.fork().with_measure(2 * run.measure).resume();
//! assert!(telemetry.cycles > 0 && doubled.flits_delivered >= report.flits_delivered);
//! # Ok(())
//! # }
//! ```
#![deny(unsafe_code)]

use std::panic;
use std::sync::Mutex;

use loft::{LoftConfig, LoftNetwork};
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::telemetry::{NoopProbe, Phase, Probe};
use noc_sim::{ConfigError, Network, RunConfig, SimReport, Simulation, Topology};
use noc_traffic::{Scenario, Workload};
use noc_wormhole::{WormholeConfig, WormholeNetwork};

pub mod sweep;

/// Default seed for all experiments (fully deterministic runs).
pub const SEED: u64 = 0xC0FFEE;

/// Occupancy-sampling and flow-series window (cycles) used by every
/// telemetry-enabled runner. Coarse enough that sampling costs
/// nothing measurable, fine enough that the per-flow series resolve
/// the frame-scale dynamics the QoS experiments look at.
pub const TELEMETRY_WINDOW: u64 = 1_000;

/// Allocation counting for the zero-allocation steady-state gate
/// (`alloc-count` feature): wraps the system allocator, counting
/// every `alloc`/`realloc` so sweep rows can report
/// `allocs_per_cycle` and `sweep --alloc-budget` can fail CI when the
/// steady state regresses into per-cycle heap traffic.
///
/// The counter is **process-wide**: a `#[global_allocator]` serves
/// every thread, so concurrent legs would count each other's
/// allocations. That is why `sweep --alloc-budget` needs `--jobs 1`.
#[cfg(feature = "alloc-count")]
#[allow(unsafe_code)]
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocations.
    pub struct CountingAlloc;

    // SAFETY: defers every operation to `System`; the counter is a
    // relaxed atomic with no other side effects.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the caller's `alloc` contract is passed on
            // unchanged to `System`.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` (every allocation here
            // is `System`'s), with this `layout`, per the caller.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: as for `dealloc`; the caller's `realloc`
            // contract is passed on unchanged to `System`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Heap allocations (including reallocations) since process
    /// start.
    pub fn total() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// A network architecture as the harness sees it: a configuration
/// type that knows how to build its network for a scenario. The
/// implementors are the three config structs themselves, so a caller
/// picks the network by the config it passes and everything after
/// construction — warmup, fast-forward, checkpoints, forks, probes —
/// is the one generic [`Simulation`] / [`noc_sim::Checkpoint`] API.
pub trait NetSpec: Sized {
    /// Row/CLI name of the architecture.
    const NAME: &'static str;

    /// The phases of the network's cycle that a profiling probe
    /// (`Probe::PROFILE`) is told about, in order.
    const PHASES: &'static [Phase];

    /// The network this configuration builds, carrying probe `P`.
    type Net<P: Probe + Clone>: Network + Clone;

    /// The default configuration on `topo`.
    fn on(topo: Topology) -> Self;

    /// Builds the network for `scenario` with `probe` attached.
    ///
    /// # Errors
    ///
    /// Fails if the configuration cannot run (its `validate`), if the
    /// scenario was built for another topology or cannot run on it
    /// ([`Scenario::check`]: zero-flit packets, a malformed flow),
    /// or if the scenario's reservations do not fit the configured
    /// frame (see [`Scenario::reservations`]).
    fn build<P: Probe + Clone>(
        self,
        scenario: &Scenario,
        probe: P,
    ) -> Result<Self::Net<P>, ConfigError>;

    /// Hands back the probe threaded through a finished network.
    fn into_probe<P: Probe + Clone>(net: Self::Net<P>) -> P;
}

/// Fails unless `scenario` was built for `topo` and passes
/// [`Scenario::check`]: its node ids and the paths its reservations
/// were sized on hold on that topology only.
fn check_topology(scenario: &Scenario, topo: Topology) -> Result<(), ConfigError> {
    if scenario.topo == topo {
        return scenario.check();
    }
    Err(ConfigError::new(format!(
        "scenario {} is built for {:?}, the network for {topo:?}",
        scenario.name, scenario.topo
    )))
}

impl NetSpec for LoftConfig {
    const NAME: &'static str = "loft";
    const PHASES: &'static [Phase] = &Phase::LOFT;
    type Net<P: Probe + Clone> = LoftNetwork<P>;

    fn on(topo: Topology) -> Self {
        LoftConfig::on(topo)
    }

    fn build<P: Probe + Clone>(
        self,
        scenario: &Scenario,
        probe: P,
    ) -> Result<LoftNetwork<P>, ConfigError> {
        self.validate()?;
        check_topology(scenario, self.topo)?;
        let reservations = scenario.reservations(self.frame_size)?;
        Ok(LoftNetwork::with_probe(self, &reservations, probe))
    }

    fn into_probe<P: Probe + Clone>(net: LoftNetwork<P>) -> P {
        net.into_probe()
    }
}

impl NetSpec for GsfConfig {
    const NAME: &'static str = "gsf";
    const PHASES: &'static [Phase] = &Phase::VC;
    type Net<P: Probe + Clone> = GsfNetwork<P>;

    fn on(topo: Topology) -> Self {
        GsfConfig::on(topo)
    }

    fn build<P: Probe + Clone>(
        self,
        scenario: &Scenario,
        probe: P,
    ) -> Result<GsfNetwork<P>, ConfigError> {
        self.validate()?;
        check_topology(scenario, self.topo)?;
        let reservations = scenario.reservations(self.frame_size)?;
        Ok(GsfNetwork::with_probe(self, &reservations, probe))
    }

    fn into_probe<P: Probe + Clone>(net: GsfNetwork<P>) -> P {
        net.into_probe()
    }
}

impl NetSpec for WormholeConfig {
    const NAME: &'static str = "wormhole";
    const PHASES: &'static [Phase] = &Phase::VC;
    type Net<P: Probe + Clone> = WormholeNetwork<P>;

    fn on(topo: Topology) -> Self {
        WormholeConfig::on(topo)
    }

    fn build<P: Probe + Clone>(
        self,
        scenario: &Scenario,
        probe: P,
    ) -> Result<WormholeNetwork<P>, ConfigError> {
        self.validate()?;
        check_topology(scenario, self.topo)?;
        Ok(WormholeNetwork::with_probe(self, probe))
    }

    fn into_probe<P: Probe + Clone>(net: WormholeNetwork<P>) -> P {
        net.into_probe()
    }
}

/// The harness's single entry point (worked example in the crate
/// docs): builds `cfg`'s network for `scenario` with `probe` attached
/// and couples it to the scenario's workload. Everything else is a
/// method on the result.
///
/// # Errors
///
/// Fails if the scenario is infeasible for `cfg` (see
/// [`NetSpec::build`]).
pub fn simulation<C: NetSpec, P: Probe + Clone>(
    scenario: &Scenario,
    cfg: C,
    probe: P,
    run: RunConfig,
    seed: u64,
) -> Result<Simulation<C::Net<P>, Workload>, ConfigError> {
    let network = cfg.build(scenario, probe)?;
    Ok(Simulation::new(network, scenario.workload(seed), run))
}

/// [`simulation`] without a probe, run to completion: the report of
/// one warmup + measure + drain run.
///
/// # Errors
///
/// Same conditions as [`simulation`].
pub fn run<C: NetSpec>(
    scenario: &Scenario,
    cfg: C,
    run: RunConfig,
    seed: u64,
) -> Result<SimReport, ConfigError> {
    Ok(simulation(scenario, cfg, NoopProbe, run, seed)?.run())
}

/// Unwraps a harness result in a binary: an infeasible configuration
/// or a bad command line is the user's input, so it is printed and the
/// process exits with status 2 instead of panicking.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Maps `f` over `items` on `jobs` lanes, preserving input order in
/// the output; `jobs <= 1` runs inline on the calling thread.
///
/// Items are whole simulations: independent, single-threaded and
/// uneven in cost. The calling thread and `jobs - 1` scoped threads
/// claim them one at a time, in index order, off one shared iterator,
/// so long items pipeline with short ones.
///
/// # Panics
///
/// A panic in `f` is resumed on the calling thread, with its payload,
/// once every lane has stopped.
pub fn map_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }
    let lanes = jobs.min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    let lane = || {
        let mut done = Vec::new();
        loop {
            // The lock is released before `f` runs: lanes claim items
            // concurrently, and a panicking item cannot poison it.
            let next = queue.lock().expect("job queue poisoned").next();
            let Some((i, item)) = next else { break done };
            done.push((i, f(item)));
        }
    };
    let mut pairs = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..lanes).map(|_| s.spawn(lane)).collect();
        let mut pairs = lane();
        for handle in spawned {
            let done = handle.join().unwrap_or_else(|p| panic::resume_unwind(p));
            pairs.extend(done);
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// [`map_jobs`] on every available core: a 40-point figure sweep
/// never runs more simulations at once than the machine has cores.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = std::thread::available_parallelism().map_or(1, |p| p.get());
    map_jobs(jobs, items, f)
}

/// Runs `f` as a named microbenchmark — one untimed warmup call,
/// then the mean wall clock of `iters` calls — and prints one aligned
/// line. The minimal stand-in for an external benchmarking framework
/// (this workspace builds offline, dependency-free).
pub fn bench_report<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    assert!(iters > 0, "need at least one iteration");
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let secs = start.elapsed().as_secs_f64() / f64::from(iters);
    if secs < 1e-3 {
        println!("{name:<48} {:>10.2} µs/iter", secs * 1e6);
    } else {
        println!("{name:<48} {:>10.3} ms/iter", secs * 1e3);
    }
}

/// Prints a plain-text table: header row + rows, pipe-separated and
/// column-aligned.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<&str>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    println!("{}", fmt_row(header.to_vec()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row.iter().map(|s| s.as_str()).collect()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::telemetry::{LiveProbe, PhaseProbe};
    use noc_traffic::Alloc;

    const RUN: RunConfig = RunConfig {
        warmup: 500,
        measure: 2_000,
        drain: 2_000,
    };

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(vec![3u64, 1, 2], |x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);
        assert_eq!(map_jobs(1, vec![3u64, 1, 2], |x| x * 10), out);
        assert_eq!(map_jobs(3, vec![3u64, 1, 2], |x| x * 10), out);
    }

    /// A panicking item panics in the caller with its own message,
    /// whichever lane ran it: `run_sweep` reports an infeasible group
    /// this way.
    #[test]
    fn map_jobs_resumes_item_panics_in_the_caller() {
        for bad in 0..4u64 {
            let caught = std::panic::catch_unwind(|| {
                map_jobs(2, (0..4u64).collect(), |x| {
                    assert!(x != bad, "item {x} failed");
                    x
                })
            });
            let payload = caught.expect_err("the panic was swallowed");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*message, format!("item {bad} failed"));
        }
    }

    /// Item 0 waits for items 1 and 2, and item 3 for item 4, so
    /// whichever lane claims item 0, the caller's lane and the spawned
    /// one each finish an item numbered above one the other finished:
    /// the output still follows the input.
    #[test]
    fn map_jobs_restores_input_order_when_items_finish_out_of_order() {
        use std::sync::mpsc::{channel, Receiver};
        use std::time::Duration;

        fn wait(rx: &Mutex<Receiver<u64>>, items: usize) {
            let rx = rx.lock().expect("one waiter");
            for _ in 0..items {
                rx.recv_timeout(Duration::from_secs(30))
                    .expect("no other lane ran the item waited for");
            }
        }
        let (early_tx, early_rx) = channel();
        let (late_tx, late_rx) = channel();
        let (early_rx, late_rx) = (Mutex::new(early_rx), Mutex::new(late_rx));
        let out = map_jobs(2, (0..5u64).collect(), |x| {
            match x {
                0 => wait(&early_rx, 2),
                1 | 2 => early_tx.send(x).expect("item 0 waits"),
                3 => wait(&late_rx, 1),
                _ => late_tx.send(x).expect("item 3 waits"),
            }
            x * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    /// More lanes than items, and no items at all: every item runs
    /// exactly once and nothing is invented.
    #[test]
    fn map_jobs_runs_each_item_once_whatever_the_lane_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        for jobs in [2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let out = map_jobs(jobs, vec![5u64, 6, 7], |x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x + 1
            });
            assert_eq!(out, vec![6, 7, 8], "jobs = {jobs}");
            assert_eq!(calls.into_inner(), 3, "jobs = {jobs}");
            assert!(map_jobs(jobs, Vec::<u64>::new(), |x| x).is_empty());
        }
    }

    /// The allocation counter is process-wide: it observes other
    /// threads' allocations too (why `--alloc-budget` needs `--jobs 1`).
    #[cfg(feature = "alloc-count")]
    #[test]
    fn alloc_counter_sees_other_threads() {
        let before = alloc_count::total();
        std::thread::spawn(|| {
            std::hint::black_box(vec![0u8; 4096]);
        })
        .join()
        .expect("allocating thread panicked");
        assert!(
            alloc_count::total() > before,
            "worker-thread allocation not counted"
        );
    }

    fn default_cfg<C: NetSpec>() -> C {
        C::on(Scenario::default_topology())
    }

    #[test]
    fn runners_produce_traffic() {
        fn check<C: NetSpec>() {
            let report = run(&Scenario::hotspot(0.01), default_cfg::<C>(), RUN, SEED).unwrap();
            assert!(report.flits_delivered > 0, "{} delivered nothing", C::NAME);
        }
        check::<LoftConfig>();
        check::<GsfConfig>();
        check::<WormholeConfig>();
    }

    /// Fast-forward changes no result: the report is bit-identical
    /// with the fast path on or off, and on a quiescence-heavy
    /// workload the enabled run actually passes over idle cycles.
    #[test]
    fn fast_forward_runners_match_and_skip() {
        fn check<C: NetSpec>() {
            let s = Scenario::regulated(0.05);
            let leg = |ff| {
                simulation(&s, default_cfg::<C>(), NoopProbe, RUN, SEED)
                    .unwrap()
                    .with_fast_forward(ff)
                    .run_full(|| {})
            };
            let (on, _, info_on) = leg(true);
            let (off, _, info_off) = leg(false);
            assert_eq!(on, off, "fast-forward changed the {} report", C::NAME);
            assert!(on.flits_delivered > 0);
            assert!(info_on.skipped_cycles > 0, "regulated gaps never skipped");
            assert_eq!(info_off.skipped_cycles, 0);
        }
        check::<LoftConfig>();
        check::<GsfConfig>();
        check::<WormholeConfig>();
    }

    /// Attaching a probe must not perturb the simulation: the
    /// telemetry run's `SimReport` matches the plain run's, and the
    /// telemetry document observes the same deliveries.
    #[test]
    fn telemetry_runners_match_plain_reports() {
        fn check<C: NetSpec>() {
            let s = Scenario::hotspot(0.01);
            let plain = run(&s, default_cfg::<C>(), RUN, SEED).unwrap();
            let probe = LiveProbe::new(TELEMETRY_WINDOW);
            let (report, network, _) = simulation(&s, default_cfg::<C>(), probe, RUN, SEED)
                .unwrap()
                .run_full(|| {});
            let telemetry = C::into_probe(network).finish();
            assert_eq!(plain, report, "probe perturbed the {} run", C::NAME);
            assert!(telemetry.latency_histogram.count() > 0);
            assert!(telemetry.cycles > 0);
            assert!(telemetry.link_flits.iter().sum::<u64>() > 0);
        }
        check::<LoftConfig>();
        check::<GsfConfig>();
        check::<WormholeConfig>();
    }

    /// Profiling only adds clock reads: a `PhaseProbe` run reports what
    /// the plain run reports, and every phase of the network's cycle
    /// was timed, at most once per cycle (every cycle, for the VC
    /// fabric).
    #[test]
    fn phase_profile_matches_plain_run_and_covers_every_phase() {
        fn check<C: NetSpec>() {
            let s = Scenario::hotspot(0.01);
            let (plain, _, plain_info) = simulation(&s, default_cfg::<C>(), NoopProbe, RUN, SEED)
                .unwrap()
                .run_full(|| {});
            let probe = PhaseProbe::default();
            let (report, network, info) = simulation(&s, default_cfg::<C>(), probe, RUN, SEED)
                .unwrap()
                .run_full(|| {});
            assert_eq!(plain, report, "profiling perturbed the {} run", C::NAME);
            assert_eq!(plain_info, info);
            let profile = C::into_probe(network);
            assert_eq!(profile.cycles, info.end_cycle);
            for phase in C::PHASES {
                let calls = profile.calls[phase.index()];
                assert!(calls > 0, "{} never timed {}", C::NAME, phase.name());
                assert!(
                    calls <= profile.cycles,
                    "{} timed {} {calls} times in {} cycles",
                    C::NAME,
                    phase.name(),
                    profile.cycles
                );
                // The VC fabric times every phase every cycle.
                if C::PHASES == Phase::VC {
                    assert_eq!(calls, profile.cycles, "{} {}", C::NAME, phase.name());
                }
            }
            let timed = profile.calls.iter().filter(|&&c| c > 0).count();
            assert_eq!(timed, C::PHASES.len(), "{} timed a foreign phase", C::NAME);
        }
        check::<LoftConfig>();
        check::<GsfConfig>();
        check::<WormholeConfig>();
    }

    /// An infeasible configuration is an error, not a panic: a share
    /// that rounds to zero slots of a tiny frame fails the two
    /// frame-based networks and is irrelevant to wormhole.
    #[test]
    fn infeasible_reservations_are_errors() {
        let mut s = Scenario::hotspot(0.01);
        for flow in &mut s.flows {
            flow.alloc = Alloc::Share(0.01);
        }
        let loft = LoftConfig {
            frame_size: 16,
            ..LoftConfig::default()
        };
        let gsf = GsfConfig {
            frame_size: 16,
            ..GsfConfig::default()
        };
        let err = simulation(&s, loft, NoopProbe, RUN, SEED).unwrap_err();
        assert!(err.message().contains("rounds to zero slots"), "{err}");
        assert!(simulation(&s, gsf, NoopProbe, RUN, SEED).is_err());
        assert!(run(&s, gsf, RUN, SEED).is_err());
        assert!(simulation(&s, WormholeConfig::default(), NoopProbe, RUN, SEED).is_ok());
    }

    /// A scenario built for another topology is an error: its node
    /// ids may not exist on the network, and its reservations were
    /// sized on other paths.
    #[test]
    fn topology_mismatch_is_an_error() {
        let mesh8 = Scenario::hotspot(0.05);
        let mesh4 = Scenario::uniform_on(Topology::mesh(4, 4), 0.05);
        for err in [
            run(&mesh8, LoftConfig::on(Topology::mesh(4, 4)), RUN, SEED),
            run(&mesh4, LoftConfig::default(), RUN, SEED),
            run(&mesh8, GsfConfig::on(Topology::torus(8, 8)), RUN, SEED),
            run(&mesh4, WormholeConfig::default(), RUN, SEED),
        ] {
            let err = err.expect_err("mismatched topology accepted");
            assert!(err.message().contains("is built for"), "{err}");
        }
    }

    /// A configuration the datapath cannot run is an error too: no
    /// VC, more input slots than an arbitration mask has bits, or
    /// buffers that never hold a credit — LOFT's frame, buffer,
    /// latency and look-ahead window constraints, including windows
    /// whose reservation store would outgrow its entry index, and a
    /// GSF frame or frame window that holds nothing. So is a buffer
    /// depth, latency, delay or window above `MAX_PARAM`, which would
    /// otherwise overflow or exhaust memory while the network is
    /// built.
    #[test]
    fn bad_vc_parameters_are_errors() {
        let s = Scenario::uniform(0.05);
        let broken = |edit: fn(&mut LoftConfig)| {
            let mut cfg = LoftConfig::default();
            edit(&mut cfg);
            cfg
        };
        for (loft, what) in [
            (
                broken(|c| c.flits_per_quantum = 0),
                "quantum must hold flits",
            ),
            (
                broken(|c| c.frame_size = 255),
                "positive multiple of the quantum",
            ),
            (broken(|c| c.frame_window = 0), "frame window"),
            (broken(|c| c.nonspec_buffer = 128), "Theorem I"),
            (broken(|c| c.spec_buffer = 13), "speculative buffer"),
            (broken(|c| c.hop_latency = 0), "1 and MAX_PARAM"),
            (broken(|c| c.la_flow_window = 0), "look-ahead flow window"),
            (broken(|c| c.frame_window = 600), "reservation store"),
            (broken(|c| c.la_flow_window = 1 << 16), "reservation store"),
            (broken(|c| c.la_hop_latency = 60_000), "1 and MAX_PARAM"),
            (broken(|c| c.hop_latency = u64::MAX), "1 and MAX_PARAM"),
        ] {
            let err = run(&s, loft, RUN, SEED).expect_err("bad LOFT parameters accepted");
            assert!(err.message().contains(what), "{err}");
        }
        let at_most = "must be at most 1024";
        for (num_vcs, vc_capacity, hop_latency, credit_delay, what) in [
            (0, 4, 3, 1, "at least one virtual channel"),
            (13, 4, 3, 1, "do not fit a 64-bit arbitration mask"),
            (usize::MAX, 4, 3, 1, "do not fit a 64-bit arbitration mask"),
            (4, 0, 3, 1, "at least one flit"),
            (4, usize::MAX, 3, 1, at_most),
            (4, 4, u64::MAX, 1, at_most),
            (4, 4, 3, u64::MAX, at_most),
        ] {
            let gsf = GsfConfig {
                num_vcs,
                vc_capacity,
                hop_latency,
                credit_delay,
                ..GsfConfig::default()
            };
            let wormhole = WormholeConfig {
                num_vcs,
                vc_capacity,
                hop_latency,
                credit_delay,
                ..WormholeConfig::default()
            };
            for err in [run(&s, gsf, RUN, SEED), run(&s, wormhole, RUN, SEED)] {
                let err = err.expect_err("bad VC parameters accepted");
                assert!(err.message().contains(what), "{err}");
            }
        }
        let gsf = |edit: fn(&mut GsfConfig)| {
            let mut cfg = GsfConfig::default();
            edit(&mut cfg);
            cfg
        };
        for (gsf, what) in [
            (gsf(|c| c.frame_window = 0), "frame window must be positive"),
            (gsf(|c| c.frame_size = 0), "frame size must be positive"),
            (gsf(|c| c.frame_window = u32::MAX), at_most),
            (gsf(|c| c.barrier_delay = u64::MAX), at_most),
        ] {
            let err = run(&s, gsf, RUN, SEED).expect_err("bad GSF frame accepted");
            assert!(err.message().contains(what), "{err}");
        }
    }
}
