//! Parallel sweep over the experiment matrix.
//!
//! A sweep enumerates `{loft, gsf, wormhole} × topology × traffic ×
//! load` and runs every cell once, streaming one versioned JSON row
//! per cell. Two things make it fast:
//!
//! * **Warmup sharing.** A cell's horizon extensions from adaptive
//!   saturation probing differ only *after* the warmup boundary. Each
//!   [`SweepGroup`] therefore runs warmup once into a
//!   [`noc_sim::Checkpoint`] and forks it per horizon, instead of
//!   re-warming from scratch (the `--no-fork` baseline). Forked legs
//!   are bit-identical to from-scratch runs, skipped cycles included;
//!   see `noc_sim::checkpoint` for why.
//! * **Whole simulations across lanes.** Groups are whole-simulation
//!   tasks: independent, single-threaded, uneven in cost. `--jobs N`
//!   lanes ([`map_jobs`]) claim them one at a time, in matrix order,
//!   off one shared queue, so a long GSF point pipelines with many
//!   short wormhole points instead of serializing behind them.
//!
//! Every leg runs with the engine's default quiescence fast-forward,
//! so [`SweepRow::equivalence_key`], which `--selfcheck` compares
//! between the forked and re-warm paths, covers `skipped_cycles` too.
//!
//! Every leg also records what CI gates on: simulated cycles per
//! second and heap allocations per cycle (`alloc-count` feature) of
//! its run after the fork, and — when [`SweepOptions::instrument`]
//! picks a probe — what that probe, carried in the warmup checkpoint,
//! recorded.

use std::time::Instant;

use loft::LoftConfig;
use noc_gsf::GsfConfig;
use noc_sim::json::{self, Value};
use noc_sim::telemetry::{LiveProbe, NoopProbe, Phase, PhaseProbe, Probe};
use noc_sim::{ConfigError, RunConfig, Topology};
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

use crate::{map_jobs, simulation, NetSpec, TELEMETRY_WINDOW};

/// Version stamp on every JSON row this module emits.
pub const SWEEP_SCHEMA_VERSION: u32 = 3;

/// Cap on a leg's horizon doublings. A leg that comes back saturated
/// is re-forked with a doubled measurement window, to tell true
/// saturation from a window too short for any packet to finish.
const MAX_DOUBLINGS: u32 = 2;

/// Network architecture of a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// LOFT (the paper's network).
    Loft,
    /// GSF baseline.
    Gsf,
    /// Plain wormhole baseline.
    Wormhole,
}

/// What the sweep knows about one architecture.
struct Kind {
    name: &'static str,
    /// The phases of the network's cycle, for profiled rows.
    phases: &'static [Phase],
    run_group: fn(&SweepGroup, &SweepOptions) -> Result<SweepRow, ConfigError>,
}

impl Kind {
    fn of<C: NetSpec>() -> Self {
        Kind {
            name: C::NAME,
            phases: C::PHASES,
            run_group: run_group_on::<C>,
        }
    }
}

impl Net {
    /// Every architecture, in row order.
    pub const ALL: [Net; 3] = [Net::Loft, Net::Gsf, Net::Wormhole];

    /// The one place a runtime network kind becomes a config type.
    fn kind(self) -> Kind {
        match self {
            Net::Loft => Kind::of::<LoftConfig>(),
            Net::Gsf => Kind::of::<GsfConfig>(),
            Net::Wormhole => Kind::of::<WormholeConfig>(),
        }
    }

    /// Row/CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.kind().name
    }
}

/// Traffic pattern of a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Uniform-random destinations, Bernoulli injection (Figure 11a).
    Uniform,
    /// All nodes to one hotspot corner (Figure 11b); only defined on
    /// the paper's default 8×8 mesh.
    Hotspot,
    /// Rare bursts between the mesh corners
    /// (`Scenario::bursty_low_duty`), the workload fast-forward
    /// carries; only defined on the default 8×8 mesh.
    Bursty,
}

impl TrafficKind {
    /// Row/CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficKind::Uniform => "uniform",
            TrafficKind::Hotspot => "hotspot",
            TrafficKind::Bursty => "bursty",
        }
    }
}

/// One cell of the matrix: a (network, topology, traffic, load, seed)
/// tuple whose horizon doublings share a warmup prefix.
#[derive(Debug, Clone)]
pub struct SweepGroup {
    /// Network architecture.
    pub net: Net,
    /// Topology.
    pub topo: Topology,
    /// Traffic pattern.
    pub traffic: TrafficKind,
    /// Injection rate in flits/cycle/node.
    pub load: f64,
    /// Phase lengths; [`noc_sim::Checkpoint::with_measure`] may extend
    /// `measure` during saturation probing.
    pub run: RunConfig,
    /// Workload seed.
    pub seed: u64,
}

impl SweepGroup {
    /// Builds the scenario for this group.
    ///
    /// # Errors
    ///
    /// Fails for [`TrafficKind::Hotspot`] and [`TrafficKind::Bursty`]
    /// off the default 8×8 mesh.
    pub fn scenario(&self) -> Result<Scenario, ConfigError> {
        match self.traffic {
            TrafficKind::Uniform => Ok(Scenario::uniform_on(self.topo, self.load)),
            _ if self.topo != Scenario::default_topology() => Err(ConfigError::new(format!(
                "{} traffic is laid out on the default 8x8 mesh, not {}",
                self.traffic.name(),
                topo_name(self.topo)
            ))),
            TrafficKind::Hotspot => Ok(Scenario::hotspot(self.load)),
            TrafficKind::Bursty => Ok(Scenario::bursty_low_duty(self.load)),
        }
    }
}

/// Compact topology name for rows and logs (`mesh8x8`, `torus8x8`, ...).
#[must_use]
pub fn topo_name(topo: Topology) -> String {
    match topo {
        Topology::Mesh { .. } => format!("mesh{}x{}", topo.width(), topo.height()),
        Topology::Torus { .. } => format!("torus{}x{}", topo.width(), topo.height()),
    }
}

/// One result row of the sweep (the final leg of one group).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Network architecture.
    pub net: Net,
    /// Topology name (see [`topo_name`]).
    pub topo: String,
    /// Traffic pattern.
    pub traffic: TrafficKind,
    /// Injection rate.
    pub load: f64,
    /// Whether quiescence fast-forward was on: always `true`, since
    /// every leg runs with the engine default.
    pub ff: bool,
    /// Whether this leg was forked from a shared warmup checkpoint.
    pub forked_warmup: bool,
    /// Workload seed.
    pub seed: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Final measurement window (after any horizon doublings).
    pub measure: u64,
    /// Drain bound.
    pub drain: u64,
    /// Cycle the run actually ended at.
    pub end_cycle: u64,
    /// Cycles skipped by quiescence fast-forward, warmup included.
    pub skipped_cycles: u64,
    /// Wall-clock seconds of this leg (fork + resume, or full run).
    pub wall_secs: f64,
    /// Wall-clock seconds of the shared warmup (0 when not forked).
    pub warmup_secs: f64,
    /// Packets delivered in the measurement window.
    pub packets: u64,
    /// Flits delivered in the measurement window.
    pub flits: u64,
    /// Mean packet latency, if anything was measured.
    pub avg_latency: Option<f64>,
    /// Latency percentiles (histogram upper bounds).
    pub p50: Option<u64>,
    /// 95th percentile.
    pub p95: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// Network accepted but delivered nothing measurable: saturated.
    pub saturated: bool,
    /// Measurement-window doublings spent probing saturation.
    pub horizon_doublings: u32,
    /// Simulated cycles per wall-clock second of the leg's final run:
    /// `end_cycle - warmup` over the resume after its fork (a
    /// re-warmed leg's run also covers its warmup).
    pub cycles_per_sec: f64,
    /// Heap allocations across the same run, per cycle of the final
    /// measurement window (`None` without the `alloc-count` feature).
    pub allocs_per_cycle: Option<f64>,
    /// The leg's telemetry document ([`Instrument::Telemetry`]).
    pub telemetry: Option<String>,
    /// The leg's phase profile ([`Instrument::Profile`]), written as
    /// the row's `phase_ns_per_cycle` and `phase_share` fields.
    pub phases: Option<PhaseProbe>,
}

impl SweepRow {
    /// Every field of the row, once, in output order: its JSON name,
    /// its value, and whether it is deterministic — a simulation
    /// result that must be bit-identical between a forked leg and a
    /// from-scratch leg of the same cell. Wall clock, `jobs` and
    /// `forked_warmup` are not. The probes' output, `telemetry` and
    /// `phases`, is not a field of this list.
    fn fields(&self, jobs: usize) -> [(&'static str, Value<'_>, bool); 26] {
        let opt = |x: Option<f64>, digits| x.map_or(Value::Null, |x| Value::Fixed(x, digits));
        [
            ("schema", SWEEP_SCHEMA_VERSION.into(), true),
            ("net", self.net.name().into(), true),
            ("topo", self.topo.as_str().into(), true),
            ("traffic", self.traffic.name().into(), true),
            ("load", self.load.into(), true),
            ("ff", self.ff.into(), true),
            ("jobs", jobs.into(), false),
            ("forked_warmup", self.forked_warmup.into(), false),
            ("seed", self.seed.into(), true),
            ("warmup", self.warmup.into(), true),
            ("measure", self.measure.into(), true),
            ("drain", self.drain.into(), true),
            ("end_cycle", self.end_cycle.into(), true),
            ("skipped_cycles", self.skipped_cycles.into(), true),
            ("wall_secs", Value::Fixed(self.wall_secs, 4), false),
            ("warmup_secs", Value::Fixed(self.warmup_secs, 4), false),
            ("packets_delivered", self.packets.into(), true),
            ("flits_delivered", self.flits.into(), true),
            ("avg_latency", opt(self.avg_latency, 3), true),
            ("p50", self.p50.into(), true),
            ("p95", self.p95.into(), true),
            ("p99", self.p99.into(), true),
            ("saturated", self.saturated.into(), true),
            ("horizon_doublings", self.horizon_doublings.into(), true),
            (
                "cycles_per_sec",
                Value::Fixed(self.cycles_per_sec, 1),
                false,
            ),
            ("allocs_per_cycle", opt(self.allocs_per_cycle, 4), false),
        ]
    }

    /// The row as one JSON object (the sweep's streamed output
    /// format, `"schema":3`), ending in the phase fields if any.
    #[must_use]
    pub fn to_json(&self, jobs: usize) -> String {
        json::object(|row| {
            for (name, value, _) in self.fields(jobs) {
                row.field(name, value);
            }
            if let Some(probe) = &self.phases {
                probe.write_fields(self.net.kind().phases, row);
            }
        })
    }

    /// The deterministic portion of the row: everything that must be
    /// bit-identical between a forked leg and a from-scratch leg of
    /// the same cell. Excludes wall clock, `jobs`, `forked_warmup` and
    /// the probes' output; floats count to the last bit.
    #[must_use]
    pub fn equivalence_key(&self) -> String {
        json::object(|key| {
            for (name, value, deterministic) in self.fields(0) {
                let exact = match value {
                    Value::Float(x) | Value::Fixed(x, _) => Value::Int(x.to_bits()),
                    value => value,
                };
                if deterministic {
                    key.field(name, exact);
                }
            }
        })
    }
}

/// The probe every group's warmup checkpoint carries into its legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    /// No probe (`NoopProbe`).
    Off,
    /// A `LiveProbe`: rows carry [`SweepRow::telemetry`].
    Telemetry,
    /// A `PhaseProbe`: rows carry [`SweepRow::phases`]. Its clock
    /// reads slow the legs, so profiled rows' `cycles_per_sec` is not
    /// comparable with unprofiled ones.
    Profile,
}

/// Sweep execution options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Concurrent whole-simulation jobs (see [`clamp_jobs`]).
    pub jobs: usize,
    /// Fork legs from a shared warmup checkpoint (false = re-warm
    /// every leg from scratch; the baseline the fork path is measured
    /// against).
    pub fork_warmup: bool,
    /// The probe every leg carries.
    pub instrument: Instrument,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            fork_warmup: true,
            instrument: Instrument::Off,
        }
    }
}

/// Clamps a requested job count to the machine's cores (warns on
/// stderr when it clamps).
#[must_use]
pub fn clamp_jobs(requested: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let jobs = requested.clamp(1, cores);
    if jobs < requested {
        eprintln!("sweep: clamping --jobs {requested} to {jobs} ({cores} cores)");
    }
    jobs
}

/// Runs one group, its horizon doublings sharing its warmup when
/// `opts.fork_warmup` is set.
///
/// # Errors
///
/// Fails if the group's scenario does not exist on its topology or
/// does not fit the network's frame.
pub fn run_group(group: &SweepGroup, opts: &SweepOptions) -> Result<SweepRow, ConfigError> {
    (group.net.kind().run_group)(group, opts)
}

/// [`run_group`] for the architecture configured by `C`.
fn run_group_on<C: NetSpec>(
    group: &SweepGroup,
    opts: &SweepOptions,
) -> Result<SweepRow, ConfigError> {
    match opts.instrument {
        Instrument::Off => run_legs::<C, _>(group, opts, NoopProbe, |_| (None, None)),
        Instrument::Telemetry => {
            let probe = LiveProbe::new(TELEMETRY_WINDOW);
            run_legs::<C, _>(group, opts, probe, |p| (Some(p.finish().to_json()), None))
        }
        Instrument::Profile => {
            run_legs::<C, _>(group, opts, PhaseProbe::default(), |p| (None, Some(p)))
        }
    }
}

/// Runs `f`, and returns what it returned with the wall seconds it
/// took and the heap allocations it made (`None` without the
/// `alloc-count` feature).
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, Option<u64>) {
    #[cfg(feature = "alloc-count")]
    let allocs = || Some(crate::alloc_count::total());
    #[cfg(not(feature = "alloc-count"))]
    let allocs = || None::<u64>;
    let (t, before) = (Instant::now(), allocs());
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    (out, secs, allocs().zip(before).map(|(after, b)| after - b))
}

/// [`run_group_on`] with `probe` attached; `finish` turns the final
/// leg's probe into its row's `telemetry` and `phases`.
fn run_legs<C: NetSpec, P: Probe + Clone>(
    group: &SweepGroup,
    opts: &SweepOptions,
    probe: P,
    finish: impl Fn(P) -> (Option<String>, Option<PhaseProbe>),
) -> Result<SweepRow, ConfigError> {
    let scenario = group.scenario()?;
    let sim = |run: RunConfig| {
        let cfg = C::on(group.topo);
        simulation(&scenario, cfg, probe.clone(), run, group.seed)
    };
    let t0 = Instant::now();
    let ckpt = if opts.fork_warmup {
        Some(sim(group.run)?.run_to_checkpoint())
    } else {
        None
    };
    let warmup_secs = ckpt.as_ref().map_or(0.0, |_| t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let run_leg = |measure: u64| -> Result<_, ConfigError> {
        Ok(match &ckpt {
            // Neither the clock nor the allocation count covers the
            // fork: it is setup (a deep copy), not steady state.
            Some(c) => {
                let leg = c.fork().with_measure(measure);
                timed(|| leg.resume())
            }
            // The `--no-fork` baseline: re-warm from scratch.
            None => {
                let sim = sim(RunConfig {
                    measure,
                    ..group.run
                })?;
                timed(|| sim.run_full(|| {}))
            }
        })
    };
    let (mut measure, mut doublings) = (group.run.measure, 0);
    let ((report, network, info), secs, allocs) = loop {
        let (leg, secs, allocs) = run_leg(measure)?;
        let saturated = leg.0.total_latency.count() == 0 && leg.0.flits_delivered > 0;
        if !saturated || doublings == MAX_DOUBLINGS {
            break (leg, secs, allocs);
        }
        doublings += 1;
        measure *= 2;
    };
    let wall_secs = t0.elapsed().as_secs_f64();
    // Serialized outside every timed and counted span: the export
    // is one-shot output formatting, not the steady-state loop.
    let (telemetry, phases) = finish(C::into_probe(network));
    let packets: u64 = report.flows.iter().map(|f| f.packets_delivered).sum();
    let measured = report.total_latency.count() > 0;
    let q = |q: f64| measured.then(|| report.latency_histogram.quantile_upper_bound(q));
    Ok(SweepRow {
        net: group.net,
        topo: topo_name(group.topo),
        traffic: group.traffic,
        load: group.load,
        ff: true,
        forked_warmup: ckpt.is_some(),
        seed: group.seed,
        warmup: group.run.warmup,
        measure,
        drain: group.run.drain,
        end_cycle: info.end_cycle,
        skipped_cycles: info.skipped_cycles,
        wall_secs,
        warmup_secs,
        packets,
        flits: report.flits_delivered,
        avg_latency: measured.then(|| report.avg_latency()),
        p50: q(0.50),
        p95: q(0.95),
        p99: q(0.99),
        saturated: !measured && packets > 0,
        horizon_doublings: doublings,
        cycles_per_sec: (info.end_cycle - group.run.warmup) as f64 / secs,
        allocs_per_cycle: allocs.map(|a| a as f64 / measure as f64),
        telemetry,
        phases,
    })
}

/// Runs a whole matrix on `opts.jobs` lanes ([`map_jobs`]) and, once
/// every group has finished, returns one row per group in matrix
/// order.
///
/// # Panics
///
/// Panics if a group is infeasible (see [`run_group`]); the built-in
/// matrices never are. Check hand-built groups with [`run_group`]
/// first.
#[must_use]
pub fn run_sweep(groups: Vec<SweepGroup>, opts: &SweepOptions) -> Vec<SweepRow> {
    map_jobs(opts.jobs, groups, |g| {
        run_group(&g, opts).unwrap_or_else(|e| panic!("infeasible sweep group {g:?}: {e}"))
    })
}

/// One group per network and `(topology, traffic, load, phases)`
/// point.
fn matrix(points: &[(Topology, TrafficKind, f64, RunConfig)], seed: u64) -> Vec<SweepGroup> {
    Net::ALL
        .into_iter()
        .flat_map(|net| {
            points
                .iter()
                .map(move |&(topo, traffic, load, run)| SweepGroup {
                    net,
                    topo,
                    traffic,
                    load,
                    run,
                    seed,
                })
        })
        .collect()
}

/// The full default matrix: every network on uniform traffic at three
/// loads on the 8×8 mesh, the 8×8 torus and a 16-node line (the mesh
/// 16×1), plus the hotspot pattern on the default mesh. Warmup-heavy
/// phases so the shared-warmup fork pays even at `--jobs 1`.
///
/// `_threads` is accepted and ignored (every simulation steps on one
/// thread); ROADMAP item 5(c) deletes it.
#[must_use]
pub fn full_matrix(_threads: usize, seed: u64) -> Vec<SweepGroup> {
    let run = RunConfig {
        warmup: 6_000,
        measure: 6_000,
        drain: 2_000,
    };
    let topos = [
        Topology::mesh(8, 8),
        Topology::torus(8, 8),
        Topology::mesh(16, 1),
    ];
    let mut points: Vec<_> = topos
        .into_iter()
        .flat_map(|topo| [0.05, 0.30, 0.60].map(|load| (topo, TrafficKind::Uniform, load, run)))
        .collect();
    points.push((
        Scenario::default_topology(),
        TrafficKind::Hotspot,
        0.30,
        run,
    ));
    matrix(&points, seed)
}

/// The CI smoke matrix on the default mesh: every network at uniform
/// 0.05 and 0.60 in short windows, plus the bursty low-duty workload
/// in long ones — its bursts are thousands of cycles apart, so a short
/// window would deliver nothing, and fast-forward skips most of a long
/// one.
#[must_use]
pub fn smoke_matrix(seed: u64) -> Vec<SweepGroup> {
    let short = RunConfig {
        warmup: 200,
        measure: 2_000,
        drain: 1_000,
    };
    let long = RunConfig {
        warmup: 1_000,
        measure: 20_000,
        drain: 3_000,
    };
    let mesh = Scenario::default_topology();
    let points = [
        (mesh, TrafficKind::Uniform, 0.05, short),
        (mesh, TrafficKind::Uniform, 0.60, short),
        (mesh, TrafficKind::Bursty, 0.60, long),
    ];
    matrix(&points, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEED;

    fn tiny_group(net: Net, topo: Topology) -> SweepGroup {
        SweepGroup {
            net,
            topo,
            traffic: TrafficKind::Uniform,
            load: 0.10,
            run: RunConfig {
                warmup: 300,
                measure: 600,
                drain: 400,
            },
            seed: SEED,
        }
    }

    /// The heart of the sweep's correctness claim: a forked row must
    /// be bit-identical, skipped cycles included, to the same row run
    /// from scratch, for every network on every topology, and on
    /// bursty traffic that fast-forward skips through in warmup and
    /// measurement alike.
    #[test]
    fn forked_rows_match_scratch_rows() {
        let bursty = |net| SweepGroup {
            traffic: TrafficKind::Bursty,
            load: 0.60,
            run: RunConfig {
                warmup: 1_000,
                measure: 3_000,
                drain: 1_000,
            },
            ..tiny_group(net, Scenario::default_topology())
        };
        let topos = [
            Topology::mesh(4, 4),
            Topology::torus(4, 4),
            Topology::mesh(8, 1),
        ];
        for net in Net::ALL {
            let groups = topos
                .map(|topo| tiny_group(net, topo))
                .into_iter()
                .chain([bursty(net)]);
            for group in groups {
                let forked = run_group(&group, &SweepOptions::default()).unwrap();
                let scratch = run_group(
                    &group,
                    &SweepOptions {
                        fork_warmup: false,
                        ..SweepOptions::default()
                    },
                )
                .unwrap();
                assert!(forked.forked_warmup && !scratch.forked_warmup);
                assert_eq!(
                    forked.equivalence_key(),
                    scratch.equivalence_key(),
                    "{} on {} {} drifted between forked and scratch",
                    net.name(),
                    forked.topo,
                    forked.traffic.name()
                );
                assert!(forked.flits > 0, "row delivered nothing");
                if group.traffic == TrafficKind::Bursty {
                    assert!(forked.skipped_cycles > 0, "{} skipped nothing", net.name());
                }
            }
        }
    }

    /// Parallel scheduling must not change results or lose rows:
    /// jobs=2 produces the same row set as jobs=1 (order included —
    /// both return matrix order).
    #[test]
    fn parallel_sweep_matches_serial() {
        let groups: Vec<SweepGroup> = Net::ALL
            .into_iter()
            .map(|net| tiny_group(net, Topology::mesh(4, 4)))
            .collect();
        let serial = run_sweep(groups.clone(), &SweepOptions::default());
        let parallel = run_sweep(
            groups,
            &SweepOptions {
                jobs: 2,
                ..SweepOptions::default()
            },
        );
        let keys = |rows: &[SweepRow]| {
            rows.iter()
                .map(SweepRow::equivalence_key)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&serial), keys(&parallel));
    }

    /// Hotspot and bursty traffic are laid out on the default mesh
    /// only; elsewhere they are errors, not panics.
    #[test]
    fn hotspot_off_the_default_mesh_is_an_error() {
        for traffic in [TrafficKind::Hotspot, TrafficKind::Bursty] {
            let group = SweepGroup {
                traffic,
                ..tiny_group(Net::Loft, Topology::mesh(8, 1))
            };
            assert!(group.scenario().is_err());
            assert!(run_group(&group, &SweepOptions::default()).is_err());
        }
    }

    /// An infeasible hand-built group fails the whole sweep with the
    /// group named, also when another `map_jobs` lane runs it.
    #[test]
    fn run_sweep_panics_on_an_infeasible_group_at_two_jobs() {
        let groups = vec![
            tiny_group(Net::Wormhole, Topology::mesh(4, 4)),
            SweepGroup {
                traffic: TrafficKind::Hotspot,
                ..tiny_group(Net::Loft, Topology::mesh(8, 1))
            },
        ];
        let opts = SweepOptions {
            jobs: 2,
            ..SweepOptions::default()
        };
        let payload = std::panic::catch_unwind(|| run_sweep(groups, &opts))
            .expect_err("an infeasible group must not yield rows");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.starts_with("infeasible sweep group") && message.contains("Hotspot"),
            "unexpected panic: {message}"
        );
    }

    #[test]
    fn clamp_jobs_never_oversubscribes() {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(clamp_jobs(1), 1);
        assert_eq!(clamp_jobs(1_000), cores);
        assert_eq!(clamp_jobs(0), 1);
    }

    /// Perturbs every `SweepRow` field alone: the key is derived from
    /// the one field list, so `equivalence_key` moves exactly for the
    /// deterministic fields, `skipped_cycles` included, and floats
    /// count to the last bit.
    #[test]
    fn keys_move_with_exactly_the_deterministic_fields() {
        // Names every field: a new one does not compile until it has a
        // case below.
        let base = SweepRow {
            net: Net::Loft,
            topo: "mesh4x4".to_string(),
            traffic: TrafficKind::Uniform,
            load: 0.1,
            ff: true,
            forked_warmup: true,
            seed: 1,
            warmup: 2,
            measure: 3,
            drain: 4,
            end_cycle: 5,
            skipped_cycles: 6,
            wall_secs: 7.0,
            warmup_secs: 8.0,
            packets: 9,
            flits: 10,
            avg_latency: Some(11.0),
            p50: Some(12),
            p95: Some(13),
            p99: Some(14),
            saturated: false,
            horizon_doublings: 15,
            cycles_per_sec: 16.0,
            allocs_per_cycle: Some(17.0),
            telemetry: None,
            phases: None,
        };
        type Perturb = fn(&mut SweepRow);
        let cases: [(&str, bool, Perturb); 27] = [
            ("net", true, |r| r.net = Net::Gsf),
            ("topo", true, |r| r.topo.push('x')),
            ("traffic", true, |r| r.traffic = TrafficKind::Hotspot),
            ("load", true, |r| r.load = 0.2),
            ("ff", true, |r| r.ff = false),
            ("forked_warmup", false, |r| r.forked_warmup = false),
            ("seed", true, |r| r.seed += 1),
            ("warmup", true, |r| r.warmup += 1),
            ("measure", true, |r| r.measure += 1),
            ("drain", true, |r| r.drain += 1),
            ("end_cycle", true, |r| r.end_cycle += 1),
            ("skipped_cycles", true, |r| r.skipped_cycles += 1),
            ("wall_secs", false, |r| r.wall_secs += 1.0),
            ("warmup_secs", false, |r| r.warmup_secs += 1.0),
            ("packets", true, |r| r.packets += 1),
            ("flits", true, |r| r.flits += 1),
            ("avg_latency", true, |r| r.avg_latency = None),
            ("p50", true, |r| r.p50 = None),
            ("p95", true, |r| r.p95 = None),
            ("p99", true, |r| r.p99 = None),
            ("saturated", true, |r| r.saturated = true),
            ("horizon_doublings", true, |r| r.horizon_doublings += 1),
            ("cycles_per_sec", false, |r| r.cycles_per_sec += 1.0),
            ("allocs_per_cycle", false, |r| r.allocs_per_cycle = None),
            ("telemetry", false, |r| r.telemetry = Some("{}".to_string())),
            ("phases", false, |r| r.phases = Some(PhaseProbe::default())),
            // One ULP: invisible in the row's three digits, not in the key.
            ("avg_latency + 1 ulp", true, |r| {
                r.avg_latency = r.avg_latency.map(|x| f64::from_bits(x.to_bits() + 1));
            }),
        ];
        for (field, deterministic, perturb) in cases {
            let mut row = base.clone();
            perturb(&mut row);
            let moved = row.equivalence_key() != base.equivalence_key();
            assert_eq!(moved, deterministic, "{field}");
        }
        let mut ulp = base.clone();
        ulp.avg_latency = ulp.avg_latency.map(|x| f64::from_bits(x.to_bits() + 1));
        assert_eq!(
            ulp.to_json(1),
            base.to_json(1),
            "the row rounds, the key does not"
        );
    }

    #[test]
    fn rows_render_versioned_json() {
        let group = tiny_group(Net::Wormhole, Topology::mesh(4, 4));
        let row = run_group(&group, &SweepOptions::default()).unwrap();
        let json = row.to_json(3);
        assert!(json.starts_with("{\"schema\":3,"));
        assert!(json.contains("\"jobs\":3"));
        assert!(json.contains("\"forked_warmup\":true"));
        assert!(json.ends_with("}"));
    }
}
