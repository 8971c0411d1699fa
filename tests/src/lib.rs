//! Integration test crate; see the tests/ subdirectory. This library
//! holds the fixtures the equivalence suites share, so each suite is
//! one generic check instantiated for the three config types.
#![forbid(unsafe_code)]

use loft::LoftConfig;
use loft_bench::{simulation, NetSpec, SEED, TELEMETRY_WINDOW};
use noc_gsf::GsfConfig;
use noc_sim::telemetry::{LiveProbe, TelemetryReport};
use noc_sim::{RunConfig, RunInfo, SimReport, Simulation, Topology};
use noc_traffic::{Scenario, Workload};
use noc_wormhole::WormholeConfig;

/// The three topology shapes under test: a mesh, a torus and a line,
/// sized small enough that the full matrices stay fast.
pub fn topologies() -> [Topology; 3] {
    [
        Topology::mesh(4, 4),
        Topology::torus(4, 4),
        Topology::mesh(12, 1),
    ]
}

/// A network architecture with a configuration scaled down to the
/// small [`topologies`]: frames short enough that they recycle many
/// times inside the suites' windows.
pub trait Small: NetSpec {
    /// The scaled-down configuration on `topo`.
    fn small(topo: Topology) -> Self;
}

impl Small for LoftConfig {
    fn small(topo: Topology) -> Self {
        LoftConfig {
            frame_size: 64,
            nonspec_buffer: 64,
            ..<Self as NetSpec>::on(topo)
        }
    }
}

impl Small for GsfConfig {
    fn small(topo: Topology) -> Self {
        GsfConfig {
            frame_size: 200,
            ..<Self as NetSpec>::on(topo)
        }
    }
}

impl Small for WormholeConfig {
    fn small(topo: Topology) -> Self {
        <Self as NetSpec>::on(topo)
    }
}

/// `scenario` on `cfg`'s network with a [`LiveProbe`] attached and
/// the shared bench seed; the suites only build feasible cells.
pub fn live<C: NetSpec>(
    scenario: &Scenario,
    cfg: C,
    run: RunConfig,
) -> Simulation<C::Net<LiveProbe>, Workload> {
    simulation(scenario, cfg, LiveProbe::new(TELEMETRY_WINDOW), run, SEED)
        .expect("suite scenarios fit the small frames")
}

/// Everything a finished [`live`] run is compared on: the full
/// report, the full telemetry, and the execution bookkeeping. Takes
/// what `Simulation::run_full` and `Checkpoint::resume` both return.
pub fn outcome<C: NetSpec>(
    (report, network, info): (SimReport, C::Net<LiveProbe>, RunInfo),
) -> (SimReport, TelemetryReport, RunInfo) {
    (report, C::into_probe(network).finish(), info)
}
