//! Link-utilization heatmap: renders per-link utilization of the data
//! network as ASCII grids, making the Figure 1 story visible — under
//! Case Study II, GSF leaves the stripped node's region idle while
//! LOFT drives it at full speed.
//!
//! A thin consumer of the unified telemetry layer: each network runs
//! with a live probe attached (`noc_sim::telemetry`) and the grid is
//! read straight out of the resulting [`TelemetryReport`] — no
//! network-specific counters.
//!
//! Usage: `utilization [uniform|hotspot|case2] [rate]` (default:
//! case2 at 0.64).

use loft::LoftConfig;
use loft_bench::{or_exit, simulation, NetSpec, SEED, TELEMETRY_WINDOW};
use noc_gsf::GsfConfig;
use noc_sim::routing::Direction;
use noc_sim::telemetry::{LiveProbe, TelemetryReport};
use noc_sim::RunConfig;
use noc_traffic::Scenario;

/// Matches the pre-telemetry harness: 30k cycles of continuous
/// generation, utilization measured over the whole run.
const RUN: RunConfig = RunConfig {
    warmup: 0,
    measure: 30_000,
    drain: 0,
};

/// Runs `scenario` on `cfg`'s network with a live probe attached and
/// returns the run's telemetry.
fn telemetry<C: NetSpec>(scenario: &Scenario, cfg: C) -> TelemetryReport {
    let probe = LiveProbe::new(TELEMETRY_WINDOW);
    let (_, network, _) = or_exit(simulation(scenario, cfg, probe, RUN, SEED)).run_full(|| {});
    C::into_probe(network).finish()
}

/// Renders one 8×8 grid; each cell shows the busiest outgoing link of
/// that router as a utilization percentage.
fn render(name: &str, report: &TelemetryReport) {
    println!("\n{name}: peak outgoing link utilization per router (%)");
    for y in 0..8usize {
        let row: Vec<String> = (0..8usize)
            .map(|x| {
                let node = x + y * 8;
                let peak = Direction::ALL
                    .iter()
                    .map(|d| report.link_utilization(node * report.ports + d.index()))
                    .fold(0.0f64, f64::max);
                format!("{:3.0}", 100.0 * peak)
            })
            .collect();
        println!("  {}", row.join(" "));
    }
}

fn main() {
    let pattern = std::env::args().nth(1).unwrap_or_else(|| "case2".into());
    let rate: f64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.64);
    let scenario = match pattern.as_str() {
        "uniform" => Scenario::uniform(rate),
        "hotspot" => Scenario::hotspot(rate),
        "case2" => Scenario::case_study_2(rate),
        other => panic!("unknown pattern {other:?} (use uniform|hotspot|case2)"),
    };
    println!("workload: {}", scenario.name);

    render("LOFT", &telemetry(&scenario, LoftConfig::default()));
    render("GSF", &telemetry(&scenario, GsfConfig::default()));
}
