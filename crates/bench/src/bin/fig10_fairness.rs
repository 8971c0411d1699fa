//! Regenerates **Figure 10**: fairness of throughput allocation for
//! hotspot traffic, in the paper's three allocations:
//!
//! * `equal` (Fig. 10a) — every flow gets the same reservation,
//! * `diff4` (Fig. 10b) — four quadrant partitions with weights 8:6:6:3,
//! * `diff2` (Fig. 10c) — two halves with weights 9:3.
//!
//! For each group of flows the table prints MAX/MIN/AVG/STDEV of the
//! accepted per-flow throughput, exactly like the paper's inset
//! tables, plus the group's Jain fairness index and worst windowed
//! service rate — both read straight out of the unified telemetry
//! layer (`noc_sim::telemetry`), which also supplies the per-flow
//! rates themselves. Run with an argument (`equal`, `diff4`, `diff2`)
//! for one case or no argument for all three.

use loft::LoftConfig;
use loft_bench::{or_exit, print_table, simulation, NetSpec, SEED, TELEMETRY_WINDOW};
use noc_gsf::GsfConfig;
use noc_sim::stats::RunningStats;
use noc_sim::telemetry::{jain_index, LiveProbe, TelemetryReport};
use noc_sim::RunConfig;
use noc_traffic::Scenario;

/// Runs `scenario` on `cfg`'s network with a live probe attached and
/// returns the run's telemetry.
fn telemetry<C: NetSpec>(scenario: &Scenario, cfg: C, run: RunConfig) -> TelemetryReport {
    let probe = LiveProbe::new(TELEMETRY_WINDOW);
    let (_, network, _) = or_exit(simulation(scenario, cfg, probe, run, SEED)).run_full(|| {});
    C::into_probe(network).finish()
}

fn run_case(name: &str) {
    // All sources inject far beyond the hotspot's capacity so the
    // allocation, not the offered load, determines throughput.
    let scenario = match name {
        "equal" => Scenario::hotspot(0.05),
        "diff4" => Scenario::hotspot_differentiated4(0.05),
        "diff2" => Scenario::hotspot_differentiated2(0.05),
        other => panic!("unknown fairness case {other:?} (use equal|diff4|diff2)"),
    };
    let run = RunConfig {
        warmup: 10_000,
        measure: 50_000,
        drain: 20_000,
    };
    let loft = telemetry(&scenario, LoftConfig::default(), run);
    let gsf = telemetry(&scenario, GsfConfig::default(), run);

    for (net, telemetry) in [("LOFT", &loft), ("GSF", &gsf)] {
        let rows: Vec<Vec<String>> = scenario
            .groups
            .iter()
            .map(|(gname, flows)| {
                // Whole-run accepted throughput per flow, from the
                // telemetry document's per-flow summaries.
                let rates: Vec<f64> = flows
                    .iter()
                    .map(|f| telemetry.flows[f.index()].throughput)
                    .collect();
                let mut s = RunningStats::new();
                let mut worst_window = f64::INFINITY;
                for (f, &rate) in flows.iter().zip(&rates) {
                    s.push(rate);
                    worst_window = worst_window.min(telemetry.flows[f.index()].min_service_rate);
                }
                vec![
                    gname.clone(),
                    format!("{:.4}", s.max()),
                    format!("{:.4}", s.min()),
                    format!("{:.4}", s.mean()),
                    format!("{:.1}%", 100.0 * s.cv()),
                    format!("{:.4}", jain_index(&rates)),
                    format!("{worst_window:.4}"),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 10 ({name}) — {net} throughput per flow (flits/cycle)"),
            &[
                "group",
                "MAX",
                "MIN",
                "AVG",
                "STDEV/AVG",
                "JAIN",
                "MIN RATE",
            ],
            &rows,
        );
        println!("  overall Jain index ({net}): {:.4}", telemetry.jain);
    }
}

fn main() {
    match std::env::args().nth(1) {
        Some(case) => run_case(&case),
        None => {
            for case in ["equal", "diff4", "diff2"] {
                run_case(case);
            }
        }
    }
}
