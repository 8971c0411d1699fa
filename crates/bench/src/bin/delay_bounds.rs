//! Regenerates the **Section 5.3.1 delay-bound** comparison: GSF's
//! path-independent `k × WF × F` worst case versus LOFT's
//! path-proportional `F × WF × hops` (RCQ) bound, plus a simulated
//! check that observed worst-case latencies respect the LOFT bound.

use loft::LoftConfig;
use loft_bench::{or_exit, print_table, SEED};
use noc_gsf::GsfConfig;
use noc_model::delay;
use noc_sim::{NodeId, RunConfig};
use noc_traffic::Scenario;

fn main() {
    let loft_cfg = LoftConfig::default();
    let gsf_cfg = GsfConfig::default();

    println!(
        "GSF worst-case bound: {} cycles (path-independent; paper: 24000)",
        delay::gsf_worst_case(&gsf_cfg)
    );
    println!(
        "LOFT per-hop bound:   {} cycles/hop (paper: 512)",
        delay::loft_per_hop(&loft_cfg)
    );

    let pairs = [
        (0u32, 1u32, "neighbor"),
        (0, 7, "one row"),
        (0, 63, "corner to corner"),
        (27, 36, "center diagonal"),
    ];
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|&(a, b, name)| {
            let bound = delay::loft_worst_case_for(&loft_cfg, NodeId::new(a), NodeId::new(b));
            let hops = delay::bound_hops(
                &loft_cfg.topo,
                loft_cfg.routing,
                NodeId::new(a),
                NodeId::new(b),
            );
            vec![
                format!("{name} ({a}→{b})"),
                hops.to_string(),
                bound.to_string(),
                delay::gsf_worst_case(&gsf_cfg).to_string(),
            ]
        })
        .collect();
    print_table(
        "LOFT worst-case latency by path (vs the single GSF bound)",
        &["path", "hops", "LOFT bound", "GSF bound"],
        &rows,
    );

    // Empirical check: even under a saturating hotspot, the observed
    // maximum network latency stays within the analytic bound for the
    // longest path in use.
    let scenario = Scenario::hotspot(0.017);
    let run = RunConfig {
        warmup: 5_000,
        measure: 30_000,
        drain: 30_000,
    };
    let report = or_exit(loft_bench::run(&scenario, loft_cfg, run, SEED));
    let worst_path_bound = delay::loft_worst_case_for(&loft_cfg, NodeId::new(0), NodeId::new(63));
    println!(
        "\nSimulated hotspot (saturating): max network latency {} cycles; \
         analytic bound for the longest path {} cycles; bound holds: {}",
        report.network_latency.max() as u64,
        worst_path_bound,
        (report.network_latency.max() as u64) <= worst_path_bound
    );
}
