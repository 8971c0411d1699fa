//! Sensitivity study: how LOFT's guarantees and performance respond
//! to the frame size `F` and frame window `WF` — the two parameters
//! that trade delay bounds (`F × WF` per hop) against scheduling
//! granularity. Complements the paper's fixed Table 1 choice.

use loft::LoftConfig;
use loft_bench::{or_exit, parallel_map, print_table, SEED};
use noc_model::delay;
use noc_sim::RunConfig;
use noc_traffic::Scenario;

fn run(frame_size: u32, frame_window: u32) -> (f64, f64, f64, u64) {
    let cfg = LoftConfig {
        frame_size,
        frame_window,
        nonspec_buffer: frame_size,
        ..LoftConfig::default()
    };
    let scenario = Scenario::hotspot(0.02);
    let phases = RunConfig {
        warmup: 5_000,
        measure: 25_000,
        drain: 15_000,
    };
    let report = or_exit(loft_bench::run(&scenario, cfg, phases, SEED));
    let fair = report.group_throughput(scenario.group("all").expect("group"));
    (
        report.throughput_per_node(),
        fair.cv(),
        report.network_latency.mean(),
        delay::loft_per_hop(&cfg),
    )
}

fn main() {
    let points: Vec<(u32, u32)> = vec![
        (64, 2),
        (128, 2),
        (256, 2), // Table 1
        (512, 2),
        (256, 1),
        (256, 4),
    ];
    let results = parallel_map(points.clone(), |(f, w)| run(f, w));
    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(&results)
        .map(|(&(f, w), &(tput, cv, lat, bound))| {
            vec![
                format!(
                    "F={f} WF={w}{}",
                    if (f, w) == (256, 2) { " (paper)" } else { "" }
                ),
                format!("{tput:.4}"),
                format!("{:.1}%", 100.0 * cv),
                format!("{lat:.1}"),
                bound.to_string(),
            ]
        })
        .collect();
    print_table(
        "Frame-size / window sensitivity (saturating hotspot)",
        &[
            "config",
            "tput/node",
            "fairness CV",
            "net latency (cyc)",
            "bound/hop (cyc)",
        ],
        &rows,
    );
    println!(
        "\nSmaller frames tighten the delay bound but coarsen reservations \
         (fewer slots per flow); larger windows add burst tolerance at the \
         cost of a proportionally looser bound."
    );
}
