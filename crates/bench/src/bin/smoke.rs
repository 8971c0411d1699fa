//! Quick behavioural smoke-check used during development: prints a
//! handful of headline numbers from scaled-down versions of the
//! paper's experiments. Not part of the figure regeneration set.

use loft::LoftConfig;
use loft_bench::{f4, or_exit, print_table, SEED};
use noc_gsf::GsfConfig;
use noc_sim::RunConfig;
use noc_traffic::Scenario;

fn main() {
    let run = RunConfig {
        warmup: 5_000,
        measure: 20_000,
        drain: 10_000,
    };
    let t0 = std::time::Instant::now();

    // Fairness: hotspot, equal allocation.
    let s = Scenario::hotspot(0.05);
    let loft = or_exit(loft_bench::run(&s, LoftConfig::default(), run, SEED));
    let g = loft.group_throughput(s.group("all").unwrap());
    print_table(
        "LOFT hotspot fairness (rate 0.05)",
        &["max", "min", "avg", "cv%", "lat"],
        &[vec![
            f4(g.max()),
            f4(g.min()),
            f4(g.mean()),
            format!("{:.1}", g.cv() * 100.0),
            f4(loft.avg_latency()),
        ]],
    );

    // Case study 2 shape at high rate.
    let s2 = Scenario::case_study_2(0.64);
    let l2 = or_exit(loft_bench::run(&s2, LoftConfig::default(), run, SEED));
    let g2 = or_exit(loft_bench::run(&s2, GsfConfig::default(), run, SEED));
    let row = |name: &str, r: &noc_sim::SimReport| {
        let grey = r.group_throughput(s2.group("grey").unwrap());
        let strip = r.group_throughput(s2.group("stripped").unwrap());
        vec![name.to_string(), f4(grey.mean()), f4(strip.mean())]
    };
    print_table(
        "Case Study II @0.64 (grey vs stripped throughput)",
        &["net", "grey", "stripped"],
        &[row("GSF", &g2), row("LOFT", &l2)],
    );

    // Uniform latency/throughput at medium load.
    let s3 = Scenario::uniform(0.3);
    let l3 = or_exit(loft_bench::run(&s3, LoftConfig::default(), run, SEED));
    let g3 = or_exit(loft_bench::run(&s3, GsfConfig::default(), run, SEED));
    print_table(
        "Uniform @0.3 (latency, accepted throughput/node)",
        &["net", "lat", "tput"],
        &[
            vec![
                "GSF".into(),
                f4(g3.avg_latency()),
                f4(g3.throughput_per_node()),
            ],
            vec![
                "LOFT".into(),
                f4(l3.avg_latency()),
                f4(l3.throughput_per_node()),
            ],
        ],
    );

    println!("\nelapsed: {:.1}s", t0.elapsed().as_secs_f64());
}
