//! Regenerates **Figure 11**: average packet latency against offered
//! load and total accepted throughput, for uniform (11a) and hotspot
//! (11b) traffic, sweeping LOFT's speculative buffer size and
//! comparing against GSF.
//!
//! Latency is the *network* latency (injection → ejection), which
//! levels out past saturation because both architectures regulate
//! injection — matching the paper's description. Accepted throughput
//! is reported at the highest offered load, normalized to GSF as in
//! the paper's bar charts.
//!
//! Usage: `fig11_performance [uniform|hotspot]` (default: both).

use loft::LoftConfig;
use loft_bench::{or_exit, parallel_map, print_table, SEED};
use noc_gsf::GsfConfig;
use noc_sim::{RunConfig, SimReport};
use noc_traffic::Scenario;

struct Sweep {
    label: String,
    reports: Vec<SimReport>,
}

fn run_pattern(pattern: &str) {
    let (rates, spec_sizes): (Vec<f64>, Vec<u32>) = match pattern {
        "uniform" => (
            vec![0.02, 0.08, 0.14, 0.20, 0.26, 0.32, 0.38, 0.44, 0.50],
            vec![0, 4, 8, 12, 16],
        ),
        "hotspot" => (
            vec![
                0.001, 0.003, 0.005, 0.007, 0.009, 0.011, 0.013, 0.015, 0.017,
            ],
            vec![0, 2, 4, 6, 8],
        ),
        other => panic!("unknown pattern {other:?} (use uniform|hotspot)"),
    };
    let uniform = pattern == "uniform";
    let run = RunConfig {
        warmup: 5_000,
        measure: 30_000,
        drain: 20_000,
    };

    let mut sweeps: Vec<Sweep> = Vec::new();
    {
        let rates = rates.clone();
        let reports = parallel_map(rates, move |rate| {
            let s = if uniform {
                Scenario::uniform(rate)
            } else {
                Scenario::hotspot(rate)
            };
            or_exit(loft_bench::run(&s, GsfConfig::default(), run, SEED))
        });
        sweeps.push(Sweep {
            label: "GSF".into(),
            reports,
        });
    }
    for &spec in &spec_sizes {
        let rates = rates.clone();
        let reports = parallel_map(rates, move |rate| {
            let s = if uniform {
                Scenario::uniform(rate)
            } else {
                Scenario::hotspot(rate)
            };
            or_exit(loft_bench::run(
                &s,
                LoftConfig::with_spec_buffer(spec),
                run,
                SEED,
            ))
        });
        sweeps.push(Sweep {
            label: format!("LOFT spec={spec}"),
            reports,
        });
    }

    // Latency table: one row per offered rate, one column per config.
    let mut header: Vec<String> = vec!["offered".into()];
    header.extend(sweeps.iter().map(|s| s.label.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = rates
        .iter()
        .enumerate()
        .map(|(i, rate)| {
            let mut row = vec![format!("{rate:.3}")];
            for s in &sweeps {
                row.push(format!("{:.1}", s.reports[i].network_latency.mean()));
            }
            row
        })
        .collect();
    print_table(
        &format!("Figure 11 ({pattern}) — network latency (cycles) vs offered load"),
        &header_refs,
        &rows,
    );

    // Accepted throughput at the highest load, normalized to GSF.
    let gsf_tput = sweeps[0].reports.last().unwrap().throughput_per_node();
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            let t = s.reports.last().unwrap().throughput_per_node();
            vec![
                s.label.clone(),
                format!("{t:.4}"),
                format!("{:.2}", t / gsf_tput),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Figure 11 ({pattern}) — accepted throughput at offered {:.3} (normalized to GSF)",
            rates.last().unwrap()
        ),
        &["config", "flits/cycle/node", "vs GSF"],
        &rows,
    );
}

fn main() {
    match std::env::args().nth(1) {
        Some(p) => run_pattern(&p),
        None => {
            run_pattern("uniform");
            run_pattern("hotspot");
        }
    }
}
