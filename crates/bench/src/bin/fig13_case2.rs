//! Regenerates **Figure 13** (Case Study II): the pathological
//! scenario of Figure 1. The eight *grey* nodes of column 0 send to
//! the central hotspot (4,4) while the *stripped* node (6,4) sends to
//! its nearest neighbor over a completely disjoint path; every flow
//! holds the same equal reservation. In GSF the globally synchronized
//! frame recycling throttles the stripped node along with the grey
//! ones; LOFT's local status reset lets it use its idle links at full
//! speed.

use loft::LoftConfig;
use loft_bench::{or_exit, parallel_map, print_table, SEED};
use noc_gsf::GsfConfig;
use noc_sim::{RunConfig, SimReport};
use noc_traffic::Scenario;

const RATES: [f64; 7] = [0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 0.95];

fn table(net: &str, reports: &[SimReport]) {
    let scenario = Scenario::case_study_2(0.1); // groups only
    let rows: Vec<Vec<String>> = RATES
        .iter()
        .zip(reports)
        .map(|(rate, r)| {
            let grey = r.group_throughput(scenario.group("grey").expect("group exists"));
            let stripped = r.group_throughput(scenario.group("stripped").expect("group exists"));
            vec![
                format!("{rate:.2}"),
                format!("{:.4}", grey.mean()),
                format!("{:.4}", stripped.mean()),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 13 ({net}) — accepted throughput (flits/cycle/node) vs injection rate"),
        &["inj rate", "grey avg", "stripped"],
        &rows,
    );
}

fn main() {
    let run = RunConfig {
        warmup: 10_000,
        measure: 40_000,
        drain: 30_000,
    };
    let gsf = parallel_map(RATES.to_vec(), move |rate| {
        let s = Scenario::case_study_2(rate);
        or_exit(loft_bench::run(&s, GsfConfig::default(), run, SEED))
    });
    let loft = parallel_map(RATES.to_vec(), move |rate| {
        let s = Scenario::case_study_2(rate);
        or_exit(loft_bench::run(&s, LoftConfig::default(), run, SEED))
    });
    table("GSF", &gsf);
    table("LOFT", &loft);
    println!(
        "\nExpected shape (paper): GSF throttles the stripped node to the grey \
         nodes' rate despite its disjoint, idle path; LOFT lets it track its \
         offered rate while the grey nodes saturate at their hotspot share."
    );
}
