//! Regenerates **Figure 12** (Case Study I): the denial-of-service
//! experiment. Flows 0→63 (regulated at 0.2 flits/cycle), 48→63 and
//! 56→63 (aggressors) each hold a 1/4 link-bandwidth allocation; the
//! aggressors' injection rate sweeps far beyond it. For GSF and LOFT
//! the tables report each flow's average packet latency and accepted
//! throughput versus the aggressor rate, plus the aggregate ejection
//! utilization the paper quotes (<60% for GSF, >90% for LOFT).

use loft::LoftConfig;
use loft_bench::{or_exit, parallel_map, print_table, SEED};
use noc_gsf::GsfConfig;
use noc_sim::{FlowId, RunConfig, SimReport};
use noc_traffic::Scenario;

const RATES: [f64; 5] = [0.1, 0.2, 0.4, 0.6, 0.8];

fn tables(net: &str, reports: &[SimReport]) {
    let lat_rows: Vec<Vec<String>> = RATES
        .iter()
        .zip(reports)
        .map(|(rate, r)| {
            vec![
                format!("{rate:.1}"),
                format!("{:.1}", r.flows[0].total_latency.mean()),
                format!("{:.1}", r.flows[1].total_latency.mean()),
                format!("{:.1}", r.flows[2].total_latency.mean()),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 12 ({net}) — per-flow packet latency (cycles) vs aggressor rate"),
        &["aggr rate", "victim 0→63", "aggr 48→63", "aggr 56→63"],
        &lat_rows,
    );

    let tput_rows: Vec<Vec<String>> = RATES
        .iter()
        .zip(reports)
        .map(|(rate, r)| {
            let f = |i: u32| r.flow_throughput(FlowId::new(i));
            vec![
                format!("{rate:.1}"),
                format!("{:.4}", f(0)),
                format!("{:.4}", f(1)),
                format!("{:.4}", f(2)),
                format!("{:.1}%", 100.0 * (f(0) + f(1) + f(2))),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Figure 12 ({net}) — per-flow accepted throughput (flits/cycle) vs aggressor rate"
        ),
        &[
            "aggr rate",
            "victim 0→63",
            "aggr 48→63",
            "aggr 56→63",
            "link util",
        ],
        &tput_rows,
    );
}

fn main() {
    let run = RunConfig {
        warmup: 10_000,
        measure: 40_000,
        drain: 30_000,
    };
    let gsf = parallel_map(RATES.to_vec(), move |rate| {
        let s = Scenario::case_study_1(rate);
        or_exit(loft_bench::run(&s, GsfConfig::default(), run, SEED))
    });
    let loft = parallel_map(RATES.to_vec(), move |rate| {
        let s = Scenario::case_study_1(rate);
        or_exit(loft_bench::run(&s, LoftConfig::default(), run, SEED))
    });
    tables("GSF", &gsf);
    tables("LOFT", &loft);
}
