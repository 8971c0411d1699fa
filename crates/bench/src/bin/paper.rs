//! Regenerates the paper's evaluation — Table 1, Table 2, the §5.3.1
//! delay bounds, Figures 6 and 10–13 — plus three studies beyond it:
//! the ablation of the Section 4.3 optimizations, the frame-size
//! sensitivity sweep and the link-utilization heatmaps.
//!
//! Usage: `paper [ARTIFACT [ARGS]]`. With an artifact name it prints
//! that one artifact; with none it prints every artifact in
//! EXPERIMENTS.md order, each preceded by a `# paper ARTIFACT` line
//! (`results/paper.txt` is that output). The `loft_bench` crate docs
//! list the artifacts and their arguments.
//!
//! An unknown artifact or a bad argument is reported on stderr, naming
//! what is accepted, and exits with status 2 before any simulation
//! starts: `or_exit` treats it like an infeasible configuration.

use loft::{LoftConfig, LoftNetwork};
use loft_bench::{or_exit, parallel_map, print_table, simulation, NetSpec, SEED, TELEMETRY_WINDOW};
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_model::{delay, power, storage};
use noc_sim::stats::RunningStats;
use noc_sim::telemetry::jain_index;
use noc_sim::{Direction, FlowId, LiveProbe, Network, NodeId, Packet, PacketId};
use noc_sim::{RunConfig, SimReport, TelemetryReport, Topology};
use noc_traffic::Scenario;
use noc_wormhole::{WormholeConfig, WormholeNetwork};

/// Checks an artifact's arguments — saying what is wrong with them
/// before any simulation starts — then prints the artifact.
type Artifact = fn(&[String]) -> Result<(), String>;

/// A workload family, parameterized by its injection rate.
type Pattern = fn(f64) -> Scenario;

/// A Figure 11 panel: the traffic, its offered rates and LOFT's
/// speculative-buffer sizes.
type Panel<'a> = (Pattern, &'a [f64], &'a [u32]);

/// Every artifact, in EXPERIMENTS.md order: the one list for dispatch,
/// for the all-artifacts run and for the message on an unknown name.
const ARTIFACTS: [(&str, Artifact); 11] = [
    ("table1", table1),
    ("table2", table2),
    ("delay-bounds", delay_bounds),
    ("fig6", fig6),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("ablation", ablation),
    ("sensitivity", sensitivity),
    ("utilization", utilization),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = args.split_at(args.len().min(1));
    for &(name, artifact) in or_exit(pick(name, &ARTIFACTS)) {
        if args.is_empty() {
            println!("# paper {name}");
        }
        or_exit(artifact(rest).map_err(|e| format!("paper {name}: {e}")));
    }
}

/// The entries of `table` named by an artifact's one optional
/// argument: all of them when it is absent.
fn pick<'t, T>(
    args: &[String],
    table: &'t [(&'t str, T)],
) -> Result<Vec<&'t (&'t str, T)>, String> {
    let picked: Vec<_> = table
        .iter()
        .filter(|(name, _)| args.is_empty() || args == [*name])
        .collect();
    if args.is_empty() || !picked.is_empty() {
        return Ok(picked);
    }
    let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    let accepted = names.join("|");
    Err(format!("bad arguments {args:?} (accepted: [{accepted}])"))
}

/// The argument check of an artifact that takes none.
fn no_args(args: &[String]) -> Result<(), String> {
    pick::<()>(args, &[]).map(drop)
}

/// A run of `warmup`, `measure` and `drain` cycles.
fn phases(warmup: u64, measure: u64, drain: u64) -> RunConfig {
    RunConfig {
        warmup,
        measure,
        drain,
    }
}

/// A mean-latency cell. `—` when no packet was measured: an empty
/// accumulator's mean is 0, which would read as the best latency in
/// the table.
fn latency(stats: &RunningStats) -> String {
    match stats.count() {
        0 => "—".into(),
        _ => format!("{:.1}", stats.mean()),
    }
}

/// Runs `scenario` on `cfg`'s network with a live probe attached and
/// returns the run's telemetry.
fn telemetry<C: NetSpec>(scenario: &Scenario, cfg: C, run: RunConfig) -> TelemetryReport {
    let probe = LiveProbe::new(TELEMETRY_WINDOW);
    let (_, network, _) = or_exit(simulation(scenario, cfg, probe, run, SEED)).run_full(|| {});
    C::into_probe(network).finish()
}

/// Runs `cfg` on `pattern(rate)` for each of `rates`, one simulation
/// per core at a time; the reports come back in `rates` order.
fn over_rates<C: NetSpec + Copy + Sync>(
    cfg: C,
    pattern: Pattern,
    rates: &[f64],
    run: RunConfig,
) -> Vec<SimReport> {
    parallel_map(rates.to_vec(), |rate| {
        or_exit(loft_bench::run(&pattern(rate), cfg, run, SEED))
    })
}

/// **Table 1**: the simulation setup for LOFT and GSF, read back from
/// the configuration types so the table always reflects what the
/// simulator actually runs.
fn table1(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let l = LoftConfig::default();
    let g = GsfConfig::default();
    let nodes = l.topo.num_nodes();
    let parameters = |title: &str, rows: &[(&str, String)]| {
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(p, v)| vec![p.to_string(), v.clone()])
            .collect();
        print_table(title, &["parameter", "value"], &rows);
    };

    parameters(
        "Table 1 — Common specification",
        &[
            ("Size & topology", format!("{nodes}-node 2D mesh")),
            ("Routing algorithm", "XY dimension-order".into()),
            ("Maximum flows", "64".into()),
            ("Packet size", "4 flits".into()),
        ],
    );
    parameters(
        "Table 1 — LOFT",
        &[
            ("Frame size", format!("{} flits", l.frame_size)),
            ("Frame window size", l.frame_window.to_string()),
            ("Flits per quantum", l.flits_per_quantum.to_string()),
            (
                "Reservation table size",
                format!("{} quantum slots", l.window_quanta()),
            ),
            (
                "Depth of central buffer",
                format!("{} flits", l.nonspec_buffer),
            ),
            (
                "Depth of spec. buffer",
                format!("0–16 flits (default {})", l.spec_buffer),
            ),
            ("No. of router stages", l.hop_latency.to_string()),
            ("Look-ahead router stages", l.la_hop_latency.to_string()),
            (
                "Look-ahead queue capacity",
                format!("{} flits (3 VCs × 4)", storage::LA_QUEUE_FLITS),
            ),
        ],
    );
    parameters(
        "Table 1 — GSF",
        &[
            ("No. of virtual channels", g.num_vcs.to_string()),
            (
                "Buffer size of each channel",
                format!("{} flits", g.vc_capacity),
            ),
            ("Frame size", format!("{} flits", g.frame_size)),
            ("Frame window size", g.frame_window.to_string()),
            (
                "Barrier network delay",
                format!("{} cycles", g.barrier_delay),
            ),
            ("Source queue", format!("{} flits", g.frame_size)),
        ],
    );
    Ok(())
}

/// **Table 2**: per-router storage requirements (bits) for GSF and
/// LOFT, plus the McPAT-style area/power estimate for the 64-node LOFT
/// NoC.
fn table2(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let gsf_cfg = GsfConfig::default();
    let loft_cfg = LoftConfig::default();
    let g = storage::gsf_router_bits(&gsf_cfg);
    let l = storage::loft_router_bits(&loft_cfg);
    let bits = |title: &str, rows: &[(&str, u64, &str)]| {
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|&(c, measured, paper)| vec![c.into(), measured.to_string(), paper.into()])
            .collect();
        print_table(title, &["component", "measured", "paper"], &rows);
    };

    bits(
        "Table 2 — GSF per-router storage (bits)",
        &[
            ("Source queue", g.source_queue, "256000"),
            ("Virtual channels", g.vc_buffers, "15360"),
            ("Bookkeeping", g.bookkeeping, "—"),
            ("Total", g.total(), "271379"),
        ],
    );
    bits(
        "Table 2 — LOFT per-router storage (bits)",
        &[
            ("Input buffers", l.input_buffers, "139264"),
            ("Reservation tables", l.reservation_tables, "40960"),
            ("Flow state", l.flow_state, "2308"),
            ("Look-ahead network", l.lookahead, "1536"),
            ("Total", l.total(), "184203"),
        ],
    );

    let saving = 100.0 * (1.0 - l.total() as f64 / g.total() as f64);
    println!("\nLOFT uses {saving:.1}% less storage than GSF (paper: 32%).");

    let rows = [
        ("LOFT", power::loft_estimate(&loft_cfg)),
        ("GSF", power::gsf_estimate(&gsf_cfg)),
    ]
    .map(|(net, e)| {
        vec![
            net.to_string(),
            format!("{:.1}", e.area_mm2),
            format!("{:.1}", e.power_w),
        ]
    });
    print_table(
        "Area/power estimate for the 64-node NoC (first-order model; paper's McPAT: 32 mm², 50 W for LOFT)",
        &["network", "area mm^2", "power W"],
        &rows,
    );
    Ok(())
}

/// The **Section 5.3.1 delay-bound** comparison: GSF's path-independent
/// `k × WF × F` worst case versus LOFT's path-proportional
/// `F × WF × hops` (RCQ) bound, plus a simulated check that observed
/// worst-case latencies respect the LOFT bound.
fn delay_bounds(args: &[String]) -> Result<(), String> {
    no_args(args)?;
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
    let rows = pairs.map(|(a, b, name)| {
        let (a_id, b_id) = (NodeId::new(a), NodeId::new(b));
        vec![
            format!("{name} ({a}→{b})"),
            delay::bound_hops(&loft_cfg.topo, a_id, b_id).to_string(),
            delay::loft_worst_case_for(&loft_cfg, a_id, b_id).to_string(),
            delay::gsf_worst_case(&gsf_cfg).to_string(),
        ]
    });
    print_table(
        "LOFT worst-case latency by path (vs the single GSF bound)",
        &["path", "hops", "LOFT bound", "GSF bound"],
        &rows,
    );

    // Empirical check: even under a saturating hotspot, the observed
    // maximum network latency stays within the analytic bound for the
    // longest path in use.
    let scenario = Scenario::hotspot(0.017);
    let run = phases(5_000, 30_000, 30_000);
    let report = or_exit(loft_bench::run(&scenario, loft_cfg, run, SEED));
    let worst_path_bound = delay::loft_worst_case_for(&loft_cfg, NodeId::new(0), NodeId::new(63));
    let max = report.network_latency.max() as u64;
    println!(
        "\nSimulated hotspot (saturating): max network latency {max} cycles; \
         analytic bound for the longest path {worst_path_bound} cycles; bound holds: {}",
        max <= worst_path_bound
    );
    Ok(())
}

/// Back-to-back packets in the Figure 6 stream.
const FIG6_PACKETS: u64 = 64;

/// Streams `FIG6_PACKETS` 4-flit packets from node 0 to node 1 and
/// returns the last ejection cycle and the first-to-last ejection span.
fn drive<N: Network>(mut net: N) -> (u64, u64) {
    for seq in 0..FIG6_PACKETS {
        let id = PacketId {
            flow: FlowId::new(0),
            seq,
        };
        net.enqueue(Packet::new(id, NodeId::new(0), NodeId::new(1), 4, 0));
    }
    let mut out = Vec::new();
    let mut guard = 0u64;
    while out.len() as u64 != FIG6_PACKETS {
        net.step(&mut out);
        guard += 1;
        assert!(guard < 100_000, "stream did not finish");
    }
    let first = out.iter().map(|p| p.ejected_at.unwrap()).min().unwrap();
    let last = out.iter().map(|p| p.ejected_at.unwrap()).max().unwrap();
    (last, last - first)
}

/// **Figure 6**: the flow-control efficiency comparison.
///
/// The paper's figure shows the back-to-back transfer of 4-flit
/// packets between two routers with a nearly full input buffer, under
/// three flow-control mechanisms: wormhole (credit turn-around gaps),
/// GSF (worse — a VC is only reusable after it fully drains), and FRS
/// (zero turn-around thanks to pre-scheduled slots).
///
/// We reproduce it as a makespan measurement: a single flow streams
/// `N` back-to-back packets across one link; the table reports total
/// cycles and cycles/packet for each mechanism. Buffers are kept
/// small (the figure's "input buffer close to full" premise) so the
/// flow-control overhead, not buffering, dominates.
fn fig6(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let topo = Topology::mesh(2, 1);

    // Wormhole: one VC with a buffer smaller than the credit
    // round-trip, so the turn-around is exposed on every flit (the
    // figure's "input buffer close to full" premise).
    let wh = drive(WormholeNetwork::new(WormholeConfig {
        topo,
        num_vcs: 1,
        vc_capacity: 3,
        credit_delay: 2,
        ..WormholeConfig::default()
    }));

    // GSF: the same buffers, plus the one-packet-per-VC rule — a VC
    // is reallocated only after it fully drains.
    let gsf_cfg = GsfConfig {
        topo,
        num_vcs: 1,
        vc_capacity: 3,
        credit_delay: 2,
        frame_size: 2000,
        ..GsfConfig::default()
    };
    let gsf = drive(GsfNetwork::new(gsf_cfg, &[2000]));

    // FRS (LOFT): slots are pre-booked by look-ahead flits; data
    // streams with zero turn-around.
    let loft_cfg = LoftConfig {
        topo,
        frame_size: 64,
        nonspec_buffer: 64,
        ..LoftConfig::default()
    };
    let loft = drive(LoftNetwork::new(loft_cfg, &[64]));

    let flits = FIG6_PACKETS * 4;
    let rows =
        [("wormhole", wh), ("GSF", gsf), ("FRS (LOFT)", loft)].map(|(name, (total, stream))| {
            vec![
                name.to_string(),
                total.to_string(),
                format!("{:.2}", stream as f64 / (FIG6_PACKETS - 1) as f64),
                format!("{:.2}", flits as f64 / (stream + 4) as f64),
            ]
        });
    print_table(
        &format!("Figure 6 — {FIG6_PACKETS} back-to-back 4-flit packets across one link"),
        &[
            "mechanism",
            "makespan (cycles)",
            "cycles/packet",
            "link efficiency",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): GSF worst (VC drain restriction), wormhole \
         in between (credit turn-around), FRS best (zero turn-around)."
    );
    Ok(())
}

/// **Figure 10**: fairness of throughput allocation for hotspot
/// traffic, in the paper's three allocations:
///
/// * `equal` (Fig. 10a) — every flow gets the same reservation,
/// * `diff4` (Fig. 10b) — four quadrant partitions with weights 8:6:6:3,
/// * `diff2` (Fig. 10c) — two halves with weights 9:3.
///
/// For each group of flows the table prints MAX/MIN/AVG/STDEV of the
/// accepted per-flow throughput, exactly like the paper's inset
/// tables, plus the group's Jain fairness index and worst windowed
/// service rate — both read straight out of the unified telemetry
/// layer (`noc_sim::telemetry`), which also supplies the per-flow
/// rates themselves.
fn fig10(args: &[String]) -> Result<(), String> {
    let cases: [(&str, Pattern); 3] = [
        ("equal", Scenario::hotspot),
        ("diff4", Scenario::hotspot_differentiated4),
        ("diff2", Scenario::hotspot_differentiated2),
    ];
    let run = phases(10_000, 50_000, 20_000);
    for &(name, pattern) in pick(args, &cases)? {
        // All sources inject far beyond the hotspot's capacity so the
        // allocation, not the offered load, determines throughput.
        let scenario = pattern(0.05);
        let loft = telemetry(&scenario, LoftConfig::default(), run);
        let gsf = telemetry(&scenario, GsfConfig::default(), run);

        for (net, report) in [("LOFT", loft), ("GSF", gsf)] {
            let rows: Vec<Vec<String>> = scenario
                .groups
                .iter()
                .map(|(gname, flows)| {
                    // Whole-run accepted throughput per flow, from the
                    // telemetry document's per-flow summaries.
                    let summaries = flows.iter().map(|f| &report.flows[f.index()]);
                    let rates: Vec<f64> = summaries.clone().map(|f| f.throughput).collect();
                    let worst_window = summaries
                        .map(|f| f.min_service_rate)
                        .fold(f64::INFINITY, f64::min);
                    let mut s = RunningStats::new();
                    rates.iter().for_each(|&rate| s.push(rate));
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
            println!("  overall Jain index ({net}): {:.4}", report.jain);
        }
    }
    Ok(())
}

/// **Figure 11**: average packet latency against offered load and
/// total accepted throughput, for uniform (11a) and hotspot (11b)
/// traffic, sweeping LOFT's speculative buffer size and comparing
/// against GSF.
///
/// Latency is the *network* latency (injection → ejection), which
/// levels out past saturation because both architectures regulate
/// injection — matching the paper's description. Accepted throughput
/// is reported at the highest offered load, normalized to GSF as in
/// the paper's bar charts.
fn fig11(args: &[String]) -> Result<(), String> {
    let uniform = [0.02, 0.08, 0.14, 0.20, 0.26, 0.32, 0.38, 0.44, 0.50];
    let hotspot = [
        0.001, 0.003, 0.005, 0.007, 0.009, 0.011, 0.013, 0.015, 0.017,
    ];
    let panels: [(&str, Panel); 2] = [
        ("uniform", (Scenario::uniform, &uniform, &[0, 4, 8, 12, 16])),
        ("hotspot", (Scenario::hotspot, &hotspot, &[0, 2, 4, 6, 8])),
    ];
    let run = phases(5_000, 30_000, 20_000);
    for &(name, (pattern, rates, spec_sizes)) in pick(args, &panels)? {
        let gsf = over_rates(GsfConfig::default(), pattern, rates, run);
        let mut sweeps = vec![("GSF".to_string(), gsf)];
        for &spec in spec_sizes {
            let reports = over_rates(LoftConfig::with_spec_buffer(spec), pattern, rates, run);
            sweeps.push((format!("LOFT spec={spec}"), reports));
        }

        // Latency table: one row per offered rate, one column per config.
        let mut header = vec!["offered"];
        header.extend(sweeps.iter().map(|(label, _)| label.as_str()));
        let rows: Vec<Vec<String>> = rates
            .iter()
            .enumerate()
            .map(|(i, rate)| {
                let mut row = vec![format!("{rate:.3}")];
                row.extend(sweeps.iter().map(|(_, r)| latency(&r[i].network_latency)));
                row
            })
            .collect();
        print_table(
            &format!("Figure 11 ({name}) — network latency (cycles) vs offered load"),
            &header,
            &rows,
        );

        // Accepted throughput at the highest load, normalized to GSF.
        let gsf_tput = sweeps[0].1.last().unwrap().throughput_per_node();
        let rows: Vec<Vec<String>> = sweeps
            .iter()
            .map(|(label, reports)| {
                let t = reports.last().unwrap().throughput_per_node();
                vec![
                    label.clone(),
                    format!("{t:.4}"),
                    format!("{:.2}", t / gsf_tput),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Figure 11 ({name}) — accepted throughput at offered {:.3} (normalized to GSF)",
                rates.last().unwrap()
            ),
            &["config", "flits/cycle/node", "vs GSF"],
            &rows,
        );
    }
    Ok(())
}

/// **Figure 12** (Case Study I): the denial-of-service experiment.
/// Flows 0→63 (regulated at 0.2 flits/cycle), 48→63 and 56→63
/// (aggressors) each hold a 1/4 link-bandwidth allocation; the
/// aggressors' injection rate sweeps far beyond it. For GSF and LOFT
/// the tables report each flow's average packet latency and accepted
/// throughput versus the aggressor rate, plus the aggregate ejection
/// utilization the paper quotes (<60% for GSF, >90% for LOFT).
fn fig12(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let rates = [0.1, 0.2, 0.4, 0.6, 0.8];
    let run = phases(10_000, 40_000, 30_000);
    let gsf = over_rates(GsfConfig::default(), Scenario::case_study_1, &rates, run);
    let loft = over_rates(LoftConfig::default(), Scenario::case_study_1, &rates, run);
    let columns = ["aggr rate", "victim 0→63", "aggr 48→63", "aggr 56→63"];
    for (net, reports) in [("GSF", gsf), ("LOFT", loft)] {
        let (lat_rows, tput_rows): (Vec<_>, Vec<_>) = rates
            .iter()
            .zip(&reports)
            .map(|(rate, r)| {
                let mut lat = vec![format!("{rate:.1}")];
                lat.extend(r.flows[..3].iter().map(|f| latency(&f.total_latency)));
                let flows = [0, 1, 2].map(|i| r.flow_throughput(FlowId::new(i)));
                let mut tput = vec![format!("{rate:.1}")];
                tput.extend(flows.iter().map(|t| format!("{t:.4}")));
                tput.push(format!("{:.1}%", 100.0 * (flows[0] + flows[1] + flows[2])));
                (lat, tput)
            })
            .unzip();
        print_table(
            &format!("Figure 12 ({net}) — per-flow packet latency (cycles) vs aggressor rate"),
            &columns,
            &lat_rows,
        );
        print_table(
            &format!(
                "Figure 12 ({net}) — per-flow accepted throughput (flits/cycle) vs aggressor rate"
            ),
            &[&columns[..], &["link util"]].concat(),
            &tput_rows,
        );
    }
    Ok(())
}

/// **Figure 13** (Case Study II): the pathological scenario of
/// Figure 1. The eight *grey* nodes of column 0 send to the central
/// hotspot (4,4) while the *stripped* node (6,4) sends to its nearest
/// neighbor over a completely disjoint path; every flow holds the
/// same equal reservation. In GSF the globally synchronized frame
/// recycling throttles the stripped node along with the grey ones;
/// LOFT's local status reset lets it use its idle links at full speed.
fn fig13(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let rates = [0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 0.95];
    let run = phases(10_000, 40_000, 30_000);
    let gsf = over_rates(GsfConfig::default(), Scenario::case_study_2, &rates, run);
    let loft = over_rates(LoftConfig::default(), Scenario::case_study_2, &rates, run);
    let scenario = Scenario::case_study_2(0.1); // groups only
    for (net, reports) in [("GSF", gsf), ("LOFT", loft)] {
        let rows: Vec<Vec<String>> = rates
            .iter()
            .zip(&reports)
            .map(|(rate, r)| {
                let grey = r.group_throughput(scenario.group("grey").expect("group exists"));
                let stripped =
                    r.group_throughput(scenario.group("stripped").expect("group exists"));
                vec![
                    format!("{rate:.2}"),
                    format!("{:.4}", grey.mean()),
                    format!("{:.4}", stripped.mean()),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Figure 13 ({net}) — accepted throughput (flits/cycle/node) vs injection rate"
            ),
            &["inj rate", "grey avg", "stripped"],
            &rows,
        );
    }
    println!(
        "\nExpected shape (paper): GSF throttles the stripped node to the grey \
         nodes' rate despite its disjoint, idle path; LOFT lets it track its \
         offered rate while the grey nodes saturate at their hotspot share."
    );
    Ok(())
}

/// Ablation study of LOFT's two Section 4.3 optimizations —
/// speculative flit switching and local status reset — separately and
/// together, on the three workloads where the paper motivates them.
///
/// The paper states (Section 4.3.2) that speculative switching "only
/// saves latency but not improves throughput", while local status
/// reset is the throughput mechanism; this study verifies exactly
/// that decomposition on our implementation.
fn ablation(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    // (name, speculative switching, local status reset)
    let variants = [
        ("baseline (none)", false, false),
        ("+speculative", true, false),
        ("+local reset", false, true),
        ("+both (LOFT)", true, true),
    ];
    let run = phases(5_000, 25_000, 15_000);
    // Workload 1: uniform *below* every flow's guaranteed rate
    // (0.01 < R/F = 0.0156), so no bandwidth reclamation is needed
    // and the latency difference is the pure speculative-switching
    // effect. Workload 2: uniform at moderate load — throughput needs
    // reclamation. Workload 3: Case Study II — the stripped node
    // needs its idle path recycled.
    let rows = parallel_map(variants.to_vec(), move |(name, speculative, reset)| {
        let cfg = LoftConfig {
            speculative_switching: speculative,
            local_status_reset: reset,
            ..LoftConfig::default()
        };
        let report = |s: Scenario| or_exit(loft_bench::run(&s, cfg, run, SEED));
        let (light, uniform, case2) = (
            report(Scenario::uniform(0.01)),
            report(Scenario::uniform(0.3)),
            report(Scenario::case_study_2(0.64)),
        );
        vec![
            name.to_string(),
            latency(&light.network_latency),
            format!("{:.4}", uniform.throughput_per_node()),
            format!("{:.4}", case2.flow_throughput(FlowId::new(8))),
        ]
    });
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
    Ok(())
}

/// Sensitivity study: how LOFT's guarantees and performance respond
/// to the frame size `F` and frame window `WF` — the two parameters
/// that trade delay bounds (`F × WF` per hop) against scheduling
/// granularity. Complements the paper's fixed Table 1 choice.
fn sensitivity(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    // (F, WF, label suffix)
    let points = vec![
        (64, 2, ""),
        (128, 2, ""),
        (256, 2, " (paper)"), // Table 1
        (512, 2, ""),
        (256, 1, ""),
        (256, 4, ""),
    ];
    let run = phases(5_000, 25_000, 15_000);
    let rows = parallel_map(points, move |(frame_size, frame_window, paper)| {
        let cfg = LoftConfig {
            frame_size,
            frame_window,
            nonspec_buffer: frame_size,
            ..LoftConfig::default()
        };
        let scenario = Scenario::hotspot(0.02);
        let report = or_exit(loft_bench::run(&scenario, cfg, run, SEED));
        let fair = report.group_throughput(scenario.group("all").expect("group"));
        vec![
            format!("F={frame_size} WF={frame_window}{paper}"),
            format!("{:.4}", report.throughput_per_node()),
            format!("{:.1}%", 100.0 * fair.cv()),
            latency(&report.network_latency),
            delay::loft_per_hop(&cfg).to_string(),
        ]
    });
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
    Ok(())
}

/// Link-utilization heatmap: renders per-link utilization of the data
/// network as ASCII grids, making the Figure 1 story visible — under
/// Case Study II, GSF leaves the stripped node's region idle while
/// LOFT drives it at full speed.
///
/// A thin consumer of the unified telemetry layer: each network runs
/// with a live probe attached (`noc_sim::telemetry`) and the grid is
/// read straight out of the resulting [`TelemetryReport`] — no
/// network-specific counters.
fn utilization(args: &[String]) -> Result<(), String> {
    let patterns: [(&str, Pattern); 3] = [
        ("uniform", Scenario::uniform),
        ("hotspot", Scenario::hotspot),
        ("case2", Scenario::case_study_2),
    ];
    let (pattern, rate) = match args {
        [] => ("case2", "0.64"),
        [pattern] => (pattern.as_str(), "0.64"),
        [pattern, rate] => (pattern.as_str(), rate.as_str()),
        _ => return Err(format!("bad arguments {args:?} (accepted: PATTERN [RATE])")),
    };
    let pattern = pick(&[pattern.to_string()], &patterns)?[0].1;
    let rate: f64 = rate
        .parse()
        .ok()
        .filter(|r| *r > 0.0 && *r <= 1.0)
        .ok_or_else(|| format!("bad rate {rate:?} (accepted: a number in (0, 1])"))?;
    let scenario = pattern(rate);
    println!("workload: {}", scenario.name);

    // Matches the pre-telemetry harness: 30k cycles of continuous
    // generation, utilization measured over the whole run.
    let run = phases(0, 30_000, 0);
    let loft = telemetry(&scenario, LoftConfig::default(), run);
    let gsf = telemetry(&scenario, GsfConfig::default(), run);
    for (name, report) in [("LOFT", loft), ("GSF", gsf)] {
        // One 8×8 grid; each cell shows the busiest outgoing link of
        // that router as a utilization percentage.
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
    Ok(())
}
