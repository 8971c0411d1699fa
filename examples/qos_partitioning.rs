//! Differentiated service: two tenants share one mesh with a 3:1
//! bandwidth split, the scenario the paper's Figure 10b/c motivates.
//!
//! A *premium* tenant (top half of the mesh) and a *best-effort*
//! tenant (bottom half) both stream to a shared memory-controller
//! node. LOFT's per-link frame reservations turn the 3:1 weights into
//! a 3:1 throughput split, with tight per-flow fairness inside each
//! tenant.
//!
//! ```text
//! cargo run --release -p loft-examples --bin qos_partitioning
//! ```

use loft::{LoftConfig, LoftNetwork};
use noc_sim::flit::FlowId;
use noc_sim::flit::NodeId;
use noc_sim::{RunConfig, Simulation};
use noc_traffic::scenario::ScenarioFlow;
use noc_traffic::{DestRule, InjectionProcess, Scenario};

fn main() {
    let topo = Scenario::default_topology();
    let controller = NodeId::new(63);

    // Build a custom scenario: same hotspot, two weight classes.
    let mut flows = Vec::new();
    for src in topo.nodes() {
        if src == controller {
            continue;
        }
        let (_, y) = topo.coords(src);
        let premium = y < 4;
        flows.push(ScenarioFlow {
            src,
            dest: DestRule::Fixed(controller),
            process: InjectionProcess::Bernoulli { rate: 0.05 },
            weight: if premium { 3.0 } else { 1.0 },
            share: None,
        });
    }
    let premium_ids: Vec<FlowId> = flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.weight > 1.0)
        .map(|(i, _)| FlowId::new(i as u32))
        .collect();
    let best_effort_ids: Vec<FlowId> = flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.weight == 1.0)
        .map(|(i, _)| FlowId::new(i as u32))
        .collect();
    let scenario = Scenario {
        name: "qos-partitioning".into(),
        topo,
        packet_len: 4,
        flows,
        groups: vec![
            ("premium".into(), premium_ids),
            ("best-effort".into(), best_effort_ids),
        ],
    };

    let cfg = LoftConfig::default();
    let reservations = scenario
        .reservations(cfg.frame_size)
        .expect("valid weights");
    let network = LoftNetwork::new(cfg, &reservations);
    let report = Simulation::new(
        network,
        scenario.workload(7),
        RunConfig {
            warmup: 10_000,
            measure: 40_000,
            drain: 20_000,
        },
    )
    .run();

    let premium = report.group_throughput(scenario.group("premium").expect("group"));
    let best = report.group_throughput(scenario.group("best-effort").expect("group"));
    println!(
        "premium     : avg {:.4} flits/cycle/flow (cv {:.1}%)",
        premium.mean(),
        100.0 * premium.cv()
    );
    println!(
        "best-effort : avg {:.4} flits/cycle/flow (cv {:.1}%)",
        best.mean(),
        100.0 * best.cv()
    );
    println!(
        "measured split {:.2}:1 (configured 3:1)",
        premium.mean() / best.mean()
    );
}
