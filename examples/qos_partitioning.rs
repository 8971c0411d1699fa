//! Differentiated service: two tenants share one mesh with a 3:1
//! bandwidth split, the scenario the paper's Figure 10b/c motivates.
//!
//! A *premium* tenant (top half of the mesh) and a *best-effort*
//! tenant (bottom half) both stream to a shared memory-controller
//! node. LOFT's frame reservations, which a flow holds on every link
//! of its path, turn the 3:1 weights into a 3:1 throughput split, with
//! tight per-flow fairness inside each tenant.
//!
//! ```text
//! cargo run --release -p loft-examples --bin qos_partitioning
//! ```

use loft::{LoftConfig, LoftNetwork};
use noc_sim::flit::FlowId;
use noc_sim::flit::NodeId;
use noc_sim::{RunConfig, Simulation};
use noc_traffic::scenario::ScenarioFlow;
use noc_traffic::{Alloc, DestRule, InjectionProcess, Scenario};

fn main() {
    let topo = Scenario::default_topology();
    let controller = NodeId::new(63);

    // Build a custom scenario: same hotspot, two weight classes. Every
    // destination is fixed, so the weights scale to the most loaded
    // link, the controller's ejection port: each premium flow reserves
    // three times the frame slots of a best-effort flow.
    let mut flows = Vec::new();
    let (mut premium_ids, mut best_effort_ids) = (Vec::new(), Vec::new());
    for src in topo.nodes() {
        if src == controller {
            continue;
        }
        let (_, y) = topo.coords(src);
        let id = FlowId::new(flows.len() as u32);
        let weight = if y < 4 {
            premium_ids.push(id);
            3.0
        } else {
            best_effort_ids.push(id);
            1.0
        };
        flows.push(ScenarioFlow {
            src,
            dest: DestRule::Fixed(controller),
            process: InjectionProcess::Bernoulli { rate: 0.05 },
            alloc: Alloc::Weight(weight),
        });
    }
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
