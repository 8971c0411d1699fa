//! Microbenchmarks of the simulator's hot kernels: the LSF scheduler
//! (Algorithms 1–3), per-cycle network stepping, and routing.
//!
//! Runs with `cargo bench -p loft-bench --bench kernels`. Timing uses
//! the std-only harness in `loft_bench` (the workspace builds
//! offline, so no external benchmarking framework is used).

use loft::lsf::{LinkScheduler, LsfParams, PendingQuantum};
use loft::{LoftConfig, LoftNetwork};
use loft_bench::bench_report;
use noc_gsf::{GsfConfig, GsfNetwork};
use noc_sim::flit::FlowId;
use noc_sim::TrafficSource;
use noc_sim::{Network, NodeId, Topology};
use noc_traffic::Scenario;
use noc_wormhole::{WormholeConfig, WormholeNetwork};

fn lsf_schedule() {
    let params = LsfParams {
        frame_quanta: 128,
        frame_window: 2,
        flits_per_quantum: 2,
        buffer_quanta: 128,
        sink: false,
    };
    let reservations = vec![4u32; 64];
    bench_report("lsf/schedule_until_exhausted", 200, || {
        let mut s = LinkScheduler::new(params, &reservations);
        let mut booked = 0u32;
        'outer: for f in 0..64u32 {
            let flow = FlowId::new(f);
            loop {
                let entry = PendingQuantum {
                    in_port: 0,
                    res_idx: 0,
                };
                match s.schedule(flow, 1, entry) {
                    Some(_) => booked += 1,
                    None => continue 'outer,
                }
            }
        }
        booked
    });
    // A link in use (booked, so no longer pristine), stepped slot by
    // slot: the reference `advance_to` must match …
    let used = || {
        let mut s = LinkScheduler::new(params, &reservations);
        let flow = FlowId::new(0);
        let entry = PendingQuantum {
            in_port: 0,
            res_idx: 0,
        };
        let slot = s.schedule(flow, 1, entry).expect("empty table books");
        s.complete(slot);
        s
    };
    bench_report("lsf/advance_slot_x1024", 200, || {
        let mut s = used();
        for _ in 0..1024 {
            s.advance_slot();
        }
        s.current_slot()
    });
    // … and what the network pays on the next access to a link left
    // idle meanwhile: a pointer jump when pristine, at most one
    // window (256 slots here) of steps otherwise.
    bench_report("lsf/advance_to_1024", 200, || {
        let mut s = LinkScheduler::new(params, &reservations);
        s.advance_to(1024);
        s.current_slot()
    });
    bench_report("lsf/advance_to_1024_used", 200, || {
        let mut s = used();
        s.advance_to(1024);
        s.current_slot()
    });
}

/// Times 1000 cycles of `scenario` on a freshly built network: the
/// engine's generate → enqueue → step loop without its bookkeeping.
fn step_1k<N: Network>(name: &str, scenario: &Scenario, build: impl Fn() -> N) {
    bench_report(name, 20, || {
        let mut net = build();
        let mut traffic = scenario.workload(1);
        let mut fresh = Vec::new();
        let mut out = Vec::new();
        for cycle in 0..1_000 {
            fresh.clear();
            traffic.generate(cycle, &mut fresh);
            for p in fresh.drain(..) {
                net.enqueue(p);
            }
            net.step(&mut out);
        }
        out.len()
    });
}

fn network_step() {
    let s = Scenario::uniform(0.3);
    let cfg = LoftConfig::default();
    let r = s.reservations(cfg.frame_size).expect("fits");
    step_1k("network_step/loft_64node_1k_cycles_uniform_0.3", &s, || {
        LoftNetwork::new(cfg, &r)
    });
    // The blocked fabric: a saturated tree where most routers hold
    // flits that cannot move.
    let s = Scenario::hotspot(0.6);
    let cfg = GsfConfig::default();
    let r = s.reservations(cfg.frame_size).expect("fits");
    step_1k("network_step/gsf_64node_1k_cycles_hotspot_0.6", &s, || {
        GsfNetwork::new(cfg, &r)
    });
    step_1k(
        "network_step/wormhole_64node_1k_cycles_hotspot_0.6",
        &s,
        || WormholeNetwork::new(WormholeConfig::default()),
    );
}

fn routing() {
    let topo = Topology::mesh(8, 8);
    bench_report("routing_all_pairs_xy", 100, || {
        let mut hops = 0usize;
        for a in 0..64u32 {
            for d in 0..64u32 {
                if a != d {
                    hops += topo.port_path(NodeId::new(a), NodeId::new(d)).len();
                }
            }
        }
        hops
    });
}

fn main() {
    lsf_schedule();
    network_step();
    routing();
}
