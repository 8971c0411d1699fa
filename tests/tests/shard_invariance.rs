//! Shard-count invariance: sharded parallel stepping must be
//! bit-for-bit identical to the single-threaded engine.
//!
//! For every network × {mesh, torus, line}, the full [`SimReport`]
//! (per-flow stats, Welford latency accumulators, histogram — all of
//! it) must be identical at 1, 2, and 4 shards; a randomized
//! shard-count stress run extends that over arbitrary counts,
//! including degenerate ones (more shards than nodes). The Welford
//! latency mean is order-sensitive in its low bits, so `SimReport`
//! equality pins the exact delivery order, not just the totals.

use integration::{topologies, Small};
use loft::LoftConfig;
use loft_bench::SEED;
use noc_gsf::GsfConfig;
use noc_sim::{RunConfig, SimReport, Topology};
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

fn run() -> RunConfig {
    RunConfig {
        warmup: 100,
        measure: 1_000,
        drain: 1_000,
    }
}

fn report_at<C: Small>(topo: Topology, threads: usize) -> SimReport {
    let scenario = Scenario::uniform_on(topo, 0.30);
    loft_bench::run(&scenario, C::small(topo, threads), run(), SEED).expect("fits")
}

fn check_invariant<C: Small>() {
    for topo in topologies() {
        let base = report_at::<C>(topo, 1);
        assert!(
            base.flits_delivered > 0,
            "{}: baseline run delivered nothing — test is vacuous",
            C::NAME
        );
        for threads in [2, 4] {
            assert_eq!(
                report_at::<C>(topo, threads),
                base,
                "{}: report at {threads} shards diverged from 1 shard",
                C::NAME
            );
        }
    }
}

#[test]
fn wormhole_reports_invariant_under_sharding() {
    check_invariant::<WormholeConfig>();
}

#[test]
fn gsf_reports_invariant_under_sharding() {
    check_invariant::<GsfConfig>();
}

#[test]
fn loft_reports_invariant_under_sharding() {
    check_invariant::<LoftConfig>();
}

/// Randomized stress: arbitrary shard counts (including more shards
/// than nodes, where the partition clamps) on a small mesh must all
/// reproduce the single-shard report. xorshift64 keeps the test
/// deterministic and dependency-free.
#[test]
fn randomized_shard_counts_match_single_shard() {
    let mut state = 0x5EED_CAFE_F00Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let topo = Topology::mesh(4, 4);
    let worm_base = report_at::<WormholeConfig>(topo, 1);
    let gsf_base = report_at::<GsfConfig>(topo, 1);
    let loft_base = report_at::<LoftConfig>(topo, 1);
    for _ in 0..6 {
        // 2..=24: covers odd counts, non-divisors of 16, and counts
        // past the node count.
        let threads = 2 + (rng() % 23) as usize;
        assert_eq!(
            report_at::<WormholeConfig>(topo, threads),
            worm_base,
            "wormhole diverged at {threads} shards"
        );
        assert_eq!(
            report_at::<GsfConfig>(topo, threads),
            gsf_base,
            "gsf diverged at {threads} shards"
        );
        assert_eq!(
            report_at::<LoftConfig>(topo, threads),
            loft_base,
            "loft diverged at {threads} shards"
        );
    }
}
