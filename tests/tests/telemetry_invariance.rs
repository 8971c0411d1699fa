//! Telemetry shard invariance: the [`TelemetryReport`] must be
//! identical — exact floating point, not approximate — at 1, 2, and 4
//! shards, for every network × {mesh, torus, line}.
//!
//! This is the telemetry counterpart of `shard_invariance.rs`: every
//! network records every event into its one probe from serial phases
//! (LOFT's one sharded phase records nothing, and the VC networks
//! ignore the shard count), so every counter, occupancy accumulator,
//! and per-flow series must land bit-identically regardless of the
//! shard count. `TelemetryReport` derives `PartialEq` over all of it
//! (including the Welford accumulators, whose low bits pin the exact
//! event order).

use integration::{live, outcome, topologies, Small};
use loft::LoftConfig;
use loft_bench::NetSpec;
use noc_gsf::GsfConfig;
use noc_sim::telemetry::TelemetryReport;
use noc_sim::{RunConfig, Topology};
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

fn run() -> RunConfig {
    RunConfig {
        warmup: 100,
        measure: 1_000,
        drain: 1_000,
    }
}

fn telemetry<C: NetSpec>(scenario: &Scenario, cfg: C) -> TelemetryReport {
    outcome::<C>(live(scenario, cfg, run()).run_full(|| {})).1
}

fn telemetry_at<C: Small>(topo: Topology, threads: usize) -> TelemetryReport {
    telemetry(&Scenario::uniform_on(topo, 0.30), C::small(topo, threads))
}

fn check_invariant<C: Small>() {
    for topo in topologies() {
        let base = telemetry_at::<C>(topo, 1);
        assert!(
            base.link_flits.iter().sum::<u64>() > 0,
            "{}: baseline run moved nothing — test is vacuous",
            C::NAME
        );
        assert!(
            base.latency_histogram.count() > 0,
            "{}: baseline run delivered nothing — test is vacuous",
            C::NAME
        );
        for threads in [2, 4] {
            assert_eq!(
                telemetry_at::<C>(topo, threads),
                base,
                "{}: telemetry at {threads} shards diverged from 1 shard",
                C::NAME
            );
        }
    }
}

#[test]
fn wormhole_telemetry_invariant_under_sharding() {
    check_invariant::<WormholeConfig>();
}

#[test]
fn gsf_telemetry_invariant_under_sharding() {
    check_invariant::<GsfConfig>();
}

#[test]
fn loft_telemetry_invariant_under_sharding() {
    check_invariant::<LoftConfig>();
}

/// Runs `cfg` on the 4×4 mesh at uniform 0.60 at 1, 2 and 4 shards:
/// the whole report must match, and the 1-shard run must record NIC
/// stalls. Returns that run's report.
fn check_stalls_invariant<C: NetSpec>(cfg: impl Fn(Topology, usize) -> C) -> TelemetryReport {
    let topo = Topology::mesh(4, 4);
    let scenario = Scenario::uniform_on(topo, 0.60);
    let base = telemetry(&scenario, cfg(topo, 1));
    assert!(
        base.nic_stalls.iter().sum::<u64>() > 0,
        "{}: no NIC stalled — test is vacuous",
        C::NAME
    );
    for threads in [2, 4] {
        assert_eq!(
            telemetry(&scenario, cfg(topo, threads)),
            base,
            "{}: stall telemetry at {threads} shards diverged from 1 shard",
            C::NAME
        );
    }
    base
}

/// LOFT's NIC stalls, which no cell above reaches: a 64-deep
/// look-ahead window stages quanta faster than the local input ports
/// drain, so the NICs stall on a full port.
#[test]
fn loft_nic_stalls_invariant_under_sharding() {
    check_stalls_invariant(|topo, threads| LoftConfig {
        la_flow_window: 64,
        ..<LoftConfig as Small>::small(topo, threads)
    });
}

/// The VC fabric's NIC and link stalls, which no cell above reaches:
/// two 2-flit VCs per port with a 4-cycle credit return leave GSF's
/// NICs and output links waiting for credit.
#[test]
fn gsf_stalls_invariant_under_sharding() {
    let base = check_stalls_invariant(|topo, threads| GsfConfig {
        num_vcs: 2,
        vc_capacity: 2,
        credit_delay: 4,
        ..<GsfConfig as Small>::small(topo, threads)
    });
    assert!(
        base.link_stalls.iter().sum::<u64>() > 0,
        "gsf: no link stalled — test is vacuous"
    );
}

/// Plain wormhole with one VC per port, a regime no other cell
/// reaches: a blocked worm holds its link's only VC, so every packet
/// routed behind it stalls at the NIC or on the link.
#[test]
fn wormhole_single_vc_stalls_invariant_under_sharding() {
    let base = check_stalls_invariant(|topo, threads| WormholeConfig {
        num_vcs: 1,
        vc_capacity: 2,
        credit_delay: 4,
        ..<WormholeConfig as Small>::small(topo, threads)
    });
    assert!(
        base.link_stalls.iter().sum::<u64>() > 0,
        "wormhole: no link stalled — test is vacuous"
    );
}

/// The JSON export is a pure function of the report, so it is also
/// shard-invariant — and stays parseable (sanity-check the envelope).
#[test]
fn telemetry_json_invariant_under_sharding() {
    let topo = Topology::mesh(4, 4);
    let base = telemetry_at::<LoftConfig>(topo, 1).to_json();
    assert!(base.starts_with("{\"telemetry_version\":"));
    assert!(base.ends_with("]}"));
    assert_eq!(base, telemetry_at::<LoftConfig>(topo, 4).to_json());
}
