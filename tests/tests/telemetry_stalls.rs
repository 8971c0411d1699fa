//! Telemetry stall counters: the probe hooks that record a NIC or a
//! link waiting for buffer space. The suites' other cells never
//! stall, so each network gets one configuration here that does, on
//! the 4×4 mesh at uniform 0.60, and the test fails if its counters
//! stay at zero.

use integration::{live, outcome, Small};
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

/// Runs `cfg` on the 4×4 mesh at uniform 0.60 and checks that some
/// NIC stalled. Returns the run's telemetry.
fn stalled_telemetry<C: NetSpec>(cfg: impl Fn(Topology) -> C) -> TelemetryReport {
    let topo = Topology::mesh(4, 4);
    let scenario = Scenario::uniform_on(topo, 0.60);
    let report = outcome::<C>(live(&scenario, cfg(topo), run()).run_full(|| {})).1;
    assert!(
        report.nic_stalls.iter().sum::<u64>() > 0,
        "{}: no NIC stalled — test is vacuous",
        C::NAME
    );
    report
}

/// LOFT's NIC stalls: a 64-deep look-ahead window stages quanta
/// faster than the local input ports drain, so the NICs stall on a
/// full port.
#[test]
fn loft_records_nic_stalls() {
    stalled_telemetry(|topo| LoftConfig {
        la_flow_window: 64,
        ..<LoftConfig as Small>::small(topo)
    });
}

/// The VC fabric's NIC and link stalls: two 2-flit VCs per port with
/// a 4-cycle credit return leave GSF's NICs and output links waiting
/// for credit.
#[test]
fn gsf_records_nic_and_link_stalls() {
    let report = stalled_telemetry(|topo| GsfConfig {
        num_vcs: 2,
        vc_capacity: 2,
        credit_delay: 4,
        ..<GsfConfig as Small>::small(topo)
    });
    assert!(
        report.link_stalls.iter().sum::<u64>() > 0,
        "gsf: no link stalled — test is vacuous"
    );
}

/// Plain wormhole with one VC per port: a blocked worm holds its
/// link's only VC, so every packet routed behind it stalls at the NIC
/// or on the link.
#[test]
fn wormhole_single_vc_records_nic_and_link_stalls() {
    let report = stalled_telemetry(|topo| WormholeConfig {
        num_vcs: 1,
        vc_capacity: 2,
        credit_delay: 4,
        ..<WormholeConfig as Small>::small(topo)
    });
    assert!(
        report.link_stalls.iter().sum::<u64>() > 0,
        "wormhole: no link stalled — test is vacuous"
    );
}
