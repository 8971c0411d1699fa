//! `Scenario::reservations`: weights scale to the most loaded link,
//! every link's reservations must fit the frame, and malformed flows
//! are errors.

use std::collections::HashMap;

use noc_sim::flit::NodeId;
use noc_sim::rng::Xoshiro256;
use noc_sim::topology::Topology;
use noc_traffic::scenario::ScenarioFlow;
use noc_traffic::{Alloc, DestRule, Scenario};

/// A scenario of fixed-destination flows `(src, dst, weight)` on the
/// 8×8 mesh.
fn mesh8(flows: &[(u32, u32, f64)]) -> Scenario {
    let mut s = Scenario::hotspot(0.01);
    let flow = |&(src, dst, weight): &(u32, u32, f64)| ScenarioFlow {
        src: NodeId::new(src),
        dest: DestRule::Fixed(NodeId::new(dst)),
        alloc: Alloc::Weight(weight),
        ..s.flows[0].clone()
    };
    s.flows = flows.iter().map(flow).collect();
    s
}

/// Two flows share node 63's ejection port with weights 3:1.
#[test]
fn weights_split_a_shared_ejection_port() {
    let s = mesh8(&[(0, 63, 3.0), (56, 63, 1.0)]);
    assert_eq!(s.reservations(128).unwrap(), vec![96, 32]);
}

#[test]
fn a_weight_too_small_for_the_frame_is_a_zero_reservation_error() {
    let s = mesh8(&[(0, 63, 1.0), (56, 63, 1e-9)]);
    let err = s.reservations(128).unwrap_err();
    assert!(err.message().contains("zero"), "{err}");
}

/// 0 → 1 leaves East and 0 → 8 leaves South: only node 0's injection
/// link carries both.
#[test]
fn flows_sharing_only_an_injection_link_split_it_by_load() {
    let s = mesh8(&[(0, 1, 1.0), (0, 8, 3.0)]);
    assert_eq!(s.reservations(128).unwrap(), vec![32, 96]);
}

/// 0 → 2 and 1 → 10 meet only on node 1's East output: 3 weight units
/// fill it, 128 / 3 slots each.
#[test]
fn flows_sharing_only_a_router_link_split_it_by_load() {
    let s = mesh8(&[(0, 2, 1.0), (1, 10, 2.0)]);
    assert_eq!(s.reservations(128).unwrap(), vec![42, 85]);
}

/// What a fixed-destination flow cannot be: addressed to its own
/// source, or weighted by anything but a positive finite number. With
/// explicit shares no weight is left, so only the self-addressed flow
/// stays an error. A share among weights is an error too, not a flow
/// silently sized by weight.
#[test]
fn malformed_flows_are_errors() {
    for (dst, weight) in [
        (5, 1.0),
        (6, f64::NAN),
        (6, 0.0),
        (6, -1.0),
        (6, f64::INFINITY),
    ] {
        let mut s = mesh8(&[(0, 63, 1.0), (5, dst, weight)]);
        let err = s.reservations(128).unwrap_err();
        assert!(err.message().contains("distinct nodes"), "{err}");
        s.flows
            .iter_mut()
            .for_each(|f| f.alloc = Alloc::Share(0.25));
        assert_eq!(s.reservations(128).is_err(), dst == 5, "{weight}");
    }
    let mut s = mesh8(&[(0, 63, 1.0), (56, 63, 1.0)]);
    s.flows[1].alloc = Alloc::Share(0.25);
    let err = s.reservations(128).unwrap_err();
    assert!(err.message().contains("like flow f0"), "{err}");
}

/// Random destinations may load every router output port, so their
/// shares are checked there too: 64 halves of a frame do not fit node
/// 0's East output.
#[test]
fn uniform_shares_that_oversubscribe_a_router_port_are_errors() {
    let mut s = Scenario::uniform(0.1);
    s.flows.iter_mut().for_each(|f| f.alloc = Alloc::Share(0.5));
    let err = s.reservations(256).unwrap_err();
    assert!(
        err.message().contains("n0 output E oversubscribed"),
        "{err}"
    );
    s.flows
        .iter_mut()
        .for_each(|f| f.alloc = Alloc::Share(1.0 / 64.0));
    assert_eq!(s.reservations(256).unwrap(), vec![4; 64]);
}

/// `r` run-length encoded: `4x3 5` is `[4, 4, 4, 5]`.
fn runs(r: &[u32]) -> String {
    let mut out = Vec::new();
    for chunk in r.chunk_by(|a, b| a == b) {
        out.push(match chunk.len() {
            1 => chunk[0].to_string(),
            n => format!("{}x{n}", chunk[0]),
        });
    }
    out.join(" ")
}

/// The reservations of every built-in scenario at LOFT's frame of 256
/// slots and GSF's of 2 000. Uniform flows load every router output
/// port, so one weight formula sizes them and fixed-destination flows
/// alike; on the odd 3×3 mesh too.
#[test]
fn built_in_scenarios_keep_their_reservations() {
    let pins = [
        (Scenario::uniform(0.1), "4x64", "31x64"),
        (
            Scenario::uniform_on(Topology::torus(8, 8), 0.1),
            "4x64",
            "31x64",
        ),
        (
            Scenario::uniform_on(Topology::mesh(16, 1), 0.1),
            "16x16",
            "125x16",
        ),
        (
            Scenario::uniform_on(Topology::mesh(3, 3), 0.1),
            "28x9",
            "222x9",
        ),
        (Scenario::hotspot(0.05), "4x63", "31x63"),
        (
            Scenario::hotspot_differentiated4(0.05),
            "5x4 4x4 5x4 4x4 5x4 4x4 5x4 4x8 2x4 4x4 2x4 4x4 2x4 4x4 2x3",
            "43x4 32x4 43x4 32x4 43x4 32x4 43x4 32x8 16x4 32x4 16x4 32x4 16x4 32x4 16x3",
        ),
        (
            Scenario::hotspot_differentiated2(0.05),
            "6x32 2x31",
            "47x32 15x31",
        ),
        (Scenario::case_study_1(0.5), "64x3", "500x3"),
        (Scenario::case_study_2(0.1), "28x9", "222x9"),
        (Scenario::bursty_hotspot(0.5, 20.0, 100.0), "4x63", "31x63"),
        (Scenario::bursty_low_duty(0.6), "256x4", "2000x4"),
        (Scenario::regulated(0.1), "256x8", "2000x8"),
        (Scenario::transpose(0.1), "36x56", "285x56"),
        (Scenario::bit_complement(0.1), "64x64", "500x64"),
        (Scenario::nearest_neighbor(0.1), "256x64", "2000x64"),
    ];
    for (s, loft, gsf) in pins {
        for (frame, want) in [(256, loft), (2_000, gsf)] {
            let got = s.reservations(frame).map(|r| runs(&r));
            assert_eq!(got.as_deref(), Ok(want), "{} at {frame}", s.name);
        }
    }
}

#[test]
fn a_scenario_without_flows_is_an_error() {
    let s = mesh8(&[]);
    assert!(s.reservations(128).is_err());
}

/// A frame of no slots leaves every flow with zero, whatever decides
/// its reservation.
#[test]
fn zero_capacity_is_an_error() {
    let shares = Scenario::case_study_1(0.5);
    for s in [mesh8(&[(0, 63, 1.0)]), shares, Scenario::uniform(0.1)] {
        assert!(s.reservations(0).is_err(), "{}", s.name);
        assert!(s.reservations(256).is_ok(), "{}", s.name);
    }
}

/// Weight-scaled reservations of random flow sets on meshes and tori
/// never oversubscribe a link, and every flow gets a positive share.
#[test]
fn reservations_feasible() {
    let mut rng = Xoshiro256::seed_from(0x5EED_0004);
    for case in 0..256 {
        let topo = [Topology::mesh(8, 8), Topology::torus(8, 8)][case % 2];
        let flows: Vec<_> = (0..1 + rng.next_below(19))
            .map(|_| {
                let (a, b) = (rng.next_below(64) as u32, rng.next_below(64) as u32);
                (a, b, (1 + rng.next_below(19)) as f64)
            })
            .filter(|&(a, b, _)| a != b)
            .collect();
        if flows.is_empty() {
            continue;
        }
        let s = Scenario {
            topo,
            ..mesh8(&flows)
        };
        let capacity = 64 + rng.next_below(4032) as u32;
        let r = match s.reservations(capacity) {
            Ok(r) => r,
            // Only legitimate failure: a weight too small for the
            // frame granularity.
            Err(e) => {
                assert!(e.message().contains("zero"), "{e}");
                continue;
            }
        };
        assert!(r.iter().all(|&x| x > 0));
        // Per-link sums from this test's own walk of every path: the
        // injection link (`None`), then each router output port.
        let mut sums = HashMap::new();
        for (&(a, b, _), &slots) in flows.iter().zip(&r) {
            let (src, dst) = (NodeId::new(a), NodeId::new(b));
            *sums.entry((src, None)).or_insert(0) += slots;
            for (node, dir) in s.topo.port_path(src, dst) {
                *sums.entry((node, Some(dir))).or_insert(0) += slots;
            }
        }
        let fits = sums.values().all(|&sum| sum <= capacity);
        assert!(fits, "{flows:?} at {capacity}");
    }
}
