//! The ignored `threads` fields: `LoftConfig`, `GsfConfig` and
//! `WormholeConfig` still carry one, accepted and ignored because
//! every simulation steps on one thread. `benchmark/` builds its
//! configs through them, and its `par.shard2_speedup` probe fails if
//! `threads: 2` changes a report. These tests pin that no value of
//! the field changes anything a run produces; they go with the fields
//! (ROADMAP item 5(c)).
//!
//! Each check compares the full report, the full telemetry and the run
//! bookkeeping with the default of `threads: 1`. The Welford latency
//! mean is order-sensitive in its low bits, so equality pins the exact
//! delivery order, not just the totals.

use integration::{live, outcome, topologies, Small};
use loft::LoftConfig;
use noc_gsf::GsfConfig;
use noc_sim::{RunConfig, Topology};
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

/// Sets the `threads` field of a config.
type WithThreads<C> = fn(C, usize) -> C;

const WORMHOLE: WithThreads<WormholeConfig> = |cfg, threads| WormholeConfig { threads, ..cfg };
const GSF: WithThreads<GsfConfig> = |cfg, threads| GsfConfig { threads, ..cfg };
const LOFT: WithThreads<LoftConfig> = |cfg, threads| LoftConfig { threads, ..cfg };

/// Runs uniform 0.30 on `topo` at `threads: 1` and at each of
/// `values`, and requires identical outcomes.
fn check_ignored<C: Small>(with_threads: WithThreads<C>, topo: Topology, values: &[usize]) {
    let scenario = Scenario::uniform_on(topo, 0.30);
    let run = RunConfig {
        warmup: 100,
        measure: 1_000,
        drain: 1_000,
    };
    let at = |threads| {
        let cfg = with_threads(C::small(topo), threads);
        outcome::<C>(live(&scenario, cfg, run).run_full(|| {}))
    };
    let base = at(1);
    assert!(
        base.0.flits_delivered > 0,
        "{}: baseline run delivered nothing — test is vacuous",
        C::NAME
    );
    for &threads in values {
        assert_eq!(
            at(threads),
            base,
            "{} on {topo:?}: outcome at threads = {threads} differs from threads = 1",
            C::NAME
        );
    }
}

#[test]
fn wormhole_ignores_its_threads_field() {
    for topo in topologies() {
        check_ignored(WORMHOLE, topo, &[2, 4]);
    }
}

#[test]
fn gsf_ignores_its_threads_field() {
    for topo in topologies() {
        check_ignored(GSF, topo, &[2, 4]);
    }
}

#[test]
fn loft_ignores_its_threads_field() {
    for topo in topologies() {
        check_ignored(LOFT, topo, &[2, 4]);
    }
}

/// Randomized stress over the field's whole accepted range: 0 and
/// counts past the node count validate like any other, and change no
/// network's outcome. xorshift64 keeps the test deterministic and
/// dependency-free.
#[test]
fn any_threads_value_validates_and_changes_no_report() {
    let mut state = 0x5EED_CAFE_F00Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // 0, then five draws from 0..=24: odd counts, non-divisors of 16,
    // and counts past the node count.
    let values: Vec<usize> = std::iter::once(0)
        .chain((0..5).map(|_| (rng() % 25) as usize))
        .collect();
    let topo = Topology::mesh(4, 4);
    check_ignored(WORMHOLE, topo, &values);
    check_ignored(GSF, topo, &values);
    check_ignored(LOFT, topo, &values);
}
