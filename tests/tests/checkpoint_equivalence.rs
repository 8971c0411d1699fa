//! Checkpoint/fork equivalence: freezing a simulation at the warmup
//! boundary and forking it must be invisible in every observable —
//! a forked resume must reproduce a from-scratch run bit-for-bit in
//! the full [`SimReport`] (per-flow stats, Welford accumulators,
//! histogram), the full [`TelemetryReport`], and the drain's exact
//! termination cycle, for every network × {mesh, torus, line}.
//!
//! Two properties per cell, both against from-scratch oracles:
//!
//! 1. `checkpoint → fork → resume` equals a straight run with the
//!    same [`RunConfig`] (the sweep runner's warmup-sharing path);
//! 2. `checkpoint → fork → with_measure(2k) → resume` equals a
//!    straight run with the doubled horizon (the adaptive-saturation
//!    path: one warmup serves every horizon extension).
//!
//! Both forks come from the *same* checkpoint, so the suite also
//! certifies that forking is non-destructive — a checkpoint can be
//! forked any number of times and each fork starts from the identical
//! frozen state.

use integration::{live, outcome, topologies, Small};
use loft::LoftConfig;
use noc_gsf::GsfConfig;
use noc_sim::RunConfig;
use noc_traffic::Scenario;
use noc_wormhole::WormholeConfig;

fn run() -> RunConfig {
    RunConfig {
        warmup: 150,
        measure: 600,
        drain: 600,
    }
}

/// Runs the property matrix for one network: every cell warms up
/// once, freezes, and compares two forks of that checkpoint against
/// from-scratch oracles with the same settings. Moderate load, so
/// every cell delivers traffic in the measurement window.
fn check_net<C: Small>() {
    for topo in topologies() {
        let scenario = Scenario::uniform_on(topo, 0.10);
        let ctx = format!("{}/{topo:?}", C::NAME);
        let scratch = |rc| {
            let sim = live(&scenario, C::small(topo), rc);
            outcome::<C>(sim.run_full(|| {}))
        };
        let ckpt = live(&scenario, C::small(topo), run()).run_to_checkpoint();
        let fork_run = |measure| outcome::<C>(ckpt.fork().with_measure(measure).resume());

        let (base_report, base_telemetry, base_info) = scratch(run());
        assert!(
            base_report.flits_delivered > 0,
            "{ctx}: oracle run delivered nothing — test is vacuous"
        );
        let (report, telemetry, info) = fork_run(run().measure);
        assert_eq!(report, base_report, "{ctx}: forked SimReport diverged");
        assert_eq!(
            telemetry, base_telemetry,
            "{ctx}: forked TelemetryReport diverged"
        );
        assert_eq!(
            info.end_cycle, base_info.end_cycle,
            "{ctx}: forked drain ended at a different cycle"
        );

        // Horizon extension: the same checkpoint, forked again
        // with a doubled measurement window, must equal a
        // from-scratch run at the doubled horizon.
        let doubled = RunConfig {
            measure: run().measure * 2,
            ..run()
        };
        let (long_report, long_telemetry, long_info) = scratch(doubled);
        let (report, telemetry, info) = fork_run(doubled.measure);
        assert_eq!(
            report, long_report,
            "{ctx}: doubled-horizon fork SimReport diverged"
        );
        assert_eq!(
            telemetry, long_telemetry,
            "{ctx}: doubled-horizon fork TelemetryReport diverged"
        );
        assert_eq!(
            info.end_cycle, long_info.end_cycle,
            "{ctx}: doubled-horizon fork ended at a different cycle"
        );
    }
}

#[test]
fn loft_forked_runs_match_scratch_runs() {
    check_net::<LoftConfig>();
}

#[test]
fn gsf_forked_runs_match_scratch_runs() {
    check_net::<GsfConfig>();
}

#[test]
fn wormhole_forked_runs_match_scratch_runs() {
    check_net::<WormholeConfig>();
}
