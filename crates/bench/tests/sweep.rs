//! The `sweep` binary end to end: a profiled smoke run prints every
//! leg with the phase split of its network's cycle, and bad command
//! lines are errors with exit status 2, not panics or silent defaults.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("sweep runs")
}

#[test]
fn every_profiled_smoke_row_carries_the_phase_split() {
    let out = sweep(&["--smoke", "--profile"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sweep --smoke --profile: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 rows");
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 9, "one row per group");
    for row in rows {
        let phase = if row.contains("\"net\":\"loft\"") {
            "\"la_schedule\":"
        } else {
            "\"switch_traverse\":"
        };
        for field in ["\"phase_ns_per_cycle\":{", "\"phase_share\":{", phase] {
            assert!(row.contains(field), "{field} missing from {row}");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_panicking() {
    for args in [
        &["--jobs", "abc"][..],
        &["--nope"],
        &["--min-cps", "loft"],
        &["--alloc-budget", "2.5", "--jobs", "2"],
    ] {
        let out = sweep(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "sweep {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "sweep {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "sweep {args:?} printed before failing"
        );
    }
}
