//! `perf --profile` end to end: the binary exits 0 and every row it
//! prints carries the per-phase split of its network's cycle.

use std::process::Command;

#[test]
fn every_profiled_row_carries_the_phase_split() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--smoke", "--profile"])
        .output()
        .expect("perf runs");
    assert!(out.status.success(), "perf --smoke --profile failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 rows");
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 6, "3 networks x 2 smoke points");
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
