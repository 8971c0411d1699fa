//! The `paper` binary end to end: the artifacts that need no
//! simulation reproduce their sections of the committed
//! `results/paper.txt` byte for byte, and bad command lines are
//! errors with exit status 2, not panics.

use std::process::{Command, Output};

const COMMITTED: &str = include_str!("../../../results/paper.txt");

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("paper runs")
}

/// The text between `# paper <artifact>` and the next section header.
fn section(artifact: &str) -> &'static str {
    let header = format!("# paper {artifact}\n");
    let start = COMMITTED.find(&header).expect("section present") + header.len();
    let len = COMMITTED[start..]
        .find("# paper ")
        .unwrap_or(COMMITTED.len() - start);
    &COMMITTED[start..start + len]
}

/// Pins the Table 1 defaults, the Table 2 storage model and all three
/// networks' Figure 6 makespans at a cost of milliseconds.
#[test]
fn analytic_artifacts_match_the_committed_output() {
    for artifact in ["table1", "table2", "fig6"] {
        let out = paper(&[artifact]);
        assert!(out.status.success(), "paper {artifact} failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        assert_eq!(stdout, section(artifact), "paper {artifact} drifted");
    }
}

#[test]
fn bad_arguments_exit_2_without_panicking() {
    for args in [
        &["nope"][..],
        &["fig10", "equl"],
        &["fig11", "sideways"],
        &["utilization", "case2", "abc"],
        &["utilization", "mesh"],
        &["utilization", "uniform", "-0.5"],
        &["utilization", "uniform", "NaN"],
        &["utilization", "uniform", "inf"],
    ] {
        let out = paper(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "paper {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "paper {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "paper {args:?} printed before failing"
        );
    }
}

#[test]
fn utilization_rate_error_names_the_accepted_range() {
    for rate in ["0", "-0.5", "NaN", "inf", "1.5"] {
        let out = paper(&["utilization", "uniform", rate]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rate {rate}: {stderr}");
        assert!(
            stderr.contains(&format!("bad rate {rate:?}")) && stderr.contains("(0, 1]"),
            "rate {rate}: {stderr}"
        );
    }
}
