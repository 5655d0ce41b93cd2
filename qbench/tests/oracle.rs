//! The oracle has teeth: a bug planted in the served market makes
//! `qbench` exit non-zero, and the same run without it exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qbench(case: &str, plant: Option<&str>) -> Output {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("qbench-oracle-{case}"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qbench"));
    cmd.args([
        "--workload",
        "durable_buys",
        "--seed",
        "3",
        "--seconds",
        "1",
    ])
    .args(["--trace", "0", "--scale", "smoke"])
    .arg("--out")
    .arg(&out);
    if let Some(p) = plant {
        cmd.args(["--plant", p]);
    }
    cmd.output().expect("qbench starts")
}

fn last_line(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn a_clean_run_passes() {
    let o = qbench("clean", None);
    assert_eq!(
        o.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(last_line(&o).starts_with("{\"correct\":true,"));
}

#[test]
fn a_purchase_answered_one_cent_high_fails_the_run() {
    let o = qbench("cent", Some("off-by-one-cent"));
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(1), "{stderr}");
    assert!(last_line(&o).starts_with("{\"correct\":false,"));
    assert!(stderr.contains("cold price is"), "{stderr}");
}

#[test]
fn a_purchase_acknowledged_but_not_logged_fails_the_run() {
    let o = qbench("ack", Some("dropped-ack"));
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(1), "{stderr}");
    assert!(last_line(&o).starts_with("{\"correct\":false,"));
    assert!(stderr.contains("survived a cold reopen"), "{stderr}");
}
