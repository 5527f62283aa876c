//! Command-line contract of the `figures` binary.

use std::process::Command;

#[test]
fn an_unknown_target_exits_2_without_writing_a_log() {
    let dir = std::env::temp_dir().join(format!("figures-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "40", "runtme"])
        .current_dir(&dir)
        .output()
        .expect("figures starts");
    let log_written = dir.join("target/figures/runtme.log").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: figures"));
    assert!(out.stdout.is_empty());
    assert!(!log_written, "an unknown target must not create a run log");
}
