//! The figure binaries reject malformed flags with exit status 2 before
//! running any experiment, instead of silently falling back to their
//! defaults.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts")
}

fn assert_usage_error(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(output.stdout.is_empty(), "no experiment may run");
}

#[test]
fn fig2_rejects_an_unknown_energy_setting() {
    let out = run(env!("CARGO_BIN_EXE_fig2"), &["--quick", "--energy", "e9"]);
    assert_usage_error(&out, "e9");
    let out = run(env!("CARGO_BIN_EXE_fig2"), &["--quick", "--energy"]);
    assert_usage_error(&out, "--energy");
}

#[test]
fn figure_binaries_reject_a_csv_dir_without_a_value() {
    for bin in [
        env!("CARGO_BIN_EXE_fig2"),
        env!("CARGO_BIN_EXE_fig3"),
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_budget"),
    ] {
        let out = run(bin, &["--quick", "--csv-dir"]);
        assert_usage_error(&out, "--csv-dir");
    }
}
