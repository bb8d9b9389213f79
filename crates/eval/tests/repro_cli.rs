//! The `repro` command line: `list` prints the registry, and bad input
//! (arguments or the worker-count variable) exits 2 with a message before
//! any experiment starts.

use aqua_eval::EXPERIMENTS;
use std::process::{Command, Output};

fn repro(env: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .envs(env.iter().copied())
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_rejected(env: &[(&str, &str)], args: &[&str], message: &str) {
    let out = repro(env, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} started an experiment"
    );
    assert!(!stderr.contains(" took "), "repro {args:?} ran: {stderr}");
    assert!(stderr.contains(message), "repro {args:?}: {stderr}");
}

#[test]
fn unknown_size_is_a_usage_error() {
    assert_rejected(&[], &["fig9", "bogus"], "quick|standard|full");
}

#[test]
fn extra_argument_is_a_usage_error() {
    assert_rejected(&[], &["fig9", "quick", "extra"], "quick|standard|full");
}

#[test]
fn unknown_experiment_is_rejected() {
    assert_rejected(&[], &["fig99", "quick"], "unknown experiment \"fig99\"");
}

#[test]
fn malformed_worker_count_is_rejected() {
    for value in ["two", "-1"] {
        assert_rejected(
            &[("AQUA_PAR_THREADS", value)],
            &["fig9", "quick"],
            &format!("AQUA_PAR_THREADS=\"{value}\""),
        );
    }
}

#[test]
fn list_prints_one_line_per_registry_row() {
    let out = repro(&[], &["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), EXPERIMENTS.len());
    for (line, e) in lines.iter().zip(EXPERIMENTS) {
        assert!(line.starts_with(e.name), "{line}");
        assert!(
            line.contains(e.paper_ref) && line.ends_with(e.what),
            "{line}"
        );
    }
}
