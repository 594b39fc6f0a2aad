//! The binary's failure paths: named errors, nonzero exits, no result line.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn unknown_workload_is_a_named_error_with_nonzero_exit() {
    let out = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed a result on bad input");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown workload 'nope'"), "{err}");
    assert!(err.contains("decode-heavy, prefill-heavy"), "{err}");
}

#[test]
fn missing_arguments_exit_nonzero() {
    let out = run(&["--workload", "prefill-heavy"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
