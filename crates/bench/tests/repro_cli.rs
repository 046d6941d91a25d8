//! `repro` rejects a bad invocation with its usage, before any run.

use std::process::Command;

#[test]
fn bad_invocations_print_usage_and_exit_2_without_running() {
    for argv in [
        &["fig9"][..],
        &["fig1", "--bogus"],
        &[],
        &["fig1", "fig9"],
        // A small world needs more than six nodes.
        &["fig1", "--nodes", "6"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(argv)
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} started a run");
    }
}
