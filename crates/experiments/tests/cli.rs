//! Command-line usage errors: the `experiments` binary must answer a
//! malformed command line with its usage text on stderr and exit code 64
//! (`EX_USAGE`), never a panic backtrace.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env_remove("SIM_STORE")
        .env_remove("SIM_IO_CHAOS")
        .env_remove("RUST_BACKTRACE")
        .output()
        .expect("run the experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(64),
        "{args:?}: expected exit 64, stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?}: usage text missing from stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: usage error must not panic:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: nothing belongs on stdout");
}

#[test]
fn help_prints_usage_and_exits_64() {
    assert_usage_error(&["--help"]);
}

#[test]
fn unknown_figure_id_exits_64() {
    assert_usage_error(&["nope"]);
    // Validated before any figure runs, even behind a valid id.
    assert_usage_error(&["fig11", "nope", "--quick"]);
    // `client` is not a subcommand, so it is an unknown figure id.
    assert_usage_error(&["client", "127.0.0.1:1", "ping"]);
}

#[test]
fn unknown_option_exits_64() {
    assert_usage_error(&["fig11", "--bogus"]);
    // `--ckpt-interval` is not an option of this binary, whatever its value.
    assert_usage_error(&["fig11", "--ckpt-interval", "4096"]);
    // Nor is `--chaos`: the one seeded fault planner is `--io-chaos`.
    assert_usage_error(&["fig11", "--chaos", "42"]);
}

#[test]
fn missing_or_malformed_flag_values_exit_64() {
    assert_usage_error(&["--store-dir"]);
    assert_usage_error(&["fig11", "--io-chaos", "oops"]);
    assert_usage_error(&["cell", "x", "baseline", "--len"]);
    assert_usage_error(&["cell", "x", "baseline", "--depth-scale", "deep"]);
    // A cell runs one workload or an SMT2 pair, never three threads.
    let three = "sysmark-chrome.t1+sysmark-chrome.t1+sysmark-chrome.t1";
    assert_usage_error(&["cell", three, "baseline", "--len", "3000"]);
    // The window scale must be finite and in (0, 16].
    for scale in ["inf", "NaN", "0", "-1", "1e9"] {
        assert_usage_error(&["cell", "x", "baseline", "--depth-scale", scale]);
    }
}
