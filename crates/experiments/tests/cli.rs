//! Command-line edge cases: the `experiments` binary must answer a
//! malformed command line with its usage text on stderr and exit code 64
//! (`EX_USAGE`), a stdout reader that stops early with a quiet exit 0,
//! never a panic backtrace, and a closed stderr by carrying on.

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

/// Runs the binary with stdout on a pipe whose read end is closed before
/// the child starts, so its first write fails with a broken pipe, as under
/// `experiments … | head -1` once `head` has exited.
fn assert_quiet_on_closed_stdout(args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env_remove("SIM_STORE")
        .env_remove("SIM_IO_CHAOS")
        .env_remove("RUST_BACKTRACE")
        .stdout(writer)
        .output()
        .expect("run the experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: a closed stdout must exit 0, stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
        "{args:?}: a closed stdout must end the run quietly:\n{stderr}"
    );
}

#[test]
fn closed_stdout_exits_0_quietly() {
    assert_quiet_on_closed_stdout(&["list"]);
    assert_quiet_on_closed_stdout(&["cell", "sysmark-chrome.t1", "baseline", "--len", "2000"]);
    assert_quiet_on_closed_stdout(&["fig9a", "--quick", "--subset", "2"]);
}

/// Runs the binary with stderr on a pipe whose read end is closed before
/// the child starts, so every progress line (`[fig9a took …]`) fails with
/// a broken pipe. Stderr is diagnostics only: the run must finish and
/// print its figure.
#[test]
fn closed_stderr_still_runs_to_the_end() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig9a", "--quick", "--subset", "2"])
        .env_remove("SIM_STORE")
        .env_remove("SIM_IO_CHAOS")
        .env_remove("RUST_BACKTRACE")
        .stderr(writer)
        .output()
        .expect("run the experiments binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a closed stderr must not fail the run, stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("================ fig9a") && stdout.contains("AVG"),
        "the figure must still be printed:\n{stdout}"
    );
}
