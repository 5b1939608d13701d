//! The `experiments` binary: regenerate any table or figure of the paper.
//!
//! ```text
//! experiments -- <figure-id> [<figure-id>...] [--quick] [--subset N]
//! experiments -- all [--quick] [--store-dir <path>] [--io-chaos <seed>]
//! experiments -- cell <workload>[+<workload>] <machine-slug> [--depth-scale X] [--quick|--len N]
//! experiments -- list
//! ```
//!
//! All figures of one invocation share a [`SweepSession`]: programs are
//! assembled once, load-inspector analyses run once, and every repeated
//! (workload, configuration) simulation — the Baseline suite above all —
//! is memoized, so `all` costs the union of distinct runs, not the sum of
//! per-figure suites. Every simulation a figure reports is such a cell:
//! it runs under the watchdog, passes the §8.5 check, and carries all of
//! its counters (the Constable engine's included) in its result.
//!
//! ## Persistent store
//!
//! `--store-dir <path>` (or `SIM_STORE=<path>`) attaches a crash-safe
//! on-disk result store: memoizable cells are answered from disk across
//! processes, keyed by a stable versioned encoding of (workload
//! parameters, full config, run length) — the same key the in-process
//! memo and the quarantine table use — and verified by checksum + stats
//! digest on every hit. Each cell is written the moment it verifies, so a
//! killed sweep loses only the cells in flight and the rerun resumes from
//! the rest. Store damage quarantines (with forensics) and
//! recomputes — it never corrupts a figure. `--io-chaos <seed>` (or
//! `SIM_IO_CHAOS=<seed>`) layers deterministic storage-fault injection
//! (torn writes, bit flips) on top. The store takes no lock: any number
//! of processes may share one directory.
//!
//! ## Fault isolation
//!
//! A failing cell (golden mismatch, cycle-guard overrun, watchdog abort,
//! worker panic) is *quarantined*: the figure that needs it reports the
//! failure, every other figure still runs (`--keep-going`, the default for
//! multi-figure invocations; `--fail-fast` stops at the first quarantined
//! figure), and the binary ends with a quarantine table of per-cell
//! diagnostics bundles. Exit codes: 0 all clean, 2 quarantined cells,
//! 3 at least one watchdog abort, 64 a malformed command line (usage on
//! stderr), 74 stdout could not be written. A reader that stops early
//! (`experiments list | head -2`) is not an error: the first write to the
//! closed pipe ends the process quietly with exit 0, whatever ran before.
//!
//! The `cell` subcommand reruns one (workload, machine) cell in isolation
//! with full forensics — the repro vehicle the quarantine table points at.

use experiments::{try_run_figure, MachineKind, RunLength, SweepSession, FIGURES, WATCHDOG_BUDGET};
use sim_core::{Core, TraceRecorder};

/// Exit code of a malformed command line (BSD `EX_USAGE`), distinct from
/// the sweep's 2/3 quarantine codes.
const EX_USAGE: i32 = 64;

const USAGE: &str = "usage: experiments -- <figure-id>|all [--quick] [--subset N] \
     [--keep-going|--fail-fast] [--store-dir <path>] [--io-chaos <seed>]
       experiments -- cell <workload>[+<workload>] <machine-slug> [--depth-scale X] \
     [--quick|--len N]
       experiments -- list";

const CELL_USAGE: &str = "usage: experiments -- cell <workload>[+<workload>] <machine-slug> \
     [--depth-scale X] [--quick|--len N]
  <workload>: one suite workload, or two joined with `+` for an SMT2 pair
  --depth-scale X: window-size factor, finite and in (0, 16]";

/// Exit code of a failed write to stdout other than a closed pipe (BSD
/// `EX_IOERR`).
const EX_IOERR: i32 = 74;

/// `println!` through the binary's one stdout writer, [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A closed pipe means the reader has all it wants, so
/// the process exits 0 at once, without a panic or a backtrace; any other
/// write error exits [`EX_IOERR`].
fn write_stdout(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(EX_IOERR);
    }
}

/// Largest `--depth-scale` the `cell` subcommand accepts: far above the
/// deepest window any figure sweeps, far below where the scaled window
/// stops fitting in memory.
const MAX_DEPTH_SCALE: f64 = 16.0;

/// Prints `msg` (when non-empty) and `usage` to stderr and exits with
/// [`EX_USAGE`].
fn usage_error(msg: &str, usage: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("{msg}");
    }
    eprintln!("{usage}");
    std::process::exit(EX_USAGE);
}

/// Advances `*i` past flag `args[*i]` and parses the value that follows
/// it; a missing or malformed value is a usage error naming `what` the
/// flag requires.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str, usage: &str) -> T {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i).map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => usage_error(&format!("{flag} requires {what}"), usage),
    }
}

/// Reads an env var holding a u64 seed. A set-but-unparseable value is a
/// hard usage error, not a silently ignored request: `SIM_IO_CHAOS=oops`
/// running *without* storage faults would report a clean sweep the caller
/// believes was fault-injected.
fn env_seed(var: &str) -> Option<u64> {
    let v = std::env::var(var).ok()?;
    let t = v.trim();
    if t.is_empty() {
        return None;
    }
    match t.parse() {
        Ok(seed) => Some(seed),
        Err(_) => usage_error(&format!("{var}={v:?} is not a u64 seed"), USAGE),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("cell") {
        std::process::exit(run_cell(&args[1..]));
    }
    let mut ids: Vec<String> = Vec::new();
    let mut n = RunLength::full();
    let mut subset: Option<usize> = None;
    let mut keep_going: Option<bool> = None;
    let mut store_dir: Option<String> = std::env::var("SIM_STORE").ok().filter(|s| !s.is_empty());
    let mut io_chaos: Option<u64> = env_seed("SIM_IO_CHAOS");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => n = RunLength::quick(),
            "--keep-going" => keep_going = Some(true),
            "--fail-fast" => keep_going = Some(false),
            "--store-dir" => {
                store_dir = Some(flag_value(&args, &mut i, "a directory path", USAGE));
            }
            "--io-chaos" => io_chaos = Some(flag_value(&args, &mut i, "a u64 seed", USAGE)),
            "--subset" => subset = Some(flag_value(&args, &mut i, "a count", USAGE)),
            "list" => {
                for f in FIGURES {
                    outln!("{f}");
                }
                return;
            }
            "-h" | "--help" => usage_error("", USAGE),
            "all" | "--all" => ids.extend(FIGURES.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                usage_error(&format!("unknown option {other:?}"), USAGE)
            }
            other if !FIGURES.contains(&other) => usage_error(
                &format!("unknown figure id {other:?}; known figure ids: {FIGURES:?}"),
                USAGE,
            ),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage_error(&format!("known figure ids: {FIGURES:?}"), USAGE);
    }
    // Keep going by default when several figures run: one quarantined cell
    // must not cost the rest of the sweep.
    let keep_going = keep_going.unwrap_or(ids.len() > 1);
    if io_chaos.is_some() && store_dir.is_none() {
        usage_error(
            "--io-chaos injects storage faults; it requires --store-dir (or SIM_STORE)",
            USAGE,
        );
    }
    let specs = match subset {
        Some(k) => sim_workload::suite_subset(k),
        None => sim_workload::suite(),
    };
    let mut session = SweepSession::new(&specs, n);
    if let Some(dir) = &store_dir {
        let plan = io_chaos.map(result_store::IoChaosPlan::new);
        if let Some(p) = &plan {
            eprintln!("[io-chaos mode: seed {}]", p.seed());
        }
        match result_store::ResultStore::open(std::path::Path::new(dir), plan) {
            Ok(store) => {
                eprintln!("[store: {dir}]");
                session = session.with_store(store);
            }
            Err(e) => {
                // An unusable store directory degrades to a store-less
                // sweep (results stay correct) but still lands in the
                // quarantine table — silent non-persistence would defeat
                // the point of asking for a store.
                eprintln!("[store: {dir} unusable: {e}]");
                session.record_store_failure(&experiments::CellFailure::from_store_error(
                    dir,
                    e.to_string(),
                ));
            }
        }
    }
    let sweep_started = std::time::Instant::now();
    let mut quarantined_figures = 0usize;
    for id in ids {
        let started = std::time::Instant::now();
        match try_run_figure(&id, &session) {
            Ok(report) => {
                outln!("================ {id} ================");
                outln!("{report}");
            }
            Err(f) => {
                quarantined_figures += 1;
                outln!("================ {id} ================");
                outln!("QUARANTINED: {f}");
                if !keep_going {
                    eprintln!("[--fail-fast: stopping at the first quarantined figure]");
                    break;
                }
            }
        }
        eprintln!("[{id} took {:.1}s]", started.elapsed().as_secs_f64());
    }
    eprintln!(
        "[sweep total {:.1}s]",
        sweep_started.elapsed().as_secs_f64()
    );
    if let Some(stats) = session.store_stats() {
        eprintln!(
            "[store: {} hits, {} misses, {} writes, {} quarantined]",
            stats.hits, stats.misses, stats.writes, stats.quarantined
        );
    }
    let failures = session.failures();
    if failures.is_empty() {
        return; // exit 0: every cell clean
    }
    outln!("================ quarantine ================");
    outln!(
        "{} cell(s) quarantined ({} figure(s) affected); all other cells completed.",
        failures.len(),
        quarantined_figures
    );
    for f in &failures {
        outln!("  {f}");
    }
    let code = if failures.iter().any(|f| f.kind == "watchdog") {
        3
    } else {
        2
    };
    std::process::exit(code);
}

/// `experiments -- cell <workload> <machine-slug> [--depth-scale X]
/// [--quick|--len N]`: rerun one sweep cell in isolation with full
/// forensics — store key, trace-oracle digest line, and the
/// verification outcome (first-divergence report or frozen watchdog
/// snapshot on failure). Exit codes match the sweep: 0 clean, 2 failed,
/// 3 watchdog abort, 64 usage error.
fn run_cell(args: &[String]) -> i32 {
    let (mut workload, mut slug) = (None, None);
    let mut depth = 1.0f64;
    let mut n = RunLength::full();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => n = RunLength::quick(),
            "--len" => {
                n = RunLength(flag_value(args, &mut i, "an instruction count", CELL_USAGE));
            }
            "--depth-scale" => {
                depth = flag_value(args, &mut i, "a number", CELL_USAGE);
                if !(depth > 0.0 && depth <= MAX_DEPTH_SCALE) {
                    usage_error(
                        &format!("--depth-scale {depth} is outside (0, {MAX_DEPTH_SCALE}]"),
                        CELL_USAGE,
                    );
                }
            }
            other if workload.is_none() => workload = Some(other.to_string()),
            other if slug.is_none() => slug = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument {other:?}"), CELL_USAGE),
        }
        i += 1;
    }
    let (Some(workload), Some(slug)) = (workload, slug) else {
        usage_error("", CELL_USAGE);
    };
    let Some(kind) = MachineKind::from_slug(&slug) else {
        let known: Vec<&str> = MachineKind::ALL.iter().map(|k| k.slug()).collect();
        usage_error(
            &format!(
                "unknown machine slug {slug:?}; known slugs: {}",
                known.join(", ")
            ),
            CELL_USAGE,
        );
    };
    let suite = sim_workload::suite();
    let by_name = |name: &str| {
        suite.iter().find(|s| s.name == name).unwrap_or_else(|| {
            usage_error(
                &format!("unknown workload {name:?}; see `sim_workload::suite()` names"),
                CELL_USAGE,
            )
        })
    };
    // An SMT2 pair cell is named "a+b"; a single workload runs one thread.
    let names: Vec<&str> = workload.split('+').collect();
    if names.len() > 2 {
        usage_error(
            &format!(
                "{workload:?} names {} workloads; a cell runs one, or an SMT2 pair",
                names.len()
            ),
            CELL_USAGE,
        );
    }
    let cell_specs: Vec<&sim_workload::WorkloadSpec> =
        names.iter().map(|&name| by_name(name)).collect();
    let programs: Vec<_> = cell_specs.iter().map(|s| s.build()).collect();
    let oracle = if kind.needs_oracle() {
        let report = load_inspector::analyze(&programs[0], n.0);
        constable::IdealOracle::new(report.stable_pcs.iter().copied())
    } else {
        constable::IdealOracle::default()
    };
    let mut cfg = kind.config(oracle);
    if depth != 1.0 {
        cfg = cfg.with_depth_scale(depth);
    }
    // The store key describes the *logical* cell config, before the
    // watchdog knob below (harness instrumentation, not machine identity).
    let store_key = experiments::store_key(&cell_specs, &cfg, n);
    cfg.watchdog_no_retire.get_or_insert(WATCHDOG_BUDGET);
    outln!("cell: {workload} on {} (depth-scale {depth})", kind.slug());
    outln!(
        "store key: {:#018x} (format v{}, {} bytes; object {})",
        store_key.hash(),
        result_store::KEY_FORMAT_VERSION,
        store_key.bytes().len(),
        store_key.object_name()
    );
    let per_thread = if programs.len() > 1 { n.0 / 2 } else { n.0 };
    let mut core = Core::new_multi(programs.iter().collect(), cfg);
    if programs.len() == 1 {
        core.attach_tracer(TraceRecorder::new());
    }
    let result = core.run(per_thread);
    if let Some(trace) = core.take_trace() {
        outln!(
            "trace-oracle line: {} stats:{:#018x}",
            trace.golden_line(&format!("{}/{}", kind.slug(), workload)),
            result.stats_digest()
        );
    }
    outln!(
        "retired {:?} in {} cycles (IPC {:.3}); {} loads checked",
        result.retired_per_thread,
        result.stats.cycles,
        result.ipc(),
        result.stats.retired_loads
    );
    outln!(
        "elimination: {} eliminated, {} violations, arm_guard_blocked {}",
        result.stats.loads_eliminated,
        result.stats.elim_violations,
        result.stats.arm_guard_blocked
    );
    let cs = &result.stats.constable;
    outln!(
        "constable engine: {} eliminated at rename, {} xPRF-forgone; resets: register write {}, \
         store {}, snoop {}, capacity {}",
        cs.eliminated,
        cs.xprf_full_forgone,
        cs.resets_reg_write,
        cs.resets_store,
        cs.resets_snoop,
        cs.resets_amt_conflict + cs.resets_rmt_conflict
    );
    print_store_provenance(&store_key, result.stats_digest());
    match result.verify() {
        Ok(()) => {
            outln!("PASS: cell is clean");
            0
        }
        Err(e) => {
            outln!("FAIL [{}]: {e}", e.kind());
            if e.kind() == "watchdog" {
                3
            } else {
                2
            }
        }
    }
}

/// With `SIM_STORE` set, `cell` also reports whether the persistent store
/// already holds this cell and whether the stored digest matches the run
/// just performed — the provenance line a quarantine investigation starts
/// from. The store takes no lock, so the probe is safe beside a live sweep
/// on the same directory.
fn print_store_provenance(store_key: &result_store::StoreKey, fresh_digest: u64) {
    let Some(dir) = std::env::var("SIM_STORE").ok().filter(|s| !s.is_empty()) else {
        return;
    };
    let mut store = match result_store::ResultStore::open(std::path::Path::new(&dir), None) {
        Ok(s) => s,
        Err(e) => {
            outln!("store probe: {dir} unusable ({e})");
            return;
        }
    };
    match store.get(store_key) {
        result_store::GetOutcome::Hit {
            payload,
            stats_digest,
        } => {
            let agrees = if stats_digest == fresh_digest {
                "matches this run"
            } else {
                "DISAGREES with this run"
            };
            match experiments::decode_outcome(&payload) {
                Ok(outcome) => outln!(
                    "store probe: HIT in {dir} — {} cycles, digest {stats_digest:#018x} ({agrees})",
                    outcome.result.stats.cycles
                ),
                Err(e) => outln!(
                    "store probe: HIT in {dir} but payload undecodable ({e}); digest \
                     {stats_digest:#018x} ({agrees})"
                ),
            }
        }
        result_store::GetOutcome::Miss => {
            outln!("store probe: MISS in {dir} — this cell has never been persisted");
        }
        result_store::GetOutcome::Defect(d) => {
            outln!(
                "store probe: DAMAGED record in {dir} ({}); it was quarantined, a sweep would \
                 recompute",
                d.kind.slug()
            );
        }
    }
}
