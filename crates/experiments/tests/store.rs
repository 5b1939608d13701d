//! End-to-end tests of the persistent result store, run against the real
//! `experiments` binary so persistence is exercised **across processes**:
//! the keys must survive process death, and a warm process must answer
//! every memoizable cell from disk with byte-identical figure text.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const FIGS: &[&str] = &["fig11", "fig14"];

fn run(store: Option<&Path>, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(FIGS).args(["--quick", "--subset", "2"]);
    if let Some(dir) = store {
        cmd.arg("--store-dir").arg(dir);
    }
    cmd.args(extra);
    // The binary also reads these from the environment; tests must not
    // inherit a store from the invoking shell.
    cmd.env_remove("SIM_STORE").env_remove("SIM_IO_CHAOS");
    cmd.output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

/// The figure rows of a run: stdout up to the quarantine table (if any).
fn figure_text(out: &Output) -> String {
    let s = stdout(out);
    match s.find("================ quarantine") {
        Some(at) => s[..at].to_string(),
        None => s,
    }
}

fn store_counters(out: &Output) -> (u64, u64, u64, u64) {
    // "[store: H hits, M misses, W writes, Q quarantined]"
    let err = stderr(out);
    let line = err
        .lines()
        .rev()
        .find(|l| l.starts_with("[store: ") && l.contains("hits"))
        .unwrap_or_else(|| panic!("no store summary in stderr:\n{err}"));
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    (nums[0], nums[1], nums[2], nums[3])
}

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("constable-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_process_answers_every_cell_from_disk_bit_identically() {
    let dir = tmp_store("persist");
    let reference = run(None, &[]);
    assert!(reference.status.success());

    let cold = run(Some(&dir), &[]);
    assert!(cold.status.success(), "cold run: {}", stderr(&cold));
    let (hits, misses, writes, quarantined) = store_counters(&cold);
    assert_eq!(hits, 0, "cold store cannot hit");
    assert!(
        misses > 0 && writes == misses,
        "cold run populates every cell"
    );
    assert_eq!(quarantined, 0);

    // A different process, a fresh binary invocation: every memoizable
    // cell must come from the store, and the figure text must be
    // byte-identical to both the cold run and the store-less reference.
    let warm = run(Some(&dir), &[]);
    assert!(warm.status.success(), "warm run: {}", stderr(&warm));
    let (hits, misses, writes, _) = store_counters(&warm);
    assert_eq!(misses, 0, "warm run must answer everything from the store");
    assert_eq!(writes, 0);
    assert!(hits > 0);
    assert_eq!(
        stdout(&warm),
        stdout(&cold),
        "figure text must not depend on the store"
    );
    assert_eq!(stdout(&warm), stdout(&reference));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_record_quarantines_with_forensics() {
    let dir = tmp_store("corrupt");
    let cold = run(Some(&dir), &[]);
    assert!(cold.status.success(), "cold run: {}", stderr(&cold));

    // Flip one payload bit in one record.
    let mut objects: Vec<PathBuf> = fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .map(|e| e.unwrap().path())
        .collect();
    objects.sort();
    let victim = objects.first().expect("store has records");
    let mut bytes = fs::read(victim).unwrap();
    let n = bytes.len();
    bytes[n - 9] ^= 0x04;
    fs::write(victim, &bytes).unwrap();

    let damaged = run(Some(&dir), &[]);
    assert_eq!(
        damaged.status.code(),
        Some(2),
        "store damage must exit 2 (quarantined), not fail figures"
    );
    let (_, misses, writes, quarantined) = store_counters(&damaged);
    assert_eq!(quarantined, 1, "exactly the bit-flipped record quarantines");
    assert_eq!(misses, 1, "only the bit-flipped cell recomputes");
    assert_eq!(writes, 1, "the recomputed cell is stored again");
    let table = stdout(&damaged);
    assert!(table.contains("store-corrupt"), "{table}");
    assert!(
        table.contains("expected 0x") && table.contains("actual 0x"),
        "forensics must carry the checksum pair: {table}"
    );
    // The damaged file moved aside with its name preserved.
    assert!(dir
        .join("quarantine")
        .join(victim.file_name().unwrap())
        .exists());

    // Every figure row is still bit-identical: damage costs recomputes,
    // never correctness.
    assert_eq!(figure_text(&damaged), figure_text(&cold));

    // The rerun healed the store (recomputed + rewrote the damaged cell):
    // one more process answers clean again from disk.
    let healed = run(Some(&dir), &[]);
    assert!(healed.status.success(), "healed run: {}", stderr(&healed));
    let (_, misses, _, _) = store_counters(&healed);
    assert_eq!(misses, 0);
    assert_eq!(stdout(&healed), stdout(&cold));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn io_chaos_injects_detects_and_marks_damage() {
    let dir = tmp_store("iochaos");
    let cold = run(Some(&dir), &["--io-chaos", "42"]);
    assert!(
        cold.status.success(),
        "cold chaos run writes damage but reads nothing: {}",
        stderr(&cold)
    );

    let warm = run(Some(&dir), &["--io-chaos", "42"]);
    assert_eq!(
        warm.status.code(),
        Some(2),
        "chaos-damaged records must surface as quarantined cells"
    );
    let (_, _, _, quarantined) = store_counters(&warm);
    assert!(quarantined > 0);
    let table = stdout(&warm);
    assert!(
        table.contains("chaos-injected"),
        "the same seed must recognise its own injections: {table}"
    );
    // Undamaged cells still answer from the store; figure rows identical.
    assert_eq!(figure_text(&warm), figure_text(&cold));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cell_subcommand_prints_a_cross_process_stable_store_key() {
    let key_line = || {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["cell", "sysmark-chrome.t1", "constable", "--quick"])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        stdout(&out)
            .lines()
            .find(|l| l.starts_with("store key:"))
            .expect("cell prints its store key")
            .to_string()
    };
    let a = key_line();
    let b = key_line();
    assert_eq!(a, b, "store key must be identical across processes");
    assert!(a.contains("format v1"), "{a}");
}

/// `SIM_STORE` makes `cell` probe the store for the cell it just
/// ran. After a sweep populated the store, the probe must find the cell
/// under the same key and agree with the fresh run's digest — a MISS
/// means the `cell` key drifted from the sweep's key.
#[test]
fn cell_store_probe_hits_a_sweep_populated_store() {
    let dir = tmp_store("probe");
    let sweep = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig11", "--quick", "--subset", "2", "--store-dir"])
        .arg(&dir)
        .env_remove("SIM_STORE")
        .env_remove("SIM_IO_CHAOS")
        .output()
        .expect("binary runs");
    assert!(sweep.status.success(), "sweep: {}", stderr(&sweep));

    let workload = &sim_workload::suite_subset(2)[0].name;
    let cell = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["cell", workload, "constable", "--quick"])
        .env("SIM_STORE", &dir)
        .env_remove("SIM_IO_CHAOS")
        .output()
        .expect("binary runs");
    assert!(cell.status.success(), "cell: {}", stderr(&cell));
    let text = stdout(&cell);
    let probe = text
        .lines()
        .find(|l| l.starts_with("store probe:"))
        .unwrap_or_else(|| panic!("no store probe line:\n{text}"));
    assert!(probe.contains("store probe: HIT"), "{probe}");
    assert!(probe.contains("matches this run"), "{probe}");
    let _ = fs::remove_dir_all(&dir);
}

/// The full-length sweep the kill-and-resume test interrupts: enough cells
/// that it runs for seconds in a debug build and still has cells left to
/// compute when the first one lands in a release build.
fn resume_sweep(store: Option<&Path>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(["fig11", "--subset", "4"]);
    if let Some(dir) = store {
        cmd.arg("--store-dir").arg(dir);
    }
    cmd.env_remove("SIM_STORE").env_remove("SIM_IO_CHAOS");
    cmd
}

/// Whether the store holds at least one durable cell. A record reaches
/// `objects/` only by an atomic rename, so any `.rec` there is complete.
fn first_cell_landed(dir: &Path) -> bool {
    fs::read_dir(dir.join("objects")).is_ok_and(|mut it| {
        it.any(|e| e.is_ok_and(|e| e.path().extension().is_some_and(|x| x == "rec")))
    })
}

/// A sweep SIGKILLed the moment its first cell is durable keeps that cell:
/// each cell is persisted as soon as it verifies, not when its batch ends.
/// The rerun must answer the finished cells from disk, compute the rest,
/// and render figure text byte-identical to an uninterrupted store-less
/// run. The first cell must also land early: a store written only after
/// the whole batch finished would survive the same kill with a few cells,
/// but only once all the simulation work was already done.
#[test]
fn killed_sweep_resumes_from_the_cells_it_finished() {
    let dir = tmp_store("kill");
    let reference = resume_sweep(None).output().expect("binary runs");
    assert!(
        reference.status.success(),
        "reference: {}",
        stderr(&reference)
    );

    let started = Instant::now();
    let mut child = resume_sweep(Some(&dir))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    loop {
        if first_cell_landed(&dir) {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll the sweep") {
            panic!("sweep finished ({status}) before its first cell was stored");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let first_cell_at = started.elapsed();
    child.kill().expect("SIGKILL the sweep");
    let status = child.wait().expect("reap the sweep");
    assert!(
        !status.success(),
        "the sweep must die mid-run, got {status}"
    );

    let rerun_started = Instant::now();
    let resumed = resume_sweep(Some(&dir)).output().expect("binary runs");
    let rerun_took = rerun_started.elapsed();
    assert!(resumed.status.success(), "resumed: {}", stderr(&resumed));
    let (hits, misses, writes, quarantined) = store_counters(&resumed);
    assert!(
        hits >= 1,
        "the rerun must reuse the cells stored before the kill"
    );
    assert!(misses >= 1, "the kill must land before the sweep finished");
    assert_eq!(writes, misses, "the rerun stores every cell it computes");
    assert_eq!(quarantined, 0);
    assert_eq!(stdout(&resumed), stdout(&reference));
    // A cell takes a small fraction of the sweep, so the first one is
    // durable long before the rerun has recomputed the cells it lost.
    assert!(
        first_cell_at * 2 < rerun_took,
        "first cell stored after {first_cell_at:?}, but recomputing the \
         {misses} lost cells took only {rerun_took:?}: cells are not persisted \
         as they finish"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// The store takes no lock: a sweep runs beside another process that holds
/// the same store open, stores every cell it computes, and that process's
/// own handle then reads the sweep's records.
#[test]
fn concurrent_processes_share_a_store() {
    let dir = tmp_store("share");
    let mut held = result_store::ResultStore::open(&dir, None).expect("store opens");
    let fig11 = |store: Option<&Path>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
        cmd.args(["fig11", "--quick", "--subset", "2"]);
        if let Some(dir) = store {
            cmd.arg("--store-dir").arg(dir);
        }
        cmd.env_remove("SIM_STORE")
            .env_remove("SIM_IO_CHAOS")
            .output()
            .expect("binary runs")
    };
    let reference = fig11(None);
    assert!(reference.status.success());

    let shared = fig11(Some(&dir));
    assert!(
        shared.status.success(),
        "a sweep beside a live store handle must run clean: {}",
        stderr(&shared)
    );
    let (_, misses, writes, quarantined) = store_counters(&shared);
    assert_eq!(quarantined, 0);
    assert!(misses > 0);
    assert_eq!(writes, misses, "the sweep stores every cell it computes");
    assert_eq!(stdout(&shared), stdout(&reference));

    let specs = sim_workload::suite_subset(2);
    let cfg = experiments::MachineKind::Constable.config(constable::IdealOracle::default());
    let key = experiments::store_key(&[&specs[0]], &cfg, experiments::RunLength::quick());
    assert!(
        matches!(held.get(&key), result_store::GetOutcome::Hit { .. }),
        "the held handle must see the sweep's record for {}",
        specs[0].name
    );
    drop(held);
    let _ = fs::remove_dir_all(&dir);
}

/// The one way a store open can still fail is a directory that cannot be
/// created. The sweep then runs store-less: every figure row matches a
/// store-less run, and the failure lands in the quarantine table as
/// `store-io` with exit 2.
#[test]
fn unusable_store_dir_runs_store_less_and_exits_2() {
    let dir = tmp_store("unusable");
    fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    fs::write(&file, b"a regular file").unwrap();

    let reference = run(None, &[]);
    assert!(reference.status.success());
    let out = run(Some(&file.join("store")), &[]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let table = stdout(&out);
    let quarantine = &table[table.find("================ quarantine").expect("table")..];
    assert!(quarantine.contains("store-io"), "{quarantine}");
    assert_eq!(figure_text(&out), stdout(&reference));
    let _ = fs::remove_dir_all(&dir);
}
