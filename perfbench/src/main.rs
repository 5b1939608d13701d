//! `perfbench` measures one workload of the Constable reproduction and
//! prints its record as one JSON line.
//!
//! ```text
//! perfbench --workload fig11|all --seed N --seconds S --trace 0|1 --out-dir DIR
//! ```
//!
//! `perfbench/run.py` builds this program, pins it to one CPU (so the sweep
//! pool sizes itself to one worker) and turns the record into the
//! benchmark's result line. `perfbench/README.md` defines every workload
//! and metric.
//!
//! A run repeats *passes* until `--seconds` have passed (at least
//! [`MIN_PASSES`] whole ones). A pass is a sequence of short timed units
//! (one trace's fig11 in `fig11`, one figure in `all`), with their set-up
//! (suite generation, sessions, program builds, analyses, store creation)
//! untimed around them and, for `all`, an untimed warm-store check after
//! them. `wall_s` sums each unit's fastest time over the passes; `setup_s`
//! is the median over passes. The simulated metrics must agree exactly
//! between passes.
//!
//! With `--trace 1` the passes alternate untraced and traced, and a final
//! *layer pass* drives the workload's cells straight through each layer's
//! public entry point, recording one span per call. Spans stay in memory
//! and are written to `DIR` when the run ends.

use constable::IdealOracle;
use experiments::runner::geomean_speedup;
use experiments::{
    decode_outcome, encode_outcome, figure_kinds, store_key, try_run_figure, MachineKind,
    RunLength, RunOutcome, SweepSession, FIGURES, WATCHDOG_BUDGET,
};
use result_store::{GetOutcome, ResultStore, StoreStats};
use sim_core::{Core, CoreStats, SimScratch};
use sim_mem::TraceDigest;
use sim_power::{core_energy, ActiveUnits, EnergyParams};
use sim_workload::WorkloadSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload fig11|all --seed N --seconds S --trace 0|1 --out-dir DIR";

/// `all` runs on this many category-balanced traces. On 10 traces the
/// seed alone moved its wall time by up to 35 %.
const SUBSET: usize = 20;
/// Figures that re-run instrumented loops even when the store is warm, so
/// the warm-store check leaves them out.
const NOT_STORE_ANSWERABLE: [&str; 2] = ["fig17", "xprf"];
/// A run makes at least this many whole passes; in a traced run the first
/// is untraced and the second traced.
const MIN_PASSES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig11,
    All,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fig11" => Some(Workload::Fig11),
            "all" => Some(Workload::All),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Fig11 => "fig11",
            Workload::All => "all",
        }
    }

    /// The figures one timed pass renders.
    fn figures(self) -> Vec<&'static str> {
        match self {
            Workload::Fig11 => vec!["fig11"],
            Workload::All => FIGURES.to_vec(),
        }
    }

    /// The single-thread machines whose cells the workload's figures
    /// simulate, in first-use order: the cells `sim_digest` folds and the
    /// layer pass drives.
    fn kinds(self) -> Vec<MachineKind> {
        let mut kinds = Vec::new();
        for id in self.figures() {
            for &k in figure_kinds(id).unwrap_or(&[]) {
                if !kinds.contains(&k) {
                    kinds.push(k);
                }
            }
        }
        kinds
    }

    fn suite(self, seed: u64) -> Vec<WorkloadSpec> {
        let specs = match self {
            Workload::Fig11 => sim_workload::suite(),
            Workload::All => sim_workload::suite_subset(SUBSET),
        };
        reseed(specs, seed)
    }
}

/// Seed 0 keeps the suite as `experiments` builds it. Any other seed
/// rebuilds every spec with a mixed seed: the same names and categories,
/// different programs.
fn reseed(specs: Vec<WorkloadSpec>, seed: u64) -> Vec<WorkloadSpec> {
    if seed == 0 {
        return specs;
    }
    specs
        .into_iter()
        .map(|s| WorkloadSpec::new(s.name, s.category, mix(seed, s.seed)))
        .collect()
}

/// SplitMix64 finaliser over the benchmark seed and a spec's own seed.
fn mix(seed: u64, spec_seed: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ spec_seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ------------------------------------------------------------------ spans

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. While `on` is false, `enter`/`exit` record
/// nothing.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

const NO_SPAN: usize = usize::MAX;

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time in seconds (a span minus its children) summed per span
    /// name over the spans in `range`.
    fn self_times(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; range.len()];
        for s in &self.spans[range.clone()] {
            if let Some(p) = s.parent.filter(|p| range.contains(p)) {
                child_ns[p - range.start] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans[range].iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

// ------------------------------------------------------------- host clock

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 2_000_000;
/// Seconds the calibration loop takes on a quiet host: the fastest of
/// about 12 000 loops on a 2.1 GHz Intel Xeon (Sapphire Rapids) VM.
const CALIBRATION_NOMINAL_S: f64 = 0.0054;

/// Times work in *quiet-host seconds*.
///
/// Other tenants of a shared host slow this process down by up to 2× for
/// seconds to minutes at a time, in spells no run is long enough to
/// outlast, and the guest sees no steal time. An integer-throughput loop
/// slows down with the simulator almost one for one, so every timed piece
/// of work is bracketed by calibration loops, and its wall time is scaled
/// by the nominal calibration time over the mean of the two around it.
struct HostClock {
    /// Time of the most recent calibration loop.
    last_s: f64,
    /// Every calibration loop's time, for the record.
    samples: Vec<f64>,
}

impl HostClock {
    fn new() -> Self {
        let mut clock = HostClock {
            last_s: 0.0,
            samples: Vec::new(),
        };
        clock.last_s = clock.calibrate();
        clock
    }

    /// Eight independent multiply-add chains: the loop is bound by
    /// integer throughput, which is what a busy neighbour takes away.
    fn calibrate(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..std::hint::black_box(CALIBRATION_ITERS) {
            for (k, v) in x.iter_mut().enumerate() {
                *v = v
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i ^ k as u64);
            }
        }
        std::hint::black_box(x);
        let secs = started.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// Runs `f` and returns its output and its time in quiet-host seconds.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        let before = self.last_s;
        self.last_s = self.calibrate();
        (
            out,
            secs * 2.0 * CALIBRATION_NOMINAL_S / (before + self.last_s),
        )
    }
}

// ----------------------------------------------------------------- passes

/// The simulated results of one pass; every pass of a run must produce
/// the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Model {
    speedup: f64,
    power_ratio: f64,
    /// Fold of `SimResult::stats_digest` over the workload's single-thread
    /// cells ([`Workload::kinds`] × suite, in that order).
    cells_digest: u64,
    /// `cells_digest` folded with the bytes of every rendered figure, so
    /// SMT2 pairs, sensitivity grids and instrumented loops count too.
    sim_digest: u64,
}

/// One pass over the workload's timed units: every trace's fig11 for
/// `fig11`, every figure of one session for `all`. Unit `i` is the same
/// work in every pass, so its times across passes are comparable.
#[derive(Default)]
struct Pass {
    traced: bool,
    /// Set when the pass ran every unit. A pass the end of the run cut
    /// short keeps its unit times and nothing else.
    complete: bool,
    /// Time of each unit the pass ran, in unit order, in quiet-host
    /// seconds.
    unit_s: Vec<f64>,
    /// Quiet-host seconds of the pass's set-up work.
    setup_s: f64,
    /// Cells the units simulated.
    cells: u64,
    /// Cells quarantined during the pass.
    failed: u64,
    store: StoreStats,
    model: Option<Model>,
    /// Indices of the spans the pass recorded (empty when untraced).
    spans: std::ops::Range<usize>,
    /// The process's peak resident set when the pass ended.
    peak_rss_mb: f64,
}

fn open_fresh_store(dir: &Path) -> ResultStore {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("benchmark store directory is removable");
    }
    ResultStore::open(dir, None).expect("benchmark store directory is usable")
}

/// Renders figure `id` and returns its text and time.
fn timed_figure(
    session: &SweepSession<'_>,
    id: &str,
    tr: &mut Tracer,
    clock: &mut HostClock,
) -> (String, f64) {
    let (text, secs) =
        clock.time(|| tr.time("experiments.try_run_figure", || try_run_figure(id, session)));
    (text.unwrap_or_else(|f| format!("QUARANTINED: {f}")), secs)
}

/// Files every quarantined cell of `session` as an error; returns their
/// number.
fn check_failures(session: &SweepSession<'_>, errors: &mut Vec<String>) -> u64 {
    let failures = session.failures();
    for f in &failures {
        errors.push(format!("quarantined cell: {f}"));
    }
    failures.len() as u64
}

/// `fig11` runs each trace in a session of its own, so every trace's five
/// cells are one timed unit of about 0.1 s.
fn fig11_pass(
    seed: u64,
    tr: &mut Tracer,
    clock: &mut HostClock,
    errors: &mut Vec<String>,
    out_of_time: &dyn Fn() -> bool,
) -> Pass {
    let w = Workload::Fig11;
    let mut pass = Pass {
        traced: tr.on,
        ..Pass::default()
    };
    let first_span = tr.spans.len();
    let (specs, secs) = clock.time(|| tr.time("sim-workload.suite", || w.suite(seed)));
    pass.setup_s += secs;
    let kinds = w.kinds();
    let mut suites: Vec<Vec<RunOutcome>> = kinds.iter().map(|_| Vec::new()).collect();
    let mut texts = Vec::new();
    for spec in specs.chunks(1) {
        if out_of_time() {
            return pass;
        }
        let (session, secs) = clock.time(|| {
            let setup = tr.enter("bench.setup");
            let session = tr.time("experiments.SweepSession::new", || {
                SweepSession::new(spec, RunLength::quick())
            });
            tr.time("experiments.SweepSession::reports", || session.reports());
            tr.exit(setup);
            session
        });
        pass.setup_s += secs;

        let (text, secs) = timed_figure(&session, "fig11", tr, clock);
        pass.unit_s.push(secs);
        pass.cells += kinds.len() as u64;
        pass.failed += check_failures(&session, errors);
        match session.suites(&kinds) {
            Ok(unit) => {
                let speedup = geomean_speedup(
                    &unit[kind_index(&kinds, MachineKind::Baseline)],
                    &unit[kind_index(&kinds, MachineKind::Constable)],
                );
                check_fig11_geomean(&text, speedup, errors);
                for (all, cells) in suites.iter_mut().zip(unit) {
                    all.extend(cells);
                }
            }
            Err(f) => errors.push(format!("model cells unavailable: {f}")),
        }
        texts.push(text);
    }
    pass.complete = true;
    pass.model = Some(model_of(&kinds, &suites, &texts));
    pass.spans = first_span..tr.spans.len();
    pass.peak_rss_mb = peak_rss_mb();
    pass
}

/// `all` renders every figure on one session with a fresh store; each
/// figure is one timed unit.
fn all_pass(
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
    clock: &mut HostClock,
    errors: &mut Vec<String>,
    out_of_time: &dyn Fn() -> bool,
) -> Pass {
    let w = Workload::All;
    let mut pass = Pass {
        traced: tr.on,
        ..Pass::default()
    };
    let first_span = tr.spans.len();
    let store_dir = dir.join("store");
    let (specs, secs) = clock.time(|| tr.time("sim-workload.suite", || w.suite(seed)));
    pass.setup_s += secs;
    let (session, secs) = clock.time(|| {
        let setup = tr.enter("bench.setup");
        let session = tr.time("experiments.SweepSession::new", || {
            SweepSession::new(&specs, RunLength::quick())
        });
        tr.time("experiments.SweepSession::reports", || session.reports());
        tr.time("experiments.SweepSession::reports_apx", || {
            session.reports_apx()
        });
        let store = tr.time("result-store.open", || open_fresh_store(&store_dir));
        tr.exit(setup);
        session.with_store(store)
    });
    pass.setup_s += secs;

    let mut texts = Vec::new();
    for id in w.figures() {
        if out_of_time() {
            return pass;
        }
        let (text, secs) = timed_figure(&session, id, tr, clock);
        pass.unit_s.push(secs);
        texts.push(text);
    }

    let mut store = session.store_stats().unwrap_or_default();
    pass.failed = check_failures(&session, errors);
    let kinds = w.kinds();
    match session.suites(&kinds) {
        Ok(suites) => {
            let model = model_of(&kinds, &suites, &texts);
            check_against_figures(w, &texts, &model, errors);
            pass.model = Some(model);
        }
        Err(f) => errors.push(format!("model cells unavailable: {f}")),
    }
    if session.store_stats().unwrap_or_default() != store {
        errors.push("a model cell was not simulated by the timed figures".to_string());
    }
    drop(session);
    if store.writes != store.misses {
        errors.push(format!(
            "store wrote {} of {} computed cells",
            store.writes, store.misses
        ));
    }
    store.hits = check_warm_store(&specs, &store_dir, &texts, errors);
    pass.cells = store.misses;
    pass.store = store;
    pass.complete = true;
    pass.spans = first_span..tr.spans.len();
    pass.peak_rss_mb = peak_rss_mb();
    pass
}

/// Renders every store-answerable figure of `all` again from a freshly
/// opened store and checks that each reads back byte for byte, with no
/// miss and no write. Returns the store hits. Untimed: the store's read
/// side is timed at its own boundary by the traced layer pass.
fn check_warm_store(
    specs: &[WorkloadSpec],
    store_dir: &Path,
    texts: &[String],
    errors: &mut Vec<String>,
) -> u64 {
    let store = ResultStore::open(store_dir, None).expect("populated store reopens");
    let session = SweepSession::new(specs, RunLength::quick()).with_store(store);
    for (id, text) in FIGURES.iter().zip(texts) {
        if NOT_STORE_ANSWERABLE.contains(id) {
            continue;
        }
        if !matches!(try_run_figure(id, &session), Ok(t) if &t == text) {
            errors.push(format!("{id} read back from the store differs"));
        }
    }
    let stats = session.store_stats().unwrap_or_default();
    if stats.misses != 0 || stats.writes != 0 {
        errors.push(format!(
            "warm store missed {} and wrote {} cells",
            stats.misses, stats.writes
        ));
    }
    check_failures(&session, errors);
    stats.hits
}

/// Power units `figures::fig19` bills for each of its two machines.
fn units(kind: MachineKind) -> ActiveUnits {
    ActiveUnits {
        constable: kind == MachineKind::Constable,
        eves: false,
    }
}

/// Mean core dynamic power over `runs`, as `figures::fig19` computes it.
fn mean_watts(runs: &[RunOutcome], kind: MachineKind) -> f64 {
    let p = EnergyParams::default();
    let total: f64 = runs
        .iter()
        .map(|r| core_energy(&r.result.stats, units(kind), &p).watts(r.result.stats.cycles))
        .sum();
    total / runs.len().max(1) as f64
}

fn kind_index(kinds: &[MachineKind], kind: MachineKind) -> usize {
    kinds
        .iter()
        .position(|&k| k == kind)
        .expect("every workload's figures run Baseline and Constable")
}

/// The simulated metrics of the workload's single-thread cells, one suite
/// per entry of `kinds`, with the rendered figures folded into
/// `sim_digest`.
fn model_of(kinds: &[MachineKind], suites: &[Vec<RunOutcome>], texts: &[String]) -> Model {
    let base = &suites[kind_index(kinds, MachineKind::Baseline)];
    let cons = &suites[kind_index(kinds, MachineKind::Constable)];
    let mut cells = TraceDigest::new();
    for r in suites.iter().flatten() {
        cells.update(r.result.stats_digest());
    }
    let mut sim = cells;
    for text in texts {
        sim.update_bytes(text.as_bytes());
    }
    Model {
        speedup: geomean_speedup(base, cons),
        power_ratio: mean_watts(cons, MachineKind::Constable)
            / mean_watts(base, MachineKind::Baseline),
        cells_digest: cells.finish(),
        sim_digest: sim.finish(),
    }
}

/// Column `col` of the row of `text` whose first word is `row`.
fn figure_cell(text: &str, row: &str, col: usize) -> Option<String> {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|t| t.first() == Some(&row))
        .and_then(|t| t.get(col).map(|s| s.to_string()))
}

fn check_fig11_geomean(text: &str, speedup: f64, errors: &mut Vec<String>) {
    let want = format!("{speedup:.3}");
    if figure_cell(text, "GEOMEAN", 2).as_deref() != Some(want.as_str()) {
        errors.push(format!("fig11 Constable geomean is not {want}"));
    }
}

/// The model metrics must read as the rendered figures print them.
fn check_against_figures(w: Workload, texts: &[String], m: &Model, errors: &mut Vec<String>) {
    let ids = w.figures();
    let text_of = |id: &str| ids.iter().position(|&x| x == id).map(|i| &texts[i]);
    if let Some(t) = text_of("fig11") {
        check_fig11_geomean(t, m.speedup, errors);
    }
    if let Some(t) = text_of("fig19") {
        let want = format!("{:.3}", m.power_ratio);
        if figure_cell(t, "Constable", 1).as_deref() != Some(want.as_str()) {
            errors.push(format!("fig19 Constable power is not {want}"));
        }
    }
}

// ------------------------------------------------------------- layer pass

/// Per-layer counts from driving the workload's cells straight through
/// each layer's entry point.
struct Layer {
    programs: u64,
    stable_pcs: u64,
    totals: CoreStats,
    /// `[Baseline, Constable]` energy of the OOO(RAT) and MEU(L1-D) units.
    rat: [f64; 2],
    l1d: [f64; 2],
    cells_digest: u64,
}

fn accumulate(acc: &mut CoreStats, s: &CoreStats) {
    acc.cycles += s.cycles;
    acc.retired += s.retired;
    acc.retired_loads += s.retired_loads;
    acc.rs_allocs += s.rs_allocs;
    acc.load_utilized_cycles += s.load_utilized_cycles;
    acc.l1d_accesses += s.l1d_accesses;
    acc.l2_accesses += s.l2_accesses;
    acc.dram_accesses += s.dram_accesses;
    acc.branch_mispredicts += s.branch_mispredicts;
    acc.vp_used += s.vp_used;
    acc.vp_wrong += s.vp_wrong;
    acc.mrn_forwarded += s.mrn_forwarded;
    acc.loads_eliminated += s.loads_eliminated;
    acc.elim_violations += s.elim_violations;
    acc.sld_reads += s.sld_reads;
    acc.sld_writes += s.sld_writes;
    acc.amt_probes += s.amt_probes;
    acc.cv_pins += s.cv_pins;
    acc.arm_guard_blocked += s.arm_guard_blocked;
}

fn layer_pass(
    w: Workload,
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
    errors: &mut Vec<String>,
) -> Layer {
    let n = RunLength::quick();
    let specs = w.suite(seed);
    let programs: Vec<_> = specs
        .iter()
        .map(|s| tr.time("sim-workload.build", || s.build()))
        .collect();
    let reports: Vec<_> = programs
        .iter()
        .map(|p| tr.time("load-inspector.analyze", || load_inspector::analyze(p, n.0)))
        .collect();
    let store_dir = dir.join("layer-store");
    let mut store = open_fresh_store(&store_dir);
    let params = EnergyParams::default();
    let mut layer = Layer {
        programs: programs.len() as u64,
        stable_pcs: reports.iter().map(|r| r.stable_pcs.len() as u64).sum(),
        totals: CoreStats::default(),
        rat: [0.0; 2],
        l1d: [0.0; 2],
        cells_digest: 0,
    };
    let mut digest = TraceDigest::new();
    let mut written = Vec::new();
    let mut scratch = SimScratch::new();
    for kind in w.kinds() {
        for (i, spec) in specs.iter().enumerate() {
            let oracle = if kind.needs_oracle() {
                IdealOracle::new(reports[i].stable_pcs.iter().copied())
            } else {
                IdealOracle::default()
            };
            let mut cfg = kind.config(oracle);
            let key = store_key(&[spec], &cfg, n);
            cfg.watchdog_no_retire.get_or_insert(WATCHDOG_BUDGET);
            let span = tr.enter("sim-core.run");
            let mut core =
                Core::new_multi_with_scratch(vec![&programs[i]], cfg, std::mem::take(&mut scratch));
            let result = core.run(n.0);
            scratch = core.into_scratch();
            tr.exit(span);
            if let Err(e) = result.verify() {
                errors.push(format!("{} on {}: {e}", spec.name, kind.slug()));
                continue;
            }
            let cell_digest = result.stats_digest();
            digest.update(cell_digest);
            accumulate(&mut layer.totals, &result.stats);
            let side = [MachineKind::Baseline, MachineKind::Constable]
                .iter()
                .position(|&k| k == kind);
            if let Some(side) = side {
                let e = tr.time("sim-power.core_energy", || {
                    core_energy(&result.stats, units(kind), &params)
                });
                layer.rat[side] += e.ooo_rat;
                layer.l1d[side] += e.meu_l1d;
            }
            let outcome = RunOutcome {
                workload: spec.name.clone(),
                category: spec.category,
                result,
            };
            let payload = tr.time("experiments.encode_outcome", || encode_outcome(&outcome));
            if let Err(e) = tr.time("result-store.put", || {
                store.put(&key, &payload, cell_digest)
            }) {
                errors.push(format!("store put failed: {e}"));
            }
            written.push((key, cell_digest));
        }
    }
    layer.cells_digest = digest.finish();
    drop(store);

    let mut store = tr
        .time("result-store.open", || ResultStore::open(&store_dir, None))
        .expect("layer store reopens");
    for (key, want) in &written {
        match tr.time("result-store.get", || store.get(key)) {
            GetOutcome::Hit { payload, .. } => {
                match tr.time("experiments.decode_outcome", || decode_outcome(&payload)) {
                    Ok(o) if o.result.stats_digest() == *want => {}
                    Ok(_) => errors.push("decoded cell digest differs".to_string()),
                    Err(e) => errors.push(format!("stored cell does not decode: {e}")),
                }
            }
            _ => errors.push("a cell written by the layer pass reads back as a miss".to_string()),
        }
    }
    layer
}

// ---------------------------------------------------------------- metrics

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self, errors: &mut Vec<String>) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                errors.push(format!("metric {name} is not finite"));
                0.0
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// The wall time of one pass as it runs on a quiet host: the sum over
/// units of each unit's fastest time in `passes`. Other tenants of a
/// shared host slow a unit down for seconds at a time but never speed it
/// up, so the fastest of several short samples is far steadier than any
/// whole-pass time.
fn fastest_pass_s<'a>(passes: impl Iterator<Item = &'a Pass>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for p in passes {
        for (i, &t) in p.unit_s.iter().enumerate() {
            match best.get_mut(i) {
                Some(b) => *b = b.min(t),
                None => best.push(t),
            }
        }
    }
    best.iter().sum()
}

fn complete(passes: &[Pass]) -> impl Iterator<Item = &Pass> {
    passes.iter().filter(|p| p.complete)
}

fn end_to_end(passes: &[Pass], model: &Model) -> Metrics {
    let mut m = Metrics(Vec::new());
    m.push(
        "setup_s",
        median(complete(passes).map(|p| p.setup_s).collect()),
        "s",
    );
    m.push("wall_s", fastest_pass_s(passes.iter()), "s");
    // The first pass runs in a fresh process, as `experiments` does; later
    // passes add heap the allocator kept from earlier ones.
    m.push("peak_rss_mb", passes[0].peak_rss_mb, "MB");
    m.push("constable_speedup", model.speedup, "x");
    m.push("constable_power_ratio", model.power_ratio, "x");
    m
}

fn per_layer(
    passes: &[Pass],
    layer: &Layer,
    tr: &Tracer,
    layer_spans: std::ops::Range<usize>,
) -> Metrics {
    let t = tr.self_times(layer_spans);
    let secs = |name: &str| t.get(name).copied().unwrap_or(0.0);
    let s = &layer.totals;
    let wall = |traced: bool| fastest_pass_s(passes.iter().filter(|p| p.traced == traced));
    let figure_self_s = median(
        complete(passes)
            .filter(|p| p.traced)
            .map(|p| {
                tr.self_times(p.spans.clone())
                    .get("experiments.try_run_figure")
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect(),
    );
    let r0 = &passes[0];
    let mut m = Metrics(Vec::new());
    m.push("sim-core.run_s", secs("sim-core.run"), "s");
    m.push(
        "sim-core.ns_per_uop",
        secs("sim-core.run") * 1e9 / s.retired.max(1) as f64,
        "ns",
    );
    m.push("sim-core.uops", s.retired as f64, "count");
    m.push("sim-core.cycles", s.cycles as f64, "count");
    m.push("sim-core.ipc", ratio(s.retired, s.cycles), "uops/cycle");
    m.push("sim-core.rs_allocs", s.rs_allocs as f64, "count");
    m.push(
        "sim-core.load_port_busy",
        ratio(s.load_utilized_cycles, s.cycles),
        "ratio",
    );
    m.push("sim-mem.l1d_accesses", s.l1d_accesses as f64, "count");
    m.push("sim-mem.l2_accesses", s.l2_accesses as f64, "count");
    m.push("sim-mem.dram_accesses", s.dram_accesses as f64, "count");
    m.push(
        "sim-predictors.branch_mispredicts",
        s.branch_mispredicts as f64,
        "count",
    );
    m.push("sim-predictors.vp_used", s.vp_used as f64, "count");
    m.push("sim-predictors.vp_wrong", s.vp_wrong as f64, "count");
    m.push(
        "sim-predictors.mrn_forwarded",
        s.mrn_forwarded as f64,
        "count",
    );
    m.push(
        "constable.loads_eliminated",
        s.loads_eliminated as f64,
        "count",
    );
    m.push(
        "constable.elim_frac",
        ratio(s.loads_eliminated, s.retired_loads),
        "ratio",
    );
    m.push(
        "constable.elim_violations",
        s.elim_violations as f64,
        "count",
    );
    m.push("constable.sld_reads", s.sld_reads as f64, "count");
    m.push("constable.sld_writes", s.sld_writes as f64, "count");
    m.push("constable.amt_probes", s.amt_probes as f64, "count");
    m.push("constable.cv_pins", s.cv_pins as f64, "count");
    m.push(
        "constable.arm_guard_blocked",
        s.arm_guard_blocked as f64,
        "count",
    );
    m.push("sim-power.ooo_rat_ratio", layer.rat[1] / layer.rat[0], "x");
    m.push("sim-power.meu_l1d_ratio", layer.l1d[1] / layer.l1d[0], "x");
    m.push("sim-workload.build_s", secs("sim-workload.build"), "s");
    m.push("sim-workload.programs", layer.programs as f64, "count");
    m.push(
        "load-inspector.analyze_s",
        secs("load-inspector.analyze"),
        "s",
    );
    m.push("load-inspector.analyses", layer.programs as f64, "count");
    m.push(
        "load-inspector.stable_pcs",
        layer.stable_pcs as f64,
        "count",
    );
    m.push("experiments.figure_self_s", figure_self_s, "s");
    m.push("experiments.cells", r0.cells as f64, "count");
    m.push("experiments.cells_failed", r0.failed as f64, "count");
    m.push(
        "experiments.encode_s",
        secs("experiments.encode_outcome"),
        "s",
    );
    m.push(
        "experiments.decode_s",
        secs("experiments.decode_outcome"),
        "s",
    );
    m.push("result-store.open_s", secs("result-store.open"), "s");
    m.push("result-store.get_s", secs("result-store.get"), "s");
    m.push("result-store.put_s", secs("result-store.put"), "s");
    m.push("result-store.hits", r0.store.hits as f64, "count");
    m.push("result-store.misses", r0.store.misses as f64, "count");
    m.push("result-store.writes", r0.store.writes as f64, "count");
    m.push("trace.wall_s", wall(true), "s");
    m.push("trace.overhead_s", wall(true) - wall(false), "s");
    m
}

// ------------------------------------------------------------------- main

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let args = Args {
        workload: Workload::parse(get("--workload")?).ok_or("unknown --workload")?,
        seed: get("--seed")?.parse().map_err(|_| "--seed takes a u64")?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        },
        out_dir: PathBuf::from(get("--out-dir")?),
    };
    if flags.len() != 5 {
        return Err("unknown flag".to_string());
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(64);
    });
    let w = args.workload;
    let dir = args
        .out_dir
        .join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).expect("output directory is creatable");

    let mut tr = Tracer::new();
    let mut clock = HostClock::new();
    let mut errors = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        // A pass stops before its next unit once the time is up, but only
        // after MIN_PASSES passes ran whole.
        let may_stop = complete(&passes).count() >= MIN_PASSES;
        let out_of_time = || may_stop && started.elapsed().as_secs_f64() >= args.seconds;
        if out_of_time() {
            break;
        }
        // Traced runs alternate untraced and traced passes, so the tracing
        // overhead is measured inside one process.
        tr.on = args.trace && passes.len() % 2 == 1;
        let pass = match w {
            Workload::Fig11 => {
                fig11_pass(args.seed, &mut tr, &mut clock, &mut errors, &out_of_time)
            }
            Workload::All => all_pass(
                args.seed,
                &dir,
                &mut tr,
                &mut clock,
                &mut errors,
                &out_of_time,
            ),
        };
        passes.push(pass);
    }
    let models: Vec<Model> = passes.iter().filter_map(|p| p.model).collect();
    let model = models.first().copied().unwrap_or(Model {
        speedup: f64::NAN,
        power_ratio: f64::NAN,
        cells_digest: 0,
        sim_digest: 0,
    });
    if models.len() != complete(&passes).count() {
        errors.push("a pass produced no simulated metrics".to_string());
    }
    if models.iter().any(|m| *m != model) {
        errors.push("simulated metrics differ between passes".to_string());
    }

    let metrics = if args.trace {
        tr.on = true;
        let from = tr.spans.len();
        let layer = layer_pass(w, args.seed, &dir, &mut tr, &mut errors);
        if layer.cells_digest != model.cells_digest {
            errors.push("layer pass cells differ from the figures' cells".to_string());
        }
        per_layer(&passes, &layer, &tr, from..tr.spans.len())
    } else {
        end_to_end(&passes, &model)
    };
    let spans_file = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    if args.trace {
        tr.write_jsonl(&spans_file).expect("spans file is writable");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let metrics_json = metrics.to_json(&mut errors);
    let list = |f: &dyn Fn(&Pass) -> f64| {
        passes
            .iter()
            .map(|p| format!("{}", f(p)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let errors_json = errors
        .iter()
        .map(|e| format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "'")))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"run_length\":{},\"workers\":{},\
         \"cpus_allowed\":\"{}\",\"passes\":{},\"traced\":[{}],\"complete\":[{}],\"setup_s\":[{}],\
         \"pass_s\":[{}],\"peak_rss_mb\":[{}],\"calibration_s\":{{\"min\":{},\"median\":{},\"max\":{}}},\
         \"attempted\":{},\"failed\":{},\"correct\":{},\"errors\":[{}],\
         \"sim_digest\":\"{:#018x}\",\"cells_digest\":\"{:#018x}\",\"spans_file\":{},\
         \"metrics\":{}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        RunLength::quick().0,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        proc_status("Cpus_allowed_list").unwrap_or_default(),
        passes.len(),
        list(&|p| f64::from(u8::from(p.traced))),
        list(&|p| f64::from(u8::from(p.complete))),
        list(&|p| p.setup_s),
        list(&|p| p.unit_s.iter().sum()),
        list(&|p| p.peak_rss_mb),
        clock.samples.iter().copied().fold(f64::INFINITY, f64::min),
        median(clock.samples.clone()),
        clock.samples.iter().copied().fold(0.0, f64::max),
        passes.iter().map(|p| p.cells).sum::<u64>(),
        passes.iter().map(|p| p.failed).sum::<u64>(),
        errors.is_empty(),
        errors_json,
        model.sim_digest,
        model.cells_digest,
        if args.trace {
            format!("\"{}\"", spans_file.display())
        } else {
            "null".to_string()
        },
        metrics_json,
    );
}
