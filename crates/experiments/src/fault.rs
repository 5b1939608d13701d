//! Per-cell failure forensics for the experiments pipeline.
//!
//! A *cell* is one (workload, configuration) simulation of a figure sweep.
//! When a cell fails — a §8.5 golden divergence, a cycle-guard overrun, a
//! watchdog abort, or an outright panic on its pool worker — the harness
//! quarantines it as a [`CellFailure`]: a self-contained diagnostics bundle
//! (workload id, machine description, store key hash, structured error
//! detail, and a one-line repro command) instead of killing the whole
//! sweep. Healthy cells keep running; the binary prints a quarantine table
//! at the end and exits non-zero.

use crate::configs::MachineKind;
use crate::runner::RunLength;
use constable::IdealOracle;
use result_store::StoreKey;
use sim_core::{CoreConfig, SimError};

/// The result of one sweep cell: a completed run, or its quarantine record.
pub type CellOutcome = Result<crate::runner::RunOutcome, CellFailure>;

/// Diagnostics bundle of one quarantined sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Workload id (an SMT2 pairing joins both names with `+`).
    pub workload: String,
    /// Human description of the machine (slug + depth scale when the
    /// logical config resolves to a known machine kind, the store key hash
    /// otherwise).
    pub machine: String,
    /// [`StoreKey::hash`] of the cell's store key, the one identity the
    /// sweep engine files a cell under: its record in a store is
    /// `objects/<key_hash>.rec`. Zero for a store that could not be opened.
    pub key_hash: u64,
    /// Stable failure class: `golden-mismatch`, `cycle-guard`, `watchdog`,
    /// or `panic`.
    pub kind: &'static str,
    /// Full error text: the [`SimError`] display (first-divergence report,
    /// frozen watchdog snapshot, …) or the worker's panic payload.
    pub detail: String,
    /// Whether the storage fault planner (`--io-chaos`) caused this
    /// failure; only store defects can carry it.
    pub injected: bool,
    /// One-line command reproducing the cell in isolation, when the
    /// logical config resolves to a `cell`-subcommand machine.
    pub repro: Option<String>,
}

impl CellFailure {
    /// Builds the bundle for a structured simulation error. `cfg` is the
    /// cell's *logical* config (before the harness layers its watchdog
    /// budget on top), the one `key` was assembled from.
    pub fn from_error(
        workload: &str,
        key: &StoreKey,
        cfg: &CoreConfig,
        n: RunLength,
        err: &SimError,
    ) -> Self {
        Self::build(workload, key, cfg, n, err.kind(), err.to_string(), false)
    }

    /// Builds the bundle for a persistent-store defect discovered while
    /// answering (or failing to answer) this cell from disk: the damaged
    /// record is already quarantined inside the store; this entry carries
    /// its forensics (defect class, file, offset, expected/actual
    /// checksum) into the end-of-run quarantine table. The cell itself
    /// recomputes as a miss — store damage never costs correctness.
    pub fn from_store_defect(
        defect: &result_store::StoreDefect,
        workload: &str,
        key: &StoreKey,
        cfg: &CoreConfig,
        n: RunLength,
    ) -> Self {
        Self::build(
            workload,
            key,
            cfg,
            n,
            defect.kind.slug(),
            defect.detail(),
            defect.injected,
        )
    }

    /// Builds the bundle for a store that could not be opened at all (its
    /// directory could not be created): the sweep runs store-less, and the
    /// environmental failure still lands in the quarantine table.
    pub fn from_store_error(dir: &str, detail: String) -> Self {
        CellFailure {
            workload: "(store)".to_string(),
            machine: dir.to_string(),
            key_hash: 0,
            kind: "store-io",
            detail,
            injected: false,
            repro: None,
        }
    }

    /// Builds the bundle for a job that panicked on its pool worker.
    pub fn from_panic(
        workload: &str,
        key: &StoreKey,
        cfg: &CoreConfig,
        n: RunLength,
        payload: String,
    ) -> Self {
        Self::build(workload, key, cfg, n, "panic", payload, false)
    }

    fn build(
        workload: &str,
        key: &StoreKey,
        cfg: &CoreConfig,
        n: RunLength,
        kind: &'static str,
        detail: String,
        injected: bool,
    ) -> Self {
        let key_hash = key.hash();
        let resolved = resolve_machine(cfg);
        let machine = match resolved {
            Some((k, depth)) if depth != 1.0 => {
                format!("{} (depth-scale {depth})", k.slug())
            }
            Some((k, _)) => k.slug().to_string(),
            None => format!("key {key_hash:#018x}"),
        };
        let repro = resolved.map(|(k, depth)| {
            let mut cmd = format!(
                "cargo run --release -p experiments -- cell {workload} {}",
                k.slug()
            );
            if depth != 1.0 {
                cmd.push_str(&format!(" --depth-scale {depth}"));
            }
            if n == RunLength::quick() {
                cmd.push_str(" --quick");
            } else if n != RunLength::full() {
                cmd.push_str(&format!(" --len {}", n.0));
            }
            cmd
        });
        CellFailure {
            workload: workload.to_string(),
            machine,
            key_hash,
            kind,
            detail,
            injected,
            repro,
        }
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}{}] {} on {}: {}",
            self.kind,
            if self.injected {
                ", chaos-injected"
            } else {
                ""
            },
            self.workload,
            self.machine,
            self.detail
        )?;
        if let Some(repro) = &self.repro {
            write!(f, "\n    repro: {repro}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CellFailure {}

/// Maps a logical cell config back to the (machine kind, depth scale) that
/// produces it, comparing stable encodings against every kind × the depth
/// scales the harness sweeps. An oracle-carrying kind is rebuilt with the
/// cell's own oracle, the one the `cell` subcommand recomputes. Cold path —
/// only runs when a cell is being quarantined; a config no kind produces
/// falls back to the store key hash in the bundle.
pub fn resolve_machine(cfg: &CoreConfig) -> Option<(MachineKind, f64)> {
    let encode = |c: &CoreConfig| {
        let mut out = Vec::new();
        c.stable_encode(&mut out);
        out
    };
    let target = encode(cfg);
    for kind in MachineKind::ALL {
        let oracle = if kind.needs_oracle() {
            cfg.oracle.clone()
        } else {
            IdealOracle::default()
        };
        let base = kind.config(oracle);
        for depth in [1.0f64, 2.0, 3.0, 4.0] {
            let candidate = if depth != 1.0 {
                base.clone().with_depth_scale(depth)
            } else {
                base.clone()
            };
            if encode(&candidate) == target {
                return Some((kind, depth));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_resolve_back_to_machines() {
        let elar = MachineKind::ElarConstable.config(IdealOracle::default());
        assert_eq!(
            resolve_machine(&elar),
            Some((MachineKind::ElarConstable, 1.0))
        );
        let deep = MachineKind::Constable
            .config(IdealOracle::default())
            .with_depth_scale(3.0);
        assert_eq!(resolve_machine(&deep), Some((MachineKind::Constable, 3.0)));
        let mut unknown = MachineKind::Baseline.config(IdealOracle::default());
        unknown.rob_size = 7;
        assert_eq!(resolve_machine(&unknown), None);
        let f = CellFailure::from_panic(
            "520.omnetpp_r.t1",
            &StoreKey::new(),
            &unknown,
            RunLength::quick(),
            "boom".into(),
        );
        assert_eq!(f.machine, format!("key {:#018x}", StoreKey::new().hash()));
        assert_eq!(f.repro, None);
    }

    #[test]
    fn bundle_carries_a_repro_line() {
        let cfg = MachineKind::Constable
            .config(IdealOracle::default())
            .with_depth_scale(3.0);
        let key = StoreKey::new();
        let f = CellFailure::from_panic(
            "520.omnetpp_r.t1",
            &key,
            &cfg,
            RunLength::quick(),
            "boom".into(),
        );
        assert_eq!(f.kind, "panic");
        assert_eq!(f.key_hash, key.hash());
        let repro = f.repro.as_deref().expect("resolvable machine");
        assert_eq!(
            repro,
            "cargo run --release -p experiments -- cell 520.omnetpp_r.t1 constable \
             --depth-scale 3 --quick"
        );
        let shown = f.to_string();
        assert!(shown.contains("depth-scale 3"), "{shown}");
        assert!(shown.contains("boom"), "{shown}");
    }

    /// A cell of an oracle-carrying machine resolves with its own oracle,
    /// so its bundle names the machine and carries a repro line.
    #[test]
    fn oracle_machines_resolve_with_their_own_oracle() {
        let cfg = MachineKind::IdealConstable.config(IdealOracle::new([0x400u64, 0x404]));
        assert_eq!(
            resolve_machine(&cfg),
            Some((MachineKind::IdealConstable, 1.0))
        );
        let f = CellFailure::from_panic(
            "520.omnetpp_r.t1",
            &StoreKey::new(),
            &cfg,
            RunLength::quick(),
            "boom".into(),
        );
        assert_eq!(f.machine, "ideal-constable");
        assert_eq!(
            f.repro.as_deref(),
            Some("cargo run --release -p experiments -- cell 520.omnetpp_r.t1 ideal-constable --quick")
        );
    }

    /// A §8.5 divergence on a Constable-eliminated load is quarantined as
    /// `golden-mismatch` with its first-divergence forensics, a repro line,
    /// and no injected mark (only the storage fault planner sets one).
    #[test]
    fn golden_mismatch_bundle_carries_the_first_divergence() {
        let cfg = MachineKind::Constable.config(IdealOracle::default());
        let first = sim_core::GoldenMismatch {
            thread: 0,
            seq: 42,
            pc: 0x400,
            addr: 0x8000,
            expect_addr: 0x8000,
            value: 7,
            expect_value: 9,
            eliminated: true,
            cycle: 1234,
        };
        let err = SimError::GoldenMismatch {
            count: 1,
            first: Some(first),
        };
        let f = CellFailure::from_error(
            "520.omnetpp_r.t1",
            &StoreKey::new(),
            &cfg,
            RunLength::quick(),
            &err,
        );
        assert_eq!(f.kind, "golden-mismatch");
        assert!(!f.injected);
        assert!(f.detail.contains("Constable-eliminated"), "{f}");
        let shown = f.to_string();
        assert!(shown.contains("repro: cargo run"), "{shown}");
        assert!(!shown.contains("chaos-injected"), "{shown}");
    }
}
