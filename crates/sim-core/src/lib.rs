//! # sim-core — the cycle-accurate out-of-order core model
//!
//! A trace-driven, Golden-Cove-class performance model of the paper's
//! baseline (Table 2) with every optional unit of §8.4: EVES, ELAR, RFP,
//! and Constable, plus 2-way SMT and the ideal-oracle configurations of
//! the headroom study (Fig 7). See [`Core`] and [`CoreConfig`].
//!
//! ```no_run
//! use sim_core::{Core, CoreConfig};
//! use sim_workload::suite_subset;
//!
//! let spec = &suite_subset(1)[0];
//! let program = spec.build();
//! let mut core = Core::new(&program, CoreConfig::golden_cove_like().with_constable());
//! let result = core.run(100_000);
//! println!("IPC = {:.3}", result.ipc());
//! ```

mod config;
mod core;
mod fault;
mod hash;
mod pctab;
mod sched;
mod stats;
mod trace;
mod uop;

pub use crate::core::{Core, SimResult};
pub use config::CoreConfig;
pub use fault::{FrozenSnapshot, GoldenMismatch, SimError};
pub use hash::FastHashMap;
pub use sched::SimScratch;
pub use sim_mem::TraceDigest;
pub use stats::{CoreStats, StallClass};
pub use trace::{TraceRecorder, TraceSummary, UopTrace, NO_CYCLE};
pub use uop::{Fetched, Tag, Uop, UopState};
