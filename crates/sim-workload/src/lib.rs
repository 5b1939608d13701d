//! # sim-workload — synthetic programs and the workload suite
//!
//! The paper evaluates Constable on 90 proprietary workload traces (§8.3).
//! This crate is the from-scratch substitute: a tiny assembler-like
//! [`ProgramBuilder`], a library of kernel templates modeled on the paper's
//! root-cause analysis of *why* global-stable loads exist (§4.2), a
//! functional executor ([`Machine`]) that produces the dynamic instruction
//! stream with real architectural values, and a 90-trace [`suite`] organized
//! into the paper's five categories.
//!
//! ```
//! use sim_workload::{suite_subset, Machine};
//!
//! let spec = &suite_subset(1)[0];
//! let program = spec.build();
//! let mut machine = Machine::new(&program);
//! let rec = machine.step();
//! assert_eq!(rec.seq, 0);
//! ```

mod exec;
mod kernels;
mod program;
mod suite;

pub use exec::{Machine, Memory};
pub use kernels::{KernelCtx, KernelKind, ARG_SLOT_DISP, MAIN_FRAME};
pub use program::{direct_target, Label, Program, ProgramBuilder, DATA_BASE, STACK_TOP};
pub use suite::{memory_stress, suite, suite_subset, Category, WorkloadSpec};
