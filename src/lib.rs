//! # constable-repro — reproduction of *Constable* (ISCA 2024)
//!
//! Umbrella crate re-exporting the workspace's public API:
//!
//! * [`constable`] — the paper's mechanism (SLD / RMT / AMT / xPRF);
//! * [`sim_core`] — the cycle-accurate out-of-order core (Table 2 baseline);
//! * [`sim_workload`] — the synthetic 90-trace workload suite;
//! * [`sim_mem`], [`sim_predictors`], [`sim_isa`], [`sim_stats`] — substrates;
//! * [`load_inspector`] — global-stable load analysis (§4);
//! * [`sim_power`] — the event-based power model (§8.2);
//! * [`experiments`] — one runner per paper table/figure.
//!
//! Paper-vs-measured results come from the figure functions in
//! [`experiments::figures`]; `ROADMAP.md` records the current fidelity
//! numbers and the open fidelity gap.

pub use constable;
pub use experiments;
pub use load_inspector;
pub use sim_core;
pub use sim_isa;
pub use sim_mem;
pub use sim_power;
pub use sim_predictors;
pub use sim_stats;
pub use sim_workload;
