//! # sim-mem — memory hierarchy substrate
//!
//! From-scratch model of everything below the core's load/store ports, per
//! the paper's Table 2 baseline: L1-D/L2/LLC caches (LRU and an SRRIP
//! stand-in for the dead-block-aware LLC policy), a PC-stride prefetcher at
//! L1 plus streamer and SPP-style prefetchers at L2, a banked open-row
//! DDR4-like DRAM model, and directory coherence with core-valid (CV) bits
//! including the **CV-bit pinning** mechanism Constable adds (§6.6).
//!
//! ```
//! use sim_mem::{EvictionSink, MemConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::golden_cove_like());
//! let mut sink = EvictionSink::default(); // disabled: no AMT-I consumer
//! let miss = mem.load(0x400, 0xdead00, 0, &mut sink);
//! let hit = mem.load(0x400, 0xdead08, miss.latency, &mut sink);
//! assert!(hit.latency < miss.latency);
//! ```

mod cache;
mod coherence;
mod digest;
mod dram;
mod hierarchy;
mod prefetch;

pub use cache::{
    line_addr, Cache, CacheStats, FillPlan, InsertResult, LookupResult, Replacement, LINE_BYTES,
};
pub use coherence::{Directory, Snoop, SnoopInjector};
pub use digest::{splitmix64, TraceDigest};
pub use dram::{Dram, DramConfig, DramStats};
pub use hierarchy::{
    AccessOutcome, EvictionSink, HierarchyStats, HitLevel, MemConfig, MemoryHierarchy,
};
pub use prefetch::{PrefetchReq, SppLite, StreamPrefetcher, StridePrefetcher};
