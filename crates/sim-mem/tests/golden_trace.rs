//! Golden-trace equivalence lock for the memory hierarchy.
//!
//! A fixed, deterministic access script (streams, set-conflict strides,
//! pseudo-random probes, stores, and periodic snoops, with prefetchers
//! enabled) is replayed through [`MemoryHierarchy`]; the exact per-access
//! `(latency, level, eviction-count, eviction-sum)` sequence and the final
//! hierarchy/cache/DRAM counters are compared against committed constants.
//!
//! The constants were captured from the array-of-structs cache model that
//! predates the data-oriented (SoA) rewrite; any refactor of `sim-mem`'s
//! access path must reproduce them bit-for-bit. Regenerate (only when the
//! *modelled* behavior intentionally changes) with:
//!
//! ```text
//! SIM_MEM_GOLDEN_PRINT=1 cargo test -p sim-mem --test golden_trace -- --nocapture
//! ```

use sim_mem::{
    line_addr, DramConfig, EvictionSink, HitLevel, MemConfig, MemoryHierarchy, TraceDigest,
};

const N: usize = 10_000;

/// One observed access: (latency, level, l1-eviction count, eviction sum).
type Obs = (u64, u8, u64, u64);

fn small_cfg() -> MemConfig {
    MemConfig {
        l1_bytes: 8 * 1024,
        l1_ways: 4,
        l1_latency: 5,
        l2_bytes: 64 * 1024,
        l2_ways: 8,
        l2_latency: 12,
        llc_bytes: 256 * 1024,
        llc_ways: 8,
        llc_latency: 50,
        dram: DramConfig::default(),
        l1_prefetch: true,
        l2_prefetch: true,
    }
}

fn level_code(level: HitLevel) -> u8 {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::Llc => 2,
        HitLevel::Dram => 3,
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Replays the fixed script on `m`, returning every observation in order.
fn run_script(m: &mut MemoryHierarchy) -> Vec<Obs> {
    let mut sink = EvictionSink::new(true);
    let mut out = Vec::with_capacity(N);
    let mut now = 0u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut last_addr = 0x10_0000u64;
    for i in 0..N {
        x = lcg(x);
        let i64_ = i as u64;
        let (latency, level, count, sum) = match i % 7 {
            // Two stream phases: unit-stride lines (prefetch-friendly).
            0 | 1 => {
                let addr = 0x10_0000 + i64_ * 64;
                last_addr = addr;
                observe(m.load(0x400, addr, now, &mut sink), &mut sink)
            }
            // Set-conflict stride: hammers a handful of L1/L2 sets.
            2 => {
                let addr = 0x20_0000 + (i64_ % 512) * 1024;
                last_addr = addr;
                observe(m.load(0x404, addr, now, &mut sink), &mut sink)
            }
            // Pseudo-random probes over a 1 MiB footprint.
            3 => {
                let addr = (0x40_0000 + (x % (1 << 20))) & !7;
                last_addr = addr;
                observe(m.load(0x408, addr, now, &mut sink), &mut sink)
            }
            // Store commits over a 64 KiB region (write-allocate path).
            4 => {
                let addr = (0x60_0000 + (x % (1 << 16))) & !7;
                observe(m.store_commit(addr, now, &mut sink), &mut sink)
            }
            // Hot-set revisits: mostly L1 hits.
            5 => {
                let addr = 0x10_0000 + ((x >> 8) % 256) * 64;
                last_addr = addr;
                observe(m.load(0x40c, addr, now, &mut sink), &mut sink)
            }
            // Short backward stride (negative-direction streamer training).
            _ => {
                let addr = 0x80_0000u64.wrapping_sub((i64_ % 300) * 64);
                last_addr = addr;
                observe(m.load(0x410, addr, now, &mut sink), &mut sink)
            }
        };
        out.push((latency, level, count, sum));
        if i % 97 == 96 {
            m.snoop_invalidate(line_addr(last_addr));
        }
        // Advance time data-dependently so fill_wait/ready_at paths fire.
        now += latency / 2 + 1;
    }
    out
}

/// Extracts the locked tuple from one access outcome and drains the sink.
fn observe(out: sim_mem::AccessOutcome, sink: &mut EvictionSink) -> Obs {
    let count = (sink.inline_lines().len() + sink.spill_lines().len()) as u64;
    let sum = sink.inline_lines().iter().sum::<u64>() + sink.spill_lines().iter().sum::<u64>();
    sink.clear();
    (out.latency, level_code(out.level), count, sum)
}

fn digest_of(obs: &[Obs]) -> u64 {
    // Shared digest plumbing: the same word-stream FNV-1a the sim-core
    // scheduling trace oracle folds its records with.
    let mut d = TraceDigest::new();
    for &(lat, lvl, cnt, sum) in obs {
        d.update_all([lat, u64::from(lvl), cnt, sum]);
    }
    d.finish()
}

/// Expected digest over all 10 000 observations.
const GOLDEN_DIGEST: u64 = 0x60B9_7A6C_A774_32F7;

/// Expected first observations, verbatim.
const GOLDEN_HEAD: &[Obs] = &[
    (199, 3, 0, 0),
    (199, 3, 0, 0),
    (199, 3, 0, 0),
    (199, 3, 0, 0),
    (5, 0, 0, 0),
    (199, 3, 0, 0),
    (199, 3, 0, 0),
    (129, 3, 0, 0),
    (64, 0, 0, 0),
    (199, 3, 0, 0),
    (269, 3, 0, 0),
    (5, 0, 0, 0),
    (129, 3, 0, 0),
    (199, 3, 0, 0),
    (129, 3, 0, 0),
    (129, 3, 0, 0),
    (199, 3, 0, 0),
    (199, 3, 0, 0),
    (5, 0, 0, 0),
    (199, 3, 0, 0),
    (199, 3, 0, 0),
];

/// Expected final counters, in the order printed by the generator.
const GOLDEN_STATS: &[(&str, u64)] = &[
    ("loads", 8572),
    ("stores", 1428),
    ("snoops", 103),
    ("l1_hits", 4246),
    ("l2_hits", 783),
    ("llc_hits", 1039),
    ("dram_accesses", 3932),
    ("l1.accesses", 11413),
    ("l1.hits", 5659),
    ("l1.evictions", 12637),
    ("l1.writebacks", 1398),
    ("l1.prefetch_fills", 7113),
    ("l1.prefetch_useful", 4154),
    ("l2.accesses", 5754),
    ("l2.hits", 783),
    ("l2.evictions", 10524),
    ("l2.writebacks", 0),
    ("l2.prefetch_fills", 6679),
    ("l2.prefetch_useful", 173),
    ("llc.accesses", 4971),
    ("llc.hits", 1039),
    ("llc.evictions", 386),
    ("llc.writebacks", 0),
    ("llc.prefetch_fills", 0),
    ("llc.prefetch_useful", 0),
];

fn collect_stats(m: &MemoryHierarchy) -> Vec<(&'static str, u64)> {
    let h = m.stats();
    let (l1, l2, llc) = m.cache_stats();
    let mut out = vec![
        ("loads", h.loads.get()),
        ("stores", h.stores.get()),
        ("snoops", h.snoops.get()),
        ("l1_hits", h.l1_hits.get()),
        ("l2_hits", h.l2_hits.get()),
        ("llc_hits", h.llc_hits.get()),
        ("dram_accesses", h.dram_accesses.get()),
    ];
    const CACHE_KEYS: [[&str; 6]; 3] = [
        [
            "l1.accesses",
            "l1.hits",
            "l1.evictions",
            "l1.writebacks",
            "l1.prefetch_fills",
            "l1.prefetch_useful",
        ],
        [
            "l2.accesses",
            "l2.hits",
            "l2.evictions",
            "l2.writebacks",
            "l2.prefetch_fills",
            "l2.prefetch_useful",
        ],
        [
            "llc.accesses",
            "llc.hits",
            "llc.evictions",
            "llc.writebacks",
            "llc.prefetch_fills",
            "llc.prefetch_useful",
        ],
    ];
    for (keys, c) in CACHE_KEYS.iter().zip([l1, l2, llc]) {
        let vals = [
            c.accesses.get(),
            c.hits.get(),
            c.evictions.get(),
            c.writebacks.get(),
            c.prefetch_fills.get(),
            c.prefetch_useful.get(),
        ];
        out.extend(keys.iter().copied().zip(vals));
    }
    out
}

/// Asserts one replay of the script against the committed constants.
fn assert_golden(obs: &[Obs], m: &MemoryHierarchy, pass: &str) {
    for (i, (got, want)) in obs.iter().zip(GOLDEN_HEAD).enumerate() {
        assert_eq!(
            got, want,
            "{pass}: access {i} diverged from the golden trace"
        );
    }
    for ((k, got), (wk, want)) in collect_stats(m).iter().zip(GOLDEN_STATS) {
        assert_eq!(k, wk, "stat ordering changed");
        assert_eq!(got, want, "{pass}: final counter {k} diverged");
    }
    assert_eq!(
        digest_of(obs),
        GOLDEN_DIGEST,
        "{pass}: per-access (latency, level, evictions) sequence diverged"
    );
}

#[test]
fn memory_hierarchy_matches_golden_trace() {
    let mut m = MemoryHierarchy::new(small_cfg());
    let obs = run_script(&mut m);

    if std::env::var_os("SIM_MEM_GOLDEN_PRINT").is_some() {
        println!("const GOLDEN_DIGEST: u64 = {:#018X};", digest_of(&obs));
        println!("const GOLDEN_HEAD: &[Obs] = &[");
        for o in obs.iter().take(21) {
            println!("    ({}, {}, {}, {}),", o.0, o.1, o.2, o.3);
        }
        println!("];");
        println!("const GOLDEN_STATS: &[(&str, u64)] = &[");
        for (k, v) in &collect_stats(&m) {
            println!("    (\"{k}\", {v}),");
        }
        println!("];");
        return;
    }
    assert_golden(&obs, &m, "fresh");
}

/// A reset hierarchy is indistinguishable from a fresh one: the script's
/// second pass on the same (reset) hierarchy reproduces the goldens. The
/// script's stores, prefetch fills, snoop invalidations and SRRIP LLC
/// leave dirty and prefetched bits and replacement metadata behind for the
/// reset to clear.
#[test]
fn reset_hierarchy_replays_the_golden_trace() {
    let mut m = MemoryHierarchy::new(small_cfg());
    let first = run_script(&mut m);
    assert_golden(&first, &m, "first pass");
    m.reset();
    let second = run_script(&mut m);
    assert_golden(&second, &m, "after reset");
    assert_eq!(first, second, "reset changed the per-access trace");
}
