//! Core configuration (paper Table 2, plus the optional units of §8.4).

use constable::{ConstableConfig, IdealConfig, IdealOracle};
use sim_mem::MemConfig;

/// Full machine configuration.
///
/// [`CoreConfig::golden_cove_like`] reproduces the paper's baseline: a
/// 6-wide out-of-order x86-64-class core at 3.2 GHz with Memory Renaming and
/// the rename-stage dynamic optimizations (zero/move elimination, constant
/// and branch folding) **enabled in the baseline**, per §8.1.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    // Widths.
    pub fetch_width: u32,
    pub decode_width: u32,
    pub rename_width: u32,
    pub issue_width: u32,
    pub retire_width: u32,
    // Window sizes.
    pub idq_size: usize,
    pub rob_size: usize,
    pub rs_size: usize,
    pub lb_size: usize,
    pub sb_size: usize,
    // Execution ports (Table 2: 5 ALU, 3 AGU+load, 2 store-address,
    // 2 store-data).
    pub alu_ports: u32,
    pub load_ports: u32,
    pub sta_ports: u32,
    pub std_ports: u32,
    // Latencies (cycles).
    pub alu_latency: u64,
    pub mul_latency: u64,
    pub div_latency: u64,
    pub agu_latency: u64,
    /// Front-end redirect bubbles after a resolved misprediction (the
    /// end-to-end penalty including refill ≈ 20 cycles, Table 2).
    pub redirect_bubbles: u64,
    // Memory hierarchy.
    pub mem: MemConfig,
    // Baseline rename optimizations (§8.1).
    pub mrn: bool,
    pub move_zero_elimination: bool,
    pub constant_folding: bool,
    pub branch_folding: bool,
    // Optional units (§8.4).
    pub eves: bool,
    pub elar: bool,
    pub rfp: bool,
    pub constable: Option<ConstableConfig>,
    /// Oracle-driven ideal configuration (Fig 7); requires `oracle`.
    pub ideal: Option<IdealConfig>,
    /// Global-stable PC oracle for ideal configurations and Fig 6 port
    /// attribution.
    pub oracle: IdealOracle,
    // Environment.
    /// Synthetic cross-core snoop rate (per 10k retired instructions).
    pub snoop_rate_per_10k: u32,
    /// Model wrong-path fetch/rename after mispredictions.
    pub wrong_path_fetch: bool,
    /// Deterministic seed for the snoop injector.
    pub seed: u64,
    /// Track per-PC load/elimination counts (Fig 17 coverage breakdown);
    /// off by default to keep runs lean.
    pub track_per_pc: bool,
    /// Forward-progress watchdog: abort the run (freezing a state snapshot
    /// into [`crate::SimResult::watchdog`]) when no thread retires anything
    /// for this many cycles. `None` (the default) disables the check — the
    /// golden/benchmark configurations never pay for it; the experiments
    /// harness enables it so a wedged cell degrades to a structured error
    /// long before the generous cycle guard would fire. Must be set well
    /// above the longest legitimate no-retire span (a dependent DRAM-miss
    /// chain is a few thousand cycles).
    pub watchdog_no_retire: Option<u64>,
    /// Test-only fault-injection knob: stop retiring (while the rest of
    /// the pipeline keeps running and then starves) once this many
    /// instructions have retired, wedging the core deterministically.
    /// `None` always, outside the watchdog and quarantine tests.
    pub wedge_after_retire: Option<u64>,
    /// Event-driven scheduling shortcuts (idle-cycle fast-forward and the
    /// issue-quiescence memo), applied to single-thread and SMT2 runs
    /// alike — the parity-free frontend rotor makes multi-thread idleness
    /// monotonic, so whole SMT2 stall spans fast-forward too. On by
    /// default; a pure host-performance knob — results and trace digests
    /// are bit-identical either way, which the shortcut-validation tests
    /// assert by force-disabling it. Leave it on outside those tests.
    pub event_shortcuts: bool,
}

impl CoreConfig {
    /// The paper's baseline machine (Table 2).
    pub fn golden_cove_like() -> Self {
        CoreConfig {
            fetch_width: 8,
            decode_width: 6,
            rename_width: 6,
            issue_width: 6,
            retire_width: 6,
            idq_size: 144,
            rob_size: 512,
            rs_size: 248,
            lb_size: 240,
            sb_size: 112,
            alu_ports: 5,
            load_ports: 3,
            sta_ports: 2,
            std_ports: 2,
            alu_latency: 1,
            mul_latency: 4,
            div_latency: 18,
            agu_latency: 1,
            redirect_bubbles: 10,
            mem: MemConfig::golden_cove_like(),
            mrn: true,
            move_zero_elimination: true,
            constant_folding: true,
            branch_folding: true,
            eves: false,
            elar: false,
            rfp: false,
            constable: None,
            ideal: None,
            oracle: IdealOracle::default(),
            snoop_rate_per_10k: 2,
            wrong_path_fetch: true,
            seed: 0xC0FFEE,
            track_per_pc: false,
            watchdog_no_retire: None,
            wedge_after_retire: None,
            event_shortcuts: true,
        }
    }

    /// Appends the stable on-disk key encoding of **every** configuration
    /// field to `out` — the `CoreConfig` component of the result-store key
    /// format, and through it the one identity a sweep cell has (its
    /// in-process memo key too). It is an explicit little-endian byte
    /// encoding in declaration order, so two processes — or two builds —
    /// produce byte-identical keys for the same machine.
    ///
    /// The destructuring is exhaustive on purpose: adding a `CoreConfig`
    /// field breaks this function at compile time, forcing the new field
    /// into the encoding; the key-format guard test in `result-store`
    /// additionally fails until `result_store::KEY_FORMAT_VERSION` is
    /// bumped, so old store entries can never be misread as the new layout.
    pub fn stable_encode(&self, out: &mut Vec<u8>) {
        let CoreConfig {
            fetch_width,
            decode_width,
            rename_width,
            issue_width,
            retire_width,
            idq_size,
            rob_size,
            rs_size,
            lb_size,
            sb_size,
            alu_ports,
            load_ports,
            sta_ports,
            std_ports,
            alu_latency,
            mul_latency,
            div_latency,
            agu_latency,
            redirect_bubbles,
            mem,
            mrn,
            move_zero_elimination,
            constant_folding,
            branch_folding,
            eves,
            elar,
            rfp,
            constable,
            ideal,
            oracle,
            snoop_rate_per_10k,
            wrong_path_fetch,
            seed,
            track_per_pc,
            watchdog_no_retire,
            wedge_after_retire,
            event_shortcuts,
        } = self;
        for v in [
            u64::from(*fetch_width),
            u64::from(*decode_width),
            u64::from(*rename_width),
            u64::from(*issue_width),
            u64::from(*retire_width),
            *idq_size as u64,
            *rob_size as u64,
            *rs_size as u64,
            *lb_size as u64,
            *sb_size as u64,
            u64::from(*alu_ports),
            u64::from(*load_ports),
            u64::from(*sta_ports),
            u64::from(*std_ports),
            *alu_latency,
            *mul_latency,
            *div_latency,
            *agu_latency,
            *redirect_bubbles,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        mem.stable_encode(out);
        for b in [
            *mrn,
            *move_zero_elimination,
            *constant_folding,
            *branch_folding,
            *eves,
            *elar,
            *rfp,
        ] {
            out.push(u8::from(b));
        }
        match constable {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                c.stable_encode(out);
            }
        }
        out.push(ideal.map_or(0, |i| i.stable_code()));
        // Oracle PC set in sorted order, so the encoding is independent of
        // the set's insertion order.
        let pcs = oracle.sorted_pcs();
        out.extend_from_slice(&(pcs.len() as u64).to_le_bytes());
        for pc in pcs {
            out.extend_from_slice(&pc.to_le_bytes());
        }
        out.extend_from_slice(&u64::from(*snoop_rate_per_10k).to_le_bytes());
        out.push(u8::from(*wrong_path_fetch));
        out.extend_from_slice(&seed.to_le_bytes());
        out.push(u8::from(*track_per_pc));
        for opt in [watchdog_no_retire, wedge_after_retire] {
            match opt {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out.push(u8::from(*event_shortcuts));
    }

    /// Baseline + Constable (the paper's headline configuration).
    pub fn with_constable(mut self) -> Self {
        self.constable = Some(ConstableConfig::paper());
        self
    }

    /// Baseline + the EVES load value predictor.
    pub fn with_eves(mut self) -> Self {
        self.eves = true;
        self
    }

    /// Scales the load execution width (Fig 20a sweep; both AGU and load
    /// ports in the paper's terms).
    pub fn with_load_ports(mut self, ports: u32) -> Self {
        self.load_ports = ports;
        self
    }

    /// Scales pipeline depth resources: ROB, RS, LB, SB (Fig 20b sweep).
    pub fn with_depth_scale(mut self, factor: f64) -> Self {
        let scale = |v: usize| ((v as f64 * factor) as usize).max(16);
        self.rob_size = scale(self.rob_size);
        self.rs_size = scale(self.rs_size);
        self.lb_size = scale(self.lb_size);
        self.sb_size = scale(self.sb_size);
        self
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::golden_cove_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = CoreConfig::golden_cove_like();
        assert_eq!(c.rename_width, 6);
        assert_eq!(c.rob_size, 512);
        assert_eq!(c.rs_size, 248);
        assert_eq!(c.lb_size, 240);
        assert_eq!(c.sb_size, 112);
        assert_eq!(c.load_ports, 3);
        assert!(c.mrn, "MRN is part of the baseline");
        assert!(c.constable.is_none(), "Constable is optional");
    }

    #[test]
    fn depth_scaling_multiplies_window_resources() {
        let c = CoreConfig::golden_cove_like().with_depth_scale(2.0);
        assert_eq!(c.rob_size, 1024);
        assert_eq!(c.rs_size, 496);
    }

    /// One config per mutable field, for the separation test below.
    fn field_variants() -> Vec<(&'static str, CoreConfig)> {
        use constable::{ConstableConfig, IdealConfig, IdealOracle};

        let base = CoreConfig::golden_cove_like;
        let mut variants: Vec<(&'static str, CoreConfig)> = vec![("base", base())];
        let mut push = |name: &'static str, f: &dyn Fn(&mut CoreConfig)| {
            let mut c = base();
            f(&mut c);
            variants.push((name, c));
        };
        push("fetch_width", &|c| c.fetch_width = 9);
        push("decode_width", &|c| c.decode_width = 7);
        push("rename_width", &|c| c.rename_width = 7);
        push("issue_width", &|c| c.issue_width = 7);
        push("retire_width", &|c| c.retire_width = 7);
        push("idq_size", &|c| c.idq_size = 145);
        push("rob_size", &|c| c.rob_size = 513);
        push("rs_size", &|c| c.rs_size = 249);
        push("lb_size", &|c| c.lb_size = 241);
        push("sb_size", &|c| c.sb_size = 113);
        push("alu_ports", &|c| c.alu_ports = 6);
        push("load_ports", &|c| c.load_ports = 4);
        push("sta_ports", &|c| c.sta_ports = 3);
        push("std_ports", &|c| c.std_ports = 3);
        push("alu_latency", &|c| c.alu_latency = 2);
        push("mul_latency", &|c| c.mul_latency = 5);
        push("div_latency", &|c| c.div_latency = 19);
        push("agu_latency", &|c| c.agu_latency = 2);
        push("redirect_bubbles", &|c| c.redirect_bubbles = 11);
        push("mem.l1_latency", &|c| c.mem.l1_latency = 6);
        push("mem.l2_bytes", &|c| c.mem.l2_bytes *= 2);
        push("mem.dram.t_cas", &|c| c.mem.dram.t_cas += 1);
        push("mem.l1_prefetch", &|c| c.mem.l1_prefetch = false);
        push("mrn", &|c| c.mrn = false);
        push("move_zero_elimination", &|c| {
            c.move_zero_elimination = false
        });
        push("constant_folding", &|c| c.constant_folding = false);
        push("branch_folding", &|c| c.branch_folding = false);
        push("eves", &|c| c.eves = true);
        push("elar", &|c| c.elar = true);
        push("rfp", &|c| c.rfp = true);
        push("constable", &|c| {
            c.constable = Some(ConstableConfig::paper())
        });
        push("constable.sld_ways", &|c| {
            c.constable = Some(ConstableConfig {
                sld_ways: 8,
                ..ConstableConfig::paper()
            });
        });
        push("constable.threshold", &|c| {
            c.constable = Some(ConstableConfig {
                confidence_threshold: 29,
                ..ConstableConfig::paper()
            });
        });
        push("constable.amt_full_address", &|c| {
            c.constable = Some(ConstableConfig {
                amt_full_address: true,
                ..ConstableConfig::paper()
            });
        });
        push("constable.amt_invalidate", &|c| {
            c.constable = Some(ConstableConfig {
                amt_invalidate_on_l1_evict: true,
                ..ConstableConfig::paper()
            });
        });
        push("constable.mode_filter", &|c| {
            c.constable = Some(ConstableConfig {
                mode_filter: Some(sim_isa::AddrMode::StackRelative),
                ..ConstableConfig::paper()
            });
        });
        push("constable.wrong_path_updates", &|c| {
            c.constable = Some(ConstableConfig {
                wrong_path_updates: false,
                ..ConstableConfig::paper()
            });
        });
        push("ideal.constable", &|c| {
            c.ideal = Some(IdealConfig::IdealConstable);
        });
        push("ideal.lvp", &|c| {
            c.ideal = Some(IdealConfig::IdealStableLvp)
        });
        push("ideal.lvp_no_fetch", &|c| {
            c.ideal = Some(IdealConfig::IdealStableLvpNoFetch);
        });
        push("oracle", &|c| c.oracle = IdealOracle::new([0x400u64]));
        push("oracle.other", &|c| {
            c.oracle = IdealOracle::new([0x400u64, 0x404]);
        });
        push("snoop_rate", &|c| c.snoop_rate_per_10k = 3);
        push("wrong_path_fetch", &|c| c.wrong_path_fetch = false);
        push("seed", &|c| c.seed = 0xC0FFEF);
        push("track_per_pc", &|c| c.track_per_pc = true);
        push("watchdog_no_retire", &|c| {
            c.watchdog_no_retire = Some(200_000)
        });
        push("wedge_after_retire", &|c| c.wedge_after_retire = Some(100));
        push("event_shortcuts", &|c| c.event_shortcuts = false);
        variants
    }

    /// The stable key encoding must separate every config field: it is the
    /// identity of a sweep cell in the run memo and the result store, where
    /// an alias would serve one machine's results to a different machine.
    #[test]
    fn stable_encoding_separates_every_config_field() {
        let enc = |c: &CoreConfig| {
            let mut v = Vec::new();
            c.stable_encode(&mut v);
            v
        };
        let variants = field_variants();
        for i in 0..variants.len() {
            for j in (i + 1)..variants.len() {
                assert_ne!(
                    enc(&variants[i].1),
                    enc(&variants[j].1),
                    "stable-encoding collision between {} and {}",
                    variants[i].0,
                    variants[j].0
                );
            }
        }
        // Deterministic and clone-invariant.
        let a = CoreConfig::golden_cove_like().with_constable();
        assert_eq!(enc(&a), enc(&a.clone()));
        // Oracle encoding is insertion-order independent.
        use constable::IdealOracle;
        let mut x = CoreConfig::golden_cove_like();
        x.oracle = IdealOracle::new([0x400u64, 0x404, 0x5000]);
        let mut y = CoreConfig::golden_cove_like();
        y.oracle = IdealOracle::new([0x5000u64, 0x400, 0x404]);
        assert_eq!(enc(&x), enc(&y));
    }
}
