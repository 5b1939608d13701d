//! Constable configuration (paper §6, Table 1).

use sim_isa::AddrMode;

/// Configuration of the Constable mechanism.
///
/// Defaults reproduce the paper's evaluated design point: a 512-entry SLD
/// (32 sets × 16 ways, 5-bit confidence, threshold 30, 3R/2W ports), an RMT
/// with 16-deep PC lists for the stack registers and 8-deep for the rest, a
/// 256-entry AMT (32 sets × 8 ways, 4 load PCs per entry) indexed at
/// cacheline granularity, a 32-entry xPRF, and CV-bit pinning enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstableConfig {
    /// SLD sets × ways (512 entries in the paper).
    pub sld_sets: usize,
    pub sld_ways: usize,
    /// Stability confidence threshold (30 in the paper; 5-bit counter).
    pub confidence_threshold: u8,
    /// Maximum confidence value (31 for a 5-bit counter).
    pub confidence_max: u8,
    /// SLD read ports available to a rename group (§6.7.1).
    pub sld_read_ports: u32,
    /// SLD write ports available for rename-stage resets (§6.7.1).
    pub sld_write_ports: u32,
    /// RMT list depth for RSP/RBP.
    pub rmt_stack_depth: usize,
    /// RMT list depth for the remaining registers.
    pub rmt_other_depth: usize,
    /// AMT sets × ways (256 entries in the paper).
    pub amt_sets: usize,
    pub amt_ways: usize,
    /// Load PCs tracked per AMT entry.
    pub amt_pcs_per_entry: usize,
    /// Index/match the AMT at full-address granularity instead of cacheline
    /// (§6.6 reports the delta is only 0.4%).
    pub amt_full_address: bool,
    /// Invalidate AMT entries on every L1-D eviction instead of pinning the
    /// CV bit — the Constable-AMT-I variant of Appendix A.3.
    pub amt_invalidate_on_l1_evict: bool,
    /// xPRF capacity (32 entries; §6.3).
    pub xprf_entries: usize,
    /// Restrict elimination to one addressing mode (Fig 13 ablation).
    pub mode_filter: Option<AddrMode>,
    /// Apply rename-stage structure updates from wrong-path instructions
    /// (§6.7.2; `false` is the fig9b "correct-path only" study).
    pub wrong_path_updates: bool,
}

impl ConstableConfig {
    /// The paper's evaluated configuration (Table 1).
    pub fn paper() -> Self {
        ConstableConfig {
            sld_sets: 32,
            sld_ways: 16,
            confidence_threshold: 30,
            confidence_max: 31,
            sld_read_ports: 3,
            sld_write_ports: 2,
            rmt_stack_depth: 16,
            rmt_other_depth: 8,
            amt_sets: 32,
            amt_ways: 8,
            amt_pcs_per_entry: 4,
            amt_full_address: false,
            amt_invalidate_on_l1_evict: false,
            xprf_entries: 32,
            mode_filter: None,
            wrong_path_updates: true,
        }
    }

    /// Appends the stable on-disk key encoding of every field to `out`
    /// (little-endian, declaration order) — part of the result-store key
    /// format, which identifies a sweep cell in the run memo and on disk
    /// and must survive process restarts and rebuilds. The destructuring is deliberately
    /// exhaustive: adding a field breaks this function at compile time,
    /// forcing the new field into the encoding (and a
    /// `result_store::KEY_FORMAT_VERSION` bump, enforced by the key-format
    /// guard test in `result-store`).
    pub fn stable_encode(&self, out: &mut Vec<u8>) {
        let ConstableConfig {
            sld_sets,
            sld_ways,
            confidence_threshold,
            confidence_max,
            sld_read_ports,
            sld_write_ports,
            rmt_stack_depth,
            rmt_other_depth,
            amt_sets,
            amt_ways,
            amt_pcs_per_entry,
            amt_full_address,
            amt_invalidate_on_l1_evict,
            xprf_entries,
            mode_filter,
            wrong_path_updates,
        } = self;
        for v in [
            *sld_sets as u64,
            *sld_ways as u64,
            u64::from(*confidence_threshold),
            u64::from(*confidence_max),
            u64::from(*sld_read_ports),
            u64::from(*sld_write_ports),
            *rmt_stack_depth as u64,
            *rmt_other_depth as u64,
            *amt_sets as u64,
            *amt_ways as u64,
            *amt_pcs_per_entry as u64,
            u64::from(*amt_full_address),
            u64::from(*amt_invalidate_on_l1_evict),
            *xprf_entries as u64,
            // Addressing modes encoded by paper presentation order, 0 = no
            // filter.
            match mode_filter {
                None => 0,
                Some(m) => {
                    1 + AddrMode::ALL
                        .iter()
                        .position(|x| x == m)
                        .expect("known mode") as u64
                }
            },
            u64::from(*wrong_path_updates),
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Total SLD entries.
    pub fn sld_entries(&self) -> usize {
        self.sld_sets * self.sld_ways
    }

    /// Total AMT entries.
    pub fn amt_entries(&self) -> usize {
        self.amt_sets * self.amt_ways
    }
}

impl Default for ConstableConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_table1() {
        let c = ConstableConfig::paper();
        assert_eq!(c.sld_entries(), 512);
        assert_eq!(c.amt_entries(), 256);
        assert_eq!(c.confidence_threshold, 30);
        assert_eq!(c.xprf_entries, 32);
    }

    #[test]
    fn stable_encoding_separates_fields_and_is_deterministic() {
        let enc = |c: &ConstableConfig| {
            let mut v = Vec::new();
            c.stable_encode(&mut v);
            v
        };
        let a = ConstableConfig::paper();
        assert_eq!(enc(&a), enc(&a.clone()));
        let b = ConstableConfig {
            mode_filter: Some(AddrMode::StackRelative),
            ..ConstableConfig::paper()
        };
        let c = ConstableConfig {
            mode_filter: Some(AddrMode::RegRelative),
            ..ConstableConfig::paper()
        };
        assert_ne!(enc(&a), enc(&b));
        assert_ne!(enc(&b), enc(&c));
    }
}
