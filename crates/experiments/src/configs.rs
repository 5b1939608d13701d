//! Machine-configuration factory: every configuration the paper evaluates.

use constable::{ConstableConfig, IdealConfig, IdealOracle};
use sim_core::CoreConfig;
use sim_isa::AddrMode;

/// Every machine configuration appearing in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// Table 2 baseline (MRN + rename optimizations on).
    Baseline,
    /// Baseline + EVES (§8.4).
    Eves,
    /// Baseline + Constable (the contribution).
    Constable,
    /// Baseline + EVES + Constable.
    EvesConstable,
    /// Baseline + EVES + oracle Constable (Fig 11's topline).
    EvesIdealConstable,
    /// Fig 7: perfect VP of global-stable loads; loads execute fully.
    IdealStableLvp,
    /// Fig 7: perfect VP + data-fetch elimination (AGU still executes).
    IdealStableLvpNoFetch,
    /// Fig 7: 2× AGU + load ports.
    DoubleLoadWidth,
    /// Fig 7: oracle elimination of all global-stable loads.
    IdealConstable,
    /// §9.2 prior works.
    Elar,
    Rfp,
    ElarConstable,
    RfpConstable,
    /// Appendix A.3: invalidate AMT on L1-D evictions instead of CV pinning.
    ConstableAmtI,
    /// §6.6: full-address-indexed AMT.
    ConstableFullAddrAmt,
    /// Fig 13: eliminate only one addressing mode.
    ConstableOnly(AddrMode),
    /// Fig 9b: Constable structures updated by correct-path µops only.
    ConstableCorrectPathOnly,
}

impl MachineKind {
    /// Every machine kind, for slug resolution and forensics sweeps.
    pub const ALL: [MachineKind; 19] = [
        MachineKind::Baseline,
        MachineKind::Eves,
        MachineKind::Constable,
        MachineKind::EvesConstable,
        MachineKind::EvesIdealConstable,
        MachineKind::IdealStableLvp,
        MachineKind::IdealStableLvpNoFetch,
        MachineKind::DoubleLoadWidth,
        MachineKind::IdealConstable,
        MachineKind::Elar,
        MachineKind::Rfp,
        MachineKind::ElarConstable,
        MachineKind::RfpConstable,
        MachineKind::ConstableAmtI,
        MachineKind::ConstableFullAddrAmt,
        MachineKind::ConstableOnly(AddrMode::PcRelative),
        MachineKind::ConstableOnly(AddrMode::StackRelative),
        MachineKind::ConstableOnly(AddrMode::RegRelative),
        MachineKind::ConstableCorrectPathOnly,
    ];

    /// Stable kebab-case identifier: the `cell` subcommand's machine
    /// argument, and the vocabulary of quarantine repro lines.
    pub fn slug(self) -> &'static str {
        match self {
            MachineKind::Baseline => "baseline",
            MachineKind::Eves => "eves",
            MachineKind::Constable => "constable",
            MachineKind::EvesConstable => "eves-constable",
            MachineKind::EvesIdealConstable => "eves-ideal-constable",
            MachineKind::IdealStableLvp => "ideal-stable-lvp",
            MachineKind::IdealStableLvpNoFetch => "ideal-stable-lvp-nofetch",
            MachineKind::DoubleLoadWidth => "double-load-width",
            MachineKind::IdealConstable => "ideal-constable",
            MachineKind::Elar => "elar",
            MachineKind::Rfp => "rfp",
            MachineKind::ElarConstable => "elar-constable",
            MachineKind::RfpConstable => "rfp-constable",
            MachineKind::ConstableAmtI => "constable-amt-i",
            MachineKind::ConstableFullAddrAmt => "constable-full-addr-amt",
            MachineKind::ConstableOnly(AddrMode::PcRelative) => "constable-pc-only",
            MachineKind::ConstableOnly(AddrMode::StackRelative) => "constable-stack-only",
            MachineKind::ConstableOnly(AddrMode::RegRelative) => "constable-reg-only",
            MachineKind::ConstableCorrectPathOnly => "constable-correct-path",
        }
    }

    /// Inverse of [`MachineKind::slug`].
    pub fn from_slug(slug: &str) -> Option<MachineKind> {
        MachineKind::ALL.into_iter().find(|k| k.slug() == slug)
    }

    /// Human-readable label used in tables.
    pub fn label(self) -> String {
        match self {
            MachineKind::Baseline => "Baseline".into(),
            MachineKind::Eves => "EVES".into(),
            MachineKind::Constable => "Constable".into(),
            MachineKind::EvesConstable => "EVES+Constable".into(),
            MachineKind::EvesIdealConstable => "EVES+Ideal Constable".into(),
            MachineKind::IdealStableLvp => "Ideal Stable LVP".into(),
            MachineKind::IdealStableLvpNoFetch => "Ideal Stable LVP + fetch elim".into(),
            MachineKind::DoubleLoadWidth => "2x load execution width".into(),
            MachineKind::IdealConstable => "Ideal Constable".into(),
            MachineKind::Elar => "ELAR".into(),
            MachineKind::Rfp => "RFP".into(),
            MachineKind::ElarConstable => "ELAR+Constable".into(),
            MachineKind::RfpConstable => "RFP+Constable".into(),
            MachineKind::ConstableAmtI => "Constable-AMT-I".into(),
            MachineKind::ConstableFullAddrAmt => "Constable (full-addr AMT)".into(),
            MachineKind::ConstableOnly(m) => format!("Constable ({} only)", m.label()),
            MachineKind::ConstableCorrectPathOnly => "Constable (correct-path upd.)".into(),
        }
    }

    /// Whether this configuration needs the global-stable oracle.
    pub fn needs_oracle(self) -> bool {
        matches!(
            self,
            MachineKind::EvesIdealConstable
                | MachineKind::IdealStableLvp
                | MachineKind::IdealStableLvpNoFetch
                | MachineKind::IdealConstable
        )
    }

    /// Builds the [`CoreConfig`] for this machine.
    pub fn config(self, oracle: IdealOracle) -> CoreConfig {
        let base = CoreConfig::golden_cove_like();
        let mut cfg = match self {
            MachineKind::Baseline => base,
            MachineKind::Eves => base.with_eves(),
            MachineKind::Constable => base.with_constable(),
            MachineKind::EvesConstable => base.with_eves().with_constable(),
            MachineKind::EvesIdealConstable => {
                let mut c = base.with_eves();
                c.ideal = Some(IdealConfig::IdealConstable);
                c
            }
            MachineKind::IdealStableLvp => {
                let mut c = base;
                c.ideal = Some(IdealConfig::IdealStableLvp);
                c
            }
            MachineKind::IdealStableLvpNoFetch => {
                let mut c = base;
                c.ideal = Some(IdealConfig::IdealStableLvpNoFetch);
                c
            }
            MachineKind::DoubleLoadWidth => base.with_load_ports(6),
            MachineKind::IdealConstable => {
                let mut c = base;
                c.ideal = Some(IdealConfig::IdealConstable);
                c
            }
            MachineKind::Elar => {
                let mut c = base;
                c.elar = true;
                c
            }
            MachineKind::Rfp => {
                let mut c = base;
                c.rfp = true;
                c
            }
            MachineKind::ElarConstable => {
                let mut c = base.with_constable();
                c.elar = true;
                c
            }
            MachineKind::RfpConstable => {
                let mut c = base.with_constable();
                c.rfp = true;
                c
            }
            MachineKind::ConstableAmtI => {
                let mut c = base;
                c.constable = Some(ConstableConfig {
                    amt_invalidate_on_l1_evict: true,
                    ..ConstableConfig::paper()
                });
                c
            }
            MachineKind::ConstableFullAddrAmt => {
                let mut c = base;
                c.constable = Some(ConstableConfig {
                    amt_full_address: true,
                    ..ConstableConfig::paper()
                });
                c
            }
            MachineKind::ConstableOnly(mode) => {
                let mut c = base;
                c.constable = Some(ConstableConfig {
                    mode_filter: Some(mode),
                    ..ConstableConfig::paper()
                });
                c
            }
            MachineKind::ConstableCorrectPathOnly => {
                let mut c = base;
                c.constable = Some(ConstableConfig {
                    wrong_path_updates: false,
                    ..ConstableConfig::paper()
                });
                c
            }
        };
        cfg.oracle = oracle;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let kinds = [
            MachineKind::Baseline,
            MachineKind::Eves,
            MachineKind::Constable,
            MachineKind::EvesConstable,
            MachineKind::IdealConstable,
            MachineKind::ConstableOnly(AddrMode::PcRelative),
            MachineKind::ConstableOnly(AddrMode::StackRelative),
        ];
        let mut labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    /// Every machine the evaluation distinguishes must map to a distinct
    /// stable config encoding — the sweep engine memoizes runs on the store
    /// key built from it, so a collision here would silently alias two
    /// machines' results.
    #[test]
    fn machine_fingerprints_are_unique() {
        let encode = |c: CoreConfig| {
            let mut out = Vec::new();
            c.stable_encode(&mut out);
            out
        };
        let o = IdealOracle::new([0x400u64, 0x404]);
        let mut encodings: Vec<Vec<u8>> = MachineKind::ALL
            .iter()
            .map(|k| encode(k.config(o.clone())))
            .collect();
        encodings.sort_unstable();
        encodings.dedup();
        assert_eq!(
            encodings.len(),
            MachineKind::ALL.len(),
            "machine encoding collision"
        );
        // The same machine with vs without the oracle is also distinct.
        let with = encode(MachineKind::Constable.config(o));
        let without = encode(MachineKind::Constable.config(IdealOracle::default()));
        assert_ne!(with, without);
    }

    #[test]
    fn config_toggles_are_consistent() {
        let o = IdealOracle::default();
        assert!(MachineKind::Eves.config(o.clone()).eves);
        assert!(MachineKind::Constable.config(o.clone()).constable.is_some());
        let ec = MachineKind::EvesConstable.config(o.clone());
        assert!(ec.eves && ec.constable.is_some());
        assert_eq!(MachineKind::DoubleLoadWidth.config(o.clone()).load_ports, 6);
        let amti = MachineKind::ConstableAmtI.config(o);
        assert!(amti.constable.unwrap().amt_invalidate_on_l1_evict);
    }
}
