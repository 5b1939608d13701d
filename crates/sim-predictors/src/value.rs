//! EVES-style load value predictor (Seznec, CVP-1 winner [155]).
//!
//! EVES combines two components:
//! * **E-Stride** — predicts `last_value + stride` for loads whose values
//!   advance by a constant delta between successive dynamic instances
//!   (streaming over arithmetic data).
//! * **eVTAGE** — a tagged, branch-history-indexed last-value component that
//!   captures loads whose value is constant along a control-flow path
//!   (runtime constants, stable globals).
//!
//! Predictions are only *used* above a high confidence threshold, because a
//! value misprediction costs a pipeline flush. Confidence grows with
//! probabilistic increments in Seznec's implementation; here a deterministic
//! stride of correct predictions is required, which preserves the behaviour
//! while keeping the simulator reproducible.

/// A value prediction surfaced to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValuePrediction {
    /// Predicted 64-bit load value.
    pub value: u64,
    /// Which component produced it (for stats).
    pub component: VpComponent,
}

/// EVES component attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpComponent {
    EStride,
    EVtage,
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u32,
    last_value: u64,
    stride: i64,
    /// Saturating confidence; predict at `STRIDE_CONF_USE`.
    conf: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct VtageEntry {
    tag: u32,
    value: u64,
    conf: u8,
    useful: u8,
}

// EVES emulates very high confidence via probabilistic (forward
// probabilistic counter) increments; deterministically that corresponds to
// long runs of consecutive correct outcomes before a prediction is *used*.
const STRIDE_CONF_USE: u8 = 48;
const STRIDE_CONF_MAX: u8 = 127;
const VTAGE_CONF_USE: u8 = 14;
const VTAGE_CONF_MAX: u8 = 15;
const VTAGE_TABLES: usize = 3;
const VTAGE_HIST: [u32; VTAGE_TABLES] = [0, 8, 24];

/// The EVES predictor.
///
/// The caller supplies the branch-history value for both prediction and
/// training of the *same* dynamic instance, guaranteeing index consistency
/// between the two (the core snapshots its speculative rename-time history
/// into the µop and hands it back at retirement).
#[derive(Debug, Clone)]
pub struct Eves {
    stride: Vec<StrideEntry>,
    vtage: [Vec<VtageEntry>; VTAGE_TABLES],
}

impl Eves {
    /// Creates a predictor with the CVP-1 32 KB-class geometry.
    pub fn new() -> Self {
        Eves {
            stride: vec![StrideEntry::default(); 1 << 11],
            vtage: std::array::from_fn(|_| vec![VtageEntry::default(); 1 << 11]),
        }
    }

    fn sidx(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.stride.len() - 1)
    }

    fn vidx(&self, pc: u64, history: u64, t: usize) -> usize {
        let h = if VTAGE_HIST[t] == 0 {
            0
        } else {
            history & ((1 << VTAGE_HIST[t]) - 1)
        };
        let mixed = (pc >> 2) ^ h ^ (h >> 7) ^ ((t as u64) << 3);
        mixed as usize & (self.vtage[t].len() - 1)
    }

    fn vtag(pc: u64, t: usize) -> u32 {
        (((pc >> 2) ^ (pc >> 13) ^ (t as u64 * 0x9e37)) & 0xffff) as u32
    }

    /// Predicts the value of the load at `pc`, if confident.
    ///
    /// `inflight` is the number of older dynamic instances of this PC still
    /// in flight (renamed but not retired). The stride component projects
    /// that many strides ahead; the caller tracks the count because only it
    /// knows about pipeline squashes.
    pub fn predict(&self, pc: u64, history: u64, inflight: u32) -> Option<ValuePrediction> {
        // eVTAGE: longest matching history component wins.
        for t in (0..VTAGE_TABLES).rev() {
            let e = &self.vtage[t][self.vidx(pc, history, t)];
            if e.tag == Self::vtag(pc, t) && e.conf >= VTAGE_CONF_USE {
                return Some(ValuePrediction {
                    value: e.value,
                    component: VpComponent::EVtage,
                });
            }
        }
        let idx = self.sidx(pc);
        let e = &self.stride[idx];
        if e.tag == (pc >> 2) as u32 && e.conf >= STRIDE_CONF_USE {
            let v = e
                .last_value
                .wrapping_add((e.stride.wrapping_mul(i64::from(inflight) + 1)) as u64);
            return Some(ValuePrediction {
                value: v,
                component: VpComponent::EStride,
            });
        }
        None
    }

    /// Immediately kills confidence for `pc` when a used prediction is
    /// detected wrong at execution — before the instance retires — so
    /// refetched younger instances do not re-predict from the stale entry
    /// and cascade flushes.
    pub fn on_wrong(&mut self, pc: u64, history: u64) {
        let idx = self.sidx(pc);
        let e = &mut self.stride[idx];
        if e.tag == (pc >> 2) as u32 {
            e.conf = 0;
        }
        for t in 0..VTAGE_TABLES {
            let idx = self.vidx(pc, history, t);
            let v = &mut self.vtage[t][idx];
            if v.tag == Self::vtag(pc, t) {
                v.conf = 0;
            }
        }
    }

    /// Trains the predictor with the architecturally correct `value`
    /// (called at load retire, with the history snapshot taken when this
    /// instance was predicted).
    pub fn train(&mut self, pc: u64, history: u64, value: u64) {
        // E-Stride.
        let idx = self.sidx(pc);
        let e = &mut self.stride[idx];
        if e.tag == (pc >> 2) as u32 {
            let stride = value.wrapping_sub(e.last_value) as i64;
            if stride == e.stride {
                e.conf = (e.conf + 1).min(STRIDE_CONF_MAX);
            } else {
                // A break in the pattern would have been a costly flush:
                // restart confidence from scratch.
                e.conf = 0;
                e.stride = stride;
            }
            e.last_value = value;
        } else if e.conf == 0 {
            *e = StrideEntry {
                tag: (pc >> 2) as u32,
                last_value: value,
                stride: 0,
                conf: 0,
            };
        } else {
            e.conf -= 1;
        }

        // eVTAGE: train the matching component; allocate on miss.
        let mut matched = false;
        for t in (0..VTAGE_TABLES).rev() {
            let idx = self.vidx(pc, history, t);
            let tag = Self::vtag(pc, t);
            let e = &mut self.vtage[t][idx];
            if e.tag == tag {
                matched = true;
                if e.value == value {
                    e.conf = (e.conf + 1).min(VTAGE_CONF_MAX);
                    e.useful = (e.useful + 1).min(3);
                } else {
                    // Wrong value: reset hard — mispredictions are costly.
                    e.conf = 0;
                    e.value = value;
                    e.useful = e.useful.saturating_sub(1);
                }
                break;
            }
        }
        if !matched {
            // Allocate in the shortest-history table with a dead entry.
            for t in 0..VTAGE_TABLES {
                let idx = self.vidx(pc, history, t);
                let e = &mut self.vtage[t][idx];
                if e.useful == 0 {
                    *e = VtageEntry {
                        tag: Self::vtag(pc, t),
                        value,
                        conf: 1,
                        useful: 0,
                    };
                    break;
                }
                e.useful -= 1;
            }
        }
    }
}

impl Default for Eves {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_value_becomes_predictable() {
        let mut e = Eves::new();
        for _ in 0..32 {
            e.train(0x400, 0, 0x5eed);
        }
        let p = e
            .predict(0x400, 0, 0)
            .expect("constant value must be predicted");
        assert_eq!(p.value, 0x5eed);
    }

    #[test]
    fn strided_values_use_estride() {
        let mut e = Eves::new();
        // The use threshold is deliberately high (EVES-style): a long run
        // of consecutive correct strides is needed before predicting.
        for i in 0..64u64 {
            e.train(0x800, 0, 100 + i * 8);
        }
        let p = e
            .predict(0x800, 0, 0)
            .expect("strided value must be predicted");
        assert_eq!(p.value, 100 + 64 * 8);
    }

    #[test]
    fn estride_tracks_back_to_back_inflight_instances() {
        let mut e = Eves::new();
        for i in 0..64u64 {
            e.train(0x800, 0, i * 4);
        }
        let p1 = e.predict(0x800, 0, 0).unwrap();
        let p2 = e.predict(0x800, 0, 1).unwrap(); // second inflight instance
        assert_eq!(p2.value, p1.value + 4);
    }

    #[test]
    fn random_values_are_not_predicted() {
        let mut e = Eves::new();
        let mut x = 9u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            e.train(0xc00, 0, x);
        }
        assert!(
            e.predict(0xc00, 0, 0).is_none(),
            "random values must stay unconfident"
        );
    }

    #[test]
    fn value_change_resets_confidence() {
        let mut e = Eves::new();
        for _ in 0..32 {
            e.train(0x400, 0, 7);
        }
        assert!(e.predict(0x400, 0, 0).is_some());
        e.train(0x400, 0, 8);
        e.train(0x400, 0, 9);
        assert!(
            e.predict(0x400, 0, 0).is_none(),
            "post-change confidence must be below the use threshold"
        );
    }

    #[test]
    fn path_history_distinguishes_contexts() {
        let mut e = Eves::new();
        // Value depends on the preceding branch direction (history bit 0).
        for _ in 0..64 {
            e.train(0xf00, 0b1, 111);
            e.train(0xf00, 0b0, 222);
        }
        if let Some(p) = e.predict(0xf00, 0b1, 0) {
            assert_eq!(p.value, 111, "history-matched component should pick 111");
        }
    }
}
