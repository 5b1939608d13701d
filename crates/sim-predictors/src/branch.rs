//! TAGE conditional branch predictor with a return-address stack
//! (Table 2: "TAGE/ITTAGE branch predictors", 20-cycle redirect penalty).

/// Number of tagged TAGE components.
const NUM_TABLES: usize = 4;
/// Geometric history lengths per component.
const HIST_LENS: [u32; NUM_TABLES] = [8, 16, 32, 64];
const TABLE_BITS: usize = 10;
const TAG_BITS: u32 = 9;

#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    /// 3-bit signed counter, taken if >= 0.
    ctr: i8,
    /// 2-bit usefulness.
    useful: u8,
}

/// A TAGE direction predictor.
///
/// History is updated with actual outcomes at prediction time (the pipeline
/// models the redirect penalty separately), the standard trace-driven
/// simplification of perfect history repair on misprediction recovery.
#[derive(Debug, Clone)]
pub struct Tage {
    bimodal: Vec<i8>,
    tables: [Vec<TageEntry>; NUM_TABLES],
    history: u64,
    /// Path randomness for allocation tie-breaking (deterministic LFSR).
    lfsr: u32,
    /// Folded-history values for the current `history`, one (index, tag)
    /// pair per component. `fold` is a per-chunk XOR loop and depends only
    /// on the history register — not the PC — so the eight folds are
    /// computed once per history change (`refresh_folds`) instead of on
    /// every table probe; between branch outcomes (e.g. a run of
    /// wrong-path predictions) every lookup reuses them.
    folds_idx: [u64; NUM_TABLES],
    folds_tag: [u64; NUM_TABLES],
    folds_fresh: bool,
}

impl Tage {
    /// Creates a predictor with default geometry (~8 KB of state).
    pub fn new() -> Self {
        Tage {
            bimodal: vec![0; 1 << 12],
            tables: std::array::from_fn(|_| vec![TageEntry::default(); 1 << TABLE_BITS]),
            history: 0,
            lfsr: 0xace1,
            folds_idx: [0; NUM_TABLES],
            folds_tag: [0; NUM_TABLES],
            folds_fresh: false,
        }
    }

    /// Recomputes the cached folds if the history register changed since
    /// the last probe. A pure host-side memo: predictions and updates are
    /// bit-identical to folding on every probe.
    #[inline]
    fn refresh_folds(&mut self) {
        if self.folds_fresh {
            return;
        }
        let history = self.history;
        for ((len, fi), ft) in HIST_LENS
            .iter()
            .zip(self.folds_idx.iter_mut())
            .zip(self.folds_tag.iter_mut())
        {
            *fi = Self::fold(history, *len, TABLE_BITS as u32);
            *ft = Self::fold(history, *len, TAG_BITS);
        }
        self.folds_fresh = true;
    }

    fn fold(history: u64, len: u32, bits: u32) -> u64 {
        let mut h = history & ((1u64 << len.min(63)) - 1);
        let mut folded = 0u64;
        while h != 0 {
            folded ^= h & ((1 << bits) - 1);
            h >>= bits;
        }
        folded
    }

    /// Table index for component `t` (requires fresh folds).
    fn index(&self, pc: u64, t: usize) -> usize {
        ((pc >> 2) ^ self.folds_idx[t] ^ (pc >> (5 + t))) as usize & ((1 << TABLE_BITS) - 1)
    }

    /// Partial tag for component `t` (requires fresh folds).
    fn tag(&self, pc: u64, t: usize) -> u16 {
        (((pc >> 2) ^ (self.folds_tag[t] << 1) ^ (pc >> 11)) & ((1 << TAG_BITS) - 1)) as u16
    }

    /// Longest-history hitting component (requires fresh folds).
    fn provider(&self, pc: u64) -> Option<(usize, usize)> {
        (0..NUM_TABLES).rev().find_map(|t| {
            let idx = self.index(pc, t);
            (self.tables[t][idx].tag == self.tag(pc, t)).then_some((t, idx))
        })
    }

    /// Prediction given an already-resolved provider.
    fn direction(&self, pc: u64, provider: Option<(usize, usize)>) -> bool {
        match provider {
            Some((t, idx)) => self.tables[t][idx].ctr >= 0,
            None => self.bimodal[(pc >> 2) as usize & (self.bimodal.len() - 1)] >= 0,
        }
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.refresh_folds();
        let provider = self.provider(pc);
        self.direction(pc, provider)
    }

    /// Updates with the actual outcome and advances the global history.
    pub fn update(&mut self, pc: u64, taken: bool) {
        self.refresh_folds();
        let provider = self.provider(pc);
        let predicted = self.direction(pc, provider);
        match provider {
            Some((t, idx)) => {
                let e = &mut self.tables[t][idx];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if predicted == taken {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
            None => {
                let idx = (pc >> 2) as usize & (self.bimodal.len() - 1);
                let c = &mut self.bimodal[idx];
                *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
            }
        }
        // On misprediction, allocate in a longer-history component.
        if predicted != taken {
            let start = provider.map_or(0, |(t, _)| t + 1);
            self.lfsr = (self.lfsr >> 1) ^ (0xB400u32.wrapping_mul(self.lfsr & 1));
            let mut allocated = false;
            for t in start..NUM_TABLES {
                let idx = self.index(pc, t);
                let tag = self.tag(pc, t);
                let e = &mut self.tables[t][idx];
                if e.useful == 0 {
                    *e = TageEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for t in start..NUM_TABLES {
                    let idx = self.index(pc, t);
                    self.tables[t][idx].useful = self.tables[t][idx].useful.saturating_sub(1);
                }
            }
        }
        self.history = (self.history << 1) | u64::from(taken);
        self.folds_fresh = false;
    }
}

impl Default for Tage {
    fn default() -> Self {
        Self::new()
    }
}

/// Return-address stack used to predict `Ret` targets.
#[derive(Debug, Clone, Default)]
pub struct ReturnStack {
    stack: std::collections::VecDeque<u64>,
}

impl ReturnStack {
    /// Creates an empty RAS.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes the return PC of a call, evicting the oldest entry at
    /// capacity (O(1) ring ops; the `Vec::remove(0)` this replaces was an
    /// O(depth) shift on every deep call).
    pub fn push(&mut self, ret_pc: u64) {
        if self.stack.len() >= 64 {
            self.stack.pop_front();
        }
        self.stack.push_back(ret_pc);
    }

    /// Pops the predicted return target.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut t = Tage::new();
        for _ in 0..64 {
            t.update(0x400, true);
        }
        assert!(t.predict(0x400));
    }

    #[test]
    fn learns_loop_pattern_with_history() {
        // Pattern: 7 taken, 1 not-taken, repeated — classic loop branch.
        let mut t = Tage::new();
        let mut mispredicts_late = 0;
        for iter in 0..4000 {
            let taken = iter % 8 != 7;
            if iter > 3000 && t.predict(0x400) != taken {
                mispredicts_late += 1;
            }
            t.update(0x400, taken);
        }
        // A history-based predictor learns the exit; bimodal alone cannot.
        let late_rate = mispredicts_late as f64 / 1000.0;
        assert!(
            late_rate < 0.05,
            "loop pattern should be nearly perfect, rate={late_rate}"
        );
    }

    #[test]
    fn random_pattern_mispredicts_about_half() {
        let mut t = Tage::new();
        let mut x = 0x1234_5678u64;
        let mut wrong = 0;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 1;
            if t.predict(0x999) != taken {
                wrong += 1;
            }
            t.update(0x999, taken);
        }
        let rate = wrong as f64 / 4000.0;
        assert!((0.3..0.7).contains(&rate), "random branch rate={rate}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_destructively() {
        let mut t = Tage::new();
        for _ in 0..200 {
            t.update(0x1000, true);
            t.update(0x2000, false);
        }
        assert!(t.predict(0x1000));
        assert!(!t.predict(0x2000));
    }

    #[test]
    fn ras_predicts_nested_returns() {
        let mut ras = ReturnStack::new();
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }
}
