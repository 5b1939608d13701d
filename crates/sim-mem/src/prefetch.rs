//! Hardware prefetchers: PC-based stride (L1), next-line streamer and a
//! signature-path-style delta prefetcher (L2), per the baseline in Table 2.

use crate::cache::line_addr;

/// A prefetch request produced by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchReq {
    /// Line address to fetch.
    pub line: u64,
}

/// PC-indexed stride prefetcher (Fu et al. [69]), used at L1-D.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    entries: Vec<StrideEntry>,
    degree: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `entries` table slots issuing `degree`
    /// requests per trigger.
    pub fn new(entries: usize, degree: u32) -> Self {
        assert!(entries.is_power_of_two());
        StridePrefetcher {
            entries: vec![StrideEntry::default(); entries],
            degree,
        }
    }

    /// Forgets every trained entry.
    pub fn reset(&mut self) {
        self.entries.fill(StrideEntry::default());
    }

    /// Trains on a demand access and returns any prefetches to issue.
    pub fn train(&mut self, pc: u64, addr: u64, out: &mut Vec<PrefetchReq>) {
        let idx = (pc as usize >> 2) & (self.entries.len() - 1);
        let e = &mut self.entries[idx];
        if e.tag == pc {
            let stride = addr as i64 - e.last_addr as i64;
            if stride == e.stride && stride != 0 {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.confidence = e.confidence.saturating_sub(1);
                if e.confidence == 0 {
                    e.stride = stride;
                }
            }
            e.last_addr = addr;
            if e.confidence >= 2 {
                for d in 1..=self.degree {
                    let target = addr.wrapping_add((e.stride * d as i64) as u64);
                    let l = line_addr(target);
                    if l != line_addr(addr) {
                        out.push(PrefetchReq { line: l });
                    }
                }
            }
        } else {
            *e = StrideEntry {
                tag: pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
        }
    }
}

/// Next-line streamer (Chen & Baer style [47]): detects monotone line
/// streams within a page and runs ahead of them. Used at L2.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    streams: Vec<StreamEntry>,
    depth: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    page: u64,
    last_line: u64,
    dir: i8,
    confidence: u8,
    lru: u64,
}

impl StreamPrefetcher {
    /// Creates a streamer tracking `streams` pages, running `depth` lines ahead.
    pub fn new(streams: usize, depth: u32) -> Self {
        StreamPrefetcher {
            streams: vec![StreamEntry::default(); streams],
            depth,
        }
    }

    /// Forgets every tracked stream.
    pub fn reset(&mut self) {
        self.streams.fill(StreamEntry::default());
    }

    /// Trains on a demand line address; appends prefetch requests.
    pub fn train(&mut self, line: u64, clock: u64, out: &mut Vec<PrefetchReq>) {
        let page = line >> 6; // 64 lines = 4 KiB page
        if let Some(e) = self
            .streams
            .iter_mut()
            .find(|e| e.page == page && e.confidence > 0)
        {
            let dir = match line.cmp(&e.last_line) {
                std::cmp::Ordering::Greater => 1i8,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => e.dir,
            };
            if dir == e.dir {
                e.confidence = (e.confidence + 1).min(4);
            } else {
                e.confidence = 1;
                e.dir = dir;
            }
            e.last_line = line;
            e.lru = clock;
            if e.confidence >= 2 {
                for d in 1..=self.depth {
                    let target = line.wrapping_add((e.dir as i64 * d as i64) as u64);
                    if target >> 6 == page {
                        out.push(PrefetchReq { line: target });
                    }
                }
            }
        } else {
            let slot = self
                .streams
                .iter_mut()
                .min_by_key(|e| e.lru)
                .expect("streamer has slots");
            *slot = StreamEntry {
                page,
                last_line: line,
                dir: 1,
                confidence: 1,
                lru: clock,
            };
        }
    }
}

/// A compact signature-path-style prefetcher ("SPP-lite", Kim et al. [101]):
/// correlates the recent in-page delta history (a signature) with the next
/// delta and chases the prediction while confidence remains high. Used at L2
/// alongside the streamer.
#[derive(Debug, Clone)]
pub struct SppLite {
    /// signature → (predicted delta, confidence)
    pattern: Vec<(u16, i8, u8)>,
    /// page → (signature, last line offset)
    pages: Vec<(u64, u16, u8, u64)>,
}

impl SppLite {
    const EMPTY_PATTERN: (u16, i8, u8) = (0, 0, 0);
    const EMPTY_PAGE: (u64, u16, u8, u64) = (u64::MAX, 0, 0, 0);

    /// Creates the prefetcher with fixed table geometry (256-entry pattern
    /// table, 64 tracked pages).
    pub fn new() -> Self {
        SppLite {
            pattern: vec![Self::EMPTY_PATTERN; 256],
            pages: vec![Self::EMPTY_PAGE; 64],
        }
    }

    /// Forgets every learned pattern and tracked page.
    pub fn reset(&mut self) {
        self.pattern.fill(Self::EMPTY_PATTERN);
        self.pages.fill(Self::EMPTY_PAGE);
    }

    fn sig_update(sig: u16, delta: i8) -> u16 {
        ((sig << 3) ^ (delta as u16 & 0x3f)) & 0xff
    }

    /// Trains on a demand line address; appends prefetch requests.
    pub fn train(&mut self, line: u64, clock: u64, out: &mut Vec<PrefetchReq>) {
        let page = line >> 6;
        let offset = (line & 63) as u8;
        let slot = if let Some(i) = self.pages.iter().position(|p| p.0 == page) {
            i
        } else {
            let i = self
                .pages
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.3)
                .map(|(i, _)| i)
                .expect("page table has slots");
            self.pages[i] = (page, 0, offset, clock);
            return;
        };
        let (_, sig, last_off, _) = self.pages[slot];
        let delta = offset as i8 - last_off as i8;
        if delta != 0 {
            // Train the pattern table with the observed transition.
            let pt = &mut self.pattern[sig as usize];
            if pt.1 == delta {
                pt.2 = (pt.2 + 1).min(7);
            } else if pt.2 <= 1 {
                *pt = (sig, delta, 1);
            } else {
                pt.2 -= 1;
            }
            let new_sig = Self::sig_update(sig, delta);
            self.pages[slot] = (page, new_sig, offset, clock);
            // Speculatively chase the signature path.
            let mut sig = new_sig;
            let mut off = offset as i16;
            for _ in 0..4 {
                let (_, d, conf) = self.pattern[sig as usize];
                if conf < 2 || d == 0 {
                    break;
                }
                off += d as i16;
                if !(0..64).contains(&off) {
                    break;
                }
                out.push(PrefetchReq {
                    line: (page << 6) | off as u64,
                });
                sig = Self::sig_update(sig, d);
            }
        } else {
            self.pages[slot].3 = clock;
        }
    }
}

impl Default for SppLite {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_prefetcher_locks_onto_constant_stride() {
        let mut p = StridePrefetcher::new(64, 2);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.train(0x400, 0x10000 + i * 64, &mut out);
        }
        assert!(!out.is_empty(), "confident stride must prefetch");
        assert_eq!(out[0].line, line_addr(0x10000 + 8 * 64));
    }

    #[test]
    fn stride_prefetcher_ignores_random_pattern() {
        let mut p = StridePrefetcher::new(64, 2);
        let mut out = Vec::new();
        let mut x = 12345u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.train(0x400, x % (1 << 20), &mut out);
        }
        assert!(out.len() < 10, "random pattern should rarely trigger");
    }

    #[test]
    fn streamer_follows_ascending_lines() {
        let mut p = StreamPrefetcher::new(8, 3);
        let mut out = Vec::new();
        for i in 0..6u64 {
            out.clear();
            p.train(1000 + i, i, &mut out);
        }
        assert!(out.contains(&PrefetchReq { line: 1006 }));
    }

    #[test]
    fn spp_learns_repeating_delta_pattern() {
        let mut p = SppLite::new();
        let mut out = Vec::new();
        // Walk offsets 0,2,4,… within one page, repeatedly.
        for rep in 0..4u64 {
            for off in (0..32u64).step_by(2) {
                out.clear();
                p.train((rep + 1) * 64 + off, rep * 100 + off, &mut out);
            }
        }
        assert!(!out.is_empty(), "SPP should chase the +2 path");
    }
}
