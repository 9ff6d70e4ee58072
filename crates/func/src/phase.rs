//! Program-phase detection over per-chunk trace statistics.
//!
//! The adaptive trace path (DESIGN.md §18.2) cuts the traced instruction
//! stream into chunks of [`PHASE_BLOCK_INSTS`] records; each chunk
//! boundary is a natural observation point for phase behaviour.
//! [`PhaseDetector`] consumes one `(insts, l2_misses)` summary per chunk
//! and declares a phase shift when the chunk-level miss rate departs from
//! the running mean of the current phase and *stays* departed — a
//! hysteresis rule that makes single-chunk noise (a cold-start burst, one
//! unlucky chunk) invisible.
//!
//! The detector is deterministic: its decisions depend only on the chunk
//! summaries, which themselves depend only on the trace content and the
//! fixed chunk size — never on thread count, timing, or allocation
//! behaviour. The adaptive selection pipeline relies on this to keep its
//! bit-identical-at-any-thread-count contract.
//!
//! Boundary placement is *prospective*: a shift is confirmed on the
//! chunk that completes the deviation run, and the new phase begins with
//! that chunk. The `confirm - 1` deviating chunks before it stay
//! attributed to the old phase — a deliberate trade that keeps detection
//! single-pass (no retroactive re-binning of already-sliced
//! instructions) at the cost of a bounded, documented boundary smear.

/// Traced instructions per chunk the adaptive trace path summarizes for
/// [`PhaseDetector::observe_chunk`]. The chunk is the detector's
/// granularity, so its size changes which phases are found: at
/// `threshold_permille = 25`, `min_phase_chunks = 2` and a 200 k budget,
/// 2048-instruction chunks find 13 phases on bzip2 where 4096 find 3.
pub const PHASE_BLOCK_INSTS: usize = 4096;

/// Tuning knobs for [`PhaseDetector`]. All integer-valued so configs
/// round-trip exactly through the wire protocol and the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseConfig {
    /// Relative miss-rate deviation (in permille of the current phase
    /// mean) a chunk must exceed to count toward a shift. 500 = a chunk
    /// deviates when its miss rate differs from the phase mean by more
    /// than 50%.
    pub threshold_permille: u64,
    /// Consecutive deviating chunks required to confirm a shift.
    pub confirm: u64,
    /// Minimum chunks a phase must span before a shift out of it can be
    /// declared (hysteresis against rapid oscillation).
    pub min_phase_chunks: u64,
}

impl Default for PhaseConfig {
    fn default() -> PhaseConfig {
        PhaseConfig {
            threshold_permille: 500,
            confirm: 2,
            min_phase_chunks: 4,
        }
    }
}

impl PhaseConfig {
    /// `true` when every knob is in its valid range (all must be ≥ 1:
    /// a zero threshold would split on noise, zero confirm/min-chunks
    /// would make the hysteresis vacuous).
    pub fn is_valid(&self) -> bool {
        self.threshold_permille >= 1 && self.confirm >= 1 && self.min_phase_chunks >= 1
    }
}

/// One chunk's trace summary, as fed to [`PhaseDetector::observe_chunk`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkSummary {
    /// Measured (post-warm-up) instructions in the chunk.
    pub insts: u64,
    /// L2-miss loads among them.
    pub l2_misses: u64,
}

/// Hysteresis detector for miss-rate phase shifts.
///
/// Feed one [`ChunkSummary`] per traced chunk; [`observe_chunk`]
/// returns `true` exactly when a new phase begins *with* that chunk.
///
/// [`observe_chunk`]: Self::observe_chunk
#[derive(Debug)]
pub struct PhaseDetector {
    cfg: PhaseConfig,
    /// Accumulated stats of the current phase (conforming chunks only).
    phase_insts: u64,
    phase_misses: u64,
    phase_chunks: u64,
    /// The in-flight deviation run: stats of consecutive deviating
    /// chunks not yet folded into the phase mean (so a forming new
    /// phase cannot drag the old mean toward itself).
    run_insts: u64,
    run_misses: u64,
    run_chunks: u64,
    phases: u64,
}

impl PhaseDetector {
    /// A detector with the given knobs. Invalid knobs (see
    /// [`PhaseConfig::is_valid`]) are clamped up to 1 rather than
    /// rejected — the detector is an internal stage; config validation
    /// happens at the policy layer.
    pub fn new(cfg: PhaseConfig) -> PhaseDetector {
        let cfg = PhaseConfig {
            threshold_permille: cfg.threshold_permille.max(1),
            confirm: cfg.confirm.max(1),
            min_phase_chunks: cfg.min_phase_chunks.max(1),
        };
        PhaseDetector {
            cfg,
            phase_insts: 0,
            phase_misses: 0,
            phase_chunks: 0,
            run_insts: 0,
            run_misses: 0,
            run_chunks: 0,
            phases: 1,
        }
    }

    /// Number of phases seen so far (≥ 1: the trace always starts in
    /// phase 0).
    pub fn phases(&self) -> u64 {
        self.phases
    }

    /// Whether `chunk` deviates from the current phase mean. Both sides
    /// are compared as exact integer cross-products — no division, no
    /// float rounding: `|r_c − r_p| > threshold·r_p` with
    /// `r = misses/insts` becomes
    /// `|m_c·i_p − m_p·i_c|·1000 > threshold_permille·m_p·i_c`, plus an
    /// absolute floor of 1 miss per 1024 chunk instructions so an
    /// all-zero phase mean still admits a shift into a missing phase.
    fn deviates(&self, chunk: ChunkSummary) -> bool {
        if chunk.insts == 0 {
            return false;
        }
        let (ip, mp) = (self.phase_insts as u128, self.phase_misses as u128);
        let (ic, mc) = (chunk.insts as u128, chunk.l2_misses as u128);
        if ip == 0 {
            return false;
        }
        let diff = (mc * ip).abs_diff(mp * ic);
        // Relative test against the phase mean...
        let relative = diff * 1000 > (self.cfg.threshold_permille as u128) * mp * ic;
        // ...with an absolute floor: the rate gap itself must exceed
        // 1/1024 miss per instruction, or a 0-miss phase would split on
        // a single stray miss.
        let absolute = diff * 1024 > ip * ic;
        relative && absolute
    }

    /// Observes one chunk summary. Returns `true` when a phase shift is
    /// confirmed — the new phase begins with this chunk.
    pub fn observe_chunk(&mut self, chunk: ChunkSummary) -> bool {
        let eligible = self.phase_chunks >= self.cfg.min_phase_chunks;
        if eligible && self.deviates(chunk) {
            self.run_insts += chunk.insts;
            self.run_misses += chunk.l2_misses;
            self.run_chunks += 1;
            if self.run_chunks >= self.cfg.confirm {
                // Confirmed: the deviation run becomes the seed of the
                // new phase's statistics.
                self.phase_insts = self.run_insts;
                self.phase_misses = self.run_misses;
                self.phase_chunks = self.run_chunks;
                self.run_insts = 0;
                self.run_misses = 0;
                self.run_chunks = 0;
                self.phases += 1;
                return true;
            }
            return false;
        }
        // Conforming chunk: any pending run was noise, not a shift.
        // Its stats are *discarded*, not absorbed — folding an outlier
        // spike into the phase mean would drag the mean off the true
        // rate and later misclassify perfectly ordinary chunks.
        self.phase_insts += chunk.insts;
        self.phase_misses += chunk.l2_misses;
        self.phase_chunks += 1;
        self.run_insts = 0;
        self.run_misses = 0;
        self.run_chunks = 0;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut PhaseDetector, chunks: &[(u64, u64)]) -> Vec<usize> {
        chunks
            .iter()
            .enumerate()
            .filter(|&(_, &(insts, misses))| {
                det.observe_chunk(ChunkSummary {
                    insts,
                    l2_misses: misses,
                })
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn constant_rate_traces_never_split() {
        // The ISSUE's contract: no false phase splits on constant-rate
        // traces, however long.
        for rate in [0u64, 1, 40, 400] {
            let chunks: Vec<(u64, u64)> = (0..256).map(|_| (4096, 4096 * rate / 1000)).collect();
            let mut det = PhaseDetector::new(PhaseConfig::default());
            let splits = feed(&mut det, &chunks);
            assert!(splits.is_empty(), "rate {rate}/1000 split at {splits:?}");
            assert_eq!(det.phases(), 1);
        }
    }

    #[test]
    fn small_jitter_below_threshold_never_splits() {
        // ±20% oscillation around 100 misses/chunk stays below the 50%
        // default threshold.
        let chunks: Vec<(u64, u64)> = (0..128)
            .map(|i| (4096, if i % 2 == 0 { 80 } else { 120 }))
            .collect();
        let mut det = PhaseDetector::new(PhaseConfig::default());
        assert!(feed(&mut det, &chunks).is_empty());
    }

    #[test]
    fn single_step_function_splits_exactly_once() {
        // 32 chunks at 10 misses, then 32 at 200: one shift, confirmed
        // on the second deviating chunk (confirm = 2).
        let mut chunks = vec![(4096u64, 10u64); 32];
        chunks.extend(vec![(4096, 200); 32]);
        let mut det = PhaseDetector::new(PhaseConfig::default());
        let splits = feed(&mut det, &chunks);
        assert_eq!(splits, vec![33], "new phase begins on the confirming chunk");
        assert_eq!(det.phases(), 2);
    }

    #[test]
    fn step_down_to_zero_misses_also_splits() {
        let mut chunks = vec![(4096u64, 300u64); 16];
        chunks.extend(vec![(4096, 0); 16]);
        let mut det = PhaseDetector::new(PhaseConfig::default());
        assert_eq!(feed(&mut det, &chunks), vec![17]);
    }

    #[test]
    fn two_steps_split_twice() {
        let mut chunks = vec![(4096u64, 10u64); 16];
        chunks.extend(vec![(4096, 200); 16]);
        chunks.extend(vec![(4096, 10); 16]);
        let mut det = PhaseDetector::new(PhaseConfig::default());
        let splits = feed(&mut det, &chunks);
        assert_eq!(splits.len(), 2, "splits at {splits:?}");
        assert_eq!(det.phases(), 3);
    }

    #[test]
    fn one_chunk_spike_is_hysteresis_filtered() {
        // A single deviating chunk dissolves back into the phase.
        let mut chunks = vec![(4096u64, 10u64); 16];
        chunks[8] = (4096, 400);
        let mut det = PhaseDetector::new(PhaseConfig::default());
        assert!(feed(&mut det, &chunks).is_empty());
        assert_eq!(det.phases(), 1);
    }

    #[test]
    fn young_phases_cannot_split() {
        // min_phase_chunks gates shifts out of a freshly started phase:
        // with a large floor, even a clean step cannot confirm.
        let mut chunks = vec![(4096u64, 10u64); 8];
        chunks.extend(vec![(4096, 200); 8]);
        let cfg = PhaseConfig {
            min_phase_chunks: 64,
            ..PhaseConfig::default()
        };
        let mut det = PhaseDetector::new(cfg);
        assert!(feed(&mut det, &chunks).is_empty());
    }

    #[test]
    fn empty_and_zero_inst_chunks_are_inert() {
        let mut det = PhaseDetector::new(PhaseConfig::default());
        for _ in 0..64 {
            assert!(!det.observe_chunk(ChunkSummary::default()));
        }
        assert_eq!(det.phases(), 1);
    }

    #[test]
    fn invalid_knobs_clamp_to_one() {
        let det = PhaseDetector::new(PhaseConfig {
            threshold_permille: 0,
            confirm: 0,
            min_phase_chunks: 0,
        });
        assert_eq!(det.cfg.threshold_permille, 1);
        assert_eq!(det.cfg.confirm, 1);
        assert_eq!(det.cfg.min_phase_chunks, 1);
        assert!(!PhaseConfig {
            confirm: 0,
            ..PhaseConfig::default()
        }
        .is_valid());
        assert!(PhaseConfig::default().is_valid());
    }

    #[test]
    fn detection_is_chunk_content_deterministic() {
        // Same summaries, same decisions — twice through the same data
        // yields identical split indices.
        let chunks: Vec<(u64, u64)> = (0..96)
            .map(|i| (4096, if i / 24 % 2 == 0 { 15 } else { 180 }))
            .collect();
        let mut a = PhaseDetector::new(PhaseConfig::default());
        let mut b = PhaseDetector::new(PhaseConfig::default());
        assert_eq!(feed(&mut a, &chunks), feed(&mut b, &chunks));
    }
}
