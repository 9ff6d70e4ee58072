//! Hybrid branch predictor with BTB, after the paper's 6K-entry hybrid
//! (bimodal + gshare + chooser) and 2K-entry BTB.

use preexec_isa::Pc;

const CTR_TABLE: usize = 2048;
const BTB_ENTRIES: usize = 2048;

#[inline]
fn sat_inc(c: &mut u8) {
    if *c < 3 {
        *c += 1;
    }
}

#[inline]
fn sat_dec(c: &mut u8) {
    if *c > 0 {
        *c -= 1;
    }
}

/// A hybrid (tournament) conditional-branch predictor plus a direct-mapped
/// branch target buffer.
///
/// Components, each 2K entries of 2-bit counters as in the paper's 6K
/// hybrid: a bimodal table indexed by PC, a gshare table indexed by
/// PC⊕history, and a chooser indexed by PC that selects between them.
///
/// # Example
///
/// ```
/// use preexec_timing::BranchPredictor;
///
/// let mut bp = BranchPredictor::new();
/// // An always-taken branch is learned after a few occurrences.
/// for _ in 0..8 { bp.predict_and_update(100, true, Some(5)); }
/// assert!(bp.predict_and_update(100, true, Some(5)));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>, // 0-1: prefer bimodal, 2-3: prefer gshare
    history: u32,
    btb: Vec<Option<(Pc, Pc)>>, // (branch pc, target)
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with weakly-not-taken counters.
    pub fn new() -> BranchPredictor {
        BranchPredictor {
            bimodal: vec![1; CTR_TABLE],
            gshare: vec![1; CTR_TABLE],
            chooser: vec![2; CTR_TABLE],
            history: 0,
            btb: vec![None; BTB_ENTRIES],
            lookups: 0,
            mispredicts: 0,
        }
    }

    #[inline]
    fn bim_idx(&self, pc: Pc) -> usize {
        pc as usize % CTR_TABLE
    }

    #[inline]
    fn gs_idx(&self, pc: Pc) -> usize {
        (pc as usize ^ (self.history as usize)) % CTR_TABLE
    }

    /// Predicts a conditional branch at `pc` and updates all state with
    /// the actual outcome. Returns whether the prediction (direction *and*
    /// target, via the BTB for taken branches) was correct.
    ///
    /// `target` is the actual target when taken (`None` models an indirect
    /// branch whose target cannot be expressed statically).
    pub fn predict_and_update(&mut self, pc: Pc, taken: bool, target: Option<Pc>) -> bool {
        self.lookups += 1;
        let bi = self.bim_idx(pc);
        let gi = self.gs_idx(pc);
        let bim_pred = self.bimodal[bi] >= 2;
        let gs_pred = self.gshare[gi] >= 2;
        let use_gshare = self.chooser[bi] >= 2;
        let pred = if use_gshare { gs_pred } else { bim_pred };

        // Direction correct, and for taken branches the BTB must supply
        // the right target for the front end to redirect in time.
        let mut correct = pred == taken;
        if correct && taken {
            correct = match (self.btb_lookup(pc), target) {
                (Some(t), Some(actual)) => t == actual,
                _ => false,
            };
        }

        // Update chooser toward the component that was right.
        if bim_pred != gs_pred {
            if gs_pred == taken {
                sat_inc(&mut self.chooser[bi]);
            } else {
                sat_dec(&mut self.chooser[bi]);
            }
        }
        // Update direction tables.
        if taken {
            sat_inc(&mut self.bimodal[bi]);
            sat_inc(&mut self.gshare[gi]);
        } else {
            sat_dec(&mut self.bimodal[bi]);
            sat_dec(&mut self.gshare[gi]);
        }
        self.history = (self.history << 1) | taken as u32;
        if taken {
            if let Some(t) = target {
                self.btb_insert(pc, t);
            }
        }
        if !correct {
            self.mispredicts += 1;
        }
        correct
    }

    /// Looks up an indirect-jump target; returns whether the BTB had the
    /// correct target, updating it with the actual one.
    pub fn predict_indirect(&mut self, pc: Pc, actual: Pc) -> bool {
        self.lookups += 1;
        let hit = self.btb_lookup(pc) == Some(actual);
        self.btb_insert(pc, actual);
        if !hit {
            self.mispredicts += 1;
        }
        hit
    }

    fn btb_lookup(&self, pc: Pc) -> Option<Pc> {
        match self.btb[pc as usize % BTB_ENTRIES] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    fn btb_insert(&mut self, pc: Pc, target: Pc) {
        self.btb[pc as usize % BTB_ENTRIES] = Some((pc, target));
    }

    /// Total predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total mispredictions (direction or target).
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

impl Default for BranchPredictor {
    fn default() -> BranchPredictor {
        BranchPredictor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut bp = BranchPredictor::new();
        for _ in 0..10 {
            bp.predict_and_update(64, true, Some(3));
        }
        let before = bp.mispredicts();
        for _ in 0..100 {
            assert!(bp.predict_and_update(64, true, Some(3)));
        }
        assert_eq!(bp.mispredicts(), before);
    }

    #[test]
    fn learns_alternating_pattern_via_gshare() {
        let mut bp = BranchPredictor::new();
        // Alternating T/N: bimodal can't learn it, gshare can.
        let mut taken = false;
        for _ in 0..200 {
            taken = !taken;
            bp.predict_and_update(77, taken, Some(9));
        }
        let before = bp.mispredicts();
        for _ in 0..100 {
            taken = !taken;
            bp.predict_and_update(77, taken, Some(9));
        }
        let errors = bp.mispredicts() - before;
        assert!(
            errors < 10,
            "gshare should capture alternation ({errors} errors)"
        );
    }

    #[test]
    fn random_branch_mispredicts_often() {
        let mut bp = BranchPredictor::new();
        // Pseudo-random via LCG.
        let mut x: u64 = 12345;
        let mut wrong = 0;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 63) == 1;
            if !bp.predict_and_update(42, taken, Some(7)) {
                wrong += 1;
            }
        }
        assert!(wrong > 250, "random outcomes can't be predicted ({wrong})");
    }

    #[test]
    fn taken_needs_btb_target() {
        let mut bp = BranchPredictor::new();
        // Train direction taken but with changing targets: never correct
        // until the target stabilizes.
        for i in 0..8 {
            bp.predict_and_update(9, true, Some(i));
        }
        // Target now 7; a prediction with target 7 can be fully correct.
        let ok = bp.predict_and_update(9, true, Some(7));
        assert!(ok);
    }

    #[test]
    fn indirect_jumps() {
        let mut bp = BranchPredictor::new();
        assert!(!bp.predict_indirect(5, 100)); // cold
        assert!(bp.predict_indirect(5, 100)); // learned
        assert!(!bp.predict_indirect(5, 200)); // target changed
    }

    #[test]
    fn lookup_accounting() {
        let mut bp = BranchPredictor::new();
        assert_eq!(bp.mispredicts(), 0);
        bp.predict_and_update(1, true, Some(2));
        assert!(bp.lookups() == 1);
        assert_eq!(bp.mispredicts(), 1); // cold predictor was wrong
    }
}
