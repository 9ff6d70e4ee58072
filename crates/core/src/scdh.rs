//! Sequencing-constrained dataflow height (SCDH), the paper's execution
//! time estimator (§3.1).
//!
//! SCDH is standard dataflow height except that each instruction's input
//! height also includes a *sequencing constraint* `SC = DIST_trig / BW` —
//! the cycle at which the instruction can be fetched given the sequencing
//! bandwidth available to its thread. Live-in values (seeds) are available
//! at time 0, when the trigger launches both "threads" of the comparison.

use crate::{Body, BodyInst};

/// Computes the SCDH of a body's final instruction (the targeted load)
/// under the sequencing-constraint function `sc`, which maps a body index
/// to the cycle at which that instruction is sequenced.
///
/// The recursion is the paper's: for instruction `i`,
/// `SCDH(i) = max(SC(i), max over producers j of SCDH(j)) + latency(i)`,
/// with absent producers (live-ins) contributing 0.
///
/// # Panics
///
/// Panics if the body is empty.
pub fn scdh(body: &Body, sc: impl Fn(usize) -> f64) -> f64 {
    scdh_in(body.insts(), &mut Vec::new(), sc)
}

/// The one SCDH recursion behind every public entry point and the
/// candidate scorer, keeping the per-instruction heights in a buffer the
/// caller reuses.
///
/// # Panics
///
/// Panics if `insts` is empty.
pub(crate) fn scdh_in(
    insts: &[BodyInst],
    heights: &mut Vec<f64>,
    sc: impl Fn(usize) -> f64,
) -> f64 {
    assert!(!insts.is_empty(), "SCDH of an empty body");
    heights.clear();
    for (i, bi) in insts.iter().enumerate() {
        let dep_height = bi.deps.iter().map(|&d| heights[d]).fold(0.0f64, f64::max);
        heights.push(sc(i).max(dep_height) + bi.inst.op.scdh_latency() as f64);
    }
    heights[insts.len() - 1]
}

/// SCDH of the body as executed by the **p-thread**: sequencing bandwidth
/// `BW_seq-pt = 1` ("p-threads are single computations that execute
/// serially"), so instruction `i` is sequenced at cycle `i`.
pub fn scdh_pthread(body: &Body) -> f64 {
    scdh_pthread_in(body.insts(), &mut Vec::new())
}

/// [`scdh_pthread`] over instructions, with a reused height buffer.
pub(crate) fn scdh_pthread_in(insts: &[BodyInst], heights: &mut Vec<f64>) -> f64 {
    scdh_in(insts, heights, |i| i as f64)
}

/// SCDH of the same computation as executed by the **main thread**:
/// instruction `i` is sequenced at `DIST_trig(i) / BW_seq-mt`, using the
/// per-instruction main-thread trigger distances carried by the body.
pub fn scdh_main(body: &Body, bw_seq_mt: f64) -> f64 {
    scdh_main_in(body.insts(), &mut Vec::new(), bw_seq_mt)
}

/// [`scdh_main`] over instructions, with a reused height buffer.
pub(crate) fn scdh_main_in(insts: &[BodyInst], heights: &mut Vec<f64>, bw_seq_mt: f64) -> f64 {
    assert!(bw_seq_mt > 0.0, "bw_seq_mt must be positive");
    scdh_in(insts, heights, |i| insts[i].mt_dist / bw_seq_mt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BodyInst;
    use preexec_isa::{Inst, Op, Reg};

    fn alu_chain(n: usize, stride: f64) -> Body {
        // n dependent addi's ending in a load, each mt_dist = i*stride.
        let mut v = Vec::new();
        for i in 0..n {
            let inst = if i + 1 == n {
                Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0)
            } else {
                Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8)
            };
            let deps = if i == 0 { vec![] } else { vec![i - 1] };
            v.push(BodyInst {
                inst,
                deps,
                mt_dist: i as f64 * stride,
            });
        }
        Body::new(v)
    }

    #[test]
    fn serial_chain_height() {
        // Dependent chain of 4 unit-latency ops with SC(i)=i:
        // h = 1, 2, 3, 4.
        let b = alu_chain(4, 1.0);
        assert_eq!(scdh_pthread(&b), 4.0);
    }

    #[test]
    fn sequencing_constraint_dominates_sparse_code() {
        // Main-thread distances large: heights driven by SC, not dataflow.
        let b = alu_chain(4, 12.0); // dists 0,12,24,36
        let mt = scdh_main(&b, 2.0); // SC = 0,6,12,18 -> h = ..,19
        assert_eq!(mt, 19.0);
        assert!(mt > scdh_pthread(&b));
    }

    #[test]
    fn independent_ops_limited_by_sequencing_only() {
        // Two independent ops then a load depending on the second.
        let a = Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8);
        let l = Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0);
        let b = Body::new(vec![
            BodyInst {
                inst: a,
                deps: vec![],
                mt_dist: 0.0,
            },
            BodyInst {
                inst: a,
                deps: vec![],
                mt_dist: 1.0,
            },
            BodyInst {
                inst: l,
                deps: vec![1],
                mt_dist: 2.0,
            },
        ]);
        // pt: h0=1, h1=max(1,0)+1=2, h2=max(2,2)+1=3
        assert_eq!(scdh_pthread(&b), 3.0);
    }

    #[test]
    fn live_ins_available_at_zero() {
        let l = Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0);
        let b = Body::new(vec![BodyInst {
            inst: l,
            deps: vec![],
            mt_dist: 5.0,
        }]);
        assert_eq!(scdh_pthread(&b), 1.0); // max(0, -) + 1
        assert_eq!(scdh_main(&b, 2.0), 3.5); // max(2.5, -) + 1
    }

    #[test]
    fn multiply_latency_counts() {
        let m = Inst::rtype(Op::Mul, Reg::new(1), Reg::new(1), Reg::new(1));
        let l = Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0);
        let b = Body::new(vec![
            BodyInst {
                inst: m,
                deps: vec![],
                mt_dist: 0.0,
            },
            BodyInst {
                inst: l,
                deps: vec![0],
                mt_dist: 1.0,
            },
        ]);
        assert_eq!(scdh_pthread(&b), 4.0); // 3 (mul) + 1 (load issue)
    }

    #[test]
    fn pthread_never_slower_than_serial_main_with_same_deps() {
        // With identical dep structure and mt distances >= positions,
        // the p-thread (BW 1, dense positions) is at least as fast.
        for n in 1..10 {
            let b = alu_chain(n, 3.0);
            assert!(scdh_pthread(&b) <= scdh_main(&b, 2.0) + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "empty body")]
    fn empty_body_panics() {
        let _ = scdh_pthread(&Body::default());
    }
}
