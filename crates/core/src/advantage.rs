//! Aggregate advantage (§3.1): the single numeric score that balances
//! latency tolerance, overhead, miss coverage and useless p-threads.

use crate::{scdh, Body, SelectionParams};

/// The full advantage calculation for one candidate static p-thread.
///
/// Fields mirror the columns of the paper's Figure 2: per-instance latency
/// tolerance and overhead, their aggregates over the candidate's dynamic
/// instances, and the final score.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Advantage {
    /// `SCDH_pt`: estimated cycles for the p-thread to reach the miss.
    pub scdh_pt: f64,
    /// `SCDH_mt`: estimated cycles for the unassisted main thread to reach
    /// the same miss, from the trigger.
    pub scdh_mt: f64,
    /// `LT` per useful dynamic instance: `min(⌊SCDH_mt − SCDH_pt⌋, L_cm)`,
    /// clamped at zero.
    pub lt: f64,
    /// `OH` per dynamic instance: sequencing cycles stolen from the main
    /// thread, utilization-discounted.
    pub oh: f64,
    /// `LT_agg = DC_pt-cm · LT`.
    pub lt_agg: f64,
    /// `OH_agg = DC_trig · OH`.
    pub oh_agg: f64,
    /// `ADV_agg = LT_agg − OH_agg`.
    pub adv_agg: f64,
    /// Whether the candidate achieves *full* latency tolerance
    /// (`LT == L_cm`), i.e. its covered misses become full hits.
    pub full_coverage: bool,
}

/// Scores one candidate static p-thread.
///
/// `exec_body` is the (possibly optimized) instruction sequence the
/// p-thread will actually execute — it determines `SIZE_pt` and `SCDH_pt`.
/// `main_body` is the original, unoptimized computation as the main thread
/// executes it — it determines `SCDH_mt`. When optimization is off the two
/// are the same body (§3.3: "we fit p-thread optimization into our
/// framework by allowing the calculations for SCDH_pt and SIZE_pt to use
/// any sequence of instructions that is functionally equivalent").
///
/// `dc_trig` is the trigger's dynamic count; `dc_ptcm` the number of those
/// launches that pre-execute an actual miss.
///
/// # Panics
///
/// Panics if either body is empty (see [`scdh::scdh`]).
pub fn aggregate_advantage(
    params: &SelectionParams,
    exec_body: &Body,
    main_body: &Body,
    dc_trig: u64,
    dc_ptcm: u64,
) -> Advantage {
    let scdh_pt = scdh::scdh_pthread(exec_body);
    let scdh_mt = scdh::scdh_main(main_body, params.bw_seq_mt());
    advantage_of(params, scdh_pt, scdh_mt, exec_body.len(), dc_trig, dc_ptcm)
}

/// The one advantage arithmetic behind [`aggregate_advantage`] and the
/// candidate scorer: the score of a candidate whose executed body has
/// `exec_len` instructions and the two SCDH heights given.
pub(crate) fn advantage_of(
    params: &SelectionParams,
    scdh_pt: f64,
    scdh_mt: f64,
    exec_len: usize,
    dc_trig: u64,
    dc_ptcm: u64,
) -> Advantage {
    // Latency tolerance: whole cycles of hoisting, at most the miss
    // latency ("it does not benefit the main thread to tolerate more
    // latency than the latency of the miss"), never negative.
    let diff = (scdh_mt - scdh_pt).floor();
    let lt = diff.clamp(0.0, params.miss_latency);
    let oh = exec_len as f64 * params.oh_per_inst();
    let lt_agg = dc_ptcm as f64 * lt;
    let oh_agg = dc_trig as f64 * oh;
    Advantage {
        scdh_pt,
        scdh_mt,
        lt,
        oh,
        lt_agg,
        oh_agg,
        adv_agg: lt_agg - oh_agg,
        full_coverage: lt >= params.miss_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BodyInst;
    use preexec_isa::{Inst, Op, Reg};

    /// A dependent chain body of `n` instructions whose main-thread
    /// distances are `stride` apart.
    fn chain(n: usize, stride: f64) -> Body {
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

    fn params() -> SelectionParams {
        SelectionParams::working_example() // BW 4, IPC 1, Lcm 8
    }

    #[test]
    fn lt_capped_at_miss_latency() {
        let b = chain(4, 40.0); // enormous main-thread distances
        let a = aggregate_advantage(&params(), &b, &b, 10, 10);
        assert_eq!(a.lt, 8.0);
        assert!(a.full_coverage);
    }

    #[test]
    fn lt_never_negative() {
        // Main thread distances 0: the p-thread has no fetch advantage.
        let b = chain(3, 0.0);
        let a = aggregate_advantage(&params(), &b, &b, 10, 10);
        assert_eq!(a.lt, 0.0);
        assert!(a.adv_agg < 0.0); // pure overhead
        assert!(!a.full_coverage);
    }

    #[test]
    fn overhead_linear_in_size_and_launches() {
        let b3 = chain(3, 2.0);
        let b6 = chain(6, 2.0);
        let a3 = aggregate_advantage(&params(), &b3, &b3, 100, 0);
        let a6 = aggregate_advantage(&params(), &b6, &b6, 100, 0);
        assert!((a3.oh - 3.0 * 0.125).abs() < 1e-12);
        assert!((a6.oh_agg - 2.0 * a3.oh_agg).abs() < 1e-9);
        let a3_more = aggregate_advantage(&params(), &b3, &b3, 200, 0);
        assert!((a3_more.oh_agg - 2.0 * a3.oh_agg).abs() < 1e-9);
    }

    #[test]
    fn useless_pthreads_hurt_score_only_via_overhead() {
        let b = chain(4, 12.0);
        let tight = aggregate_advantage(&params(), &b, &b, 10, 10);
        let loose = aggregate_advantage(&params(), &b, &b, 100, 10);
        assert_eq!(tight.lt_agg, loose.lt_agg);
        assert!(loose.adv_agg < tight.adv_agg);
    }

    #[test]
    fn optimized_exec_body_lowers_overhead_and_height() {
        let main = chain(6, 12.0);
        let opt = chain(4, 12.0); // pretend folding shrank the body
        let a_unopt = aggregate_advantage(&params(), &main, &main, 50, 25);
        let a_opt = aggregate_advantage(&params(), &opt, &main, 50, 25);
        assert!(a_opt.oh < a_unopt.oh);
        assert!(a_opt.scdh_pt < a_unopt.scdh_pt);
        assert_eq!(a_opt.scdh_mt, a_unopt.scdh_mt);
        assert!(a_opt.adv_agg >= a_unopt.adv_agg);
    }

    #[test]
    fn lt_floored_to_whole_cycles() {
        // Construct a fractional SCDH difference and check flooring.
        let b = chain(2, 3.0); // mt dists 0,3 -> SC 0,1.5 with BW 2
        let a = aggregate_advantage(&params(), &b, &b, 1, 1);
        // pt: h = 1, then max(1,1)+1 = 2. mt: h0 = 1, h1 = max(1.5,1)+1 = 2.5.
        assert_eq!(a.scdh_pt, 2.0);
        assert_eq!(a.scdh_mt, 2.5);
        assert_eq!(a.lt, 0.0); // floor(0.5) = 0
    }
}
