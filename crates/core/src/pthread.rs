//! The selected static p-thread: the framework's output artifact.

use crate::Advantage;
use preexec_isa::{Inst, Pc};
use std::fmt;

/// A selected static p-thread: a trigger/body pair plus the framework's
/// diagnostic predictions for it.
///
/// Dynamic instances of this p-thread are launched every time the main
/// thread renames an instance of `trigger`; the body executes as a
/// control-less instruction sequence whose live-in registers are seeded
/// from main-thread state at launch, ending at the targeted problem
/// load(s).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticPThread {
    /// PC of the trigger instruction in the main program.
    pub trigger: Pc,
    /// PCs of the problem load(s) this p-thread pre-executes. A single
    /// load unless merging combined p-threads for several.
    pub targets: Vec<Pc>,
    /// The body: instructions executed by the p-thread, in order.
    pub body: Vec<Inst>,
    /// `DC_trig`: expected dynamic launches over the sample.
    pub dc_trig: u64,
    /// `DC_pt-cm`: expected launches that pre-execute an actual miss
    /// (summed over targets for merged p-threads).
    pub dc_ptcm: u64,
    /// The advantage calculation this p-thread was selected under (for a
    /// merged p-thread, recomputed over the merged body).
    pub advantage: Advantage,
}

impl StaticPThread {
    /// Number of body instructions (`SIZE_pt`).
    pub fn size(&self) -> usize {
        self.body.len()
    }
}

impl fmt::Display for StaticPThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "p-thread @trigger #{:02} -> targets {:?} (ADVagg {:.1}, LT {:.0}, {} launches, {} useful)",
            self.trigger, self.targets, self.advantage.adv_agg, self.advantage.lt,
            self.dc_trig, self.dc_ptcm
        )?;
        for inst in &self.body {
            writeln!(f, "    {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{Op, Reg};

    fn sample() -> StaticPThread {
        StaticPThread {
            trigger: 11,
            targets: vec![9],
            body: vec![
                Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16),
                Inst::load(Op::Lw, Reg::new(7), Reg::new(5), 4),
            ],
            dc_trig: 100,
            dc_ptcm: 30,
            advantage: Advantage {
                scdh_pt: 2.0,
                scdh_mt: 10.0,
                lt: 8.0,
                oh: 0.25,
                lt_agg: 240.0,
                oh_agg: 25.0,
                adv_agg: 215.0,
                full_coverage: true,
            },
        }
    }

    #[test]
    fn size_is_the_body_length() {
        assert_eq!(sample().size(), 2);
    }

    #[test]
    fn display_contains_body() {
        let text = sample().to_string();
        assert!(text.contains("addi r5, r5, 16"));
        assert!(text.contains("trigger #11"));
    }
}
