//! The benchmark suite registry.

use crate::kernels;
use crate::InputSet;
use preexec_isa::Program;

/// One benchmark of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The benchmark's name, matching the paper's Table 1 column.
    pub name: &'static str,
    builder: fn(InputSet) -> Program,
}

impl Workload {
    /// Builds the benchmark's program for `input`.
    pub fn build(&self, input: InputSet) -> Program {
        (self.builder)(input)
    }
}

/// The ten benchmark/input combinations of the paper's Table 1, in the
/// paper's order: bzip2, crafty, gap, gcc, mcf, parser, twolf, vortex,
/// vpr.p, vpr.r.
///
/// # Example
///
/// ```
/// use preexec_workloads::{suite, InputSet};
///
/// for w in suite() {
///     let p = w.build(InputSet::Train);
///     assert!(p.len() > 10, "{} too small", w.name);
/// }
/// ```
pub fn suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "bzip2",
            builder: kernels::bzip2::build,
        },
        Workload {
            name: "crafty",
            builder: kernels::crafty::build,
        },
        Workload {
            name: "gap",
            builder: kernels::gap::build,
        },
        Workload {
            name: "gcc",
            builder: kernels::gcc::build,
        },
        Workload {
            name: "mcf",
            builder: kernels::mcf::build,
        },
        Workload {
            name: "parser",
            builder: kernels::parser::build,
        },
        Workload {
            name: "twolf",
            builder: kernels::twolf::build,
        },
        Workload {
            name: "vortex",
            builder: kernels::vortex::build,
        },
        Workload {
            name: "vpr.p",
            builder: kernels::vpr_place::build,
        },
        Workload {
            name: "vpr.r",
            builder: kernels::vpr_route::build,
        },
    ]
}

/// Finds a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};

    #[test]
    fn ten_workloads_in_paper_order() {
        let names: Vec<&str> = suite().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "bzip2", "crafty", "gap", "gcc", "mcf", "parser", "twolf", "vortex", "vpr.p",
                "vpr.r"
            ]
        );
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("mcf").is_some());
        assert!(by_name("eon").is_none());
    }

    #[test]
    fn every_workload_runs_and_misses_on_train() {
        let cfg = TraceConfig {
            max_steps: 300_000,
            ..TraceConfig::default()
        };
        for w in suite() {
            let p = w.build(InputSet::Train);
            assert_eq!(p.validate(), Ok(()), "{}", w.name);
            let stats = run_trace(&p, &cfg, |_| {});
            assert_eq!(stats.total_steps, 300_000, "{} halted early", w.name);
            assert!(
                stats.l2_misses > 500,
                "{} produced too few L2 misses: {}",
                w.name,
                stats.l2_misses
            );
        }
    }

    #[test]
    fn every_workload_halts_eventually() {
        // Use the (smaller) test inputs so the full runs stay quick.
        let cfg = TraceConfig::default();
        for w in suite() {
            let p = w.build(InputSet::Test);
            let stats = run_trace(&p, &cfg, |_| {});
            assert!(stats.total_steps < cfg.max_steps, "{} did not halt", w.name);
        }
    }

    #[test]
    fn inputs_differ() {
        for w in suite() {
            assert_ne!(
                w.build(InputSet::Train),
                w.build(InputSet::Alt),
                "{} alt input identical to train",
                w.name
            );
        }
    }
}
