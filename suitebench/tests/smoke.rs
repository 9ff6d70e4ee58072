//! Every workload at a small budget over two kernels, with the layer
//! pass: every metric `BENCHMARK.json` names is emitted with its unit,
//! no call or check fails, and the workloads that must agree do.

use preexec_suitebench::metrics::{Metric, MetricSpec, Spec};
use preexec_suitebench::run::{self, Config};
use std::collections::BTreeMap;

fn assert_emitted(workload: &str, specs: &[MetricSpec], got: &[Metric]) {
    assert_eq!(got.len(), specs.len(), "{workload}: metric count");
    for s in specs {
        let m = got
            .iter()
            .find(|m| m.name == s.name)
            .unwrap_or_else(|| panic!("{workload}: {} missing", s.name));
        assert_eq!(m.unit, s.unit, "{workload}: {} unit", s.name);
        assert!(m.value.is_finite(), "{workload}: {} = {}", s.name, m.value);
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = Spec::built_in().unwrap();
    let mut digests = BTreeMap::new();
    for name in &spec.workloads {
        let mut cfg = Config::new(run::workload(name, false).unwrap());
        cfg.budget = 4_000;
        cfg.kernels = vec!["mcf", "vpr.r"];
        cfg.seconds = 0.0;
        cfg.min_rounds = 1;
        cfg.setup_reps = 1;
        cfg.layers = true;
        cfg.check_reference = false;
        let r = run::run(&cfg).unwrap();
        assert!(r.correct(), "{name}: {:?}", r.failures);
        assert_eq!(
            r.attempted, 4,
            "{name}: two timed calls and two layer passes"
        );
        assert_emitted(name, &spec.end_to_end, &r.end_to_end);
        assert_emitted(name, &spec.per_layer, &r.per_layer);
        let per_kernel: Vec<(u64, u64)> = r
            .kernels
            .iter()
            .map(|k| (k.forest_fnv, k.result_fnv))
            .collect();
        digests.insert(name.as_str(), per_kernel);
    }
    // The artifact path reproduces the full run, and on-demand slicing
    // reproduces the windowed forest and result.
    assert_eq!(digests["reuse-train"], digests["full-train"]);
    assert_eq!(digests["ondemand-train"], digests["full-train"]);
    assert_ne!(digests["full-test"], digests["full-train"]);
}
