//! Telemetry integration: an ALS `optimize_workload` run with
//! `OptimizerConfig::telemetry` must leave a well-formed trace behind.
//!
//! Lives in its own integration-test binary (its own process) because it
//! asserts on the process-global journal and registry — in-process
//! sibling tests would interleave their events.

use spores_core::Optimizer;
use spores_ml::workloads;
use spores_ml::{workload_bundle, workload_optimizer_config};
use spores_telemetry as telemetry;

#[test]
fn als_workload_trace_has_one_phase_span_set_per_iteration() {
    telemetry::reset();
    let bundle = workload_bundle(&workloads::als(60, 40, 4, 11));
    let mut cfg = workload_optimizer_config();
    cfg.telemetry = true;
    let opt = Optimizer::new(cfg)
        .optimize_workload(&bundle.expr, &bundle.vars)
        .expect("ALS optimizes");
    telemetry::set_enabled(false);

    let events = telemetry::drain();
    let json = telemetry::chrome_trace_json(&events);
    let check = telemetry::validate_chrome_trace(&json).expect("emitted trace is schema-valid");

    let iters = opt.saturation.iterations as u64;
    assert!(iters > 0, "saturation ran");
    assert_eq!(
        check.spans("saturation.rebuild"),
        iters,
        "exactly one rebuild span per saturation iteration"
    );
    assert_eq!(check.spans("saturation.search"), iters);
    assert_eq!(check.spans("saturation.apply"), iters);
    assert_eq!(check.spans("saturation.iter"), iters);
    for phase in ["optimize.translate", "optimize.saturate", "optimize.lower"] {
        assert_eq!(check.spans(phase), 1, "one {phase} span per optimize call");
    }

    // The per-rule counters mirror `RuleIterStats` exactly: summed over
    // rules they must reproduce the run's aggregate stats.
    let registry = telemetry::global().registry();
    assert_eq!(
        registry.counter_sum("saturation.rule.candidates") as usize,
        opt.saturation.candidates_visited,
        "per-rule candidate counters sum to SaturationStats.candidates_visited"
    );
    assert_eq!(
        registry.counter_sum("saturation.rule.matches") as usize,
        opt.saturation.matches_found,
        "per-rule match counters sum to SaturationStats.matches_found"
    );

    // Every search task's span carries its match count, so the trace
    // alone accounts for every match, without the registry.
    let shard_matches: u64 = events
        .iter()
        .filter(|e| e.name == "saturation.search.shard" && e.kind == telemetry::EventKind::End)
        .flat_map(|e| &e.args)
        .filter(|(key, _)| *key == "matches")
        .map(|(_, v)| match v {
            telemetry::ArgValue::UInt(n) => *n,
            other => panic!("shard matches arg is not a count: {other:?}"),
        })
        .sum();
    assert_eq!(
        shard_matches as usize, opt.saturation.matches_found,
        "shard span match args sum to SaturationStats.matches_found"
    );
}
