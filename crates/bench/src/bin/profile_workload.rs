//! Telemetry-driven phase profiler for the workload-mode optimizer.
//!
//! Runs each §4.2 workload through `Optimizer::optimize_workload` with
//! telemetry enabled and folds the drained span journal into a per-phase
//! wall-time breakdown (translate / saturate split into search, apply,
//! rebuild / extract / lower), so saturation-side changes can be
//! attributed to the phase they actually move — the hand-rolled
//! `Instant::now()` pairs this bin used to carry now live in the
//! `spores-telemetry` spans themselves.
//!
//! Flags:
//!
//! * `--workload NAME` — profile only the named workload
//!   (case-insensitive: `als`, `glm`, `svm`, `mlr`, `pnmf`);
//! * `--trace-out PATH` — additionally write the combined Chrome
//!   trace-event JSON, loadable in `chrome://tracing` or
//!   <https://ui.perfetto.dev>. CI schema-checks this artifact with the
//!   `trace_check` bin.

use spores_core::Optimizer;
use spores_ml::workloads::{self, Workload};
use spores_ml::{workload_bundle, workload_optimizer_config};
use spores_telemetry as telemetry;
use std::time::{Duration, Instant};

fn roster() -> Vec<Workload> {
    vec![
        workloads::als(200, 100, 8, 51),
        workloads::glm(200, 40, 52),
        workloads::svm(200, 40, 53),
        workloads::mlr(200, 20, 54),
        workloads::pnmf(150, 120, 8, 55),
    ]
}

fn fmt(d: Duration) -> String {
    format!("{d:.1?}")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|ix| {
            args.get(ix + 1)
                .unwrap_or_else(|| panic!("{flag} takes a value"))
                .clone()
        })
    };
    let only = flag_value("--workload").map(|w| w.to_lowercase());
    let trace_out = flag_value("--trace-out");

    let mut cfg = workload_optimizer_config();
    cfg.telemetry = true;

    let mut all_events = Vec::new();
    let mut profiled = 0usize;
    for w in roster() {
        if let Some(only) = &only {
            if w.name.to_lowercase() != *only {
                continue;
            }
        }
        profiled += 1;
        // Clean per-workload slate: the journal is drained after each run,
        // but the per-rule counters in the global registry accumulate.
        telemetry::reset();
        let bundle = workload_bundle(&w);
        let t0 = Instant::now();
        let opt = Optimizer::new(cfg.clone())
            .optimize_workload(&bundle.expr, &bundle.vars)
            .expect("workload optimizes");
        let total = t0.elapsed();
        let events = telemetry::drain();
        let phases = telemetry::span_durations(&events);
        let registry = telemetry::global().registry();
        let candidates = registry.counter_sum("saturation.rule.candidates");
        // Match waste: how many matches the search materialized against
        // how many the scheduler actually applied.
        let matches = registry.counter_sum("saturation.rule.matches");
        let applied = registry.counter_sum("saturation.rule.applied");
        let saturate = phases.total("optimize.saturate");
        let search = phases.total("saturation.search");
        let apply = phases.total("saturation.apply");
        let rebuild = phases.total("saturation.rebuild");
        let extract = phases
            .total("optimize.extract.ilp")
            .max(phases.total("optimize.extract.greedy"));
        println!(
            "{:>5}: total {:>9}  translate {:>9}  saturate {:>9}  [search {:>9}  apply {:>9}  rebuild {:>9}]  extract {:>9}  lower {:>9}  iters {:>3}  candidates {:>7}  matches {:>8}  applied {:>6}  nodes {:>6}  stop {:?}",
            w.name,
            fmt(total),
            fmt(phases.total("optimize.translate")),
            fmt(saturate),
            fmt(search),
            fmt(apply),
            fmt(rebuild),
            fmt(extract),
            fmt(phases.total("optimize.lower")),
            phases.count("saturation.iter"),
            candidates,
            matches,
            applied,
            opt.saturation.e_nodes,
            opt.saturation.stop_reason,
        );
        assert_eq!(
            candidates as usize, opt.saturation.candidates_visited,
            "{}: per-rule candidate counters must sum to SaturationStats.candidates_visited",
            w.name
        );
        assert_eq!(
            matches as usize, opt.saturation.matches_found,
            "{}: per-rule match counters must sum to SaturationStats.matches_found",
            w.name
        );
        all_events.extend(events);
    }
    if profiled == 0 {
        panic!("--workload matched nothing; roster: als, glm, svm, mlr, pnmf");
    }
    if let Some(path) = trace_out {
        let json = telemetry::chrome_trace_json(&all_events);
        telemetry::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("emitted trace failed its own schema check: {e}"));
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {} trace events to {path}", all_events.len());
    }
}
