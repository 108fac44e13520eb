//! Saturation counter pin (tier-1).
//!
//! Compiles the five §4.2 programs at the bench-roster sizes through
//! `optimize_workload` with the workload-mode configuration and pins the
//! seed-independent saturation counts exactly: iterations, e-nodes,
//! candidate classes visited, matches found, and the extracted plan's
//! cost estimate. A change that claims to leave the saturation
//! trajectory untouched (a matcher or scheduler refactor, a faster data
//! layout) must keep every one of these numbers, at any search thread
//! count and on either matching backend's default.
//!
//! The time limit is raised far above `SATURATION_TIMEOUT` so a slow
//! (debug, loaded) host cannot cut a run short and change the counts;
//! the stop reason is asserted to be region convergence.

use spores::core::OptimizerConfig;
use spores::core::{Optimizer, WorkloadOptimized};
use spores::egraph::StopReason;
use spores::ml::workloads::{self, Workload};
use spores::ml::{workload_bundle, workload_optimizer_config};
use std::time::Duration;

/// Expected counts of one program's saturation.
struct Pin {
    iterations: usize,
    e_nodes: usize,
    candidates: usize,
    matches: usize,
    cost_after: f64,
}

fn config() -> OptimizerConfig {
    OptimizerConfig {
        time_limit: Duration::from_secs(60),
        ..workload_optimizer_config()
    }
}

fn compile(w: &Workload) -> WorkloadOptimized {
    let bundle = workload_bundle(w);
    Optimizer::new(config())
        .optimize_workload(&bundle.expr, &bundle.vars)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

fn check(w: Workload, pin: Pin) {
    let got = compile(&w);
    let s = &got.saturation;
    let name = w.name;
    assert_eq!(
        s.stop_reason,
        Some(StopReason::RegionsConverged),
        "{name}: stop reason"
    );
    assert_eq!(s.iterations, pin.iterations, "{name}: iterations");
    assert_eq!(s.e_nodes, pin.e_nodes, "{name}: e-nodes");
    assert_eq!(s.candidates_visited, pin.candidates, "{name}: candidates");
    assert_eq!(s.matches_found, pin.matches, "{name}: matches");
    assert_eq!(got.cost_after, pin.cost_after, "{name}: cost after");
}

#[test]
fn als_counts_are_pinned() {
    check(
        workloads::als(200, 100, 8, 1),
        Pin {
            iterations: 96,
            e_nodes: 2072,
            candidates: 261_307,
            matches: 1_336_128,
            cost_after: 53_430.0,
        },
    );
}

#[test]
fn glm_counts_are_pinned() {
    check(
        workloads::glm(200, 40, 2),
        Pin {
            iterations: 33,
            e_nodes: 717,
            candidates: 23_871,
            matches: 94_980,
            cost_after: 1_362.0,
        },
    );
}

#[test]
fn svm_counts_are_pinned() {
    check(
        workloads::svm(200, 40, 3),
        Pin {
            iterations: 14,
            e_nodes: 394,
            candidates: 5_607,
            matches: 13_418,
            cost_after: 1_628.0,
        },
    );
}

#[test]
fn mlr_counts_are_pinned() {
    check(
        workloads::mlr(200, 20, 4),
        Pin {
            iterations: 34,
            e_nodes: 641,
            candidates: 17_968,
            matches: 68_612,
            cost_after: 1_017.0,
        },
    );
}

#[test]
fn pnmf_counts_are_pinned() {
    check(
        workloads::pnmf(150, 120, 8, 5),
        Pin {
            iterations: 15,
            e_nodes: 482,
            candidates: 6_755,
            matches: 18_390,
            cost_after: 110_551.0,
        },
    );
}
