//! `compile_suite`: one op is a cold compile of all five programs from
//! source text, each with a fresh `Optimizer` through
//! `optimize_workload`. Saturation is almost all of it.
//!
//! The traced run calls the layers one by one, in the order
//! `optimize_workload` calls them, and must reproduce the untraced
//! compile's plan and counts exactly (the decomposition cross-check).

use crate::check::{self, plan_text};
use crate::probe::{probe_ms, scaled};
use crate::programs::{compile_roster, tag, PROGRAMS};
use crate::report::{self, median, ratio, Measured, Report};
use crate::trace::{self, Tracer};
use crate::{guarded, RunSpec, SEARCH_THREADS, SETUPS};
use spores_core::analysis::{MathGraph, MetaAnalysis};
use spores_core::{
    default_rules, extract_greedy_multi, lower_workload, translate_workload, ExtractorKind,
    NnzCost, Optimizer, OptimizerConfig, WorkloadOptimized,
};
use spores_egraph::{Extractor, Id, ParallelConfig, RegionConfig, Runner, StopReason};
use spores_ml::workloads::Workload;
use spores_ml::{workload_bundle, workload_optimizer_config};
use std::time::{Duration, Instant};

/// The tail percentile `op_ms.tail` reports: a run at the declared
/// `run_seconds` has at least ten ops beyond it.
const TAIL: f64 = 0.75;

fn config() -> OptimizerConfig {
    OptimizerConfig {
        parallel: ParallelConfig {
            threads: SEARCH_THREADS,
            ..ParallelConfig::serial()
        },
        ..workload_optimizer_config()
    }
}

/// A program and what its set-up compile produced; every op must
/// reproduce this plan.
struct Program {
    tag: &'static str,
    workload: Workload,
    plan: String,
    iterations: usize,
    e_nodes: usize,
    candidates: usize,
    /// The set-up plan's output check against the unoptimized reference.
    verdict: Result<(), String>,
}

fn compile(w: &Workload, cfg: &OptimizerConfig) -> Result<WorkloadOptimized, String> {
    let bundle = workload_bundle(w);
    Optimizer::new(cfg.clone())
        .optimize_workload(&bundle.expr, &bundle.vars)
        .map_err(|e| e.to_string())
}

fn roots_of(got: &WorkloadOptimized) -> Vec<spores_ir::NodeId> {
    got.roots.iter().map(|&(_, r)| r).collect()
}

/// Data generation plus the set-up compile, which is also the warm-up.
fn set_up(seed: u64, cfg: &OptimizerConfig) -> Result<Vec<(Workload, WorkloadOptimized)>, String> {
    compile_roster(seed)
        .into_iter()
        .map(|w| {
            let got = compile(&w, cfg).map_err(|e| format!("{}: {e}", w.name))?;
            Ok((w, got))
        })
        .collect()
}

/// Execute a compiled workload plan once and check every statement's
/// value against the unoptimized reference.
fn verify(w: &Workload, got: &WorkloadOptimized) -> Result<f64, String> {
    let reference = check::reference_pass(w)?;
    let mut exec = spores_exec::Executor::new(spores_exec::ExecConfig { fusion: true });
    let mut env = w.inputs.clone();
    exec.run_many(&got.arena, &got.roots, &mut env)
        .map_err(|e| e.to_string())?;
    let names: Vec<_> = got.roots.iter().map(|&(n, _)| n).collect();
    check::agree_all(&env, &names, &reference)
}

fn check_op(p: &Program, got: &WorkloadOptimized) -> Result<(), String> {
    if let Some(StopReason::TimeLimit(_)) = got.saturation.stop_reason {
        return Err("saturation stopped at its time limit".into());
    }
    if plan_text(&got.arena, &roots_of(got)) != p.plan {
        return Err("plan differs from the set-up compile's".into());
    }
    p.verdict.clone()
}

/// What the layer-by-layer pipeline produced for one program.
struct Layers {
    plan: String,
    iterations: usize,
    e_nodes: usize,
    e_classes: usize,
    candidates: usize,
    matches: usize,
    unions: usize,
    time_limited: bool,
    search_ms: f64,
    apply_ms: f64,
    rebuild_ms: f64,
    arena_nodes: usize,
    translate_nodes: usize,
    plan_nodes: usize,
    cost_before: f64,
    cost_after: f64,
}

/// `optimize_workload` for a greedy, region-freezing config, one layer
/// call at a time, each wrapped in a span.
fn traced_compile(
    w: &Workload,
    cfg: &OptimizerConfig,
    tr: &mut Tracer,
    tag: &'static str,
) -> Result<Layers, String> {
    assert!(cfg.extractor == ExtractorKind::Greedy && cfg.region_freezing);
    assert!(cfg.rule_priors.is_none());
    let s = tr.begin("ir.parse", tag);
    let bundle = workload_bundle(w);
    tr.end(s);

    let s = tr.begin("core.translate", tag);
    let wt = translate_workload(&bundle.expr.arena, &bundle.expr.roots, &bundle.vars);
    tr.end(s);
    let wt = wt.map_err(|e| e.to_string())?;

    let s = tr.begin("egraph.saturate", tag);
    let rules = default_rules();
    let mut runner = Runner::new(MetaAnalysis::new(wt.ctx.clone()))
        .with_scheduler(cfg.scheduler.clone())
        .with_iter_limit(cfg.iter_limit)
        .with_node_limit(cfg.node_limit)
        .with_time_limit(cfg.time_limit)
        .with_parallel(cfg.parallel)
        .with_matching(cfg.matching)
        .with_regions(RegionConfig::default());
    for rt in &wt.roots {
        runner = runner.with_expr(&rt.expr);
    }
    let runner = runner.run(&rules);
    tr.end(s);

    // the input plans' cost, as optimize_workload prices it
    let s = tr.begin("core.cost", tag);
    let mut pre = MathGraph::new(MetaAnalysis::new(wt.ctx.clone()));
    let ids: Vec<Id> = wt.roots.iter().map(|rt| pre.add_expr(&rt.expr)).collect();
    pre.rebuild();
    let priced = Extractor::new(&pre, NnzCost);
    let cost_before: f64 = ids
        .iter()
        .map(|&id| priced.best_cost(id).unwrap_or(f64::INFINITY))
        .sum();
    tr.end(s);

    let s = tr.begin("core.extract", tag);
    let extracted = extract_greedy_multi(&runner.egraph, &runner.roots);
    tr.end(s);
    let (cost_after, expr, ids) = extracted.ok_or("greedy extraction found no plan")?;

    let s = tr.begin("core.lower", tag);
    let specs: Vec<_> = ids
        .iter()
        .zip(&wt.roots)
        .map(|(&id, rt)| (id, rt.row, rt.col))
        .collect();
    let lowered = lower_workload(&expr, &specs, &wt.ctx);
    tr.end(s);
    let low = lowered.map_err(|e| e.to_string())?;

    let its = &runner.iterations;
    let ms = |f: fn(&spores_egraph::Iteration) -> Duration| {
        its.iter().map(f).sum::<Duration>().as_secs_f64() * 1e3
    };
    Ok(Layers {
        plan: plan_text(&low.arena, &low.roots),
        iterations: its.len(),
        e_nodes: runner.egraph.total_number_of_nodes(),
        e_classes: runner.egraph.number_of_classes(),
        candidates: its
            .iter()
            .flat_map(|it| &it.rules)
            .map(|r| r.candidates)
            .sum(),
        matches: its.iter().map(|it| it.matches_found).sum(),
        unions: its.iter().map(|it| it.unions).sum(),
        time_limited: matches!(runner.stop_reason, Some(StopReason::TimeLimit(_))),
        search_ms: ms(|it| it.search_time),
        apply_ms: ms(|it| it.apply_time),
        rebuild_ms: ms(|it| it.rebuild_time),
        arena_nodes: bundle.expr.arena.len(),
        translate_nodes: wt.roots.iter().map(|rt| rt.expr.len()).sum(),
        plan_nodes: low.arena.len(),
        cost_before,
        cost_after,
    })
}

/// The decomposition cross-check: the layer-by-layer pipeline must give
/// the untraced compile's plan and counts.
fn cross_check(p: &Program, l: &Layers) -> Result<(), String> {
    if l.time_limited {
        return Err("saturation stopped at its time limit".into());
    }
    if l.plan != p.plan {
        return Err("traced pipeline's plan differs from optimize_workload's".into());
    }
    let got = (l.candidates, l.e_nodes, l.iterations);
    let want = (p.candidates, p.e_nodes, p.iterations);
    if got != want {
        return Err(format!(
            "traced (candidates, e_nodes, iterations) {got:?} != optimize_workload's {want:?}"
        ));
    }
    p.verdict.clone()
}

pub fn run(spec: &RunSpec) -> Result<Report, String> {
    let cfg = config();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_probes = Vec::with_capacity(SETUPS);
    let mut compiled = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        compiled = set_up(spec.seed, &cfg)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_probes.push(probe_ms());
    }
    let programs: Vec<Program> = compiled
        .into_iter()
        .map(|(w, got)| {
            let verdict = guarded(|| verify(&w, &got)).map(|worst| {
                eprintln!("{}: plan agrees with the reference to {worst:.1e}", w.name);
            });
            let plan = plan_text(&got.arena, &roots_of(&got));
            eprintln!(
                "{}: plan digest {:016x}  iterations {}  e_nodes {}  candidates {}  stop {:?}",
                w.name,
                check::digest(&plan),
                got.saturation.iterations,
                got.saturation.e_nodes,
                got.saturation.candidates_visited,
                got.saturation.stop_reason
            );
            Program {
                tag: tag(&w),
                plan,
                iterations: got.saturation.iterations,
                e_nodes: got.saturation.e_nodes,
                candidates: got.saturation.candidates_visited,
                verdict,
                workload: w,
            }
        })
        .collect();

    let mut report = Report::new();
    let budget = if spec.trace {
        spec.budget / 2
    } else {
        spec.budget
    };

    // ---- untraced ops ----------------------------------------------------
    // every op is scaled to the reference host speed by the probe timed
    // right after it (see `probe`)
    let mut raw_ms = Vec::new();
    let mut op_ms = Vec::new();
    let mut program_ms = vec![Vec::new(); programs.len()];
    let start = Instant::now();
    while start.elapsed() < budget {
        let mut per_program = Vec::with_capacity(programs.len());
        let mut err = None;
        for p in &programs {
            let t0 = Instant::now();
            let got = guarded(|| compile(&p.workload, &cfg));
            per_program.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = got.and_then(|g| check_op(p, &g)) {
                err.get_or_insert(format!("{}: {e}", p.tag));
            }
        }
        report.op(err);
        let probe = probe_ms();
        let total: f64 = per_program.iter().sum();
        raw_ms.push(total);
        op_ms.push(scaled(total, probe));
        for (acc, ms) in program_ms.iter_mut().zip(per_program) {
            acc.push(scaled(ms, probe));
        }
    }
    eprintln!("raw op p50 {:.3} ms", median(&raw_ms));
    if !spec.trace {
        report::end_to_end(
            &mut report,
            &Measured {
                setup_s: &setup_s,
                setup_probe_ms: &setup_probes,
                op_ms: &op_ms,
                tail_ms: &op_ms,
                program_ms: &program_ms,
                window_s: op_ms.iter().sum::<f64>() / 1e3,
                tail: TAIL,
                peak_rss_mb: report::peak_rss_mb()?,
            },
        );
        return Ok(report);
    }

    // ---- traced ops --------------------------------------------------------
    let mut tr = Tracer::new(Instant::now());
    let mut traced_ms = Vec::new();
    let mut traced_probes = Vec::new();
    let mut phase_ms = [Vec::new(), Vec::new(), Vec::new()];
    let mut last: Vec<Option<Layers>> = programs.iter().map(|_| None).collect();
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed() < budget {
        tr.set_op(op);
        let t0 = Instant::now();
        let root = tr.begin("op", "");
        let mut err = None;
        let mut phases = [0.0; 3];
        for (i, p) in programs.iter().enumerate() {
            let s = tr.begin("compile.program", p.tag);
            let got = guarded(|| traced_compile(&p.workload, &cfg, &mut tr, p.tag));
            // a panic leaves the program's inner spans open; close them
            tr.close_to(&s);
            tr.end(s);
            match got.and_then(|l| cross_check(p, &l).map(|()| l)) {
                Ok(l) => {
                    phases[0] += l.search_ms;
                    phases[1] += l.apply_ms;
                    phases[2] += l.rebuild_ms;
                    last[i] = Some(l);
                }
                Err(e) => {
                    err.get_or_insert(format!("{}: {e}", p.tag));
                }
            }
        }
        tr.end(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        for (acc, v) in phase_ms.iter_mut().zip(phases) {
            acc.push(v);
        }
        report.op(err);
        let probe = probe_ms();
        traced_probes.push(probe);
        traced_ms.push(scaled(ms, probe));
        op += 1;
    }

    let layers: Vec<&Layers> = last.iter().flatten().collect();
    if layers.len() != programs.len() {
        return Ok(report);
    }
    let sum = |f: fn(&Layers) -> usize| layers.iter().map(|l| f(l)).sum::<usize>() as f64;
    let self_ms = |name: &str, tag: Option<&str>| median(&tr.per_op_self_ms(name, tag));
    let candidates = sum(|l| l.candidates);
    let matches = sum(|l| l.matches);
    report.layer("egraph.saturate_ms", self_ms("egraph.saturate", None));
    report.layer("egraph.iterations", sum(|l| l.iterations));
    report.layer("egraph.candidates", candidates);
    report.layer("egraph.matches", matches);
    report.layer("egraph.unions", sum(|l| l.unions));
    report.layer("egraph.match_yield", ratio(matches, candidates));
    report.layer("egraph.e_nodes", sum(|l| l.e_nodes));
    report.layer("egraph.e_classes", sum(|l| l.e_classes));
    report.layer("egraph.time_limited", sum(|l| usize::from(l.time_limited)));
    report.layer("egraph.search_ms", median(&phase_ms[0]));
    report.layer("egraph.apply_ms", median(&phase_ms[1]));
    report.layer("egraph.rebuild_ms", median(&phase_ms[2]));
    for (p, l) in programs.iter().zip(&layers) {
        let t = p.tag;
        report.layer(
            format!("egraph.saturate_ms.{t}"),
            self_ms("egraph.saturate", Some(t)),
        );
        report.layer(format!("egraph.iterations.{t}"), l.iterations as f64);
        report.layer(format!("egraph.candidates.{t}"), l.candidates as f64);
        report.layer(format!("egraph.e_nodes.{t}"), l.e_nodes as f64);
    }
    report.layer("ir.parse_ms", self_ms("ir.parse", None));
    report.layer("ir.arena_nodes", sum(|l| l.arena_nodes));
    report.layer("core.translate_ms", self_ms("core.translate", None));
    report.layer("core.translate_nodes", sum(|l| l.translate_nodes));
    report.layer("core.extract_ms", self_ms("core.extract", None));
    let before: f64 = layers.iter().map(|l| l.cost_before).sum();
    let after: f64 = layers.iter().map(|l| l.cost_after).sum();
    report.layer("core.cost_ratio", ratio(before, after));
    report.layer("core.lower_ms", self_ms("core.lower", None));
    report.layer("core.plan_nodes", sum(|l| l.plan_nodes));
    report.layer("bench.probe_ms", median(&traced_probes));
    report.layer(
        "bench.trace_overhead",
        ratio(median(&traced_ms), median(&op_ms)),
    );
    eprintln!(
        "samples: untraced {}  traced {}",
        op_ms.len(),
        traced_ms.len()
    );

    let mut counts = Vec::new();
    for (p, l) in PROGRAMS.iter().zip(&layers) {
        counts.push((
            format!("{p}.plan_digest"),
            format!("{:016x}", check::digest(&l.plan)),
        ));
        for (k, v) in [
            ("iterations", l.iterations),
            ("candidates", l.candidates),
            ("matches", l.matches),
            ("unions", l.unions),
            ("e_nodes", l.e_nodes),
            ("e_classes", l.e_classes),
            ("arena_nodes", l.arena_nodes),
            ("translate_nodes", l.translate_nodes),
            ("plan_nodes", l.plan_nodes),
        ] {
            counts.push((format!("{p}.{k}"), v.to_string()));
        }
        counts.push((format!("{p}.cost_before"), l.cost_before.to_string()));
        counts.push((format!("{p}.cost_after"), l.cost_after.to_string()));
    }
    let path = trace::write_out("compile_suite", spec.seed, &[&tr], &counts)?;
    eprintln!("wrote {}", path.display());
    Ok(report)
}
