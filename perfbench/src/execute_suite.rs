//! `execute_suite`: the five programs at data sizes where one loop-body
//! pass takes milliseconds. Set-up compiles each once under
//! `Mode::spores()`, per statement (Figure 15's S+greedy); one op runs
//! one pass of every program from the generated inputs, so every op
//! does the same work. Saturation is bypassed: the time is in the
//! kernels. Every op is scaled to the reference host speed by the dense
//! probe timed right before it (see `probe`).

use crate::check::{self, Reference};
use crate::probe::{dense_probe_ms, dense_scaled, probe_ms};
use crate::programs::{execute_roster, tag};
use crate::report::{self, median, ratio, Measured, Report};
use crate::trace::{self, Tracer};
use crate::{guarded, RunSpec, SETUPS};
use spores_exec::{ExecConfig, ExecStats, Executor};
use spores_ir::Symbol;
use spores_matrix::Matrix;
use spores_ml::workloads::Workload;
use spores_ml::{Compiled, Mode};
use std::collections::HashMap;
use std::time::Instant;

/// The tail percentile `op_ms.tail` reports: a run at the declared
/// `run_seconds` has at least ten ops beyond it.
const TAIL: f64 = 0.8;

struct Program {
    tag: &'static str,
    workload: Workload,
    compiled: Compiled,
    targets: Vec<Symbol>,
    reference: Reference,
}

struct Pass {
    ms: f64,
    env: HashMap<Symbol, Matrix>,
    stats: ExecStats,
}

/// One pass of a compiled program from its generated inputs, with
/// fusion on; each `Executor::run` is wrapped in a span when traced.
fn pass(
    w: &Workload,
    c: &Compiled,
    mut tr: Option<(&mut Tracer, &'static str)>,
) -> Result<Pass, String> {
    let mut env = w.inputs.clone();
    let mut exec = Executor::new(ExecConfig { fusion: true });
    let t0 = Instant::now();
    for (target, arena, root) in &c.statements {
        let span = tr.as_mut().map(|(t, tag)| t.begin("exec.run", tag));
        let value = exec.run(arena, *root, &env);
        if let (Some((t, _)), Some(s)) = (tr.as_mut(), span) {
            t.end(s);
        }
        env.insert(*target, value.map_err(|e| format!("{target}: {e}"))?);
    }
    Ok(Pass {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        env,
        stats: exec.stats,
    })
}

/// Data generation, the set-up compile and a warm-up pass.
fn set_up(seed: u64) -> Result<Vec<(Workload, Compiled)>, String> {
    execute_roster(seed)
        .into_iter()
        .map(|w| {
            let compiled = guarded(|| Ok(spores_ml::compile(&w, &Mode::spores())))?;
            if compiled.report.timed_out {
                return Err(format!("{}: saturation stopped at its time limit", w.name));
            }
            pass(&w, &compiled, None)?;
            Ok((w, compiled))
        })
        .collect()
}

fn check_pass(p: &Program, got: Result<Pass, String>) -> Result<Pass, String> {
    let got = got?;
    check::agree_all(&got.env, &p.targets, &p.reference)?;
    Ok(got)
}

fn plan_digest(c: &Compiled) -> u64 {
    let text: Vec<String> = c
        .statements
        .iter()
        .map(|(t, arena, root)| format!("{t} = {}", arena.display(*root)))
        .collect();
    check::digest(&text.join("\n"))
}

pub fn run(spec: &RunSpec) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_probes = Vec::with_capacity(SETUPS);
    let mut compiled = Vec::new();
    for _ in 0..SETUPS {
        // drop the previous set-up first so peak memory holds one copy
        compiled.clear();
        let t0 = Instant::now();
        compiled = set_up(spec.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_probes.push(probe_ms());
    }
    let mut programs = Vec::with_capacity(compiled.len());
    for (w, c) in compiled {
        let reference = check::reference_pass(&w)?;
        eprintln!(
            "{}: plan digest {:016x}  reference flops {}  cells {}",
            w.name,
            plan_digest(&c),
            reference.stats.flops,
            reference.stats.cells_allocated
        );
        programs.push(Program {
            tag: tag(&w),
            targets: c.statements.iter().map(|(t, _, _)| *t).collect(),
            workload: w,
            compiled: c,
            reference,
        });
    }

    let mut report = Report::new();
    let budget = if spec.trace {
        spec.budget / 2
    } else {
        spec.budget
    };

    // ---- untraced ops ----------------------------------------------------
    let mut raw_ms = Vec::new();
    let mut probes = Vec::new();
    let mut op_ms = Vec::new();
    let mut program_ms = vec![Vec::new(); programs.len()];
    let start = Instant::now();
    while start.elapsed() < budget {
        let probe = dense_probe_ms();
        probes.push(probe);
        let mut total = 0.0;
        let mut err = None;
        for (i, p) in programs.iter().enumerate() {
            let got = guarded(|| pass(&p.workload, &p.compiled, None));
            if let Ok(g) = &got {
                total += g.ms;
                program_ms[i].push(dense_scaled(g.ms, probe));
            }
            if let Err(e) = check_pass(p, got) {
                err.get_or_insert(format!("{}: {e}", p.tag));
            }
        }
        raw_ms.push(total);
        op_ms.push(dense_scaled(total, probe));
        report.op(err);
    }
    eprintln!(
        "raw op p50 {:.3} ms  dense probe p50 {:.3} ms",
        median(&raw_ms),
        median(&probes)
    );
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
    let mut last: Vec<Option<ExecStats>> = vec![None; programs.len()];
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed() < budget {
        let probe = dense_probe_ms();
        tr.set_op(op);
        let root = tr.begin("op", "");
        let mut total = 0.0;
        let mut err = None;
        for (i, p) in programs.iter().enumerate() {
            let s = tr.begin("exec.program", p.tag);
            let got = guarded(|| pass(&p.workload, &p.compiled, Some((&mut tr, p.tag))));
            tr.close_to(&s);
            tr.end(s);
            match check_pass(p, got) {
                Ok(g) => {
                    total += g.ms;
                    last[i] = Some(g.stats);
                }
                Err(e) => {
                    err.get_or_insert(format!("{}: {e}", p.tag));
                }
            }
        }
        tr.end(root);
        traced_ms.push(dense_scaled(total, probe));
        report.op(err);
        op += 1;
    }
    let stats: Vec<ExecStats> = last.into_iter().flatten().collect();
    if stats.len() != programs.len() {
        return Ok(report);
    }

    // plan choice against SystemML's opt2 (untimed, after the ops)
    let mut opt2 = ExecStats::default();
    for p in &programs {
        let c = guarded(|| Ok(spores_ml::compile(&p.workload, &Mode::Opt2)))?;
        opt2 += pass(&p.workload, &c, None)?.stats;
    }

    let mut total = ExecStats::default();
    let mut unoptimized = ExecStats::default();
    for s in &stats {
        total += *s;
    }
    for p in &programs {
        unoptimized += p.reference.stats;
    }
    let run_ms = |tag: Option<&str>| median(&tr.per_op_self_ms("exec.run", tag));
    report.layer("exec.run_ms", run_ms(None));
    report.layer("exec.flops", total.flops as f64);
    report.layer("exec.cells_allocated", total.cells_allocated as f64);
    report.layer("exec.intermediates", total.intermediates as f64);
    report.layer("exec.fused_ops", total.fused_ops as f64);
    let vs = |a: u64, b: u64| ratio(a as f64, b as f64);
    report.layer(
        "exec.flops_vs_unoptimized",
        vs(total.flops, unoptimized.flops),
    );
    report.layer(
        "exec.cells_vs_unoptimized",
        vs(total.cells_allocated, unoptimized.cells_allocated),
    );
    report.layer("exec.flops_vs_opt2", vs(total.flops, opt2.flops));
    report.layer(
        "exec.cells_vs_opt2",
        vs(total.cells_allocated, opt2.cells_allocated),
    );
    let mut counts = Vec::new();
    for (p, s) in programs.iter().zip(&stats) {
        let t = p.tag;
        let r = &p.reference.stats;
        report.layer(format!("exec.run_ms.{t}"), run_ms(Some(t)));
        report.layer(
            format!("exec.flops_vs_unoptimized.{t}"),
            vs(s.flops, r.flops),
        );
        report.layer(
            format!("exec.cells_vs_unoptimized.{t}"),
            vs(s.cells_allocated, r.cells_allocated),
        );
        counts.push((
            format!("{t}.plan_digest"),
            format!("{:016x}", plan_digest(&p.compiled)),
        ));
        for (k, v) in [
            ("flops", s.flops),
            ("cells_allocated", s.cells_allocated),
            ("intermediates", s.intermediates),
            ("fused_ops", s.fused_ops),
            ("unoptimized_flops", r.flops),
            ("unoptimized_cells", r.cells_allocated),
        ] {
            counts.push((format!("{t}.{k}"), v.to_string()));
        }
    }
    report.layer("bench.probe_ms", median(&probes));
    report.layer(
        "bench.trace_overhead",
        ratio(median(&traced_ms), median(&op_ms)),
    );
    eprintln!(
        "samples: untraced {}  traced {}",
        op_ms.len(),
        traced_ms.len()
    );
    let path = trace::write_out("execute_suite", spec.seed, &[&tr], &counts)?;
    eprintln!("wrote {}", path.display());
    Ok(report)
}
