//! Metric names, summary statistics and the result line.

use crate::programs::PROGRAMS;

/// End-to-end metrics: every workload reports all of them from its
/// untraced run. "op" is the workload's unit of work: one cold compile
/// of the five programs (`compile_suite`), one pass of the five loop
/// bodies (`execute_suite`) or one service request (`serve_drift`).
/// `setup_s`, the op times of the two suites, and `serve_drift`'s
/// `op_ms.tail` and `ops_per_s` are scaled to the reference host speed
/// (see `probe`). `op_ms.tail` is the workload's own tail percentile:
/// p75 on `compile_suite`, p80 on `execute_suite`, p99.9 on
/// `serve_drift`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("op_ms.geomean", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit, has a row per
/// program)`. A layer that a workload's ops never reach reports 0.
const PER_LAYER: [(&str, &str, bool); 41] = [
    ("egraph.saturate_ms", "ms", true),
    ("egraph.iterations", "count", true),
    ("egraph.candidates", "count", true),
    ("egraph.matches", "count", false),
    ("egraph.unions", "count", false),
    ("egraph.match_yield", "ratio", false),
    ("egraph.e_nodes", "count", true),
    ("egraph.e_classes", "count", false),
    ("egraph.time_limited", "count", false),
    ("egraph.search_ms", "ms", false),
    ("egraph.apply_ms", "ms", false),
    ("egraph.rebuild_ms", "ms", false),
    ("ir.parse_ms", "ms", false),
    ("ir.arena_nodes", "count", false),
    ("core.translate_ms", "ms", false),
    ("core.translate_nodes", "count", false),
    ("core.extract_ms", "ms", false),
    ("core.cost_ratio", "ratio", false),
    ("core.lower_ms", "ms", false),
    ("core.plan_nodes", "count", false),
    ("exec.run_ms", "ms", true),
    ("exec.flops", "count", false),
    ("exec.cells_allocated", "count", false),
    ("exec.intermediates", "count", false),
    ("exec.fused_ops", "count", false),
    ("exec.flops_vs_unoptimized", "ratio", true),
    ("exec.cells_vs_unoptimized", "ratio", true),
    ("exec.flops_vs_opt2", "ratio", false),
    ("exec.cells_vs_opt2", "ratio", false),
    ("service.hit_ms.p50", "ms", false),
    ("service.miss_ms.p50", "ms", false),
    ("service.hit_rate", "ratio", false),
    ("service.misses", "count", false),
    ("service.coalesced", "count", false),
    ("service.cost_rejections", "count", false),
    ("service.evictions", "count", false),
    ("service.inline_runs", "count", false),
    ("bench.trace_overhead", "ratio", false),
    ("bench.probe_ms", "ms", false),
    ("bench.host_cores", "count", false),
    ("failed_frac", "ratio", false),
];

/// Every per-layer metric name with its unit, per-program rows after
/// their aggregate.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (name, unit, per_program) in PER_LAYER {
        names.push((name.to_string(), unit));
        if per_program {
            for p in PROGRAMS {
                names.push((format!("{name}.{p}"), unit));
            }
        }
    }
    names
}

/// The outcome of one invocation.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when any output check failed (also counted in `failed`).
    pub correct: bool,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(String, f64)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    /// Count one op, failed when `err` is set (logged to stderr).
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.correct = false;
            if self.failed <= 10 {
                eprintln!("op {} failed: {e}", self.attempted);
            }
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.per_layer.push((name.into(), value));
    }

    /// Print the result line: the end-to-end metrics, or with `trace`
    /// every per-layer metric.
    pub fn print(&self, trace: bool) {
        let mut metrics: Vec<(String, f64, &str)> = Vec::new();
        if trace {
            let names = per_layer_names();
            for (name, _) in &self.per_layer {
                assert!(
                    names.iter().any(|(n, _)| n == name),
                    "per-layer metric {name} is not declared"
                );
            }
            for (name, unit) in names {
                let value = match name.as_str() {
                    "failed_frac" => ratio(self.failed as f64, self.attempted as f64),
                    "bench.host_cores" => host_cores() as f64,
                    _ => self
                        .per_layer
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v),
                };
                metrics.push((name, value, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"))
                    .1;
                metrics.push((name.to_string(), value, unit));
            }
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `a / b`, or 0 when there is no base to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linear-interpolated quantile of `samples` (any order); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The process's peak resident set size (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one untraced run measured.
pub struct Measured<'a> {
    /// Seconds per set-up, raw.
    pub setup_s: &'a [f64],
    /// The host-speed probe timed right after each set-up.
    pub setup_probe_ms: &'a [f64],
    /// One sample per op.
    pub op_ms: &'a [f64],
    /// The samples `op_ms.tail` is taken from: `op_ms` itself, or on
    /// `serve_drift` the same requests scaled by their window's probe.
    pub tail_ms: &'a [f64],
    /// Per-op times of each program.
    pub program_ms: &'a [Vec<f64>],
    /// Seconds the ops ran for: summed op time for the suites, wall time
    /// for `serve_drift`; probe-scaled on all three.
    pub window_s: f64,
    /// The percentile `op_ms.tail` reports.
    pub tail: f64,
    /// Peak RSS, sampled right after the ops.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of one untraced run. Each set-up is scaled to
/// the reference host speed by the probe taken right after it (see
/// `probe`).
pub fn end_to_end(report: &mut Report, m: &Measured) {
    let per_program: Vec<f64> = m.program_ms.iter().map(|s| median(s)).collect();
    let beyond = ((1.0 - m.tail) * m.op_ms.len() as f64).floor();
    let setup: Vec<f64> = m
        .setup_s
        .iter()
        .zip(m.setup_probe_ms)
        .map(|(&s, &p)| crate::probe::scaled(s, p))
        .collect();
    eprintln!(
        "samples {} ({beyond} beyond p{:.1}); set-ups {:?} s raw, probes {:?} ms",
        m.op_ms.len(),
        m.tail * 100.0,
        m.setup_s,
        m.setup_probe_ms
    );
    if beyond < 10.0 {
        eprintln!("warning: fewer than ten samples beyond the tail percentile");
    }
    report.end_to_end = vec![
        ("setup_s", median(&setup)),
        ("peak_rss_mb", m.peak_rss_mb),
        ("op_ms.p50", median(m.op_ms)),
        ("op_ms.tail", quantile(m.tail_ms, m.tail)),
        ("op_ms.geomean", geomean(&per_program)),
        ("ops_per_s", m.op_ms.len() as f64 / m.window_s),
    ];
}
