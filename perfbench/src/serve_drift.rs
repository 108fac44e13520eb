//! `serve_drift`: a closed loop of `CLIENTS` threads calling
//! `OptimizerService::optimize` with no think time; each caller waits
//! for its plan before sending the next request.
//!
//! Requests are the five programs' per-statement requests
//! (`statement_requests`) at `VARIANTS` seeded drifts of dimensions and
//! sparsity per program; set-up warms one request per template, so these
//! are reads: fingerprint, read-locked probe, α-instantiation and the
//! `plan_cost` re-check. One request in `MISS_EVERY` is a write: it
//! carries a new scalar constant (a hyper-parameter sweep), and since
//! fingerprints keep literals concrete it misses, runs the pipeline and
//! inserts.
//!
//! The loop runs in `WINDOW`-long windows with the host-speed probe
//! timed after each. `op_ms.tail` and `ops_per_s` are scaled by it (see
//! `probe`): misses' pipeline runs dominate both and track the probe,
//! while the hits' median did not, so `op_ms.p50` and `op_ms.geomean`
//! are raw.

use crate::check;
use crate::probe::{probe_ms, scaled};
use crate::programs::{data_seed, PROGRAMS};
use crate::report::{self, median, ratio, Measured, Report};
use crate::trace::{self, Tracer};
use crate::{guarded, RunSpec, SEARCH_THREADS, SETUPS};
use rand::Rng;
use spores_core::OptimizerConfig;
use spores_egraph::ParallelConfig;
use spores_exec::{ExecConfig, Executor};
use spores_matrix::{gen, Matrix};
use spores_ml::workloads::{self, Workload};
use spores_ml::{statement_requests, workload_optimizer_config};
use spores_service::{OptimizerService, PlanSource, Request, Served, ServiceConfig, StatsSnapshot};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client threads of the closed loop.
const CLIENTS: usize = 2;
/// Service workers running the pipeline for misses.
const WORKERS: usize = 2;
/// Drifted (dimensions, sparsity) variants per program.
const VARIANTS: usize = 4;
/// One request in this many carries a new constant.
const MISS_EVERY: usize = 50;
/// The tail percentile `op_ms.tail` reports: the middle of the slowest
/// tenth of the misses (GLM's objective statement, about 45 ms). p99
/// fell on the edge between the hits' tail and the fast misses, and
/// moved by a third from run to run.
const TAIL: f64 = 0.999;
/// Length of one window of the closed loop; the probe runs between.
const WINDOW: Duration = Duration::from_secs(1);
/// Size-pinned plans kept per fingerprint: room for every drift of
/// every program sharing a statement (`w - 0.1 * G` is in three), so
/// warmed templates keep hitting.
const MAX_VARIANTS: usize = 4 * VARIANTS;
/// Plan-cache capacity: far above the inserts a run makes, so nothing
/// is evicted. Service counts only repeat without eviction (README,
/// known defects).
const CAPACITY: usize = 1 << 16;

/// One program at one drift: its generated workload and the factor its
/// sparse inputs' sparsity metadata is scaled by.
struct Variant {
    program: usize,
    workload: Workload,
    sparsity_scale: f64,
}

/// A statement request that set-up warms.
struct Template {
    variant: usize,
    request: Request,
}

/// A statement whose first decimal literal the sweep varies.
struct Sweep {
    variant: usize,
    statement: usize,
    literal: std::ops::Range<usize>,
}

struct Traffic {
    variants: Vec<Variant>,
    templates: Vec<Template>,
    sweeps: Vec<Sweep>,
}

/// Which request was sent: a template, or sweep `.0` with constant
/// index `.1`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum Sent {
    Template(usize),
    Sweep(usize, usize),
}

/// Byte range of the first decimal literal (`0.01`) in `src`.
fn decimal_literal(src: &str) -> Option<std::ops::Range<usize>> {
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let starts = b[i].is_ascii_digit()
            && (i == 0
                || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_' || b[i - 1] == b'.'));
        if starts {
            let end = (i..b.len())
                .find(|&j| !(b[j].is_ascii_digit() || b[j] == b'.'))
                .unwrap_or(b.len());
            if src[i..end].contains('.') {
                return Some(i..end);
            }
            i = end;
        } else {
            i += 1;
        }
    }
    None
}

fn drifted(program: usize, rng: &mut rand::rngs::StdRng) -> Workload {
    let seed: u64 = rng.random_range(0..u64::MAX);
    let mut drift = |n: usize| (n as f64 * rng.random_range(0.5..2.0f64)).round().max(2.0) as usize;
    match program {
        0 => workloads::als(drift(200), drift(100), 8, seed),
        1 => workloads::glm(drift(200), drift(40), seed),
        2 => workloads::svm(drift(200), drift(40), seed),
        3 => workloads::mlr(drift(200), drift(20), seed),
        _ => workloads::pnmf(drift(150), drift(120), 8, seed),
    }
}

/// A variant's statement request, with its sparse inputs' sparsity
/// scaled (within the fingerprint's sparsity bucket).
fn request(v: &Variant, workload: &Workload, statement: usize) -> Request {
    let mut req = statement_requests(workload).swap_remove(statement).1;
    for meta in req.vars.values_mut() {
        if meta.sparsity < 0.05 {
            meta.sparsity *= v.sparsity_scale;
        }
    }
    req
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let mut variants = Vec::new();
        let mut templates = Vec::new();
        let mut sweeps = Vec::new();
        for program in 0..PROGRAMS.len() {
            for v in 0..VARIANTS {
                let mut rng = gen::rng(data_seed(seed, (100 + program * VARIANTS + v) as u64));
                let workload = drifted(program, &mut rng);
                let variant = Variant {
                    program,
                    sparsity_scale: rng.random_range(0.8..1.25),
                    workload,
                };
                let ix = variants.len();
                for (statement, st) in variant.workload.statements.iter().enumerate() {
                    templates.push(Template {
                        variant: ix,
                        request: request(&variant, &variant.workload, statement),
                    });
                    if let Some(literal) = decimal_literal(&st.src) {
                        sweeps.push(Sweep {
                            variant: ix,
                            statement,
                            literal,
                        });
                    }
                }
                variants.push(variant);
            }
        }
        Traffic {
            variants,
            templates,
            sweeps,
        }
    }

    /// The request `sent` stands for.
    fn build(&self, sent: Sent) -> Request {
        match sent {
            Sent::Template(t) => self.templates[t].request.clone(),
            Sent::Sweep(s, k) => {
                let sw = &self.sweeps[s];
                let v = &self.variants[sw.variant];
                let mut w = v.workload.clone();
                let src = &mut w.statements[sw.statement].src;
                let base: f64 = src[sw.literal.clone()].parse().expect("a decimal literal");
                let value = base * (1.0 + (k + 1) as f64 * 1e-3);
                src.replace_range(sw.literal.clone(), &value.to_string());
                request(v, &w, sw.statement)
            }
        }
    }

    fn program(&self, sent: Sent) -> usize {
        let variant = match sent {
            Sent::Template(t) => self.templates[t].variant,
            Sent::Sweep(s, _) => self.sweeps[s].variant,
        };
        self.variants[variant].program
    }
}

fn service() -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        // the per-statement configuration `Mode::spores()` compiles with
        optimizer: OptimizerConfig {
            parallel: ParallelConfig {
                threads: SEARCH_THREADS,
                ..ParallelConfig::serial()
            },
            ..workload_optimizer_config()
        },
        workers: WORKERS,
        capacity: CAPACITY,
        max_variants: MAX_VARIANTS,
        ..ServiceConfig::default()
    })
}

fn served_error(s: &Served) -> Option<String> {
    s.timed_out
        .then(|| "saturation stopped at its time limit".to_string())
}

/// Request templates, a fresh service, and one warm request per template.
fn set_up(seed: u64) -> Result<(Traffic, OptimizerService), String> {
    let traffic = Traffic::new(seed);
    let svc = service();
    for (t, tpl) in traffic.templates.iter().enumerate() {
        let served = svc
            .optimize(tpl.request.clone())
            .map_err(|e| format!("warming template {t}: {e}"))?;
        if let Some(e) = served_error(&served) {
            return Err(format!("warming template {t}: {e}"));
        }
    }
    Ok((traffic, svc))
}

/// One request as a client saw it; compact, since a run logs hundreds
/// of thousands and the log counts toward `peak_rss_mb`.
struct Sample {
    ms: f32,
    program: u8,
    /// `None` when the request failed (the error is in `errors`).
    source: Option<PlanSource>,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    requests: Vec<Sample>,
    errors: Vec<String>,
    /// The first served plan of each distinct (request, plan digest).
    plans: HashMap<(Sent, u64), Served>,
}

fn source_tag(s: PlanSource) -> &'static str {
    match s {
        PlanSource::Hit => "hit",
        PlanSource::Miss => "miss",
        PlanSource::Coalesced => "coalesced",
    }
}

/// One client's requests until `until`; `rng_seed` drives its template
/// choice and miss cadence.
fn client(
    rng_seed: u64,
    traffic: &Traffic,
    svc: &OptimizerService,
    until: Instant,
    sweep_counter: &AtomicUsize,
    mut tr: Option<&mut Tracer>,
) -> ClientLog {
    let mut rng = gen::rng(rng_seed);
    let offset = rng.random_range(0..MISS_EVERY);
    let mut log = ClientLog::default();
    let mut i = 0usize;
    while Instant::now() < until {
        let sent = if (i + offset).is_multiple_of(MISS_EVERY) {
            let k = sweep_counter.fetch_add(1, Ordering::Relaxed);
            Sent::Sweep(k % traffic.sweeps.len(), k)
        } else {
            Sent::Template(rng.random_range(0..traffic.templates.len()))
        };
        let req = traffic.build(sent);
        if let Some(t) = tr.as_mut() {
            t.set_op(t.spans.len() as u64);
        }
        let span = tr.as_mut().map(|t| t.begin("service.optimize", ""));
        let t0 = Instant::now();
        let got = guarded(|| svc.optimize(req).map_err(|e| e.to_string()));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(s)) = (tr.as_mut(), span) {
            t.end_tagged(s, got.as_ref().ok().map(|s| source_tag(s.source)));
        }
        let source = match got {
            Ok(served) => {
                let error = served_error(&served);
                let source = served.source;
                let key = (sent, check::digest(&served.arena.display(served.root)));
                log.plans.entry(key).or_insert(served);
                match error {
                    Some(e) => {
                        log.errors.push(e);
                        None
                    }
                    None => Some(source),
                }
            }
            Err(e) => {
                log.errors.push(e);
                None
            }
        };
        log.requests.push(Sample {
            ms: ms as f32,
            program: traffic.program(sent) as u8,
            source,
        });
        i += 1;
    }
    log
}

/// Execute a served plan and its unoptimized request on data generated
/// at the request's shapes and sparsities.
fn verify(sent: Sent, req: &Request, served: &Served, seed: u64) -> Result<f64, String> {
    let mut rng = gen::rng(seed);
    let mut vars: Vec<_> = req.vars.iter().collect();
    vars.sort_by_key(|(s, _)| s.to_string());
    let env: HashMap<_, Matrix> = vars
        .into_iter()
        .map(|(&s, m)| {
            let (r, c) = (m.shape.rows as usize, m.shape.cols as usize);
            let value = if m.sparsity < 0.5 {
                gen::rand_sparse(r, c, m.sparsity, 0.1, 1.0, &mut rng)
            } else {
                gen::rand_dense(r, c, 0.1, 1.0, &mut rng)
            };
            (s, value)
        })
        .collect();
    let want = Executor::new(ExecConfig { fusion: false })
        .run(&req.arena, req.root, &env)
        .map_err(|e| format!("{sent:?} reference: {e}"))?;
    let got = Executor::new(ExecConfig { fusion: true })
        .run(&served.arena, served.root, &env)
        .map_err(|e| format!("{sent:?} served plan: {e}"))?;
    check::agree(&got, &want).map_err(|e| format!("{sent:?}: {e}"))
}

/// What a closed loop saw.
struct LoopRun {
    /// One log per client per window.
    logs: Vec<ClientLog>,
    /// Every request's latency, scaled by its window's probe.
    scaled_ms: Vec<f64>,
    /// Wall-clock seconds of the windows, raw and probe-scaled.
    window_s: f64,
    scaled_window_s: f64,
    probes: Vec<f64>,
    /// Service-counter deltas over the loop.
    delta: StatsSnapshot,
}

/// Run the closed loop for `budget` in `WINDOW`-long windows, timing
/// the probe after each. `sweep_counter` numbers the swept constants
/// across loops, so each one is new.
fn closed_loop(
    seed: u64,
    traffic: &Traffic,
    svc: &OptimizerService,
    budget: Duration,
    sweep_counter: &AtomicUsize,
    mut tracers: Option<&mut [Tracer; CLIENTS]>,
) -> LoopRun {
    let before = svc.stats();
    let end = Instant::now() + budget;
    let mut run = LoopRun {
        logs: Vec::new(),
        scaled_ms: Vec::new(),
        window_s: 0.0,
        scaled_window_s: 0.0,
        probes: Vec::new(),
        delta: StatsSnapshot::default(),
    };
    let mut window = 0;
    while Instant::now() < end {
        let start = Instant::now();
        let until = (start + WINDOW).min(end);
        let clients: Vec<Option<&mut Tracer>> = match tracers.as_mut() {
            Some(ts) => ts.iter_mut().map(Some).collect(),
            None => (0..CLIENTS).map(|_| None).collect(),
        };
        let logs = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(id, tr)| {
                    // a stream per client and window: each window draws
                    // a new request order
                    let rng_seed = data_seed(seed, (1_000 + window * CLIENTS + id) as u64);
                    scope.spawn(move || client(rng_seed, traffic, svc, until, sweep_counter, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked outside a request"))
                .collect::<Vec<_>>()
        });
        let window_s = start.elapsed().as_secs_f64();
        let probe = probe_ms();
        run.window_s += window_s;
        run.scaled_window_s += scaled(window_s, probe);
        run.probes.push(probe);
        for log in &logs {
            run.scaled_ms
                .extend(log.requests.iter().map(|r| scaled(f64::from(r.ms), probe)));
        }
        run.logs.extend(logs);
        window += 1;
    }
    let after = svc.stats();
    run.delta = StatsSnapshot {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
        evictions: after.evictions - before.evictions,
        cost_rejections: after.cost_rejections - before.cost_rejections,
        inline_runs: after.inline_runs - before.inline_runs,
        ..StatsSnapshot::default()
    };
    run
}

/// Count each request as an op and check every distinct served plan.
fn account(report: &mut Report, traffic: &Traffic, logs: &[ClientLog], seed: u64) {
    for log in logs {
        let mut errors = log.errors.iter();
        for r in &log.requests {
            report.op(r
                .source
                .is_none()
                .then(|| errors.next().cloned().unwrap_or_default()));
        }
    }
    let mut checked = HashSet::new();
    let mut worst = 0.0f64;
    for log in logs {
        for (&key, served) in &log.plans {
            if !checked.insert(key) {
                continue;
            }
            let req = traffic.build(key.0);
            match guarded(|| verify(key.0, &req, served, data_seed(seed, key.1))) {
                Ok(w) => worst = worst.max(w),
                Err(e) => {
                    eprintln!("served plan check failed: {e}");
                    report.correct = false;
                    report.failed += 1;
                }
            }
        }
    }
    eprintln!(
        "checked {} distinct served plans; worst difference {worst:.1e}",
        checked.len()
    );
}

pub fn run(spec: &RunSpec) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_probes = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // drop the previous set-up (and join its workers) first
        drop(state.take());
        let t0 = Instant::now();
        state = Some(set_up(spec.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_probes.push(probe_ms());
    }
    let (traffic, svc) = state.expect("at least one set-up");
    eprintln!(
        "{} templates over {} variants, {} sweep statements; {} cached plans after warm-up",
        traffic.templates.len(),
        traffic.variants.len(),
        traffic.sweeps.len(),
        svc.cached_plans()
    );

    let mut report = Report::new();
    let budget = if spec.trace {
        spec.budget / 2
    } else {
        spec.budget
    };
    let sweep_counter = AtomicUsize::new(0);
    let untraced = closed_loop(spec.seed, &traffic, &svc, budget, &sweep_counter, None);
    let peak_rss_mb = report::peak_rss_mb()?;
    let (logs, delta) = (&untraced.logs, &untraced.delta);
    account(&mut report, &traffic, logs, spec.seed);
    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.requests.iter().map(|r| f64::from(r.ms)))
        .collect();
    eprintln!(
        "untraced: {} requests in {:.2} s  raw p{:.1} {:.3} ms  probe p50 {:.2} ms  hits {}  misses {}  coalesced {}  cost rejections {}  evictions {}  inline {}",
        latencies.len(),
        untraced.window_s,
        TAIL * 100.0,
        report::quantile(&latencies, TAIL),
        median(&untraced.probes),
        delta.hits,
        delta.misses,
        delta.coalesced,
        delta.cost_rejections,
        delta.evictions,
        delta.inline_runs
    );
    if delta.evictions > 0 {
        eprintln!("warning: the plan cache evicted; service counts are not comparable");
    }
    if !spec.trace {
        let mut per_program = vec![Vec::new(); PROGRAMS.len()];
        for log in logs {
            for r in &log.requests {
                per_program[usize::from(r.program)].push(f64::from(r.ms));
            }
        }
        report::end_to_end(
            &mut report,
            &Measured {
                setup_s: &setup_s,
                setup_probe_ms: &setup_probes,
                op_ms: &latencies,
                tail_ms: &untraced.scaled_ms,
                program_ms: &per_program,
                window_s: untraced.scaled_window_s,
                tail: TAIL,
                peak_rss_mb,
            },
        );
        return Ok(report);
    }

    let epoch = Instant::now();
    let mut tracers = [Tracer::new(epoch), Tracer::new(epoch)];
    let traced_run = closed_loop(
        spec.seed,
        &traffic,
        &svc,
        budget,
        &sweep_counter,
        Some(&mut tracers),
    );
    let delta = &traced_run.delta;
    account(&mut report, &traffic, &traced_run.logs, spec.seed);
    let by_source = |tag: &str| -> Vec<f64> {
        tracers
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.tag == tag)
            .map(trace::Span::ms)
            .collect()
    };
    let traced: Vec<f64> = tracers
        .iter()
        .flat_map(|t| t.spans.iter().map(trace::Span::ms))
        .collect();
    let requests = (delta.hits + delta.misses + delta.coalesced) as f64;
    report.layer("service.hit_ms.p50", median(&by_source("hit")));
    report.layer("service.miss_ms.p50", median(&by_source("miss")));
    report.layer("service.hit_rate", ratio(delta.hits as f64, requests));
    report.layer("service.misses", delta.misses as f64);
    report.layer("service.coalesced", delta.coalesced as f64);
    report.layer("service.cost_rejections", delta.cost_rejections as f64);
    report.layer("service.evictions", delta.evictions as f64);
    report.layer("service.inline_runs", delta.inline_runs as f64);
    report.layer("bench.probe_ms", median(&untraced.probes));
    report.layer(
        "bench.trace_overhead",
        ratio(median(&traced), median(&latencies)),
    );
    eprintln!(
        "traced: {} requests  hits {}  misses {}  evictions {}",
        traced.len(),
        delta.hits,
        delta.misses,
        delta.evictions
    );
    let counts = vec![
        ("templates".to_string(), traffic.templates.len().to_string()),
        ("sweeps".to_string(), traffic.sweeps.len().to_string()),
    ];
    let refs: Vec<&Tracer> = tracers.iter().collect();
    let path = trace::write_out("serve_drift", spec.seed, &refs, &counts)?;
    eprintln!("wrote {}", path.display());
    Ok(report)
}
