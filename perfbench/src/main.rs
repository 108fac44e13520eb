//! The SPORES benchmark: one command, three workloads, every output
//! checked, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` for the workloads, the
//! metrics and the known defects.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! Progress, sample counts, `host_cores` and plan digests go to standard
//! error; a traced run also writes its spans to `perfbench/out/`.

mod check;
mod compile_suite;
mod execute_suite;
mod probe;
mod programs;
mod report;
mod serve_drift;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

/// Saturation's rule-search thread count, fixed for every optimizer in
/// the process. Plans and counts are identical at any thread count; one
/// thread keeps the timings independent of the host's core count and of
/// the `SPORES_THREADS` setting of whoever runs the benchmark.
pub const SEARCH_THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const USAGE: &str = "usage: spores-perfbench --workload <compile_suite|execute_suite|serve_drift> \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

/// What one invocation measures.
pub struct RunSpec {
    pub seed: u64,
    /// Wall-clock budget of the measured ops (excludes set-up and checks).
    pub budget: Duration,
    pub trace: bool,
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        Err(panic
            .downcast_ref::<&str>()
            .map(|s| format!("panic: {s}"))
            .or_else(|| {
                panic
                    .downcast_ref::<String>()
                    .map(|s| format!("panic: {s}"))
            })
            .unwrap_or_else(|| "panic".to_string()))
    })
}

fn parse_args(args: &[String]) -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} takes a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunSpec {
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

/// Keep freed heap memory in the process instead of handing it back to
/// the kernel. With glibc's defaults, each `execute_suite` pass maps and
/// unmaps its multi-MB intermediates afresh: a third of a run was page
/// faults in the kernel, and their cost followed the shared host's load
/// (ALS's pass took 216–260 ms across runs of one seed, 118–127 ms with
/// this). Allocation volume stays visible in `exec.cells_allocated`, and
/// each reused block is still zeroed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    /// glibc's largest mmap threshold on 64-bit hosts.
    const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters, and it runs
    // before the benchmark starts any thread.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) == 1
            && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    if !ok {
        eprintln!("warning: mallopt refused the allocator settings");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, spec) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `spores_ml::compile` builds its optimizer configs from
    // `OptimizerConfig::default()`, whose thread count reads this
    // variable; pinning it here fixes every config in the process.
    std::env::set_var("SPORES_THREADS", SEARCH_THREADS.to_string());
    eprintln!(
        "workload {workload}  seed {}  seconds {}  trace {}  host_cores {}  search_threads {SEARCH_THREADS}",
        spec.seed,
        spec.budget.as_secs(),
        u8::from(spec.trace),
        report::host_cores(),
    );
    let outcome = match workload.as_str() {
        "compile_suite" => compile_suite::run(&spec),
        "execute_suite" => execute_suite::run(&spec),
        "serve_drift" => serve_drift::run(&spec),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(report) => {
            report.print(spec.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
