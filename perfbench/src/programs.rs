//! The five §4.2 programs at the benchmark's two size rosters, with
//! their inputs generated from the run's seed.

use spores_ml::workloads::{self, Workload};

/// Program tags, in roster order; per-program metric rows use them.
pub const PROGRAMS: [&str; 5] = ["als", "glm", "svm", "mlr", "pnmf"];

/// A per-program data seed derived from the run seed (splitmix64), so
/// each program's inputs change with `--seed` independently.
pub fn data_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bench-roster sizes (`profile_workload`, `BENCH_workload.json`):
/// small enough that compile time is almost all saturation.
pub fn compile_roster(seed: u64) -> Vec<Workload> {
    let s = |i| data_seed(seed, i);
    vec![
        workloads::als(200, 100, 8, s(0)),
        workloads::glm(200, 40, s(1)),
        workloads::svm(200, 40, s(2)),
        workloads::mlr(200, 20, s(3)),
        workloads::pnmf(150, 120, 8, s(4)),
    ]
}

/// Sizes at which one loop-body pass takes milliseconds, so execution
/// time is in the kernels.
pub fn execute_roster(seed: u64) -> Vec<Workload> {
    let s = |i| data_seed(seed, i);
    vec![
        workloads::als(2_000, 1_000, 10, s(0)),
        workloads::glm(100_000, 100, s(1)),
        workloads::svm(100_000, 100, s(2)),
        workloads::mlr(200_000, 20, s(3)),
        workloads::pnmf(10_000, 1_000, 10, s(4)),
    ]
}

/// The roster tag of a workload.
pub fn tag(w: &Workload) -> &'static str {
    PROGRAMS
        .into_iter()
        .find(|p| p.eq_ignore_ascii_case(w.name))
        .unwrap_or_else(|| panic!("{} is not a roster program", w.name))
}
