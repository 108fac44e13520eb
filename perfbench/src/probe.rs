//! A host-speed probe: fixed work that uses only the standard library,
//! so no change to the repository's code can speed it up or slow it
//! down.
//!
//! On a shared host the same work runs at different speeds from one
//! stretch of tens of seconds to the next. Over six 10 s runs of
//! `compile_suite` the median op ranged 334–447 ms (quartile spread 21 %
//! of the median); divided by each run's median probe time it varied by
//! 7 %. Set-up times and `compile_suite`'s op times are therefore scaled
//! to a host where the probe takes [`REFERENCE_MS`], each by the probe
//! timed right after it.
//!
//! `execute_suite`'s kernels stream multi-MB buffers and did not track
//! that probe. A second probe, [`dense_probe_ms`], does what ALS's
//! largest kernel does; over eight 10 s runs, scaling each pass by it
//! cut the quartile spread of the median pass from 4.1 % to 1.9 %.
//! `serve_drift`'s times are reported raw.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the 2-core host the benchmark was tuned on, in a
/// fast stretch.
pub const REFERENCE_MS: f64 = 25.0;

/// Time one run of the probe: hash-map inserts and lookups with random
/// keys, then a sort. Takes about `REFERENCE_MS`.
pub fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // fixed hash keys: the default per-process random keys would give
    // each run its own table layout, and so its own probe time
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..50_000u64 {
        map.insert(next(), i);
    }
    let keys: Vec<u64> = map.keys().copied().collect();
    let mut sum = 0u64;
    for i in 0..1_000_000usize {
        let r = next();
        let key = if i % 2 == 0 {
            keys[(r % keys.len() as u64) as usize]
        } else {
            r
        };
        if let Some(v) = map.get(&key) {
            sum = sum.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..200_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sum)
        .collect();
    v.sort_unstable();
    black_box(v);
    t0.elapsed().as_secs_f64() * 1e3
}

/// `value`, measured next to a probe that took `probe_ms`, at the
/// reference host speed.
pub fn scaled(value: f64, probe_ms: f64) -> f64 {
    value * REFERENCE_MS / probe_ms
}

/// The dense probe's time on the host the benchmark was tuned on, in a
/// fast stretch.
pub const DENSE_REFERENCE_MS: f64 = 10.0;

/// Time one run of the dense probe: a rank-10 outer product of a
/// 2000×10 and a 1000×10 matrix into a freshly allocated 2000×1000
/// buffer, then the sum of its squares. Takes about
/// `DENSE_REFERENCE_MS`.
pub fn dense_probe_ms() -> f64 {
    const ROWS: usize = 2_000;
    const COLS: usize = 1_000;
    const RANK: usize = 10;
    let u: Vec<f64> = (0..ROWS * RANK).map(|i| (i % 97) as f64 * 0.01).collect();
    let v: Vec<f64> = (0..COLS * RANK).map(|i| (i % 89) as f64 * 0.01).collect();
    let t0 = Instant::now();
    let mut out = vec![0.0f64; ROWS * COLS];
    for (i, row) in out.chunks_exact_mut(COLS).enumerate() {
        let ui = &u[i * RANK..(i + 1) * RANK];
        for (j, cell) in row.iter_mut().enumerate() {
            let vj = &v[j * RANK..(j + 1) * RANK];
            *cell = ui.iter().zip(vj).map(|(a, b)| a * b).sum();
        }
    }
    black_box(out.iter().map(|x| x * x).sum::<f64>());
    drop(black_box(out));
    t0.elapsed().as_secs_f64() * 1e3
}

/// `value`, measured next to a dense probe that took `probe_ms`, at the
/// reference host speed.
pub fn dense_scaled(value: f64, probe_ms: f64) -> f64 {
    value * DENSE_REFERENCE_MS / probe_ms
}
