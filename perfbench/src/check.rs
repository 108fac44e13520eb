//! Output checks against an unoptimized reference, and plan digests.

use spores_exec::{ExecConfig, ExecStats, Executor};
use spores_ir::{ExprArena, NodeId, Symbol};
use spores_matrix::Matrix;
use spores_ml::workloads::Workload;
use std::collections::HashMap;

/// One pass of a program's parsed statements, untouched by any
/// optimizer, run with fusion off.
pub struct Reference {
    /// Each statement's value, in program order.
    pub statements: Vec<(Symbol, Matrix)>,
    pub stats: ExecStats,
}

pub fn reference_pass(w: &Workload) -> Result<Reference, String> {
    let (arena, roots) = w.parse();
    let mut exec = Executor::new(ExecConfig { fusion: false });
    let mut env = w.inputs.clone();
    let mut statements = Vec::with_capacity(roots.len());
    for (target, root) in roots {
        let value = exec
            .run(&arena, root, &env)
            .map_err(|e| format!("{} reference {target}: {e}", w.name))?;
        statements.push((target, value.clone()));
        env.insert(target, value);
    }
    Ok(Reference {
        statements,
        stats: exec.stats,
    })
}

/// Row `r` of `m`, densified into `buf`.
fn dense_row(m: &Matrix, r: usize, buf: &mut [f64]) {
    match m {
        Matrix::Dense(d) => buf.copy_from_slice(d.row(r)),
        Matrix::Sparse(s) => {
            buf.fill(0.0);
            for (c, v) in s.row(r) {
                buf[c] = v;
            }
        }
    }
}

/// Check `got` against `want` elementwise with the tolerance the
/// `spores-ml` tests use, `1e-6·(1+|want|)`; returns the largest
/// absolute difference.
pub fn agree(got: &Matrix, want: &Matrix) -> Result<f64, String> {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err(format!(
            "shape {}x{} differs from the reference's {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        ));
    }
    let mut g = vec![0.0; got.cols()];
    let mut w = vec![0.0; want.cols()];
    let mut worst = 0.0f64;
    for r in 0..want.rows() {
        dense_row(got, r, &mut g);
        dense_row(want, r, &mut w);
        for (c, (&x, &y)) in g.iter().zip(&w).enumerate() {
            let diff = (x - y).abs();
            if diff.is_nan() || diff > 1e-6 * (1.0 + y.abs()) {
                return Err(format!("cell ({r},{c}) is {x}, the reference {y}"));
            }
            worst = worst.max(diff);
        }
    }
    Ok(worst)
}

/// Check every statement value bound in `env` against the reference.
pub fn agree_all(
    env: &HashMap<Symbol, Matrix>,
    names: &[Symbol],
    reference: &Reference,
) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for (name, (target, want)) in names.iter().zip(&reference.statements) {
        let got = env
            .get(name)
            .ok_or_else(|| format!("{target} was not computed"))?;
        worst = worst.max(agree(got, want).map_err(|e| format!("{target}: {e}"))?);
    }
    Ok(worst)
}

/// A plan's printed form, one root per line: two plans are the same
/// plan when these texts are byte-identical.
pub fn plan_text(arena: &ExprArena, roots: &[NodeId]) -> String {
    let lines: Vec<String> = roots.iter().map(|&r| arena.display(r)).collect();
    lines.join("\n")
}

/// FNV-1a digest of a plan text.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
