//! Per-kernel rates on the shapes the attention workloads run, for the
//! dispatched SIMD arm and the scalar arm in the same process, so the
//! speed-up is a ratio taken within one run.

use crate::Report;
use std::hint::black_box;
use std::time::Instant;
use turbo_softmax::Sas;
use turbo_tensor::simd::{dot_i8_on, matmul_i8t_on, quantize_i8_row_on, quantize_i8_scalar};
use turbo_tensor::{simd_level, SimdLevel, TensorRng};

/// Head dimension and tile height of the workloads (`d = B_r = B_c = 64`).
const D: usize = 64;
/// Repetitions of each timed kernel batch; the median batch is kept.
const BATCHES: usize = 7;

/// Median over `BATCHES` batches of `iters` calls of `f`, in ns per call.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    per_call[BATCHES / 2]
}

fn i8_codes(rng: &mut TensorRng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| rng.uniform_value(-127.0, 127.0) as i8)
        .collect()
}

/// Dot over one decode key row (`d`), GEMM over one prefill tile pair
/// (`64 × 64 × 64`).
fn dot_and_gemm(level: SimdLevel, a: &[i8], b: &[i8]) -> (f64, f64) {
    let dot = ns_per_call(20_000, || {
        black_box(dot_i8_on(level, black_box(&a[..D]), black_box(&b[..D])));
    });
    let mut out = Vec::with_capacity(D * D);
    let gemm = ns_per_call(200, || {
        matmul_i8t_on(level, black_box(a), black_box(b), D, D, D, &mut out);
        black_box(&out);
    });
    (dot, gemm)
}

/// Records `tensor.*_ns_per_kmac`, `tensor.simd_speedup`,
/// `softmax.exp_ns_per_k` and `quant.encode_ns_per_k`.
pub fn measure(report: &mut Report) {
    let level = simd_level();
    let mut rng = TensorRng::new(0x6b65726e);
    let a = i8_codes(&mut rng, D * D);
    let b = i8_codes(&mut rng, D * D);
    let (dot, gemm) = dot_and_gemm(level, &a, &b);
    let (_, gemm_scalar) = dot_and_gemm(SimdLevel::Scalar, &a, &b);
    report.set("tensor.dot_i8_ns_per_kmac", dot / (D as f64 / 1e3));
    report.set(
        "tensor.gemm_i8_ns_per_kmac",
        gemm / ((D * D * D) as f64 / 1e3),
    );
    report.set("tensor.simd_speedup", gemm_scalar / gemm);

    // One score row of a prefill tile: raw i32 QK^T sums plus their
    // dequantization scale, exponentiated by the program's own SAS row
    // path (which dispatches like the workloads do).
    let sas = Sas::paper_default();
    let codes: Vec<i32> = (0..D)
        .map(|_| rng.uniform_value(-20_000.0, 0.0) as i32)
        .collect();
    let mut p = vec![0.0f32; D];
    let exp = ns_per_call(20_000, || {
        black_box(sas.exp_scaled_row_into(black_box(&codes), 2e-4, 0.0, &mut p));
    });
    report.set("softmax.exp_ns_per_k", exp / (D as f64 / 1e3));

    // INT8 encode of one K/V row. The program's shared encode pass is
    // private, so the scalar twin its dispatch falls back to is called
    // here directly.
    let x: Vec<f32> = (0..D).map(|_| rng.uniform_value(-4.0, 4.0)).collect();
    let mut q = vec![0i8; D];
    let encode = ns_per_call(20_000, || {
        if !quantize_i8_row_on(level, black_box(&x), 4.0 / 127.0, &mut q) {
            for (o, &v) in q.iter_mut().zip(&x) {
                *o = quantize_i8_scalar(v, 4.0 / 127.0);
            }
        }
        black_box(&q);
    });
    report.set("quant.encode_ns_per_k", encode / (D as f64 / 1e3));
}
