//! Differential suite for the AVX2/FMA microkernels.
//!
//! The contract under test (DESIGN.md §14):
//!
//! * **Exact SIMD is bit-identical to the scalar kernels.** The default
//!   dispatch (`Policy::Auto` on an AVX2+FMA host) resolves to the
//!   exact-parity kernels, which keep per-element ascending-`k`
//!   accumulation but compute through zero `A` entries that the scalar
//!   kernels skip. Every result must match the forced-scalar path bit for
//!   bit — at every thread count — and both must match
//!   `metadpa_tensor::reference`, the textbook oracle.
//! * **Fused SIMD is deterministic and accurate.** `Policy::Fused`
//!   contracts each mul+add into one FMA rounding, so it is *not*
//!   bit-identical to scalar; it must still be bit-identical to itself
//!   across thread counts and within the documented epsilon of the
//!   reference product.
//!
//! On hosts without AVX2 every policy resolves to scalar and these tests
//! degenerate to scalar-vs-scalar identities — still valid, just vacuous.

use metadpa_tensor::pool::with_threads;
use metadpa_tensor::simd::{self, Policy};
use metadpa_tensor::{reference, Matrix, SeededRng};

/// Thread counts the suite compares against the serial scalar baseline.
const THREAD_GRID: [usize; 3] = [1, 2, 7];

/// Relative epsilon for fused-vs-reference comparisons. One FMA per
/// mul-add removes a rounding relative to the two-rounding scalar chain;
/// the worst-case divergence grows with `k`, and `k <= 512` here keeps it
/// comfortably inside this bound (see DESIGN.md §14 for the argument).
const FUSED_REL_EPS: f32 = 1e-4;

/// A matrix with planted zeros. Only the naive and scalar blocked kernels
/// skip zero `A` entries (and bump `tensor.matmul.skipped_rows`); the
/// exact SIMD kernel computes every `0·b` term, which for finite `B` adds
/// `±0` to an accumulator that is never `-0.0` — a bitwise no-op. These
/// zeros pin that the skipping and non-skipping kernels agree to the bit.
fn sparse_matrix(rng: &mut SeededRng, rows: usize, cols: usize) -> Matrix {
    let mut m = rng.normal_matrix(rows, cols);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        if i % 7 == 0 {
            *v = 0.0;
        }
    }
    m
}

/// A post-ReLU-like left operand: every negative draw becomes a zero
/// (about half the entries), and every third of those a `-0.0`, so the
/// skip predicate (which treats `-0.0` as zero) and signed-zero parity are
/// both exercised at the density the preference net trains on.
fn relu_matrix(rng: &mut SeededRng, rows: usize, cols: usize) -> Matrix {
    let mut m = rng.normal_matrix(rows, cols);
    let mut zeros = 0usize;
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = if zeros % 3 == 2 { -0.0 } else { 0.0 };
            zeros += 1;
        }
    }
    m
}

/// How a grid case fills its left operand.
#[derive(Clone, Copy, Debug)]
enum Left {
    /// [`sparse_matrix`]: one entry in seven is `+0.0`.
    Planted,
    /// [`relu_matrix`]: about half the entries are `±0.0`.
    Relu,
}

fn left_operand(rng: &mut SeededRng, rows: usize, cols: usize, left: Left) -> Matrix {
    match left {
        Left::Planted => sparse_matrix(rng, rows, cols),
        Left::Relu => relu_matrix(rng, rows, cols),
    }
}

fn assert_bit_identical(name: &str, want: &Matrix, got: &Matrix, context: &str) {
    assert_eq!(want.shape(), got.shape(), "{name}: shape drift ({context})");
    for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: element {i} differs ({context}): {a} vs {b}");
    }
}

fn assert_close(name: &str, want: &Matrix, got: &Matrix, rel_eps: f32) {
    assert_eq!(want.shape(), got.shape(), "{name}: shape drift");
    for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        let tol = rel_eps * (1.0 + a.abs().max(b.abs()));
        assert!((a - b).abs() <= tol, "{name}: element {i} off by more than {tol}: {a} vs {b}");
    }
}

/// Shapes chosen to hit every corner of the SIMD drivers: full 16-wide
/// tiles, ragged right edges (n % 16 != 0), partial 6-row strips
/// (m % 6 != 0), k of 1, n of 1 (the scorer head), single rows, and
/// shapes big enough to engage the parallel row split — plus the
/// preference net's training shapes (m = set sizes 5/10/25, k and n the
/// embedding and hidden widths) on post-ReLU-like left operands.
fn shape_grid() -> Vec<(usize, usize, usize, u64, Left)> {
    let mut grid = vec![
        (96, 64, 128, 11, Left::Planted), // all-full tiles and strips, parallel path
        (97, 33, 130, 23, Left::Planted), // ragged everywhere: m%6=1, n%16=2
        (6, 17, 16, 31, Left::Planted),   // one exact strip, one exact tile
        (5, 8, 19, 41, Left::Planted),    // single partial strip, ragged edge
        (64, 1, 48, 43, Left::Planted),   // k=1: one accumulation step
        (128, 96, 1, 47, Left::Planted),  // n=1: the scorer's final layer
        (1, 257, 9, 5, Left::Planted),    // single row
        (13, 5, 3, 3, Left::Planted),     // tiny: below every blocking threshold
        (160, 512, 64, 59, Left::Planted), // deep k: accumulation-order stress
    ];
    for m in [5, 10, 25] {
        for k in [10, 24, 48, 64] {
            for n in [24, 32, 48] {
                grid.push((m, k, n, (m * 10_000 + k * 100 + n) as u64, Left::Relu));
            }
        }
    }
    grid
}

#[test]
fn exact_simd_matmul_is_bit_identical_to_scalar_at_every_thread_count() {
    for (m, k, n, seed, left) in shape_grid() {
        let mut rng = SeededRng::new(seed);
        let a = left_operand(&mut rng, m, k, left);
        let b = rng.normal_matrix(k, n);
        let oracle = reference::matmul(&a, &b);
        let scalar = simd::with_policy(Policy::ForcedScalar, || with_threads(1, || a.matmul(&b)));
        assert_bit_identical("matmul", &oracle, &scalar, "scalar vs reference");
        for threads in THREAD_GRID {
            let auto = simd::with_policy(Policy::Auto, || with_threads(threads, || a.matmul(&b)));
            assert_bit_identical(
                "matmul",
                &scalar,
                &auto,
                &format!("{m}x{k}x{n} {left:?} auto vs scalar, threads={threads}"),
            );
        }
    }
}

#[test]
fn exact_simd_matmul_tn_is_bit_identical_to_scalar_at_every_thread_count() {
    for (m, k, n, seed, left) in shape_grid() {
        let mut rng = SeededRng::new(seed);
        let a = left_operand(&mut rng, k, m, left); // used as A^T: k x m
        let b = rng.normal_matrix(k, n);
        let oracle = reference::matmul_tn(&a, &b);
        let scalar =
            simd::with_policy(Policy::ForcedScalar, || with_threads(1, || a.matmul_tn(&b)));
        assert_bit_identical("matmul_tn", &oracle, &scalar, "scalar vs reference");
        for threads in THREAD_GRID {
            let auto =
                simd::with_policy(Policy::Auto, || with_threads(threads, || a.matmul_tn(&b)));
            assert_bit_identical(
                "matmul_tn",
                &scalar,
                &auto,
                &format!("{m}x{k}x{n} {left:?} auto vs scalar, threads={threads}"),
            );
        }
    }
}

#[test]
fn exact_simd_matmul_nt_is_bit_identical_to_scalar_at_every_thread_count() {
    for (m, k, n, seed, left) in shape_grid() {
        let mut rng = SeededRng::new(seed);
        let a = left_operand(&mut rng, m, k, left);
        let b = rng.normal_matrix(n, k);
        let oracle = reference::matmul_nt(&a, &b);
        let scalar =
            simd::with_policy(Policy::ForcedScalar, || with_threads(1, || a.matmul_nt(&b)));
        assert_bit_identical("matmul_nt", &oracle, &scalar, "scalar vs reference");
        for threads in THREAD_GRID {
            let auto =
                simd::with_policy(Policy::Auto, || with_threads(threads, || a.matmul_nt(&b)));
            assert_bit_identical(
                "matmul_nt",
                &scalar,
                &auto,
                &format!("{m}x{k}x{n} {left:?} auto vs scalar, threads={threads}"),
            );
        }
    }
}

#[test]
fn signed_zero_products_keep_bit_parity_through_the_skip_branch() {
    // A zero entry in A is skipped by the scalar kernels (finite B) and
    // multiplied through by the exact SIMD kernel (a ±0.0 product added to
    // the accumulator); both choices must give the same result down to the
    // sign bit. Plant the stress pattern: -0.0 entries
    // in A (the skip predicate treats them as zero), ±0.0 rows in B, and
    // rows whose products are all signed zeros.
    let mut a = Matrix::zeros(8, 4);
    let mut b = Matrix::zeros(4, 32);
    a.as_mut_slice()[0] = -1.0; // row 0: [-1, 0, 0, 0]
    a.as_mut_slice()[4 + 1] = 1.0; // row 1: [0, 1, 0, 0]
    a.as_mut_slice()[8] = -0.0; // row 2: [-0, 0, 0, 0] — skippable -0.0
    for j in 0..32 {
        b.as_mut_slice()[j] = 0.0; // b row 0 all +0.0 -> products are -0.0
        b.as_mut_slice()[32 + j] = -0.0; // b row 1 all -0.0
    }
    let scalar = simd::with_policy(Policy::ForcedScalar, || a.matmul(&b));
    let auto = simd::with_policy(Policy::Auto, || a.matmul(&b));
    assert_bit_identical("matmul", &scalar, &auto, "signed zeros");
    // Round-to-nearest keeps the accumulator at +0.0 through every
    // signed-zero product (+0.0 + -0.0 = +0.0), so the all-zero rows must
    // come out as exactly +0.0 on both paths — not -0.0.
    assert_eq!(scalar.as_slice()[0].to_bits(), 0.0f32.to_bits());
    assert_eq!(scalar.as_slice()[32 + 1].to_bits(), 0.0f32.to_bits());
}

#[test]
fn fused_simd_is_deterministic_and_within_epsilon_of_reference() {
    for (m, k, n, seed, left) in shape_grid() {
        let mut rng = SeededRng::new(seed);
        let a = left_operand(&mut rng, m, k, left);
        let b = rng.normal_matrix(k, n);
        let oracle = reference::matmul(&a, &b);
        let fused = simd::with_policy(Policy::Fused, || with_threads(1, || a.matmul(&b)));
        assert_close("matmul[fused]", &oracle, &fused, FUSED_REL_EPS);
        for threads in THREAD_GRID {
            let par = simd::with_policy(Policy::Fused, || with_threads(threads, || a.matmul(&b)));
            assert_bit_identical(
                "matmul[fused]",
                &fused,
                &par,
                &format!("{m}x{k}x{n} fused self-consistency, threads={threads}"),
            );
        }
    }
}

#[test]
fn fused_transpose_kernels_stay_within_epsilon_of_reference() {
    let mut rng = SeededRng::new(91);
    let at = sparse_matrix(&mut rng, 96, 80); // A^T for tn
    let b = rng.normal_matrix(96, 112);
    let tn = simd::with_policy(Policy::Fused, || at.matmul_tn(&b));
    assert_close("matmul_tn[fused]", &reference::matmul_tn(&at, &b), &tn, FUSED_REL_EPS);

    let a = sparse_matrix(&mut rng, 80, 96);
    let bt = rng.normal_matrix(112, 96);
    let nt = simd::with_policy(Policy::Fused, || a.matmul_nt(&bt));
    assert_close("matmul_nt[fused]", &reference::matmul_nt(&a, &bt), &nt, FUSED_REL_EPS);
}

#[test]
fn forced_scalar_env_override_reaches_the_dispatcher() {
    // `METADPA_SIMD=off` is process-global (read once); the thread-local
    // policy override models the same forced-scalar resolution, so pin
    // that the two agree on what "scalar" produces: with the override in
    // place, Auto and ForcedScalar must emit identical bytes.
    let mut rng = SeededRng::new(101);
    let a = sparse_matrix(&mut rng, 64, 48);
    let b = rng.normal_matrix(48, 96);
    let forced = simd::with_policy(Policy::ForcedScalar, || a.matmul(&b));
    let nested = simd::with_policy(Policy::ForcedScalar, || {
        // A nested Auto cannot re-enable SIMD past a forced-scalar scope
        // in the dispatch ladder's own terms: resolution happens at the
        // matmul entry, under whatever policy is current there.
        a.matmul(&b)
    });
    assert_bit_identical("matmul", &forced, &nested, "forced-scalar scope");
}

/// Randomized shapes/seeds; opt-in because the offline build cannot carry
/// the `proptest` crate as a default dev-dependency (see
/// `tests/proptests.rs` for the convention).
#[cfg(feature = "proptest")]
mod randomized {
    use super::*;

    #[test]
    fn widened_grid_keeps_exact_simd_bit_identical() {
        let mut cases = Vec::new();
        for seed in 0u64..16 {
            let mut rng = SeededRng::new(seed * 37 + 5);
            let m = 1 + rng.gen_index(160);
            let k = 1 + rng.gen_index(192);
            let n = 1 + rng.gen_index(160);
            cases.push((m, k, n, seed));
        }
        for (m, k, n, seed) in cases {
            let mut rng = SeededRng::new(seed);
            let a = sparse_matrix(&mut rng, m, k);
            let b = rng.normal_matrix(k, n);
            let scalar = simd::with_policy(Policy::ForcedScalar, || a.matmul(&b));
            for threads in THREAD_GRID {
                let auto =
                    simd::with_policy(Policy::Auto, || with_threads(threads, || a.matmul(&b)));
                assert_bit_identical(
                    "matmul[randomized]",
                    &scalar,
                    &auto,
                    &format!("{m}x{k}x{n} threads={threads}"),
                );
            }
        }
    }
}
