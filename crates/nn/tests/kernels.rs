//! Property tests for the blocked/packed matmul kernels: **exact** (bitwise)
//! equality against naive triple-loop references, across tile-boundary
//! shapes.
//!
//! The kernels promise bit-identity for finite inputs because every path
//! accumulates each output element in the same ascending shared-dimension
//! order (see `duet_nn::kernels`). These tests hold them to it:
//!
//! * random shapes spanning the `MR`/`NR` tile boundaries, plus directed
//!   edge shapes (`1 x n`, `m x 1` products, prime dimensions, exact
//!   multiples and off-by-one neighbours of the tile sizes);
//! * inputs with exact zeros mixed in, so the zero-skipping naive paths,
//!   the dense blocked path, and the strip-dropping packed path are all
//!   exercised against each other;
//! * the fused bias + activation epilogue compared against an unfused
//!   matmul → bias broadcast → activation pipeline;
//! * the public `Matrix` APIs at shapes straddling the dispatch thresholds,
//!   so whatever path the dispatcher picks must agree with the reference.

use duet_nn::kernels::{
    addmm_blocked, addmm_packed, addmm_packed_half, matmul_nt_blocked, matmul_tn_blocked,
    PackedWeight, PackedWeightHalf, MR, NR,
};
use duet_nn::{f16_to_f32, f32_to_f16, with_tile, Activation, Matrix, SparseRows, Tile};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Every register-tile variant the runtime dispatch can select. Both run on
/// any machine: the AVX2 variant falls back to a baseline-compiled
/// instantiation of the same 6×16 arithmetic when the feature is absent, so
/// these tests exercise every tile shape everywhere.
const TILES: [Tile; 2] = [Tile::Sse4x8, Tile::Avx6x16];

/// Deterministic matrix with a mix of exact zeros (probability ~1/3) and
/// small signed values — zeros exercise the sparse-skip paths.
fn matrix_with_zeros(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0u32..3) == 0 {
            0.0
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

/// Textbook reference: `out[i][j] = sum_p a[i][p] * b[p][j]` in ascending
/// `p` order, then bias, then activation — the element-wise sequence every
/// kernel must reproduce exactly.
fn reference_addmm(a: &Matrix, b: &Matrix, bias: Option<&[f32]>, act: Activation) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            if let Some(bias) = bias {
                acc += bias[j];
            }
            let mut cell = [acc];
            act.apply(&mut cell);
            out.set(i, j, cell[0]);
        }
    }
    out
}

fn assert_bit_identical(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} differs: got {g} ({:#x}), want {w} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Run every kernel path for one `(m, k, n)` shape and compare bitwise,
/// under every register-tile variant.
fn check_shape(m: usize, k: usize, n: usize, rng: &mut SmallRng) {
    let a = matrix_with_zeros(m, k, rng);
    let b = matrix_with_zeros(k, n, rng);
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for tile in TILES {
        with_tile(tile, || check_shape_current_tile(&a, &b, &bias, m, k, n));
    }
}

fn check_shape_current_tile(a: &Matrix, b: &Matrix, bias: &[f32], m: usize, k: usize, n: usize) {
    // Row-sparse capture of the left operand for the fused sparse-input
    // kernels (skipping a zero drops a `+ 0.0` from an accumulator that
    // started at +0.0, which cannot change the bits for finite inputs).
    let mut sparse_a = SparseRows::new();
    sparse_a.capture_from(a);
    for (bias_opt, act) in [
        (None, Activation::Identity),
        (Some(bias), Activation::Identity),
        (Some(bias), Activation::Relu),
        (None, Activation::Relu),
    ] {
        let want = reference_addmm(a, b, bias_opt, act);

        // Public dispatching API (whatever path the dispatcher picks).
        let mut got = Matrix::zeros(0, 0);
        a.addmm_bias_act_into(b, bias_opt, act, &mut got);
        assert_bit_identical(&got, &want, "addmm_bias_act_into");

        // Forced dense blocked path.
        let mut got = Matrix::zeros(m, n);
        addmm_blocked(a.as_slice(), m, k, b.as_slice(), n, bias_opt, act, got.as_mut_slice());
        assert_bit_identical(&got, &want, "addmm_blocked");

        // Forced packed path (strip-dropping pack of the same operand).
        let mut packed = PackedWeight::new();
        packed.fill_from(b.as_slice(), k, n);
        let mut got = Matrix::zeros(m, n);
        addmm_packed(a.as_slice(), m, &packed, bias_opt, act, got.as_mut_slice());
        assert_bit_identical(&got, &want, "addmm_packed");

        // Packed path through the public Matrix API.
        let mut got = Matrix::zeros(0, 0);
        a.addmm_packed_bias_act_into(&packed, bias_opt, act, &mut got);
        assert_bit_identical(&got, &want, "addmm_packed_bias_act_into");

        // Fused sparse-input path (the first-layer training kernel).
        let mut got = Matrix::zeros(0, 0);
        sparse_a.addmm_bias_act_into(b, bias_opt, act, &mut got);
        assert_bit_identical(&got, &want, "sparse addmm_bias_act_into");
    }

    // matmul_nt: a @ b'^T with b' = b^T, so the reference product is the same.
    let bt = b.transpose();
    let want = reference_addmm(a, b, None, Activation::Identity);
    let mut got = Matrix::zeros(0, 0);
    a.matmul_nt_into(&bt, &mut got);
    assert_bit_identical(&got, &want, "matmul_nt_into");
    let mut got = Matrix::zeros(m, n);
    matmul_nt_blocked(a.as_slice(), m, k, bt.as_slice(), n, got.as_mut_slice());
    assert_bit_identical(&got, &want, "matmul_nt_blocked");

    // matmul_tn: a'^T @ b with a' = a^T.
    let at = a.transpose();
    let mut got = Matrix::zeros(0, 0);
    at.matmul_tn_into(b, &mut got);
    assert_bit_identical(&got, &want, "matmul_tn_into");
    let mut got = Matrix::zeros(m, n);
    matmul_tn_blocked(at.as_slice(), k, m, b.as_slice(), n, got.as_mut_slice());
    assert_bit_identical(&got, &want, "matmul_tn_blocked");

    // Sparse-input weight-gradient kernel: `at` captured row-sparse, then
    // `at^T @ b` — the backward counterpart of the fused first layer.
    let mut sparse_at = SparseRows::new();
    sparse_at.capture_from(&at);
    let mut got = Matrix::zeros(0, 0);
    sparse_at.matmul_tn_into(b, &mut got);
    assert_bit_identical(&got, &want, "sparse matmul_tn_into");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes spanning the MR/NR tile boundaries and the dispatch
    /// thresholds (m crosses MIN_BLOCK_ROWS = 8, n crosses NR).
    #[test]
    fn kernels_match_reference_on_random_shapes(
        m in 1usize..3 * MR + 2,
        k in 1usize..24,
        n in 1usize..3 * NR + 2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = duet_nn::seeded_rng(seed);
        check_shape(m, k, n, &mut rng);
    }

    /// Larger batched shapes (everything on the blocked/packed side of the
    /// dispatch) with non-multiple-of-tile dimensions.
    #[test]
    fn kernels_match_reference_on_batched_shapes(
        m in 8usize..40,
        k in 2usize..48,
        n in 8usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = duet_nn::seeded_rng(seed ^ 0xb10c);
        check_shape(m, k, n, &mut rng);
    }
}

/// Directed edge shapes: row/column vectors, prime dimensions, exact tile
/// multiples and their off-by-one neighbours.
#[test]
fn kernels_match_reference_on_edge_shapes() {
    let mut rng = duet_nn::seeded_rng(0xedfe);
    let primes = [1usize, 2, 3, 5, 7, 13, 17, 31, 37];
    for &m in &primes {
        for &n in &primes {
            check_shape(m, 5, n, &mut rng);
        }
    }
    for &m in &[MR - 1, MR, MR + 1, 2 * MR - 1, 2 * MR, 2 * MR + 1] {
        for &n in &[NR - 1, NR, NR + 1, 2 * NR - 1, 2 * NR, 2 * NR + 1] {
            check_shape(m, 11, n, &mut rng);
            check_shape(m, 1, n, &mut rng);
        }
    }
    // Nx1 and 1xN extremes around the dispatch thresholds.
    for &m in &[1usize, 7, 8, 9, 33] {
        check_shape(m, 3, 1, &mut rng);
        check_shape(1, 3, m, &mut rng);
    }
}

/// A pack built under one tile variant keeps producing exact results after
/// the thread's tile changes: the pack carries its own tile, so dispatch
/// follows the data, not the ambient setting.
#[test]
fn packed_weight_survives_tile_changes() {
    let mut rng = duet_nn::seeded_rng(0x7171);
    let (m, k, n) = (13, 19, 29);
    let a = matrix_with_zeros(m, k, &mut rng);
    let b = matrix_with_zeros(k, n, &mut rng);
    let want = reference_addmm(&a, &b, None, Activation::Identity);
    for pack_tile in TILES {
        let mut packed = PackedWeight::new();
        with_tile(pack_tile, || packed.fill_from(b.as_slice(), k, n));
        assert_eq!(packed.tile(), pack_tile);
        for run_tile in TILES {
            let mut got = Matrix::zeros(m, n);
            with_tile(run_tile, || {
                addmm_packed(
                    a.as_slice(),
                    m,
                    &packed,
                    None,
                    Activation::Identity,
                    got.as_mut_slice(),
                )
            });
            assert_bit_identical(&got, &want, "packed across tiles");
        }
    }
}

/// An all-zero weight matrix packs to zero strips and still produces the
/// exact reference result (pure bias/activation).
#[test]
fn packed_all_zero_weight_is_bias_only() {
    let mut rng = duet_nn::seeded_rng(0x00);
    let a = matrix_with_zeros(9, 6, &mut rng);
    let b = Matrix::zeros(6, 20);
    let bias: Vec<f32> = (0..20).map(|j| j as f32 - 10.0).collect();
    let mut packed = PackedWeight::new();
    packed.fill_from(b.as_slice(), 6, 20);
    assert_eq!(packed.density(), 0.0);
    let mut got = Matrix::zeros(9, 20);
    addmm_packed(a.as_slice(), 9, &packed, Some(&bias), Activation::Relu, got.as_mut_slice());
    let want = reference_addmm(&a, &b, Some(&bias), Activation::Relu);
    assert_bit_identical(&got, &want, "all-zero packed");
}

/// The exact input profile of the fused first layer: a batch of
/// concatenated one-hot blocks (binary value bits + operator one-hots), far
/// above the sparse-dispatch threshold. The captured view must agree with
/// every dense path bitwise, under both runtime tiles, and a recapture at a
/// different shape must keep agreeing (the buffers are reused in training).
#[test]
fn sparse_capture_matches_dense_on_onehot_batches() {
    let mut rng = duet_nn::seeded_rng(0x51a7);
    let mut sparse = SparseRows::new();
    for (batch, blocks, block_width, n) in
        [(17usize, 9usize, 15usize, 16usize), (5, 3, 7, 29), (1, 4, 31, 8)]
    {
        let k = blocks * block_width;
        // One hot bit per block per row, like `DuetModel::fill_input`.
        let a = Matrix::from_fn(batch, k, |r, c| {
            let block = c / block_width;
            let hot = (r * 31 + block * 7) % block_width;
            if c % block_width == hot {
                1.0
            } else {
                0.0
            }
        });
        let b = matrix_with_zeros(k, n, &mut rng);
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        sparse.capture_from(&a);
        assert!(
            sparse.is_sparse_enough(),
            "one-hot batches must qualify for the sparse dispatch (density {})",
            sparse.density()
        );
        let want = reference_addmm(&a, &b, Some(&bias), Activation::Identity);
        for tile in TILES {
            with_tile(tile, || {
                let mut got = Matrix::zeros(0, 0);
                sparse.addmm_bias_act_into(&b, Some(&bias), Activation::Identity, &mut got);
                assert_bit_identical(&got, &want, "one-hot sparse addmm");
            });
        }
    }
}

/// The pooled (parallel) path splits rows across worker threads and must
/// still be bit-identical to the serial run — chunk boundaries never change
/// per-row results.
#[test]
fn pooled_kernels_match_serial_bitwise() {
    let pool = duet_nn::ComputePool::new(3);
    let mut rng = duet_nn::seeded_rng(0x9001);
    // Big enough to cross PAR_THRESHOLD (m * k * n >= 2^22).
    let (m, k, n) = (210, 150, 150);
    let a = matrix_with_zeros(m, k, &mut rng);
    let b = matrix_with_zeros(k, n, &mut rng);
    let matmul = || {
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        out
    };
    let serial = matmul();
    let before = pool.dispatched_jobs();
    let pooled = duet_nn::with_pool(&pool, matmul);
    assert!(pool.dispatched_jobs() > before, "the pooled path must actually dispatch");
    assert_bit_identical(&pooled, &serial, "pooled matmul");

    let mut packed = PackedWeight::new();
    packed.fill_from(b.as_slice(), k, n);
    let mut serial_packed = Matrix::zeros(m, n);
    addmm_packed(
        a.as_slice(),
        m,
        &packed,
        None,
        Activation::Identity,
        serial_packed.as_mut_slice(),
    );
    let mut pooled_packed = Matrix::zeros(m, n);
    duet_nn::with_pool(&pool, || {
        addmm_packed(
            a.as_slice(),
            m,
            &packed,
            None,
            Activation::Identity,
            pooled_packed.as_mut_slice(),
        );
    });
    assert_bit_identical(&pooled_packed, &serial_packed, "pooled packed");
    assert_bit_identical(&serial_packed, &serial, "packed vs dense");
}

// ---------------------------------------------------------------------------
// f16 warm tier: conversion exactness and the half-storage packed kernel.
// ---------------------------------------------------------------------------

/// Directed round-to-nearest-even cases for `f32_to_f16`: signed zeros, exact
/// powers of two, the overflow and subnormal boundaries, ties in both
/// directions, and class preservation for infinities and NaN.
#[test]
fn f32_to_f16_directed_rounding_cases() {
    assert_eq!(f32_to_f16(0.0), 0x0000);
    assert_eq!(f32_to_f16(-0.0), 0x8000);
    assert_eq!(f32_to_f16(1.0), 0x3C00);
    assert_eq!(f32_to_f16(-2.0), 0xC000);
    // Largest finite half; one ulp above it still rounds down.
    assert_eq!(f32_to_f16(65504.0), 0x7BFF);
    assert_eq!(f32_to_f16(65505.0), 0x7BFF);
    // Past the overflow midpoint: saturates to the signed infinity.
    assert_eq!(f32_to_f16(1.0e6), 0x7C00);
    assert_eq!(f32_to_f16(-1.0e6), 0xFC00);
    assert_eq!(f32_to_f16(f32::INFINITY), 0x7C00);
    assert_eq!(f32_to_f16(f32::NEG_INFINITY), 0xFC00);
    let nan = f32_to_f16(f32::NAN);
    assert_eq!(nan & 0x7C00, 0x7C00, "NaN keeps an all-ones exponent");
    assert_ne!(nan & 0x03FF, 0, "NaN keeps a non-zero mantissa");
    // Subnormal range: the smallest subnormal is 2^-24; half of it is a tie
    // with zero (even), and anything above the midpoint rounds up.
    assert_eq!(f32_to_f16(2.0f32.powi(-24)), 0x0001);
    assert_eq!(
        f32_to_f16(2.0f32.powi(-25)),
        0x0000,
        "tie at the underflow midpoint goes to even (zero)"
    );
    assert_eq!(f32_to_f16(1.5 * 2.0f32.powi(-25)), 0x0001);
    assert_eq!(f32_to_f16(-2.0f32.powi(-25)), 0x8000, "underflow keeps the sign");
    // Largest subnormal (1023/1024 * 2^-14), then the smallest normal.
    assert_eq!(f32_to_f16(1023.0 / 1024.0 * 2.0f32.powi(-14)), 0x03FF);
    assert_eq!(f32_to_f16(2.0f32.powi(-14)), 0x0400);
    // Ties to even in the normal range: 1 + 2^-11 sits exactly between
    // 0x3C00 (even) and 0x3C01; 1 + 3*2^-11 between 0x3C01 and 0x3C02 (even).
    assert_eq!(f32_to_f16(1.0 + 2.0f32.powi(-11)), 0x3C00);
    assert_eq!(f32_to_f16(1.0 + 3.0 * 2.0f32.powi(-11)), 0x3C02);
}

/// `f16_to_f32` is exact, so the f32→f16→f32→f16 loop must be the identity
/// on every non-NaN bit pattern (and preserve the NaN class on the rest).
/// The whole 16-bit space is small enough to sweep exhaustively.
#[test]
fn f16_roundtrip_is_exact_for_every_bit_pattern() {
    for h in 0..=u16::MAX {
        let widened = f16_to_f32(h);
        let is_nan = h & 0x7C00 == 0x7C00 && h & 0x03FF != 0;
        if is_nan {
            assert!(widened.is_nan(), "{h:#06x} must widen to NaN");
            let back = f32_to_f16(widened);
            assert_eq!(back & 0x7C00, 0x7C00);
            assert_ne!(back & 0x03FF, 0);
        } else {
            assert_eq!(f32_to_f16(widened), h, "{h:#06x} must survive the round trip");
        }
    }
}

/// The half-storage packed kernel's contract: bit-identical to the naive
/// reference computed over *dequantized* weights (each weight rounded
/// through f16 and widened back), for every (pack tile, run tile) pairing.
/// Widening is exact and accumulation stays f32 in ascending-`k` order, so
/// the only difference from the f32 path is the one-time weight rounding.
fn check_shape_half(m: usize, k: usize, n: usize, rng: &mut SmallRng) {
    let a = matrix_with_zeros(m, k, rng);
    let b = matrix_with_zeros(k, n, rng);
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let dequantized = Matrix::from_fn(k, n, |p, j| f16_to_f32(f32_to_f16(b.get(p, j))));
    let full = reference_addmm(&a, &b, Some(&bias), Activation::Relu);
    let want = reference_addmm(&a, &dequantized, Some(&bias), Activation::Relu);

    for pack_tile in TILES {
        let mut packed = PackedWeightHalf::new();
        with_tile(pack_tile, || packed.fill_from(b.as_slice(), k, n));
        assert_eq!(packed.shape(), (k, n));
        assert_eq!(packed.tile(), pack_tile);
        for run_tile in TILES {
            let mut got = Matrix::zeros(m, n);
            with_tile(run_tile, || {
                addmm_packed_half(
                    a.as_slice(),
                    m,
                    &packed,
                    Some(&bias),
                    Activation::Relu,
                    got.as_mut_slice(),
                );
            });
            assert_bit_identical(&got, &want, "addmm_packed_half vs dequantized reference");
        }
    }

    // Bounded drift against the full-precision result: each weight rounds
    // with relative error <= 2^-11 (plus subnormal flushes below 2^-24), so
    // the output error is bounded by the absolute-value product at that
    // relative scale.
    for i in 0..m {
        for j in 0..n {
            let abs_sum: f32 = (0..k).map(|p| (a.get(i, p) * b.get(p, j)).abs()).sum();
            let bound = 5.0e-4 * abs_sum + 1.0e-5;
            let diff = (want.get(i, j) - full.get(i, j)).abs();
            assert!(
                diff <= bound,
                "half tier drifted past the rounding bound at ({i},{j}): {diff} > {bound}"
            );
        }
    }
}

/// Directed half-kernel shapes mirroring the f32 edge sweep: vectors, prime
/// dimensions, and tile-multiple neighbours.
#[test]
fn packed_half_matches_dequantized_reference_on_edge_shapes() {
    let mut rng = duet_nn::seeded_rng(0xa1f ^ 0xf16);
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (1, 7, NR + 1),
        (MR, 13, NR),
        (MR + 1, 24, 2 * NR + 1),
        (2 * MR, 5, NR - 1),
        (13, 19, 29),
    ] {
        check_shape_half(m, k, n, &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and values: the half pack must agree bitwise with the
    /// dequantized reference under every tile pairing, and stay within the
    /// f16 rounding envelope of the full-precision result.
    #[test]
    fn packed_half_matches_reference_on_random_shapes(
        m in 1usize..2 * MR + 2,
        k in 1usize..24,
        n in 1usize..2 * NR + 2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = duet_nn::seeded_rng(seed ^ 0xf16);
        check_shape_half(m, k, n, &mut rng);
    }
}
