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
    addmm_blocked, addmm_packed, matmul_nt_blocked, matmul_tn_blocked, PackedWeight, MR, NR,
};
use duet_nn::{with_tile, Activation, Matrix, SparseRows, Tile};
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
        addmm_packed(a.as_slice(), m, &packed, 0..n, bias_opt, act, got.as_mut_slice());
        assert_bit_identical(&got, &want, "addmm_packed");

        // Column ranges of the packed product (panel-straddling at either
        // end, empty, single-column) are the same columns of the full one.
        for cols in [1.min(n)..n, n / 3..n - n / 4, n / 2..n / 2, n - 1..n] {
            let mut got = Matrix::zeros(m, cols.len());
            addmm_packed(a.as_slice(), m, &packed, cols.clone(), bias_opt, act, got.as_mut_slice());
            let want = Matrix::from_fn(m, cols.len(), |i, j| want.get(i, cols.start + j));
            assert_bit_identical(&got, &want, &format!("addmm_packed columns {cols:?}"));
        }

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
                    0..n,
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
    addmm_packed(
        a.as_slice(),
        9,
        &packed,
        0..20,
        Some(&bias),
        Activation::Relu,
        got.as_mut_slice(),
    );
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
