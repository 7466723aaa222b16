//! Bit-identity of the production networks against the naive reference in
//! `naive/mod.rs`: every forward (`InferLayer::infer_into`, `forward_train`)
//! and every backward (`backward_scratch`: input gradient and every parameter
//! gradient) must reproduce the reference's `f32` bits exactly, for MADE and
//! ResMADE, dense and sparse-enough inputs, batches on both sides of the
//! blocked-kernel threshold, under both register tiles — and for `Mlp`'s
//! pair. This is the oracle behind the "estimates and checkpoints are
//! bit-identical whatever path produced them" guarantee; the kernels alone
//! are held to the same standard in `kernels.rs`. The serving forward's
//! block projection (`Made::infer_blocks`) is held to it too: every logit it
//! computes, for any per-row subset of column blocks.

mod naive;

use duet_nn::{
    seeded_rng, with_tile, BlockPlan, ForwardWorkspace, InferLayer, Made, MadeConfig, Matrix, Mlp,
    Params, SparseRows, Tile, TrainWorkspace,
};
use naive::{Net, Rows};
use rand::rngs::SmallRng;
use rand::Rng;

const TILES: [Tile; 2] = [Tile::Sse4x8, Tile::Avx6x16];

fn rows_of(m: &Matrix) -> Rows {
    m.rows_iter().map(<[f32]>::to_vec).collect()
}

fn bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> Vec<u32> {
    values.into_iter().map(|v| v.to_bits()).collect()
}

/// A matrix whose entries are nonzero with probability `nnz_prob`.
fn random_matrix(rows: usize, cols: usize, nnz_prob: f32, rng: &mut SmallRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0.0..1.0f32) < nnz_prob {
            rng.gen_range(-1.0f32..1.0)
        } else {
            0.0
        }
    })
}

/// Randomize the biases (they initialize to zero, which would leave the bias
/// add untested) and rebuild `model` as a reference network from its
/// parameters in visiting order (weight, bias, weight, bias, ...), one
/// optional mask per linear.
fn reference_of(
    model: &mut dyn Params,
    masks: Vec<Option<Rows>>,
    residual: bool,
    rng: &mut SmallRng,
) -> Net {
    let mut params = Vec::new();
    model.visit_params(&mut |p| {
        if p.data.rows() == 1 {
            p.data.as_mut_slice().iter_mut().for_each(|b| *b = rng.gen_range(-0.5f32..0.5));
        }
        params.push(rows_of(&p.data));
    });
    assert_eq!(params.len(), 2 * masks.len(), "one (weight, bias) pair per linear");
    let layers = params
        .chunks(2)
        .zip(masks)
        .map(|(wb, mask)| naive::Linear::new(wb[0].clone(), mask, wb[1].concat()))
        .collect();
    Net::new(layers, residual)
}

/// `grad` is the model's gradient buffer: every parameter's gradient,
/// concatenated in visiting order.
fn assert_grads_match(model: &dyn Params, grad: &[f32], reference: &Net, what: &str) {
    let want = reference.grads();
    let (mut index, mut at) = (0, 0);
    model.visit_params_ref(&mut |p| {
        let got = &grad[at..at + p.len()];
        assert_eq!(bits(got), bits(&want[index]), "{what}: parameter {index}");
        (index, at) = (index + 1, at + p.len());
    });
    assert_eq!(index, want.len(), "{what}: parameter count");
    assert_eq!(at, grad.len(), "{what}: gradient buffer length");
}

/// Two accumulating forward/backward passes (as one hybrid step runs) of
/// `pass(input, grad_out) -> (inference logits, training logits, input grad)`
/// against the reference.
fn check_two_passes(
    reference: &mut Net,
    inputs: [&Matrix; 2],
    out_width: usize,
    rng: &mut SmallRng,
    what: &str,
    mut pass: impl FnMut(&Matrix, &Matrix) -> (Matrix, Matrix, Matrix),
) {
    for (n, x) in inputs.into_iter().enumerate() {
        let grad_out = random_matrix(x.rows(), out_width, 0.9, rng);
        let (inferred, trained, grad_in) = pass(x, &grad_out);
        let tape = reference.forward(&rows_of(x));
        let want_grad_in = reference.backward(&tape, &rows_of(&grad_out));
        let want = bits(tape.output.iter().flatten());
        assert_eq!(bits(inferred.as_slice()), want, "{what}: infer_into, pass {n}");
        assert_eq!(bits(trained.as_slice()), want, "{what}: forward_train, pass {n}");
        assert_eq!(
            bits(grad_in.as_slice()),
            bits(want_grad_in.iter().flatten()),
            "{what}: input gradient, pass {n}"
        );
    }
}

#[test]
fn made_pair_matches_the_naive_reference_bitwise() {
    for tile in TILES {
        for residual in [false, true] {
            // 0.25 takes the fused sparse first layer, 0.95 the dense kernels.
            for nnz_prob in [0.25f32, 0.95] {
                // 19 rows run the blocked/packed kernels, 3 the naive ones.
                for rows in [19usize, 3] {
                    let what = format!("{tile:?} residual={residual} nnz={nnz_prob} rows={rows}");
                    with_tile(tile, || check_made(residual, nnz_prob, rows, &what));
                }
            }
        }
    }
}

fn check_made(residual: bool, nnz_prob: f32, rows: usize, what: &str) {
    let config = MadeConfig {
        input_block_sizes: vec![4, 3, 5, 6],
        output_block_sizes: vec![6, 2, 9, 4],
        hidden_sizes: vec![24, 24, 24],
        residual,
    };
    let mut rng = seeded_rng(41);
    let mut made = Made::new(config.clone(), &mut rng);
    let masks = naive::made_masks(
        &config.input_block_sizes,
        &config.output_block_sizes,
        &config.hidden_sizes,
        residual,
    );
    let masks = masks.into_iter().map(Some).collect();
    let mut reference = reference_of(&mut made, masks, residual, &mut rng);
    let inputs = [
        random_matrix(rows, config.input_width(), nnz_prob, &mut rng),
        random_matrix(rows, config.input_width(), nnz_prob, &mut rng),
    ];

    let mut grad = vec![0.0; made.num_parameters()];
    let (mut ws, mut tws) = (ForwardWorkspace::new(), TrainWorkspace::new());
    let mut sparse = SparseRows::new();
    let pass = |x: &Matrix, grad_out: &Matrix| {
        sparse.capture_from(x);
        assert_eq!(sparse.is_sparse_enough(), nnz_prob < 0.4, "{what}: input picks the path");
        let inferred = made.infer_into(x, &mut ws).clone();
        let trained = made.forward_train(x, Some(&sparse), &mut tws).clone();
        made.backward_scratch(x, grad_out, Some(&sparse), &mut tws, &mut grad, true);
        (inferred, trained, tws.input_grad().clone())
    };
    let [a, b] = &inputs;
    check_two_passes(&mut reference, [a, b], config.output_width(), &mut rng, what, pass);
    assert_grads_match(&made, &grad, &reference, what);
}

#[test]
fn block_projection_matches_the_naive_reference_bitwise() {
    for tile in TILES {
        for residual in [false, true] {
            // 19 rows take the packed output kernel when the hidden
            // activation is dense (ResMADE) and the naive one when it is not
            // (MADE's ReLU); 3 rows always take the naive one.
            for rows in [19usize, 3] {
                let what = format!("{tile:?} residual={residual} rows={rows}");
                with_tile(tile, || check_block_projection(residual, rows, &what));
            }
        }
    }
}

fn check_block_projection(residual: bool, rows: usize, what: &str) {
    // Output blocks at offsets 0, 6, 8, 27, 30: blocks narrower than either
    // tile's panel, and blocks straddling panel boundaries of both.
    let config = MadeConfig {
        input_block_sizes: vec![4, 3, 5, 6, 2],
        output_block_sizes: vec![6, 2, 19, 3, 7],
        hidden_sizes: vec![24, 24, 24],
        residual,
    };
    let blocks = config.num_columns();
    let mut rng = seeded_rng(47);
    let mut made = Made::new(config.clone(), &mut rng);
    let masks = naive::made_masks(
        &config.input_block_sizes,
        &config.output_block_sizes,
        &config.hidden_sizes,
        residual,
    );
    let reference =
        reference_of(&mut made, masks.into_iter().map(Some).collect(), residual, &mut rng);
    let x = random_matrix(rows, config.input_width(), 0.95, &mut rng);
    let want = reference.forward(&rows_of(&x)).output;

    let mut ws = ForwardWorkspace::new();
    let mut plan = BlockPlan::new();
    // The empty plan, the all-blocks plan, then random per-row subsets, all
    // through one workspace.
    for round in 0..12 {
        let keep = match round {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.1f32..0.9),
        };
        plan.begin(rows, blocks);
        for _ in 0..blocks {
            for r in 0..rows {
                if rng.gen_range(0.0f32..1.0) < keep {
                    plan.push_row(r);
                }
            }
            plan.end_block();
        }
        let logits = made.infer_blocks(&x, &plan, &mut ws);
        for b in 0..blocks {
            let (offset, len) = made.output_block(b);
            for (i, &r) in plan.block(b).iter().enumerate() {
                assert_eq!(
                    bits(logits.row(b, i)),
                    bits(&want[r][offset..offset + len]),
                    "{what}: round {round}, block {b}, row {r}"
                );
            }
        }
    }
}

#[test]
fn mlp_pair_matches_the_naive_reference_bitwise() {
    for tile in TILES {
        for rows in [11usize, 2] {
            let what = format!("{tile:?} rows={rows}");
            with_tile(tile, || {
                let mut rng = seeded_rng(43);
                let mut mlp = Mlp::new(&[5, 16, 16, 9], &mut rng);
                let mut reference = reference_of(&mut mlp, vec![None; 3], false, &mut rng);
                let inputs =
                    [random_matrix(rows, 5, 0.9, &mut rng), random_matrix(rows, 5, 0.4, &mut rng)];

                let mut grad = vec![0.0; mlp.param_count()];
                let (mut ws, mut tws) = (ForwardWorkspace::new(), TrainWorkspace::new());
                let pass = |x: &Matrix, grad_out: &Matrix| {
                    let inferred = mlp.infer_into(x, &mut ws).clone();
                    let trained = mlp.forward_train(x, &mut tws).clone();
                    mlp.backward_scratch(x, grad_out, &mut tws, &mut grad, true);
                    (inferred, trained, tws.input_grad().clone())
                };
                let [a, b] = &inputs;
                check_two_passes(&mut reference, [a, b], 9, &mut rng, &what, pass);
                assert_grads_match(&mlp, &grad, &reference, &what);
            });
        }
    }
}
