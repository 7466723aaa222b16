//! Multiple Predicates Supporting Networks (MPSN, paper §IV-F).
//!
//! When a query may carry more than one predicate on the same column, the
//! variable-length list of predicate encodings must be squashed into the
//! column's fixed-width input block before it reaches the autoregressive
//! network. The paper proposes three candidates and picks the MLP variant for
//! efficiency:
//!
//! * **MLP & vector sum** — embed each predicate with a small MLP and sum the
//!   embeddings (order-invariant);
//! * **Recurrent** — run the predicate sequence through a small recurrent
//!   network (the paper uses an LSTM; this reproduction uses a single-layer
//!   tanh RNN, which preserves the relevant trade-offs: sequential cost and
//!   order sensitivity);
//! * **Recursive** — `out = MLP(E(pred) || out)`, folded over the predicates.
//!
//! Every column owns an independent MPSN, and `ColumnMpsn::embed_into`,
//! one column at a time, is the one MPSN forward: estimation and training
//! both run it. The paper's §IV-F also describes a *merged* inference mode
//! for the MLP variant, which fuses every column's MLP into one
//! block-diagonal network; that form is not implemented here.

use crate::config::MpsnKind;
use duet_nn::{
    rowvec_matmul_into, ForwardWorkspace, InferLayer, Init, Matrix, Mlp, Param, Params,
    TrainWorkspace, WeightSource,
};

/// Reusable scratch buffers for allocation-free MPSN embedding and
/// back-propagation.
///
/// Owned by the caller (typically inside a
/// [`DuetWorkspace`](crate::model::DuetWorkspace)); every buffer reshapes on
/// the fly reusing its heap capacity, so both directions are allocation-free
/// once the buffers have warmed up to the widest column. The training-only
/// buffers stay empty in a workspace that only ever serves.
#[derive(Debug, Clone, Default)]
pub(crate) struct MpsnScratch {
    /// Workspace for the per-column MLP / recursive cell forward passes.
    nn: ForwardWorkspace,
    /// One-row input staging matrix for the recursive cell.
    row_in: Matrix,
    /// The state sequence of the recurrent / recursive variants: row 0 is the
    /// zero initial state, row `t + 1` the state after predicate `t`.
    states: Matrix,
    /// Recurrent `h @ Wh` staging (kept separate from the `x @ Wx` term so
    /// the two products are each summed before they are added).
    t: Vec<f32>,
    /// Activation checkpoints + gradient buffers of the MLP / recursive cell
    /// training pair.
    train: TrainWorkspace,
    /// Staged gradient w.r.t. the MLP / recursive cell output.
    grad: Matrix,
    /// Recurrent gradient w.r.t. the hidden state.
    dh: Vec<f32>,
    /// Recurrent gradient w.r.t. the pre-activation.
    da: Vec<f32>,
}

/// A per-column MPSN instance.
// Variant sizes differ, but a model holds at most one per column, so boxing
// the larger variants would add a pointer chase per embed for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum ColumnMpsn {
    /// MLP embedding + vector sum.
    Mlp(MlpMpsn),
    /// Recurrent (tanh RNN) embedding.
    Recurrent(RecurrentMpsn),
    /// Recursive embedding.
    Recursive(RecursiveMpsn),
}

impl ColumnMpsn {
    /// Create an MPSN of the requested kind for a column whose input block is
    /// `dim` wide.
    ///
    /// # Panics
    /// Panics if `kind` is [`MpsnKind::None`].
    pub fn new(kind: MpsnKind, dim: usize, hidden: usize, rng: &mut impl WeightSource) -> Self {
        match kind {
            MpsnKind::Mlp => ColumnMpsn::Mlp(MlpMpsn::new(dim, hidden, rng)),
            MpsnKind::Recurrent => ColumnMpsn::Recurrent(RecurrentMpsn::new(dim, hidden, rng)),
            MpsnKind::Recursive => ColumnMpsn::Recursive(RecursiveMpsn::new(dim, hidden, rng)),
            MpsnKind::None => panic!("MpsnKind::None has no network"),
        }
    }

    /// Embed the stacked predicate encodings `encs` (one row per predicate,
    /// `dim` columns) into `out`, using only the scratch buffers in `ws` —
    /// allocation-free once warm.
    ///
    /// An empty `encs` (wildcard column) writes all zeros.
    pub fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim());
        if encs.rows() == 0 {
            out.fill(0.0);
            return;
        }
        match self {
            ColumnMpsn::Mlp(m) => m.embed_into(encs, ws, out),
            ColumnMpsn::Recurrent(m) => m.embed_into(encs, ws, out),
            ColumnMpsn::Recursive(m) => m.embed_into(encs, ws, out),
        }
    }

    /// Add the parameter gradients of one embedding into `grad` (this
    /// MPSN's slice of the gradient buffer, in visiting order): `grad_out`
    /// is the gradient of the loss w.r.t. what [`Self::embed_into`] writes
    /// for the same `encs`. Allocation-free once `ws` is warm.
    pub fn accumulate_grad(
        &self,
        encs: &Matrix,
        grad_out: &[f32],
        ws: &mut MpsnScratch,
        grad: &mut [f32],
    ) {
        debug_assert_eq!(grad_out.len(), self.dim());
        if encs.rows() == 0 {
            return; // wildcard embeddings are constant zeros
        }
        match self {
            ColumnMpsn::Mlp(m) => m.accumulate_grad(encs, grad_out, ws, grad),
            ColumnMpsn::Recurrent(m) => m.accumulate_grad(encs, grad_out, ws, grad),
            ColumnMpsn::Recursive(m) => m.accumulate_grad(encs, grad_out, ws, grad),
        }
    }

    /// Embedding width (equals the column's input block width).
    pub fn dim(&self) -> usize {
        match self {
            ColumnMpsn::Mlp(m) => m.dim,
            ColumnMpsn::Recurrent(m) => m.dim,
            ColumnMpsn::Recursive(m) => m.dim,
        }
    }
}

impl Params for ColumnMpsn {
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        match self {
            ColumnMpsn::Mlp(m) => m.mlp.visit_params_ref(f),
            ColumnMpsn::Recurrent(m) => [&m.wx, &m.wh, &m.b, &m.wo, &m.bo].into_iter().for_each(f),
            ColumnMpsn::Recursive(m) => m.cell.visit_params_ref(f),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            ColumnMpsn::Mlp(m) => m.mlp.visit_params(f),
            ColumnMpsn::Recurrent(m) => {
                [&mut m.wx, &mut m.wh, &mut m.b, &mut m.wo, &mut m.bo].into_iter().for_each(f)
            }
            ColumnMpsn::Recursive(m) => m.cell.visit_params(f),
        }
    }
}

/// MLP & vector-sum MPSN: `embed(preds) = Σ_j MLP(pred_j)`.
#[derive(Debug, Clone)]
pub(crate) struct MlpMpsn {
    mlp: Mlp,
    dim: usize,
}

impl MlpMpsn {
    fn new(dim: usize, hidden: usize, rng: &mut impl WeightSource) -> Self {
        Self { mlp: Mlp::new(&[dim, hidden, hidden, dim], rng), dim }
    }

    /// `out = Σ_rows MLP(encs)`: run the stacked encodings through the MLP in
    /// one workspace-backed pass and sum the output rows (the vector-sum of
    /// the paper, replicated in `column_sums_into` order for bit-identity).
    fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        let y = self.mlp.infer_into(encs, &mut ws.nn);
        out.fill(0.0);
        for row in y.rows_iter() {
            for (o, &x) in out.iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
    }

    fn accumulate_grad(
        &self,
        encs: &Matrix,
        grad_out: &[f32],
        ws: &mut MpsnScratch,
        grad: &mut [f32],
    ) {
        self.mlp.forward_train(encs, &mut ws.train);
        // The sum over predicates broadcasts the same gradient to every row.
        ws.grad.reset(encs.rows(), self.dim);
        for r in 0..encs.rows() {
            ws.grad.row_mut(r).copy_from_slice(grad_out);
        }
        self.mlp.backward_scratch(encs, &ws.grad, &mut ws.train, grad, false);
    }
}

/// Recurrent MPSN: a single-layer tanh RNN over the predicate sequence
/// followed by a linear readout of the final hidden state.
#[derive(Debug, Clone)]
pub(crate) struct RecurrentMpsn {
    wx: Param,
    wh: Param,
    b: Param,
    wo: Param,
    bo: Param,
    dim: usize,
    hidden: usize,
}

impl RecurrentMpsn {
    fn new(dim: usize, hidden: usize, rng: &mut impl WeightSource) -> Self {
        Self {
            wx: Param::new(rng.weights(Init::XavierUniform, dim, hidden)),
            wh: Param::new(rng.weights(Init::XavierUniform, hidden, hidden)),
            b: Param::new(Matrix::zeros(1, hidden)),
            wo: Param::new(rng.weights(Init::XavierUniform, hidden, dim)),
            bo: Param::new(Matrix::zeros(1, dim)),
            dim,
            hidden,
        }
    }

    /// Run the tanh RNN over the stacked encodings, leaving every hidden
    /// state in `ws.states` (row 0 is the initial zero state).
    ///
    /// `x @ Wx` and `h @ Wh` are computed into separate buffers and then
    /// added (instead of accumulating into one), so each product is summed
    /// on its own before the two meet.
    fn run_into(&self, encs: &Matrix, ws: &mut MpsnScratch) {
        let hidden = self.hidden;
        ws.states.reset(encs.rows() + 1, hidden);
        ws.t.clear();
        ws.t.resize(hidden, 0.0);
        for r in 0..encs.rows() {
            let (done, rest) = ws.states.as_mut_slice().split_at_mut((r + 1) * hidden);
            let (h, a) = (&done[r * hidden..], &mut rest[..hidden]);
            rowvec_matmul_into(encs.row(r), &self.wx.data, a);
            rowvec_matmul_into(h, &self.wh.data, &mut ws.t);
            for (a, &t) in a.iter_mut().zip(ws.t.iter()) {
                *a += t;
            }
            for (a, &b) in a.iter_mut().zip(self.b.data.as_slice().iter()) {
                *a += b;
            }
            a.iter_mut().for_each(|v| *v = v.tanh());
        }
    }

    /// Linear readout of the final hidden state.
    fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        self.run_into(encs, ws);
        rowvec_matmul_into(ws.states.row(encs.rows()), &self.wo.data, out);
        for (o, &b) in out.iter_mut().zip(self.bo.data.as_slice().iter()) {
            *o += b;
        }
    }

    fn accumulate_grad(
        &self,
        encs: &Matrix,
        grad_out: &[f32],
        ws: &mut MpsnScratch,
        grad: &mut [f32],
    ) {
        self.run_into(encs, ws);
        let n = encs.rows();
        // The gradient slice in visiting order: wx, wh, b, wo, bo.
        let (g_wx, rest) = grad.split_at_mut(self.wx.len());
        let (g_wh, rest) = rest.split_at_mut(self.wh.len());
        let (g_b, rest) = rest.split_at_mut(self.b.len());
        let (g_wo, g_bo) = rest.split_at_mut(self.wo.len());
        // Readout layer.
        outer_add(g_wo, ws.states.row(n), grad_out);
        for (b, &d) in g_bo.iter_mut().zip(grad_out) {
            *b += d;
        }
        rowvec_matmul_nt_into(grad_out, &self.wo.data, &mut ws.dh);
        // Back-propagation through time.
        for t in (0..n).rev() {
            // da = dh * (1 - h_t^2)
            ws.da.clear();
            ws.da.extend(ws.dh.iter().zip(ws.states.row(t + 1)).map(|(&d, &h)| d * (1.0 - h * h)));
            outer_add(g_wx, encs.row(t), &ws.da);
            outer_add(g_wh, ws.states.row(t), &ws.da);
            for (b, &d) in g_b.iter_mut().zip(ws.da.iter()) {
                *b += d;
            }
            rowvec_matmul_nt_into(&ws.da, &self.wh.data, &mut ws.dh);
        }
    }
}

/// Recursive MPSN: `out_t = MLP([pred_t ; out_{t-1}])`, with `out_0 = 0`.
#[derive(Debug, Clone)]
pub(crate) struct RecursiveMpsn {
    cell: Mlp,
    dim: usize,
}

impl RecursiveMpsn {
    fn new(dim: usize, hidden: usize, rng: &mut impl WeightSource) -> Self {
        Self { cell: Mlp::new(&[2 * dim, hidden, hidden, dim], rng), dim }
    }

    /// Fold the recursive cell over the stacked encodings:
    /// `out_t = MLP([enc_t ; out_{t-1}])`, leaving every output in
    /// `ws.states` (row 0 is the initial zero output).
    fn run_into(&self, encs: &Matrix, ws: &mut MpsnScratch) {
        ws.states.reset(encs.rows() + 1, self.dim);
        for r in 0..encs.rows() {
            self.stage_cell_input(encs, r, ws);
            let y = self.cell.infer_into(&ws.row_in, &mut ws.nn);
            ws.states.row_mut(r + 1).copy_from_slice(y.row(0));
        }
    }

    /// Stage step `r`'s cell input `[enc_r ; out_{r-1}]` in `ws.row_in`.
    fn stage_cell_input(&self, encs: &Matrix, r: usize, ws: &mut MpsnScratch) {
        ws.row_in.reset(1, 2 * self.dim);
        let row = ws.row_in.row_mut(0);
        row[..self.dim].copy_from_slice(encs.row(r));
        row[self.dim..].copy_from_slice(ws.states.row(r));
    }

    fn embed_into(&self, encs: &Matrix, ws: &mut MpsnScratch, out: &mut [f32]) {
        self.run_into(encs, ws);
        out.copy_from_slice(ws.states.row(encs.rows()));
    }

    fn accumulate_grad(
        &self,
        encs: &Matrix,
        grad_out: &[f32],
        ws: &mut MpsnScratch,
        grad: &mut [f32],
    ) {
        self.run_into(encs, ws);
        ws.grad.reset(1, self.dim);
        ws.grad.row_mut(0).copy_from_slice(grad_out);
        for t in (0..encs.rows()).rev() {
            self.stage_cell_input(encs, t, ws);
            self.cell.forward_train(&ws.row_in, &mut ws.train);
            self.cell.backward_scratch(&ws.row_in, &ws.grad, &mut ws.train, grad, true);
            // The second half of the input gradient flows to out_{t-1}.
            ws.grad.row_mut(0).copy_from_slice(&ws.train.input_grad().row(0)[self.dim..]);
        }
    }
}

/// `grad += col^T @ row`: the rank-one weight gradient of a single example,
/// into a row-major `col.len() x row.len()` gradient slice.
fn outer_add(grad: &mut [f32], col: &[f32], row: &[f32]) {
    debug_assert_eq!(grad.len(), col.len() * row.len());
    for (&c, grad_row) in col.iter().zip(grad.chunks_exact_mut(row.len())) {
        for (g, &r) in grad_row.iter_mut().zip(row) {
            *g += c * r;
        }
    }
}

/// `out = x @ w^T` for a single row vector `x` of length `w.cols()` (the
/// input gradient of a single example; the backward sibling of
/// [`rowvec_matmul_into`]).
fn rowvec_matmul_nt_into(x: &[f32], w: &Matrix, out: &mut Vec<f32>) {
    debug_assert_eq!(x.len(), w.cols());
    out.clear();
    out.extend(w.rows_iter().map(|wrow| {
        let mut acc = 0.0f32;
        for (a, b) in x.iter().zip(wrow) {
            acc += a * b;
        }
        acc
    }));
}

/// Build one MPSN per column.
pub(crate) fn build_mpsns(
    kind: MpsnKind,
    block_widths: &[usize],
    hidden: usize,
    rng: &mut impl WeightSource,
) -> Vec<ColumnMpsn> {
    if kind == MpsnKind::None {
        return Vec::new();
    }
    block_widths.iter().map(|&dim| ColumnMpsn::new(kind, dim, hidden, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_nn::seeded_rng;

    fn pred_vec(dim: usize, seed: f32) -> Vec<f32> {
        (0..dim).map(|i| ((i as f32 + 1.0) * seed).sin()).collect()
    }

    fn stack(rows: &[Vec<f32>], cols: usize) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(r);
        }
        m
    }

    fn embed_vec(m: &ColumnMpsn, preds: &[Vec<f32>]) -> Vec<f32> {
        let mut out = vec![9.0; m.dim()];
        m.embed_into(&stack(preds, m.dim()), &mut MpsnScratch::default(), &mut out);
        out
    }

    /// `m`'s parameter gradient (visiting order) for one embedding.
    fn accumulate_grad(m: &ColumnMpsn, preds: &[Vec<f32>], grad_out: &[f32]) -> Vec<f32> {
        let mut grad = vec![0.0; m.param_count()];
        let encs = stack(preds, m.dim());
        m.accumulate_grad(&encs, grad_out, &mut MpsnScratch::default(), &mut grad);
        grad
    }

    #[test]
    fn wildcard_embeds_to_zero_for_all_variants() {
        let mut rng = seeded_rng(1);
        for kind in [MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
            let m = ColumnMpsn::new(kind, 8, 16, &mut rng);
            assert_eq!(embed_vec(&m, &[]), vec![0.0; 8], "{kind:?}");
        }
    }

    #[test]
    fn mlp_embedding_is_order_invariant_but_recurrent_is_not() {
        let mut rng = seeded_rng(2);
        let a = pred_vec(8, 0.3);
        let b = pred_vec(8, 1.7);
        let mlp = ColumnMpsn::new(MpsnKind::Mlp, 8, 16, &mut rng);
        let e1 = embed_vec(&mlp, &[a.clone(), b.clone()]);
        let e2 = embed_vec(&mlp, &[b.clone(), a.clone()]);
        for (x, y) in e1.iter().zip(e2.iter()) {
            assert!((x - y).abs() < 1e-5, "MLP MPSN must be order-invariant");
        }
        let rec = ColumnMpsn::new(MpsnKind::Recurrent, 8, 16, &mut rng);
        let r1 = embed_vec(&rec, &[a.clone(), b.clone()]);
        let r2 = embed_vec(&rec, &[b, a]);
        let diff: f32 = r1.iter().zip(r2.iter()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "recurrent MPSN is expected to be order-sensitive");
    }

    #[test]
    fn gradients_accumulate_for_all_variants() {
        let mut rng = seeded_rng(3);
        for kind in [MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
            let m = ColumnMpsn::new(kind, 6, 12, &mut rng);
            let preds = vec![pred_vec(6, 0.5), pred_vec(6, 0.9)];
            let grad_out = vec![0.1f32; 6];
            let grad = accumulate_grad(&m, &preds, &grad_out);
            assert!(grad.iter().any(|&g| g != 0.0), "{kind:?} accumulated no gradient");
            // Wildcards never contribute gradient.
            let m2 = ColumnMpsn::new(kind, 6, 12, &mut rng);
            assert!(accumulate_grad(&m2, &[], &grad_out).iter().all(|&g| g == 0.0));
        }
    }

    /// Every variant's analytic gradient (first four scalars of every
    /// parameter) against central finite differences of `embed_into`, for the
    /// loss `dot(embed_vec(preds), w)`.
    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(4);
        for kind in [MpsnKind::Mlp, MpsnKind::Recurrent, MpsnKind::Recursive] {
            let mut m = ColumnMpsn::new(kind, 4, 8, &mut rng);
            let preds = vec![pred_vec(4, 0.4), pred_vec(4, 1.1)];
            let w: Vec<f32> = vec![0.3, -0.2, 0.5, 0.1];
            let grad = accumulate_grad(&m, &preds, &w);
            let mut analytic: Vec<Vec<f32>> = Vec::new();
            let mut at = 0;
            m.visit_params_ref(&mut |p| {
                analytic.push(grad[at..at + 4].to_vec());
                at += p.len();
            });
            let eps = 1e-3f32;
            for (param, grads) in analytic.iter().enumerate() {
                for (idx, &ga) in grads.iter().enumerate() {
                    let mut loss = [0.0f32; 2];
                    for (s, sign) in [1.0f32, -1.0].into_iter().enumerate() {
                        let nudge = |m: &mut ColumnMpsn, by: f32| {
                            let mut at = 0;
                            m.visit_params(&mut |p| {
                                if at == param {
                                    p.data.as_mut_slice()[idx] += by;
                                }
                                at += 1;
                            });
                        };
                        nudge(&mut m, sign * eps);
                        loss[s] = embed_vec(&m, &preds).iter().zip(&w).map(|(a, b)| a * b).sum();
                        nudge(&mut m, -sign * eps);
                    }
                    let numeric = (loss[0] - loss[1]) / (2.0 * eps);
                    assert!(
                        (numeric - ga).abs() < 2e-2 * (1.0 + ga.abs()),
                        "{kind:?} param {param} idx {idx}: analytic {ga}, numeric {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_mpsns_none_is_empty() {
        assert!(build_mpsns(MpsnKind::None, &[4, 4], 8, &mut seeded_rng(1)).is_empty());
        assert_eq!(build_mpsns(MpsnKind::Mlp, &[4, 4], 8, &mut seeded_rng(1)).len(), 2);
    }
}
