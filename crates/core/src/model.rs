//! The Duet network: predicate encoder + (optional) per-column MPSNs + a
//! masked autoregressive backbone, with the sampling-free estimation path of
//! the paper's Algorithm 3.

use crate::config::DuetConfig;
use crate::encoding::{Encoder, IdPredicate};
use crate::mpsn::{build_mpsns, ColumnMpsn, MpsnScratch};
use duet_data::Table;
use duet_nn::{
    seeded_rng, softmax_restricted_mass, BlockPlan, ForwardWorkspace, Made, MadeConfig, Matrix,
    Param, Params, Skeleton, SoftmaxMode, SparseRows, WeightSource,
};
use duet_query::Query;

/// Every scratch buffer one estimation call chain needs, owned by the caller.
///
/// Ownership rules: a workspace belongs to whoever drives inference — a
/// serving worker thread, a bench loop, the trainer — never to the model, so
/// a shared (`Arc`) model can serve concurrent callers, each with their own
/// workspace. Buffers grow to the model's widest layer on first use and are
/// reused afterwards, making steady-state batched estimation **zero heap
/// allocation**. A workspace holds scratch only — the model carries its own
/// weights and packs — so it may be reused across models, batch sizes,
/// optimizer steps and checkpoint hot-swaps: one workspace serving several
/// tables grows to the widest of them, then stops allocating.
#[derive(Debug, Clone, Default)]
pub struct DuetWorkspace {
    /// The `N x total_width` encoded input batch.
    pub(crate) input: Matrix,
    /// Ping-pong buffers for the autoregressive backbone's forward pass;
    /// the output projection writes each planned block's logits here.
    pub(crate) nn: ForwardWorkspace,
    /// Which rows need which column blocks: a row needs the blocks of the
    /// columns it constrains.
    pub(crate) plan: BlockPlan,
    /// Per column, how many of its planned rows the mass loop has read.
    pub(crate) cursor: Vec<usize>,
    /// Per-column softmax staging for the probability masking step.
    pub(crate) probs: Vec<f32>,
    /// Stacked per-column predicate encodings feeding the MPSN.
    pub(crate) stacked: Matrix,
    /// MPSN embedding scratch.
    pub(crate) mpsn: MpsnScratch,
    /// Sparse row capture of `input` for the fused sparse first layer of the
    /// training path (the one-hot predicate encoding is mostly zeros).
    /// Filled by [`DuetModel::fill_input_with_sparse`]; the inference path
    /// never pays for the capture.
    pub(crate) sparse: SparseRows,
}

impl DuetWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded input batch of the most recent
    /// [`DuetModel::fill_input`] call.
    pub fn input(&self) -> &Matrix {
        &self.input
    }
}

/// The trainable Duet model.
#[derive(Debug, Clone)]
pub struct DuetModel {
    config: DuetConfig,
    encoder: Encoder,
    made: Made,
    mpsns: Vec<ColumnMpsn>,
    /// Cached at construction so size queries need no mutable access; the
    /// architecture (and therefore the count) is fixed for a model's lifetime.
    num_params: usize,
}

impl DuetModel {
    /// Build a model for `table` with the given configuration, its weights
    /// drawn from `seed`.
    pub fn new(table: &Table, config: &DuetConfig, seed: u64) -> Self {
        Self::build(table, config, &mut seeded_rng(seed), &mut seeded_rng(seed ^ 0xa5a5))
    }

    /// The architecture [`DuetModel::new`] builds, every weight zero and
    /// nothing drawn: the model a checkpoint is loaded into.
    pub(crate) fn skeleton(table: &Table, config: &DuetConfig) -> Self {
        Self::build(table, config, &mut Skeleton, &mut Skeleton)
    }

    /// The one constructor: the backbone's weights come from `made`, the
    /// MPSNs' from `mpsn`.
    fn build(
        table: &Table,
        config: &DuetConfig,
        made: &mut impl WeightSource,
        mpsn: &mut impl WeightSource,
    ) -> Self {
        config.validate().expect("invalid Duet configuration");
        let encoder = Encoder::new(table);
        let made_config = if config.residual {
            MadeConfig::res_made(
                encoder.block_widths(),
                encoder.output_sizes(),
                config.hidden_sizes[0],
                config.hidden_sizes.len(),
            )
        } else {
            MadeConfig::made(
                encoder.block_widths(),
                encoder.output_sizes(),
                config.hidden_sizes.clone(),
            )
        };
        let made = Made::new(made_config, made);
        let mpsns = build_mpsns(config.mpsn, &encoder.block_widths(), config.mpsn_hidden, mpsn);
        let mut model = Self { config: config.clone(), encoder, made, mpsns, num_params: 0 };
        model.num_params = model.param_count();
        model
    }

    /// The model's configuration.
    pub fn config(&self) -> &DuetConfig {
        &self.config
    }

    /// The predicate encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The autoregressive backbone.
    pub fn made(&self) -> &Made {
        &self.made
    }

    /// The per-column MPSNs (empty when `MpsnKind::None`).
    pub(crate) fn mpsns(&self) -> &[ColumnMpsn] {
        &self.mpsns
    }

    /// Encode a batch of rows directly into the workspace's input matrix,
    /// with no per-row or per-predicate intermediates: predicate encodings
    /// are written in place (non-MPSN path) or staged in the workspace's
    /// scratch buffers (MPSN path). Allocation-free once the workspace is
    /// warm. This is the only row encoder: estimation and both training
    /// passes go through it.
    ///
    /// `rows[r][c]` is the list of predicates row `r` places on column `c`
    /// (empty = wildcard, encoded as the all-zero block). Without an MPSN
    /// only the first predicate of a column is encoded (the zero-out mask
    /// used at estimation time still honors all of them). `rows` may hold the
    /// per-column predicate lists by value or by reference (anything that
    /// derefs to `[Vec<IdPredicate>]`).
    pub fn fill_input<R: AsRef<[Vec<IdPredicate>]>>(&self, rows: &[R], ws: &mut DuetWorkspace) {
        let DuetWorkspace { input, stacked, mpsn, .. } = ws;
        input.reset(rows.len(), self.encoder.total_width());
        for (r, row) in rows.iter().enumerate() {
            let out_row = input.row_mut(r);
            let mut off = 0usize;
            for (col, col_preds) in row.as_ref().iter().enumerate() {
                let width = self.encoder.block_width(col);
                let slot = &mut out_row[off..off + width];
                if self.mpsns.is_empty() {
                    if let Some(p) = col_preds.first() {
                        self.encoder.encode_predicate_into(col, p, slot);
                    }
                } else if !col_preds.is_empty() {
                    self.encoder.stack_predicates_into(col, col_preds, stacked);
                    self.mpsns[col].embed_into(stacked, mpsn, slot);
                }
                off += width;
            }
        }
    }

    /// [`DuetModel::fill_input`] followed by a sparse row capture of the
    /// encoded batch into the workspace — the training path uses the capture
    /// to feed MADE's fused sparse first layer (forward **and** backward)
    /// without re-scanning the dense input. Allocation-free once warm (the
    /// capture reserves for the worst case up front).
    pub fn fill_input_with_sparse<R: AsRef<[Vec<IdPredicate>]>>(
        &self,
        rows: &[R],
        ws: &mut DuetWorkspace,
    ) {
        self.fill_input(rows, ws);
        ws.sparse.capture_from(&ws.input);
    }

    /// Back-propagate `grad_input` — the gradient w.r.t. the encoded input
    /// [`DuetModel::fill_input`] produced for the same `rows` — into the
    /// per-column MPSNs, re-staging each predicate list through the
    /// workspace exactly as `fill_input` did, and adding each column's
    /// parameter gradients into its slice of `grad` (the MPSNs' part of the
    /// model's gradient buffer, in visiting order). Allocation-free once
    /// warm.
    pub(crate) fn backprop_mpsn<R: AsRef<[Vec<IdPredicate>]>>(
        &self,
        rows: &[R],
        grad_input: &Matrix,
        grad: &mut [f32],
        ws: &mut DuetWorkspace,
    ) {
        let DuetWorkspace { stacked, mpsn, .. } = ws;
        let (mut off, mut at) = (0usize, 0usize);
        for (col, column_mpsn) in self.mpsns.iter().enumerate() {
            let width = self.encoder.block_width(col);
            let column_grad = &mut grad[at..at + column_mpsn.param_count()];
            for (r, row) in rows.iter().enumerate() {
                let col_preds = &row.as_ref()[col];
                if !col_preds.is_empty() {
                    self.encoder.stack_predicates_into(col, col_preds, stacked);
                    let grad_block = &grad_input.row(r)[off..off + width];
                    column_mpsn.accumulate_grad(stacked, grad_block, mpsn, column_grad);
                }
            }
            off += width;
            at += column_grad.len();
        }
    }

    /// The per-column output sizes (`d_i`).
    pub fn output_sizes_ref(&self) -> &[usize] {
        self.encoder.output_sizes_ref()
    }

    /// Algorithm 3, steps 3-4: given one row of logits and the per-column
    /// valid-id intervals, zero out the probabilities that violate the
    /// predicates and multiply the per-column sums into a selectivity.
    ///
    /// Unconstrained columns (full interval) contribute a factor of exactly 1,
    /// matching the paper's formulation where only constrained columns appear
    /// in the product.
    ///
    /// Per constrained column this computes the restricted probability mass
    /// through `duet_nn::softmax_restricted_mass` — the exponentials are
    /// staged unnormalized in `probs` (which grows to the largest per-column
    /// domain, then is reused allocation-free) and the mass is taken as an
    /// `f64` ratio. Estimates are identical across batch sizes and serving
    /// paths for a fixed `mode`, which is the bit-identity the serving layer
    /// relies on: this is the same product the batched estimate takes over
    /// the blocks it computed.
    pub fn selectivity_from_logits_mode(
        &self,
        logits_row: &[f32],
        intervals: &[(u32, u32)],
        probs: &mut Vec<f32>,
        mode: SoftmaxMode,
    ) -> f64 {
        let sizes = self.encoder.output_sizes_ref();
        debug_assert_eq!(logits_row.len(), sizes.iter().sum::<usize>());
        masked_product(sizes, intervals, probs, mode, |col| {
            let (offset, size) = self.made.output_block(col);
            &logits_row[offset..offset + size]
        })
    }

    /// Estimate the selectivities of `N` query rows with **one** batched
    /// forward pass through the backbone (the paper's O(1) inference),
    /// staging every intermediate (encoded input, layer activations,
    /// per-column softmax) in a caller-provided workspace and writing the
    /// selectivities into `out` (cleared first). Zero heap allocation once the
    /// workspace and `out` have warmed up to the batch shape.
    ///
    /// The forward computes only the logits the product reads: a column's
    /// block, for the rows that constrain it. Rows with contradictory
    /// intervals and rows constraining nothing need no block at all, and a
    /// batch of only such rows runs no forward.
    ///
    /// The forward pass is row-independent (every matmul accumulates along
    /// the shared dimension in a fixed order, per output element), so a
    /// row's result does not depend on what it is batched with — batching is
    /// purely a throughput optimization, which the serving layer
    /// (`duet-serve`) relies on for determinism.
    ///
    /// `rows` and `intervals` are generic over anything that derefs to the
    /// per-row slices, so a serving queue can run its own request structs
    /// through the batch pass directly — no per-batch re-gathering of
    /// encodings into `Vec<Vec<...>>` containers.
    pub fn estimate_selectivity_batch_with<R, I>(
        &self,
        rows: &[R],
        intervals: &[I],
        ws: &mut DuetWorkspace,
        out: &mut Vec<f64>,
    ) where
        R: AsRef<[Vec<IdPredicate>]>,
        I: AsRef<[(u32, u32)]>,
    {
        assert_eq!(rows.len(), intervals.len(), "rows/intervals length mismatch");
        self.fill_input(rows, ws);
        self.selectivities_of_input(intervals, ws, out);
    }

    /// The estimate of the rows [`DuetModel::fill_input`] last encoded into
    /// `ws`, given their intervals: plan the blocks each row's product
    /// reads, run the backbone's trunk and block projection, and multiply
    /// each row's masses in ascending column order.
    pub(crate) fn selectivities_of_input<I: AsRef<[(u32, u32)]>>(
        &self,
        intervals: &[I],
        ws: &mut DuetWorkspace,
        out: &mut Vec<f64>,
    ) {
        let sizes = self.encoder.output_sizes_ref();
        out.clear();
        // Contradictory rows are answered now and planned no block;
        // `out[r] != 0.0` marks the rows still to estimate.
        out.extend(
            intervals.iter().map(|iv| if contradicts(sizes, iv.as_ref()) { 0.0 } else { 1.0 }),
        );
        let DuetWorkspace { input, nn, probs, plan, cursor, .. } = ws;
        plan.begin(intervals.len(), sizes.len());
        for (col, &size) in sizes.iter().enumerate() {
            for (r, iv) in intervals.iter().enumerate() {
                if out[r] != 0.0 && !is_full(iv.as_ref()[col], size) {
                    plan.push_row(r);
                }
            }
            plan.end_block();
        }
        if plan.is_empty() {
            return; // every row is contradictory (0) or unconstrained (1)
        }
        let logits = self.made.infer_blocks(input, plan, nn);
        cursor.clear();
        cursor.resize(sizes.len(), 0);
        for (sel, iv) in out.iter_mut().zip(intervals) {
            if *sel == 0.0 {
                continue;
            }
            *sel = masked_product(sizes, iv.as_ref(), probs, SoftmaxMode::Fast, |col| {
                let i = cursor[col];
                cursor[col] += 1;
                logits.row(col, i)
            });
        }
    }

    /// Total number of trainable scalars (cached at construction).
    pub fn num_parameters(&self) -> usize {
        self.num_params
    }

    /// Model size in bytes (`f32` parameters), as reported in Table II.
    pub fn size_bytes(&self) -> usize {
        self.num_parameters() * std::mem::size_of::<f32>()
    }

    /// Bytes the model holds to serve: every parameter plus the pack of
    /// every masked layer — what a serving tier budgets.
    pub fn resident_bytes(&self) -> usize {
        let mpsn_params: usize = self.mpsns.iter().map(|m| m.param_count()).sum();
        self.made.resident_bytes() + mpsn_params * std::mem::size_of::<f32>()
    }
}

/// The backbone's parameters, then each column's MPSN's.
impl Params for DuetModel {
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.made.visit_params_ref(f);
        for m in &self.mpsns {
            m.visit_params_ref(f);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.made.visit_params(f);
        for m in &mut self.mpsns {
            m.visit_params(f);
        }
    }
}

/// Whether `interval` spans column domain `size` (the column is
/// unconstrained).
fn is_full((lo, hi): (u32, u32), size: usize) -> bool {
    lo == 0 && hi as usize == size
}

/// Whether some constrained column's interval admits no value.
fn contradicts(sizes: &[usize], intervals: &[(u32, u32)]) -> bool {
    sizes.iter().zip(intervals).any(|(&size, &(lo, hi))| !is_full((lo, hi), size) && lo >= hi)
}

/// One row's selectivity: 0 if its intervals contradict, else the product
/// of every constrained column's restricted mass in ascending column order
/// (`block(col)` yields that column's logits; it is called once per
/// constrained column, in that order, and never for a contradictory row),
/// clamped to `[0, 1]`.
fn masked_product<'a>(
    sizes: &[usize],
    intervals: &[(u32, u32)],
    probs: &mut Vec<f32>,
    mode: SoftmaxMode,
    mut block: impl FnMut(usize) -> &'a [f32],
) -> f64 {
    assert_eq!(intervals.len(), sizes.len(), "one interval per column");
    if contradicts(sizes, intervals) {
        return 0.0;
    }
    let mut selectivity = 1.0f64;
    for (col, (&size, &(lo, hi))) in sizes.iter().zip(intervals).enumerate() {
        if !is_full((lo, hi), size) {
            selectivity *=
                softmax_restricted_mass(block(col), probs, lo as usize, hi as usize, mode);
        }
    }
    selectivity.clamp(0.0, 1.0)
}

/// Translate a [`Query`]'s predicates into per-column id-space predicates
/// using the (schema) table's dictionaries.
///
/// Literals that do not occur in a column's dictionary are mapped to the
/// nearest id (their lower bound); the interval mask — computed separately via
/// [`Query::column_intervals`] — remains exact, so this only affects the
/// conditioning signal, not which values are counted.
pub fn query_to_id_predicates(schema: &Table, query: &Query) -> Vec<Vec<IdPredicate>> {
    let mut per_col: Vec<Vec<IdPredicate>> = vec![Vec::new(); schema.num_columns()];
    for p in &query.predicates {
        let column = schema.column(p.column);
        let ndv = column.ndv() as u32;
        let value_id = column
            .id_of_value(&p.value)
            .unwrap_or_else(|| column.lower_bound(&p.value).min(ndv.saturating_sub(1)));
        per_col[p.column].push(IdPredicate { op: p.op, value_id });
    }
    per_col
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpsnKind;
    use duet_data::datasets::census_like;
    use duet_data::Value;
    use duet_query::{PredOp, Query};

    fn model(mpsn: MpsnKind) -> (Table, DuetModel) {
        let table = census_like(400, 3);
        let mut config = DuetConfig::small();
        config.mpsn = mpsn;
        if mpsn != MpsnKind::None {
            config.max_predicates_per_column = 2;
        }
        let model = DuetModel::new(&table, &config, 9);
        (table, model)
    }

    fn selectivity_of(model: &DuetModel, table: &Table, q: &Query) -> f64 {
        let (preds, intervals) = (query_to_id_predicates(table, q), q.column_intervals(table));
        let mut out = Vec::new();
        model.estimate_selectivity_batch_with(
            &[preds],
            &[intervals],
            &mut DuetWorkspace::new(),
            &mut out,
        );
        out[0]
    }

    #[test]
    fn fill_input_width_matches_encoder() {
        let (table, model) = model(MpsnKind::None);
        let q = Query::all().and(0, PredOp::Le, Value::Int(30));
        let preds = query_to_id_predicates(&table, &q);
        let mut ws = DuetWorkspace::new();
        model.fill_input(std::slice::from_ref(&preds), &mut ws);
        assert_eq!(ws.input().shape(), (1, model.encoder().total_width()));
    }

    #[test]
    fn unconstrained_query_has_selectivity_one() {
        let (table, model) = model(MpsnKind::None);
        let sel = selectivity_of(&model, &table, &Query::all());
        assert!((sel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contradictory_query_has_zero_selectivity() {
        let (table, model) = model(MpsnKind::None);
        let q = Query::all().and(0, PredOp::Lt, Value::Int(1)).and(0, PredOp::Gt, Value::Int(50));
        assert_eq!(selectivity_of(&model, &table, &q), 0.0);
    }

    #[test]
    fn selectivity_is_a_probability_even_untrained() {
        for kind in [MpsnKind::None, MpsnKind::Mlp] {
            let (table, model) = model(kind);
            for seed in 0..5u64 {
                let q = Query::all()
                    .and((seed as usize) % 14, PredOp::Ge, Value::Int(seed as i64))
                    .and(((seed + 3) as usize) % 14, PredOp::Le, Value::Int(40));
                let sel = selectivity_of(&model, &table, &q);
                assert!((0.0..=1.0).contains(&sel), "sel {sel} out of range ({kind:?})");
            }
        }
    }

    #[test]
    fn estimation_is_deterministic() {
        let (table, model) = model(MpsnKind::None);
        let q = Query::all().and(2, PredOp::Le, Value::Int(60)).and(5, PredOp::Ge, Value::Int(2));
        let a = selectivity_of(&model, &table, &q);
        let b = selectivity_of(&model, &table, &q);
        assert_eq!(a, b, "Duet must be deterministic for a fixed query");
    }

    #[test]
    fn unknown_literals_are_mapped_to_nearest_id() {
        let (table, _) = model(MpsnKind::None);
        // Census-like dictionaries contain 0..ndv-1; Int(10_000) is absent.
        let q = Query::all().and(0, PredOp::Le, Value::Int(10_000));
        let preds = query_to_id_predicates(&table, &q);
        assert_eq!(preds[0].len(), 1);
        assert!((preds[0][0].value_id as usize) < table.column(0).ndv());
    }

    #[test]
    fn param_count_includes_mpsn() {
        let (_, without) = model(MpsnKind::None);
        let (_, with) = model(MpsnKind::Mlp);
        assert!(with.num_parameters() > without.num_parameters());
        assert_eq!(with.size_bytes(), with.num_parameters() * 4);
        assert!(with.resident_bytes() > with.size_bytes(), "the packs are held too");
    }

    #[test]
    fn a_skeleton_is_the_drawn_architecture_with_every_weight_zero() {
        let table = census_like(200, 5);
        for (mpsn, residual) in [(MpsnKind::None, true), (MpsnKind::Recurrent, false)] {
            let config = DuetConfig { mpsn, residual, ..DuetConfig::small() };
            let shapes = |model: &DuetModel| {
                let mut shapes = Vec::new();
                model.visit_params_ref(&mut |p| shapes.push(p.data.shape()));
                shapes
            };
            let skeleton = DuetModel::skeleton(&table, &config);
            assert_eq!(shapes(&skeleton), shapes(&DuetModel::new(&table, &config, 3)));
            skeleton.visit_params_ref(&mut |p| assert_eq!(p.data.max_abs(), 0.0));
        }
    }
}
