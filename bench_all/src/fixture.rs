//! Set-up: everything a workload needs before its first timed window —
//! table, trained model(s), server and listener, query pool, ground truth,
//! and the values the served replies must equal. All of it is `setup_s`.

use crate::gen::{self, Encoded, Seeds, MODEL_SEED, TABLE_SEED};
use crate::spec::{Sizing, Workload};
use duet_core::{
    sample_virtual_batch, save_weights, train_step, DuetConfig, DuetEstimator, DuetModel,
    DuetWorkspace, PreparedQuery, SamplerConfig, TrainStepScratch, VirtualTuple,
};
use duet_data::{datasets, Table};
use duet_nn::{seeded_rng, Adam, GradClip};
use duet_query::{label_workload, Query, WorkloadSpec};
use duet_serve::wire::WireClient;
use duet_serve::{DuetServer, ServeConfig, WireConfig, WireHandle};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// The one table every server in the benchmark registers.
pub const TABLE: &str = "t";

/// Query batch of one hybrid step, the trainer default for the small model.
const QUERY_BATCH: usize = 32;

/// A model being trained step by step through the public trainer pieces —
/// the loop `duet_core::train_model` runs, with the step count (not the
/// epoch count) fixed, so set-up cost and the `train_hybrid` windows are the
/// same number of steps on every run.
pub struct Trainer {
    /// The model under training.
    pub model: DuetModel,
    adam: Adam,
    scratch: TrainStepScratch,
    rng: SmallRng,
    sampler: SamplerConfig,
    order: Vec<usize>,
    cursor: usize,
    query_cursor: usize,
    anchors: usize,
    lambda: f64,
    num_rows: f64,
}

impl Trainer {
    /// A fresh model for `table` and the optimizer state to train it.
    pub fn new(table: &Table, config: &DuetConfig, anchors: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed ^ 0x517c_c1b7_2722_0a95);
        let mut adam = Adam::new(config.learning_rate);
        if config.grad_clip > 0.0 {
            adam = adam.with_clip(GradClip::Value(config.grad_clip));
        }
        let mut order: Vec<usize> = (0..table.num_rows()).collect();
        order.shuffle(&mut rng);
        Self {
            model: DuetModel::new(table, config, seed),
            adam,
            scratch: TrainStepScratch::new(),
            rng,
            sampler: SamplerConfig {
                expand_mu: config.expand_mu,
                wildcard_prob: config.wildcard_prob,
                max_predicates_per_column: config.max_predicates_per_column,
            },
            order,
            cursor: 0,
            query_cursor: 0,
            anchors,
            lambda: config.lambda,
            num_rows: table.num_rows() as f64,
        }
    }

    /// Algorithm 1 for the next `anchors` rows of the shuffled order.
    pub fn sample(&mut self, table: &Table) -> Vec<VirtualTuple> {
        if self.cursor + self.anchors > self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.cursor = 0;
        }
        let rows = &self.order[self.cursor..self.cursor + self.anchors];
        self.cursor += self.anchors;
        sample_virtual_batch(table, rows, &self.sampler, &mut self.rng)
    }

    /// The next query mini-batch, cycling through `prepared`.
    pub fn next_queries<'q>(&mut self, prepared: &'q [PreparedQuery]) -> Vec<&'q PreparedQuery> {
        let take = QUERY_BATCH.min(prepared.len());
        let batch = (0..take).map(|k| &prepared[(self.query_cursor + k) % prepared.len()]);
        let batch = batch.collect();
        self.query_cursor = (self.query_cursor + take) % prepared.len().max(1);
        batch
    }

    /// One optimizer step on an already sampled batch: data pass, query pass
    /// when `queries` is non-empty, Adam. Returns the data loss.
    pub fn step(&mut self, batch: &[VirtualTuple], queries: &[&PreparedQuery]) -> f32 {
        let (data_loss, _, _) = train_step(
            &mut self.model,
            &mut self.adam,
            batch,
            queries,
            self.num_rows,
            self.lambda,
            &mut self.scratch,
        );
        data_loss
    }

    /// `steps` data-driven steps (set-up training of the served models).
    pub fn run(&mut self, table: &Table, steps: usize) {
        for _ in 0..steps {
            let batch = self.sample(table);
            self.step(&batch, &[]);
        }
    }
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimings {
    /// Table generation.
    pub table_gen_s: f64,
    /// Model training (both checkpoints on `zipf_swap`).
    pub train_s: f64,
    /// `label_workload` over the query pool.
    pub truth_label_s: f64,
    /// The whole set-up: the above plus query generation, encoding, expected
    /// values, server and listener start.
    pub total_s: f64,
}

/// What `train_hybrid` trains on.
pub struct TrainInputs {
    /// The labelled training workload, prepared once.
    pub prepared: Vec<PreparedQuery>,
}

/// A running wire front door and how to reach it.
pub struct WireFront {
    /// Owns the acceptor threads; dropping it stops them.
    pub handle: WireHandle,
    /// Loopback address.
    pub addr: SocketAddr,
    /// Dense id of [`TABLE`].
    pub table_id: u32,
}

/// Everything one workload runs against.
pub struct Fixture {
    /// Which workload this is.
    pub workload: Workload,
    /// Its fixed counts.
    pub sizing: Sizing,
    /// Sub-seeds the inputs were drawn from.
    pub seeds: Seeds,
    /// The table.
    pub table: Table,
    /// The model configuration.
    pub config: DuetConfig,
    /// The models a reply may come from: one, or the two `zipf_swap` swaps
    /// between (index 0 is the one registered first).
    pub estimators: Vec<DuetEstimator>,
    /// `save_weights` of each of [`Fixture::estimators`] (`zipf_swap` only).
    pub checkpoints: Vec<Vec<u8>>,
    /// The query pool (`train_hybrid`: the held-out queries).
    pub queries: Vec<Query>,
    /// The pool, translated once.
    pub encoded: Vec<Encoded>,
    /// `label_workload` truth per pool entry.
    pub truth: Vec<u64>,
    /// `expected[m][i]`: what model `m` must answer for pool entry `i`,
    /// computed directly with `estimate_encoded_batch_with`.
    pub expected: Vec<Vec<f64>>,
    /// The server (serving workloads).
    pub server: Option<Arc<DuetServer>>,
    /// The listener (`wire_*`). Declared after `server`, dropped after it;
    /// connections hold their own `Arc`s, so either order is safe.
    pub wire: Option<WireFront>,
    /// Training inputs (`train_hybrid`).
    pub train: Option<TrainInputs>,
    /// Where the time went.
    pub timings: SetupTimings,
}

/// Direct estimates of the whole pool under one model, in forward passes of
/// 64 rows — the reference every served reply is compared with, bit for bit.
pub fn direct_estimates(estimator: &DuetEstimator, encoded: &[Encoded]) -> Vec<f64> {
    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    let mut all = Vec::with_capacity(encoded.len());
    for chunk in encoded.chunks(64) {
        let rows: Vec<&[_]> = chunk.iter().map(|e| e.0.as_slice()).collect();
        let intervals: Vec<&[_]> = chunk.iter().map(|e| e.1.as_slice()).collect();
        estimator.estimate_encoded_batch_with(&rows, &intervals, &mut ws, &mut out);
        all.extend_from_slice(&out);
    }
    all
}

/// Build one workload's fixture from the command-line seed.
pub fn build(workload: Workload, seed: u64, quick: bool) -> Fixture {
    let started = Instant::now();
    let sizing = workload.sizing(quick);
    let seeds = Seeds::derive(seed);
    let config = workload.model_config();

    let t = Instant::now();
    let table = match workload {
        Workload::WireBurst => datasets::dmv_like(sizing.rows, TABLE_SEED),
        Workload::WideBatch => datasets::kddcup98_like(sizing.rows, TABLE_SEED),
        _ => datasets::census_like(sizing.rows, TABLE_SEED),
    };
    let table_gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut trainer = Trainer::new(&table, &config, sizing.anchors, MODEL_SEED);
    trainer.run(&table, sizing.setup_steps);
    let mut estimators = vec![DuetEstimator::from_model(trainer.model.clone(), &table, "duet_d")];
    let mut checkpoints = Vec::new();
    if workload == Workload::ZipfSwap {
        // The second checkpoint: the same run, a quarter more steps on.
        trainer.run(&table, sizing.setup_steps / 4 + 1);
        estimators.push(DuetEstimator::from_model(trainer.model, &table, "duet_d"));
        checkpoints = estimators.iter_mut().map(|e| save_weights(e).to_vec()).collect();
    }
    let train_s = t.elapsed().as_secs_f64();

    let queries = match workload {
        // Pool order is Zipf rank; see `cycle_predicate_counts` for why the
        // head is not left to the draw.
        Workload::ZipfSwap => {
            gen::cycle_predicate_counts(gen::distinct_queries(&table, sizing.pool, seeds.queries))
        }
        _ => WorkloadSpec::random(&table, sizing.pool, seeds.queries).generate(&table),
    };
    let schema = estimators[0].schema();
    let encoded: Vec<Encoded> = queries.iter().map(|q| gen::encode(schema, q)).collect();

    let t = Instant::now();
    let truth = label_workload(&table, &queries);
    let mut truth_label_s = t.elapsed().as_secs_f64();

    let train = (workload == Workload::TrainHybrid).then(|| {
        let spec = WorkloadSpec::in_workload(&table, sizing.train_queries, seeds.train_queries);
        let train_queries = spec.generate(&table);
        let t = Instant::now();
        let cards = label_workload(&table, &train_queries);
        truth_label_s += t.elapsed().as_secs_f64();
        let prepared = train_queries
            .iter()
            .zip(&cards)
            .map(|(q, &card)| PreparedQuery::prepare(&table, q, card))
            .collect();
        TrainInputs { prepared }
    });

    // `train_hybrid` has no served replies to pin; its model is scored after
    // the timed steps instead.
    let expected: Vec<Vec<f64>> = if workload == Workload::TrainHybrid {
        Vec::new()
    } else {
        estimators.iter().map(|e| direct_estimates(e, &encoded)).collect()
    };

    let mut server = None;
    let mut wire = None;
    if workload != Workload::TrainHybrid {
        // Default configuration throughout; only the cache is per workload
        // (`zipf_swap` keeps the default 4 096 entries, the rest switch it
        // off so the model runs on every request).
        let cache_capacity = match workload {
            Workload::ZipfSwap => ServeConfig::default().cache_capacity,
            _ => 0,
        };
        let s = Arc::new(DuetServer::new(ServeConfig { cache_capacity, ..ServeConfig::default() }));
        s.register(TABLE, estimators[0].clone());
        if matches!(workload, Workload::WirePoint | Workload::WireBurst) {
            let handle =
                s.serve_wire("127.0.0.1:0", WireConfig::default()).expect("bind a loopback port");
            let addr = handle.addr();
            let table_id = WireClient::connect(addr)
                .and_then(|mut c| c.resolve(TABLE))
                .expect("resolve over loopback")
                .expect("table is registered")
                .id;
            wire = Some(WireFront { handle, addr, table_id });
        }
        server = Some(s);
    }

    let timings = SetupTimings {
        table_gen_s,
        train_s,
        truth_label_s,
        total_s: started.elapsed().as_secs_f64(),
    };
    Fixture {
        workload,
        sizing,
        seeds,
        table,
        config,
        estimators,
        checkpoints,
        queries,
        encoded,
        truth,
        expected,
        server,
        wire,
        train,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_expected_values() {
        let a = build(Workload::ZipfSwap, 5, true);
        let b = build(Workload::ZipfSwap, 5, true);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.expected, b.expected, "training and estimation are deterministic");
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.expected.len(), 2);
        assert_ne!(a.expected[0], a.expected[1], "the two swapped models differ");
        // Another seed draws other traffic against the same served model.
        let c = build(Workload::ZipfSwap, 6, true);
        assert_ne!(a.queries, c.queries);
        assert_ne!(a.expected[0], c.expected[0]);
        assert_eq!(a.checkpoints, c.checkpoints);
    }

    #[test]
    fn trainer_cycles_rows_and_queries() {
        let fx = build(Workload::TrainHybrid, 3, true);
        let inputs = fx.train.as_ref().expect("train_hybrid has training inputs");
        let mut trainer = Trainer::new(&fx.table, &fx.config, fx.sizing.anchors, 9);
        let steps = fx.table.num_rows() / fx.sizing.anchors + 2; // wraps the row order once
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..steps {
            let batch = trainer.sample(&fx.table);
            assert_eq!(batch.len(), fx.sizing.anchors * fx.config.expand_mu);
            let queries = trainer.next_queries(&inputs.prepared);
            assert_eq!(queries.len(), QUERY_BATCH.min(inputs.prepared.len()));
            last = trainer.step(&batch, &queries);
            first.get_or_insert(last);
            assert!(last.is_finite());
        }
        assert!(last < first.expect("ran at least one step"), "the data loss falls");
    }
}
