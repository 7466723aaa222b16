//! # duet-core
//!
//! The Duet cardinality estimator (Zhang et al., ICDE 2024): a hybrid learned
//! estimator that feeds **predicate information** directly into a masked
//! autoregressive network so that any conjunctive range query is estimated
//! with a **single forward pass** — no progressive sampling, deterministic
//! results, and a fully differentiable estimation path that allows the
//! Q-Error of historical queries to be used as an additional supervised loss.
//!
//! The crate is organized around the paper's sections:
//!
//! * [`encoding`] — predicate encoding (binary value bits + one-hot operator,
//!   wildcard skipping), §IV-C;
//! * [`virtual_table`] — Algorithm 1, sampling virtual tuples during SGD;
//! * [`mpsn`] — Multiple Predicates Supporting Networks, §IV-F; the
//!   per-column forward is the one MPSN forward, and the paper's merged
//!   block-diagonal form is not implemented;
//! * [`model`] — the network and the sampling-free estimation of Algorithm 3;
//! * [`trainer`] — data-driven and hybrid training (Algorithm 2, the
//!   `L = L_data + λ·log2(QError+1)` loss);
//! * [`estimator`] — the user-facing [`DuetEstimator`] implementing
//!   [`duet_query::CardinalityEstimator`];
//! * [`persist`] — weight checkpointing.
//!
//! ```no_run
//! use duet_core::{DuetConfig, DuetEstimator};
//! use duet_data::datasets::census_like;
//! use duet_query::{CardinalityEstimator, WorkloadSpec};
//!
//! let table = census_like(10_000, 42);
//! let mut duet = DuetEstimator::train_data_only(&table, &DuetConfig::small(), 42);
//! let workload = WorkloadSpec::random(&table, 100, 1234).generate(&table);
//! let estimate = duet.estimate(&workload[0]);
//! println!("{estimate}");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod encoding;
pub mod estimator;
pub mod model;
pub mod mpsn;
pub mod persist;
pub mod trainer;
pub mod virtual_table;

pub use config::{DuetConfig, MpsnKind};
pub use duet_nn::SoftmaxMode;
pub use encoding::{Encoder, IdPredicate};
pub use estimator::{DuetEstimator, EstimateBreakdown};
pub use model::{query_to_id_predicates, DuetModel, DuetWorkspace};
pub use persist::{load_weights, save_weights, verify_checkpoint, CheckpointError};
pub use trainer::{
    data_forward, measure_training_throughput, query_forward, train_model, train_model_with_eval,
    train_step, EpochStats, PreparedQuery, TrainStepScratch, TrainingWorkload,
};
pub use virtual_table::{sample_predicate, sample_virtual_batch, SamplerConfig, VirtualTuple};
