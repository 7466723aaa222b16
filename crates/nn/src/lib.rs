//! # duet-nn
//!
//! A minimal, dependency-light neural-network substrate for the Duet
//! cardinality-estimation workspace. It replaces the PyTorch/LibTorch stack
//! used by the original paper with a small CPU implementation of exactly the
//! pieces the estimators need:
//!
//! * dense `f32` matrices with shape-dispatched matmul kernels — naive
//!   loops for small/single-row products, blocked panel-packed kernels for
//!   batches ([`tensor::Matrix`], [`kernels`]) — each product runs whole on
//!   its caller's thread,
//! * fully connected and mask-constrained layers ([`linear`]),
//! * MADE / ResMADE construction with per-column block masking ([`made`]),
//! * a plain MLP used by MSCN and the MPSN predicate embedder ([`mlp`]),
//! * softmax / cross-entropy / Q-Error losses ([`loss`]) over vectorized
//!   transcendental kernels with exact/fast dispatch ([`math`]),
//! * the Adam optimizer ([`optim`]),
//! * a small binary checkpoint codec ([`serialize`]).
//!
//! Everything is deterministic given a seed, which the experiment harness
//! relies on for reproducibility.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod init;
pub mod kernels;
pub mod linear;
pub mod loss;
pub mod made;
pub mod math;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod tensor;
pub mod workspace;

pub use activation::Activation;
pub use init::{seeded_rng, Init, Skeleton, WeightSource};
pub use kernels::{native_tile, with_tile, SparseRows, Tile};
pub use linear::{Linear, MaskedLinear};
pub use loss::{
    grouped_cross_entropy, grouped_cross_entropy_with, mse, mse_with, q_error, softmax,
    softmax_blocks, softmax_into, softmax_rows, softmax_rows_inplace,
};
pub use made::{BlockLogits, BlockPlan, Made, MadeConfig};
pub use math::{
    fast_exp, fast_exp_slice, softmax_block_into, softmax_blocks_inplace, softmax_restricted_mass,
    SoftmaxMode,
};
pub use mlp::Mlp;
pub use optim::{Adam, GradClip};
pub use param::{InferLayer, Param, Params};
pub use serialize::{load_params, save_params, CheckpointError};
pub use tensor::{rowvec_matmul_into, Matrix};
pub use workspace::{ForwardWorkspace, TrainWorkspace};
