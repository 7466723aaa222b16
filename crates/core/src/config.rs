//! Configuration of the Duet estimator and its training loop.

/// Which network embeds multiple predicates on a single column into the fixed
/// per-column input block (paper §IV-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpsnKind {
    /// No MPSN: at most one predicate per column is supported and its encoding
    /// is fed to the autoregressive network directly.
    None,
    /// Per-predicate MLP embeddings summed together (order-invariant; the
    /// paper's recommended default).
    Mlp,
    /// A small recurrent network over the predicate sequence.
    Recurrent,
    /// A recursive network `out = MLP(E(pred) || out)`.
    Recursive,
}

/// Hyper-parameters of the Duet estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct DuetConfig {
    /// Hidden layer widths of the autoregressive backbone.
    pub hidden_sizes: Vec<usize>,
    /// Use ResMADE (residual blocks) instead of a plain MADE.
    pub residual: bool,
    /// Expansion coefficient `µ` of Algorithm 1: every tuple in a batch is
    /// replicated `µ` times with independently sampled predicates.
    pub expand_mu: usize,
    /// Probability that a column receives no predicate (wildcard) in a sampled
    /// virtual tuple; mirrors Naru's wildcard skipping.
    pub wildcard_prob: f64,
    /// Trade-off coefficient `λ` of the hybrid loss
    /// `L = L_data + λ·log2(QError + 1)`.
    pub lambda: f64,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of passes over the table.
    pub epochs: usize,
    /// Mini-batch size (number of anchor tuples per step, before `µ`).
    pub batch_size: usize,
    /// Per-element gradient clip (0 disables clipping).
    pub grad_clip: f32,
    /// Multiple-predicate support network.
    pub mpsn: MpsnKind,
    /// Hidden width of the MPSN networks.
    pub mpsn_hidden: usize,
    /// Maximum number of predicates per column sampled during training when an
    /// MPSN is enabled.
    pub max_predicates_per_column: usize,
    /// Number of query examples per hybrid-training step (0 keeps training
    /// purely data-driven even if a workload is supplied).
    pub query_batch_size: usize,
}

impl DuetConfig {
    /// Tiny configuration for unit tests and doc examples: trains in well under
    /// a second on a few thousand rows.
    pub fn small() -> Self {
        Self {
            hidden_sizes: vec![32, 32],
            residual: false,
            expand_mu: 2,
            wildcard_prob: 0.3,
            lambda: 0.1,
            learning_rate: 5e-3,
            epochs: 3,
            batch_size: 128,
            grad_clip: 8.0,
            mpsn: MpsnKind::None,
            mpsn_hidden: 32,
            max_predicates_per_column: 1,
            query_batch_size: 32,
        }
    }

    /// The paper's DMV architecture: MADE with hidden units
    /// 512, 256, 512, 128, 1024 (§V-A4).
    pub fn paper_dmv() -> Self {
        Self {
            hidden_sizes: vec![512, 256, 512, 128, 1024],
            residual: false,
            expand_mu: 4,
            wildcard_prob: 0.3,
            lambda: 0.1,
            learning_rate: 2e-3,
            epochs: 20,
            batch_size: 2048,
            grad_clip: 8.0,
            mpsn: MpsnKind::None,
            mpsn_hidden: 64,
            max_predicates_per_column: 1,
            query_batch_size: 256,
        }
    }

    /// The paper's Kddcup98 / Census architecture: 2-layer ResMADE with 128
    /// hidden units (§V-A4).
    pub fn paper_resmade() -> Self {
        Self {
            hidden_sizes: vec![128, 128],
            residual: true,
            expand_mu: 4,
            wildcard_prob: 0.3,
            lambda: 0.1,
            learning_rate: 2e-3,
            epochs: 20,
            batch_size: 100,
            grad_clip: 8.0,
            mpsn: MpsnKind::None,
            mpsn_hidden: 64,
            max_predicates_per_column: 1,
            query_batch_size: 64,
        }
    }

    /// Enable an MPSN variant (Table I / §IV-F).
    pub fn with_mpsn(mut self, kind: MpsnKind, max_predicates: usize) -> Self {
        self.mpsn = kind;
        self.max_predicates_per_column = max_predicates.max(1);
        self
    }

    /// Override the trade-off coefficient λ (Figure 5 sweeps this).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Override the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Basic validity check; called by the trainer.
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden_sizes.is_empty() {
            return Err("hidden_sizes must not be empty".into());
        }
        if self.expand_mu == 0 {
            return Err("expand_mu must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.wildcard_prob) {
            return Err("wildcard_prob must be in [0, 1)".into());
        }
        if self.lambda < 0.0 {
            return Err("lambda must be non-negative".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.mpsn == MpsnKind::None && self.max_predicates_per_column > 1 {
            return Err("multiple predicates per column require an MPSN".into());
        }
        Ok(())
    }
}

impl Default for DuetConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [DuetConfig::small(), DuetConfig::paper_dmv(), DuetConfig::paper_resmade()] {
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn builders_apply_overrides() {
        let cfg = DuetConfig::small().with_mpsn(MpsnKind::Mlp, 3).with_lambda(0.01).with_epochs(7);
        assert_eq!(cfg.mpsn, MpsnKind::Mlp);
        assert_eq!(cfg.max_predicates_per_column, 3);
        assert_eq!(cfg.lambda, 0.01);
        assert_eq!(cfg.epochs, 7);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = DuetConfig::small();
        cfg.hidden_sizes.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = DuetConfig::small();
        cfg.expand_mu = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = DuetConfig::small();
        cfg.max_predicates_per_column = 4; // without an MPSN
        assert!(cfg.validate().is_err());

        let mut cfg = DuetConfig::small();
        cfg.wildcard_prob = 1.5;
        assert!(cfg.validate().is_err());
    }
}
