//! A tiny binary codec for model checkpoints.
//!
//! Rather than pulling in a serialization framework for nested tensors, models
//! are persisted by visiting their parameters in a fixed order and writing
//! `(rows, cols, f32 data)` records into a [`bytes`] buffer framed by a magic
//! header and a parameter count. Loading visits the parameters of a freshly
//! constructed model in the same order and overwrites their values, so the
//! architecture itself is reconstructed from the estimator's own config, which
//! the loader supplies and the checkpoint does not store.

use crate::param::Params;
use crate::tensor::Matrix;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes identifying a Duet checkpoint.
const MAGIC: &[u8; 8] = b"DUETCKP1";

/// Errors returned by [`load_params`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the expected magic header.
    BadMagic,
    /// The buffer ended before all announced records were read.
    Truncated,
    /// The checkpoint holds a different number of parameters than the model.
    ParamCountMismatch {
        /// Number of parameters the model expects.
        expected: usize,
        /// Number of parameters the checkpoint contains.
        found: usize,
    },
    /// A parameter's shape differs between checkpoint and model.
    ShapeMismatch {
        /// Index of the offending parameter in visitation order.
        index: usize,
        /// Shape the model expects.
        expected: (usize, usize),
        /// Shape found in the checkpoint.
        found: (usize, usize),
    },
    /// The integrity frame around the checkpoint is malformed (wrong frame
    /// magic or a declared length that disagrees with the buffer). Used by
    /// the framing layer in `duet_core::persist`.
    FrameCorrupt(&'static str),
    /// The checkpoint's checksum does not match its payload: the bytes were
    /// corrupted after sealing (torn write, bit rot, truncated copy).
    ChecksumMismatch {
        /// Checksum recorded in the frame header.
        expected: u64,
        /// Checksum recomputed over the payload actually present.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a Duet checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint buffer is truncated"),
            CheckpointError::ParamCountMismatch { expected, found } => {
                write!(f, "checkpoint has {found} parameters, model expects {expected}")
            }
            CheckpointError::ShapeMismatch { index, expected, found } => write!(
                f,
                "parameter {index} shape mismatch: model {expected:?}, checkpoint {found:?}"
            ),
            CheckpointError::FrameCorrupt(what) => {
                write!(f, "checkpoint frame corrupt: {what}")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: frame says {expected:#018x}, payload hashes to {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialize every parameter of `layer` into a checkpoint buffer.
pub fn save_params(layer: &dyn Params) -> Bytes {
    let mut shapes: Vec<(usize, usize)> = Vec::new();
    let mut payload_len = 0usize;
    layer.visit_params_ref(&mut |p| {
        shapes.push(p.data.shape());
        payload_len += p.data.len() * 4 + 16;
    });
    let mut buf = BytesMut::with_capacity(16 + payload_len);
    buf.put_slice(MAGIC);
    buf.put_u64_le(shapes.len() as u64);
    layer.visit_params_ref(&mut |p| {
        buf.put_u64_le(p.data.rows() as u64);
        buf.put_u64_le(p.data.cols() as u64);
        for &v in p.data.as_slice() {
            buf.put_f32_le(v);
        }
    });
    buf.freeze()
}

/// Load a checkpoint produced by [`save_params`] into `layer`.
///
/// The layer must have been constructed with the same architecture (same
/// parameter order and shapes). Nothing is written unless every record
/// fits. The values go in through [`Params::visit_params`], so a masked
/// layer re-masks and repacks after the load: a checkpoint that holds
/// non-zero values at forbidden connections serves exactly like one that
/// holds zeros there.
pub fn load_params(layer: &mut dyn Params, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut buf = bytes;
    if buf.remaining() < MAGIC.len() + 8 {
        return Err(CheckpointError::Truncated);
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let count = buf.get_u64_le() as usize;
    let mut shapes = Vec::new();
    layer.visit_params_ref(&mut |p| shapes.push(p.data.shape()));
    if count != shapes.len() {
        return Err(CheckpointError::ParamCountMismatch { expected: shapes.len(), found: count });
    }

    // Read all records first so a failure cannot leave the model half-loaded.
    let mut records: Vec<Matrix> = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 16 {
            return Err(CheckpointError::Truncated);
        }
        let rows = buf.get_u64_le();
        let cols = buf.get_u64_le();
        // The shape fields are untrusted: a corrupt checkpoint can declare
        // dimensions whose product overflows `usize`, so size the read with
        // checked arithmetic — an implausible shape can never out-read the
        // buffer, panic, or reserve unbounded memory. Any shape whose data
        // cannot fit the remaining bytes is a truncation by definition.
        let elems = usize::try_from(rows)
            .ok()
            .zip(usize::try_from(cols).ok())
            .and_then(|(r, c)| r.checked_mul(c));
        let need = elems.and_then(|n| n.checked_mul(4));
        match need {
            Some(need) if need <= buf.remaining() => {}
            _ => return Err(CheckpointError::Truncated),
        }
        let (rows, cols) = (rows as usize, cols as usize);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(buf.get_f32_le());
        }
        records.push(Matrix::from_vec(rows, cols, data));
    }

    for (index, (rec, &expected)) in records.iter().zip(&shapes).enumerate() {
        if rec.shape() != expected {
            return Err(CheckpointError::ShapeMismatch { index, expected, found: rec.shape() });
        }
    }
    // Every record fits: only now is a single weight written.
    let mut records = records.into_iter();
    layer.visit_params(&mut |p| p.data = records.next().expect("one record per parameter"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{seeded_rng, Init};
    use crate::linear::Linear;
    use crate::mlp::Mlp;
    use crate::tensor::Matrix;

    #[test]
    fn round_trip_restores_exact_weights() {
        let mut rng = seeded_rng(30);
        let original = Mlp::new(&[3, 5, 2], &mut rng);
        let x = Matrix::full(1, 3, 0.7);
        let before = original.forward_inference(&x);

        let bytes = save_params(&original);
        let mut restored = Mlp::new(&[3, 5, 2], &mut seeded_rng(31));
        load_params(&mut restored, &bytes).expect("load should succeed");
        let after = restored.forward_inference(&x);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut rng = seeded_rng(32);
        let mut layer = Linear::new(2, 2, Init::KaimingUniform, &mut rng);
        let err = load_params(&mut layer, b"NOTADUET00000000").unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let mut rng = seeded_rng(33);
        let mut layer = Linear::new(4, 4, Init::KaimingUniform, &mut rng);
        let bytes = save_params(&layer);
        let cut = &bytes[..bytes.len() - 5];
        let err = load_params(&mut layer, cut).unwrap_err();
        assert_eq!(err, CheckpointError::Truncated);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut rng = seeded_rng(34);
        let a = Linear::new(2, 3, Init::KaimingUniform, &mut rng);
        let bytes = save_params(&a);
        let mut b = Linear::new(3, 2, Init::KaimingUniform, &mut rng);
        let err = load_params(&mut b, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }));
    }

    #[test]
    fn param_count_mismatch_rejected() {
        let mut rng = seeded_rng(35);
        let a = Mlp::new(&[2, 3, 2], &mut rng);
        let bytes = save_params(&a);
        let mut b = Linear::new(2, 3, Init::KaimingUniform, &mut rng);
        let err = load_params(&mut b, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ParamCountMismatch { .. }));
    }
}
