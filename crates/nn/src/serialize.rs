//! A tiny binary codec for model checkpoints.
//!
//! Rather than pulling in a serialization framework for nested tensors, models
//! are persisted by visiting their parameters in a fixed order and appending
//! `(rows, cols, f32 data)` records, all little-endian, to a caller's byte
//! buffer behind a magic header and a parameter count. Loading visits the
//! parameters of a model constructed with the same architecture in the same
//! order and overwrites their values in place, so the architecture itself is
//! reconstructed from the estimator's own config, which the loader supplies
//! and the checkpoint does not store.

use crate::param::Params;

/// Magic bytes identifying a Duet checkpoint.
const MAGIC: &[u8; 8] = b"DUETCKP1";

/// Bytes of a record header: `rows` and `cols` as `u64`.
const RECORD_HEADER_LEN: usize = 16;

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

/// Append a checkpoint of every parameter of `layer` to `out`, reserving
/// its exact length first: the magic, the parameter count, then one
/// `(rows, cols, data)` record per parameter in visiting order.
pub fn save_params(layer: &dyn Params, out: &mut Vec<u8>) {
    let mut count = 0usize;
    let mut len = MAGIC.len() + 8;
    layer.visit_params_ref(&mut |p| {
        count += 1;
        len += RECORD_HEADER_LEN + p.data.len() * 4;
    });
    out.reserve_exact(len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(count as u64).to_le_bytes());
    layer.visit_params_ref(&mut |p| {
        out.extend_from_slice(&(p.data.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(p.data.cols() as u64).to_le_bytes());
        for &v in p.data.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    });
}

/// Split the first `n` bytes off `buf`, or `None` if fewer remain.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

/// Split a little-endian `u64` off `buf`.
fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    take(buf, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

/// Load a checkpoint produced by [`save_params`] into `layer`.
///
/// The layer must have been constructed with the same architecture (same
/// parameter order and shapes). Nothing is written unless every record
/// fits: a first pass checks every record header against the model's shape
/// and the bytes left, and only then does a second pass decode each
/// record's values straight into its parameter's existing storage. The
/// values go in through [`Params::visit_params`], so a masked layer
/// re-masks and repacks after the load: a checkpoint that holds non-zero
/// values at forbidden connections serves exactly like one that holds
/// zeros there.
pub fn load_params(layer: &mut dyn Params, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut buf = bytes;
    if buf.len() < MAGIC.len() + 8 {
        return Err(CheckpointError::Truncated);
    }
    if take(&mut buf, MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(CheckpointError::BadMagic);
    }
    let count = take_u64(&mut buf).expect("length checked above") as usize;
    let mut expected = 0usize;
    layer.visit_params_ref(&mut |_| expected += 1);
    if count != expected {
        return Err(CheckpointError::ParamCountMismatch { expected, found: count });
    }

    // Pass 1: every record is read before any shape is judged, so a
    // truncation anywhere wins over a shape mismatch, as it always has.
    let mut truncated = false;
    let mut mismatch = None;
    let mut index = 0;
    layer.visit_params_ref(&mut |p| {
        if truncated {
            return;
        }
        let (Some(rows), Some(cols)) = (take_u64(&mut buf), take_u64(&mut buf)) else {
            truncated = true;
            return;
        };
        // The shape fields are untrusted: a corrupt checkpoint can declare
        // dimensions whose product overflows `usize`, so size the read with
        // checked arithmetic — an implausible shape can never out-read the
        // buffer, panic, or reserve unbounded memory. Any shape whose data
        // cannot fit the remaining bytes is a truncation by definition.
        let need = usize::try_from(rows)
            .ok()
            .zip(usize::try_from(cols).ok())
            .and_then(|(r, c)| r.checked_mul(c))
            .and_then(|n| n.checked_mul(4));
        if need.and_then(|need| take(&mut buf, need)).is_none() {
            truncated = true;
            return;
        }
        let found = (rows as usize, cols as usize);
        if mismatch.is_none() && found != p.data.shape() {
            mismatch =
                Some(CheckpointError::ShapeMismatch { index, expected: p.data.shape(), found });
        }
        index += 1;
    });
    if truncated {
        return Err(CheckpointError::Truncated);
    }
    if let Some(mismatch) = mismatch {
        return Err(mismatch);
    }

    // Pass 2: every record fits, so only now is a single weight written.
    let mut buf = &bytes[MAGIC.len() + 8..];
    layer.visit_params(&mut |p| {
        take(&mut buf, RECORD_HEADER_LEN).expect("validated in pass 1");
        let data = take(&mut buf, p.data.len() * 4).expect("validated in pass 1");
        for (v, b) in p.data.as_mut_slice().iter_mut().zip(data.chunks_exact(4)) {
            *v = f32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{seeded_rng, Init};
    use crate::linear::Linear;
    use crate::mlp::Mlp;
    use crate::tensor::Matrix;

    fn save(layer: &dyn Params) -> Vec<u8> {
        let mut out = Vec::new();
        save_params(layer, &mut out);
        out
    }

    #[test]
    fn records_are_little_endian_shapes_then_values() {
        let mut layer = Linear::new(1, 2, Init::KaimingUniform, &mut seeded_rng(29));
        let mut values = [[1.0f32, -2.0], [0.5, 0.25]].into_iter();
        layer.visit_params(&mut |p| p.data.as_mut_slice().copy_from_slice(&values.next().unwrap()));
        let mut out = b"keep".to_vec();
        save_params(&layer, &mut out);
        #[rustfmt::skip]
        let expected: &[u8] = &[
            b'k', b'e', b'e', b'p',
            b'D', b'U', b'E', b'T', b'C', b'K', b'P', b'1',
            2, 0, 0, 0, 0, 0, 0, 0,
            // weight: 1 x 2, [1.0, -2.0]
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0,
            // bias: 1 x 2, [0.5, 0.25]
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x80, 0x3e,
        ];
        assert_eq!(out, expected);
        assert_eq!(out.capacity(), out.len(), "the exact length is reserved up front");
    }

    #[test]
    fn round_trip_restores_exact_weights() {
        let mut rng = seeded_rng(30);
        let original = Mlp::new(&[3, 5, 2], &mut rng);
        let x = Matrix::full(1, 3, 0.7);
        let before = original.forward_inference(&x);

        let bytes = save(&original);
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
        let bytes = save(&layer);
        let cut = &bytes[..bytes.len() - 5];
        let err = load_params(&mut layer, cut).unwrap_err();
        assert_eq!(err, CheckpointError::Truncated);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut rng = seeded_rng(34);
        let a = Linear::new(2, 3, Init::KaimingUniform, &mut rng);
        let bytes = save(&a);
        let mut b = Linear::new(3, 2, Init::KaimingUniform, &mut rng);
        let err = load_params(&mut b, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }));
    }

    #[test]
    fn param_count_mismatch_rejected() {
        let mut rng = seeded_rng(35);
        let a = Mlp::new(&[2, 3, 2], &mut rng);
        let bytes = save(&a);
        let mut b = Linear::new(2, 3, Init::KaimingUniform, &mut rng);
        let err = load_params(&mut b, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ParamCountMismatch { .. }));
    }
}
