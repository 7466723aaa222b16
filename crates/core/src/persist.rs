//! Checkpointing of trained Duet models.
//!
//! The weights are serialized with the workspace's binary checkpoint codec
//! ([`duet_nn::serialize`]); the architecture itself is rebuilt from the
//! estimator's configuration and table schema, so loading requires an
//! estimator constructed with the same configuration over the same table
//! (which is how a deployed estimator would be refreshed after fine-tuning).
//!
//! ## Integrity framing
//!
//! Every checkpoint produced by [`save_weights`] is sealed in an integrity
//! frame so that corruption is *detected*, never silently loaded as garbage
//! weights:
//!
//! ```text
//! "DUETCKF1"  (8 bytes)   frame magic
//! payload_len (u64 le)    exact length of the sealed codec payload
//! checksum    (u64 le)    FNV-1a 64 over the payload
//! payload     (...)       the `duet_nn::serialize` codec bytes
//! ```
//!
//! [`load_weights`] (and the cheaper [`verify_checkpoint`]) validate the
//! magic, the declared length against the bytes actually present, and the
//! checksum before a single weight is decoded. A truncated file, a torn
//! write, or a flipped bit yields a typed [`CheckpointError`] — callers like
//! the serving tier shed and retry instead of crashing or serving a
//! half-loaded model.

use crate::estimator::DuetEstimator;
use duet_nn::serialize::{load_params, save_params};

pub use duet_nn::serialize::CheckpointError;

/// Magic bytes identifying a sealed (checksummed) Duet checkpoint frame.
const FRAME_MAGIC: &[u8; 8] = b"DUETCKF1";

/// Frame header size: magic + payload length + checksum.
const FRAME_HEADER_LEN: usize = 8 + 8 + 8;

/// FNV-1a 64-bit over `bytes` — dependency-free, deterministic, and fast
/// enough for checkpoint-sized buffers (a few MB at eviction/reload time,
/// never on the per-request hot path).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fill in the frame header at the front of `framed` (see the module
/// docs) for the codec payload that follows it.
fn fill_frame_header(framed: &mut [u8]) {
    let (header, payload) = framed.split_at_mut(FRAME_HEADER_LEN);
    header[..8].copy_from_slice(FRAME_MAGIC);
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// Validate a sealed checkpoint's frame — magic, declared length, checksum —
/// and return the inner codec payload without decoding any weights.
///
/// This is the cheap integrity gate used both by [`load_weights`] and by the
/// serving layer's checkpoint store (read-back verification after a spill,
/// validation before a reload attempt).
pub fn verify_checkpoint(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(CheckpointError::FrameCorrupt("shorter than the frame header"));
    }
    let (magic, rest) = bytes.split_at(8);
    if magic != FRAME_MAGIC {
        return Err(CheckpointError::FrameCorrupt("bad frame magic"));
    }
    let declared = u64::from_le_bytes(rest[..8].try_into().expect("8-byte slice"));
    let expected = u64::from_le_bytes(rest[8..16].try_into().expect("8-byte slice"));
    let payload = &rest[16..];
    if declared != payload.len() as u64 {
        return Err(CheckpointError::FrameCorrupt("declared length disagrees with the buffer"));
    }
    let found = fnv1a64(payload);
    if found != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

/// Serialize the estimator's weights (backbone + MPSNs) into a sealed,
/// checksummed checkpoint (see the module docs for the frame layout). A
/// read-only visit: nothing of the model is touched or rebuilt. The codec
/// appends behind a placeholder header, which is filled in last, so the
/// checkpoint is one buffer of exactly its length, written once.
pub fn save_weights(estimator: &DuetEstimator) -> Vec<u8> {
    let mut framed = vec![0; FRAME_HEADER_LEN];
    save_params(estimator.model(), &mut framed);
    fill_frame_header(&mut framed);
    framed
}

/// Load a checkpoint produced by [`save_weights`] into an estimator with the
/// same architecture. The integrity frame is validated first; corrupt or
/// truncated bytes yield a typed error before any weight is touched. The
/// masked layers re-mask and repack as the weights go in, so checkpoints
/// written with non-zero values at forbidden connections load to the same
/// served model as those written with zeros there.
pub fn load_weights(estimator: &mut DuetEstimator, bytes: &[u8]) -> Result<(), CheckpointError> {
    let payload = verify_checkpoint(bytes)?;
    load_params(estimator.model_mut(), payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DuetConfig;
    use crate::model::DuetModel;
    use duet_data::datasets::census_like;
    use duet_query::{CardinalityEstimator, WorkloadSpec};

    #[test]
    fn the_frame_header_is_magic_length_and_fnv1a_of_the_payload() {
        let mut framed = vec![0; FRAME_HEADER_LEN];
        framed.extend_from_slice(b"foobar");
        fill_frame_header(&mut framed);
        #[rustfmt::skip]
        let header: &[u8] = &[
            b'D', b'U', b'E', b'T', b'C', b'K', b'F', b'1',
            6, 0, 0, 0, 0, 0, 0, 0,
            // FNV-1a 64 of "foobar": 0x85944171f73967e8.
            0xe8, 0x67, 0x39, 0xf7, 0x71, 0x41, 0x94, 0x85,
        ];
        assert_eq!(&framed[..FRAME_HEADER_LEN], header);
        assert_eq!(&framed[FRAME_HEADER_LEN..], b"foobar");
        assert_eq!(verify_checkpoint(&framed), Ok(b"foobar".as_slice()));
    }

    #[test]
    fn weights_round_trip_preserves_estimates() {
        let table = census_like(400, 41);
        let cfg = DuetConfig::small().with_epochs(2);
        let mut trained = DuetEstimator::train_data_only(&table, &cfg, 3);
        let queries = WorkloadSpec::random(&table, 20, 9).generate(&table);
        let before: Vec<f64> = queries.iter().map(|q| trained.estimate(q)).collect();

        let checkpoint = save_weights(&trained);

        // A freshly initialized estimator with the same architecture.
        let fresh_model = DuetModel::new(&table, &cfg, 999);
        let mut fresh = DuetEstimator::from_model(fresh_model, &table, "restored");
        let after_init: Vec<f64> = queries.iter().map(|q| fresh.estimate(q)).collect();
        assert_ne!(before, after_init, "fresh weights should differ from trained ones");

        load_weights(&mut fresh, &checkpoint).expect("load should succeed");
        let after_load: Vec<f64> = queries.iter().map(|q| fresh.estimate(q)).collect();
        assert_eq!(before, after_load, "loading must restore the exact estimates");
    }

    #[test]
    fn loading_into_a_different_architecture_fails() {
        let table = census_like(300, 42);
        let small = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 1);
        let checkpoint = save_weights(&small);

        let mut other_cfg = DuetConfig::small();
        other_cfg.hidden_sizes = vec![16];
        let other_model = DuetModel::new(&table, &other_cfg, 2);
        let mut other = DuetEstimator::from_model(other_model, &table, "other");
        assert!(load_weights(&mut other, &checkpoint).is_err());
    }

    #[test]
    fn verify_accepts_pristine_frames() {
        let table = census_like(200, 43);
        let est = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 1);
        let checkpoint = save_weights(&est);
        let payload = verify_checkpoint(&checkpoint).expect("pristine frame verifies");
        assert_eq!(payload.len(), checkpoint.len() - super::FRAME_HEADER_LEN);
    }

    #[test]
    fn a_flipped_payload_bit_is_a_checksum_mismatch() {
        let table = census_like(200, 44);
        let est = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 1);
        let checkpoint = save_weights(&est);
        let mut bad = checkpoint.to_vec();
        let at = super::FRAME_HEADER_LEN + bad.len() / 2;
        bad[at] ^= 0x10;
        assert!(matches!(verify_checkpoint(&bad), Err(CheckpointError::ChecksumMismatch { .. })));
        // And loading takes the same gate: the model is never touched.
        let fresh_model = DuetModel::new(&table, &DuetConfig::small(), 7);
        let mut fresh = DuetEstimator::from_model(fresh_model, &table, "victim");
        assert!(load_weights(&mut fresh, &bad).is_err());
    }

    #[test]
    fn truncation_and_frame_damage_are_typed_errors() {
        let table = census_like(150, 45);
        let est = DuetEstimator::train_data_only(&table, &DuetConfig::small().with_epochs(1), 2);
        let checkpoint = save_weights(&est);

        // Truncated anywhere: header or payload.
        assert!(matches!(
            verify_checkpoint(&checkpoint[..super::FRAME_HEADER_LEN - 1]),
            Err(CheckpointError::FrameCorrupt(_))
        ));
        assert!(matches!(
            verify_checkpoint(&checkpoint[..checkpoint.len() - 3]),
            Err(CheckpointError::FrameCorrupt(_))
        ));
        // Wrong magic.
        let mut bad = checkpoint.to_vec();
        bad[0] = b'X';
        assert!(matches!(verify_checkpoint(&bad), Err(CheckpointError::FrameCorrupt(_))));
        // Trailing garbage disagrees with the declared length.
        let mut long = checkpoint.to_vec();
        long.push(0);
        assert!(matches!(verify_checkpoint(&long), Err(CheckpointError::FrameCorrupt(_))));
    }
}
