//! The snapshot file: one durable generation of the histogram.
//!
//! A snapshot (`SSN1`, version 2) is two checksummed sections:
//!
//! * a **header** (`H`) binding the file to its place in the lifecycle:
//!   generation number, the delta sequence it absorbs, and the golden
//!   hash of the histogram ([`StHoles::golden_hash`]);
//! * the histogram's **verbatim process image** (`I`, the `STI1` bytes of
//!   [`StHoles::to_bytes`]) — exact arena slot layout, free list, and
//!   child order. Recovery needs exactly this encoding, because refine's
//!   merge tie-breaking depends on slot order: replaying the delta tail on
//!   anything but the exact process image would be merely equivalent, not
//!   bit-identical, to the run that never crashed.
//!
//! [`decode`] re-hashes the decoded image against the stored golden, so a
//! snapshot that decodes to the *wrong* state (not just an undecodable
//! one) is refused too — by recovery and by time travel alike. Files of
//! any other version, such as version 1 (which had a third section), are
//! refused.

use sth_histogram::StHoles;
use sth_platform::codec::{read_section, write_section, ByteReader, ByteWriter, CodecError};

const MAGIC: &[u8; 4] = b"SSN1";
const VERSION: u8 = 2;
const SEC_HEADER: u8 = b'H';
const SEC_IMAGE: u8 = b'I';

/// Identity of a snapshot file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Generation number (must match the manifest entry naming the file).
    pub gen: u64,
    /// Deltas absorbed into this state.
    pub seq: u64,
    /// Golden hash of the histogram ([`StHoles::golden_hash`]).
    pub golden: u64,
}

/// Serializes `hist` as generation `gen` at delta sequence `seq`;
/// `golden` is `hist.golden_hash()`, computed once by the caller, which
/// also records it in the manifest.
pub fn encode(hist: &StHoles, gen: u64, seq: u64, golden: u64) -> Vec<u8> {
    let image = hist.to_bytes();
    let mut out = ByteWriter::with_capacity(image.len() + 64);
    out.bytes(MAGIC);
    out.u8(VERSION);
    let mut head = ByteWriter::with_capacity(24);
    head.u64(gen);
    head.u64(seq);
    head.u64(golden);
    write_section(&mut out, SEC_HEADER, head.as_bytes());
    write_section(&mut out, SEC_IMAGE, &image);
    out.into_bytes()
}

/// Decodes a snapshot file, verifying section checksums and the golden
/// hash of the decoded state.
pub fn decode(bytes: &[u8]) -> Result<(SnapshotHeader, StHoles), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::Corrupt("bad snapshot magic"));
    }
    if r.u8()? != VERSION {
        return Err(CodecError::Corrupt("unsupported snapshot version"));
    }
    let mut h = ByteReader::new(read_section(&mut r, SEC_HEADER)?);
    let head = SnapshotHeader { gen: h.u64()?, seq: h.u64()?, golden: h.u64()? };
    h.expect_exhausted()?;
    let image = read_section(&mut r, SEC_IMAGE)?;
    r.expect_exhausted()?;
    let hist = StHoles::from_bytes(image).map_err(|_| CodecError::Corrupt("snapshot image"))?;
    if hist.golden_hash() != head.golden {
        return Err(CodecError::Corrupt("snapshot golden hash mismatch"));
    }
    Ok((head, hist))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_geometry::Rect;
    use sth_index::ResultSetCounter;
    use sth_query::SelfTuning;

    fn trained() -> StHoles {
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, 40.0);
        let rows: Vec<f64> =
            (0..20).flat_map(|i| [5.0 + 4.0 * i as f64, 95.0 - 4.0 * i as f64]).collect();
        let result = ResultSetCounter::from_flat(rows, 2);
        for i in 0..6 {
            let q = Rect::from_bounds(&[4.0 * i as f64, 10.0], &[30.0 + 4.0 * i as f64, 90.0]);
            let truth = sth_index::RangeCounter::count(&result, &q) as f64;
            h.refine_with_truth(&q, &result, truth);
        }
        h
    }

    #[test]
    fn roundtrip_restores_the_image() {
        let h = trained();
        let bytes = encode(&h, 3, 17, h.golden_hash());
        let (head, back) = decode(&bytes).unwrap();
        assert_eq!(head, SnapshotHeader { gen: 3, seq: 17, golden: h.golden_hash() });
        assert_eq!(back.to_bytes(), h.to_bytes());
    }

    #[test]
    fn golden_mismatch_is_refused() {
        // `encode` trusts the caller's hash; `decode` re-hashes the image
        // and must refuse a header that does not match it.
        let h = trained();
        let bytes = encode(&h, 2, 5, h.golden_hash() ^ 1);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::Corrupt("snapshot golden hash mismatch")
        );
    }

    #[test]
    fn bitflips_never_decode() {
        let h = trained();
        let bytes = encode(&h, 1, 0, h.golden_hash());
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(decode(&bad).is_err(), "decode accepted flip at {i}");
        }
        for cut in (0..bytes.len()).step_by(13) {
            assert!(decode(&bytes[..cut]).is_err(), "accepted truncation at {cut}");
        }
    }
}
