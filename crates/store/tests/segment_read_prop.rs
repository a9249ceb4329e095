//! Properties of the segment read path.
//!
//! `read_segment` reads a segment's committed bytes into one buffer and
//! decodes borrowed frames out of it. These tests pin its contracts: the
//! entries it returns re-encode to exactly the payloads a
//! [`SliceFrameReader`] walk of the file's bytes finds, and every
//! corruption shape — truncation, bit flips anywhere in the image, an
//! implausible length field — surfaces as a [`StoreError`], never a
//! panic, while bytes past the committed length are never read.

use mev_store::segment::read_segment;
use mev_store::testutil::{scratch_dir, test_chain};
use mev_store::{Manifest, SliceFrameReader, StoreError, StoreReader, StoreWriter};
use std::fs;

fn build(label: &str, blocks: u64, segment_blocks: u64) -> std::path::PathBuf {
    let dir = scratch_dir(label);
    let chain = test_chain(blocks, 2);
    let mut w =
        StoreWriter::create(&dir, chain.timeline().clone(), segment_blocks).expect("create store");
    w.ingest(&chain).expect("ingest");
    dir
}

#[test]
fn read_entries_re_encode_to_the_committed_frames() {
    let dir = build("segment-read-prop-identity", 11, 3);
    let manifest = Manifest::load(&dir).unwrap();
    assert!(manifest.segments.len() >= 3);
    for meta in &manifest.segments {
        let path = dir.join(&meta.file);
        let bytes = fs::read(&path).unwrap();
        let mut frames = Vec::new();
        let mut walk = SliceFrameReader::new(&bytes, &path, meta.bytes);
        while let Some(f) = walk.next_frame().expect("committed frame") {
            frames.push(f);
        }
        // Re-encode each entry `read_segment` returns and compare it
        // with the walked frames' payloads byte for byte.
        let entries = read_segment(&dir, meta).unwrap();
        assert_eq!(frames.len(), entries.len() + 1, "header frame + entries");
        for (frame, entry) in frames.iter().skip(1).zip(entries.iter()) {
            let payload = mev_types::codec::to_vec(entry);
            assert_eq!(
                frame.payload, payload,
                "{} offset {}",
                meta.file, frame.offset
            );
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_segment_is_refused() {
    let dir = build("segment-read-prop-truncate", 9, 4);
    let manifest = Manifest::load(&dir).unwrap();
    let meta = &manifest.segments[0];
    let path = dir.join(&meta.file);
    let original = fs::read(&path).unwrap();
    // Cut at several points inside the committed range: mid-payload,
    // mid-header, and one byte short.
    for cut in [
        original.len() - 1,
        original.len() - 5,
        original.len() / 2,
        3,
        0,
    ] {
        fs::write(&path, &original[..cut]).unwrap();
        match read_segment(&dir, meta) {
            Err(StoreError::SegmentTruncated {
                committed, actual, ..
            }) => {
                assert_eq!(committed, meta.bytes);
                assert_eq!(actual, cut as u64);
            }
            other => panic!("cut={cut}: expected SegmentTruncated, got {other:?}"),
        }
        // The reader refuses the whole store on open, same variant.
        match StoreReader::open(&dir).err() {
            Some(StoreError::SegmentTruncated { .. }) => {}
            other => panic!("cut={cut}: open should refuse truncation, got {other:?}"),
        }
    }
    fs::write(&path, &original).unwrap();
    assert!(read_segment(&dir, meta).is_ok());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bitflips_anywhere_are_errors_and_never_panic() {
    let dir = build("segment-read-prop-bitflip", 7, 4);
    let manifest = Manifest::load(&dir).unwrap();
    let meta = &manifest.segments[0];
    let path = dir.join(&meta.file);
    let original = fs::read(&path).unwrap();
    // Sweep a spread of byte positions covering headers and payloads of
    // several frames, plus the exact first and last committed bytes.
    let mut positions: Vec<usize> = (0..original.len()).step_by(37).collect();
    positions.push(0);
    positions.push(original.len() - 1);
    for pos in positions {
        let mut tampered = original.clone();
        tampered[pos] ^= 0x40;
        fs::write(&path, &tampered).unwrap();
        match read_segment(&dir, meta) {
            // A flip in a payload (or CRC field) is a checksum mismatch;
            // in a length field it can also read as an implausible
            // length or a frame crossing the committed limit. Decoded-
            // but-wrong headers surface as zone-map mismatches. All are
            // errors; none are panics.
            Err(StoreError::ChecksumMismatch { .. })
            | Err(StoreError::Codec { .. })
            | Err(StoreError::TruncatedFrame { .. })
            | Err(StoreError::ZoneMapMismatch { .. }) => {}
            Ok(_) => panic!("flip at byte {pos} went undetected"),
            Err(other) => panic!("flip at byte {pos}: unexpected error {other:?}"),
        }
    }
    fs::write(&path, &original).unwrap();
    assert!(read_segment(&dir, meta).is_ok());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncommitted_tail_bytes_are_never_read() {
    let dir = build("segment-read-prop-tail-garbage", 8, 4);
    let manifest = Manifest::load(&dir).unwrap();
    let meta = &manifest.segments[0];
    let path = dir.join(&meta.file);
    // Garbage past the committed length — crash residue — must not
    // affect decoding: the read stops at `meta.bytes`.
    let mut bytes = fs::read(&path).unwrap();
    let clean = read_segment(&dir, meta).unwrap();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF]);
    fs::write(&path, &bytes).unwrap();
    let with_garbage = read_segment(&dir, meta).unwrap();
    assert_eq!(clean, with_garbage);
    fs::remove_dir_all(&dir).ok();
}
