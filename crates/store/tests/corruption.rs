//! A checkpoint is loaded from disk, so the decoder faces crash-cut
//! files and bit rot. These tests are exhaustive where the corruption
//! class allows it — *every* truncation offset, *every* single-bit flip
//! — and property-based for arbitrary mutations: the decoder must return
//! a typed [`StoreError`], never panic, and never yield a model that
//! disagrees with the bytes.

mod common;

use outage_core::{BlockIndex, DetectorConfig, LearnedModel};
use outage_store::{
    decode_checkpoint, decode_serve_checkpoint, encode_checkpoint, encode_serve_checkpoint,
    read_checkpoint, Checkpoint, StoreError,
};
use outage_types::rng::cases;
use outage_types::{Interval, Observation, Prefix, UnixTime};

/// A small but structurally complete checkpoint: both address
/// families, a diurnal block, a sparse block.
fn sample_bytes() -> Vec<u8> {
    encode_checkpoint(&Checkpoint {
        fingerprint: DetectorConfig::default().fingerprint(),
        model: common::sample_model(),
    })
}

/// A model-carrying serve checkpoint over the same world, with events
/// and a quarantine interval, so every POSV section has a payload.
fn sample_serve_bytes() -> Vec<u8> {
    encode_serve_checkpoint(&common::sample_serve_checkpoint())
}

#[test]
fn truncation_at_every_byte_offset_is_rejected() {
    let bytes = sample_bytes();
    for cut in 0..bytes.len() {
        match decode_checkpoint(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!(
                "truncation to {cut}/{} bytes decoded successfully",
                bytes.len()
            ),
        }
    }
    // Sanity: the untruncated file does decode.
    assert!(decode_checkpoint(&bytes).is_ok());
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // CRC32 detects all single-bit errors within a guarded region, and
    // every byte of the format is either CRC-guarded or structural
    // framing whose damage is its own error — so this holds for *every*
    // bit of the file, exhaustively.
    let bytes = sample_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[byte] ^= 1 << bit;
            match decode_checkpoint(&mutated) {
                Err(_) => {}
                Ok(_) => panic!("bit flip at {byte}:{bit} went undetected"),
            }
        }
    }
}

#[test]
fn truncated_then_extended_garbage_is_rejected() {
    // A crash mid-write followed by reuse of a dirty block: valid prefix
    // of the file, garbage tail of the right total length.
    let bytes = sample_bytes();
    for cut in [10, 40, 60, bytes.len() / 2, bytes.len() - 3] {
        let mut mutated = bytes[..cut].to_vec();
        mutated.resize(bytes.len(), 0xAA);
        assert!(
            decode_checkpoint(&mutated).is_err(),
            "garbage tail from {cut} went undetected"
        );
    }
}

/// Payload ranges of the three POMS sections, in file order, each with
/// the offset of its CRC field.
fn section_payloads(bytes: &[u8]) -> Vec<(std::ops::Range<usize>, usize)> {
    let mut at = 40;
    (0..3)
        .map(|_| {
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let payload = at + 16..at + 16 + len;
            let crc_at = at + 12;
            at = payload.end;
            (payload, crc_at)
        })
        .collect()
}

#[test]
fn damage_behind_a_valid_crc_fails_the_rebuild_comparison() {
    // A writer whose derivation drifted (or corruption that happens to
    // keep its CRC) must still be refused: flip every bit of the count
    // arena and of the HIST records, re-stamp the section CRC, and the
    // rebuilt histories must disagree with what is stored.
    let bytes = sample_bytes();
    let sections = section_payloads(&bytes);
    let (cnts, cnts_crc) = sections[1].clone();
    let (hist, hist_crc) = sections[2].clone();
    let restamp = |m: &mut Vec<u8>, range: &std::ops::Range<usize>, crc_at: usize| {
        let crc = outage_store::crc32(&m[range.clone()]);
        m[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    };
    // Counts (past the hour-row length): a flip in a count's low half
    // moves a history; one in its high half leaves a count no `u32`
    // holds, refused as exactly that count before any rebuild.
    let hours = u32::from_le_bytes(bytes[cnts.start..cnts.start + 4].try_into().unwrap()) as usize;
    for byte in cnts.start + 4..cnts.end {
        let slot = (byte - cnts.start - 4) / 8;
        let at = cnts.start + 4 + slot * 8;
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[byte] ^= 1 << bit;
            restamp(&mut m, &cnts, cnts_crc);
            let got = decode_checkpoint(&m);
            if byte - at < 4 {
                assert!(
                    matches!(got, Err(StoreError::Inconsistent { .. })),
                    "count flip at {byte}:{bit} passed the rebuild comparison: {got:?}"
                );
            } else {
                let count = u64::from_le_bytes(m[at..at + 8].try_into().unwrap());
                assert!(
                    matches!(got, Err(StoreError::CountOverflow { block, hour, count: c })
                        if block == slot / hours && hour == slot % hours && c == count),
                    "high-half count flip at {byte}:{bit} gave {got:?}"
                );
            }
        }
    }
    // History records: value bits are Inconsistent; prefix and flag bits
    // may instead break the record structure — never a clean decode.
    for byte in hist.clone() {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[byte] ^= 1 << bit;
            restamp(&mut m, &hist, hist_crc);
            match decode_checkpoint(&m) {
                Err(StoreError::Inconsistent { .. })
                | Err(StoreError::Malformed { .. })
                | Err(StoreError::Truncated { .. }) => {}
                other => panic!("history flip at {byte}:{bit} gave {other:?}"),
            }
        }
    }
    // The first record's lambda (right after its 6-byte IPv4 prefix) is
    // a pure value: only the comparison can catch it.
    let mut m = bytes.clone();
    m[hist.start + 6] ^= 1;
    restamp(&mut m, &hist, hist_crc);
    assert!(matches!(
        decode_checkpoint(&m),
        Err(StoreError::Inconsistent { .. })
    ));
}

/// How a decode ended, compared by message: the variant, its context
/// and its byte counts.
fn outcome(r: Result<Checkpoint, StoreError>) -> String {
    match r {
        Ok(c) => format!("ok {:?}", c.model.counts()),
        Err(e) => format!("err {e}"),
    }
}

/// Decode `bytes` the way a load does: from a file, as it is read.
fn read_as_file(bytes: &[u8], path: &std::path::Path) -> Result<Checkpoint, StoreError> {
    std::fs::write(path, bytes).unwrap();
    read_checkpoint(path).map(|(c, n)| {
        assert_eq!(n, bytes.len() as u64);
        c
    })
}

fn scratch_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("outage-store-{tag}-{}.poms", std::process::id()))
}

#[test]
fn reading_a_file_fails_exactly_like_decoding_its_bytes() {
    // The file path streams the count arena; the in-memory path takes
    // it whole. Every truncation and every bit flip (with and without
    // the damaged section's CRC re-stamped) must end the same way.
    let path = scratch_file("file-vs-memory");
    let bytes = sample_bytes();
    let same = |m: &[u8], what: &str| {
        assert_eq!(
            outcome(read_as_file(m, &path)),
            outcome(decode_checkpoint(m)),
            "{what}"
        );
    };
    for cut in 0..=bytes.len() {
        same(&bytes[..cut], &format!("truncation to {cut}"));
    }
    let sections = section_payloads(&bytes);
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[byte] ^= 1 << bit;
            same(&m, &format!("flip at {byte}:{bit}"));
            if let Some((range, crc_at)) = sections.iter().find(|(r, _)| r.contains(&byte)) {
                let crc = outage_store::crc32(&m[range.clone()]);
                m[*crc_at..*crc_at + 4].copy_from_slice(&crc.to_le_bytes());
                same(&m, &format!("re-stamped flip at {byte}:{bit}"));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

// A model holds its hourly counts as `u32`; a checkpoint stores them as
// `u64`. `u32::MAX` survives a save and a load bit for bit, and a stored
// count one above it is refused with a typed error by both the in-memory
// and the streaming decoder, never narrowed and never a panic.

/// A checkpoint of `model` (fingerprint 11).
fn encode(model: LearnedModel) -> Vec<u8> {
    encode_checkpoint(&Checkpoint {
        fingerprint: 11,
        model,
    })
}

#[test]
fn a_count_above_u32_max_is_refused_by_both_decoders() {
    let mut bytes = encode(common::sample_model());
    let (cnts, crc_at) = section_payloads(&bytes)[1].clone();
    let hours = u32::from_le_bytes(bytes[cnts.start..cnts.start + 4].try_into().unwrap()) as usize;
    // Block 1, hour 5; a second, larger one later must not be the one
    // reported.
    let too_big = u64::from(u32::MAX) + 1;
    let slot = |block: usize, hour: usize| cnts.start + 4 + 8 * (block * hours + hour);
    let first = slot(1, 5);
    bytes[first..first + 8].copy_from_slice(&too_big.to_le_bytes());
    let later = slot(2, 0);
    bytes[later..later + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    // Re-stamp the CRC so the decoder gets as far as the count itself.
    let crc = outage_store::crc32(&bytes[cnts.clone()]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());

    let expect = |got: Result<Checkpoint, StoreError>, what: &str| match got {
        Err(StoreError::CountOverflow { block, hour, count }) => {
            assert_eq!((block, hour, count), (1, 5, too_big), "{what}");
        }
        other => panic!("{what}: expected CountOverflow, got {other:?}"),
    };
    expect(decode_checkpoint(&bytes), "decode_checkpoint");
    let path = scratch_file("count-overflow");
    std::fs::write(&path, &bytes).unwrap();
    expect(read_checkpoint(&path).map(|(c, _)| c), "read_checkpoint");
    let _ = std::fs::remove_file(&path);

    let msg = decode_checkpoint(&bytes).unwrap_err().to_string();
    assert!(
        msg.contains("4294967296") && msg.contains("block 1, hour 5"),
        "{msg}"
    );
}

#[test]
fn u32_max_round_trips_bit_exact() {
    let window = Interval::from_secs(0, 3 * 3_600);
    let mut index = BlockIndex::new();
    index.intern("192.0.2.0/24".parse::<Prefix>().unwrap());
    index.intern(Prefix::v6_raw(0x2001_0db8u128 << 96, 48));
    let counts = vec![u32::MAX, 0, u32::MAX - 1, 1, u32::MAX, u32::MAX];
    let model = LearnedModel::from_parts(window, index, counts.clone()).unwrap();
    let bytes = encode(model.clone());

    // On disk each count is the same value widened to u64.
    let (cnts, _) = section_payloads(&bytes)[1].clone();
    let stored: Vec<u64> = bytes[cnts.start + 4..cnts.end]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    assert_eq!(
        stored,
        counts.iter().map(|&c| u64::from(c)).collect::<Vec<_>>()
    );

    let path = scratch_file("u32-max");
    std::fs::write(&path, &bytes).unwrap();
    let (from_file, _) = read_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    for back in [decode_checkpoint(&bytes).unwrap(), from_file] {
        assert_eq!(back.model.counts(), &counts[..]);
        assert_eq!(
            back.model.indexed().histories(),
            model.indexed().histories()
        );
        assert_eq!(
            back.model.indexed().by_id(0).total,
            2 * u64::from(u32::MAX) - 1
        );
        assert_eq!(encode(back.model), bytes, "re-encoding moves no byte");
    }
}

/// 1500 IPv4 blocks x 48 hours: a count arena over half a megabyte and
/// a `HIST` section over 256 KiB, so a file is read in several pieces.
fn large_checkpoint() -> Vec<u8> {
    let window = Interval::from_secs(0, 2 * 86_400);
    let obs: Vec<Observation> = (0..1_500u32)
        .flat_map(|b| {
            let block = Prefix::v4_raw(0x0A00_0000 + (b << 8), 24);
            (0..48u64).map(move |h| Observation::new(UnixTime(h * 3_600 + u64::from(b)), block))
        })
        .collect();
    let model = LearnedModel::learn(obs, window);
    assert!(model.counts().len() * 8 > 1 << 19);
    encode_checkpoint(&Checkpoint {
        fingerprint: 9,
        model,
    })
}

#[test]
fn a_count_arena_larger_than_one_read_streams_intact() {
    let bytes = large_checkpoint();
    let path = scratch_file("large-arena");
    let whole = outcome(decode_checkpoint(&bytes));
    assert!(whole.starts_with("ok"));
    assert_eq!(outcome(read_as_file(&bytes, &path)), whole);
    // Damage late in the arena, and a cut inside it, fail alike too.
    let (cnts, _) = section_payloads(&bytes)[1].clone();
    let mut late = bytes.clone();
    late[cnts.end - 3] ^= 0x10;
    let flipped = outcome(read_as_file(&late, &path));
    assert!(flipped.contains("checksum mismatch in CNTS"), "{flipped}");
    assert_eq!(flipped, outcome(decode_checkpoint(&late)));
    let cut = &bytes[..cnts.start + (cnts.len() * 3) / 4];
    assert_eq!(
        outcome(read_as_file(cut, &path)),
        outcome(decode_checkpoint(cut))
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_history_record_split_across_reads_is_checked_like_a_whole_one() {
    // A file's `HIST` arrives in 256 KiB reads, and the record holding
    // payload byte 262144 is split between two of them. Cut the section
    // inside that record (frame length and CRC re-stamped, so the record
    // structure is what fails), or damage each of its fields: the file
    // must end exactly as the same bytes decoded whole.
    const READ: usize = 1 << 18;
    const RECORD: usize = 6 + 8 + 8 + 24 * 8 + 1;
    // 1300 IPv4 blocks over one hour: the HIST section passes 256 KiB
    // while the count arena stays small.
    let obs = (0..1_300u32).map(|b| {
        Observation::new(
            UnixTime(u64::from(b)),
            Prefix::v4_raw(0x0A00_0000 + (b << 8), 24),
        )
    });
    let bytes = encode_checkpoint(&Checkpoint {
        fingerprint: 9,
        model: LearnedModel::learn(obs, Interval::from_secs(0, 3_600)),
    });
    let (hist, crc_at) = section_payloads(&bytes)[2].clone();
    assert!(hist.len() > READ + RECORD);
    let split = READ / RECORD * RECORD;
    let path = scratch_file("split-record");
    let same = |m: &[u8], what: &str| {
        let whole = outcome(decode_checkpoint(m));
        assert_eq!(outcome(read_as_file(m, &path)), whole, "{what}");
        whole
    };
    let restamp = |m: &mut Vec<u8>| {
        let crc = outage_store::crc32(&m[hist.start..]);
        m[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    };
    for len in split..=split + RECORD {
        let mut m = bytes[..hist.start + len].to_vec();
        m[hist.start - 12..hist.start - 4].copy_from_slice(&(len as u64).to_le_bytes());
        restamp(&mut m);
        let got = same(&m, &format!("section cut to {len}"));
        assert!(got.contains("truncated checkpoint"), "cut to {len}: {got}");
    }
    // Family, length, address, a shape weight, the flag.
    for (field, off) in [
        ("family", 0),
        ("length", 1),
        ("address", 5),
        ("shape", 100),
        ("flag", RECORD - 1),
    ] {
        let mut m = bytes.clone();
        m[hist.start + split + off] ^= 0x02;
        restamp(&mut m);
        let got = same(&m, field);
        assert!(got.starts_with("err"), "{field}: {got}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_truncation_at_every_byte_offset_is_rejected() {
    let bytes = sample_serve_bytes();
    for cut in 0..bytes.len() {
        match decode_serve_checkpoint(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!(
                "serve truncation to {cut}/{} bytes decoded successfully",
                bytes.len()
            ),
        }
    }
    assert!(decode_serve_checkpoint(&bytes).is_ok());
}

#[test]
fn serve_every_single_bit_flip_is_rejected() {
    // Header, framing and every section (the embedded POMS included, with
    // its own inner CRCs) — every bit of a model-carrying file.
    let bytes = sample_serve_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[byte] ^= 1 << bit;
            match decode_serve_checkpoint(&mutated) {
                Err(_) => {}
                Ok(_) => panic!("serve bit flip at {byte}:{bit} went undetected"),
            }
        }
    }
}

#[test]
fn serve_truncated_then_extended_garbage_is_rejected() {
    let bytes = sample_serve_bytes();
    for cut in [10, 40, 60, bytes.len() / 2, bytes.len() - 3] {
        for fill in [0x00, 0xAA, 0xFF] {
            let mut mutated = bytes[..cut].to_vec();
            mutated.resize(bytes.len(), fill);
            if mutated == bytes {
                continue; // the fill rewrote the tail it replaced
            }
            assert!(
                decode_serve_checkpoint(&mutated).is_err(),
                "garbage tail {fill:#04x} from {cut} went undetected"
            );
        }
    }
    // Valid file, garbage appended.
    let mut longer = bytes.clone();
    longer.extend_from_slice(&[0xAA; 16]);
    assert!(matches!(
        decode_serve_checkpoint(&longer),
        Err(StoreError::Malformed { .. })
    ));
}

#[test]
fn error_variants_are_the_documented_ones() {
    let bytes = sample_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[1] ^= 0xFF;
    assert!(matches!(
        decode_checkpoint(&bad_magic),
        Err(StoreError::BadMagic { .. })
    ));

    let mut bad_version = bytes.clone();
    bad_version[4] = 0xFE;
    assert!(matches!(
        decode_checkpoint(&bad_version),
        Err(StoreError::UnsupportedVersion { .. })
    ));

    // Flip a bit deep in a section payload: the section CRC reports it.
    let mut bad_body = bytes.clone();
    let n = bad_body.len();
    bad_body[n - 2] ^= 0x10;
    assert!(matches!(
        decode_checkpoint(&bad_body),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    assert!(matches!(
        decode_checkpoint(&bytes[..17]),
        Err(StoreError::Truncated { .. })
    ));
}

#[test]
fn decoded_model_is_all_or_nothing() {
    // No partial loads: whatever prefix of the sections survives, an
    // error means *no* model. (The API makes partial loads impossible by
    // construction — this documents the contract.)
    let bytes = sample_bytes();
    let whole = decode_checkpoint(&bytes).unwrap();
    assert!(whole.model.len() >= 3);
    let res: Result<Checkpoint, StoreError> = decode_checkpoint(&bytes[..bytes.len() - 1]);
    assert!(res.is_err());
}

#[test]
fn arbitrary_bytes_never_panic() {
    cases(64, 1, |rng| {
        let garbage = rng.vec(0..4096, |rng| rng.gen::<u8>());
        // Total decoder: random input is Ok or Err, never a panic.
        let _ = decode_checkpoint(&garbage);
    });
}

#[test]
fn random_multi_byte_corruption_never_yields_a_wrong_model() {
    cases(64, 2, |rng| {
        let offsets = rng.vec(1..8, |rng| rng.gen_range(0usize..8192));
        let masks = rng.vec(1..8, |rng| rng.gen_range(1u8..=255));
        let bytes = sample_bytes();
        let mut mutated = bytes.clone();
        for (o, m) in offsets.iter().zip(masks.iter()) {
            let idx = o % mutated.len();
            mutated[idx] ^= m;
        }
        match decode_checkpoint(&mutated) {
            Err(_) => {}
            Ok(c) => {
                // Only acceptable if the flips cancelled out exactly.
                assert_eq!(&mutated, &bytes, "corrupted bytes decoded");
                let orig = decode_checkpoint(&bytes).unwrap();
                assert_eq!(c.model.counts(), orig.model.counts());
            }
        }
    });
}

#[test]
fn random_truncation_of_valid_file_is_rejected() {
    cases(64, 3, |rng| {
        let frac = rng.gen_range(0.0f64..1.0);
        let bytes = sample_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err());
        }
    });
}

/// The merge path must also be total over decoded-but-hostile inputs:
/// a checkpoint pair with incompatible windows errors, never panics.
#[test]
fn merge_of_incompatible_checkpoints_is_typed() {
    let a = LearnedModel::learn(std::iter::empty(), Interval::from_secs(0, 3_600));
    let b = LearnedModel::learn(std::iter::empty(), Interval::from_secs(7_200, 10_800));
    assert!(LearnedModel::merge(&a, &b).is_err());
}
