//! The checkpoint wire format: encode and (paranoid) decode.
//!
//! Layout, version 1, all integers little-endian:
//!
//! ```text
//! offset size
//!  0      4   magic  b"POMS"
//!  4      2   format version (= 1)
//!  6      2   reserved (= 0)
//!  8      8   DetectorConfig fingerprint (FNV-1a 64)
//! 16      8   history window start, unix seconds
//! 24      8   history window end, unix seconds (exclusive)
//! 32      4   section count (= 3)
//! 36      4   CRC32 of bytes [0, 36)
//! 40      —   sections, in fixed order: INDX, CNTS, HIST
//! ```
//!
//! Each section is framed `tag[4] · payload_len u64 · payload_crc u32 ·
//! payload`. Payloads:
//!
//! * `INDX` — `u32` block count, then each prefix in block-id order:
//!   family byte (4 or 6), prefix length `u8`, network address
//!   (`u32`/`u128`, canonical: host bits zero).
//! * `CNTS` — `u32` hour-row length, then `blocks × hours` `u64`
//!   arrival counts (the mergeable primitive). A model holds them as
//!   `u32`: encode widens each, and decode narrows each and refuses a
//!   count above `u32::MAX` as [`StoreError::CountOverflow`].
//! * `HIST` — per block: prefix, `lambda` (f64 bits), total `u64`,
//!   24 × hourly-shape multipliers (f64 bits), shape-estimated flag.
//!
//! The decoder rebuilds histories from `CNTS` and demands they equal
//! `HIST` bit-for-bit — so a checkpoint written by a binary whose
//! derivation code has drifted from this one's is rejected as
//! [`StoreError::Inconsistent`] rather than silently trusted.
//!
//! Both directions run at memory speed: sections are written straight
//! into the output buffer and framed afterwards, fixed-width data is
//! converted in bulk after one bounds check per section (or per `HIST`
//! record), and a file's `CNTS` and `HIST` are checksummed and checked
//! as they are read, never held as bytes: the count arena is narrowed
//! into the model, the histories are rebuilt from it, and each `HIST`
//! record is compared with its rebuilt history's own encoding instead
//! of being decoded into a second copy.

use crate::crc32::{crc32, crc32_update};
use crate::error::StoreError;
use outage_core::{BlockHistory, BlockIndex, LearnedModel};
use outage_types::{Interval, Prefix, UnixTime};
use std::borrow::Cow;
use std::io::Read;

/// First four bytes of every checkpoint: Passive Outage Model Store.
pub const MAGIC: [u8; 4] = *b"POMS";
/// The format version this binary writes and reads.
pub const VERSION: u16 = 1;

const SECTION_COUNT: u32 = 3;
const HEADER_LEN: usize = 40;

/// A decoded checkpoint: the learned model plus the configuration
/// fingerprint it was learned under.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// [`outage_core::DetectorConfig::fingerprint`] of the learning run.
    pub fingerprint: u64,
    /// The model itself (histories plus mergeable count arena).
    pub model: LearnedModel,
}

// ---------------------------------------------------------------- encode

/// Write `p`'s encoding at the start of `out`; returns its length.
fn write_prefix(out: &mut [u8], p: &Prefix) -> usize {
    match *p {
        Prefix::V4 { addr, len } => {
            out[..2].copy_from_slice(&[4, len]);
            out[2..6].copy_from_slice(&addr.to_le_bytes());
            6
        }
        Prefix::V6 { addr, len } => {
            out[..2].copy_from_slice(&[6, len]);
            out[2..18].copy_from_slice(&addr.get().to_le_bytes());
            18
        }
    }
}

pub(crate) fn put_prefix(out: &mut Vec<u8>, p: &Prefix) {
    let mut buf = [0u8; 18];
    let n = write_prefix(&mut buf, p);
    out.extend_from_slice(&buf[..n]);
}

/// Bytes of a `HIST` record after its prefix: `lambda`, `total`, 24
/// shape multipliers, shape flag.
const HIST_BODY_LEN: usize = 8 + 8 + 24 * 8 + 1;
/// The longest `HIST` record (an IPv6 block's).
const HIST_RECORD_MAX: usize = 18 + HIST_BODY_LEN;

/// Encode one `HIST` record into `buf`; returns the encoded bytes. The
/// decoder compares stored records against this encoding of the
/// rebuilt histories, so byte equality is exactly bitwise
/// [`BlockHistory`] equality.
fn history_record<'b>(h: &BlockHistory, buf: &'b mut [u8; HIST_RECORD_MAX]) -> &'b [u8] {
    let mut at = write_prefix(buf, &h.prefix);
    for v in [h.lambda.to_bits(), h.total] {
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
        at += 8;
    }
    for m in &h.hourly_shape {
        buf[at..at + 8].copy_from_slice(&m.to_bits().to_le_bytes());
        at += 8;
    }
    buf[at] = h.shape_estimated as u8;
    &buf[..at + 1]
}

/// Append a section framed `tag · len · crc · payload`, with `payload`
/// writing straight into `out`: the length and CRC are patched into the
/// frame once the payload is complete, so no section is staged in a
/// buffer of its own.
pub(crate) fn put_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(tag);
    let frame = out.len();
    out.extend_from_slice(&[0u8; 12]);
    let start = out.len();
    payload(out);
    let len = (out.len() - start) as u64;
    let crc = crc32(&out[start..]);
    out[frame..frame + 8].copy_from_slice(&len.to_le_bytes());
    out[frame + 8..frame + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Counts widened to `u64` per copy into the output buffer.
const WIDEN_BATCH: usize = 512;

/// Buffer capacity for `model`'s checkpoint: an upper bound that costs
/// every block as IPv6, so the output never reallocates.
pub(crate) fn size_hint(model: &LearnedModel) -> usize {
    HEADER_LEN + 3 * 16 + 8 + model.counts().len() * 8 + model.len() * (18 + HIST_RECORD_MAX)
}

/// Append `model`'s checkpoint, stamped with `fingerprint`, to `out`.
pub(crate) fn encode_model_into(out: &mut Vec<u8>, fingerprint: u64, model: &LearnedModel) {
    let base = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&model.window().start.secs().to_le_bytes());
    out.extend_from_slice(&model.window().end.secs().to_le_bytes());
    out.extend_from_slice(&SECTION_COUNT.to_le_bytes());
    let hcrc = crc32(&out[base..]);
    out.extend_from_slice(&hcrc.to_le_bytes());
    debug_assert_eq!(out.len() - base, HEADER_LEN);

    let index = model.index();
    put_section(out, b"INDX", |out| {
        out.extend_from_slice(&(index.len() as u32).to_le_bytes());
        for p in index.prefixes() {
            put_prefix(out, p);
        }
    });
    put_section(out, b"CNTS", |out| {
        out.extend_from_slice(&(model.hours() as u32).to_le_bytes());
        // Widened through a small stack buffer, so each output byte is
        // written once (no zero-fill first).
        let mut buf = [0u8; 8 * WIDEN_BATCH];
        for batch in model.counts().chunks(WIDEN_BATCH) {
            for (dst, &c) in buf.chunks_exact_mut(8).zip(batch) {
                dst.copy_from_slice(&u64::from(c).to_le_bytes());
            }
            out.extend_from_slice(&buf[..batch.len() * 8]);
        }
    });
    put_section(out, b"HIST", |out| {
        let mut buf = [0u8; HIST_RECORD_MAX];
        for h in model.indexed().histories() {
            out.extend_from_slice(history_record(h, &mut buf));
        }
    });
}

/// Serialize `model`, stamped with `fingerprint`, straight from a
/// borrow: the same bytes as [`encode_checkpoint`] without first moving
/// the model into a [`Checkpoint`].
pub fn encode_model(fingerprint: u64, model: &LearnedModel) -> Vec<u8> {
    let mut out = Vec::with_capacity(size_hint(model));
    encode_model_into(&mut out, fingerprint, model);
    out
}

/// Serialize a checkpoint to bytes.
pub fn encode_checkpoint(c: &Checkpoint) -> Vec<u8> {
    encode_model(c.fingerprint, &c.model)
}

// ---------------------------------------------------------------- decode

/// Bounds-checked cursor over untrusted bytes. Every read either
/// advances or returns [`StoreError::Truncated`]; nothing indexes past
/// the end.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                context,
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], StoreError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, context)?);
        Ok(a)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, StoreError> {
        self.array(context).map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, StoreError> {
        self.array(context).map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, StoreError> {
        self.array(context).map(u64::from_le_bytes)
    }

    fn u128(&mut self, context: &'static str) -> Result<u128, StoreError> {
        self.array(context).map(u128::from_le_bytes)
    }
}

pub(crate) fn get_prefix(c: &mut Cursor<'_>) -> Result<Prefix, StoreError> {
    let family = c.u8("prefix family")?;
    let len = c.u8("prefix length")?;
    match family {
        4 => {
            if len > 32 {
                return Err(StoreError::Malformed {
                    context: "IPv4 prefix length > 32",
                });
            }
            let addr = c.u32("IPv4 address")?;
            let p = Prefix::v4_raw(addr, len);
            // v4_raw masks host bits; a canonical file stores them zero.
            match p {
                Prefix::V4 { addr: a, .. } if a == addr => Ok(p),
                _ => Err(StoreError::Malformed {
                    context: "IPv4 prefix has host bits set",
                }),
            }
        }
        6 => {
            if len > 128 {
                return Err(StoreError::Malformed {
                    context: "IPv6 prefix length > 128",
                });
            }
            let addr = c.u128("IPv6 address")?;
            let p = Prefix::v6_raw(addr, len);
            match p {
                Prefix::V6 { addr: a, .. } if a.get() == addr => Ok(p),
                _ => Err(StoreError::Malformed {
                    context: "IPv6 prefix has host bits set",
                }),
            }
        }
        _ => Err(StoreError::Malformed {
            context: "prefix family byte is neither 4 nor 6",
        }),
    }
}

/// Checkpoint bytes consumed front to back: from memory ([`Cursor`],
/// zero-copy) or straight from a file ([`Stream`]). The total length is
/// known up front either way, so a structure that promises more bytes
/// than are left fails as [`StoreError::Truncated`] before any is read.
pub(crate) trait Source<'a> {
    /// Bytes not yet consumed.
    fn left(&self) -> usize;

    /// The next `n` bytes.
    fn bytes(&mut self, n: usize, context: &'static str) -> Result<Cow<'a, [u8]>, StoreError>;

    /// The next `n` bytes, handed to `piece` in order, in pieces whose
    /// lengths are multiples of 8 except the last — so a large section
    /// can be checksummed and converted without being held whole.
    fn pieces(
        &mut self,
        n: usize,
        context: &'static str,
        piece: impl FnMut(&[u8]),
    ) -> Result<(), StoreError>;
}

impl<'a> Source<'a> for Cursor<'a> {
    fn left(&self) -> usize {
        self.remaining()
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<Cow<'a, [u8]>, StoreError> {
        self.take(n, context).map(Cow::Borrowed)
    }

    fn pieces(
        &mut self,
        n: usize,
        context: &'static str,
        mut piece: impl FnMut(&[u8]),
    ) -> Result<(), StoreError> {
        piece(self.take(n, context)?);
        Ok(())
    }
}

/// Bytes per read when a section is streamed: a count arena passes
/// through one reused buffer of this size instead of being read whole.
const STREAM_PIECE: usize = 1 << 18;

/// A reader of known total length (a file and its size).
pub(crate) struct Stream<R> {
    reader: R,
    left: usize,
}

impl<R: Read> Stream<R> {
    pub(crate) fn new(reader: R, len: usize) -> Stream<R> {
        Stream { reader, left: len }
    }

    /// Fail as `Truncated` unless `n` more bytes are left (checked before
    /// anything is allocated or read).
    fn expect(&self, n: usize, context: &'static str) -> Result<(), StoreError> {
        if n > self.left {
            return Err(StoreError::Truncated {
                context,
                need: n,
                have: self.left,
            });
        }
        Ok(())
    }

    fn fill(&mut self, buf: &mut [u8], context: &'static str) -> Result<(), StoreError> {
        self.reader.read_exact(buf).map_err(|e| match e.kind() {
            // The file shrank after its size was taken.
            std::io::ErrorKind::UnexpectedEof => StoreError::Truncated {
                context,
                need: buf.len(),
                have: 0,
            },
            _ => StoreError::Io(e),
        })?;
        self.left -= buf.len();
        Ok(())
    }
}

impl<'a, R: Read> Source<'a> for Stream<R> {
    fn left(&self) -> usize {
        self.left
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<Cow<'a, [u8]>, StoreError> {
        self.expect(n, context)?;
        // Read into unzeroed capacity: the bytes are written once.
        let mut buf = Vec::with_capacity(n);
        (&mut self.reader).take(n as u64).read_to_end(&mut buf)?;
        if buf.len() < n {
            // The file shrank after its size was taken.
            return Err(StoreError::Truncated {
                context,
                need: n,
                have: 0,
            });
        }
        self.left -= n;
        Ok(Cow::Owned(buf))
    }

    fn pieces(
        &mut self,
        n: usize,
        context: &'static str,
        mut piece: impl FnMut(&[u8]),
    ) -> Result<(), StoreError> {
        self.expect(n, context)?;
        let mut buf = vec![0u8; n.min(STREAM_PIECE)];
        let mut rest = n;
        while rest > 0 {
            let len = rest.min(buf.len());
            self.fill(&mut buf[..len], context)?;
            piece(&buf[..len]);
            rest -= len;
        }
        Ok(())
    }
}

/// The next structure of up to `n` bytes: all `n` when that many are
/// left, else the rest, so parsing its fields with a [`Cursor`] reports
/// exactly which one is cut short.
fn head<'a>(src: &mut impl Source<'a>, n: usize) -> Result<Cow<'a, [u8]>, StoreError> {
    let n = n.min(src.left());
    src.bytes(n, "structure")
}

/// Read one section's frame: check its tag and that its payload fits in
/// what is left. Returns the payload length and recorded CRC.
fn get_frame<'a>(
    src: &mut impl Source<'a>,
    expect_tag: &'static [u8; 4],
) -> Result<(usize, u32), StoreError> {
    let frame = head(src, 16)?;
    let mut c = Cursor::new(&frame);
    let tag = c.take(4, "section tag")?;
    if tag != expect_tag {
        return Err(StoreError::Malformed {
            context: "unexpected section tag (sections have a fixed order)",
        });
    }
    let len = c.u64("section length")?;
    let expected = c.u32("section checksum")?;
    if len > src.left() as u64 {
        return Err(StoreError::Truncated {
            context: "section payload",
            need: len as usize,
            have: src.left(),
        });
    }
    Ok((len as usize, expected))
}

/// Read one section's framing, verify its CRC, and return its payload.
pub(crate) fn get_section<'a>(
    src: &mut impl Source<'a>,
    expect_tag: &'static [u8; 4],
    region: &'static str,
) -> Result<Cow<'a, [u8]>, StoreError> {
    let (len, expected) = get_frame(src, expect_tag)?;
    let payload = src.bytes(len, "section payload")?;
    check_crc(region, expected, crc32(&payload))?;
    Ok(payload)
}

fn check_crc(region: &'static str, expected: u32, found: u32) -> Result<(), StoreError> {
    if found == expected {
        Ok(())
    } else {
        Err(StoreError::ChecksumMismatch {
            region,
            expected,
            found,
        })
    }
}

/// `INDX`: the block index, ids in stored order, every prefix canonical
/// and distinct.
fn decode_index(indx: &[u8]) -> Result<BlockIndex, StoreError> {
    let mut ic = Cursor::new(indx);
    let blocks = ic.u32("block count")? as usize;
    // Each entry is at least 6 bytes; an impossible count fails fast
    // instead of looping over a huge bound.
    if blocks > indx.len() / 6 {
        return Err(StoreError::Malformed {
            context: "block count exceeds what the INDX payload could hold",
        });
    }
    let mut index = BlockIndex::with_capacity(blocks);
    for _ in 0..blocks {
        let p = get_prefix(&mut ic)?;
        let before = index.len();
        index.intern(p);
        if index.len() == before {
            return Err(StoreError::Malformed {
                context: "duplicate prefix in block index",
            });
        }
    }
    if ic.remaining() != 0 {
        return Err(StoreError::Malformed {
            context: "trailing bytes after block index entries",
        });
    }
    Ok(index)
}

/// `CNTS`: the hour-row length and the `blocks × hours` count arena.
/// The payload is checksummed and narrowed to `u32` in one pass as it
/// streams in; the conversion is only kept once the CRC and the arena's
/// length check out, so errors come in the same order as for a whole
/// section, and a count too large for `u32` is reported after both.
fn get_counts<'a>(
    src: &mut impl Source<'a>,
    blocks: usize,
) -> Result<(usize, Vec<u32>), StoreError> {
    let (len, expected) = get_frame(src, b"CNTS")?;
    let row = src.bytes(len.min(4), "section payload")?;
    let mut crc = crc32_update(!0, &row);
    let mut counts = Vec::with_capacity((len - row.len()) / 8);
    // Arena position and value of the first count above `u32::MAX`.
    let mut overflow = None;
    src.pieces(len - row.len(), "section payload", |piece| {
        crc = crc32_update(crc, piece);
        for b in piece.chunks_exact(8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            let c = u64::from_le_bytes(a);
            if c > u64::from(u32::MAX) && overflow.is_none() {
                overflow = Some((counts.len(), c));
            }
            counts.push(c as u32);
        }
    })?;
    check_crc("CNTS", expected, !crc)?;

    let hours = Cursor::new(&row).u32("hour-row length")? as usize;
    if hours == 0 {
        return Err(StoreError::Malformed {
            context: "hour-row length is zero",
        });
    }
    let expect_counts = blocks.checked_mul(hours).ok_or(StoreError::Malformed {
        context: "blocks x hours overflows",
    })?;
    if expect_counts.checked_mul(8) != Some(len - 4) {
        return Err(StoreError::Malformed {
            context: "count arena length is not blocks x hours",
        });
    }
    if let Some((at, count)) = overflow {
        return Err(StoreError::CountOverflow {
            block: at / hours,
            hour: at % hours,
            count,
        });
    }
    Ok((hours, counts))
}

/// One `HIST` record, structurally: a canonical prefix, a fixed-width
/// body (one bounds check) and a 0/1 shape flag.
fn check_record(c: &mut Cursor<'_>) -> Result<(), StoreError> {
    get_prefix(c)?;
    let body = c.take(HIST_BODY_LEN, "history record")?;
    if body[HIST_BODY_LEN - 1] > 1 {
        return Err(StoreError::Malformed {
            context: "shape-estimated flag is neither 0 nor 1",
        });
    }
    Ok(())
}

/// `HIST`, checked as it streams in: `blocks` well-formed records with
/// nothing after the last, each compared byte for byte with the
/// encoding of the matching rebuilt history (when there are rebuilt
/// histories to compare). Records may straddle the pieces a file is
/// read in; no copy of the section is ever held whole.
struct HistoryCheck<'h> {
    rebuilt: Option<&'h [BlockHistory]>,
    blocks: usize,
    /// Records parsed so far.
    done: usize,
    /// Payload bytes not yet fed.
    unfed: usize,
    /// The unparsed end of what was fed: part of one record at most.
    carry: Vec<u8>,
    /// Whether every record so far equals its rebuilt history; the
    /// first structural error ends the check.
    outcome: Result<bool, StoreError>,
}

impl<'h> HistoryCheck<'h> {
    fn new(len: usize, blocks: usize, rebuilt: Option<&'h [BlockHistory]>) -> HistoryCheck<'h> {
        HistoryCheck {
            rebuilt,
            blocks,
            done: 0,
            unfed: len,
            carry: Vec::new(),
            outcome: Ok(true),
        }
    }

    fn feed(&mut self, piece: &[u8]) {
        self.unfed -= piece.len();
        if self.outcome.is_err() {
            return;
        }
        if self.carry.is_empty() {
            let used = self.parse(piece);
            self.carry.extend_from_slice(&piece[used..]);
        } else {
            let mut carry = std::mem::take(&mut self.carry);
            carry.extend_from_slice(piece);
            let used = self.parse(&carry);
            carry.drain(..used);
            self.carry = carry;
        }
    }

    /// Check the records at the front of `bytes`; returns the bytes
    /// consumed. Before the last piece, a record is only parsed once
    /// [`HIST_RECORD_MAX`] bytes are at hand, so a record cut by a piece
    /// boundary waits for the rest; in the last piece the cursor sees
    /// exactly what is left of the section, so a short record fails
    /// with the same `Truncated` as when the section is read whole.
    fn parse(&mut self, bytes: &[u8]) -> usize {
        let at_end = self.unfed == 0;
        let mut buf = [0u8; HIST_RECORD_MAX];
        let mut pos = 0;
        while self.done < self.blocks {
            let rest = &bytes[pos..];
            if !at_end && rest.len() < HIST_RECORD_MAX {
                return pos;
            }
            let mut c = Cursor::new(rest);
            if let Err(e) = check_record(&mut c) {
                self.outcome = Err(e);
                return bytes.len();
            }
            let record = &rest[..rest.len() - c.remaining()];
            if let (Some(rebuilt), Ok(true)) = (self.rebuilt, &self.outcome) {
                if history_record(&rebuilt[self.done], &mut buf) != record {
                    self.outcome = Ok(false);
                }
            }
            pos += record.len();
            self.done += 1;
        }
        if pos < bytes.len() || !at_end {
            self.outcome = Err(StoreError::Malformed {
                context: "trailing bytes after history entries",
            });
            return bytes.len();
        }
        pos
    }

    /// Whether every stored record equals its rebuilt history, or the
    /// first structural error. An empty section was never fed, so its
    /// records are checked (and found missing) here.
    fn finish(mut self) -> Result<bool, StoreError> {
        if self.outcome.is_ok() && self.done < self.blocks {
            let carry = std::mem::take(&mut self.carry);
            self.parse(&carry);
        }
        self.outcome
    }
}

/// `HIST`: frame, CRC, record structure and agreement with `rebuilt`,
/// in one pass as the payload arrives. Errors come in the same order
/// as for a section read whole: the CRC before any record's structure.
/// Returns whether every record agreed with `rebuilt`.
fn check_histories<'a>(
    src: &mut impl Source<'a>,
    blocks: usize,
    rebuilt: Option<&[BlockHistory]>,
) -> Result<bool, StoreError> {
    let (len, expected) = get_frame(src, b"HIST")?;
    let mut check = HistoryCheck::new(len, blocks, rebuilt);
    let mut crc = !0;
    src.pieces(len, "section payload", |piece| {
        crc = crc32_update(crc, piece);
        check.feed(piece);
    })?;
    check_crc("HIST", expected, !crc)?;
    check.finish()
}

/// Deserialize and fully validate a checkpoint. Total: every hostile
/// input returns a typed error; no partial model ever escapes.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, StoreError> {
    decode_from(&mut Cursor::new(bytes))
}

/// [`decode_checkpoint`] over any [`Source`]: the same checks in the
/// same order, whether the bytes are in memory or still in a file.
pub(crate) fn decode_from<'a>(src: &mut impl Source<'a>) -> Result<Checkpoint, StoreError> {
    let header = head(src, HEADER_LEN)?;
    let mut c = Cursor::new(&header);
    let magic = c.array::<4>("magic")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = c.u16("version")?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let reserved = c.u16("reserved")?;
    if reserved != 0 {
        return Err(StoreError::Malformed {
            context: "reserved header field is not zero",
        });
    }
    let fingerprint = c.u64("fingerprint")?;
    let start = c.u64("window start")?;
    let end = c.u64("window end")?;
    let sections = c.u32("section count")?;
    let expected = c.u32("header checksum")?;
    check_crc("header", expected, crc32(&header[..HEADER_LEN - 4]))?;
    if sections != SECTION_COUNT {
        return Err(StoreError::Malformed {
            context: "version-1 checkpoints have exactly 3 sections",
        });
    }
    if start > end {
        return Err(StoreError::Malformed {
            context: "history window ends before it starts",
        });
    }
    let window = Interval {
        start: UnixTime(start),
        end: UnixTime(end),
    };

    let index = decode_index(&get_section(src, b"INDX", "INDX")?)?;
    let (hours, counts) = get_counts(src, index.len())?;
    // Rebuild from the arena before HIST arrives, so its records are
    // compared as they stream in; the rebuild's own errors are held
    // back until HIST and the file's end have been checked, the order
    // they would come in if HIST were read first.
    let blocks = index.len();
    let model = LearnedModel::from_parts(window, index, counts);
    let rebuilt = match &model {
        Ok(m) if m.hours() == hours => Some(m.indexed().histories()),
        _ => None,
    };
    let consistent = check_histories(src, blocks, rebuilt)?;
    if src.left() != 0 {
        return Err(StoreError::Malformed {
            context: "trailing bytes after final section",
        });
    }
    let model = model?;
    if model.hours() != hours {
        return Err(StoreError::Inconsistent {
            context: "stored hour-row length disagrees with the window",
        });
    }
    if !consistent {
        return Err(StoreError::Inconsistent {
            context: "stored histories differ from histories rebuilt from the count arena",
        });
    }

    Ok(Checkpoint { fingerprint, model })
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::{Observation, UnixTime};

    fn sample_model() -> LearnedModel {
        let v4: Prefix = "192.0.2.0/24".parse().unwrap();
        let v6 = Prefix::v6_raw(0x2001_0db8_0000_0000_0000_0000_0000_0000, 48);
        let window = Interval::from_secs(0, 86_400);
        let obs: Vec<Observation> = (0..86_400u64)
            .step_by(20)
            .flat_map(|t| {
                [
                    Observation::new(UnixTime(t), v4),
                    Observation::new(UnixTime(t + 3), v6),
                ]
            })
            .collect();
        LearnedModel::learn(obs, window)
    }

    #[test]
    fn encode_decode_roundtrip_preserves_every_bit() {
        let model = sample_model();
        let c = Checkpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            model,
        };
        let bytes = encode_checkpoint(&c);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.fingerprint, c.fingerprint);
        assert_eq!(back.model.window(), c.model.window());
        assert_eq!(back.model.counts(), c.model.counts());
        assert_eq!(
            back.model.indexed().histories(),
            c.model.indexed().histories()
        );
        assert_eq!(
            back.model.index().prefixes(),
            c.model.index().prefixes(),
            "id order must survive the round trip"
        );
    }

    #[test]
    fn empty_model_roundtrips() {
        let model = LearnedModel::learn(std::iter::empty(), Interval::from_secs(0, 3_600));
        let bytes = encode_checkpoint(&Checkpoint {
            fingerprint: 7,
            model,
        });
        let back = decode_checkpoint(&bytes).unwrap();
        assert!(back.model.is_empty());
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = encode_checkpoint(&Checkpoint {
            fingerprint: 1,
            model: sample_model(),
        });
        bytes[0] = b'X';
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = encode_checkpoint(&Checkpoint {
            fingerprint: 1,
            model: sample_model(),
        });
        bytes[4] = 99;
        // Header CRC now disagrees too, but version is checked first so
        // the operator sees the *reason* rather than "corrupt".
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(StoreError::UnsupportedVersion { found: 99 })
        ));
    }

    /// Prefix encodings (family, length, little-endian address) computed
    /// from the address as one `u128`; checkpoint bytes depend on them.
    #[test]
    fn prefix_bytes_are_golden() {
        for (text, hex) in [
            ("0.0.0.0/0", "040000000000"),
            ("10.0.0.0/8", "04080000000a"),
            ("192.0.2.0/24", "0418000200c0"),
            ("255.255.255.255/32", "0420ffffffff"),
            ("::/0", "060000000000000000000000000000000000"),
            ("2001:db8::/48", "0630000000000000000000000000b80d0120"),
            ("2001:db8:42:1::/64", "0640000000000000000001004200b80d0120"),
            ("2001:db8:8000::/33", "0621000000000000000000000080b80d0120"),
            (
                "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
                "0680ffffffffffffffffffffffffffffffff",
            ),
        ] {
            let p: Prefix = text.parse().unwrap();
            let mut out = Vec::new();
            put_prefix(&mut out, &p);
            let got: String = out.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{text}");
            assert_eq!(get_prefix(&mut Cursor::new(&out)).unwrap(), p, "{text}");
        }
    }

    #[test]
    fn empty_input_is_truncated_not_panic() {
        assert!(matches!(
            decode_checkpoint(&[]),
            Err(StoreError::Truncated { .. })
        ));
    }
}
