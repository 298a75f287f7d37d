//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — no
//! dependency, no runtime init beyond a CPU feature probe.
//!
//! CRC32 detects *all* single-bit errors and all burst errors up to 32
//! bits, which is exactly the corruption class the store's corruption
//! tests inject; anything larger is caught with probability `1 - 2^-32`
//! per section.
//!
//! Every checkpoint byte passes through here on both save and load, so
//! there are two kernels, bit-identical to each other and to the plain
//! bit-at-a-time CRC:
//!
//! * **Carry-less multiply (x86_64).** When the CPU has `pclmulqdq` and
//!   `sse4.1` (probed once at run time with `is_x86_feature_detected!`),
//!   inputs of 64 bytes or more are folded 64 bytes per step in four
//!   independent 128-bit lanes, then reduced to 32 bits with a Barrett
//!   step — the scheme of Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ" paper, with the folding constants zlib
//!   and Linux use for this polynomial. The last `len % 16` bytes go
//!   through the sliced loop.
//! * **Slicing-by-16 (everywhere).** Shorter inputs, other targets and
//!   older CPUs fold sixteen bytes at a time through compile-time
//!   tables: table `k` holds the CRC contribution of a byte followed by
//!   `k` zero bytes, so the sixteen lookups of one step are independent
//!   and the loop runs at several bytes per cycle. The tail (under
//!   sixteen bytes) goes byte by byte through table 0. This loop is
//!   also the test oracle for the carry-less kernel.

/// Bytes folded per step of the sliced loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-wise table; `TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Advance a raw CRC register over `bytes`. Start a checksum at `!0`,
/// feed its bytes in any number of pieces, and complement the result:
/// the value equals [`crc32`] over the pieces concatenated.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    clmul::update(crc, bytes).unwrap_or_else(|| sliced_update(crc, bytes))
}

/// [`crc32_update`] through the slicing-by-16 tables alone.
fn sliced_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(SLICES);
    for c in &mut chunks {
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply kernel (x86_64 with `pclmulqdq` and
/// `sse4.1`).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the kernel takes: one block of four lanes.
    const MIN_LEN: usize = 64;

    /// Fold constants for the reflected polynomial: `x^n mod P(x)` for
    /// each fold distance `n`, bit-reflected and shifted one left, as
    /// zlib's `crc32_simd.c` and Linux's `crc32-pclmul_asm.S` have them. `K1K2` folds a lane 512
    /// bits forward, `K3K4` 128 bits, `K5` 64 to 32, and `POLY_MU` is
    /// the polynomial and its Barrett quotient.
    const K1K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    const K3K4: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    const K5: i64 = 0x1_63cd_6124;
    const POLY_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// [`super::crc32_update`] through the kernel, with the last
    /// `len % 16` bytes through the sliced loop; `None` when `bytes` is
    /// shorter than [`MIN_LEN`] or the CPU lacks the instructions.
    pub(super) fn update(crc: u32, bytes: &[u8]) -> Option<u32> {
        if bytes.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `fold` is safe code compiled for `pclmulqdq` and
        // `sse4.1`; calling it is sound exactly when the CPU has both,
        // which was checked just above.
        let crc = unsafe { fold(crc, body) };
        Some(super::sliced_update(crc, tail))
    }

    /// Fold `bytes` (at least 64 long, a multiple of 16) into the raw
    /// register `crc`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= MIN_LEN && bytes.len().is_multiple_of(16));
        // Sixteen bytes as a vector, low byte first.
        let load = |b: &[u8]| {
            let half = |h: &[u8]| u64::from_le_bytes(h.try_into().expect("8-byte half")) as i64;
            _mm_set_epi64x(half(&b[8..16]), half(&b[..8]))
        };
        let (head, rest) = bytes.split_at(MIN_LEN);
        let mut lanes = [0, 1, 2, 3].map(|i| load(&head[16 * i..16 * (i + 1)]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        // x·k, folded: the lane's low half times `k`'s low half plus its
        // high half times `k`'s high half, added to the data it lands on.
        let step = |x: __m128i, k: __m128i, y: __m128i| {
            _mm_xor_si128(
                _mm_xor_si128(
                    _mm_clmulepi64_si128::<0x00>(x, k),
                    _mm_clmulepi64_si128::<0x11>(x, k),
                ),
                y,
            )
        };

        // Four lanes, 64 bytes per step.
        let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
        let mut blocks = rest.chunks_exact(MIN_LEN);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = step(*lane, k1k2, load(&block[16 * i..16 * (i + 1)]));
            }
        }

        // Four lanes into one, then the remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = step(x, k3k4, lane);
        }
        for block in blocks.remainder().chunks_exact(16) {
            x = step(x, k3k4, load(block));
        }

        // 128 bits to 64, then 64 to 32.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction to the 32-bit remainder.
        let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
}

/// Other targets have no carry-less kernel: every input takes the
/// sliced loop.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn update(_crc: u32, _bytes: &[u8]) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook CRC register update, one bit at a time,
    /// independent of the tables and the kernel.
    fn bitwise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length 0..=4096 from every start offset 0..16 (unaligned
    /// heads, every tail length, one and many four-lane blocks): the
    /// dispatching update, the sliced loop, the carry-less kernel (where
    /// the CPU has it and the input is long enough) and the bitwise
    /// reference agree, fed whole and fed in two pieces.
    #[test]
    fn kernels_match_bitwise_at_every_length_offset_and_split() {
        const MAX: usize = 4096;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..MAX + SLICES)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let mut kernel_runs = 0usize;
        for offset in 0..SLICES {
            // The reference register, advanced one byte per length.
            let mut reference = !0u32;
            for len in 0..=MAX {
                if len > 0 {
                    reference = bitwise_update(reference, &data[offset + len - 1..offset + len]);
                }
                let s = &data[offset..offset + len];
                assert_eq!(
                    sliced_update(!0, s),
                    reference,
                    "sliced: offset {offset}, length {len}"
                );
                if let Some(k) = clmul::update(!0, s) {
                    assert_eq!(k, reference, "kernel: offset {offset}, length {len}");
                    kernel_runs += 1;
                }
                assert_eq!(crc32(s), !reference, "offset {offset}, length {len}");
                // Split at a point that walks through every residue of
                // the 16- and 64-byte blocks as the length grows.
                let (a, b) = s.split_at((len * (2 * offset + 1) / (2 * SLICES)).min(len));
                assert_eq!(
                    crc32_update(crc32_update(!0, a), b),
                    reference,
                    "split {}",
                    a.len()
                );
            }
        }
        #[cfg(target_arch = "x86_64")]
        let has_kernel = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let has_kernel = false;
        let want = if has_kernel {
            SLICES * (MAX + 1 - 64)
        } else {
            0
        };
        assert_eq!(
            kernel_runs, want,
            "the kernel takes every input of 64+ bytes it can"
        );
    }

    /// One input split at every point, with both pieces taking either
    /// kernel: the register carries across pieces however they fall.
    #[test]
    fn every_split_point_gives_the_whole_crc() {
        let data: Vec<u8> = (0..1_200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let want = bitwise_update(!0, &data);
        for at in 0..=data.len() {
            let (a, b) = data.split_at(at);
            assert_eq!(crc32_update(crc32_update(!0, a), b), want, "split at {at}");
            assert_eq!(
                sliced_update(sliced_update(!0, a), b),
                want,
                "sliced split at {at}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let base = b"passive outage model store".to_vec();
        let c0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), c0, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
