//! CRC-32 (IEEE 802.3 polynomial, the `zlib`/`gzip` checksum).
//!
//! The container is offline, so the usual `crc32fast` crate is not
//! available; this is the standard *slice-by-8* table fold, run in
//! [`LANES`] interleaved lanes on long inputs.
//!
//! *Slice-by-8.* Eight 256-entry tables, built at compile time, let `step`
//! fold eight input bytes at once. Table `k` holds the CRC of a byte
//! followed by `k` zero bytes, so the eight look-ups of one step are
//! independent and their XOR equals eight rounds of the byte-at-a-time
//! recurrence.
//!
//! *Why lanes.* Each step's look-ups are indexed by the register the
//! previous step produced, so one fold is a single chain of dependent loads
//! and runs at load latency, not at the core's load throughput. An input of
//! at least [`LANE_MIN`] bytes is cut into [`LANES`] lanes of `L` bytes each
//! (`L` a multiple of 8) plus a short tail, and one loop advances one
//! register per lane, so that many independent chains are in flight.
//!
//! *Why the lanes join exactly.* The register update is linear over GF(2),
//! so the register after `A‖B` is the register after `A` advanced past
//! `|B|` zero bytes, XOR the register of `B` started from 0. Advancing past
//! `n` zero bytes is multiplication by `x^(8n)` modulo the polynomial
//! (`mul_mod_p`, on the reflected bit order). Lane 0 starts from the usual
//! `0xFFFF_FFFF`, the others from 0, and the lanes join as
//! `crc = crc · x^(8L) ⊕ lane`. A table holds `x^(8·2^k)` for every `k`, so
//! `x^(8L)` costs one multiply per set bit of `L`, not a loop over `L`.
//!
//! The values are bit-identical to the bytewise algorithm (differential
//! tests below hold the two together), so nothing on disk changes.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Independent fold chains over a long input.
pub const LANES: usize = 4;

/// Inputs shorter than this take the single-chain fold: below it the joins
/// cost more than the overlap saves.
pub const LANE_MIN: usize = LANES * 64;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][i] advances tables[k-1][i] by one more zero byte.
    let mut k = 1;
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// `a · b` modulo the polynomial, both in the reflected bit order (bit 31
/// is `x^0`). The carry-less product fills 63 bits of a `u64` (bit 63 is
/// `x^0`); its terms from `x^32` up sit in the low word, which is reduced
/// by advancing it past four zero bytes. No branch depends on the data, and
/// no term of the product waits on another.
const fn mul_mod_p(a: u32, b: u32) -> u32 {
    let a = (a as u64) << 32;
    let mut wide = 0u64;
    let mut bit = 0;
    while bit < 32 {
        wide ^= (a >> bit) & ((b << bit) as i32 >> 31) as i64 as u64;
        bit += 1;
    }
    let over = wide as u32;
    (wide >> 32) as u32
        ^ TABLES[3][(over & 0xFF) as usize]
        ^ TABLES[2][((over >> 8) & 0xFF) as usize]
        ^ TABLES[1][((over >> 16) & 0xFF) as usize]
        ^ TABLES[0][(over >> 24) as usize]
}

/// `X8N[k]` is `x^(8·2^k)`: the shift past `2^k` zero bytes.
static X8N: [u32; usize::BITS as usize] = {
    let mut table = [0u32; usize::BITS as usize];
    table[0] = 1 << (31 - 8);
    let mut k = 1;
    while k < table.len() {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// `x^(8n)`: the shift past `n` zero bytes.
fn zeros_shift(n: usize) -> u32 {
    let mut shift = 1 << 31;
    let mut rest = n;
    let mut k = 0;
    while rest != 0 {
        if rest & 1 != 0 {
            shift = mul_mod_p(X8N[k], shift);
        }
        rest >>= 1;
        k += 1;
    }
    shift
}

/// Folds eight bytes into the register.
#[inline(always)]
fn step(crc: u32, c: &[u8; 8]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][c[4] as usize]
        ^ TABLES[2][c[5] as usize]
        ^ TABLES[1][c[6] as usize]
        ^ TABLES[0][c[7] as usize]
}

/// The raw register after folding `bytes` into `crc`, in one chain.
fn fold(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for c in words {
        crc = step(crc, c);
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < LANE_MIN {
        return !fold(0xFFFF_FFFF, bytes);
    }
    let lane_words = bytes.len() / (8 * LANES);
    let (words, _) = bytes.as_chunks::<8>();
    let lanes: [&[[u8; 8]]; LANES] =
        std::array::from_fn(|l| &words[l * lane_words..(l + 1) * lane_words]);
    let mut regs = [0u32; LANES];
    regs[0] = 0xFFFF_FFFF;
    for i in 0..lane_words {
        for (reg, lane) in regs.iter_mut().zip(&lanes) {
            *reg = step(*reg, &lane[i]);
        }
    }
    let shift = zeros_shift(8 * lane_words);
    let mut crc = regs[0];
    for &lane in &regs[1..] {
        crc = mul_mod_p(shift, crc) ^ lane;
    }
    !fold(crc, &bytes[8 * lane_words * LANES..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time recurrence the sliced kernel must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one 8-byte step, with a tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"scoop-store");
        let mut flipped = b"scoop-store".to_vec();
        flipped[4] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }

    proptest! {
        /// Payloads up to 64 KiB at every start offset 0..8: unaligned
        /// heads, 1–7-byte tails and every lane length the sizes reach.
        #[test]
        fn sliced_equals_bytewise(data in proptest::collection::vec(0u8..=255, 0..65_544)) {
            for offset in 0..8 {
                let bytes = &data[offset.min(data.len())..];
                prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {}", offset);
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_short_length_and_offset() {
        let data: Vec<u8> = (0..2_056u32).map(|i| (i * 131 + 7) as u8).collect();
        for offset in 0..8 {
            for len in 0..=2_048 {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// The identity the lane join rests on: the register after `A‖B` is the
    /// register after `A` shifted past `|B|` bytes, XOR `B` folded from 0.
    #[test]
    fn concatenation_is_a_shift_and_xor() {
        let data: Vec<u8> = (0..3 * LANE_MIN as u32)
            .map(|i| (i * 197 + 3) as u8)
            .collect();
        for split in (0..=data.len())
            .step_by(7)
            .chain([LANE_MIN - 1, LANE_MIN, LANE_MIN + 1])
        {
            let (a, b) = data.split_at(split);
            let joined = mul_mod_p(zeros_shift(b.len()), !crc32(a)) ^ fold(0, b);
            assert_eq!(crc32(&data), !joined, "split {split}");
        }
    }
}
