//! Slicing-by-8 CRC-32 (IEEE 802.3 polynomial, reflected), the checksum
//! guarding every WAL record, checkpoint payload and wire frame.
//! Self-contained because the build environment is offline — no
//! `crc32fast` here.
//!
//! The classic bytewise loop does one dependent table lookup per byte.
//! Slicing-by-8 folds eight bytes per step with eight independent lookups
//! into eight tables (Kounavis and Berry), about four times faster on a
//! checkpoint-sized payload, with exactly the same values.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table: the CRC register after shifting byte
/// `i` through it. `TABLES[k][i]` is the same for byte `i` followed by `k`
/// zero bytes, so the byte at offset `7 - k` of an eight-byte word
/// contributes `TABLES[k]` of itself. Computed at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Shifts one byte through the register (the tail of a slicing pass).
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// CRC-32 of `data` (init `!0`, final xor `!0` — the standard "crc32").
pub fn crc32(data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for w in words {
        let x = u64::from_le_bytes(*w) ^ crc as u64;
        let at = |k: usize, shift: u32| TABLES[k][((x >> shift) & 0xFF) as usize];
        crc = at(7, 0)
            ^ at(6, 8)
            ^ at(5, 16)
            ^ at(4, 24)
            ^ at(3, 32)
            ^ at(2, 40)
            ^ at(1, 48)
            ^ at(0, 56);
    }
    !tail.iter().fold(crc, |crc, &b| step(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise definition slicing-by-8 must agree with.
    fn reference(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| step(crc, b))
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slicing_matches_the_bytewise_reference() {
        // A seeded (splitmix64) buffer; every length 0..=64 at every start
        // offset 0..8 covers each word alignment and tail length.
        let mut s = 0x5EED_u64;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    reference(data),
                    "length {len} at offset {start}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&data), clean);
    }
}
