//! CRC-32 (IEEE 802.3 polynomial, reflected), dependency-free.
//!
//! The one checksum kernel of the system, on disk and on the wire. Every
//! journal record carries a CRC over its kind byte and payload; every
//! segment header carries one over the other header bytes; every
//! `emprof-serve` protocol frame carries one over its payload and a
//! folded one over its header. CRC-32 detects all burst errors up to 32
//! bits and has a well-understood miss rate beyond that, which a
//! multiplicative hash such as FNV-1a does not guarantee.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the table kernel.
const SLICE: usize = 16;

/// The slice-by-16 tables. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so sixteen lookups advance the state sixteen bytes.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// Advances a raw (pre-inverted) CRC state over `bytes`: sixteen bytes
/// per step through the slice-by-16 tables, the tail bytewise.
fn advance(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = bytes.chunks_exact(SLICE);
    for block in &mut blocks {
        let b: &[u8; SLICE] = block.try_into().unwrap();
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// CRC-32 of `bytes` (IEEE, as used by zip/png/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    !advance(!0, bytes)
}

/// Incremental CRC-32: feed chunks through [`Crc32::update`], read the
/// digest with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = advance(self.state, bytes);
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise reference the table kernel must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (64-bit LCG, high byte).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"segmented append-only journal";
        let mut inc = Crc32::new();
        for chunk in data.chunks(5) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_digest() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[i] ^= 1 << bit;
                assert_ne!(crc32(&mutated), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn kernel_matches_bytewise_at_every_short_length() {
        let data = noise(256, 1);
        for len in 0..=256 {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn kernel_matches_bytewise_on_unaligned_subslices() {
        let data = noise(64 << 10, 2);
        let mut state = 5u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for _ in 0..200 {
            let start = next(data.len());
            let end = start + next(data.len() - start + 1);
            let s = &data[start..end];
            assert_eq!(crc32(s), crc32_bytewise(s), "{start}..{end}");
        }
    }

    #[test]
    fn update_split_at_every_boundary_matches_oneshot() {
        let data = noise(3 * SLICE + 7, 4);
        let want = crc32_bytewise(&data);
        for split in 0..=data.len() {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), want, "split at {split}");
        }
        for chunk in 1..=2 * SLICE + 1 {
            let mut inc = Crc32::new();
            for c in data.chunks(chunk) {
                inc.update(c);
            }
            assert_eq!(inc.finish(), want, "chunks of {chunk}");
        }
    }
}
