//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven and built
//! at compile time. The framing layer uses it to distinguish a record
//! that was written in full from one damaged by a crash or bit rot; it is
//! an integrity check, not a cryptographic one.
//!
//! The loop is slicing-by-8: eight tables, where table `k` advances the
//! register over one byte followed by `k` zero bytes, fold eight input
//! bytes per step with eight independent lookups instead of a chain of
//! eight dependent ones. The bytes left over after the last whole group
//! of eight take the bytewise loop. Both compute the same function.
//!
//! `Crc32` folds the same register over several pieces in turn, so a
//! checksum over a concatenation never has to build it.

/// `TABLES[0]` is the classic 256-entry table, one step of the bitwise
/// algorithm per byte value; `TABLES[k][b]` is `TABLES[k - 1][b]`
/// advanced over one more zero byte. Generated in a const context, so
/// the runtime cost is the lookups alone.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
};

/// One bytewise step of the register over `b`.
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// The register advanced over `data`, eight bytes per step.
fn update(crc: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = crc;
    let mut groups = data.chunks_exact(8);
    for g in &mut groups {
        let lo = crc ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[g[4] as usize]
            ^ t2[g[5] as usize]
            ^ t1[g[6] as usize]
            ^ t0[g[7] as usize];
    }
    groups.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

/// CRC-32 of `data` (initial value all-ones, final complement — the
/// standard "crc32" everyone else computes).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// CRC-32 over pieces fed in order: the result is [`crc32`] of their
/// concatenation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32 {
    register: u32,
}

impl Crc32 {
    /// The register before any byte.
    pub(crate) fn new() -> Crc32 {
        Crc32 { register: u32::MAX }
    }

    /// Feed the next piece.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.register = update(self.register, data);
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finish(self) -> u32 {
        !self.register
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise loop over the whole input: the reference the sliced
    /// loop must match.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(u32::MAX, |crc, &b| step(crc, b))
    }

    /// The sliced loop equals the bytewise one at every alignment of
    /// the input, for every length up to a few groups of eight and for
    /// a few large buffers.
    #[test]
    fn sliced_matches_bytewise() {
        let mut state = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..70_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        for start in 0..=8 {
            for len in (0..=64).chain([255, 4096, 65_537]) {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start} len {len}");
            }
        }
    }

    /// Feeding pieces equals the checksum of their concatenation, at
    /// every split of the input into three pieces.
    #[test]
    fn piecewise_matches_whole() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut crc = Crc32::new();
                crc.update(&data[..a]);
                crc.update(&data[a..b]);
                crc.update(&data[b..]);
                assert_eq!(crc.finish(), crc32(&data), "split at {a} and {b}");
            }
        }
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = b"qbdp wal record payload".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
