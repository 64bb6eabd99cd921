//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) with runtime
//! kernel dispatch.
//!
//! Two tiers compute the same function, picked **once** per process:
//!
//! * **CLMUL** (x86_64 with `pclmulqdq` + `sse4.1`): carry-less-multiply
//!   folding — four 128-bit accumulators fold 64 bytes per step, then fold
//!   into one, then a Barrett reduction to 32 bits. Inputs shorter than
//!   128 bytes and the sub-16-byte tail go to the portable tier.
//! * **Slice-by-16** (every architecture, and x86_64 under
//!   `IQ_FORCE_SCALAR=1`): sixteen 256-entry tables built at compile time
//!   consume 16 bytes per step.
//!
//! The bytewise single-table loop is the oracle both tiers are tested
//! against, and handles the slice-by-16 tail. The tiers differ only in
//! speed: the register value after any prefix is the same, so streaming
//! through [`crc32_update`] may switch tiers between chunks.

use std::sync::OnceLock;

/// A CRC32 implementation tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrcKernel {
    /// Portable slice-by-16 tables; always available.
    Slice16,
    /// x86_64 carry-less-multiply folding (`pclmulqdq` + `sse4.1`).
    Clmul,
}

impl CrcKernel {
    /// Stable lowercase name (`slice16` / `clmul`).
    pub fn name(self) -> &'static str {
        match self {
            CrcKernel::Slice16 => "slice16",
            CrcKernel::Clmul => "clmul",
        }
    }
}

static DETECTED: OnceLock<CrcKernel> = OnceLock::new();

fn detect() -> CrcKernel {
    if std::env::var("IQ_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        return CrcKernel::Slice16;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return CrcKernel::Clmul;
        }
    }
    CrcKernel::Slice16
}

/// The tier [`crc32_update`] dispatches to in this process.
#[inline]
pub fn crc_kernel() -> CrcKernel {
    *DETECTED.get_or_init(detect)
}

/// CRC32 (IEEE 802.3, reflected, init/final `0xFFFF_FFFF`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks with `state` starting at `0xFFFF_FFFF`,
/// xor with `0xFFFF_FFFF` at the end.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if crc_kernel() == CrcKernel::Clmul && bytes.len() >= CLMUL_MIN_LEN {
        // SAFETY: `Clmul` is only detected when the CPU reports
        // `pclmulqdq` and `sse4.1`.
        return unsafe { update_clmul(state, bytes) };
    }
    update_slice16(state, bytes)
}

/// The bytewise single-table loop: the oracle, and the < 16-byte tail of
/// [`update_slice16`].
fn update_bytewise(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = TABLES[0][idx] ^ (crc >> 8);
    }
    crc
}

fn update_slice16(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        // Byte `i` of the chunk lies 15 - i bytes before its end, so it is
        // advanced through table 15 - i.
        crc = TABLES[15][(a & 0xFF) as usize]
            ^ TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ TABLES[12][(a >> 24) as usize];
        for (i, &b) in c[4..].iter().enumerate() {
            crc ^= TABLES[11 - i][b as usize];
        }
    }
    update_bytewise(crc, chunks.remainder())
}

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// register contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
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

/// Shortest input the CLMUL tier folds; shorter ones go to slice-by-16.
const CLMUL_MIN_LEN: usize = 128;

// Folding constants for the reflected polynomial, each a 33-bit value
// `reflect(x^n mod P) << 1` (see `clmul_constants_derive_from_the_polynomial`).
/// Fold one of four accumulators forward by 512 bits: `n = 4·128 + 32`.
const K1: i64 = 0x1_5444_2bd4;
/// ... its high-half partner: `n = 4·128 − 32`.
const K2: i64 = 0x1_c6e4_1596;
/// Fold forward by 128 bits: `n = 128 + 32`.
const K3: i64 = 0x1_7519_97d0;
/// ... its high-half partner: `n = 128 − 32`.
const K4: i64 = 0x0_ccaa_009e;
/// Reduce 96 to 64 bits: `n = 64`.
const K5: i64 = 0x1_63cd_6124;
/// The polynomial `P`, reflected (33 bits).
const P_X: i64 = 0x1_db71_0641;
/// Barrett constant `reflect(x^64 / P)` (33 bits).
const U_PRIME: i64 = 0x1_f701_1641;

/// CLMUL folding over `bytes.len() >= CLMUL_MIN_LEN`; the sub-16-byte tail
/// goes to the portable tier.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn update_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // The four seed loads below need at least 64 bytes.
    assert!(bytes.len() >= CLMUL_MIN_LEN);
    let blocks = bytes.len() / 16;
    let load = |i: usize| -> __m128i {
        debug_assert!(i < blocks);
        // SAFETY: every caller below keeps `i < blocks`, so the 16 bytes
        // at `i * 16` lie inside `bytes`; the load is unaligned.
        unsafe { _mm_loadu_si128(bytes.as_ptr().add(i * 16).cast()) }
    };

    // Four accumulators, the first seeded with the running register.
    let mut x0 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(state as i32));
    let mut x1 = load(1);
    let mut x2 = load(2);
    let mut x3 = load(3);
    let mut i = 4;
    let k1k2 = _mm_set_epi64x(K2, K1);
    while i + 4 <= blocks {
        x0 = fold_128(x0, load(i), k1k2);
        x1 = fold_128(x1, load(i + 1), k1k2);
        x2 = fold_128(x2, load(i + 2), k1k2);
        x3 = fold_128(x3, load(i + 3), k1k2);
        i += 4;
    }

    // Fold the four into one, then one block at a time.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold_128(x0, x1, k3k4);
    x = fold_128(x, x2, k3k4);
    x = fold_128(x, x3, k3k4);
    while i < blocks {
        x = fold_128(x, load(i), k3k4);
        i += 1;
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );

    // Barrett reduction 64 → 32 bits (bit-reflected: the result is the
    // upper half of the low quadword).
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

    update_slice16(crc, &bytes[blocks * 16..])
}

/// `acc · x^n ⊕ next`: the low quadword of `acc` times the low key, the
/// high quadword times the high key, both xored into `next`.
///
/// # Safety
/// The CPU must support `pclmulqdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
#[inline]
unsafe fn fold_128(
    acc: std::arch::x86_64::__m128i,
    next: std::arch::x86_64::__m128i,
    keys: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
    let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic non-trivial bytes.
    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn oracle(bytes: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Every length 0..=3·8192, each at one of the 16 start offsets (the
    /// offset cycles every 16 lengths, so every offset meets every tail
    /// length). The oracle runs incrementally over each offset's prefixes.
    #[test]
    fn dispatched_matches_oracle_at_every_length_and_offset() {
        const MAX: usize = 3 * 8192;
        let buf = payload(MAX + 16, 1);
        let prefix_states: Vec<Vec<u32>> = (0..16)
            .map(|off| {
                let mut states = vec![0xFFFF_FFFF];
                for &b in &buf[off..off + MAX] {
                    states.push(update_bytewise(*states.last().unwrap(), &[b]));
                }
                states
            })
            .collect();
        for len in 0..=MAX {
            let off = (len / 16) % 16;
            let want = prefix_states[off][len] ^ 0xFFFF_FFFF;
            assert_eq!(crc32(&buf[off..off + len]), want, "len {len} offset {off}");
        }
    }

    #[test]
    fn boundary_lengths_on_both_tiers() {
        let buf = payload(8192 + 16, 2);
        for len in [0, 1, 15, 16, 17, 63, 64, 127, 128, 129, 191, 8188, 8192] {
            for off in [0, 1, 3, 15] {
                let s = &buf[off..off + len];
                let want = update_bytewise(0xFFFF_FFFF, s);
                assert_eq!(update_slice16(0xFFFF_FFFF, s), want, "slice16 len {len}");
                assert_eq!(crc32_update(0xFFFF_FFFF, s), want, "len {len}");
            }
        }
    }

    /// Pins the portable tier at runtime and checks it against whatever
    /// tier detection picked, streaming state included.
    #[test]
    fn portable_tier_matches_detected_tier() {
        let buf = payload(5 * 8192 + 77, 3);
        for (lo, hi) in [(0, buf.len()), (5, 8193), (100, 229), (0, 127), (9, 9)] {
            let s = &buf[lo..hi];
            for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
                assert_eq!(
                    update_slice16(state, s),
                    crc32_update(state, s),
                    "{} on {lo}..{hi} from {state:#x}",
                    crc_kernel().name()
                );
            }
        }
    }

    #[test]
    fn clmul_constants_derive_from_the_polynomial() {
        const P: u64 = 0x1_04C1_1DB7; // x^32 + ... + 1, normal bit order
        let x_pow_mod = |n: u32| {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= P;
                }
            }
            r
        };
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        let key = |n: u32| (reflect(x_pow_mod(n), 32) << 1) as i64;
        assert_eq!(key(4 * 128 + 32), K1);
        assert_eq!(key(4 * 128 - 32), K2);
        assert_eq!(key(128 + 32), K3);
        assert_eq!(key(128 - 32), K4);
        assert_eq!(key(64), K5);
        assert_eq!(reflect(P, 33) as i64, P_X);
        // Quotient of x^64 by P, by long division over GF(2).
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        while 128 - rem.leading_zeros() >= 33 {
            let shift = 128 - rem.leading_zeros() - 33;
            quot |= 1 << shift;
            rem ^= u128::from(P) << shift;
        }
        assert_eq!(reflect(quot, 33) as i64, U_PRIME);
    }

    proptest! {
        /// Streaming over random chunk boundaries carries the register
        /// across tiers (chunks ≥ 128 bytes fold by CLMUL, shorter ones
        /// take slice-by-16) and still equals the one-shot oracle.
        #[test]
        fn streaming_splits_match_oracle(
            len in 0usize..=3 * 8192,
            off in 0usize..16,
            cuts in proptest::collection::vec(0usize..=3 * 8192, 0..8),
            seed in 0u64..u64::MAX,
        ) {
            let buf = payload(off + len, seed);
            let s = &buf[off..];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.push(len);
            cuts.sort_unstable();
            let mut state = 0xFFFF_FFFF;
            let mut at = 0;
            for c in cuts {
                state = crc32_update(state, &s[at..c]);
                at = c;
            }
            prop_assert_eq!(state ^ 0xFFFF_FFFF, oracle(s));
        }
    }
}
