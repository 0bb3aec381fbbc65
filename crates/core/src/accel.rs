//! Hardware steps for the two hashing kernels, picked at run time.
//!
//! This module is the only place in the workspace allowed `unsafe`
//! code. On `x86_64` it checks the CPU with `is_x86_feature_detected!`
//! on every call (std caches the answer) and only then enters a
//! `#[target_feature]` function built on `std::arch` intrinsics. On any
//! other target a stub with the same signatures reports "no hardware".
//! Either way the entry points are safe: they return `false` or `None`
//! when the CPU lacks the instructions, and the caller falls back to the
//! portable step, which stays the reference.
//!
//! - [`sha256_compress`] runs SHA-256 compression rounds with the SHA
//!   extensions (`sha256rnds2`, `sha256msg1`, `sha256msg2`); its
//!   portable twin is `chunk::compress_portable`.
//! - [`crc32_fold`] folds the IEEE CRC32 state over a 16-byte-multiple
//!   bulk with PCLMULQDQ (Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009);
//!   its portable twin is `checksum::slice16`.
//!
//! Both produce bit-identical results to their twins; the tests in
//! `chunk.rs` and `checksum.rs` compare them directly.

#[cfg(target_arch = "x86_64")]
mod imp {
    use crate::chunk::SHA256_K;
    use std::arch::x86_64::*;

    fn has_sha_ni() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    fn has_clmul() -> bool {
        is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Run SHA-256 compression over `blocks` with the SHA extensions.
    /// Returns `false`, leaving `state` untouched, when the CPU lacks
    /// them.
    pub(crate) fn sha256_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        if !has_sha_ni() {
            return false;
        }
        // SAFETY: `has_sha_ni` just confirmed every feature that
        // `sha256_ni` is compiled with (sha, sse2, ssse3, sse4.1).
        unsafe { sha256_ni(state, blocks) };
        true
    }

    /// Fold the raw (pre-inverted) CRC32 state over `bytes` with
    /// PCLMULQDQ. Returns `None` when the CPU lacks the instruction or
    /// when `bytes` is shorter than 64 B or not a multiple of 16 B.
    pub(crate) fn crc32_fold(state: u32, bytes: &[u8]) -> Option<u32> {
        if bytes.len() < 64 || !bytes.len().is_multiple_of(16) || !has_clmul() {
            return None;
        }
        // SAFETY: `has_clmul` just confirmed every feature that
        // `crc32_clmul` is compiled with (pclmulqdq, sse2, sse4.1), and
        // the length check above is the one its loads rely on.
        Some(unsafe { crc32_clmul(state, bytes) })
    }

    /// Four SHA-256 rounds on `abef`/`cdgh` with the message words `w`
    /// (already in schedule order) plus round constants `4·i .. 4·i+4`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &SHA256_K[4 * i..4 * i + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four schedule words from the previous sixteen.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// SHA-256 compression with the SHA extensions. The state is kept
    /// in the layout `sha256rnds2` works on: one register holds words
    /// A, B, E, F and the other C, D, G, H.
    ///
    /// # Safety
    ///
    /// Calling it needs an `unsafe` block, and is sound only on a CPU
    /// with every enabled feature: the one caller checks
    /// [`has_sha_ni`] (`is_x86_feature_detected!`) first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn sha256_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte swap of each big-endian message word.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let (abef0, cdgh0) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 bytes, so offsets 0, 16, 32 and 48
            // each start a 16-byte load inside it; `_mm_loadu_si128`
            // has no alignment requirement.
            let mut w = unsafe { [0, 1, 2, 3].map(|i| _mm_loadu_si128(p.add(i))) };
            for wi in &mut w {
                *wi = _mm_shuffle_epi8(*wi, bswap);
            }
            for (i, &wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, i);
            }
            for i in 4..16 {
                let next = schedule(w[0], w[1], w[2], w[3]);
                w = [w[1], w[2], w[3], next];
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }

    /// Fold `bytes` into the raw CRC32 state: four 128-bit lanes in
    /// parallel, then one lane, then 64 bits, then a Barrett reduction
    /// to 32. The constants are the bit-reflected ones for the IEEE
    /// polynomial, as zlib uses them. `bytes` must hold at least 64 B
    /// and a multiple of 16 B: shorter input panics, and a remainder
    /// would be left out of the CRC.
    ///
    /// # Safety
    ///
    /// Calling it needs an `unsafe` block, and is sound only on a CPU
    /// with every enabled feature: the one caller checks [`has_clmul`]
    /// (`is_x86_feature_detected!`) and the length first.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn crc32_clmul(state: u32, bytes: &[u8]) -> u32 {
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        let poly = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        // x·k (both 64-bit halves) folded onto `next`.
        let fold = |x: __m128i, k: __m128i, next: __m128i| {
            let lo = _mm_clmulepi64_si128::<0x00>(x, k);
            let hi = _mm_clmulepi64_si128::<0x11>(x, k);
            _mm_xor_si128(_mm_xor_si128(hi, lo), next)
        };

        let (blocks, _) = bytes.as_chunks::<16>();
        let load = |b: &[u8; 16]| {
            // SAFETY: `b` is 16 readable bytes; `_mm_loadu_si128` has
            // no alignment requirement.
            unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
        };
        let (first, rest) = blocks.split_at(4);
        let mut x = [0, 1, 2, 3].map(|i| load(&first[i]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (xi, b) in x.iter_mut().zip(quad) {
                *xi = fold(*xi, k1k2, load(b));
            }
        }
        let mut x1 = fold(fold(fold(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
        for b in singles {
            x1 = fold(x1, k3k4, load(b));
        }

        // 128 → 64 bits.
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
        let x2 = _mm_srli_si128::<4>(x1);
        x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k5);
        x1 = _mm_xor_si128(x1, x2);

        // Barrett reduction to 32 bits.
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        _mm_extract_epi32::<1>(_mm_xor_si128(x1, t)) as u32
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    /// No hardware SHA-256 step on this target.
    pub(crate) fn sha256_compress(_state: &mut [u32; 8], _blocks: &[[u8; 64]]) -> bool {
        false
    }

    /// No hardware CRC32 fold on this target.
    pub(crate) fn crc32_fold(_state: u32, _bytes: &[u8]) -> Option<u32> {
        None
    }
}

pub(crate) use imp::{crc32_fold, sha256_compress};

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// Whenever the CPU reports the instructions, the dispatcher must
    /// take the hardware step, so the differential tests in `chunk.rs`
    /// and `checksum.rs` really compare two implementations.
    #[test]
    fn dispatch_takes_hardware_when_the_cpu_has_it() {
        let sha = ["sha", "sse2", "ssse3", "sse4.1"];
        let sha_cpu = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        let clmul_cpu = is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("sse4.1");
        eprintln!("cpu: {sha:?} = {sha_cpu}, pclmulqdq+sse2+sse4.1 = {clmul_cpu}");
        assert_eq!(sha256_compress(&mut [0; 8], &[[0; 64]]), sha_cpu);
        assert_eq!(crc32_fold(!0, &[0; 64]).is_some(), clmul_cpu);
        // Lengths the fold cannot take are refused, never read past.
        assert_eq!(crc32_fold(!0, &[0; 48]), None);
        assert_eq!(crc32_fold(!0, &[0; 72]), None);
    }
}
