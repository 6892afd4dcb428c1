//! Integer (i64) kernels of [`crate::ApproxIntFft`]: lifting butterflies,
//! twist folds, and the 128-bit pointwise and TGSW-scale accumulates.
//!
//! Each kernel has a scalar leg (`i128` products) and an AVX-512F leg that
//! runs eight `i64` lanes and is **bit-identical** to it. The vector leg
//! rebuilds every exact 128-bit product from four 32×32→64 `vpmuludq` limb
//! products plus a signed high-word correction, adds the rounding constant
//! with an explicit carry, and recombines the wanted 64 bits with logical
//! shifts — so rounding and two's-complement wrap-around match the `i128`
//! arithmetic exactly, not approximately.

use super::simd_active;
use crate::lifting::lift;
use matcha_math::{GadgetDecomposer, Torus32};

/// Whether this CPU supports the AVX-512F integer kernels.
///
/// Always `false` off x86_64. The integer kernels take their vector leg
/// only when this and [`simd_active`] both hold.
#[inline]
pub fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline]
fn avx512_active() -> bool {
    simd_active() && avx512_detected()
}

/// Split-complex read-only operand: `(re, im)`.
pub(crate) type Split<'a> = (&'a [i64], &'a [i64]);
/// Split-complex accumulator: `(re, im)`.
pub(crate) type SplitMut<'a> = (&'a mut [i64], &'a mut [i64]);

/// A run of lifting rotations in structure-of-arrays form: dyadic
/// numerators `t` and `s` at `beta` fractional bits and negation masks
/// `neg ∈ {0, −1}`, one entry per rotation (see [`crate::lifting::lift`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lifts<'a> {
    t: &'a [i64],
    s: &'a [i64],
    neg: &'a [i64],
    beta: u32,
}

impl<'a> Lifts<'a> {
    /// # Panics
    ///
    /// Panics if the three slices differ in length or `beta ∉ [1, 62]` —
    /// the vector leg sizes its raw-pointer loops from `t.len()`.
    pub(crate) fn new(t: &'a [i64], s: &'a [i64], neg: &'a [i64], beta: u32) -> Self {
        assert!(
            s.len() == t.len() && neg.len() == t.len(),
            "lifting table length mismatch"
        );
        assert!((1..=62).contains(&beta), "beta {beta} out of range");
        Self { t, s, neg, beta }
    }

    #[inline]
    fn len(&self) -> usize {
        self.t.len()
    }

    #[inline]
    fn apply(&self, k: usize, x: i64, y: i64) -> (i64, i64) {
        lift(x, y, self.t[k], self.s[k], self.neg[k], self.beta)
    }
}

/// The values a forward fold twists: coefficient `j` of a length-`N`
/// polynomial, read as a signed integer.
#[derive(Clone, Copy)]
pub(crate) enum FoldInput<'a> {
    /// Small integers (gadget digits, binary secrets).
    Int(&'a [i32]),
    /// Torus coefficients as centered representatives (`raw as i32`).
    Torus(&'a [Torus32]),
    /// Digit `level` of each torus coefficient, extracted on the fly.
    Digits(&'a [Torus32], &'a GadgetDecomposer, usize),
}

impl FoldInput<'_> {
    fn len(&self) -> usize {
        match self {
            FoldInput::Int(c) => c.len(),
            FoldInput::Torus(c) | FoldInput::Digits(c, _, _) => c.len(),
        }
    }

    /// The scalar reference value of coefficient `j`.
    #[inline]
    fn value(&self, j: usize) -> i64 {
        match *self {
            FoldInput::Int(c) => i64::from(c[j]),
            FoldInput::Torus(c) => i64::from(c[j].raw() as i32),
            FoldInput::Digits(c, d, level) => i64::from(d.digit(d.shift(c[j]), level)),
        }
    }
}

/// One radix-2 butterfly stage of the integer engine: the stage's `len/2`
/// lifting rotations applied with unit stride, then `u ± v`; with `halve`,
/// every output is halved with round-half-up (`log2 M` such stages realize
/// the inverse `1/M` without a multiplier).
///
/// # Panics
///
/// Panics on mismatched lengths (the vector leg runs raw-pointer loops).
pub(crate) fn i64_radix2_stage(
    re: &mut [i64],
    im: &mut [i64],
    lifts: Lifts<'_>,
    len: usize,
    halve: bool,
) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert!(
        len >= 2 && len.is_power_of_two() && m.is_multiple_of(len),
        "buffer not a multiple of the stage length"
    );
    assert_eq!(lifts.len(), len / 2, "rotation table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx512_active() && m.is_multiple_of(16) {
        // SAFETY (all four calls): avx512_active() implies AVX-512F; the
        // asserts above give equal lengths, `len` dividing `m` and
        // `lifts.len() == len/2`; `m` is a multiple of 16, and a power of
        // two `len ≥ 16` makes `len/2` a multiple of 8.
        unsafe {
            match (len >= 16, halve) {
                (true, false) => avx512::stage_wide::<false>(re, im, lifts, len),
                (true, true) => avx512::stage_wide::<true>(re, im, lifts, len),
                (false, false) => avx512::stage_narrow::<false>(re, im, lifts, len),
                (false, true) => avx512::stage_narrow::<true>(re, im, lifts, len),
            }
        }
        return;
    }
    let half = len / 2;
    for start in (0..m).step_by(len) {
        for k in 0..half {
            let (vr, vi) = lifts.apply(k, re[start + half + k], im[start + half + k]);
            let (ur, ui) = (re[start + k], im[start + k]);
            let out = [ur + vr, ui + vi, ur - vr, ui - vi];
            let [a, b, c, d] = if halve { out.map(half_round) } else { out };
            re[start + k] = a;
            im[start + k] = b;
            re[start + half + k] = c;
            im[start + half + k] = d;
        }
    }
}

/// Round-half-up division by two.
#[inline]
fn half_round(v: i64) -> i64 {
    (v + 1) >> 1
}

/// The fused twist-and-prescale fold of every forward transform:
/// `out[j] = twist_j(value(j) << frac, value(j + M) << frac)` for `j < M`.
///
/// # Panics
///
/// Panics unless `out` and `twist` hold `M` entries and `src` holds `2M`.
pub(crate) fn i64_fold(out: SplitMut<'_>, src: FoldInput<'_>, frac: u32, twist: Lifts<'_>) {
    let (re, im) = out;
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(twist.len(), m, "twist table length mismatch");
    assert_eq!(src.len(), 2 * m, "input length mismatch");
    assert!(frac < 64, "pre-scale out of range");
    #[cfg(target_arch = "x86_64")]
    if avx512_active() && m.is_multiple_of(8) {
        // SAFETY: AVX-512F is present; the asserts give the lengths the
        // kernel reads and writes, and `m` is a multiple of 8.
        unsafe { avx512::fold(re, im, src, frac, twist) };
        return;
    }
    for j in 0..m {
        let (x, y) = twist.apply(j, src.value(j) << frac, src.value(j + m) << frac);
        re[j] = x;
        im[j] = y;
    }
}

/// The backward tail: untwist, drop `frac` fractional bits with
/// round-half-up, and reduce mod `2^32` by two's-complement truncation.
/// Writes `out[j]` and `out[j + M]` for `j < M`.
///
/// # Panics
///
/// Panics unless `spec` and `untwist` hold `M` entries and `out` holds `2M`.
pub(crate) fn i64_unfold(spec: Split<'_>, untwist: Lifts<'_>, frac: u32, out: &mut [Torus32]) {
    let (re, im) = spec;
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(untwist.len(), m, "twist table length mismatch");
    assert_eq!(out.len(), 2 * m, "output length mismatch");
    assert!(frac < 64, "fixed-point scale out of range");
    let rnd = (1i64 << frac) >> 1;
    #[cfg(target_arch = "x86_64")]
    if avx512_active() && m.is_multiple_of(8) {
        // SAFETY: AVX-512F is present; the asserts give the lengths the
        // kernel reads and writes, and `m` is a multiple of 8.
        unsafe { avx512::unfold(re, im, untwist, frac, Torus32::as_raw_slice_mut(out)) };
        return;
    }
    for j in 0..m {
        let (x, y) = untwist.apply(j, re[j], im[j]);
        out[j] = Torus32::from_raw(((x + rnd) >> frac) as u32);
        out[j + m] = Torus32::from_raw(((y + rnd) >> frac) as u32);
    }
}

/// `acc += round(a ⊙ b / 2^shift)` with every complex product formed exactly
/// in 128 bits — the external product's pointwise multiply-accumulate.
pub(crate) fn i64_mul_acc(acc: SplitMut<'_>, a: Split<'_>, b: Split<'_>, shift: u32) {
    let m = acc.0.len();
    check_lens(
        m,
        &[acc.1.len(), a.0.len(), a.1.len(), b.0.len(), b.1.len()],
    );
    assert!((1..128).contains(&shift), "shift {shift} out of range");
    #[cfg(target_arch = "x86_64")]
    if avx512_active() && m.is_multiple_of(8) {
        // SAFETY: AVX-512F is present; every slice holds `m` entries, a
        // multiple of 8.
        unsafe { avx512::mul_acc(acc, a, b, shift) };
        return;
    }
    let round = 1i128 << (shift - 1);
    for k in 0..m {
        let (ar, ai) = (a.0[k] as i128, a.1[k] as i128);
        let (br, bi) = (b.0[k] as i128, b.1[k] as i128);
        acc.0[k] += ((ar * br - ai * bi + round) >> shift) as i64;
        acc.1[k] += ((ar * bi + ai * br + round) >> shift) as i64;
    }
}

/// `acc += round(src ⊙ f / 2^shift)` with a 32-bit factor table `f` — the
/// TGSW-scale inner loop of bundle construction. Products are exact in
/// 128 bits.
pub(crate) fn i64_scale_acc(acc: SplitMut<'_>, src: Split<'_>, f: (&[i32], &[i32]), shift: u32) {
    let m = f.0.len();
    check_lens(
        m,
        &[
            f.1.len(),
            acc.0.len(),
            acc.1.len(),
            src.0.len(),
            src.1.len(),
        ],
    );
    assert!((1..64).contains(&shift), "shift {shift} out of range");
    #[cfg(target_arch = "x86_64")]
    if avx512_active() && m.is_multiple_of(8) {
        // SAFETY: AVX-512F is present; every slice holds `m` entries, a
        // multiple of 8.
        unsafe { avx512::scale_acc(acc, src, f, shift) };
        return;
    }
    let round = 1i128 << (shift - 1);
    for k in 0..m {
        let (fr, fi) = (f.0[k] as i128, f.1[k] as i128);
        let (sr, si) = (src.0[k] as i128, src.1[k] as i128);
        acc.0[k] += ((sr * fr - si * fi + round) >> shift) as i64;
        acc.1[k] += ((sr * fi + si * fr + round) >> shift) as i64;
    }
}

fn check_lens(m: usize, lens: &[usize]) {
    assert!(lens.iter().all(|&l| l == m), "spectrum size mismatch");
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The AVX-512F leg. Register helpers are safe `#[target_feature]`
    //! functions; the kernels that touch memory are `unsafe fn`s whose
    //! callers (the dispatchers above) have checked every length.

    use super::{FoldInput, Lifts, Split, SplitMut};
    use matcha_math::Torus32;
    use std::arch::x86_64::*;

    /// Exact signed 64×64 → 128-bit products per lane, as `(hi, lo)`.
    ///
    /// Four unsigned 32×32 limb products give the unsigned 128-bit product;
    /// subtracting `b` where `a < 0` and `a` where `b < 0` from the high
    /// word turns it into the two's-complement signed product.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul_wide(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        let lo32 = _mm512_set1_epi64(0xffff_ffff);
        let a_hi = _mm512_srli_epi64::<32>(a);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a, b);
        let lh = _mm512_mul_epu32(a, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        // Neither sum can carry out of 64 bits: (2^32−1)² + 2·(2^32−1) < 2^64.
        let t = _mm512_add_epi64(lh, _mm512_srli_epi64::<32>(ll));
        let mid = _mm512_add_epi64(hl, _mm512_and_si512(t, lo32));
        let lo = _mm512_mask_blend_epi32(0xaaaa, ll, _mm512_slli_epi64::<32>(mid));
        let hi = _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(t)),
            _mm512_srli_epi64::<32>(mid),
        );
        let corr = _mm512_add_epi64(
            _mm512_and_si512(_mm512_srai_epi64::<63>(a), b),
            _mm512_and_si512(_mm512_srai_epi64::<63>(b), a),
        );
        (_mm512_sub_epi64(hi, corr), lo)
    }

    /// Exact signed product of 64-bit `a` and a sign-extended 32-bit `f`
    /// per lane, as `(hi, lo)`: two limb products instead of four.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul_wide_i32(a: __m512i, f: __m512i) -> (__m512i, __m512i) {
        // a = H·2^32 + L with H signed, L unsigned: a·f = (H·f)·2^32 + L·f.
        let hf = _mm512_mul_epi32(_mm512_srai_epi64::<32>(a), f);
        // L·(f mod 2^32), minus L·2^32 where f < 0, is L·f (|L·f| < 2^63).
        let lf = _mm512_sub_epi64(
            _mm512_mul_epu32(a, f),
            _mm512_and_si512(_mm512_srai_epi64::<63>(f), _mm512_slli_epi64::<32>(a)),
        );
        add128(
            (_mm512_srai_epi64::<32>(hf), _mm512_slli_epi64::<32>(hf)),
            (_mm512_srai_epi64::<63>(lf), lf),
        )
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add128((h1, l1): (__m512i, __m512i), (h2, l2): (__m512i, __m512i)) -> (__m512i, __m512i) {
        let lo = _mm512_add_epi64(l1, l2);
        let carry = _mm512_cmplt_epu64_mask(lo, l1);
        let hi = _mm512_add_epi64(h1, h2);
        (
            _mm512_mask_sub_epi64(hi, carry, hi, _mm512_set1_epi64(-1)),
            lo,
        )
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sub128((h1, l1): (__m512i, __m512i), (h2, l2): (__m512i, __m512i)) -> (__m512i, __m512i) {
        let borrow = _mm512_cmplt_epu64_mask(l1, l2);
        let hi = _mm512_sub_epi64(h1, h2);
        (
            _mm512_mask_add_epi64(hi, borrow, hi, _mm512_set1_epi64(-1)),
            _mm512_sub_epi64(l1, l2),
        )
    }

    /// `(v + 2^(shift−1)) >> shift` on 128-bit lanes, keeping the low 64
    /// bits of the result, for one loop-invariant `shift ∈ [1, 127]`.
    #[derive(Clone, Copy)]
    struct RoundShift {
        rnd: (__m512i, __m512i),
        /// `shift ≥ 64`: the result is `hi >> (shift − 64)`, arithmetic.
        wide: bool,
        count: __m128i,
        back: __m128i,
    }

    impl RoundShift {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(shift: u32) -> Self {
            let rnd = 1u128 << (shift - 1);
            let wide = shift >= 64;
            let count = if wide { shift - 64 } else { shift };
            Self {
                rnd: (
                    _mm512_set1_epi64((rnd >> 64) as i64),
                    _mm512_set1_epi64(rnd as u64 as i64),
                ),
                wide,
                count: _mm_cvtsi64_si128(i64::from(count)),
                back: _mm_cvtsi64_si128(i64::from(64 - count)),
            }
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn apply(self, v: (__m512i, __m512i)) -> __m512i {
            let (hi, lo) = add128(v, self.rnd);
            if self.wide {
                _mm512_sra_epi64(hi, self.count)
            } else {
                _mm512_or_si512(
                    _mm512_srl_epi64(lo, self.count),
                    _mm512_sll_epi64(hi, self.back),
                )
            }
        }
    }

    /// `round(y · α / 2^β)` per lane: the vector twin of
    /// [`crate::lifting::mul_round`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul_round(y: __m512i, alpha: __m512i, r: RoundShift) -> __m512i {
        r.apply(mul_wide(y, alpha))
    }

    /// Eight lifting rotations: the vector twin of [`crate::lifting::lift`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lift(
        x: __m512i,
        y: __m512i,
        (t, s, neg): (__m512i, __m512i, __m512i),
        r: RoundShift,
    ) -> (__m512i, __m512i) {
        let x = _mm512_add_epi64(x, mul_round(y, t, r));
        let y = _mm512_add_epi64(y, mul_round(x, s, r));
        let x = _mm512_add_epi64(x, mul_round(y, t, r));
        (
            _mm512_sub_epi64(_mm512_xor_si512(x, neg), neg),
            _mm512_sub_epi64(_mm512_xor_si512(y, neg), neg),
        )
    }

    /// Loads rotation coefficients `k..k+8`.
    ///
    /// # Safety
    ///
    /// AVX-512F must be present and `k + 8 ≤ lifts.len()`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_lifts(lifts: &Lifts<'_>, k: usize) -> (__m512i, __m512i, __m512i) {
        // SAFETY: the caller guarantees `k + 8 ≤ len` for all three slices
        // (equal by construction of `Lifts`).
        unsafe {
            (
                _mm512_loadu_epi64(lifts.t.as_ptr().add(k)),
                _mm512_loadu_epi64(lifts.s.as_ptr().add(k)),
                _mm512_loadu_epi64(lifts.neg.as_ptr().add(k)),
            )
        }
    }

    /// `u + v`, `u − v`, halved with round-half-up when `HALVE`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn butterfly<const HALVE: bool>(u: __m512i, v: __m512i) -> (__m512i, __m512i) {
        let (s, d) = (_mm512_add_epi64(u, v), _mm512_sub_epi64(u, v));
        if HALVE {
            let one = _mm512_set1_epi64(1);
            (
                _mm512_srai_epi64::<1>(_mm512_add_epi64(s, one)),
                _mm512_srai_epi64::<1>(_mm512_add_epi64(d, one)),
            )
        } else {
            (s, d)
        }
    }

    /// Butterfly stages with `len ≥ 16`: eight butterflies of one block per
    /// iteration, rotations streamed with unit stride.
    ///
    /// # Safety
    ///
    /// AVX-512F must be present, `re.len() == im.len()` must be a multiple
    /// of `len`, `len/2` a multiple of 8, and `lifts.len() == len/2`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn stage_wide<const HALVE: bool>(
        re: &mut [i64],
        im: &mut [i64],
        lifts: Lifts<'_>,
        len: usize,
    ) {
        let half = len / 2;
        let r = RoundShift::new(lifts.beta);
        for start in (0..re.len()).step_by(len) {
            let mut k = 0;
            while k < half {
                // SAFETY: `start + half + k + 8 ≤ start + len ≤ re.len()`
                // and `k + 8 ≤ half = lifts.len()` (caller's guarantees).
                unsafe {
                    let (up, uq) = (
                        re.as_mut_ptr().add(start + k),
                        im.as_mut_ptr().add(start + k),
                    );
                    let (xp, xq) = (up.add(half), uq.add(half));
                    let w = load_lifts(&lifts, k);
                    let (vr, vi) = lift(_mm512_loadu_epi64(xp), _mm512_loadu_epi64(xq), w, r);
                    let (sr, dr) = butterfly::<HALVE>(_mm512_loadu_epi64(up), vr);
                    let (si, di) = butterfly::<HALVE>(_mm512_loadu_epi64(uq), vi);
                    _mm512_storeu_epi64(up, sr);
                    _mm512_storeu_epi64(uq, si);
                    _mm512_storeu_epi64(xp, dr);
                    _mm512_storeu_epi64(xq, di);
                }
                k += 8;
            }
        }
    }

    /// Butterfly stages with `len ∈ {2, 4, 8}`, in registers: each
    /// 16-element group holds `16/len` whole blocks, split into their `u`
    /// and `x` halves with two-source permutes, rotated against the stage's
    /// rotations repeated across lanes, and interleaved back.
    ///
    /// # Safety
    ///
    /// AVX-512F must be present, `re.len() == im.len()` a multiple of 16,
    /// `len ∈ {2, 4, 8}` and `lifts.len() == len/2`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn stage_narrow<const HALVE: bool>(
        re: &mut [i64],
        im: &mut [i64],
        lifts: Lifts<'_>,
        len: usize,
    ) {
        let h = len / 2;
        // Lane j holds butterfly j: block j / h, offset j % h.
        let mut u_idx = [0i64; 8];
        let mut x_idx = [0i64; 8];
        let mut w = ([0i64; 8], [0i64; 8], [0i64; 8]);
        for j in 0..8 {
            let at = (j / h * len + j % h) as i64;
            u_idx[j] = at;
            x_idx[j] = at + h as i64;
            w.0[j] = lifts.t[j % h];
            w.1[j] = lifts.s[j % h];
            w.2[j] = lifts.neg[j % h];
        }
        // Output position q of a group takes sum (`< 8`) or difference
        // (`8 +`) lane `q / len · h + q % h`.
        let mut out_idx = [0i64; 16];
        for (q, o) in out_idx.iter_mut().enumerate() {
            let lane = (q / len * h + q % len % h) as i64;
            *o = if q % len < h { lane } else { 8 + lane };
        }
        let r = RoundShift::new(lifts.beta);
        // SAFETY: the index and coefficient arrays are local and exactly
        // 8 or 16 entries long.
        let (u_idx, x_idx, lo_idx, hi_idx, w) = unsafe {
            (
                _mm512_loadu_epi64(u_idx.as_ptr()),
                _mm512_loadu_epi64(x_idx.as_ptr()),
                _mm512_loadu_epi64(out_idx.as_ptr()),
                _mm512_loadu_epi64(out_idx.as_ptr().add(8)),
                (
                    _mm512_loadu_epi64(w.0.as_ptr()),
                    _mm512_loadu_epi64(w.1.as_ptr()),
                    _mm512_loadu_epi64(w.2.as_ptr()),
                ),
            )
        };
        for g in (0..re.len()).step_by(16) {
            // SAFETY: `g + 16 ≤ re.len() == im.len()` (length is a
            // multiple of 16).
            unsafe {
                let (rp, ip) = (re.as_mut_ptr().add(g), im.as_mut_ptr().add(g));
                let (ra, rb) = (_mm512_loadu_epi64(rp), _mm512_loadu_epi64(rp.add(8)));
                let (ia, ib) = (_mm512_loadu_epi64(ip), _mm512_loadu_epi64(ip.add(8)));
                let (vr, vi) = lift(
                    _mm512_permutex2var_epi64(ra, x_idx, rb),
                    _mm512_permutex2var_epi64(ia, x_idx, ib),
                    w,
                    r,
                );
                let (sr, dr) = butterfly::<HALVE>(_mm512_permutex2var_epi64(ra, u_idx, rb), vr);
                let (si, di) = butterfly::<HALVE>(_mm512_permutex2var_epi64(ia, u_idx, ib), vi);
                _mm512_storeu_epi64(rp, _mm512_permutex2var_epi64(sr, lo_idx, dr));
                _mm512_storeu_epi64(rp.add(8), _mm512_permutex2var_epi64(sr, hi_idx, dr));
                _mm512_storeu_epi64(ip, _mm512_permutex2var_epi64(si, lo_idx, di));
                _mm512_storeu_epi64(ip.add(8), _mm512_permutex2var_epi64(si, hi_idx, di));
            }
        }
    }

    /// Eight fold inputs starting at coefficient `j`, as signed 64-bit lanes.
    ///
    /// # Safety
    ///
    /// AVX-512F must be present and `j + 8 ≤ src.len()`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_input(src: &FoldInput<'_>, j: usize) -> __m512i {
        // SAFETY: the caller guarantees 8 readable 32-bit entries at `j`.
        let raw = |p: *const u32| unsafe { _mm256_loadu_si256(p.add(j).cast()) };
        let torus = |c| Torus32::as_raw_slice(c).as_ptr();
        match *src {
            FoldInput::Int(c) => _mm512_cvtepi32_epi64(raw(c.as_ptr().cast())),
            FoldInput::Torus(c) => _mm512_cvtepi32_epi64(raw(torus(c))),
            FoldInput::Digits(c, d, level) => {
                // ((raw + offset) mod 2^32 >> sh) & (Bg − 1) − Bg/2, as
                // `GadgetDecomposer::shift` then `digit` compute it.
                let base = i64::from(d.base());
                let sh = 32 - (level as u32 + 1) * d.bg_bits();
                let offset = i64::from(d.shift(Torus32::ZERO));
                let v = _mm512_cvtepu32_epi64(raw(torus(c)));
                let v = _mm512_add_epi64(v, _mm512_set1_epi64(offset));
                let v = _mm512_and_si512(v, _mm512_set1_epi64(0xffff_ffff));
                let v = _mm512_srl_epi64(v, _mm_cvtsi64_si128(i64::from(sh)));
                let v = _mm512_and_si512(v, _mm512_set1_epi64(base - 1));
                _mm512_sub_epi64(v, _mm512_set1_epi64(base / 2))
            }
        }
    }

    /// # Safety
    ///
    /// AVX-512F must be present; `re`, `im` and `twist` hold `m` entries,
    /// a multiple of 8, and `src` holds `2m`; `frac < 64`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fold(
        re: &mut [i64],
        im: &mut [i64],
        src: FoldInput<'_>,
        frac: u32,
        twist: Lifts<'_>,
    ) {
        let m = re.len();
        let r = RoundShift::new(twist.beta);
        let frac = _mm_cvtsi64_si128(i64::from(frac));
        for j in (0..m).step_by(8) {
            // SAFETY: `j + 8 ≤ m` for the outputs and the twist table, and
            // `j + m + 8 ≤ 2m` for the input (caller's guarantees).
            unsafe {
                let a = _mm512_sll_epi64(load_input(&src, j), frac);
                let b = _mm512_sll_epi64(load_input(&src, j + m), frac);
                let (x, y) = lift(a, b, load_lifts(&twist, j), r);
                _mm512_storeu_epi64(re.as_mut_ptr().add(j), x);
                _mm512_storeu_epi64(im.as_mut_ptr().add(j), y);
            }
        }
    }

    /// # Safety
    ///
    /// AVX-512F must be present; `re`, `im` and `untwist` hold `m` entries,
    /// a multiple of 8, and `out` holds `2m`; `frac < 64`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn unfold(
        re: &[i64],
        im: &[i64],
        untwist: Lifts<'_>,
        frac: u32,
        out: &mut [u32],
    ) {
        let m = re.len();
        let r = RoundShift::new(untwist.beta);
        let rnd = _mm512_set1_epi64((1i64 << frac) >> 1);
        let frac = _mm_cvtsi64_si128(i64::from(frac));
        let descale = |v| _mm512_cvtepi64_epi32(_mm512_sra_epi64(_mm512_add_epi64(v, rnd), frac));
        for j in (0..m).step_by(8) {
            // SAFETY: `j + 8 ≤ m` for the inputs and the twist table, and
            // `j + m + 8 ≤ 2m` for the output (caller's guarantees).
            unsafe {
                let x = _mm512_loadu_epi64(re.as_ptr().add(j));
                let y = _mm512_loadu_epi64(im.as_ptr().add(j));
                let (x, y) = lift(x, y, load_lifts(&untwist, j), r);
                _mm256_storeu_si256(out.as_mut_ptr().add(j).cast(), descale(x));
                _mm256_storeu_si256(out.as_mut_ptr().add(j + m).cast(), descale(y));
            }
        }
    }

    /// `(re, im) += round((ar + i·ai)(br + i·bi) / 2^shift)`, exact.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn cmul_round(
        (ar, ai): (__m512i, __m512i),
        (br, bi): (__m512i, __m512i),
        r: RoundShift,
    ) -> (__m512i, __m512i) {
        (
            r.apply(sub128(mul_wide(ar, br), mul_wide(ai, bi))),
            r.apply(add128(mul_wide(ar, bi), mul_wide(ai, br))),
        )
    }

    /// # Safety
    ///
    /// AVX-512F must be present; `k + 8 ≤` both slices' lengths.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load2((re, im): (&[i64], &[i64]), k: usize) -> (__m512i, __m512i) {
        // SAFETY: caller's guarantee.
        unsafe {
            (
                _mm512_loadu_epi64(re.as_ptr().add(k)),
                _mm512_loadu_epi64(im.as_ptr().add(k)),
            )
        }
    }

    /// `acc[k..k+8] += v`.
    ///
    /// # Safety
    ///
    /// AVX-512F must be present; `k + 8 ≤` both slices' lengths.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate(acc: &mut SplitMut<'_>, k: usize, (vr, vi): (__m512i, __m512i)) {
        // SAFETY: caller's guarantee.
        unsafe {
            let (pr, pi) = (acc.0.as_mut_ptr().add(k), acc.1.as_mut_ptr().add(k));
            _mm512_storeu_epi64(pr, _mm512_add_epi64(_mm512_loadu_epi64(pr), vr));
            _mm512_storeu_epi64(pi, _mm512_add_epi64(_mm512_loadu_epi64(pi), vi));
        }
    }

    /// # Safety
    ///
    /// AVX-512F must be present; every slice holds `m` entries, a multiple
    /// of 8; `shift ∈ [1, 127]`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn mul_acc(mut acc: SplitMut<'_>, a: Split<'_>, b: Split<'_>, shift: u32) {
        let r = RoundShift::new(shift);
        for k in (0..acc.0.len()).step_by(8) {
            // SAFETY: `k + 8 ≤ m` for every slice (caller's guarantee).
            unsafe {
                let p = cmul_round(load2(a, k), load2(b, k), r);
                accumulate(&mut acc, k, p);
            }
        }
    }

    /// # Safety
    ///
    /// AVX-512F must be present; every slice holds `m` entries, a multiple
    /// of 8; `shift ∈ [1, 63]`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn scale_acc(
        mut acc: SplitMut<'_>,
        src: Split<'_>,
        f: (&[i32], &[i32]),
        shift: u32,
    ) {
        let r = RoundShift::new(shift);
        for k in (0..f.0.len()).step_by(8) {
            // SAFETY: `k + 8 ≤ m` for every slice (caller's guarantee).
            unsafe {
                let fr = _mm512_cvtepi32_epi64(_mm256_loadu_si256(f.0.as_ptr().add(k).cast()));
                let fi = _mm512_cvtepi32_epi64(_mm256_loadu_si256(f.1.as_ptr().add(k).cast()));
                let (sr, si) = load2(src, k);
                let p = (
                    r.apply(sub128(mul_wide_i32(sr, fr), mul_wide_i32(si, fi))),
                    r.apply(add128(mul_wide_i32(sr, fi), mul_wide_i32(si, fr))),
                );
                accumulate(&mut acc, k, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifting::LiftingRotation;
    use crate::simd::force_simd;
    use std::f64::consts::{FRAC_PI_2, PI};

    /// Rotations cycling through identity, negation (`±π`), a quarter turn
    /// and lifting rotations with and without the folded-in negation.
    fn rotations(count: usize, beta: u32) -> Vec<LiftingRotation> {
        let angles = [0.0, PI, 2.0, -PI, FRAC_PI_2, -2.5, 0.3, -1.0];
        (0..count)
            .map(|k| LiftingRotation::from_angle(angles[(k * 5 + count) % 8], beta))
            .collect()
    }

    fn soa(rots: &[LiftingRotation]) -> [Vec<i64>; 3] {
        let c: Vec<_> = rots.iter().map(|r| r.lifting_coeffs()).collect();
        [
            c.iter().map(|c| c.0).collect(),
            c.iter().map(|c| c.1).collect(),
            c.iter().map(|c| c.2).collect(),
        ]
    }

    fn values(count: usize, seed: u64, bits: u32) -> Vec<i64> {
        let mut st = seed | 1;
        (0..count)
            .map(|_| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                (st as i64) >> (64 - bits)
            })
            .collect()
    }

    /// Each leg (a concurrent `force_simd` may pick either) must equal
    /// `LiftingRotation::apply`, so both legs match it and each other.
    #[test]
    fn stages_folds_and_unfolds_match_lifting_rotations() {
        for beta in [4, 38, 62] {
            for m in [2usize, 4, 8, 16, 64] {
                for force in [false, true] {
                    force_simd(Some(force));
                    let mut len = 2;
                    while len <= m {
                        let rots = rotations(len / 2, beta);
                        let [t, s, neg] = soa(&rots);
                        let lifts = Lifts::new(&t, &s, &neg, beta);
                        let (re0, im0) = (values(m, 3, 50), values(m, 5, 50));
                        let (mut re, mut im) = (re0.clone(), im0.clone());
                        i64_radix2_stage(&mut re, &mut im, lifts, len, true);
                        for start in (0..m).step_by(len) {
                            for (k, rot) in rots.iter().enumerate() {
                                let (u, x) = (start + k, start + len / 2 + k);
                                let (vr, vi) = rot.apply(re0[x], im0[x]);
                                let want = [re0[u] + vr, im0[u] + vi, re0[u] - vr, im0[u] - vi]
                                    .map(half_round);
                                assert_eq!([re[u], im[u], re[x], im[x]], want, "len={len}");
                            }
                        }
                        len *= 2;
                    }

                    let rots = rotations(m, beta);
                    let [t, s, neg] = soa(&rots);
                    let twist = Lifts::new(&t, &s, &neg, beta);
                    let digits: Vec<i32> = values(2 * m, 7, 11).iter().map(|&v| v as i32).collect();
                    let (mut re, mut im) = (vec![0; m], vec![0; m]);
                    i64_fold((&mut re, &mut im), FoldInput::Int(&digits), 40, twist);
                    let mut out = vec![Torus32::ZERO; 2 * m];
                    i64_unfold((&re, &im), twist, 9, &mut out);
                    for (j, rot) in rots.iter().enumerate() {
                        let (a, b) = (i64::from(digits[j]) << 40, i64::from(digits[j + m]) << 40);
                        assert_eq!((re[j], im[j]), rot.apply(a, b), "fold j={j}");
                        let (x, y) = rot.apply(re[j], im[j]);
                        let descale = |v: i64| Torus32::from_raw(((v + 256) >> 9) as u32);
                        assert_eq!(
                            (out[j], out[j + m]),
                            (descale(x), descale(y)),
                            "unfold j={j}"
                        );
                    }
                }
            }
        }
        force_simd(None);
    }
}
