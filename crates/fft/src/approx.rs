//! MATCHA's approximate multiplication-less integer FFT engine (§4.1).
//!
//! All data stays in 64-bit integers. Every twiddle rotation — including the
//! negacyclic twist — is performed by a three-step lifting structure whose
//! dyadic-value-quantized coefficients (`α/2^β`, `β =` [`ApproxIntFft::twiddle_bits`])
//! need only adders and shifters. The approximation error this introduces is
//! far below TFHE's noise threshold and is rounded off together with the
//! ordinary ciphertext noise at decryption (paper's key observation), so
//! ciphertexts processed with this engine still decrypt correctly.
//!
//! Scaling scheme (`M = N/2` evaluation points, radix-2, `log2 M` stages):
//!
//! * inputs are pre-scaled with as many fractional bits as the 64-bit lanes
//!   allow (41 for gadget digits and 20 for torus values at `N = 1024`), so
//!   per-lifting-step rounding noise (±½ ulp) lands ≈ 2⁻⁴⁰ torus units below
//!   the signal — twiddle quantization, not rounding, dominates the error;
//! * forward transforms grow values by at most `×M·√2`;
//! * pointwise products run in 128-bit and drop both pre-scales;
//! * the inverse transform halves after every stage, realizing the `1/M`
//!   normalization with one rounding shift per stage;
//! * the final reduction mod `2^32` is an exact two's-complement truncation.
//!
//! Rotations are stored as structure-of-arrays tables (numerators `t`, `s`
//! and a negation mask per twiddle), so identity, negation and general
//! rotations run the same branch-free lifting on both kernel legs.

use crate::engine::{FftEngine, Spectrum};
use crate::lifting::LiftingRotation;
use crate::simd::{self, FoldInput, Lifts};
use crate::tables::{bit_reverse_copy_pair, bit_reverse_permute_pair};
use matcha_math::{IntPolynomial, TorusPolynomial};

/// Largest digit magnitude [`ApproxIntFft::forward_int`] accepts.
pub const MAX_DIGIT: i64 = 1 << 10;

/// Fractional bits of the quantized `ε_k^e − 1` factors used by the
/// TGSW-scale path. `|ε^e − 1| ≤ 2`, so 30 fractional bits keep every
/// factor within an `i32` — matching the 32-bit integer multipliers of
/// MATCHA's TGSW clusters — while contributing less bundle noise than the
/// external product itself.
pub const MONO_FRAC_BITS: u32 = 30;

/// Fractional bits dropped when opening a bundle accumulator, creating
/// headroom for summing up to `2^m − 1` scaled key terms.
pub const BUNDLE_DROP_BITS: u32 = 4;

/// Integer Lagrange half-complex spectrum with a fixed-point scale.
#[derive(Clone, Debug)]
pub struct FixedSpectrum {
    /// Real parts.
    pub re: Vec<i64>,
    /// Imaginary parts.
    pub im: Vec<i64>,
    /// Fixed-point fractional bits carried by the values.
    pub frac_bits: u32,
}

impl Spectrum for FixedSpectrum {
    fn len(&self) -> usize {
        self.re.len()
    }
}

/// Reusable workspace for the integer engine's backward transform: a
/// mutable copy of the spectrum being inverse-transformed. Sized on first
/// use, reused afterwards.
#[derive(Debug, Default)]
pub struct FixedScratch {
    re: Vec<i64>,
    im: Vec<i64>,
}

/// Pointwise factors `ε_k^e − 1` of the TGSW-scale path, quantized to
/// [`MONO_FRAC_BITS`] fractional bits and stored split like the spectra
/// they scale.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixedFactors {
    /// Real parts.
    pub re: Vec<i32>,
    /// Imaginary parts.
    pub im: Vec<i32>,
}

/// One direction's lifting rotations in structure-of-arrays layout: the
/// dyadic numerators `t`, `s` and the negation mask of each rotation (see
/// [`LiftingRotation::lifting_coeffs`]). The butterfly stages come first —
/// stage `len = 2^{s+1}` stores its `len/2` rotations by `±2πk/len` back
/// to back, so the butterfly loop reads it with unit stride — followed by
/// the `M` (un)twist rotations `±πj/N`.
#[derive(Clone, Debug)]
struct LiftingTable {
    t: Vec<i64>,
    s: Vec<i64>,
    neg: Vec<i64>,
    /// `offsets[s]` = start of the stage for `len = 2^{s+1}`; the last
    /// entry is the start of the twist.
    offsets: Vec<usize>,
    /// Transform size `M`.
    m: usize,
    beta: u32,
}

impl LiftingTable {
    /// The table for ring degree `n` at `beta` bits; `sign = 1.0` gives the
    /// forward direction, `-1.0` the inverse.
    fn new(n: usize, beta: u32, sign: f64) -> Self {
        let m = n / 2;
        let (tau, pi) = (sign * std::f64::consts::TAU, sign * std::f64::consts::PI);
        let mut angles = Vec::with_capacity(2 * m);
        let mut offsets = Vec::new();
        let mut len = 2;
        while len <= m {
            offsets.push(angles.len());
            let step = m / len;
            angles.extend((0..len / 2).map(|k| tau * (k * step) as f64 / m as f64));
            len *= 2;
        }
        offsets.push(angles.len());
        angles.extend((0..m).map(|j| pi * j as f64 / n as f64));
        let (mut t, mut s, mut neg) = (Vec::new(), Vec::new(), Vec::new());
        for theta in angles {
            let (tk, sk, nk) = LiftingRotation::from_angle(theta, beta).lifting_coeffs();
            t.push(tk);
            s.push(sk);
            neg.push(nk);
        }
        Self {
            t,
            s,
            neg,
            offsets,
            m,
            beta,
        }
    }

    fn slice(&self, start: usize, len: usize) -> Lifts<'_> {
        let r = start..start + len;
        Lifts::new(
            &self.t[r.clone()],
            &self.s[r.clone()],
            &self.neg[r],
            self.beta,
        )
    }

    /// The contiguous rotations for butterflies of length `len`.
    #[inline]
    fn stage(&self, len: usize) -> Lifts<'_> {
        debug_assert!(len.is_power_of_two() && len >= 2 && len <= self.m);
        self.slice(self.offsets[len.trailing_zeros() as usize - 1], len / 2)
    }

    /// The `M` (un)twist rotations.
    #[inline]
    fn twist(&self) -> Lifts<'_> {
        self.slice(self.offsets[self.offsets.len() - 1], self.m)
    }
}

/// The approximate multiplication-less integer FFT engine.
///
/// `twiddle_bits` is the dyadic quantization width `β` of Figure 8: the
/// paper finds 38 bits already avoid decryption failures for `m = 2` and
/// adopts 64 bits to survive aggressive key unrolling; we support 4..=62.
///
/// # Examples
///
/// ```
/// use matcha_fft::{ApproxIntFft, FftEngine};
/// use matcha_math::{IntPolynomial, TorusPolynomial, Torus32};
///
/// let engine = ApproxIntFft::new(16, 40);
/// let p = TorusPolynomial::constant(Torus32::from_f64(0.125), 16);
/// let mut q = IntPolynomial::zero(16);
/// q.coeffs_mut()[0] = 4;
/// let r = engine.poly_mul(&p, &q);
/// assert!(r.coeffs()[0].signed_diff(Torus32::from_f64(0.5)).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct ApproxIntFft {
    n: usize,
    twiddle_bits: u32,
    /// Fractional pre-scale for integer (digit) polynomials.
    int_frac_bits: u32,
    /// Fractional pre-scale for torus polynomials.
    torus_frac_bits: u32,
    /// Forward butterflies (`+2πk/len`) and the twist (`+πj/N`).
    fwd: LiftingTable,
    /// Inverse butterflies (`−2πk/len`) and the untwist (`−πj/N`).
    inv: LiftingTable,
    /// See [`ApproxIntFft::adder_ops_per_transform`].
    adder_ops: u64,
}

impl ApproxIntFft {
    /// Creates an engine for ring degree `n` with `twiddle_bits`-bit
    /// dyadic-value-quantized twiddle factors.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`, `n` is not a power of two, or
    /// `twiddle_bits ∉ [4, 62]`.
    pub fn new(n: usize, twiddle_bits: u32) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "ring degree {n} must be a power of two ≥ 4"
        );
        assert!(
            (4..=62).contains(&twiddle_bits),
            "twiddle_bits {twiddle_bits} outside supported range 4..=62"
        );
        let m = n / 2;
        // Each stage performs M/2 rotations; approximate with the mean cost
        // over the full twiddle table plus 2 butterfly adds per butterfly.
        let full: Vec<LiftingRotation> = (0..m / 2)
            .map(|k| {
                LiftingRotation::from_angle(
                    std::f64::consts::TAU * k as f64 / m as f64,
                    twiddle_bits,
                )
            })
            .collect();
        let mean_rot =
            full.iter().map(|r| r.adder_ops() as f64).sum::<f64>() / full.len().max(1) as f64;
        let stages = m.trailing_zeros() as f64;
        let adder_ops = ((m / 2) as f64 * stages * (mean_rot + 2.0)) as u64;
        // Leave headroom so forward buffers stay below 2^61·√2: a signed
        // value of `b` bits grows to at most `b + frac + log2(M)` bits.
        let log2m = m.trailing_zeros();
        let int_frac_bits = (61 - 11 - log2m).min(42);
        let torus_frac_bits = (61 - 32 - log2m).min(26);
        Self {
            n,
            twiddle_bits,
            int_frac_bits,
            torus_frac_bits,
            fwd: LiftingTable::new(n, twiddle_bits, 1.0),
            inv: LiftingTable::new(n, twiddle_bits, -1.0),
            adder_ops,
        }
    }

    /// The dyadic quantization width `β`.
    pub fn twiddle_bits(&self) -> u32 {
        self.twiddle_bits
    }

    /// Total adder operations one forward transform needs in the shift-add
    /// realization (feeds the accelerator energy model).
    pub fn adder_ops_per_transform(&self) -> u64 {
        self.adder_ops
    }

    /// Forward butterflies on the shared [`crate::simd`] integer kernels.
    /// On AVX-512F CPUs each stage runs eight butterflies per vector (the
    /// `len < 16` stages permute whole blocks in registers) and every
    /// lifting step forms its product exactly from 32-bit limbs; elsewhere
    /// the scalar `i128` leg runs. Both legs give the same bits, which are
    /// also those of the shift-add datapath ([`LiftingRotation::apply_shift_add`]).
    fn dft_forward(&self, re: &mut [i64], im: &mut [i64]) {
        bit_reverse_permute_pair(re, im);
        self.stages(&self.fwd, re, im, false);
    }

    /// Inverse butterflies on bit-reversed input, halving every stage
    /// output: `log2(M)` halvings realize the `1/M` inverse normalization
    /// without any multiplier.
    fn dft_inverse_halving(&self, re: &mut [i64], im: &mut [i64]) {
        self.stages(&self.inv, re, im, true);
    }

    fn stages(&self, table: &LiftingTable, re: &mut [i64], im: &mut [i64], halve: bool) {
        let mut len = 2;
        while len <= re.len() {
            simd::i64_radix2_stage(re, im, table.stage(len), len, halve);
            len *= 2;
        }
    }

    /// Shared twist-and-prescale fold for the forward transforms.
    fn fold_into(&self, out: &mut FixedSpectrum, src: FoldInput<'_>, frac_bits: u32) {
        let m = self.n / 2;
        out.re.resize(m, 0);
        out.im.resize(m, 0);
        simd::i64_fold((&mut out.re, &mut out.im), src, frac_bits, self.fwd.twist());
        out.frac_bits = frac_bits;
    }
}

impl FftEngine for ApproxIntFft {
    type Spectrum = FixedSpectrum;
    type MonomialFactors = FixedFactors;
    type Scratch = FixedScratch;

    fn ring_degree(&self) -> usize {
        self.n
    }

    fn zero_spectrum(&self) -> FixedSpectrum {
        let m = self.n / 2;
        FixedSpectrum {
            re: vec![0; m],
            im: vec![0; m],
            frac_bits: 0,
        }
    }

    fn clear_spectrum(&self, s: &mut FixedSpectrum) {
        let m = self.n / 2;
        s.re.clear();
        s.re.resize(m, 0);
        s.im.clear();
        s.im.resize(m, 0);
        s.frac_bits = 0;
    }

    fn forward_int_into(
        &self,
        p: &IntPolynomial,
        out: &mut FixedSpectrum,
        _scratch: &mut FixedScratch,
    ) {
        debug_assert_eq!(p.len(), self.n);
        debug_assert!(
            p.norm_inf() <= MAX_DIGIT,
            "digit magnitude {} exceeds supported bound {MAX_DIGIT}",
            p.norm_inf()
        );
        self.fold_into(out, FoldInput::Int(p.coeffs()), self.int_frac_bits);
        self.dft_forward(&mut out.re, &mut out.im);
    }

    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut FixedSpectrum,
        _scratch: &mut FixedScratch,
    ) {
        debug_assert_eq!(p.len(), self.n);
        self.fold_into(out, FoldInput::Torus(p.coeffs()), self.torus_frac_bits);
        self.dft_forward(&mut out.re, &mut out.im);
    }

    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &matcha_math::GadgetDecomposer,
        level: usize,
        out: &mut FixedSpectrum,
        _scratch: &mut FixedScratch,
    ) {
        debug_assert_eq!(p.len(), self.n);
        debug_assert!(
            i64::from(decomp.base() / 2) <= MAX_DIGIT,
            "digit magnitude bound {} exceeds supported bound {MAX_DIGIT}",
            decomp.base() / 2
        );
        let src = FoldInput::Digits(p.coeffs(), decomp, level);
        self.fold_into(out, src, self.int_frac_bits);
        self.dft_forward(&mut out.re, &mut out.im);
    }

    fn backward_torus_into(
        &self,
        s: &FixedSpectrum,
        out: &mut TorusPolynomial,
        scratch: &mut FixedScratch,
    ) {
        let m = self.n / 2;
        assert_eq!(s.re.len(), m, "spectrum size mismatch");
        assert_eq!(out.len(), self.n, "output polynomial length mismatch");
        // The working copy is written in bit-reversed order: the copy and
        // the permutation are one pass.
        scratch.re.resize(m, 0);
        scratch.im.resize(m, 0);
        bit_reverse_copy_pair(&s.re, &s.im, &mut scratch.re, &mut scratch.im);
        self.dft_inverse_halving(&mut scratch.re, &mut scratch.im);
        // Two's-complement truncation is the exact reduction mod 2^32.
        let spec = (&scratch.re[..], &scratch.im[..]);
        simd::i64_unfold(spec, self.inv.twist(), s.frac_bits, out.coeffs_mut());
    }

    fn mul_accumulate(&self, acc: &mut FixedSpectrum, a: &FixedSpectrum, b: &FixedSpectrum) {
        assert_eq!(acc.re.len(), a.re.len(), "spectrum size mismatch");
        assert_eq!(a.re.len(), b.re.len(), "spectrum size mismatch");
        assert_eq!(acc.frac_bits, 0, "accumulator must be unscaled");
        let shift = a.frac_bits + b.frac_bits;
        assert!(
            shift > 0,
            "at least one operand must be an integer-side spectrum"
        );
        simd::i64_mul_acc(
            (&mut acc.re, &mut acc.im),
            (&a.re, &a.im),
            (&b.re, &b.im),
            shift,
        );
    }

    fn add_assign(&self, acc: &mut FixedSpectrum, a: &FixedSpectrum) {
        assert_eq!(acc.re.len(), a.re.len(), "spectrum size mismatch");
        assert_eq!(acc.frac_bits, a.frac_bits, "fixed-point scale mismatch");
        for k in 0..acc.re.len() {
            acc.re[k] += a.re[k];
            acc.im[k] += a.im[k];
        }
    }

    /// TGSW-scale factor table: `ε_k^e − 1` quantized to 30 fractional bits
    /// so its components fit the 32-bit integer multipliers of MATCHA's
    /// TGSW clusters (§4.3) — the FFT butterflies stay multiplication-less,
    /// but TGSW scaling legitimately uses the cluster's multipliers.
    fn monomial_minus_one_into(&self, exponent: i64, out: &mut FixedFactors) {
        let m = self.n / 2;
        let base = std::f64::consts::PI / self.n as f64;
        let e = exponent.rem_euclid(2 * self.n as i64) as f64;
        let quant = (1i64 << MONO_FRAC_BITS) as f64;
        let step = crate::cplx::Cplx::from_angle(4.0 * base * e);
        let mut cur = crate::cplx::Cplx::from_angle(base * e);
        out.re.clear();
        out.im.clear();
        out.re.reserve(m);
        out.im.reserve(m);
        for _ in 0..m {
            out.re.push(((cur.re - 1.0) * quant).round() as i32);
            out.im.push((cur.im * quant).round() as i32);
            cur *= step;
        }
    }

    fn scale_accumulate(
        &self,
        acc: &mut FixedSpectrum,
        src: &FixedSpectrum,
        factors: &FixedFactors,
    ) {
        assert_eq!(acc.re.len(), src.re.len(), "spectrum size mismatch");
        assert_eq!(acc.re.len(), factors.re.len(), "factor table size mismatch");
        assert_eq!(
            acc.frac_bits + BUNDLE_DROP_BITS,
            src.frac_bits,
            "accumulator must come from bundle_accumulator"
        );
        simd::i64_scale_acc(
            (&mut acc.re, &mut acc.im),
            (&src.re, &src.im),
            (&factors.re, &factors.im),
            MONO_FRAC_BITS + BUNDLE_DROP_BITS,
        );
    }

    fn bundle_accumulator_into(&self, from: &FixedSpectrum, out: &mut FixedSpectrum) {
        assert!(
            from.frac_bits >= BUNDLE_DROP_BITS,
            "source spectrum lacks fractional headroom"
        );
        let half = 1i64 << (BUNDLE_DROP_BITS - 1);
        out.re.clear();
        out.im.clear();
        out.re
            .extend(from.re.iter().map(|&v| (v + half) >> BUNDLE_DROP_BITS));
        out.im
            .extend(from.im.iter().map(|&v| (v + half) >> BUNDLE_DROP_BITS));
        out.frac_bits = from.frac_bits - BUNDLE_DROP_BITS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_math::Torus32;

    fn random_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
        TorusPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| Torus32::from_raw((i ^ seed).wrapping_mul(0x9e37_79b9).wrapping_add(1)))
                .collect(),
        )
    }

    fn random_digit_poly(n: usize, seed: u32) -> IntPolynomial {
        IntPolynomial::from_coeffs(
            (0..n as u32)
                .map(|i| ((i ^ seed).wrapping_mul(0x85eb_ca6b) % 1024) as i32 - 512)
                .collect(),
        )
    }

    /// Exact negacyclic product reference in i64, reduced mod 2^32.
    fn exact_mul(p: &TorusPolynomial, q: &IntPolynomial) -> TorusPolynomial {
        p.naive_mul_int(q)
    }

    #[test]
    fn poly_mul_close_to_exact() {
        for n in [8usize, 64, 256] {
            let engine = ApproxIntFft::new(n, 50);
            let p = random_torus_poly(n, 3);
            let q = random_digit_poly(n, 7);
            let approx = engine.poly_mul(&p, &q);
            let exact = exact_mul(&p, &q);
            let dist = approx.max_distance(&exact);
            assert!(dist < 1e-6, "n={n}: distance {dist}");
        }
    }

    #[test]
    fn roundtrip_torus_identity() {
        let n = 128;
        let engine = ApproxIntFft::new(n, 50);
        let p = random_torus_poly(n, 9);
        let back = engine.backward_torus(&engine.forward_torus(&p));
        // Forward/backward only pass through rotations: error is tiny.
        assert!(back.max_distance(&p) < 1e-6);
    }

    #[test]
    fn error_decreases_with_twiddle_bits() {
        let n = 256;
        let p = random_torus_poly(n, 21);
        let q = random_digit_poly(n, 22);
        let exact = exact_mul(&p, &q);
        let mut last = f64::INFINITY;
        for bits in [8u32, 16, 28, 44] {
            let engine = ApproxIntFft::new(n, bits);
            let dist = engine.poly_mul(&p, &q).max_distance(&exact);
            assert!(
                dist < last * 1.5,
                "error should not grow with bits: {bits} bits → {dist} (prev {last})"
            );
            last = dist;
        }
        assert!(
            last < 1e-6,
            "44-bit twiddles should be very accurate, got {last}"
        );
    }

    #[test]
    fn monomial_multiplication() {
        let n = 64;
        let engine = ApproxIntFft::new(n, 45);
        let p = random_torus_poly(n, 5);
        for power in [0usize, 1, 17, 63] {
            let mut q = IntPolynomial::zero(n);
            q.coeffs_mut()[power] = 1;
            let approx = engine.poly_mul(&p, &q);
            let exact = p.mul_by_monomial(power as i64);
            assert!(approx.max_distance(&exact) < 1e-6, "power={power}");
        }
    }

    #[test]
    fn accumulation_linearity() {
        let n = 32;
        let engine = ApproxIntFft::new(n, 48);
        let p1 = random_torus_poly(n, 1);
        let p2 = random_torus_poly(n, 2);
        let q = random_digit_poly(n, 3);
        let fq = engine.forward_int(&q);
        let mut acc = engine.zero_spectrum();
        engine.mul_accumulate(&mut acc, &engine.forward_torus(&p1), &fq);
        engine.mul_accumulate(&mut acc, &engine.forward_torus(&p2), &fq);
        let combined = engine.backward_torus(&acc);
        let expected = exact_mul(&(p1 + &p2), &q);
        assert!(combined.max_distance(&expected) < 1e-6);
    }

    #[test]
    fn backward_descales_int_spectrum() {
        // backward(forward_int(q)) reads q's digits as raw torus values.
        let engine = ApproxIntFft::new(16, 50);
        let mut q = IntPolynomial::zero(16);
        q.coeffs_mut()[0] = 7;
        q.coeffs_mut()[3] = -2;
        let back = engine.backward_torus(&engine.forward_int(&q));
        assert_eq!(back.coeffs()[0], Torus32::from_raw(7));
        assert_eq!(back.coeffs()[3], Torus32::from_raw(2u32.wrapping_neg()));
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn rejects_bad_twiddle_bits() {
        let _ = ApproxIntFft::new(16, 63);
    }

    #[test]
    fn monomial_scale_matches_coefficient_domain() {
        let n = 64;
        let engine = ApproxIntFft::new(n, 50);
        let base = random_torus_poly(n, 31);
        let src = random_torus_poly(n, 32);
        for e in [0i64, 1, 5, 63, 64, 127, -3] {
            let mut acc = engine.bundle_accumulator(&engine.forward_torus(&base));
            engine.scale_monomial_accumulate(&mut acc, &engine.forward_torus(&src), e);
            let got = engine.backward_torus(&acc);
            let mut expected = base.clone();
            expected.add_rotate_minus_one(&src, e);
            assert!(
                got.max_distance(&expected) < 1e-5,
                "e={e}: distance {}",
                got.max_distance(&expected)
            );
        }
    }

    #[test]
    fn zero_times_anything_is_zero() {
        let n = 16;
        let engine = ApproxIntFft::new(n, 40);
        let z = TorusPolynomial::zero(n);
        let q = random_digit_poly(n, 4);
        let r = engine.poly_mul(&z, &q);
        assert!(r.max_distance(&TorusPolynomial::zero(n)) < 1e-7);
    }
}
