//! The [`FftEngine`] abstraction shared by the reference and approximate
//! transforms.
//!
//! TFHE's external product needs exactly three spectral operations:
//! transform small integer polynomials (gadget digits, binary secrets) into
//! the Lagrange domain, transform torus polynomials likewise, and bring an
//! accumulated pointwise product back to coefficients. Keeping the engine
//! behind a trait lets the whole scheme run on either the double-precision
//! reference kernel or MATCHA's approximate integer kernel, which is how the
//! paper's accuracy experiments (Figure 8, Table 3) compare the two.
//!
//! # In-place execution
//!
//! Bootstrapping performs `~2ℓ·⌈n/m⌉` transforms per gate; allocating fresh
//! buffers for each would dominate the cost the paper's accelerator removes.
//! Every transform therefore has an `*_into` variant writing into
//! caller-owned spectra/polynomials, threaded through an engine-specific
//! [`FftEngine::Scratch`] workspace. After a warm-up call the scratch owns
//! all required capacity and steady-state transforms allocate nothing. The
//! allocating methods remain as thin wrappers over the `*_into` core.
//!
//! # SIMD
//!
//! Every in-tree engine stores spectra split-complex and executes its
//! butterfly stages and pointwise accumulates through the [`crate::simd`]
//! kernels, which runtime-detect AVX2+FMA (double-precision engines) or
//! AVX-512F (integer engine) and fall back to a scalar leg elsewhere.
//! Generic callers (the external
//! product, bootstrapping) pick the vectorized kernels up for free through
//! this trait — nothing SIMD-specific leaks into the API.

use matcha_math::{GadgetDecomposer, IntPolynomial, TorusPolynomial};
use std::fmt::Debug;

/// A Lagrange half-complex spectrum owned by a specific engine family.
pub trait Spectrum: Clone + Debug + Send + Sync {
    /// Number of complex evaluation points (`N/2`).
    fn len(&self) -> usize;
    /// Returns `true` for the degenerate empty spectrum.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A negacyclic FFT engine over `T_N[X]`.
///
/// Implementations must satisfy, up to their documented accuracy:
/// `backward_torus(fwd_torus(p) ⊙ fwd_int(q)) = p·q mod (X^N+1, 1)`.
///
/// The `*_into` methods are the engine core and must be bit-identical to
/// their allocating counterparts; after one warm-up call per buffer they
/// must not allocate.
///
/// # Examples
///
/// ```
/// use matcha_fft::{F64Fft, FftEngine};
/// use matcha_math::{IntPolynomial, TorusPolynomial, Torus32};
///
/// let engine = F64Fft::new(8);
/// let p = TorusPolynomial::constant(Torus32::from_f64(0.25), 8);
/// let mut q = IntPolynomial::zero(8);
/// q.coeffs_mut()[0] = 2;
/// let mut acc = engine.zero_spectrum();
/// engine.mul_accumulate(&mut acc, &engine.forward_torus(&p), &engine.forward_int(&q));
/// let r = engine.backward_torus(&acc);
/// assert!(r.coeffs()[0].signed_diff(Torus32::from_f64(0.5)).abs() < 1e-6);
/// ```
pub trait FftEngine {
    /// The engine's spectral representation.
    type Spectrum: Spectrum;

    /// Pointwise factors `(X^e − 1)` evaluated at the engine's Lagrange
    /// points, reusable across the `2ℓ·(k+1)` polynomials of a TGSW sample.
    type MonomialFactors: Clone + Debug + Default + Send + Sync;

    /// Reusable per-caller workspace for the `*_into` transforms. A
    /// default-constructed scratch is empty; the first transform through it
    /// sizes its buffers, after which no further allocation occurs.
    type Scratch: Default + Debug + Send;

    /// Ring degree `N`.
    fn ring_degree(&self) -> usize;

    /// The zero spectrum, ready for [`FftEngine::mul_accumulate`].
    fn zero_spectrum(&self) -> Self::Spectrum;

    /// Resets `s` to the zero spectrum (resizing it if needed), making it a
    /// valid accumulator for [`FftEngine::mul_accumulate`] without
    /// allocating once `s` has the right capacity.
    fn clear_spectrum(&self, s: &mut Self::Spectrum);

    /// A fresh scratch workspace (buffers are sized lazily on first use).
    fn make_scratch(&self) -> Self::Scratch {
        Self::Scratch::default()
    }

    /// Coefficients → Lagrange domain for an integer polynomial, writing
    /// into `out`.
    ///
    /// Integer inputs are gadget digits or binary secrets; implementations
    /// may assume `‖p‖∞ ≤ 2^10` (the largest digit magnitude produced by the
    /// decompositions in this workspace).
    fn forward_int_into(
        &self,
        p: &IntPolynomial,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    );

    /// Coefficients → Lagrange domain for a torus polynomial, writing into
    /// `out`.
    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    );

    /// Fused gadget-decompose → forward transform: extracts digit `level`
    /// of every coefficient of `p` during the negacyclic twist fold and
    /// transforms it, writing into `out`.
    ///
    /// Must be bit-identical to materializing the digit polynomial with
    /// [`GadgetDecomposer::decompose_poly_into`] and calling
    /// [`FftEngine::forward_int_into`] on it — the external product relies
    /// on that equivalence to swap freely between the two paths. The
    /// default implementation does exactly that (and allocates the
    /// intermediate digit polynomial); the in-tree engines override it with
    /// a truly fused, allocation-free fold so digit polynomials are never
    /// written to memory.
    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &GadgetDecomposer,
        level: usize,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    ) {
        let mut digit = IntPolynomial::zero(p.len());
        for (d, &c) in digit.coeffs_mut().iter_mut().zip(p.coeffs().iter()) {
            *d = decomp.digit(decomp.shift(c), level);
        }
        self.forward_int_into(&digit, out, scratch);
    }

    /// Lagrange domain → torus coefficients (with reduction mod 1), writing
    /// into `out`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `out.len()` differs from the ring degree.
    fn backward_torus_into(
        &self,
        s: &Self::Spectrum,
        out: &mut TorusPolynomial,
        scratch: &mut Self::Scratch,
    );

    /// Coefficients → Lagrange domain for an integer polynomial
    /// (allocating wrapper over [`FftEngine::forward_int_into`]).
    fn forward_int(&self, p: &IntPolynomial) -> Self::Spectrum {
        let mut out = self.zero_spectrum();
        let mut scratch = self.make_scratch();
        self.forward_int_into(p, &mut out, &mut scratch);
        out
    }

    /// Coefficients → Lagrange domain for a torus polynomial (allocating
    /// wrapper over [`FftEngine::forward_torus_into`]).
    fn forward_torus(&self, p: &TorusPolynomial) -> Self::Spectrum {
        let mut out = self.zero_spectrum();
        let mut scratch = self.make_scratch();
        self.forward_torus_into(p, &mut out, &mut scratch);
        out
    }

    /// Lagrange domain → torus coefficients (allocating wrapper over
    /// [`FftEngine::backward_torus_into`]).
    fn backward_torus(&self, s: &Self::Spectrum) -> TorusPolynomial {
        let mut out = TorusPolynomial::zero(self.ring_degree());
        let mut scratch = self.make_scratch();
        self.backward_torus_into(s, &mut out, &mut scratch);
        out
    }

    /// `acc += a ⊙ b` (pointwise complex multiply-accumulate).
    ///
    /// # Panics
    ///
    /// Implementations may panic if the spectra come from incompatible
    /// transforms (mismatched sizes or scales).
    fn mul_accumulate(&self, acc: &mut Self::Spectrum, a: &Self::Spectrum, b: &Self::Spectrum);

    /// `acc_a += x ⊙ a` and `acc_b += x ⊙ b` in one logical step.
    ///
    /// This is the external product's inner loop: each transformed digit
    /// multiplies both the mask and body rows of a TGSW sample. Engines
    /// override it with a fused single pass that reads `x` once; results
    /// must be bit-identical to two [`FftEngine::mul_accumulate`] calls.
    fn mul_accumulate_pair(
        &self,
        acc_a: &mut Self::Spectrum,
        acc_b: &mut Self::Spectrum,
        x: &Self::Spectrum,
        a: &Self::Spectrum,
        b: &Self::Spectrum,
    ) {
        self.mul_accumulate(acc_a, x, a);
        self.mul_accumulate(acc_b, x, b);
    }

    /// `acc += a` (pointwise addition, used to fuse accumulator updates).
    fn add_assign(&self, acc: &mut Self::Spectrum, a: &Self::Spectrum);

    /// `acc += (X^exponent − 1) ⊙ src`, evaluated directly in the Lagrange
    /// domain: at evaluation point `ε_k = e^{iπ(4k+1)/N}` the monomial
    /// `X^e` is the scalar `ε_k^e`.
    ///
    /// This is the *TGSW scale* operation of MATCHA's TGSW clusters
    /// (paper Fig. 5/7b): bootstrapping-key bundles are linear combinations
    /// of pre-transformed keys, so building them needs pointwise complex
    /// multiplications (32-bit integer multipliers in hardware) but **no
    /// additional FFTs** — the property that makes aggressive key unrolling
    /// reduce FFT counts.
    ///
    /// `acc` must come from [`FftEngine::bundle_accumulator`] (or another
    /// call with the same provenance); `src` must be a `forward_torus`
    /// spectrum.
    fn scale_monomial_accumulate(
        &self,
        acc: &mut Self::Spectrum,
        src: &Self::Spectrum,
        exponent: i64,
    ) {
        let factors = self.monomial_minus_one(exponent);
        self.scale_accumulate(acc, src, &factors);
    }

    /// Writes the pointwise factors `ε_k^e − 1` for
    /// [`FftEngine::scale_accumulate`] into `out`. One factor table serves
    /// every row of a TGSW sample, so bundle construction computes it once
    /// per pattern per blind-rotation step.
    fn monomial_minus_one_into(&self, exponent: i64, out: &mut Self::MonomialFactors);

    /// Precomputes the pointwise factors `ε_k^e − 1` (allocating wrapper
    /// over [`FftEngine::monomial_minus_one_into`]).
    fn monomial_minus_one(&self, exponent: i64) -> Self::MonomialFactors {
        let mut out = Self::MonomialFactors::default();
        self.monomial_minus_one_into(exponent, &mut out);
        out
    }

    /// `acc += factors ⊙ src` — the TGSW scale inner loop.
    fn scale_accumulate(
        &self,
        acc: &mut Self::Spectrum,
        src: &Self::Spectrum,
        factors: &Self::MonomialFactors,
    );

    /// `acc_a += factors ⊙ src_a` and `acc_b += factors ⊙ src_b` in one
    /// logical step — the per-row bundle update, sharing one factor-table
    /// read. Must be bit-identical to two [`FftEngine::scale_accumulate`]
    /// calls.
    fn scale_accumulate_pair(
        &self,
        acc_a: &mut Self::Spectrum,
        acc_b: &mut Self::Spectrum,
        src_a: &Self::Spectrum,
        src_b: &Self::Spectrum,
        factors: &Self::MonomialFactors,
    ) {
        self.scale_accumulate(acc_a, src_a, factors);
        self.scale_accumulate(acc_b, src_b, factors);
    }

    /// Copies a `forward_torus` spectrum into `out` as an accumulator
    /// suitable for [`FftEngine::scale_monomial_accumulate`].
    ///
    /// Fixed-point engines drop a few fractional bits here so that summing
    /// up to `2^m − 1` scaled terms (`|X^e − 1| ≤ 2` each) cannot overflow.
    fn bundle_accumulator_into(&self, from: &Self::Spectrum, out: &mut Self::Spectrum);

    /// Copies a `forward_torus` spectrum into a fresh bundle accumulator
    /// (allocating wrapper over [`FftEngine::bundle_accumulator_into`]).
    fn bundle_accumulator(&self, from: &Self::Spectrum) -> Self::Spectrum {
        let mut out = self.zero_spectrum();
        self.bundle_accumulator_into(from, &mut out);
        out
    }

    /// Convenience: the full negacyclic product `p · q`.
    fn poly_mul(&self, p: &TorusPolynomial, q: &IntPolynomial) -> TorusPolynomial {
        let mut acc = self.zero_spectrum();
        self.mul_accumulate(&mut acc, &self.forward_torus(p), &self.forward_int(q));
        self.backward_torus(&acc)
    }
}

impl<E: FftEngine + ?Sized> FftEngine for &E {
    type Spectrum = E::Spectrum;
    type MonomialFactors = E::MonomialFactors;
    type Scratch = E::Scratch;
    fn ring_degree(&self) -> usize {
        (**self).ring_degree()
    }
    fn zero_spectrum(&self) -> Self::Spectrum {
        (**self).zero_spectrum()
    }
    fn clear_spectrum(&self, s: &mut Self::Spectrum) {
        (**self).clear_spectrum(s)
    }
    fn make_scratch(&self) -> Self::Scratch {
        (**self).make_scratch()
    }
    fn forward_int_into(
        &self,
        p: &IntPolynomial,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    ) {
        (**self).forward_int_into(p, out, scratch)
    }
    fn forward_torus_into(
        &self,
        p: &TorusPolynomial,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    ) {
        (**self).forward_torus_into(p, out, scratch)
    }
    fn forward_decomposed_into(
        &self,
        p: &TorusPolynomial,
        decomp: &GadgetDecomposer,
        level: usize,
        out: &mut Self::Spectrum,
        scratch: &mut Self::Scratch,
    ) {
        (**self).forward_decomposed_into(p, decomp, level, out, scratch)
    }
    fn backward_torus_into(
        &self,
        s: &Self::Spectrum,
        out: &mut TorusPolynomial,
        scratch: &mut Self::Scratch,
    ) {
        (**self).backward_torus_into(s, out, scratch)
    }
    fn forward_int(&self, p: &IntPolynomial) -> Self::Spectrum {
        (**self).forward_int(p)
    }
    fn forward_torus(&self, p: &TorusPolynomial) -> Self::Spectrum {
        (**self).forward_torus(p)
    }
    fn backward_torus(&self, s: &Self::Spectrum) -> TorusPolynomial {
        (**self).backward_torus(s)
    }
    fn mul_accumulate(&self, acc: &mut Self::Spectrum, a: &Self::Spectrum, b: &Self::Spectrum) {
        (**self).mul_accumulate(acc, a, b)
    }
    fn mul_accumulate_pair(
        &self,
        acc_a: &mut Self::Spectrum,
        acc_b: &mut Self::Spectrum,
        x: &Self::Spectrum,
        a: &Self::Spectrum,
        b: &Self::Spectrum,
    ) {
        (**self).mul_accumulate_pair(acc_a, acc_b, x, a, b)
    }
    fn add_assign(&self, acc: &mut Self::Spectrum, a: &Self::Spectrum) {
        (**self).add_assign(acc, a)
    }
    fn scale_monomial_accumulate(
        &self,
        acc: &mut Self::Spectrum,
        src: &Self::Spectrum,
        exponent: i64,
    ) {
        (**self).scale_monomial_accumulate(acc, src, exponent)
    }
    fn monomial_minus_one_into(&self, exponent: i64, out: &mut Self::MonomialFactors) {
        (**self).monomial_minus_one_into(exponent, out)
    }
    fn monomial_minus_one(&self, exponent: i64) -> Self::MonomialFactors {
        (**self).monomial_minus_one(exponent)
    }
    fn scale_accumulate(
        &self,
        acc: &mut Self::Spectrum,
        src: &Self::Spectrum,
        factors: &Self::MonomialFactors,
    ) {
        (**self).scale_accumulate(acc, src, factors)
    }
    fn scale_accumulate_pair(
        &self,
        acc_a: &mut Self::Spectrum,
        acc_b: &mut Self::Spectrum,
        src_a: &Self::Spectrum,
        src_b: &Self::Spectrum,
        factors: &Self::MonomialFactors,
    ) {
        (**self).scale_accumulate_pair(acc_a, acc_b, src_a, src_b, factors)
    }
    fn bundle_accumulator_into(&self, from: &Self::Spectrum, out: &mut Self::Spectrum) {
        (**self).bundle_accumulator_into(from, out)
    }
    fn bundle_accumulator(&self, from: &Self::Spectrum) -> Self::Spectrum {
        (**self).bundle_accumulator(from)
    }
}
