//! SIMD-vs-scalar equivalence for every engine.
//!
//! The kernel legs in `matcha_fft::simd` must agree:
//!
//! * **bit-identical** where the arithmetic is exact — the integer engine,
//!   whose AVX-512F leg rebuilds every 128-bit product from 32-bit limbs
//!   (`approx_kernels_equiv` sweeps it method by method), and the fused
//!   pair kernels against two single calls *within* one leg;
//! * **bounded-ulp** where the vector leg contracts `a·b ± c·d` into FMAs —
//!   the three double-precision engines, compared here through exact
//!   backward-transformed torus coefficients with a tolerance far below
//!   TFHE's noise floor but far above any legitimate ulp drift.
//!
//! `force_simd` is process-global, so every test takes a mutex; on CPUs
//! without AVX2+FMA both sides force to the scalar leg and the comparisons
//! hold trivially (the CI matrix runs the suite with `MATCHA_SIMD` forced
//! both ways for the same reason).

use matcha_fft::{
    force_simd, simd_active, simd_detected, ApproxIntFft, DepthFirstFft, F64Fft, FftEngine,
    Radix4Fft,
};
use matcha_math::{GadgetDecomposer, Torus32, TorusPolynomial};
use std::sync::{Mutex, MutexGuard};

static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Serializes force_simd users and restores auto mode afterwards.
struct ForceGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ForceGuard {
    fn lock() -> Self {
        Self(SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        force_simd(None);
    }
}

fn random_torus_poly(n: usize, seed: u32) -> TorusPolynomial {
    TorusPolynomial::from_coeffs(
        (0..n as u32)
            .map(|i| Torus32::from_raw((i ^ seed).wrapping_mul(0x9e37_79b9).wrapping_add(seed)))
            .collect(),
    )
}

/// Runs the full external-product-shaped pipeline on one engine with the
/// current kernel leg: fused decomposed forwards, pair accumulation, bundle
/// scale, backward. Returns the two backward-transformed polynomials.
fn pipeline<E: FftEngine>(engine: &E, seed: u32) -> (TorusPolynomial, TorusPolynomial) {
    let n = engine.ring_degree();
    let decomp = GadgetDecomposer::new(8, 3);
    let p = random_torus_poly(n, seed);
    let q = random_torus_poly(n, seed ^ 0xdead);
    let mut scratch = engine.make_scratch();

    let fq = {
        let mut s = engine.zero_spectrum();
        engine.forward_torus_into(&q, &mut s, &mut scratch);
        s
    };
    let mut acc_a = engine.zero_spectrum();
    let mut acc_b = engine.zero_spectrum();
    let mut fd = engine.zero_spectrum();
    for level in 0..decomp.levels() {
        engine.forward_decomposed_into(&p, &decomp, level, &mut fd, &mut scratch);
        engine.mul_accumulate_pair(&mut acc_a, &mut acc_b, &fd, &fq, &fq);
    }
    // Bundle path: scale by (X^e - 1) factors on top of the accumulators.
    let factors = engine.monomial_minus_one(7);
    let mut bundle_a = engine.zero_spectrum();
    let mut bundle_b = engine.zero_spectrum();
    engine.bundle_accumulator_into(&fq, &mut bundle_a);
    engine.bundle_accumulator_into(&fq, &mut bundle_b);
    engine.scale_accumulate_pair(&mut bundle_a, &mut bundle_b, &fq, &fq, &factors);

    let mut out_a = TorusPolynomial::zero(n);
    let mut out_b = TorusPolynomial::zero(n);
    engine.backward_torus_into(&acc_a, &mut out_a, &mut scratch);
    engine.backward_torus_into(&bundle_b, &mut out_b, &mut scratch);
    (out_a, out_b)
}

/// Largest tolerated SIMD↔scalar divergence, in torus units. FMA
/// contraction drifts a few ulps of ~2^40-magnitude intermediates, which
/// lands around 2^-12 … 2^-20 torus *raw ticks*; 1e-6 (≈ 4300 ticks of
/// 2^-32) gives three orders of margin while still catching any real bug
/// (a wrong butterfly perturbs coefficients at the 1e-2 scale).
const TOL: f64 = 1e-6;

fn check_f64_engine<E: FftEngine>(engine: &E, seed: u32) {
    let _g = ForceGuard::lock();
    force_simd(Some(false));
    assert!(!simd_active());
    let (scalar_a, scalar_b) = pipeline(engine, seed);
    force_simd(Some(true));
    let (simd_a, simd_b) = pipeline(engine, seed);
    let da = scalar_a.max_distance(&simd_a);
    let db = scalar_b.max_distance(&simd_b);
    assert!(da < TOL, "external-product pipeline diverged: {da}");
    assert!(db < TOL, "bundle pipeline diverged: {db}");
}

#[test]
fn f64_simd_matches_scalar() {
    check_f64_engine(&F64Fft::new(1024), 11);
    check_f64_engine(&F64Fft::new(64), 12);
}

#[test]
fn depth_first_simd_matches_scalar() {
    check_f64_engine(&DepthFirstFft::new(1024), 21);
    check_f64_engine(&DepthFirstFft::new(64), 22);
}

#[test]
fn radix4_simd_matches_scalar() {
    check_f64_engine(&Radix4Fft::new(1024), 31);
    check_f64_engine(&Radix4Fft::new(64), 32);
}

#[test]
fn approx_simd_leg_is_bit_identical() {
    // The integer engine's vector leg (AVX-512F, where detected) computes
    // every rounding exactly as the scalar i128 leg does, so the whole
    // external-product-shaped pipeline must not change by a single bit —
    // at the paper's size and twiddle width as well as off it.
    let _g = ForceGuard::lock();
    for (n, bits, seed) in [(1024, 38, 41), (256, 45, 42), (16, 24, 43)] {
        let engine = ApproxIntFft::new(n, bits);
        force_simd(Some(false));
        let (sa, sb) = pipeline(&engine, seed);
        force_simd(Some(true));
        let (va, vb) = pipeline(&engine, seed);
        assert_eq!(sa, va, "N={n} β={bits}: external product");
        assert_eq!(sb, vb, "N={n} β={bits}: bundle");
    }
}

#[test]
fn forward_roundtrip_matches_across_legs() {
    // Bare forward/backward roundtrip, each leg internally consistent and
    // both agreeing on the recovered polynomial.
    let _g = ForceGuard::lock();
    for n in [8usize, 64, 1024] {
        let engine = F64Fft::new(n);
        let p = random_torus_poly(n, 5);
        force_simd(Some(false));
        let scalar = engine.backward_torus(&engine.forward_torus(&p));
        force_simd(Some(true));
        let simd = engine.backward_torus(&engine.forward_torus(&p));
        assert!(scalar.max_distance(&p) < 1e-7, "n={n} scalar roundtrip");
        assert!(simd.max_distance(&p) < 1e-7, "n={n} simd roundtrip");
        assert!(scalar.max_distance(&simd) < TOL, "n={n} leg divergence");
    }
}

#[test]
fn pair_calls_match_singles_on_active_leg() {
    // Whatever leg is active (auto): one fused pair call must be
    // bit-identical to two single calls — the external product swaps
    // between them freely.
    let _g = ForceGuard::lock();
    for force in [Some(false), Some(true)] {
        force_simd(force);
        let engine = F64Fft::new(256);
        let x = engine.forward_torus(&random_torus_poly(256, 51));
        let a = engine.forward_torus(&random_torus_poly(256, 52));
        let b = engine.forward_torus(&random_torus_poly(256, 53));
        let mut pair_a = engine.zero_spectrum();
        let mut pair_b = engine.zero_spectrum();
        engine.mul_accumulate_pair(&mut pair_a, &mut pair_b, &x, &a, &b);
        let mut single_a = engine.zero_spectrum();
        let mut single_b = engine.zero_spectrum();
        engine.mul_accumulate(&mut single_a, &x, &a);
        engine.mul_accumulate(&mut single_b, &x, &b);
        assert_eq!(pair_a, single_a, "force={force:?}");
        assert_eq!(pair_b, single_b, "force={force:?}");
    }
}

#[test]
fn detection_reporting_is_consistent() {
    let _g = ForceGuard::lock();
    force_simd(Some(true));
    assert_eq!(
        simd_active(),
        simd_detected(),
        "forcing SIMD on must still respect CPU detection"
    );
    force_simd(Some(false));
    assert!(!simd_active());
}
