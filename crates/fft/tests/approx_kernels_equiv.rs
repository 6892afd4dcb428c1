//! `ApproxIntFft` kernel legs: for every `FftEngine` method the scalar leg
//! and the AVX-512F leg are bit-identical, and both equal a reference model
//! of the engine written here from `LiftingRotation::apply` (the shift-add
//! hardware reference) and `i128` pointwise products.
//!
//! The sweep covers twiddle widths β ∈ {4, 24, 38, 50, 62} and ring degrees
//! N ∈ {4, 8, 16, 64, 1024}: N ≤ 8 has fewer than eight lanes per
//! component, and N ≤ 64 drives the pointwise products' rounding shift
//! past 64 bits. Inputs include the extreme torus values `0x8000_0000` and
//! `0x7fff_ffff` and digits of ±2^10.
//!
//! `force_simd` is process-global, so every test takes a mutex. On hosts
//! without AVX-512F only the vector-leg comparison is skipped; the
//! reference comparison still runs.

use matcha_fft::approx::FixedSpectrum;
use matcha_fft::{avx512_detected, force_simd, ApproxIntFft, FftEngine, LiftingRotation};
use matcha_math::{GadgetDecomposer, IntPolynomial, Torus32, TorusPolynomial};
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};
use std::sync::{Mutex, MutexGuard};

const BETAS: [u32; 5] = [4, 24, 38, 50, 62];
const SIZES: [usize; 5] = [4, 8, 16, 64, 1024];

static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Serializes `force_simd` users and restores auto mode afterwards.
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

/// One test case: two torus polynomials, a digit polynomial and a
/// monomial exponent.
struct Inputs {
    p: TorusPolynomial,
    p2: TorusPolynomial,
    q: IntPolynomial,
    exponent: i64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_inputs(n: usize, seed: u64) -> Inputs {
    let mut st = seed | 1;
    let mut torus = || {
        TorusPolynomial::from_coeffs(
            (0..n)
                .map(|_| Torus32::from_raw(xorshift(&mut st) as u32))
                .collect(),
        )
    };
    let (p, p2) = (torus(), torus());
    let q = IntPolynomial::from_coeffs(
        (0..n)
            .map(|_| (xorshift(&mut st) % 2049) as i32 - 1024)
            .collect(),
    );
    Inputs {
        p,
        p2,
        q,
        exponent: (xorshift(&mut st) % (4 * n as u64)) as i64 - n as i64,
    }
}

/// Constant and alternating extremes: the most negative and most positive
/// centered torus values, and digits of ±2^10.
fn extreme_inputs(n: usize) -> Vec<Inputs> {
    let torus = |f: &dyn Fn(usize) -> u32| {
        TorusPolynomial::from_coeffs((0..n).map(|i| Torus32::from_raw(f(i))).collect())
    };
    let digits = |f: &dyn Fn(usize) -> i32| IntPolynomial::from_coeffs((0..n).map(f).collect());
    vec![
        Inputs {
            p: torus(&|_| 0x8000_0000),
            p2: torus(&|_| 0x7fff_ffff),
            q: digits(&|_| 1 << 10),
            exponent: 1,
        },
        Inputs {
            p: torus(&|_| 0x7fff_ffff),
            p2: torus(&|_| 0x8000_0000),
            q: digits(&|_| -(1 << 10)),
            exponent: 2 * n as i64 - 1,
        },
        Inputs {
            p: torus(&|i| if i % 2 == 0 { 0x8000_0000 } else { 0x7fff_ffff }),
            p2: torus(&|i| if i % 3 == 0 { 0x7fff_ffff } else { 0x8000_0000 }),
            q: digits(&|i| if i % 2 == 0 { 1 << 10 } else { -(1 << 10) }),
            exponent: n as i64,
        },
    ]
}

/// The decomposers swept: MATCHA's (10, 3) and a base-2^11 one whose
/// centered digits reach −2^10.
fn decomposers() -> [GadgetDecomposer; 2] {
    [GadgetDecomposer::new(10, 3), GadgetDecomposer::new(11, 2)]
}

/// A spectrum as comparable parts.
type Parts = (Vec<i64>, Vec<i64>, u32);

fn parts(s: &FixedSpectrum) -> Parts {
    (s.re.clone(), s.im.clone(), s.frac_bits)
}

/// Every output of one pass over the engine's methods.
#[derive(Debug, PartialEq)]
struct Outputs {
    forward_torus: Parts,
    forward_int: Parts,
    forward_decomposed: Vec<Parts>,
    backward_torus: Vec<Torus32>,
    backward_int: Vec<Torus32>,
    mul_acc: Parts,
    mul_acc_int_int: Parts,
    mul_acc_pair: (Parts, Parts),
    backward_acc: Vec<Torus32>,
    bundle: Parts,
    scale_acc: Parts,
    scale_acc_pair: (Parts, Parts),
    backward_bundle: Vec<Torus32>,
}

/// Runs every `FftEngine` method of `engine` on `x` with the current leg.
fn run(engine: &ApproxIntFft, x: &Inputs) -> Outputs {
    let n = engine.ring_degree();
    let mut scratch = engine.make_scratch();
    let back = |s: &FixedSpectrum, scratch: &mut _| {
        let mut out = TorusPolynomial::zero(n);
        engine.backward_torus_into(s, &mut out, scratch);
        out.coeffs().to_vec()
    };
    let ft = engine.forward_torus(&x.p);
    let ft2 = engine.forward_torus(&x.p2);
    let fq = engine.forward_int(&x.q);
    let mut fds = Vec::new();
    for decomp in decomposers() {
        for level in 0..decomp.levels() {
            let mut fd = engine.zero_spectrum();
            engine.forward_decomposed_into(&x.p, &decomp, level, &mut fd, &mut scratch);
            fds.push(fd);
        }
    }

    let mut acc = engine.zero_spectrum();
    engine.mul_accumulate(&mut acc, &ft, &fq);
    let mut acc_ii = engine.zero_spectrum();
    engine.mul_accumulate(&mut acc_ii, &fq, &fds[0]);
    let (mut pa, mut pb) = (engine.zero_spectrum(), engine.zero_spectrum());
    for fd in &fds {
        engine.mul_accumulate_pair(&mut pa, &mut pb, fd, &ft, &ft2);
    }

    let factors = engine.monomial_minus_one(x.exponent);
    let bundle = engine.bundle_accumulator(&ft);
    let mut scaled = bundle.clone();
    engine.scale_accumulate(&mut scaled, &ft2, &factors);
    let (mut sa, mut sb) = (bundle.clone(), engine.bundle_accumulator(&ft2));
    engine.scale_accumulate_pair(&mut sa, &mut sb, &ft2, &ft, &factors);

    Outputs {
        forward_torus: parts(&ft),
        forward_int: parts(&fq),
        forward_decomposed: fds.iter().map(parts).collect(),
        backward_torus: back(&ft, &mut scratch),
        backward_int: back(&fq, &mut scratch),
        mul_acc: parts(&acc),
        mul_acc_int_int: parts(&acc_ii),
        mul_acc_pair: (parts(&pa), parts(&pb)),
        backward_acc: back(&pa, &mut scratch),
        bundle: parts(&bundle),
        scale_acc: parts(&scaled),
        scale_acc_pair: (parts(&sa), parts(&sb)),
        backward_bundle: back(&sb, &mut scratch),
    }
}

/// The engine's arithmetic spelled out with `LiftingRotation::apply` per
/// twiddle and `i128` pointwise products. Fixed-point scales are read from
/// the engine's outputs, so the model checks the arithmetic, not the
/// headroom policy.
struct Reference {
    n: usize,
    fwd: Vec<LiftingRotation>,
    inv: Vec<LiftingRotation>,
    twist: Vec<LiftingRotation>,
    untwist: Vec<LiftingRotation>,
}

impl Reference {
    fn new(n: usize, beta: u32) -> Self {
        let m = n / 2;
        let rot = |theta: f64| LiftingRotation::from_angle(theta, beta);
        Self {
            n,
            fwd: (0..m / 2).map(|k| rot(TAU * k as f64 / m as f64)).collect(),
            inv: (0..m / 2)
                .map(|k| rot(-TAU * k as f64 / m as f64))
                .collect(),
            twist: (0..m).map(|j| rot(PI * j as f64 / n as f64)).collect(),
            untwist: (0..m).map(|j| rot(-PI * j as f64 / n as f64)).collect(),
        }
    }

    fn bit_reverse(v: &mut [i64]) {
        let bits = v.len().trailing_zeros();
        for i in 0..v.len() {
            let j = if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (usize::BITS - bits)
            };
            if j > i {
                v.swap(i, j);
            }
        }
    }

    fn stages(re: &mut [i64], im: &mut [i64], table: &[LiftingRotation], halve: bool) {
        let m = re.len();
        let fix = |v: i64| if halve { (v + 1) >> 1 } else { v };
        let mut len = 2;
        while len <= m {
            let half = len / 2;
            for start in (0..m).step_by(len) {
                for k in 0..half {
                    let (vr, vi) =
                        table[k * (m / len)].apply(re[start + half + k], im[start + half + k]);
                    let (ur, ui) = (re[start + k], im[start + k]);
                    re[start + k] = fix(ur + vr);
                    im[start + k] = fix(ui + vi);
                    re[start + half + k] = fix(ur - vr);
                    im[start + half + k] = fix(ui - vi);
                }
            }
            len *= 2;
        }
    }

    fn forward(&self, value: impl Fn(usize) -> i64, frac: u32) -> Parts {
        let m = self.n / 2;
        let (mut re, mut im): (Vec<i64>, Vec<i64>) = (0..m)
            .map(|j| self.twist[j].apply(value(j) << frac, value(j + m) << frac))
            .unzip();
        Self::bit_reverse(&mut re);
        Self::bit_reverse(&mut im);
        Self::stages(&mut re, &mut im, &self.fwd, false);
        (re, im, frac)
    }

    fn backward(&self, s: &Parts) -> Vec<Torus32> {
        let (mut re, mut im, frac) = s.clone();
        let m = self.n / 2;
        Self::bit_reverse(&mut re);
        Self::bit_reverse(&mut im);
        Self::stages(&mut re, &mut im, &self.inv, true);
        let descale = |v: i64| {
            let v = if frac == 0 {
                v
            } else {
                (v + (1 << (frac - 1))) >> frac
            };
            Torus32::from_raw(v as u32)
        };
        let mut out = vec![Torus32::ZERO; self.n];
        for j in 0..m {
            let (x, y) = self.untwist[j].apply(re[j], im[j]);
            out[j] = descale(x);
            out[j + m] = descale(y);
        }
        out
    }

    /// `acc += round(a ⊙ b / 2^shift)` in `i128`.
    fn cmul_acc(acc: &mut Parts, a: (&[i64], &[i64]), b: (&[i64], &[i64]), shift: u32) {
        let round = 1i128 << (shift - 1);
        for k in 0..acc.0.len() {
            let (ar, ai) = (a.0[k] as i128, a.1[k] as i128);
            let (br, bi) = (b.0[k] as i128, b.1[k] as i128);
            acc.0[k] += ((ar * br - ai * bi + round) >> shift) as i64;
            acc.1[k] += ((ar * bi + ai * br + round) >> shift) as i64;
        }
    }

    fn mul_acc(acc: &mut Parts, a: &Parts, b: &Parts) {
        Self::cmul_acc(acc, (&a.0, &a.1), (&b.0, &b.1), a.2 + b.2);
    }

    fn run(&self, engine: &ApproxIntFft, x: &Inputs) -> Outputs {
        let m = self.n / 2;
        let zero = || (vec![0i64; m], vec![0i64; m], 0u32);
        // Scales as the engine reports them.
        let torus_frac = engine.forward_torus(&x.p).frac_bits;
        let int_frac = engine.forward_int(&x.q).frac_bits;
        let centered = |p: &TorusPolynomial, j: usize| i64::from(p.coeffs()[j].raw() as i32);
        let ft = self.forward(|j| centered(&x.p, j), torus_frac);
        let ft2 = self.forward(|j| centered(&x.p2, j), torus_frac);
        let fq = self.forward(|j| i64::from(x.q.coeffs()[j]), int_frac);
        let mut fds = Vec::new();
        for decomp in decomposers() {
            for level in 0..decomp.levels() {
                let digit =
                    |j: usize| i64::from(decomp.digit(decomp.shift(x.p.coeffs()[j]), level));
                fds.push(self.forward(digit, int_frac));
            }
        }

        let mut acc = zero();
        Self::mul_acc(&mut acc, &ft, &fq);
        let mut acc_ii = zero();
        Self::mul_acc(&mut acc_ii, &fq, &fds[0]);
        let (mut pa, mut pb) = (zero(), zero());
        for fd in &fds {
            Self::mul_acc(&mut pa, fd, &ft);
            Self::mul_acc(&mut pb, fd, &ft2);
        }

        let f = engine.monomial_minus_one(x.exponent);
        let f64s = (
            f.re.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
            f.im.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
        );
        let drop = matcha_fft::approx::BUNDLE_DROP_BITS;
        let open = |s: &Parts| -> Parts {
            let half = 1i64 << (drop - 1);
            (
                s.0.iter().map(|&v| (v + half) >> drop).collect(),
                s.1.iter().map(|&v| (v + half) >> drop).collect(),
                s.2 - drop,
            )
        };
        let shift = matcha_fft::approx::MONO_FRAC_BITS + drop;
        let scale = |acc: &mut Parts, src: &Parts| {
            Self::cmul_acc(acc, (&src.0, &src.1), (&f64s.0, &f64s.1), shift);
        };
        let bundle = open(&ft);
        let mut scaled = bundle.clone();
        scale(&mut scaled, &ft2);
        let (mut sa, mut sb) = (bundle.clone(), open(&ft2));
        scale(&mut sa, &ft2);
        scale(&mut sb, &ft);

        Outputs {
            backward_torus: self.backward(&ft),
            backward_int: self.backward(&fq),
            backward_acc: self.backward(&pa),
            backward_bundle: self.backward(&sb),
            forward_torus: ft,
            forward_int: fq,
            forward_decomposed: fds,
            mul_acc: acc,
            mul_acc_int_int: acc_ii,
            mul_acc_pair: (pa, pb),
            bundle,
            scale_acc: scaled,
            scale_acc_pair: (sa, sb),
        }
    }
}

/// Scalar leg ≡ reference, and (where AVX-512F exists) vector leg ≡ scalar.
fn check(n: usize, beta: u32, x: &Inputs, case: &str) {
    let engine = ApproxIntFft::new(n, beta);
    force_simd(Some(false));
    let scalar = run(&engine, x);
    let reference = Reference::new(n, beta).run(&engine, x);
    assert_eq!(
        scalar, reference,
        "scalar leg vs reference: N={n} β={beta} {case}"
    );
    if avx512_detected() {
        force_simd(Some(true));
        let vector = run(&engine, x);
        force_simd(Some(false));
        assert_eq!(
            vector, scalar,
            "AVX-512 leg vs scalar: N={n} β={beta} {case}"
        );
    }
}

#[test]
fn deterministic_sweep_is_bit_identical_on_both_legs() {
    let _g = ForceGuard::lock();
    for n in SIZES {
        for beta in BETAS {
            for seed in 1..=2 {
                check(n, beta, &random_inputs(n, seed), &format!("seed {seed}"));
            }
            for (i, x) in extreme_inputs(n).iter().enumerate() {
                check(n, beta, x, &format!("extreme case {i}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_inputs_are_bit_identical_on_both_legs(
        n in prop::sample::select(SIZES.to_vec()),
        beta in prop::sample::select(BETAS.to_vec()),
        seed in any::<u64>(),
    ) {
        let _g = ForceGuard::lock();
        check(n, beta, &random_inputs(n, seed), &format!("seed {seed}"));
    }
}
