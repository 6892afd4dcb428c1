//! Split-complex butterfly and pointwise kernels with runtime-detected
//! AVX2+FMA vectorization.
//!
//! # Layout
//!
//! Every kernel works on *split-complex* data: separate `re[]`/`im[]`
//! slices instead of an interleaved array of complex structs. Split storage
//! is what makes the butterflies vectorizable without any lane shuffles —
//! four butterflies load as four contiguous doubles per component, and the
//! per-stage contiguous [`crate::tables::StageTwiddles`] slices from PR 2
//! stream the twiddle factors the same way. (MATCHA's integer engine,
//! [`crate::ApproxIntFft`], has stored its spectra split from the start;
//! this module brings the double-precision engines onto the same layout.)
//!
//! # Dispatch
//!
//! Each public kernel picks one of two legs per call:
//!
//! * an explicitly vectorized AVX2+FMA leg (`core::arch::x86_64`
//!   intrinsics behind `#[target_feature]`), taken when
//!   [`simd_active`] reports `true`;
//! * a chunk-friendly scalar leg that preserves the pre-SIMD operation
//!   order bit-for-bit, taken everywhere else (non-x86_64 targets, CPUs
//!   without AVX2/FMA, `MATCHA_SIMD=0`, or a [`force_simd`] override).
//!
//! The two legs agree to bounded ulp, not bitwise: the vector leg contracts
//! `a·b ± c·d` into fused multiply-adds (one rounding instead of two).
//! Within either leg, the fused pair kernels ([`mul_acc_pair`]) are
//! bit-identical to two single-accumulator calls — the external product
//! relies on that to swap freely between them.
//!
//! # Integer (i64) kernels
//!
//! MATCHA's integer engine ([`crate::ApproxIntFft`]) runs its lifting
//! butterflies, twist folds, untwist-and-descale tail and 128-bit pointwise
//! and TGSW-scale accumulates through the kernels of the `int` submodule.
//! Each lifting step and each pointwise product needs an exact
//! 64×64→128-bit multiply with a rounding shift. AVX2 offers neither 64-bit
//! lane multiplies nor 64-bit arithmetic shifts, so the integer vector leg
//! is AVX-512F (eight `i64` lanes): it builds every 128-bit product from
//! four 32×32→64 limb products, corrects the high word for signs, adds the
//! rounding constant with an explicit carry and recombines with shifts.
//! Unlike the f64 kernels it is **bit-identical** to its scalar leg, so the
//! flag changes no ciphertext and no noise. It runs when [`simd_active`]
//! holds and the CPU reports AVX-512F ([`avx512_detected`]); `MATCHA_SIMD=0`
//! and [`force_simd`] pin the scalar leg exactly as for the f64 kernels.

mod int;

pub use int::avx512_detected;
pub(crate) use int::{
    i64_fold, i64_mul_acc, i64_radix2_stage, i64_scale_acc, i64_unfold, FoldInput, Lifts,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Explicit override state: 0 = auto, 1 = forced scalar, 2 = forced SIMD
/// (still requires CPU support).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Cached auto decision (detection ∧ environment): 0 = unknown, 1 = off,
/// 2 = on.
static AUTO: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU supports the AVX2+FMA kernels.
///
/// Always `false` off x86_64. Detection is cached by the standard library,
/// so this is a handful of atomic loads.
#[inline]
pub fn simd_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `MATCHA_SIMD=0` (or `off`) disables the vector leg for the whole
/// process; anything else — including unset — leaves it on when detected.
fn env_allows_simd() -> bool {
    !matches!(
        std::env::var("MATCHA_SIMD").as_deref(),
        Ok("0") | Ok("off") | Ok("OFF")
    )
}

fn auto_active() -> bool {
    match AUTO.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = simd_detected() && env_allows_simd();
            AUTO.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Whether the kernels will take the AVX2+FMA leg right now.
///
/// `true` iff the CPU supports it, `MATCHA_SIMD` does not say `0`, and no
/// [`force_simd`] override says otherwise. The first call caches the
/// environment lookup; warmed calls are two relaxed atomic loads and never
/// allocate (the zero-allocation hot-path property of PR 1 is preserved).
#[inline]
pub fn simd_active() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => simd_detected(),
        _ => auto_active(),
    }
}

/// Process-global override used by the equivalence tests and the
/// `simd_vs_scalar` benchmarks to pin one leg: `Some(false)` forces the
/// scalar leg, `Some(true)` forces the vector leg where detected (CPUs
/// without AVX2+FMA stay scalar — the kernels never execute unsupported
/// instructions), `None` restores auto selection.
///
/// Affects every engine in the process; callers that toggle it from tests
/// must serialize themselves around it.
pub fn force_simd(mode: Option<bool>) {
    let v = match mode {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// f64 radix-2 kernels
// ---------------------------------------------------------------------------

/// One breadth-first radix-2 butterfly stage over the whole buffer:
/// butterflies of length `len` on every aligned block, reading the stage's
/// `len/2` twiddles from `(wre, wim)` with unit stride.
///
/// # Panics
///
/// Panics on mismatched slice lengths (the vector leg runs raw-pointer
/// loops, so every public kernel checks its invariants with real asserts —
/// a handful of integer compares against `O(m)` work).
#[inline]
pub fn radix2_stage(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64], len: usize) {
    let half = len / 2;
    assert_eq!(re.len(), im.len(), "component length mismatch");
    assert_eq!(
        re.len() % len,
        0,
        "buffer not a multiple of the stage length"
    );
    assert_eq!(wre.len(), half, "twiddle table length mismatch");
    assert_eq!(wim.len(), half, "twiddle table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY (all three calls): simd_active() implies AVX2+FMA.
        if half >= 4 {
            unsafe { radix2_stage_avx(re, im, wre, wim, len) };
            return;
        }
        // The two narrow stages (len 2 and 4) have in-register butterflies:
        // vectorized with shuffles instead of falling back to scalar, they
        // carry 2/log2(M) of the butterfly work.
        if len == 2 && re.len() >= 4 {
            unsafe { radix2_stage2_avx(re, im) };
            return;
        }
        if len == 4 && re.len() >= 8 {
            unsafe { radix2_stage4_avx(re, im, wre, wim) };
            return;
        }
    }
    radix2_stage_scalar(re, im, wre, wim, len);
}

/// Scalar leg, same operation order as the pre-SIMD butterfly loop:
/// `v = x·w` with separately rounded products, then `u ± v`.
#[allow(clippy::needless_range_loop)]
fn radix2_stage_scalar(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64], len: usize) {
    let m = re.len();
    let half = len / 2;
    for start in (0..m).step_by(len) {
        for k in 0..half {
            let (wr, wi) = (wre[k], wim[k]);
            let (xr, xi) = (re[start + half + k], im[start + half + k]);
            let vr = xr * wr - xi * wi;
            let vi = xr * wi + xi * wr;
            let (ur, ui) = (re[start + k], im[start + k]);
            re[start + k] = ur + vr;
            im[start + k] = ui + vi;
            re[start + half + k] = ur - vr;
            im[start + half + k] = ui - vi;
        }
    }
}

/// AVX2+FMA leg: four butterflies per iteration, `v = x·w` contracted to
/// `fmsub`/`fmadd` (one rounding fewer than the scalar leg per component).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_stage_avx(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64], len: usize) {
    use std::arch::x86_64::*;
    let m = re.len();
    let half = len / 2;
    let mut start = 0;
    while start < m {
        let rp = unsafe { re.as_mut_ptr().add(start) };
        let ip = unsafe { im.as_mut_ptr().add(start) };
        let mut k = 0;
        while k + 4 <= half {
            unsafe {
                let wr = _mm256_loadu_pd(wre.as_ptr().add(k));
                let wi = _mm256_loadu_pd(wim.as_ptr().add(k));
                let xr = _mm256_loadu_pd(rp.add(half + k));
                let xi = _mm256_loadu_pd(ip.add(half + k));
                let vr = _mm256_fmsub_pd(xr, wr, _mm256_mul_pd(xi, wi));
                let vi = _mm256_fmadd_pd(xr, wi, _mm256_mul_pd(xi, wr));
                let ur = _mm256_loadu_pd(rp.add(k));
                let ui = _mm256_loadu_pd(ip.add(k));
                _mm256_storeu_pd(rp.add(k), _mm256_add_pd(ur, vr));
                _mm256_storeu_pd(ip.add(k), _mm256_add_pd(ui, vi));
                _mm256_storeu_pd(rp.add(half + k), _mm256_sub_pd(ur, vr));
                _mm256_storeu_pd(ip.add(half + k), _mm256_sub_pd(ui, vi));
            }
            k += 4;
        }
        // `half` is a power of two, so either the whole stage vectorized
        // (half ≥ 4) or the dispatcher already chose the scalar leg.
        debug_assert_eq!(k, half);
        start += len;
    }
}

/// Length-2 stage (`w = 1` exactly): adjacent-pair butterflies
/// `(u, v) → (u+v, u−v)`, two per vector via a sign-flip and horizontal
/// add. Exact — no multiplies, so it matches the generic butterfly
/// bit-for-bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_stage2_avx(re: &mut [f64], im: &mut [f64]) {
    use std::arch::x86_64::*;
    let m = re.len();
    // Negates lanes 1 and 3 (set_pd takes high→low).
    let flip = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    for comp in [re, im] {
        let p = comp.as_mut_ptr();
        let mut k = 0;
        while k + 4 <= m {
            unsafe {
                let y = _mm256_loadu_pd(p.add(k)); // [u0, v0, u1, v1]
                let d = _mm256_xor_pd(y, flip); // [u0, -v0, u1, -v1]
                                                // hadd(y, d) = [u0+v0, u0-v0, u1+v1, u1-v1]
                _mm256_storeu_pd(p.add(k), _mm256_hadd_pd(y, d));
            }
            k += 4;
        }
        debug_assert_eq!(k, m);
    }
}

/// Length-4 stage (`half = 2`): two blocks per iteration, lane-split with
/// 128-bit permutes so the two butterflies of each block multiply by the
/// broadcast `[w0, w1]` twiddle pair with the same FMA contraction as the
/// wide stages.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_stage4_avx(re: &mut [f64], im: &mut [f64], wre: &[f64], wim: &[f64]) {
    use std::arch::x86_64::*;
    let m = re.len();
    unsafe {
        // Unaligned 128-bit loads: the twiddle slices are only f64-aligned.
        let w128r = _mm_loadu_pd(wre.as_ptr());
        let w128i = _mm_loadu_pd(wim.as_ptr());
        let wr = _mm256_set_m128d(w128r, w128r); // [w0r, w1r]×2
        let wi = _mm256_set_m128d(w128i, w128i);
        let rp = re.as_mut_ptr();
        let ip = im.as_mut_ptr();
        let mut k = 0;
        while k + 8 <= m {
            let ar = _mm256_loadu_pd(rp.add(k)); // block A [u0, u1, x0, x1]
            let br = _mm256_loadu_pd(rp.add(k + 4)); // block B
            let ai = _mm256_loadu_pd(ip.add(k));
            let bi = _mm256_loadu_pd(ip.add(k + 4));
            let ur = _mm256_permute2f128_pd(ar, br, 0x20); // [uA0, uA1, uB0, uB1]
            let xr = _mm256_permute2f128_pd(ar, br, 0x31); // [xA0, xA1, xB0, xB1]
            let ui = _mm256_permute2f128_pd(ai, bi, 0x20);
            let xi = _mm256_permute2f128_pd(ai, bi, 0x31);
            let vr = _mm256_fmsub_pd(xr, wr, _mm256_mul_pd(xi, wi));
            let vi = _mm256_fmadd_pd(xr, wi, _mm256_mul_pd(xi, wr));
            let sr = _mm256_add_pd(ur, vr);
            let dr = _mm256_sub_pd(ur, vr);
            let si = _mm256_add_pd(ui, vi);
            let di = _mm256_sub_pd(ui, vi);
            _mm256_storeu_pd(rp.add(k), _mm256_permute2f128_pd(sr, dr, 0x20));
            _mm256_storeu_pd(rp.add(k + 4), _mm256_permute2f128_pd(sr, dr, 0x31));
            _mm256_storeu_pd(ip.add(k), _mm256_permute2f128_pd(si, di, 0x20));
            _mm256_storeu_pd(ip.add(k + 4), _mm256_permute2f128_pd(si, di, 0x31));
            k += 8;
        }
        debug_assert_eq!(k, m);
    }
}

/// One depth-first radix-2 combine of a single block: `out[k] = even[k] +
/// odd[k]·w^k`, `out[k+half] = even[k] − odd[k]·w^k` for `k < half`.
///
/// The scalar leg keeps the conjugate-pair order of the depth-first engine
/// (butterflies `k` and `half−k` share one twiddle via `w^{half−k} =
/// −conj(w^k)`); the vector leg reads the contiguous stage slice directly —
/// unit-stride loads beat shared loads on a CPU, while the engine's
/// twiddle-read *accounting* (a hardware model) stays with the caller.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn radix2_combine(
    out_re: &mut [f64],
    out_im: &mut [f64],
    even_re: &[f64],
    even_im: &[f64],
    odd_re: &[f64],
    odd_im: &[f64],
    wre: &[f64],
    wim: &[f64],
) {
    let half = even_re.len();
    assert_eq!(even_im.len(), half, "component length mismatch");
    assert_eq!(odd_re.len(), half, "component length mismatch");
    assert_eq!(odd_im.len(), half, "component length mismatch");
    assert_eq!(out_re.len(), 2 * half, "output length mismatch");
    assert_eq!(out_im.len(), 2 * half, "output length mismatch");
    assert_eq!(wre.len(), half, "twiddle table length mismatch");
    assert_eq!(wim.len(), half, "twiddle table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if half >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe { radix2_combine_avx(out_re, out_im, even_re, even_im, odd_re, odd_im, wre, wim) };
        return;
    }
    radix2_combine_scalar(out_re, out_im, even_re, even_im, odd_re, odd_im, wre, wim);
}

/// Scalar conjugate-pair combine, bit-identical to the pre-SIMD
/// depth-first loop.
#[allow(clippy::too_many_arguments)]
fn radix2_combine_scalar(
    out_re: &mut [f64],
    out_im: &mut [f64],
    even_re: &[f64],
    even_im: &[f64],
    odd_re: &[f64],
    odd_im: &[f64],
    wre: &[f64],
    wim: &[f64],
) {
    let half = even_re.len();
    let quarter = half / 2;
    for k in 0..=quarter {
        let mirror = half - k;
        let (wr, wi) = (wre[k], wim[k]);
        // Butterfly k.
        let vr = odd_re[k] * wr - odd_im[k] * wi;
        let vi = odd_re[k] * wi + odd_im[k] * wr;
        out_re[k] = even_re[k] + vr;
        out_im[k] = even_im[k] + vi;
        out_re[k + half] = even_re[k] - vr;
        out_im[k + half] = even_im[k] - vi;
        // Mirror butterfly reusing the conjugate of the same twiddle:
        // w^{half-k} = -conj(w^k).
        if mirror < half && mirror != k {
            let (wmr, wmi) = (-wr, wi);
            let vr = odd_re[mirror] * wmr - odd_im[mirror] * wmi;
            let vi = odd_re[mirror] * wmi + odd_im[mirror] * wmr;
            out_re[mirror] = even_re[mirror] + vr;
            out_im[mirror] = even_im[mirror] + vi;
            out_re[mirror + half] = even_re[mirror] - vr;
            out_im[mirror + half] = even_im[mirror] - vi;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix2_combine_avx(
    out_re: &mut [f64],
    out_im: &mut [f64],
    even_re: &[f64],
    even_im: &[f64],
    odd_re: &[f64],
    odd_im: &[f64],
    wre: &[f64],
    wim: &[f64],
) {
    use std::arch::x86_64::*;
    let half = even_re.len();
    let mut k = 0;
    while k + 4 <= half {
        unsafe {
            let wr = _mm256_loadu_pd(wre.as_ptr().add(k));
            let wi = _mm256_loadu_pd(wim.as_ptr().add(k));
            let or = _mm256_loadu_pd(odd_re.as_ptr().add(k));
            let oi = _mm256_loadu_pd(odd_im.as_ptr().add(k));
            let vr = _mm256_fmsub_pd(or, wr, _mm256_mul_pd(oi, wi));
            let vi = _mm256_fmadd_pd(or, wi, _mm256_mul_pd(oi, wr));
            let er = _mm256_loadu_pd(even_re.as_ptr().add(k));
            let ei = _mm256_loadu_pd(even_im.as_ptr().add(k));
            _mm256_storeu_pd(out_re.as_mut_ptr().add(k), _mm256_add_pd(er, vr));
            _mm256_storeu_pd(out_im.as_mut_ptr().add(k), _mm256_add_pd(ei, vi));
            _mm256_storeu_pd(out_re.as_mut_ptr().add(k + half), _mm256_sub_pd(er, vr));
            _mm256_storeu_pd(out_im.as_mut_ptr().add(k + half), _mm256_sub_pd(ei, vi));
        }
        k += 4;
    }
    debug_assert_eq!(k, half);
}

// ---------------------------------------------------------------------------
// f64 radix-4 kernel
// ---------------------------------------------------------------------------

/// One depth-first radix-4 combine: `work` holds the four completed
/// quarter-transforms back to back; each butterfly loads the single twiddle
/// `W^k` from the stage slice and derives `W^{2k}`, `W^{3k}`
/// multiplicatively (the paper's bandwidth-for-multipliers trade).
/// `forward` selects the rotation sign of the `±i` factor.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn radix4_combine(
    out_re: &mut [f64],
    out_im: &mut [f64],
    work_re: &[f64],
    work_im: &[f64],
    wre: &[f64],
    wim: &[f64],
    forward: bool,
) {
    let len = out_re.len();
    let quarter = len / 4;
    assert_eq!(out_im.len(), len, "component length mismatch");
    assert_eq!(work_re.len(), len, "workspace length mismatch");
    assert_eq!(work_im.len(), len, "workspace length mismatch");
    assert!(
        wre.len() >= quarter && wim.len() >= quarter,
        "twiddle table too short"
    );
    #[cfg(target_arch = "x86_64")]
    if quarter >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe { radix4_combine_avx(out_re, out_im, work_re, work_im, wre, wim, forward) };
        return;
    }
    radix4_combine_scalar(out_re, out_im, work_re, work_im, wre, wim, forward);
}

#[allow(clippy::too_many_arguments)]
fn radix4_combine_scalar(
    out_re: &mut [f64],
    out_im: &mut [f64],
    work_re: &[f64],
    work_im: &[f64],
    wre: &[f64],
    wim: &[f64],
    forward: bool,
) {
    let quarter = out_re.len() / 4;
    let s = if forward { 1.0 } else { -1.0 };
    for k in 0..quarter {
        let (w1r, w1i) = (wre[k], wim[k]);
        let w2r = w1r * w1r - w1i * w1i;
        let w2i = w1r * w1i + w1i * w1r;
        let w3r = w2r * w1r - w2i * w1i;
        let w3i = w2r * w1i + w2i * w1r;

        let (ar, ai) = (work_re[k], work_im[k]);
        let (xr, xi) = (work_re[quarter + k], work_im[quarter + k]);
        let br = xr * w1r - xi * w1i;
        let bi = xr * w1i + xi * w1r;
        let (xr, xi) = (work_re[2 * quarter + k], work_im[2 * quarter + k]);
        let cr = xr * w2r - xi * w2i;
        let ci = xr * w2i + xi * w2r;
        let (xr, xi) = (work_re[3 * quarter + k], work_im[3 * quarter + k]);
        let dr = xr * w3r - xi * w3i;
        let di = xr * w3i + xi * w3r;

        let (t0r, t0i) = (ar + cr, ai + ci);
        let (t1r, t1i) = (ar - cr, ai - ci);
        let (t2r, t2i) = (br + dr, bi + di);
        // t3 = (b − d) · (±i): a swap-and-negate, exact in either leg.
        let t3r = -(s * (bi - di));
        let t3i = s * (br - dr);

        out_re[k] = t0r + t2r;
        out_im[k] = t0i + t2i;
        out_re[k + quarter] = t1r + t3r;
        out_im[k + quarter] = t1i + t3i;
        out_re[k + 2 * quarter] = t0r - t2r;
        out_im[k + 2 * quarter] = t0i - t2i;
        out_re[k + 3 * quarter] = t1r - t3r;
        out_im[k + 3 * quarter] = t1i - t3i;
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn radix4_combine_avx(
    out_re: &mut [f64],
    out_im: &mut [f64],
    work_re: &[f64],
    work_im: &[f64],
    wre: &[f64],
    wim: &[f64],
    forward: bool,
) {
    use std::arch::x86_64::*;
    let quarter = out_re.len() / 4;
    let sign = _mm256_set1_pd(-0.0);
    let mut k = 0;
    while k + 4 <= quarter {
        unsafe {
            let w1r = _mm256_loadu_pd(wre.as_ptr().add(k));
            let w1i = _mm256_loadu_pd(wim.as_ptr().add(k));
            // W^{2k} and W^{3k} derived multiplicatively with FMA.
            let w2r = _mm256_fmsub_pd(w1r, w1r, _mm256_mul_pd(w1i, w1i));
            let t = _mm256_mul_pd(w1r, w1i);
            let w2i = _mm256_add_pd(t, t);
            let w3r = _mm256_fmsub_pd(w2r, w1r, _mm256_mul_pd(w2i, w1i));
            let w3i = _mm256_fmadd_pd(w2r, w1i, _mm256_mul_pd(w2i, w1r));

            let ar = _mm256_loadu_pd(work_re.as_ptr().add(k));
            let ai = _mm256_loadu_pd(work_im.as_ptr().add(k));
            let xr = _mm256_loadu_pd(work_re.as_ptr().add(quarter + k));
            let xi = _mm256_loadu_pd(work_im.as_ptr().add(quarter + k));
            let br = _mm256_fmsub_pd(xr, w1r, _mm256_mul_pd(xi, w1i));
            let bi = _mm256_fmadd_pd(xr, w1i, _mm256_mul_pd(xi, w1r));
            let xr = _mm256_loadu_pd(work_re.as_ptr().add(2 * quarter + k));
            let xi = _mm256_loadu_pd(work_im.as_ptr().add(2 * quarter + k));
            let cr = _mm256_fmsub_pd(xr, w2r, _mm256_mul_pd(xi, w2i));
            let ci = _mm256_fmadd_pd(xr, w2i, _mm256_mul_pd(xi, w2r));
            let xr = _mm256_loadu_pd(work_re.as_ptr().add(3 * quarter + k));
            let xi = _mm256_loadu_pd(work_im.as_ptr().add(3 * quarter + k));
            let dr = _mm256_fmsub_pd(xr, w3r, _mm256_mul_pd(xi, w3i));
            let di = _mm256_fmadd_pd(xr, w3i, _mm256_mul_pd(xi, w3r));

            let t0r = _mm256_add_pd(ar, cr);
            let t0i = _mm256_add_pd(ai, ci);
            let t1r = _mm256_sub_pd(ar, cr);
            let t1i = _mm256_sub_pd(ai, ci);
            let t2r = _mm256_add_pd(br, dr);
            let t2i = _mm256_add_pd(bi, di);
            // (b − d)·(±i): swap components, negate one.
            let (t3r, t3i) = if forward {
                (
                    _mm256_xor_pd(_mm256_sub_pd(bi, di), sign),
                    _mm256_sub_pd(br, dr),
                )
            } else {
                (
                    _mm256_sub_pd(bi, di),
                    _mm256_xor_pd(_mm256_sub_pd(br, dr), sign),
                )
            };

            _mm256_storeu_pd(out_re.as_mut_ptr().add(k), _mm256_add_pd(t0r, t2r));
            _mm256_storeu_pd(out_im.as_mut_ptr().add(k), _mm256_add_pd(t0i, t2i));
            _mm256_storeu_pd(
                out_re.as_mut_ptr().add(k + quarter),
                _mm256_add_pd(t1r, t3r),
            );
            _mm256_storeu_pd(
                out_im.as_mut_ptr().add(k + quarter),
                _mm256_add_pd(t1i, t3i),
            );
            _mm256_storeu_pd(
                out_re.as_mut_ptr().add(k + 2 * quarter),
                _mm256_sub_pd(t0r, t2r),
            );
            _mm256_storeu_pd(
                out_im.as_mut_ptr().add(k + 2 * quarter),
                _mm256_sub_pd(t0i, t2i),
            );
            _mm256_storeu_pd(
                out_re.as_mut_ptr().add(k + 3 * quarter),
                _mm256_sub_pd(t1r, t3r),
            );
            _mm256_storeu_pd(
                out_im.as_mut_ptr().add(k + 3 * quarter),
                _mm256_sub_pd(t1i, t3i),
            );
        }
        k += 4;
    }
    debug_assert_eq!(k, quarter);
}

// ---------------------------------------------------------------------------
// f64 pointwise kernels
// ---------------------------------------------------------------------------

/// `acc += a ⊙ b` over split-complex slices — the pointwise
/// multiply-accumulate of the external product (and, with a factor table as
/// `a`, the TGSW scale). The vector leg uses two FMAs per component; the
/// scalar leg keeps the product-then-add order of the pre-SIMD code.
#[inline]
pub fn mul_acc(
    acc_re: &mut [f64],
    acc_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    let m = acc_re.len();
    assert_eq!(acc_im.len(), m, "component length mismatch");
    assert_eq!(a_re.len(), m, "component length mismatch");
    assert_eq!(a_im.len(), m, "component length mismatch");
    assert_eq!(b_re.len(), m, "component length mismatch");
    assert_eq!(b_im.len(), m, "component length mismatch");
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe { mul_acc_avx(acc_re, acc_im, a_re, a_im, b_re, b_im) };
        return;
    }
    for k in 0..m {
        acc_re[k] += a_re[k] * b_re[k] - a_im[k] * b_im[k];
        acc_im[k] += a_re[k] * b_im[k] + a_im[k] * b_re[k];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mul_acc_avx(
    acc_re: &mut [f64],
    acc_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    use std::arch::x86_64::*;
    let m = acc_re.len();
    let mut k = 0;
    while k + 4 <= m {
        unsafe {
            let ar = _mm256_loadu_pd(a_re.as_ptr().add(k));
            let ai = _mm256_loadu_pd(a_im.as_ptr().add(k));
            let br = _mm256_loadu_pd(b_re.as_ptr().add(k));
            let bi = _mm256_loadu_pd(b_im.as_ptr().add(k));
            let mut cr = _mm256_loadu_pd(acc_re.as_ptr().add(k));
            let mut ci = _mm256_loadu_pd(acc_im.as_ptr().add(k));
            cr = _mm256_fmadd_pd(ar, br, cr);
            cr = _mm256_fnmadd_pd(ai, bi, cr);
            ci = _mm256_fmadd_pd(ar, bi, ci);
            ci = _mm256_fmadd_pd(ai, br, ci);
            _mm256_storeu_pd(acc_re.as_mut_ptr().add(k), cr);
            _mm256_storeu_pd(acc_im.as_mut_ptr().add(k), ci);
        }
        k += 4;
    }
    while k < m {
        // Scalar tail uses the same FMA contraction as the vector body so
        // the SIMD leg is uniform regardless of lane alignment.
        acc_re[k] = (-a_im[k]).mul_add(b_im[k], a_re[k].mul_add(b_re[k], acc_re[k]));
        acc_im[k] = a_im[k].mul_add(b_re[k], a_re[k].mul_add(b_im[k], acc_im[k]));
        k += 1;
    }
}

/// `acc1 += c ⊙ u` and `acc2 += c ⊙ v` in one pass over `c` — the fused
/// external-product / bundle-update inner loop. Per accumulator the
/// element operations match [`mul_acc`] exactly (in both legs), so one
/// fused call is bit-identical to two single calls on either path.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn mul_acc_pair(
    acc1_re: &mut [f64],
    acc1_im: &mut [f64],
    acc2_re: &mut [f64],
    acc2_im: &mut [f64],
    c_re: &[f64],
    c_im: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    v_re: &[f64],
    v_im: &[f64],
) {
    let m = acc1_re.len();
    assert_eq!(acc1_im.len(), m, "component length mismatch");
    assert_eq!(acc2_re.len(), m, "component length mismatch");
    assert_eq!(acc2_im.len(), m, "component length mismatch");
    assert_eq!(c_re.len(), m, "component length mismatch");
    assert_eq!(c_im.len(), m, "component length mismatch");
    assert_eq!(u_re.len(), m, "component length mismatch");
    assert_eq!(u_im.len(), m, "component length mismatch");
    assert_eq!(v_re.len(), m, "component length mismatch");
    assert_eq!(v_im.len(), m, "component length mismatch");
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe {
            mul_acc_pair_avx(
                acc1_re, acc1_im, acc2_re, acc2_im, c_re, c_im, u_re, u_im, v_re, v_im,
            )
        };
        return;
    }
    for k in 0..m {
        let (cr, ci) = (c_re[k], c_im[k]);
        acc1_re[k] += cr * u_re[k] - ci * u_im[k];
        acc1_im[k] += cr * u_im[k] + ci * u_re[k];
        acc2_re[k] += cr * v_re[k] - ci * v_im[k];
        acc2_im[k] += cr * v_im[k] + ci * v_re[k];
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn mul_acc_pair_avx(
    acc1_re: &mut [f64],
    acc1_im: &mut [f64],
    acc2_re: &mut [f64],
    acc2_im: &mut [f64],
    c_re: &[f64],
    c_im: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    v_re: &[f64],
    v_im: &[f64],
) {
    use std::arch::x86_64::*;
    let m = acc1_re.len();
    let mut k = 0;
    while k + 4 <= m {
        unsafe {
            let cr = _mm256_loadu_pd(c_re.as_ptr().add(k));
            let ci = _mm256_loadu_pd(c_im.as_ptr().add(k));
            let ur = _mm256_loadu_pd(u_re.as_ptr().add(k));
            let ui = _mm256_loadu_pd(u_im.as_ptr().add(k));
            let mut x = _mm256_loadu_pd(acc1_re.as_ptr().add(k));
            let mut y = _mm256_loadu_pd(acc1_im.as_ptr().add(k));
            x = _mm256_fmadd_pd(cr, ur, x);
            x = _mm256_fnmadd_pd(ci, ui, x);
            y = _mm256_fmadd_pd(cr, ui, y);
            y = _mm256_fmadd_pd(ci, ur, y);
            _mm256_storeu_pd(acc1_re.as_mut_ptr().add(k), x);
            _mm256_storeu_pd(acc1_im.as_mut_ptr().add(k), y);
            let vr = _mm256_loadu_pd(v_re.as_ptr().add(k));
            let vi = _mm256_loadu_pd(v_im.as_ptr().add(k));
            let mut x = _mm256_loadu_pd(acc2_re.as_ptr().add(k));
            let mut y = _mm256_loadu_pd(acc2_im.as_ptr().add(k));
            x = _mm256_fmadd_pd(cr, vr, x);
            x = _mm256_fnmadd_pd(ci, vi, x);
            y = _mm256_fmadd_pd(cr, vi, y);
            y = _mm256_fmadd_pd(ci, vr, y);
            _mm256_storeu_pd(acc2_re.as_mut_ptr().add(k), x);
            _mm256_storeu_pd(acc2_im.as_mut_ptr().add(k), y);
        }
        k += 4;
    }
    while k < m {
        let (cr, ci) = (c_re[k], c_im[k]);
        acc1_re[k] = (-ci).mul_add(u_im[k], cr.mul_add(u_re[k], acc1_re[k]));
        acc1_im[k] = ci.mul_add(u_re[k], cr.mul_add(u_im[k], acc1_im[k]));
        acc2_re[k] = (-ci).mul_add(v_im[k], cr.mul_add(v_re[k], acc2_re[k]));
        acc2_im[k] = ci.mul_add(v_re[k], cr.mul_add(v_im[k], acc2_im[k]));
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// f64 twist kernels
// ---------------------------------------------------------------------------

/// In-place complex multiply by the twist table: `(re, im) ⊙= (twre, twim)`
/// — the tail of every negacyclic fold.
#[inline]
pub fn twist_apply(re: &mut [f64], im: &mut [f64], twre: &[f64], twim: &[f64]) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(twre.len(), m, "twist table length mismatch");
    assert_eq!(twim.len(), m, "twist table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe { twist_apply_avx(re, im, twre, twim, false) };
        return;
    }
    for k in 0..m {
        let (r, i) = (re[k], im[k]);
        re[k] = r * twre[k] - i * twim[k];
        im[k] = r * twim[k] + i * twre[k];
    }
}

/// In-place multiply by the *conjugated* twist table — the untwist of every
/// backward transform.
#[inline]
pub fn untwist_apply(re: &mut [f64], im: &mut [f64], twre: &[f64], twim: &[f64]) {
    let m = re.len();
    assert_eq!(im.len(), m, "component length mismatch");
    assert_eq!(twre.len(), m, "twist table length mismatch");
    assert_eq!(twim.len(), m, "twist table length mismatch");
    #[cfg(target_arch = "x86_64")]
    if m >= 4 && simd_active() {
        // SAFETY: simd_active() implies AVX2+FMA are present.
        unsafe { twist_apply_avx(re, im, twre, twim, true) };
        return;
    }
    for k in 0..m {
        let (r, i) = (re[k], im[k]);
        re[k] = r * twre[k] + i * twim[k];
        im[k] = i * twre[k] - r * twim[k];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn twist_apply_avx(re: &mut [f64], im: &mut [f64], twre: &[f64], twim: &[f64], conj: bool) {
    use std::arch::x86_64::*;
    let m = re.len();
    let mut k = 0;
    while k + 4 <= m {
        unsafe {
            let r = _mm256_loadu_pd(re.as_ptr().add(k));
            let i = _mm256_loadu_pd(im.as_ptr().add(k));
            let tr = _mm256_loadu_pd(twre.as_ptr().add(k));
            let ti = _mm256_loadu_pd(twim.as_ptr().add(k));
            let (nr, ni) = if conj {
                (
                    _mm256_fmadd_pd(r, tr, _mm256_mul_pd(i, ti)),
                    _mm256_fmsub_pd(i, tr, _mm256_mul_pd(r, ti)),
                )
            } else {
                (
                    _mm256_fmsub_pd(r, tr, _mm256_mul_pd(i, ti)),
                    _mm256_fmadd_pd(r, ti, _mm256_mul_pd(i, tr)),
                )
            };
            _mm256_storeu_pd(re.as_mut_ptr().add(k), nr);
            _mm256_storeu_pd(im.as_mut_ptr().add(k), ni);
        }
        k += 4;
    }
    // Transform sizes are powers of two, and the dispatcher only takes this
    // leg for m ≥ 4, so the whole buffer vectorized.
    debug_assert_eq!(k, m);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_override_wins() {
        force_simd(Some(false));
        assert!(!simd_active());
        force_simd(Some(true));
        assert_eq!(simd_active(), simd_detected());
        force_simd(None);
        let _ = simd_active(); // auto path must not panic
        force_simd(None);
    }

    #[test]
    fn scalar_radix2_stage_is_a_butterfly() {
        // One length-2 stage with w = 1: (a, b) -> (a+b, a-b).
        let mut re = vec![1.0, 2.0, 3.0, 5.0];
        let mut im = vec![0.5, -0.5, 1.5, -1.5];
        radix2_stage_scalar(&mut re, &mut im, &[1.0], &[0.0], 2);
        assert_eq!(re, vec![3.0, -1.0, 8.0, -2.0]);
        assert_eq!(im, vec![0.0, 1.0, 0.0, 3.0]);
    }

    #[test]
    fn pair_kernel_matches_two_singles_scalar_leg() {
        force_simd(Some(false));
        let m = 8;
        let c_re: Vec<f64> = (0..m).map(|k| 0.3 + k as f64).collect();
        let c_im: Vec<f64> = (0..m).map(|k| -0.7 * k as f64).collect();
        let u_re: Vec<f64> = (0..m).map(|k| (k as f64).sin()).collect();
        let u_im: Vec<f64> = (0..m).map(|k| (k as f64).cos()).collect();
        let v_re: Vec<f64> = (0..m).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let v_im: Vec<f64> = (0..m).map(|k| (k as f64) * 0.01).collect();
        let mut p1 = vec![0.25; m];
        let mut p2 = vec![-0.5; m];
        let mut p3 = vec![1.0; m];
        let mut p4 = vec![2.0; m];
        mul_acc_pair(
            &mut p1, &mut p2, &mut p3, &mut p4, &c_re, &c_im, &u_re, &u_im, &v_re, &v_im,
        );
        let mut s1 = vec![0.25; m];
        let mut s2 = vec![-0.5; m];
        let mut s3 = vec![1.0; m];
        let mut s4 = vec![2.0; m];
        mul_acc(&mut s1, &mut s2, &c_re, &c_im, &u_re, &u_im);
        mul_acc(&mut s3, &mut s4, &c_re, &c_im, &v_re, &v_im);
        assert_eq!(p1, s1);
        assert_eq!(p2, s2);
        assert_eq!(p3, s3);
        assert_eq!(p4, s4);
        force_simd(None);
    }
}
