//! Precomputed twiddle-factor tables and the bit-reversal permutation.
//!
//! The transform size used throughout is `M = N/2` complex points for a ring
//! of degree `N` (Lagrange half-complex folding, see [`crate::twist`]).
//!
//! # Per-stage contiguous layout
//!
//! A breadth-first butterfly stage of length `len` reads the roots
//! `w^{k·(M/len)}` for `k < len/2` — a *strided* walk over one big table,
//! whose stride changes every stage. [`StageTwiddles`] instead stores each
//! stage's factors contiguously (the software mirror of the paper's
//! twiddle-access argument: MATCHA's address generation unit streams each
//! stage's factors as a unit-stride burst). Every engine's inner loop then
//! reads its stage slice sequentially, and the direction (forward or
//! conjugated inverse) is resolved once per transform, never per butterfly.

use crate::cplx::Cplx;

/// One direction's twiddle factors, stored contiguously per stage.
///
/// Stage `s` serves butterflies of length `len = 2^{s+1}` and holds the
/// `len/2` factors `w^{k·(M/len)}` (`w = e^{±2πi/M}`) in index order. The
/// final stage (`len = M`) is exactly the classic strided table, so it
/// doubles as the flat `roots` view.
#[derive(Clone, Debug)]
pub struct StageTwiddles {
    /// All stages back to back: `1 + 2 + … + M/2 = M − 1` entries.
    ///
    /// Kept alongside the split arrays below — the factors are stored
    /// twice, deliberately: both views are built once from the same source
    /// in the constructor and immutable after, the duplication is a few
    /// tens of KB per plan at the paper's `N = 1024`, and the [`Cplx`] view
    /// stays available to tests and external callers without a per-access
    /// re-interleave.
    flat: Vec<Cplx>,
    /// The same entries with components split into separate arrays — the
    /// layout the SIMD butterfly kernels consume (see [`crate::simd`]).
    flat_re: Vec<f64>,
    /// Imaginary components of `flat`, split.
    flat_im: Vec<f64>,
    /// `offsets[s]` = start of the stage for `len = 2^{s+1}`.
    offsets: Vec<usize>,
    /// Transform size `M`.
    m: usize,
}

impl StageTwiddles {
    /// Copies per-stage slices out of the full-size table `full`
    /// (`full[k] = w^k`, `k < m/2`), so every entry is bit-identical to the
    /// strided access `full[k * (m/len)]` it replaces.
    fn from_full(full: &[Cplx], m: usize) -> Self {
        debug_assert_eq!(full.len(), m / 2);
        let mut flat = Vec::with_capacity(m.saturating_sub(1));
        let mut offsets = Vec::new();
        let mut len = 2;
        while len <= m {
            offsets.push(flat.len());
            let step = m / len;
            flat.extend((0..len / 2).map(|k| full[k * step]));
            len *= 2;
        }
        let flat_re = flat.iter().map(|w| w.re).collect();
        let flat_im = flat.iter().map(|w| w.im).collect();
        Self {
            flat,
            flat_re,
            flat_im,
            offsets,
            m,
        }
    }

    /// The contiguous factor slice for butterflies of length `len`
    /// (`len/2` entries).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `len` is not a power of two in `[2, M]`.
    #[inline]
    pub fn stage(&self, len: usize) -> &[Cplx] {
        debug_assert!(len.is_power_of_two() && len >= 2 && len <= self.m);
        let s = len.trailing_zeros() as usize - 1;
        let start = self.offsets[s];
        &self.flat[start..start + len / 2]
    }

    /// [`StageTwiddles::stage`] in split-component form: `(re, im)` slices
    /// of `len/2` entries each, bit-identical to the [`Cplx`] view.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `len` is not a power of two in `[2, M]`.
    #[inline]
    pub fn stage_split(&self, len: usize) -> (&[f64], &[f64]) {
        debug_assert!(len.is_power_of_two() && len >= 2 && len <= self.m);
        let s = len.trailing_zeros() as usize - 1;
        let start = self.offsets[s];
        let end = start + len / 2;
        (&self.flat_re[start..end], &self.flat_im[start..end])
    }

    /// The full-size table `w^k`, `k < M/2` (the last stage).
    #[inline]
    pub fn full(&self) -> &[Cplx] {
        self.stage(self.m)
    }
}

/// Twiddle factors `e^{+2πik/M}` for `k ∈ [0, M/2)` — forward and
/// pre-conjugated inverse, both in per-stage contiguous layout — plus the
/// twist factors `e^{+iπj/N}` for `j ∈ [0, M)`.
#[derive(Clone, Debug)]
pub struct TwiddleTables {
    m: usize,
    /// Forward kernel `e^{+2πik/M}`, per-stage contiguous.
    fwd: StageTwiddles,
    /// Inverse kernel `e^{-2πik/M}` (pre-conjugated so butterfly loops
    /// never branch on direction), per-stage contiguous.
    inv: StageTwiddles,
    /// `twist[j] = e^{iπj/N}`, `j < M`.
    twist: Vec<Cplx>,
    /// Real components of `twist`, split for the SIMD fold kernels.
    twist_re: Vec<f64>,
    /// Imaginary components of `twist`, split.
    twist_im: Vec<f64>,
}

impl TwiddleTables {
    /// Builds tables for ring degree `n` (transform size `M = n/2`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "ring degree {n} must be a power of two ≥ 4"
        );
        let m = n / 2;
        let roots: Vec<Cplx> = (0..m / 2)
            .map(|k| Cplx::from_angle(std::f64::consts::TAU * k as f64 / m as f64))
            .collect();
        let roots_conj: Vec<Cplx> = roots.iter().map(|r| r.conj()).collect();
        let twist: Vec<Cplx> = (0..m)
            .map(|j| Cplx::from_angle(std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        let twist_re = twist.iter().map(|w| w.re).collect();
        let twist_im = twist.iter().map(|w| w.im).collect();
        Self {
            m,
            fwd: StageTwiddles::from_full(&roots, m),
            inv: StageTwiddles::from_full(&roots_conj, m),
            twist,
            twist_re,
            twist_im,
        }
    }

    /// Transform size `M = N/2`.
    #[inline]
    pub fn size(&self) -> usize {
        self.m
    }

    /// `e^{2πik/M}` for `k < M/2`.
    #[inline]
    pub fn root(&self, k: usize) -> Cplx {
        self.fwd.full()[k]
    }

    /// The forward twiddle table as a flat slice.
    #[inline]
    pub fn roots(&self) -> &[Cplx] {
        self.fwd.full()
    }

    /// The conjugated (inverse-kernel) twiddle table as a flat slice.
    #[inline]
    pub fn roots_conj(&self) -> &[Cplx] {
        self.inv.full()
    }

    /// Forward twiddles in per-stage contiguous layout.
    #[inline]
    pub fn forward_stages(&self) -> &StageTwiddles {
        &self.fwd
    }

    /// Pre-conjugated inverse twiddles in per-stage contiguous layout.
    #[inline]
    pub fn inverse_stages(&self) -> &StageTwiddles {
        &self.inv
    }

    /// `e^{iπj/N}` for `j < M`.
    #[inline]
    pub fn twist(&self, j: usize) -> Cplx {
        self.twist[j]
    }

    /// The twist table in split-component form: `(re, im)` slices of `M`
    /// entries, bit-identical to the [`Cplx`] view.
    #[inline]
    pub fn twist_split(&self) -> (&[f64], &[f64]) {
        (&self.twist_re, &self.twist_im)
    }
}

/// Applies the bit-reversal permutation in place (the "irregular memory
/// access" stage the paper attributes to breadth-first Cooley–Tukey flows).
pub fn bit_reverse_permute<T>(buf: &mut [T]) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two());
    let shift = (n.leading_zeros() + 1) % usize::BITS;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if j > i {
            buf.swap(i, j);
        }
    }
}

/// [`bit_reverse_permute`] applied coherently to both components of a
/// split-complex buffer in one index walk — the reversed index is computed
/// once per position instead of once per component.
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
pub fn bit_reverse_permute_pair<T, U>(a: &mut [T], b: &mut [U]) {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    debug_assert!(n.is_power_of_two());
    let shift = (n.leading_zeros() + 1) % usize::BITS;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if j > i {
            a.swap(i, j);
            b.swap(i, j);
        }
    }
}

/// Out-of-place [`bit_reverse_permute_pair`]: `dst[rev(i)] = src[i]` for
/// both components, so copying a buffer and permuting it take one pass.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub(crate) fn bit_reverse_copy_pair<T: Copy>(
    src_a: &[T],
    src_b: &[T],
    dst_a: &mut [T],
    dst_b: &mut [T],
) {
    let n = src_a.len();
    assert!(
        src_b.len() == n && dst_a.len() == n && dst_b.len() == n,
        "component length mismatch"
    );
    debug_assert!(n.is_power_of_two());
    let shift = (n.leading_zeros() + 1) % usize::BITS;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        dst_a[j] = src_a[i];
        dst_b[j] = src_b[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reverse_copy_matches_in_place() {
        for n in [1usize, 2, 8, 64] {
            let a: Vec<i64> = (0..n as i64).map(|i| 3 * i - 7).collect();
            let b: Vec<i64> = (0..n as i64).map(|i| -i * i).collect();
            let (mut pa, mut pb) = (a.clone(), b.clone());
            bit_reverse_permute_pair(&mut pa, &mut pb);
            let (mut ca, mut cb) = (vec![0; n], vec![0; n]);
            bit_reverse_copy_pair(&a, &b, &mut ca, &mut cb);
            assert_eq!((ca, cb), (pa, pb), "n={n}");
        }
    }

    #[test]
    fn roots_are_on_unit_circle() {
        let t = TwiddleTables::new(32);
        for k in 0..t.size() / 2 {
            assert!((t.root(k).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn root_zero_is_one() {
        let t = TwiddleTables::new(16);
        assert!((t.root(0) - Cplx::ONE).abs() < 1e-15);
    }

    #[test]
    fn quarter_root_is_i() {
        let t = TwiddleTables::new(32); // M = 16
        assert!((t.root(4) - Cplx::new(0.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn stage_slices_match_strided_access() {
        let t = TwiddleTables::new(64); // M = 32
        let m = t.size();
        let mut len = 2;
        while len <= m {
            let step = m / len;
            let fwd = t.forward_stages().stage(len);
            let inv = t.inverse_stages().stage(len);
            assert_eq!(fwd.len(), len / 2, "len={len}");
            for k in 0..len / 2 {
                assert_eq!(fwd[k], t.roots()[k * step], "fwd len={len} k={k}");
                assert_eq!(inv[k], t.roots_conj()[k * step], "inv len={len} k={k}");
            }
            len *= 2;
        }
    }

    #[test]
    fn stage_layout_is_contiguous_and_complete() {
        let t = TwiddleTables::new(128); // M = 64
        let m = t.size();
        // 1 + 2 + ... + M/2 = M - 1 entries overall.
        let total: usize = {
            let mut sum = 0;
            let mut len = 2;
            while len <= m {
                sum += t.forward_stages().stage(len).len();
                len *= 2;
            }
            sum
        };
        assert_eq!(total, m - 1);
        // Adjacent stages are back to back in memory.
        let s2 = t.forward_stages().stage(2).as_ptr();
        let s4 = t.forward_stages().stage(4).as_ptr();
        assert_eq!(unsafe { s2.add(1) }, s4);
    }

    #[test]
    fn smallest_ring_has_single_stage() {
        let t = TwiddleTables::new(4); // M = 2
        assert_eq!(t.forward_stages().stage(2).len(), 1);
        assert_eq!(t.roots().len(), 1);
        assert!((t.root(0) - Cplx::ONE).abs() < 1e-15);
    }

    #[test]
    fn split_views_match_cplx_views() {
        let t = TwiddleTables::new(64); // M = 32
        let m = t.size();
        let mut len = 2;
        while len <= m {
            for (dir, stages) in [(0, t.forward_stages()), (1, t.inverse_stages())] {
                let ws = stages.stage(len);
                let (re, im) = stages.stage_split(len);
                assert_eq!(re.len(), ws.len(), "dir={dir} len={len}");
                for k in 0..ws.len() {
                    assert_eq!(
                        re[k].to_bits(),
                        ws[k].re.to_bits(),
                        "dir={dir} len={len} k={k}"
                    );
                    assert_eq!(
                        im[k].to_bits(),
                        ws[k].im.to_bits(),
                        "dir={dir} len={len} k={k}"
                    );
                }
            }
            len *= 2;
        }
        let (twre, twim) = t.twist_split();
        for j in 0..m {
            assert_eq!(twre[j].to_bits(), t.twist(j).re.to_bits(), "twist j={j}");
            assert_eq!(twim[j].to_bits(), t.twist(j).im.to_bits(), "twist j={j}");
        }
    }

    #[test]
    fn bit_reverse_involution() {
        let mut v: Vec<usize> = (0..64).collect();
        bit_reverse_permute(&mut v);
        bit_reverse_permute(&mut v);
        assert_eq!(v, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn bit_reverse_known_order() {
        let mut v: Vec<usize> = (0..8).collect();
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn twist_angles() {
        let t = TwiddleTables::new(8); // N = 8, M = 4
        assert!((t.twist(0) - Cplx::ONE).abs() < 1e-15);
        // twist(2) = e^{iπ/4}
        assert!((t.twist(2) - Cplx::from_angle(std::f64::consts::FRAC_PI_4)).abs() < 1e-12);
    }
}
