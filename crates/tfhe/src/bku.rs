//! Bootstrapping key unrolling (paper §4.2, Figures 4–6).
//!
//! Classic blind rotation multiplies the accumulator by
//! `X^{-ā_i s_i}` once per secret bit — `n` external products. BKU groups
//! `m` bits and rewrites (Figure 4's truth table, generalized):
//!
//! ```text
//! X^{-Σ_{i∈g} ā_i s_i} = 1 + Σ_{∅≠p⊆g} (X^{-Σ_{i∈p} ā_i} − 1) · Ind_p(s),
//! ```
//!
//! where `Ind_p(s) = Π_{i∈p} s_i · Π_{i∈g∖p} (1−s_i)` is the indicator that
//! the group's bits equal exactly pattern `p`. The indicators over all `2^m`
//! patterns sum to 1, which collapses the truth table into the affine form
//! above. Each group needs `2^m − 1` pre-encrypted TGSW keys (one per
//! nonempty pattern — Table 3's `(2^m − 1)·BK`), and one blind-rotation
//! step per *group*: external products drop from `n` to `⌈n/m⌉`, at the cost
//! of `2^m − 1` TGSW scale-and-add operations per step (the work MATCHA's
//! TGSW clusters absorb).

use crate::params::ParameterSet;
use crate::profile::{self, Phase};
use crate::secret::{LweSecretKey, RingSecretKey};
use crate::tgsw::{TgswCiphertext, TgswSpectrum};
use crate::tlwe::TrlweSpectrum;
use matcha_fft::FftEngine;
use matcha_math::TorusSampler;
use rand::Rng;

/// The unrolled keys for one group of `len ≤ m` secret bits:
/// `keys[p-1]` encrypts the indicator of bit pattern `p ∈ [1, 2^len)`.
#[derive(Clone, Debug)]
pub struct KeyGroup<E: FftEngine> {
    keys: Vec<TgswSpectrum<E>>,
    len: usize,
}

impl<E: FftEngine> KeyGroup<E> {
    /// Number of secret bits this group covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for an empty group (never produced by generation).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pattern keys (`2^len − 1` entries).
    pub fn keys(&self) -> &[TgswSpectrum<E>] {
        &self.keys
    }
}

/// An unrolled bootstrapping key: `⌈n/m⌉` key groups plus the gadget TGSW
/// `H` in spectral form (the `1 +` term of every bundle).
#[derive(Clone, Debug)]
pub struct UnrolledBootstrappingKey<E: FftEngine> {
    groups: Vec<KeyGroup<E>>,
    h: TgswSpectrum<E>,
    unroll: usize,
}

impl<E: FftEngine> UnrolledBootstrappingKey<E> {
    /// Encrypts the unrolled bootstrapping key: for every group of `m`
    /// bits of `lwe_key`, TGSW encryptions (under `ring_key`) of every
    /// nonempty pattern indicator.
    ///
    /// # Panics
    ///
    /// Panics if `unroll` is 0 or greater than 8 (`2^m − 1` keys per group
    /// grow exponentially; the paper stops at `m = 4`).
    pub fn generate<R: Rng>(
        lwe_key: &LweSecretKey,
        ring_key: &RingSecretKey,
        params: &ParameterSet,
        engine: &E,
        unroll: usize,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        assert!(
            (1..=8).contains(&unroll),
            "unroll factor {unroll} outside 1..=8"
        );
        let n = lwe_key.dimension();
        let mut groups = Vec::with_capacity(n.div_ceil(unroll));
        let bits = lwe_key.bits();
        let mut start = 0;
        while start < n {
            let len = unroll.min(n - start);
            let group_bits = &bits[start..start + len];
            let mut keys = Vec::with_capacity((1 << len) - 1);
            for pattern in 1u32..(1 << len) {
                let indicator = group_bits.iter().enumerate().all(|(i, &s)| {
                    let want = (pattern >> i) & 1 == 1;
                    s == want
                });
                keys.push(
                    TgswCiphertext::encrypt_constant(
                        i32::from(indicator),
                        ring_key,
                        params,
                        engine,
                        sampler,
                    )
                    .to_spectrum(engine),
                );
            }
            groups.push(KeyGroup { keys, len });
            start += len;
        }
        Self {
            groups,
            h: TgswCiphertext::trivial_one(params).to_spectrum(engine),
            unroll,
        }
    }

    /// The unroll factor `m`.
    pub fn unroll(&self) -> usize {
        self.unroll
    }

    /// The key groups, in secret-bit order.
    pub fn groups(&self) -> &[KeyGroup<E>] {
        &self.groups
    }

    /// Total TGSW ciphertexts stored — `⌈n/m⌉·(2^m − 1)`, the exponential
    /// key blow-up of Table 3.
    pub fn key_count(&self) -> usize {
        self.groups.iter().map(|g| g.keys.len()).sum()
    }

    /// The gadget TGSW `H` in spectral form (the `1 +` term of every
    /// bundle) — also the shape template for bundle scratch buffers.
    pub(crate) fn gadget_spectrum(&self) -> &TgswSpectrum<E> {
        &self.h
    }

    /// Builds the bootstrapping-key bundle for one group (Figure 5):
    ///
    /// `BKB = H + Σ_{p≠0} (X^{-⟨ā, p⟩} − 1) · K_p`,
    ///
    /// evaluated entirely in the Lagrange domain with TGSW scale operations
    /// — no FFTs. `exponents[i]` is the mod-switched `ā` of the group's
    /// `i`-th secret bit.
    ///
    /// # Panics
    ///
    /// Panics if `exponents.len()` differs from the group length.
    pub fn build_bundle(
        &self,
        engine: &E,
        group: &KeyGroup<E>,
        exponents: &[u32],
        two_n: u32,
    ) -> TgswSpectrum<E> {
        assert_eq!(
            exponents.len(),
            group.len,
            "one exponent per grouped secret bit"
        );
        profile::timed(Phase::TgswScale, || {
            let rows = self
                .h
                .rows()
                .iter()
                .enumerate()
                .map(|(r, h_row)| {
                    let mut acc_a = engine.bundle_accumulator(&h_row.a);
                    let mut acc_b = engine.bundle_accumulator(&h_row.b);
                    for pattern in 1u32..(1 << group.len) {
                        let Some(e) = pattern_exponent(pattern, exponents, two_n) else {
                            continue;
                        };
                        let key_row = &group.keys[pattern as usize - 1].rows()[r];
                        engine.scale_monomial_accumulate(&mut acc_a, &key_row.a, e);
                        engine.scale_monomial_accumulate(&mut acc_b, &key_row.b, e);
                    }
                    TrlweSpectrum { a: acc_a, b: acc_b }
                })
                .collect();
            TgswSpectrum::from_rows(rows, self.h.levels())
        })
    }

    /// [`Self::build_bundle`] into a caller-owned bundle — the one-lane
    /// case of [`Self::build_bundles_into`], bit-identical to
    /// [`Self::build_bundle`] and allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `exponents.len()` differs from the group length or the
    /// bundle buffer has the wrong shape.
    pub fn build_bundle_into(
        &self,
        engine: &E,
        group: &KeyGroup<E>,
        exponents: &[u32],
        two_n: u32,
        bundle: &mut TgswSpectrum<E>,
        factors: &mut E::MonomialFactors,
    ) {
        self.build_bundles_into(engine, group, two_n, &mut [(exponents, bundle, factors)]);
    }

    /// Builds one bundle per lane for the same key group in lockstep: each
    /// pattern key is read **once** and scaled into every lane's bundle,
    /// so a chunk of `L` bootstraps streams the group's `2^m − 1` keys
    /// once instead of `L` times (the software form of MATCHA's bundle
    /// streaming, paper §4.3). Two structural choices over the allocating
    /// path, both exact reorderings:
    ///
    /// * each lane's factor table `ε^e − 1` is computed **once per
    ///   pattern** and shared across all `2ℓ` rows, and
    /// * each row's mask/body pair is updated in one fused pass.
    ///
    /// Within a lane, every coefficient accumulates its pattern terms in
    /// ascending pattern order, exactly as [`Self::build_bundle`] does, so
    /// every lane is bit-identical to building its bundle alone.
    ///
    /// # Panics
    ///
    /// Panics if a lane's exponent count differs from the group length or
    /// a bundle buffer has the wrong shape.
    pub fn build_bundles_into<L: BundleLane<E>>(
        &self,
        engine: &E,
        group: &KeyGroup<E>,
        two_n: u32,
        lanes: &mut [L],
    ) {
        profile::timed(Phase::TgswScale, || {
            for lane in lanes.iter_mut() {
                let (exponents, bundle, _) = lane.bundle_parts();
                assert_eq!(
                    exponents.len(),
                    group.len,
                    "one exponent per grouped secret bit"
                );
                assert_eq!(
                    bundle.rows().len(),
                    self.h.rows().len(),
                    "bundle buffer has the wrong row count"
                );
                for (row, h_row) in bundle.rows_mut().iter_mut().zip(self.h.rows()) {
                    engine.bundle_accumulator_into(&h_row.a, &mut row.a);
                    engine.bundle_accumulator_into(&h_row.b, &mut row.b);
                }
            }
            for pattern in 1u32..(1 << group.len) {
                for lane in lanes.iter_mut() {
                    let (exponents, _, factors) = lane.bundle_parts();
                    if let Some(e) = pattern_exponent(pattern, exponents, two_n) {
                        engine.monomial_minus_one_into(e, factors);
                    }
                }
                let key = &group.keys[pattern as usize - 1];
                for (r, key_row) in key.rows().iter().enumerate() {
                    for lane in lanes.iter_mut() {
                        let (exponents, bundle, factors) = lane.bundle_parts();
                        if pattern_exponent(pattern, exponents, two_n).is_none() {
                            continue;
                        }
                        let row = &mut bundle.rows_mut()[r];
                        engine.scale_accumulate_pair(
                            &mut row.a, &mut row.b, &key_row.a, &key_row.b, factors,
                        );
                    }
                }
            }
        })
    }
}

/// One lane of [`UnrolledBootstrappingKey::build_bundles_into`]: the key
/// group's mod-switched exponents in, a bundle buffer and its factor-table
/// workspace out.
pub trait BundleLane<E: FftEngine> {
    /// `(exponents, bundle, factors)`, borrowed together.
    fn bundle_parts(&mut self) -> (&[u32], &mut TgswSpectrum<E>, &mut E::MonomialFactors);
}

impl<E: FftEngine> BundleLane<E> for (&[u32], &mut TgswSpectrum<E>, &mut E::MonomialFactors) {
    fn bundle_parts(&mut self) -> (&[u32], &mut TgswSpectrum<E>, &mut E::MonomialFactors) {
        (self.0, &mut *self.1, &mut *self.2)
    }
}

/// The bundle exponent `-⟨ā, p⟩ mod 2N` of a bit pattern, or `None` when
/// the term vanishes (`X^0 − 1 = 0`).
fn pattern_exponent(pattern: u32, exponents: &[u32], two_n: u32) -> Option<i64> {
    let mut e: i64 = 0;
    for (i, &a) in exponents.iter().enumerate() {
        if (pattern >> i) & 1 == 1 {
            e -= a as i64;
        }
    }
    let e = e.rem_euclid(two_n as i64);
    if e == 0 {
        None
    } else {
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlwe::TrlweCiphertext;
    use matcha_fft::F64Fft;
    use matcha_math::{GadgetDecomposer, Torus32, TorusPolynomial};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        unroll: usize,
        n_lwe: usize,
    ) -> (
        ParameterSet,
        LweSecretKey,
        RingSecretKey,
        F64Fft,
        UnrolledBootstrappingKey<F64Fft>,
        TorusSampler<StdRng>,
    ) {
        let p = ParameterSet {
            ring_degree: 64,
            lwe_dimension: n_lwe,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(37 + unroll as u64));
        let lwe_key = LweSecretKey::generate(n_lwe, &mut sampler);
        let ring_key = RingSecretKey::generate(p.ring_degree, &mut sampler);
        let engine = F64Fft::new(p.ring_degree);
        let bk = UnrolledBootstrappingKey::generate(
            &lwe_key,
            &ring_key,
            &p,
            &engine,
            unroll,
            &mut sampler,
        );
        (p, lwe_key, ring_key, engine, bk, sampler)
    }

    #[test]
    fn key_counts_follow_formula() {
        for (m, n, expected) in [(1usize, 6usize, 6usize), (2, 6, 9), (3, 6, 14), (2, 5, 7)] {
            let (_, _, _, _, bk, _) = setup(m, n);
            assert_eq!(bk.key_count(), expected, "m={m} n={n}");
            assert_eq!(bk.groups().len(), n.div_ceil(m));
        }
    }

    #[test]
    fn remainder_group_is_shorter() {
        let (_, _, _, _, bk, _) = setup(4, 6);
        assert_eq!(bk.groups()[0].len(), 4);
        assert_eq!(bk.groups()[1].len(), 2);
        assert_eq!(bk.groups()[1].keys().len(), 3);
    }

    /// The heart of BKU: applying a bundle to an accumulator must multiply
    /// its message by exactly `X^{-Σ ā_i s_i}`.
    #[test]
    fn bundle_external_product_rotates_by_group_phase() {
        for m in 1..=3usize {
            let (p, lwe_key, ring_key, engine, bk, mut sampler) = setup(m, 6);
            let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
            let two_n = p.two_n();
            let msg = TorusPolynomial::constant(Torus32::from_f64(0.25), p.ring_degree);
            let acc = TrlweCiphertext::encrypt(
                &msg,
                &ring_key,
                p.ring_noise_stdev,
                &engine,
                &mut sampler,
            );

            let group = &bk.groups()[0];
            let exponents: Vec<u32> = (0..group.len()).map(|i| (7 + 13 * i) as u32).collect();
            let bundle = bk.build_bundle(&engine, group, &exponents, two_n);
            let out = bundle.external_product(&engine, &acc, &decomp);

            // Expected rotation: -Σ ā_i s_i over the group's true key bits.
            let mut shift: i64 = 0;
            for (i, &e) in exponents.iter().enumerate() {
                if lwe_key.bits()[i] {
                    shift -= e as i64;
                }
            }
            let expected = msg.mul_by_monomial(shift);
            let dist = out.phase(&ring_key, &engine).max_distance(&expected);
            assert!(dist < 5e-3, "m={m}: distance {dist}");
        }
    }

    #[test]
    fn zero_exponents_yield_identity_bundle() {
        let (p, _, ring_key, engine, bk, mut sampler) = setup(2, 4);
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let msg = TorusPolynomial::constant(Torus32::from_f64(0.125), p.ring_degree);
        let acc =
            TrlweCiphertext::encrypt(&msg, &ring_key, p.ring_noise_stdev, &engine, &mut sampler);
        let bundle = bk.build_bundle(&engine, &bk.groups()[0], &[0, 0], p.two_n());
        let out = bundle.external_product(&engine, &acc, &decomp);
        assert!(out.phase(&ring_key, &engine).max_distance(&msg) < 5e-3);
    }

    #[test]
    fn indicator_keys_are_one_hot() {
        // Exactly one pattern key per group should encrypt 1 (the pattern
        // matching the true bits) unless the group bits are all zero.
        let (p, lwe_key, ring_key, engine, bk, _) = setup(2, 6);
        let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(99));
        let probe = TrlweCiphertext::encrypt(
            &TorusPolynomial::constant(Torus32::from_f64(0.25), p.ring_degree),
            &ring_key,
            p.ring_noise_stdev,
            &engine,
            &mut sampler,
        );
        for (g, group) in bk.groups().iter().enumerate() {
            let bits = &lwe_key.bits()[2 * g..2 * g + group.len()];
            let true_pattern: u32 = bits
                .iter()
                .enumerate()
                .map(|(i, &b)| u32::from(b) << i)
                .sum();
            for pattern in 1u32..(1 << group.len()) {
                let out =
                    group.keys()[pattern as usize - 1].external_product(&engine, &probe, &decomp);
                let phase = out.phase(&ring_key, &engine);
                let expect = if pattern == true_pattern {
                    probe.phase(&ring_key, &engine)
                } else {
                    TorusPolynomial::zero(p.ring_degree)
                };
                assert!(
                    phase.max_distance(&expect) < 5e-3,
                    "group {g} pattern {pattern:b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn zero_unroll_rejected() {
        let p = ParameterSet {
            ring_degree: 64,
            lwe_dimension: 4,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(1));
        let lwe_key = LweSecretKey::generate(4, &mut sampler);
        let ring_key = RingSecretKey::generate(64, &mut sampler);
        let engine = F64Fft::new(64);
        let _ =
            UnrolledBootstrappingKey::generate(&lwe_key, &ring_key, &p, &engine, 0, &mut sampler);
    }
}
