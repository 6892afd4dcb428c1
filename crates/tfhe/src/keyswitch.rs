//! LWE key switching (Algorithm 1's final step).
//!
//! Sample extraction leaves the bootstrapped sample encrypted under the
//! extracted ring key `s′` of dimension `N`; key switching converts it back
//! to the gate-level key `s` of dimension `n` by decomposing every mask
//! coefficient in base `2^γ` over `t` levels and subtracting pre-encrypted
//! multiples of the `s′` bits.

use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::profile::{self, Phase};
use crate::secret::LweSecretKey;
use matcha_math::{Torus32, TorusSampler};
use rand::Rng;

/// A key-switching key `KS_{s′→s}`.
///
/// Stores `N × t × (2^γ − 1)` LWE samples: entry `(i, j, v)` encrypts
/// `v · s′_i / 2^{(j+1)γ}` under the target key.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    entries: Vec<LweCiphertext>,
    from_dimension: usize,
    to_dimension: usize,
    base_log: u32,
    levels: usize,
}

impl KeySwitchKey {
    /// Generates a key-switching key from `from_key` to `to_key`.
    ///
    /// # Panics
    ///
    /// Panics if `ks_base_log` or `ks_levels` is zero, if
    /// `ks_base_log ≥ 32` (the base `2^γ` itself must fit a `u32`), or if
    /// `ks_base_log · ks_levels > 32`: the decomposition shifts
    /// `32 − (j+1)·γ` (here and in [`KeySwitchKey::switch_into`]) would
    /// underflow past the 32-bit torus — a debug-build panic and a silent
    /// release-build wraparound before this constructor-time check.
    pub fn generate<R: Rng>(
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        params: &ParameterSet,
        sampler: &mut TorusSampler<R>,
    ) -> Self {
        let base_log = params.ks_base_log;
        let levels = params.ks_levels;
        assert!(
            base_log > 0 && levels > 0,
            "key-switch decomposition parameters must be nonzero"
        );
        // base_log = 32 would already overflow `1u32 << base_log` below
        // even with a single level, so the base itself must fit too.
        assert!(
            base_log < 32 && base_log as usize * levels <= 32,
            "ks_base_log {base_log} × ks_levels {levels} exceeds the 32-bit torus"
        );
        let base = 1u32 << base_log;
        let n_from = from_key.dimension();
        let mut entries = Vec::with_capacity(n_from * levels * (base as usize - 1));
        for i in 0..n_from {
            let s_bit = u32::from(from_key.bits()[i]);
            for j in 0..levels {
                let unit = Torus32::from_raw(1u32 << (32 - (j as u32 + 1) * base_log));
                for v in 1..base {
                    let mu = unit * (v * s_bit) as i32;
                    entries.push(LweCiphertext::encrypt(
                        mu,
                        to_key,
                        params.lwe_noise_stdev,
                        sampler,
                    ));
                }
            }
        }
        Self {
            entries,
            from_dimension: n_from,
            to_dimension: to_key.dimension(),
            base_log,
            levels,
        }
    }

    /// Source key dimension `N`.
    pub fn from_dimension(&self) -> usize {
        self.from_dimension
    }

    /// Target key dimension `n`.
    pub fn to_dimension(&self) -> usize {
        self.to_dimension
    }

    /// Size of the key in LWE samples (for memory-traffic models).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Switches `c` (under the source key) to the target key.
    ///
    /// # Panics
    ///
    /// Panics if `c`'s dimension does not match the source key.
    pub fn switch(&self, c: &LweCiphertext) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(c.body(), self.to_dimension);
        self.switch_into(c, &mut out);
        out
    }

    /// [`KeySwitchKey::switch`] into a caller-owned output — the one-lane
    /// case of [`KeySwitchKey::switch_lockstep_into`]; no allocation once
    /// `out`'s mask has capacity `n`.
    ///
    /// # Panics
    ///
    /// Panics if `c`'s dimension does not match the source key.
    pub fn switch_into(&self, c: &LweCiphertext, out: &mut LweCiphertext) {
        self.switch_lockstep_into(&mut [(c, out)]);
    }

    /// Switches every lane's source sample into its output, walking each
    /// `(i, j)` block of the key **once** for all lanes, so a chunk of `L`
    /// key switches streams the `N·t·(2^γ − 1)`-sample key once instead of
    /// `L` times. Every lane subtracts the same entries in the same order
    /// as a switch on its own, so the outputs are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a lane's source dimension does not match the source key.
    pub fn switch_lockstep_into<L: SwitchLane>(&self, lanes: &mut [L]) {
        if lanes.is_empty() {
            return;
        }
        profile::timed(Phase::KeySwitch, || {
            for lane in lanes.iter_mut() {
                let (c, out) = lane.switch_parts();
                assert_eq!(c.dimension(), self.from_dimension, "dimension mismatch");
                out.assign_trivial(c.body(), self.to_dimension);
            }
            let base = 1u32 << self.base_log;
            let mask = base - 1;
            let block = base as usize - 1;
            // Round each coefficient to t·γ bits before decomposing.
            let precision_bits = self.base_log * self.levels as u32;
            let round_bump = if precision_bits < 32 {
                1u32 << (31 - precision_bits)
            } else {
                0
            };
            for (i, level_blocks) in self.entries.chunks_exact(self.levels * block).enumerate() {
                for (j, entries) in level_blocks.chunks_exact(block).enumerate() {
                    let shift = 32 - (j as u32 + 1) * self.base_log;
                    for lane in lanes.iter_mut() {
                        let (c, out) = lane.switch_parts();
                        let t = c.mask()[i].raw().wrapping_add(round_bump);
                        let digit = (t >> shift) & mask;
                        if digit != 0 {
                            out.sub_assign(&entries[digit as usize - 1]);
                        }
                    }
                }
            }
        })
    }
}

/// One lane of [`KeySwitchKey::switch_lockstep_into`]: a sample under the
/// source key in, its switched output out.
pub trait SwitchLane {
    /// `(source, output)`, borrowed together.
    fn switch_parts(&mut self) -> (&LweCiphertext, &mut LweCiphertext);
}

impl SwitchLane for (&LweCiphertext, &mut LweCiphertext) {
    fn switch_parts(&mut self) -> (&LweCiphertext, &mut LweCiphertext) {
        (self.0, &mut *self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        LweSecretKey,
        LweSecretKey,
        KeySwitchKey,
        TorusSampler<StdRng>,
    ) {
        let params = ParameterSet::TEST_FAST;
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(31));
        let from = LweSecretKey::generate(128, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
        (from, to, ksk, sampler)
    }

    #[test]
    fn switch_preserves_message() {
        let (from, to, ksk, mut sampler) = setup();
        for &m in &[0.125, -0.125, 0.25, 0.0] {
            let mu = Torus32::from_f64(m);
            let c = LweCiphertext::encrypt(mu, &from, 1e-8, &mut sampler);
            let switched = ksk.switch(&c);
            assert_eq!(switched.dimension(), to.dimension());
            let err = switched.phase(&to).signed_diff(mu).abs();
            assert!(err < 1e-3, "message {m}: error {err}");
        }
    }

    #[test]
    fn switch_is_linear() {
        let (from, to, ksk, mut sampler) = setup();
        let c1 = LweCiphertext::encrypt(Torus32::from_f64(0.125), &from, 1e-8, &mut sampler);
        let c2 = LweCiphertext::encrypt(Torus32::from_f64(0.25), &from, 1e-8, &mut sampler);
        let sum_then_switch = ksk.switch(&(c1.clone() + &c2));
        let expected = Torus32::from_f64(0.375);
        assert!(sum_then_switch.phase(&to).signed_diff(expected).abs() < 1e-3);
    }

    #[test]
    fn entry_count_matches_formula() {
        let (_, _, ksk, _) = setup();
        assert_eq!(ksk.entry_count(), 128 * 8 * 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected() {
        let (_, _, ksk, _) = setup();
        let c = LweCiphertext::trivial(Torus32::ZERO, 64);
        let _ = ksk.switch(&c);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit torus")]
    fn oversized_decomposition_rejected() {
        // 12 × 3 = 36 > 32: the per-level shift `32 − (j+1)·γ` would
        // underflow at j = 2. Must be rejected at key generation, not
        // deep inside a switch.
        let params = ParameterSet {
            ks_base_log: 12,
            ks_levels: 3,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(1));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let _ = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit torus")]
    fn full_width_base_rejected() {
        // γ = 32 with a single level passes γ·t ≤ 32 but `1u32 << 32`
        // overflows; the constructor must reject the base itself.
        let params = ParameterSet {
            ks_base_log: 32,
            ks_levels: 1,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(4));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let _ = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
    }

    #[test]
    #[should_panic(expected = "must be nonzero")]
    fn zero_levels_rejected() {
        let params = ParameterSet {
            ks_levels: 0,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(2));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let _ = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
    }

    #[test]
    fn full_precision_32_bits_accepted() {
        // γ·t = 32 exactly is legal: the finest level's shift is 0 and the
        // rounding bump is skipped (precision_bits == 32).
        let params = ParameterSet {
            ks_base_log: 8,
            ks_levels: 4,
            ..ParameterSet::TEST_FAST
        };
        let mut sampler = TorusSampler::new(StdRng::seed_from_u64(3));
        let from = LweSecretKey::generate(16, &mut sampler);
        let to = LweSecretKey::generate(params.lwe_dimension, &mut sampler);
        let ksk = KeySwitchKey::generate(&from, &to, &params, &mut sampler);
        let c = LweCiphertext::encrypt(Torus32::from_f64(0.25), &from, 1e-9, &mut sampler);
        let err = ksk
            .switch(&c)
            .phase(&to)
            .signed_diff(Torus32::from_f64(0.25));
        assert!(err.abs() < 1e-2, "error {err}");
    }

    #[test]
    fn noise_growth_is_bounded() {
        let (from, to, ksk, mut sampler) = setup();
        let mut worst: f64 = 0.0;
        for _ in 0..20 {
            let c = LweCiphertext::encrypt(Torus32::from_f64(0.125), &from, 1e-8, &mut sampler);
            let err = ksk
                .switch(&c)
                .phase(&to)
                .signed_diff(Torus32::from_f64(0.125))
                .abs();
            worst = worst.max(err);
        }
        // 128 coefficients × 8 levels of noise-1e-7 keys plus rounding at
        // 2^-17 granularity: comfortably below the 1/16 gate margin.
        assert!(worst < 1e-2, "worst key-switch noise {worst}");
    }
}
