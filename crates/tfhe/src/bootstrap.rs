//! Gate bootstrapping (Algorithm 1 of the paper).
//!
//! The pipeline per gate: round the input LWE sample to `Z_{2N}`, blind-
//! rotate a test vector by the encrypted phase (one bundle build + external
//! product per key group), extract the constant coefficient, and key-switch
//! back to the gate-level key. Every TFHE Boolean gate is a cheap linear
//! combination followed by this procedure, which is why bootstrapping is
//! 99% of gate latency (paper Figure 1).

use crate::bku::UnrolledBootstrappingKey;
use crate::keyswitch::KeySwitchKey;
use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::profile::{self, Phase};
use crate::scratch::BootstrapScratch;
use crate::secret::ClientKey;
use crate::tlwe::TrlweCiphertext;
use matcha_fft::FftEngine;
use matcha_math::{
    mod_switch_from_torus, GadgetDecomposer, Torus32, TorusPolynomial, TorusSampler,
};
use rand::Rng;

/// Everything the (untrusted) evaluator needs to bootstrap: the unrolled
/// bootstrapping key, the key-switching key, and the gadget decomposer.
#[derive(Clone, Debug)]
pub struct BootstrapKit<E: FftEngine> {
    params: ParameterSet,
    bk: UnrolledBootstrappingKey<E>,
    ksk: KeySwitchKey,
    decomp: GadgetDecomposer,
}

impl<E: FftEngine> BootstrapKit<E> {
    /// Generates the evaluation keys from the client's secrets.
    ///
    /// `unroll` is the BKU factor `m` (paper §4.2): 1 reproduces classic
    /// TFHE; larger values trade `2^m − 1` stored keys per group for
    /// `⌈n/m⌉` instead of `n` external products per bootstrap.
    pub fn generate<R: Rng>(client: &ClientKey, engine: &E, unroll: usize, rng: &mut R) -> Self {
        let params = *client.params();
        let mut sampler = TorusSampler::new(rng);
        let bk = UnrolledBootstrappingKey::generate(
            client.lwe_key(),
            client.ring_key(),
            &params,
            engine,
            unroll,
            &mut sampler,
        );
        let ksk = KeySwitchKey::generate(
            &client.ring_key().extract_lwe_key(),
            client.lwe_key(),
            &params,
            &mut sampler,
        );
        let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
        Self {
            params,
            bk,
            ksk,
            decomp,
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &ParameterSet {
        &self.params
    }

    /// The BKU factor `m`.
    pub fn unroll(&self) -> usize {
        self.bk.unroll()
    }

    /// The unrolled bootstrapping key.
    pub fn bootstrapping_key(&self) -> &UnrolledBootstrappingKey<E> {
        &self.bk
    }

    /// The key-switching key.
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }

    /// Blind rotation: returns `TRLWE(X^{b̄ − ⟨ā, s⟩} · testv)`.
    ///
    /// One bundle construction + external product per key group
    /// (Figure 6a's two pipeline steps, executed sequentially in software).
    pub fn blind_rotate(
        &self,
        engine: &E,
        input: &LweCiphertext,
        testv: TorusPolynomial,
    ) -> TrlweCiphertext {
        let two_n = self.params.two_n();
        let b_bar = mod_switch_from_torus(input.body(), two_n);
        let mut acc = profile::timed(Phase::Other, || {
            TrlweCiphertext::trivial(testv).rotate(b_bar as i64)
        });
        let mask = input.mask();
        let mut index = 0;
        for group in self.bk.groups() {
            let exponents: Vec<u32> = mask[index..index + group.len()]
                .iter()
                .map(|&a| mod_switch_from_torus(a, two_n))
                .collect();
            index += group.len();
            let bundle = self.bk.build_bundle(engine, group, &exponents, two_n);
            acc = bundle.external_product(engine, &acc, &self.decomp);
        }
        acc
    }

    /// Bootstraps `input` to a fresh sample of message `±mu` under the
    /// *extracted* (dimension-`N`) key — Algorithm 1 without the final
    /// key switch. Output message is `+mu` when the input phase is in
    /// `(0, 1/2)` and `−mu` otherwise.
    pub fn bootstrap_to_extracted(
        &self,
        engine: &E,
        input: &LweCiphertext,
        mu: Torus32,
    ) -> LweCiphertext {
        // All-(−μ) test vector: rotating by a positive phase δ̄ ∈ [1, N]
        // wraps the top coefficient negacyclically into +μ at position 0.
        let testv = TorusPolynomial::from_coeffs(vec![-mu; self.params.ring_degree]);
        let acc = self.blind_rotate(engine, input, testv);
        profile::timed(Phase::Other, || acc.sample_extract())
    }

    /// Full gate bootstrap: noise-reset to `±mu` and key-switch back to the
    /// gate-level key.
    pub fn bootstrap(&self, engine: &E, input: &LweCiphertext, mu: Torus32) -> LweCiphertext {
        let extracted = self.bootstrap_to_extracted(engine, input, mu);
        self.ksk.switch(&extracted)
    }

    /// Builds a reusable workspace for the zero-allocation bootstrap path.
    /// One scratch per worker thread; the first bootstrap through it warms
    /// the buffers, every later one allocates nothing.
    pub fn make_scratch(&self, engine: &E) -> BootstrapScratch<E> {
        BootstrapScratch::with_bundle(engine, &self.params, self.bk.gadget_spectrum().clone())
    }

    /// Blind rotation through the scratch: reads the test vector from
    /// `scratch.test_vector_mut()` and leaves `TRLWE(X^{b̄ − ⟨ā, s⟩}·testv)`
    /// in `scratch.accumulator()` — the one-lane case of
    /// [`BootstrapKit::blind_rotate_lockstep_assign`]. Bit-identical to
    /// [`BootstrapKit::blind_rotate`]; zero allocations once warmed.
    pub fn blind_rotate_assign(
        &self,
        engine: &E,
        input: &LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        profile::timed(Phase::Other, || scratch.input.copy_from(input));
        self.blind_rotate_lockstep_assign(engine, std::slice::from_mut(scratch));
    }

    /// Blind-rotates every lane in lockstep: each lane rotates its test
    /// vector (`test_vector_mut`) by the phase of its input sample
    /// (`input_mut`) and leaves the result in its `accumulator`. The lanes
    /// advance group by group — one lockstep bundle build
    /// ([`UnrolledBootstrappingKey::build_bundles_into`]), which streams
    /// each pattern key once for all lanes, then one external product per
    /// lane — so every lane is bit-identical to rotating alone. The first
    /// lane's external-product workspace serves every lane in turn.
    pub fn blind_rotate_lockstep_assign(&self, engine: &E, lanes: &mut [BootstrapScratch<E>]) {
        if lanes.is_empty() {
            return;
        }
        let two_n = self.params.two_n();
        profile::timed(Phase::Other, || {
            for lane in lanes.iter_mut() {
                let b_bar = mod_switch_from_torus(lane.input.body(), two_n);
                lane.acc.mask_mut().fill_zero();
                lane.acc.body_mut().rotate_from(&lane.testv, b_bar as i64);
            }
        });
        let mut index = 0;
        for group in self.bk.groups() {
            for lane in lanes.iter_mut() {
                let BootstrapScratch {
                    input, exponents, ..
                } = lane;
                exponents.clear();
                exponents.extend(
                    input.mask()[index..index + group.len()]
                        .iter()
                        .map(|&a| mod_switch_from_torus(a, two_n)),
                );
            }
            index += group.len();
            self.bk.build_bundles_into(engine, group, two_n, lanes);
            let (first, rest) = lanes.split_first_mut().expect("at least one lane");
            let BootstrapScratch {
                ep, bundle, acc, ..
            } = first;
            bundle.external_product_assign(engine, acc, &self.decomp, ep);
            for lane in rest {
                lane.bundle
                    .external_product_assign(engine, &mut lane.acc, &self.decomp, ep);
            }
        }
    }

    /// [`BootstrapKit::bootstrap`] into a caller-owned output through the
    /// scratch — zero allocations once warmed. Bit-identical to the
    /// allocating path.
    pub fn bootstrap_into(
        &self,
        engine: &E,
        input: &LweCiphertext,
        mu: Torus32,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        // All-(−μ) test vector, as in `bootstrap_to_extracted`.
        scratch.testv.coeffs_mut().fill(-mu);
        self.blind_rotate_assign(engine, input, scratch);
        profile::timed(Phase::Other, || {
            scratch.acc.sample_extract_into(&mut scratch.extracted)
        });
        self.ksk.switch_into(&scratch.extracted, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_fft::{ApproxIntFft, F64Fft};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MU: f64 = 0.125;

    fn client(seed: u64) -> (ClientKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        (key, rng)
    }

    fn check_bootstrap<E: FftEngine>(engine: &E, unroll: usize, seed: u64) {
        let (client_key, mut rng) = client(seed);
        let kit = BootstrapKit::generate(&client_key, engine, unroll, &mut rng);
        for message in [true, false] {
            let c = client_key.encrypt_with(message, &mut rng);
            let out = kit.bootstrap(engine, &c, Torus32::from_f64(MU));
            assert_eq!(
                client_key.decrypt(&out),
                message,
                "unroll={unroll} message={message}"
            );
            // Bootstrapped noise must be far below the 1/16 margin.
            let noise = client_key.noise_of(&out, message).abs();
            assert!(noise < 0.03, "unroll={unroll}: noise {noise}");
        }
    }

    #[test]
    fn bootstrap_identity_m1() {
        check_bootstrap(&F64Fft::new(256), 1, 41);
    }

    #[test]
    fn bootstrap_identity_m2() {
        check_bootstrap(&F64Fft::new(256), 2, 42);
    }

    #[test]
    fn bootstrap_identity_m3() {
        check_bootstrap(&F64Fft::new(256), 3, 43);
    }

    #[test]
    fn bootstrap_identity_m4() {
        check_bootstrap(&F64Fft::new(256), 4, 44);
    }

    #[test]
    fn bootstrap_with_approximate_fft() {
        check_bootstrap(&ApproxIntFft::new(256, 45), 1, 45);
    }

    #[test]
    fn bootstrap_with_approximate_fft_unrolled() {
        check_bootstrap(&ApproxIntFft::new(256, 45), 3, 46);
    }

    #[test]
    fn unrolled_matches_classic_output_message() {
        // m = 1 and m = 3 must decrypt identically on the same ciphertext.
        let (client_key, mut rng) = client(47);
        let engine = F64Fft::new(256);
        let kit1 = BootstrapKit::generate(&client_key, &engine, 1, &mut rng);
        let kit3 = BootstrapKit::generate(&client_key, &engine, 3, &mut rng);
        for message in [true, false] {
            let c = client_key.encrypt_with(message, &mut rng);
            let o1 = kit1.bootstrap(&engine, &c, Torus32::from_f64(MU));
            let o3 = kit3.bootstrap(&engine, &c, Torus32::from_f64(MU));
            assert_eq!(client_key.decrypt(&o1), client_key.decrypt(&o3));
            assert_eq!(client_key.decrypt(&o1), message);
        }
    }

    #[test]
    fn bootstrap_resets_noise() {
        // Feed a deliberately noisy (but decryptable) sample; output noise
        // must be independent of input noise.
        let (client_key, mut rng) = client(48);
        let engine = F64Fft::new(256);
        let kit = BootstrapKit::generate(&client_key, &engine, 2, &mut rng);
        let mut c = client_key.encrypt_with(true, &mut rng);
        // Stack noise by summing encryptions of ±1/8 that cancel.
        for _ in 0..3 {
            let plus = client_key.encrypt_with(true, &mut rng);
            let minus = client_key.encrypt_with(false, &mut rng);
            c.add_assign(&plus);
            c.add_assign(&minus);
            let flip = client_key.encrypt_with(false, &mut rng);
            let unflip = client_key.encrypt_with(true, &mut rng);
            c.add_assign(&flip);
            c.sub_assign(&unflip);
            c.add_assign(&unflip);
            c.sub_assign(&flip);
        }
        let out = kit.bootstrap(&engine, &c, Torus32::from_f64(MU));
        assert!(client_key.decrypt(&out));
        assert!(client_key.noise_of(&out, true).abs() < 0.03);
    }
}
