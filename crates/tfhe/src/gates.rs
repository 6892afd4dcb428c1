//! Homomorphic Boolean gates (the paper's `Logic[c0, c1]` operations).
//!
//! Every two-input gate is a linear combination of the input ciphertexts
//! and a trivial constant, followed by a gate bootstrap that simultaneously
//! computes the sign decision and resets the noise. `NOT` is a free
//! negation; `MUX` composes two bootstraps and a key switch as in the TFHE
//! reference library.

use crate::bootstrap::BootstrapKit;
use crate::lwe::LweCiphertext;
use crate::params::ParameterSet;
use crate::profile::{self, Phase};
use crate::scratch::BootstrapScratch;
use crate::secret::ClientKey;
use matcha_fft::FftEngine;
use matcha_math::Torus32;
use rand::Rng;
use std::fmt;

/// The two-input gates MATCHA evaluates (paper §5 studies all of them and
/// reports NAND, whose latency is representative).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR.
    Xnor,
    /// `a ∧ ¬b`.
    AndYN,
    /// `¬a ∧ b`.
    AndNY,
    /// `a ∨ ¬b`.
    OrYN,
    /// `¬a ∨ b`.
    OrNY,
}

impl Gate {
    /// All supported two-input gates.
    pub const ALL: [Gate; 10] = [
        Gate::And,
        Gate::Or,
        Gate::Nand,
        Gate::Nor,
        Gate::Xor,
        Gate::Xnor,
        Gate::AndYN,
        Gate::AndNY,
        Gate::OrYN,
        Gate::OrNY,
    ];

    /// The plaintext truth table.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            Gate::And => a && b,
            Gate::Or => a || b,
            Gate::Nand => !(a && b),
            Gate::Nor => !(a || b),
            Gate::Xor => a ^ b,
            Gate::Xnor => !(a ^ b),
            Gate::AndYN => a && !b,
            Gate::AndNY => !a && b,
            Gate::OrYN => a || !b,
            Gate::OrNY => !a || b,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Gate::And => "AND",
            Gate::Or => "OR",
            Gate::Nand => "NAND",
            Gate::Nor => "NOR",
            Gate::Xor => "XOR",
            Gate::Xnor => "XNOR",
            Gate::AndYN => "ANDYN",
            Gate::AndNY => "ANDNY",
            Gate::OrYN => "ORYN",
            Gate::OrNY => "ORNY",
        };
        f.write_str(name)
    }
}

/// The evaluator's key: bootstrapping + key-switching keys bound to an FFT
/// engine, exposing the Boolean gate API.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::{ClientKey, ServerKey, params::ParameterSet};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let engine = F64Fft::new(client.params().ring_degree);
/// let server = ServerKey::new(&client, engine, &mut rng);
/// let (a, b) = (client.encrypt(true), client.encrypt(false));
/// let c = server.nand(&a, &b);
/// assert!(client.decrypt(&c));
/// ```
#[derive(Clone, Debug)]
pub struct ServerKey<E: FftEngine> {
    kit: BootstrapKit<E>,
    engine: E,
}

/// The gate output plaintext amplitude `1/8`.
const GATE_MU: Torus32 = Torus32::from_raw(1 << 29);
/// `1/8` as the constant of gate linear parts.
const EIGHTH: Torus32 = Torus32::from_raw(1 << 29);
/// `1/4`, used by XOR/XNOR.
const QUARTER: Torus32 = Torus32::from_raw(1 << 30);

impl<E: FftEngine> ServerKey<E> {
    /// Builds a server key with the classic (`m = 1`) bootstrapping flow.
    pub fn new<R: Rng>(client: &ClientKey, engine: E, rng: &mut R) -> Self {
        Self::with_unrolling(client, engine, 1, rng)
    }

    /// Builds a server key with BKU factor `m` (paper §4.2).
    ///
    /// # Panics
    ///
    /// Panics if `unroll ∉ 1..=8` or the engine's ring degree disagrees
    /// with the client parameters.
    pub fn with_unrolling<R: Rng>(
        client: &ClientKey,
        engine: E,
        unroll: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(
            engine.ring_degree(),
            client.params().ring_degree,
            "engine ring degree must match parameters"
        );
        let kit = BootstrapKit::generate(client, &engine, unroll, rng);
        Self { kit, engine }
    }

    /// The parameter set.
    pub fn params(&self) -> &ParameterSet {
        self.kit.params()
    }

    /// The BKU factor `m`.
    pub fn unroll(&self) -> usize {
        self.kit.unroll()
    }

    /// The underlying bootstrap machinery (for noise experiments).
    pub fn kit(&self) -> &BootstrapKit<E> {
        &self.kit
    }

    /// The FFT engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// A trivial (noiseless, unkeyed) encryption of a Boolean constant.
    pub fn trivial(&self, value: bool) -> LweCiphertext {
        LweCiphertext::trivial(Torus32::from_bool(value), self.params().lwe_dimension)
    }

    fn linear_part(&self, gate: Gate, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let n = self.params().lwe_dimension;
        let mut out = LweCiphertext::trivial(Torus32::ZERO, n);
        self.linear_part_into(gate, a, b, &mut out);
        out
    }

    /// The gate's linear part written into a caller-owned buffer — no
    /// allocation once `out`'s mask has capacity `n`.
    fn linear_part_into(
        &self,
        gate: Gate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        out: &mut LweCiphertext,
    ) {
        profile::timed(Phase::Other, || {
            let n = self.params().lwe_dimension;
            match gate {
                Gate::And | Gate::Or => {
                    out.assign_trivial(if gate == Gate::And { -EIGHTH } else { EIGHTH }, n);
                    out.add_assign(a);
                    out.add_assign(b);
                }
                Gate::Nand | Gate::Nor => {
                    out.assign_trivial(if gate == Gate::Nand { EIGHTH } else { -EIGHTH }, n);
                    out.sub_assign(a);
                    out.sub_assign(b);
                }
                Gate::Xor => {
                    out.assign_trivial(Torus32::ZERO, n);
                    out.add_assign(a);
                    out.add_assign(b);
                    out.scale_assign(2);
                    out.add_body(QUARTER);
                }
                Gate::Xnor => {
                    out.assign_trivial(Torus32::ZERO, n);
                    out.add_assign(a);
                    out.add_assign(b);
                    out.scale_assign(-2);
                    out.add_body(-QUARTER);
                }
                Gate::AndYN | Gate::OrYN => {
                    out.assign_trivial(if gate == Gate::AndYN { -EIGHTH } else { EIGHTH }, n);
                    out.add_assign(a);
                    out.sub_assign(b);
                }
                Gate::AndNY | Gate::OrNY => {
                    out.assign_trivial(if gate == Gate::AndNY { -EIGHTH } else { EIGHTH }, n);
                    out.sub_assign(a);
                    out.add_assign(b);
                }
            }
        })
    }

    /// Applies any two-input gate: linear part + bootstrap + key switch.
    pub fn apply(&self, gate: Gate, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let lin = self.linear_part(gate, a, b);
        self.kit.bootstrap(&self.engine, &lin, GATE_MU)
    }

    /// Builds a reusable workspace for [`ServerKey::apply_into`].
    pub fn make_scratch(&self) -> BootstrapScratch<E> {
        self.kit.make_scratch(&self.engine)
    }

    /// [`ServerKey::apply`] into a caller-owned output through the scratch:
    /// a warmed call evaluates the whole gate — linear part, blind
    /// rotation, sample extraction, key switch — with zero heap
    /// allocations, and produces bit-identical results.
    pub fn apply_into(
        &self,
        gate: Gate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        self.load_lane(gate, a, b, scratch);
        self.bootstrap_lanes(std::slice::from_mut(scratch));
        self.kit
            .key_switch_key()
            .switch_into(&scratch.extracted, out);
    }

    /// Loads one bootstrap lane with `gate`'s linear part over `a`, `b`
    /// and the gate test vector.
    pub(crate) fn load_lane(
        &self,
        gate: Gate,
        a: &LweCiphertext,
        b: &LweCiphertext,
        lane: &mut BootstrapScratch<E>,
    ) {
        self.linear_part_into(gate, a, b, &mut lane.input);
        // All-(−μ) test vector, as in `bootstrap_to_extracted`.
        lane.testv.coeffs_mut().fill(-GATE_MU);
    }

    /// Bootstraps every loaded lane in lockstep, leaving each lane's
    /// result under the extracted key in its `extracted` sample.
    pub(crate) fn bootstrap_lanes(&self, lanes: &mut [BootstrapScratch<E>]) {
        self.kit.blind_rotate_lockstep_assign(&self.engine, lanes);
        profile::timed(Phase::Other, || {
            for lane in lanes.iter_mut() {
                lane.acc.sample_extract_into(&mut lane.extracted);
            }
        });
    }

    /// Logical AND.
    pub fn and(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::And, a, b)
    }

    /// Logical OR.
    pub fn or(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Or, a, b)
    }

    /// Logical NAND (the gate the paper reports throughput for).
    pub fn nand(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Nand, a, b)
    }

    /// Logical NOR.
    pub fn nor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Nor, a, b)
    }

    /// Logical XOR.
    pub fn xor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Xor, a, b)
    }

    /// Logical XNOR.
    pub fn xnor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply(Gate::Xnor, a, b)
    }

    /// Logical NOT — a free negation, no bootstrap (paper §5: "NOT has no
    /// bootstrapping at all").
    pub fn not(&self, a: &LweCiphertext) -> LweCiphertext {
        profile::timed(Phase::Other, || -a.clone())
    }

    /// [`ServerKey::not`] into a caller-owned output — no allocation once
    /// `out`'s mask has capacity for `a`'s dimension.
    pub fn not_into(&self, a: &LweCiphertext, out: &mut LweCiphertext) {
        profile::timed(Phase::Other, || {
            out.copy_from(a);
            out.neg_assign();
        })
    }

    /// Homomorphic multiplexer `sel ? a : b`, built from two bootstraps and
    /// one key switch as in the TFHE reference library.
    pub fn mux(&self, sel: &LweCiphertext, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        // u1 = AND(sel, a), u2 = AND(¬sel, b) — both under the extracted key.
        let lin1 = self.linear_part(Gate::And, sel, a);
        let u1 = self
            .kit
            .bootstrap_to_extracted(&self.engine, &lin1, GATE_MU);
        let lin2 = self.linear_part(Gate::AndNY, sel, b);
        let u2 = self
            .kit
            .bootstrap_to_extracted(&self.engine, &lin2, GATE_MU);
        let n_extract = u1.dimension();
        let sum = profile::timed(Phase::Other, || {
            u1 + &u2 + &LweCiphertext::trivial(EIGHTH, n_extract)
        });
        self.kit.key_switch_key().switch(&sum)
    }

    /// [`ServerKey::mux`] into a caller-owned output through the scratch:
    /// both bootstraps, the recombination and the key switch run with zero
    /// heap allocations once warmed, and the result is bit-identical to the
    /// allocating path.
    pub fn mux_into(
        &self,
        sel: &LweCiphertext,
        a: &LweCiphertext,
        b: &LweCiphertext,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        // u1 = AND(sel, a), u2 = AND(¬sel, b) — both under the extracted key.
        self.load_lane(Gate::And, sel, a, scratch);
        self.bootstrap_lanes(std::slice::from_mut(scratch));
        std::mem::swap(&mut scratch.extracted, &mut scratch.extracted2);
        self.load_lane(Gate::AndNY, sel, b, scratch);
        self.bootstrap_lanes(std::slice::from_mut(scratch));
        // u2 + u1 + (0, 1/8): wrapping adds commute, so this is
        // bit-identical to the allocating `mux`'s u1 + u2 + (0, 1/8).
        fold_mux(&mut scratch.extracted, &scratch.extracted2);
        self.kit
            .key_switch_key()
            .switch_into(&scratch.extracted, out);
    }
}

/// The mux recombination `u1 ← u1 + u2 + (0, 1/8)` under the extracted
/// key, ahead of the mux's single key switch.
pub(crate) fn fold_mux(u1: &mut LweCiphertext, u2: &LweCiphertext) {
    profile::timed(Phase::Other, || {
        u1.add_assign(u2);
        u1.add_body(EIGHTH);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use matcha_fft::{ApproxIntFft, F64Fft};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(unroll: usize) -> (ClientKey, ServerKey<F64Fft>, StdRng) {
        let mut rng = StdRng::seed_from_u64(1000 + unroll as u64);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = F64Fft::new(client.params().ring_degree);
        let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
        (client, server, rng)
    }

    #[test]
    fn all_gates_match_truth_tables() {
        let (client, server, mut rng) = setup(1);
        for gate in Gate::ALL {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                let out = server.apply(gate, &ca, &cb);
                assert_eq!(client.decrypt(&out), gate.eval(a, b), "{gate}({a}, {b})");
            }
        }
    }

    #[test]
    fn gates_with_unrolling_m2() {
        let (client, server, mut rng) = setup(2);
        for gate in [Gate::Nand, Gate::Xor] {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                assert_eq!(
                    client.decrypt(&server.apply(gate, &ca, &cb)),
                    gate.eval(a, b),
                    "{gate}({a}, {b}) m=2"
                );
            }
        }
    }

    #[test]
    fn not_gate_is_free_and_correct() {
        let (client, server, mut rng) = setup(1);
        for v in [true, false] {
            let c = client.encrypt_with(v, &mut rng);
            assert_eq!(client.decrypt(&server.not(&c)), !v);
        }
    }

    #[test]
    fn mux_selects() {
        let (client, server, mut rng) = setup(1);
        for sel in [true, false] {
            for (a, b) in [(true, false), (false, true), (true, true), (false, false)] {
                let cs = client.encrypt_with(sel, &mut rng);
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                let out = server.mux(&cs, &ca, &cb);
                assert_eq!(
                    client.decrypt(&out),
                    if sel { a } else { b },
                    "sel={sel} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn mux_into_is_bit_identical_to_mux() {
        let (client, server, mut rng) = setup(1);
        let mut scratch = server.make_scratch();
        let mut out = LweCiphertext::trivial(Torus32::ZERO, 1);
        for sel in [true, false] {
            for (a, b) in [(true, false), (false, true)] {
                let cs = client.encrypt_with(sel, &mut rng);
                let ca = client.encrypt_with(a, &mut rng);
                let cb = client.encrypt_with(b, &mut rng);
                let eager = server.mux(&cs, &ca, &cb);
                server.mux_into(&cs, &ca, &cb, &mut out, &mut scratch);
                assert_eq!(out, eager, "sel={sel} a={a} b={b}");
            }
        }
    }

    #[test]
    fn not_into_matches_not() {
        let (client, server, mut rng) = setup(1);
        let mut out = LweCiphertext::trivial(Torus32::ZERO, 1);
        for v in [true, false] {
            let c = client.encrypt_with(v, &mut rng);
            server.not_into(&c, &mut out);
            assert_eq!(out, server.not(&c));
            assert_eq!(client.decrypt(&out), !v);
        }
    }

    #[test]
    fn trivial_constants_feed_gates() {
        let (client, server, mut rng) = setup(1);
        let ct = server.trivial(true);
        let ca = client.encrypt_with(true, &mut rng);
        assert!(client.decrypt(&server.and(&ca, &ct)));
        assert!(!client.decrypt(&server.nand(&ca, &ct)));
    }

    #[test]
    fn gate_chain_survives_noise() {
        // A chain of dependent gates: each output feeds the next.
        let (client, server, mut rng) = setup(2);
        let mut acc = client.encrypt_with(true, &mut rng);
        let mut expected = true;
        for i in 0..6 {
            let fresh_val = i % 2 == 0;
            let fresh = client.encrypt_with(fresh_val, &mut rng);
            acc = server.xor(&acc, &fresh);
            expected ^= fresh_val;
            assert_eq!(client.decrypt(&acc), expected, "step {i}");
        }
    }

    #[test]
    fn nand_with_integer_engine() {
        let mut rng = StdRng::seed_from_u64(77);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let engine = ApproxIntFft::new(client.params().ring_degree, 45);
        let server = ServerKey::with_unrolling(&client, engine, 2, &mut rng);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let ca = client.encrypt_with(a, &mut rng);
            let cb = client.encrypt_with(b, &mut rng);
            assert_eq!(client.decrypt(&server.nand(&ca, &cb)), !(a && b));
        }
    }

    #[test]
    fn gate_display_names() {
        assert_eq!(Gate::Nand.to_string(), "NAND");
        assert_eq!(Gate::AndYN.to_string(), "ANDYN");
    }
}
