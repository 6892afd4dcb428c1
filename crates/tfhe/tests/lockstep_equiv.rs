//! Lockstep bootstrapping is an exact reordering: a chunk of gates whose
//! bundles, blind rotations and key switches advance together must produce,
//! lane for lane, the very ciphertexts one-at-a-time evaluation produces —
//! on every engine, at every unroll factor (including a short remainder
//! key group), for any lane count (past `MAX_LANES` too), and with bundle
//! patterns vanishing in some lanes but not in others. A failing, delayed
//! or dying task inside a chunk affects only itself.

use matcha_fft::{ApproxIntFft, F64Fft, FftEngine};
use matcha_math::Torus32;
use matcha_tfhe::{
    ClientKey, FaultAction, FaultPlan, Gate, GateBatchPool, GateTask, LweCiphertext, ParameterSet,
    ServerKey, SlabTask, TgswSpectrum, ValueSlab, MAX_LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// `n = 18` leaves a short remainder group at m = 4 (4·4 + 2) and m = 3
/// is exact (6·3); m = 1, 2 cover the classic and paper-default shapes.
const PARAMS: ParameterSet = ParameterSet {
    lwe_dimension: 18,
    ..ParameterSet::TEST_FAST
};

/// Operand slots every chunk reads from.
const INPUTS: usize = 4;

/// A uniform draw from `0..n`.
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.gen::<u64>() % n as u64) as usize
}

struct Keys<E: FftEngine> {
    client: ClientKey,
    server: ServerKey<E>,
}

fn keys<E: FftEngine>(engine: E, unroll: usize) -> Keys<E> {
    let mut rng = StdRng::seed_from_u64(0x10C5 + unroll as u64);
    let client = ClientKey::generate(PARAMS, &mut rng);
    let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
    Keys { client, server }
}

fn f64_keys(unroll: usize) -> &'static Keys<F64Fft> {
    static KEYS: [OnceLock<Keys<F64Fft>>; 4] = [const { OnceLock::new() }; 4];
    KEYS[unroll - 1].get_or_init(|| keys(F64Fft::new(PARAMS.ring_degree), unroll))
}

/// `ApproxIntFft` at the coarse 24-bit and the paper's 38-bit twiddles.
fn approx_keys(bits: u32, unroll: usize) -> &'static Keys<ApproxIntFft> {
    static KEYS: [[OnceLock<Keys<ApproxIntFft>>; 4]; 2] =
        [const { [const { OnceLock::new() }; 4] }; 2];
    let slot = usize::from(bits == 38);
    KEYS[slot][unroll - 1].get_or_init(|| keys(ApproxIntFft::new(PARAMS.ring_degree, bits), unroll))
}

/// A chunk of `kinds.len()` tasks over a fresh slab whose first
/// [`INPUTS`] slots hold encryptions of the low bits of `bits`: kind 0 is
/// a binary gate, 1 a mux, 2 a free NOT; operands are drawn from `seed`.
fn chunk(client: &ClientKey, bits: u8, kinds: &[u8], seed: u64) -> Vec<SlabTask> {
    let mut rng = StdRng::seed_from_u64(seed);
    let slab = ValueSlab::new(INPUTS + kinds.len());
    for i in 0..INPUTS {
        slab.set(i, client.encrypt_with(bits >> i & 1 == 1, &mut rng));
    }
    let slab = Arc::new(slab);
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let gate = Gate::ALL[below(&mut rng, Gate::ALL.len())];
            let mut operand = || below(&mut rng, INPUTS);
            let task = match kind {
                0 => GateTask::Binary {
                    gate,
                    a: operand(),
                    b: operand(),
                },
                1 => GateTask::Mux {
                    sel: operand(),
                    a: operand(),
                    b: operand(),
                },
                _ => GateTask::Not { a: operand() },
            };
            SlabTask {
                slab: Arc::clone(&slab),
                node: INPUTS + i,
                task,
            }
        })
        .collect()
}

/// Each task evaluated alone through one warmed scratch — the oracle.
fn one_at_a_time<E: FftEngine>(server: &ServerKey<E>, tasks: &[SlabTask]) -> Vec<LweCiphertext> {
    let mut scratch = server.make_scratch();
    tasks
        .iter()
        .map(|st| {
            let mut out = LweCiphertext::trivial(Torus32::ZERO, 1);
            st.task.apply_into(server, &st.slab, &mut out, &mut scratch);
            out
        })
        .collect()
}

fn assert_chunk_matches<E: FftEngine>(
    k: &Keys<E>,
    bits: u8,
    kinds: &[u8],
    seed: u64,
) -> Result<(), TestCaseError> {
    let tasks = chunk(&k.client, bits, kinds, seed);
    let expected = one_at_a_time(&k.server, &tasks);
    let mut outs = vec![LweCiphertext::trivial(Torus32::ZERO, 1); tasks.len()];
    let mut lanes = Vec::new();
    // Twice through the same lanes: the second pass runs on scratches a
    // different chunk shape already warmed.
    for _ in 0..2 {
        SlabTask::apply_lockstep_into(&tasks, &k.server, &mut outs, &mut lanes);
        for (i, (got, want)) in outs.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got, want, "task {} ({:?})", i, tasks[i].task);
        }
    }
    let used: usize = tasks.iter().map(|st| st.task.lanes()).sum();
    prop_assert_eq!(lanes.len(), used, "lanes grow only to the chunk's need");
    Ok(())
}

/// Per-lane exponent sets for one key group: random, or shaped so that
/// some of the lane's bundle patterns vanish (`X^0 − 1 = 0`) — all of
/// them, the ones containing only bit 0, or the pattern `{0, 1}`.
fn exponents(rng: &mut StdRng, len: usize, mode: u8, two_n: u32) -> Vec<u32> {
    let mut e: Vec<u32> = (0..len).map(|_| rng.gen::<u32>() % two_n).collect();
    match mode {
        1 => e.fill(0),
        2 => e[0] = 0,
        3 if len >= 2 => e[1] = (two_n - e[0]) % two_n,
        _ => {}
    }
    e
}

/// The lockstep bundle build against each lane's bundle built alone, on
/// every group of the key (the short remainder group included).
fn assert_bundles_match<E: FftEngine>(
    k: &Keys<E>,
    modes: &[u8],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bk = k.server.kit().bootstrapping_key();
    let engine = k.server.engine();
    let two_n = PARAMS.two_n();
    for group in bk.groups() {
        let sets: Vec<Vec<u32>> = modes
            .iter()
            .map(|&mode| exponents(&mut rng, group.len(), mode, two_n))
            .collect();
        let template = group.keys()[0].clone();
        let mut bundles: Vec<TgswSpectrum<E>> = vec![template.clone(); sets.len()];
        let mut factors = vec![E::MonomialFactors::default(); sets.len()];
        let mut lanes: Vec<_> = sets
            .iter()
            .zip(bundles.iter_mut().zip(factors.iter_mut()))
            .map(|(e, (b, f))| (e.as_slice(), b, f))
            .collect();
        bk.build_bundles_into(engine, group, two_n, &mut lanes);
        drop(lanes);
        for (lane, (e, bundle)) in sets.iter().zip(&bundles).enumerate() {
            let alone = bk.build_bundle(engine, group, e, two_n);
            let bits = |t: &TgswSpectrum<E>| -> Vec<String> {
                t.rows()
                    .iter()
                    .map(|row| format!("{:?} {:?}", row.a, row.b))
                    .collect()
            };
            prop_assert_eq!(
                bits(bundle),
                bits(&alone),
                "lane {} of {}, group of {}, exponents {:?}",
                lane,
                sets.len(),
                group.len(),
                e
            );
        }
    }
    Ok(())
}

/// Blind rotation and key switch, lane for lane, at an exact lane count.
fn assert_rotation_and_switch_match<E: FftEngine>(
    k: &Keys<E>,
    lanes: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kit = k.server.kit();
    let engine = k.server.engine();
    let inputs: Vec<LweCiphertext> = (0..lanes)
        .map(|_| k.client.encrypt_with(rng.gen(), &mut rng))
        .collect();
    let mut scratches: Vec<_> = (0..lanes).map(|_| k.server.make_scratch()).collect();
    for (scratch, input) in scratches.iter_mut().zip(&inputs) {
        scratch.input_mut().copy_from(input);
        scratch
            .test_vector_mut()
            .coeffs_mut()
            .fill(Torus32::from_raw(rng.gen()));
    }
    let testvs: Vec<_> = scratches
        .iter_mut()
        .map(|s| s.test_vector_mut().clone())
        .collect();
    kit.blind_rotate_lockstep_assign(engine, &mut scratches);
    let mut alone = k.server.make_scratch();
    let mut extracted = Vec::new();
    for (lane, (input, testv)) in inputs.iter().zip(&testvs).enumerate() {
        alone.test_vector_mut().copy_from(testv);
        kit.blind_rotate_assign(engine, input, &mut alone);
        prop_assert_eq!(
            scratches[lane].accumulator(),
            alone.accumulator(),
            "lane {} of {}",
            lane,
            lanes
        );
        let mut e = LweCiphertext::trivial(Torus32::ZERO, 1);
        alone.accumulator().sample_extract_into(&mut e);
        extracted.push(e);
    }
    let ksk = kit.key_switch_key();
    let mut switched = vec![LweCiphertext::trivial(Torus32::ZERO, 1); lanes];
    let mut pairs: Vec<_> = extracted.iter().zip(switched.iter_mut()).collect();
    ksk.switch_lockstep_into(&mut pairs);
    for (lane, (c, got)) in extracted.iter().zip(&switched).enumerate() {
        prop_assert_eq!(got, &ksk.switch(c), "key switch lane {} of {}", lane, lanes);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lockstep_chunks_match_one_at_a_time(
        engine in 0usize..3,
        unroll in 1usize..=4,
        bits in any::<u8>(),
        kinds in prop::collection::vec(0u8..3, 1..=MAX_LANES + 1),
        seed in any::<u64>(),
    ) {
        match engine {
            0 => assert_chunk_matches(f64_keys(unroll), bits, &kinds, seed)?,
            1 => assert_chunk_matches(approx_keys(24, unroll), bits, &kinds, seed)?,
            _ => assert_chunk_matches(approx_keys(38, unroll), bits, &kinds, seed)?,
        }
    }

    #[test]
    fn lockstep_bundles_match_single_builds(
        engine in 0usize..3,
        unroll in 1usize..=4,
        modes in prop::collection::vec(0u8..4, 1..=MAX_LANES + 1),
        seed in any::<u64>(),
    ) {
        match engine {
            0 => assert_bundles_match(f64_keys(unroll), &modes, seed)?,
            1 => assert_bundles_match(approx_keys(24, unroll), &modes, seed)?,
            _ => assert_bundles_match(approx_keys(38, unroll), &modes, seed)?,
        }
    }

    #[test]
    fn lockstep_rotation_and_switch_match_single_lanes(
        engine in 0usize..3,
        unroll in 1usize..=4,
        lanes in 1usize..=MAX_LANES + 1,
        seed in any::<u64>(),
    ) {
        match engine {
            0 => assert_rotation_and_switch_match(f64_keys(unroll), lanes, seed)?,
            1 => assert_rotation_and_switch_match(approx_keys(24, unroll), lanes, seed)?,
            _ => assert_rotation_and_switch_match(approx_keys(38, unroll), lanes, seed)?,
        }
    }
}

/// Every engine at every unroll factor, and every lane count from 1 to
/// one past [`MAX_LANES`], deterministically, with chunks mixing all
/// three task kinds and lanes whose bundle patterns vanish differently.
#[test]
fn every_engine_unroll_and_lane_count_matches() {
    let kinds = [0, 1, 2, 0, 1];
    let modes = [0, 1, 2, 3];
    for unroll in 1..=4 {
        let seed = unroll as u64;
        assert_chunk_matches(f64_keys(unroll), 0b0110, &kinds, seed).unwrap();
        assert_bundles_match(f64_keys(unroll), &modes, seed).unwrap();
        for bits in [24, 38] {
            assert_chunk_matches(approx_keys(bits, unroll), 0b1001, &kinds, seed).unwrap();
            assert_bundles_match(approx_keys(bits, unroll), &modes, seed).unwrap();
        }
    }
    for lanes in 1..=MAX_LANES + 1 {
        let kinds: Vec<u8> = (0..lanes).map(|i| (i % 3) as u8).collect();
        let seed = lanes as u64;
        assert_chunk_matches(f64_keys(2), 0b0101, &kinds, seed).unwrap();
        assert_chunk_matches(approx_keys(38, 3), 0b0101, &kinds, seed).unwrap();
        assert_rotation_and_switch_match(approx_keys(24, 4), lanes, seed).unwrap();
    }
}

/// A pool over the m = 2 `F64Fft` key, with an optional fault plan.
fn pool(threads: usize, plan: Option<FaultPlan>) -> GateBatchPool<F64Fft> {
    let server = Arc::new(f64_keys(2).server.clone());
    match plan {
        Some(plan) => GateBatchPool::with_faults(server, threads, Arc::new(plan)),
        None => GateBatchPool::new(server, threads),
    }
}

/// Five binary gates around a mux (7 lanes: one chunk on one worker).
/// Only the mux (task 2) reads slot 3, which holds a wrong-dimension
/// sample when `malformed`.
fn pool_chunk(malformed: bool) -> Vec<SlabTask> {
    let mut rng = StdRng::seed_from_u64(7);
    let client = &f64_keys(2).client;
    let slab = ValueSlab::new(INPUTS + 6);
    for (i, bit) in [true, false, true].into_iter().enumerate() {
        slab.set(i, client.encrypt_with(bit, &mut rng));
    }
    if malformed {
        slab.set(INPUTS - 1, LweCiphertext::trivial(Torus32::ZERO, 3));
    } else {
        slab.set(INPUTS - 1, client.encrypt_with(true, &mut rng));
    }
    let slab = Arc::new(slab);
    let binary = |gate, a, b| GateTask::Binary { gate, a, b };
    [
        binary(Gate::Nand, 0, 1),
        binary(Gate::Xor, 1, 2),
        GateTask::Mux { sel: 0, a: 1, b: 3 },
        binary(Gate::And, 0, 2),
        binary(Gate::Or, 1, 2),
        binary(Gate::Xnor, 0, 1),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, task)| SlabTask {
        slab: Arc::clone(&slab),
        node: INPUTS + i,
        task,
    })
    .collect()
}

fn assert_pool_matches_except(pool: &GateBatchPool<F64Fft>, tasks: &[SlabTask], failed: &[usize]) {
    for (i, st) in tasks.iter().enumerate() {
        if failed.contains(&i) {
            assert!(
                st.slab.try_get(st.node).is_none(),
                "failed task {i} stores nothing"
            );
        } else {
            let want = &one_at_a_time(pool.server(), std::slice::from_ref(st))[0];
            assert_eq!(st.slab.get(st.node), want, "task {i}");
        }
    }
}

#[test]
fn bad_operand_mid_chunk_fails_only_its_task() {
    let tasks = pool_chunk(true);
    let pool = pool(1, None);
    let result = pool.run_tasks(&tasks);
    assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
    assert_eq!(result.failures[0].0, 2);
    assert_eq!(pool.restarts(), 0, "a caught panic is not a death");
    assert_pool_matches_except(&pool, &tasks, &[2]);
}

#[test]
fn injected_panic_mid_chunk_fails_only_its_task() {
    let tasks = pool_chunk(false);
    let plan = FaultPlan::new().inject(0, tasks[3].node, FaultAction::Panic);
    let pool = pool(1, Some(plan));
    let result = pool.run_tasks(&tasks);
    assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
    assert_eq!(result.failures[0].0, 3);
    assert!(result.failures[0].1.contains("injected fault"));
    assert_eq!(pool.restarts(), 0);
    assert_pool_matches_except(&pool, &tasks, &[3]);
}

#[test]
fn injected_delay_mid_chunk_delays_only_its_task() {
    let tasks = pool_chunk(false);
    let delay = Duration::from_millis(60);
    let plan = FaultPlan::new().inject(0, tasks[1].node, FaultAction::Delay(delay));
    let pool = pool(1, Some(plan));
    let t0 = Instant::now();
    let result = pool.run_tasks(&tasks);
    assert!(t0.elapsed() >= delay);
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    assert_eq!(pool.restarts(), 0, "slow is not dead");
    assert_pool_matches_except(&pool, &tasks, &[]);
}

#[test]
fn worker_death_mid_chunk_retries_the_chunk() {
    for threads in [1, 2] {
        let tasks = pool_chunk(false);
        let plan = FaultPlan::new().inject(0, tasks[4].node, FaultAction::KillWorker);
        let pool = pool(threads, Some(plan));
        let result = pool.run_tasks(&tasks);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(
            pool.restarts(),
            1,
            "the dead worker is replaced before the retry"
        );
        assert_pool_matches_except(&pool, &tasks, &[]);
    }
}
