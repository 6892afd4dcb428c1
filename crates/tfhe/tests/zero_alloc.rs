//! The headline property of this optimization: a **warmed** scratch
//! bootstrap performs zero heap allocations. Measured directly with a
//! counting global allocator (this integration test is its own binary, so
//! the allocator hook is isolated from the rest of the suite).

use matcha_fft::{ApproxIntFft, F64Fft, FftEngine, Radix4Fft};
use matcha_math::{GadgetDecomposer, Torus32, TorusPolynomial, TorusSampler};
use matcha_tfhe::{
    BootstrapKit, ClientKey, EpScratch, Gate, ParameterSet, RingSecretKey, ServerKey,
    TgswCiphertext, TrlweCiphertext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation **per thread**, so
/// the measured windows below stay correct when libtest runs the other
/// tests of this binary concurrently (their allocations land on their own
/// threads' counters).
struct CountingAlloc;

thread_local! {
    // const-initialized: accessing it inside the allocator cannot itself
    // allocate (no lazy TLS initialization).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by the calling thread so far.
fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

/// The fused decompose→twist external product stays allocation-free once
/// its scratch is warmed, on any engine.
fn assert_zero_alloc_external_product<E: FftEngine>(engine: &E, seed: u64) {
    let p = ParameterSet {
        ring_degree: 256,
        ..ParameterSet::TEST_FAST
    };
    let mut sampler = TorusSampler::new(StdRng::seed_from_u64(seed));
    let key = RingSecretKey::generate(p.ring_degree, &mut sampler);
    let decomp = GadgetDecomposer::new(p.decomp_base_log, p.decomp_levels);
    let tgsw =
        TgswCiphertext::encrypt_constant(1, &key, &p, engine, &mut sampler).to_spectrum(engine);
    let mu = TorusPolynomial::constant(Torus32::from_f64(0.25), p.ring_degree);
    let mut acc = TrlweCiphertext::encrypt(&mu, &key, p.ring_noise_stdev, engine, &mut sampler);

    let mut scratch = EpScratch::new(engine, &p);
    // Warm-up: sizes every buffer in the scratch.
    tgsw.external_product_assign(engine, &mut acc, &decomp, &mut scratch);
    tgsw.external_product_assign(engine, &mut acc, &decomp, &mut scratch);

    let before = allocations();
    for _ in 0..4 {
        tgsw.external_product_assign(engine, &mut acc, &decomp, &mut scratch);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warmed external product allocated {delta} times");
}

#[test]
fn warmed_external_product_allocates_nothing() {
    assert_zero_alloc_external_product(&F64Fft::new(256), 7);
}

#[test]
fn warmed_external_product_allocates_nothing_radix4() {
    assert_zero_alloc_external_product(&Radix4Fft::new(256), 8);
}

#[test]
fn warmed_external_product_allocates_nothing_with_simd_forced() {
    // The AVX2+FMA kernel leg must stay allocation-free too: the runtime
    // dispatch is a cached atomic load, and the split-complex spectra reuse
    // the same warmed buffers as the scalar leg. Forcing SIMD on is a no-op
    // on CPUs without it (the kernels fall back to scalar), so this test is
    // meaningful exactly where the vector leg actually runs. The override is
    // process-global but both legs are allocation-free with identical buffer
    // sizes, so concurrently running tests in this binary are unaffected; a
    // drop guard restores auto mode even if an assertion fails.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            matcha_fft::force_simd(None);
        }
    }
    let _restore = Restore;
    matcha_fft::force_simd(Some(true));
    assert_zero_alloc_external_product(&F64Fft::new(256), 9);
    assert_zero_alloc_external_product(&Radix4Fft::new(256), 10);
}

#[test]
fn streaming_error_db_allocates_nothing() {
    // `stats::error_db` sits inside noise-measurement loops; it must not
    // allocate a difference vector per call.
    let reference: Vec<f64> = (0..1024).map(|i| (i as f64).sin()).collect();
    let approx: Vec<f64> = reference.iter().map(|x| x + 1e-9).collect();
    let _warm = matcha_math::stats::error_db(&reference, &approx);
    let before = allocations();
    let db = matcha_math::stats::error_db(&reference, &approx);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "error_db allocated {delta} times");
    assert!(
        db < -150.0,
        "1e-9 error on O(1) signal is ≈ -180 dB, got {db}"
    );
}

fn assert_zero_alloc_bootstrap<E>(engine: &E, unroll: usize, seed: u64)
where
    E: matcha_fft::FftEngine,
{
    assert_zero_alloc_bootstrap_at(engine, ParameterSet::TEST_FAST, unroll, seed);
}

fn assert_zero_alloc_bootstrap_at<E>(engine: &E, params: ParameterSet, unroll: usize, seed: u64)
where
    E: matcha_fft::FftEngine,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let client = ClientKey::generate(params, &mut rng);
    let kit = BootstrapKit::generate(&client, engine, unroll, &mut rng);
    let mu = Torus32::from_f64(0.125);
    let c = client.encrypt_with(true, &mut rng);
    let mut out = matcha_tfhe::LweCiphertext::trivial(Torus32::ZERO, 1);
    let mut scratch = kit.make_scratch(engine);

    // Warm-up: two full bootstraps size every buffer.
    kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);
    kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);

    let before = allocations();
    kit.bootstrap_into(engine, &c, mu, &mut out, &mut scratch);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warmed bootstrap (unroll={unroll}) allocated {delta} times"
    );
    assert!(client.decrypt(&out), "bootstrap still decrypts");
}

#[test]
fn warmed_bootstrap_allocates_nothing_f64_m1() {
    assert_zero_alloc_bootstrap(&F64Fft::new(256), 1, 71);
}

#[test]
fn warmed_bootstrap_allocates_nothing_f64_m3() {
    assert_zero_alloc_bootstrap(&F64Fft::new(256), 3, 73);
}

#[test]
fn warmed_bootstrap_allocates_nothing_approx_m2() {
    assert_zero_alloc_bootstrap(&ApproxIntFft::new(256, 45), 2, 75);
}

/// The paper's engine at the paper's size (N = 1024, 38-bit twiddles, MATCHA
/// parameters), on whichever kernel leg is active: the AVX-512F folds,
/// bit-reversing backward copy and factor tables must reuse their buffers
/// like the scalar leg does.
#[test]
fn warmed_bootstrap_allocates_nothing_approx_paper_size() {
    assert_zero_alloc_bootstrap_at(&ApproxIntFft::new(1024, 38), ParameterSet::MATCHA, 2, 77);
}

#[test]
fn warmed_heterogeneous_tasks_allocate_nothing() {
    // The pool's worker inner loop is the by-index `GateTask::apply_into`:
    // a warmed scratch must make every task kind — binary gate, free NOT,
    // and the two-bootstrap MUX — allocation-free, operands *borrowed*
    // from the shared value slab rather than cloned into the task, so the
    // heterogeneous interleaved circuit waves keep the zero-alloc
    // property of the homogeneous batch path.
    use matcha_tfhe::{GateTask, ValueSlab};
    let mut rng = StdRng::seed_from_u64(79);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let server = ServerKey::with_unrolling(&client, F64Fft::new(256), 2, &mut rng);
    // Slot 0 holds `true`, slot 1 holds `false`; the tasks reference the
    // operands purely by index.
    let slab = ValueSlab::new(2);
    slab.set(0, client.encrypt_with(true, &mut rng));
    slab.set(1, client.encrypt_with(false, &mut rng));
    let tasks = [
        GateTask::Binary {
            gate: Gate::Nand,
            a: 0,
            b: 1,
        },
        GateTask::Not { a: 0 },
        GateTask::Mux { sel: 0, a: 1, b: 0 },
    ];
    let mut out = matcha_tfhe::LweCiphertext::trivial(Torus32::ZERO, 1);
    let mut scratch = server.make_scratch();

    // Warm-up: two passes over every task kind size all buffers (the mux
    // warms the second extraction buffer the binary path never touches).
    for _ in 0..2 {
        for task in &tasks {
            task.apply_into(&server, &slab, &mut out, &mut scratch);
        }
    }

    let before = allocations();
    for task in &tasks {
        task.apply_into(&server, &slab, &mut out, &mut scratch);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warmed by-index task batch allocated {delta} times"
    );
    // And the results are still right.
    let expected = [true, false, false];
    for (task, want) in tasks.iter().zip(expected) {
        task.apply_into(&server, &slab, &mut out, &mut scratch);
        assert_eq!(client.decrypt(&out), want);
    }
}

#[test]
fn warmed_full_gate_allocates_only_for_outputs() {
    // The whole gate path (linear part + bootstrap + key switch) through
    // `apply_into` is allocation-free once warmed.
    let mut rng = StdRng::seed_from_u64(77);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let server = ServerKey::with_unrolling(&client, F64Fft::new(256), 2, &mut rng);
    let a = client.encrypt_with(true, &mut rng);
    let b = client.encrypt_with(false, &mut rng);
    let mut out = matcha_tfhe::LweCiphertext::trivial(Torus32::ZERO, 1);
    let mut scratch = server.make_scratch();

    server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);
    server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);

    let before = allocations();
    server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);
    server.apply_into(Gate::Xor, &a, &b, &mut out, &mut scratch);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warmed gate evaluation allocated {delta} times");
}

#[test]
fn warmed_lockstep_chunk_allocates_nothing() {
    // The pool's worker evaluates chunks of tasks in lockstep through a
    // growing set of lane scratches. Once a chunk shape has warmed them —
    // here 4 lanes: binary gate, mux (two lanes), binary gate — the whole
    // chunk (lockstep bundles, blind rotations, mux fold, lockstep key
    // switch) allocates nothing.
    use matcha_tfhe::{GateTask, SlabTask, ValueSlab};
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(80);
    let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
    let server = ServerKey::with_unrolling(&client, F64Fft::new(256), 3, &mut rng);
    let slab = ValueSlab::new(2);
    slab.set(0, client.encrypt_with(true, &mut rng));
    slab.set(1, client.encrypt_with(false, &mut rng));
    let slab = Arc::new(slab);
    let chunk: Vec<SlabTask> = [
        GateTask::Binary {
            gate: Gate::Nand,
            a: 0,
            b: 1,
        },
        GateTask::Mux { sel: 0, a: 1, b: 0 },
        GateTask::Binary {
            gate: Gate::Xor,
            a: 0,
            b: 1,
        },
    ]
    .into_iter()
    .map(|task| SlabTask {
        slab: Arc::clone(&slab),
        node: 0,
        task,
    })
    .collect();
    let mut outs = vec![matcha_tfhe::LweCiphertext::trivial(Torus32::ZERO, 1); chunk.len()];
    let mut lanes = Vec::new();
    for _ in 0..2 {
        SlabTask::apply_lockstep_into(&chunk, &server, &mut outs, &mut lanes);
    }
    assert_eq!(lanes.len(), 4);

    let before = allocations();
    SlabTask::apply_lockstep_into(&chunk, &server, &mut outs, &mut lanes);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warmed 4-lane chunk allocated {delta} times");
    let expected = [true, false, true];
    for (out, want) in outs.iter().zip(expected) {
        assert_eq!(client.decrypt(out), want);
    }
}
