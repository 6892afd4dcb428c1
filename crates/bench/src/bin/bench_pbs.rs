//! Regenerates `BENCH_pbs.json`: external-product and single-gate PBS
//! latencies on the allocating seed path vs. the zero-allocation scratch
//! path, at the paper's parameters — plus, since PR 2, the fused
//! decompose→twist external product against a reconstruction of PR 1's
//! materializing scratch loop (`external_product_fused_vs_scratch/*` rows,
//! where `alloc_ns` holds the PR 1 scratch baseline and `scratch_ns` the
//! fused path, keeping the JSON schema comparable across PRs), and, since
//! PR 3, the AVX2+FMA split-complex kernels against the scalar fallback
//! (`simd_vs_scalar/*` rows: `alloc_ns` = scalar leg, `scratch_ns` = SIMD
//! leg, toggled per sample with `force_simd` so the comparison stays
//! interleaved; on CPUs without AVX2+FMA both sides run scalar and the
//! rows record ~1×), and, since PR 4, whole lowered circuits
//! (`circuit_sched_vs_sequential/*` rows: `alloc_ns` = eager sequential
//! evaluation through the allocating `ServerKey::apply` path,
//! `scratch_ns` = the same netlist wave-scheduled onto the persistent
//! `GateBatchPool` with warmed per-worker scratches; on a single-CPU
//! container the win is scratch reuse — on multicore the waves
//! additionally parallelize), and, since PR 5, cross-circuit
//! interleaving (`circuit_interleaved_vs_solo/*` rows: `alloc_ns` = the
//! PR 4 one-circuit-at-a-time server loop, `scratch_ns` = all circuits
//! submitted up front and interleaved into shared super-waves; the
//! printed structural utilizations — busy task-slots over offered
//! wave-slots — carry the clock-independent comparison), and, since PR 6,
//! admission-control fairness (`adversarial_mix/*` rows: `alloc_ns` = mean
//! light-client completion latency with quotas off while a heavy client
//! floods the pool, `scratch_ns` = the same under `per_client_quota = 1`,
//! with the heavy client's over-quota circuits rejected as
//! `QuotaExceeded`), and, since PR 7, static analysis
//! (`netlist_simplified_vs_raw/*` rows: **bootstrap counts, not
//! nanoseconds** — `alloc_ns` = bootstraps in the raw lowering,
//! `scratch_ns` = bootstraps after `matcha::tfhe::simplify`, so `speedup`
//! is the gate-count ratio the rewriter buys before a single ciphertext
//! is touched; and the `netlist_analyze_vs_one_bootstrap/adder8` row:
//! `alloc_ns` = one warmed NAND bootstrap reused from this run's
//! `nand/f64_m2` row, `scratch_ns` = a full `analyze()` pass over the
//! adder8 netlist, putting the analyzer's overhead in units of the work
//! it certifies). Since PR 8 the word-level library is lowered too, so
//! `circuit_sched_vs_sequential/*` gains the 8×8 schoolbook multiplier
//! (`mul8`, the widest DAG the scheduler serves) and one full
//! encrypted-CPU cycle (`processor_cycle8`), and the
//! `netlist_simplified_vs_raw/*` family picks up every new library entry
//! (`mul8`, `mul_low8`, `alu8`, `popcount16`, `shifter8`,
//! `processor_cycle8`) — the fold-built lowerings record 1.0× there by
//! design (the builder already skipped what the simplifier would fold),
//! while the ALU-shaped rows record the CSE + constant-carry savings.
//! Since PR 9 the wire-session layer adds `packed_vs_lwe_upload/MATCHA`
//! (**bytes per bit on the wire**, per-LWE vs packed-TRLWE upload, from
//! real codec encodings) and `packed_unpack_cost/MATCHA_f64` (server-side
//! sample-extract + key-switch per packed bit, allocating vs warmed). And
//! since PR 10, formal verification: the `netlist_equiv_cost/*` rows
//! (`adder8`, `mul8`, `processor_cycle8`) price a full BDD equivalence
//! proof of raw-vs-simplified — `alloc_ns` = wall-clock nanoseconds for
//! the whole proof, `scratch_ns` = **peak BDD node count** (the space
//! axis of the same check, against the default 2^20-node budget), so
//! `speedup` is meaningless there and the two columns are read
//! side by side.
//!
//! The lockstep rows (`bku_lockstep/f64_m3_l{1,4,8}`,
//! `keyswitch_lockstep/l{1,4,8}`) are typed: `alloc_ns` is one lane
//! alone and `scratch_ns` is `L` lanes in lockstep, both in nanoseconds
//! **per lane**, and each row carries its unit, sample count and host
//! (`cpu`, `nproc`, `simd`).
//!
//! The `approx_kernels/*_{scalar,avx512}` rows are typed too: one
//! `ApproxIntFft` kernel (N = 1024, β = 38) on one leg, in nanoseconds per
//! call, with `min`/`median`/`p90` over `samples` interleaved samples and
//! the host (`value` is the median).
//!
//! Run with:
//! `cargo run --release -p matcha-bench --bin bench_pbs` (every row),
//! `cargo run --release -p matcha-bench --bin bench_pbs -- lockstep` to
//! re-measure only the lockstep rows, or
//! `cargo run --release -p matcha-bench --bin bench_pbs -- approx` to
//! re-measure only the `approx_kernels/*` rows and `nand/approx38_m2`;
//! both subcommands merge their rows into the existing `BENCH_pbs.json`.

use matcha::fft::{force_simd, simd_detected, ApproxIntFft, F64Fft, Radix4Fft};
use matcha::tfhe::bku::BundleLane;
use matcha::tfhe::{EpScratch, Gate, RingSecretKey, TgswCiphertext, TgswSpectrum, TrlweCiphertext};
use matcha::{ClientKey, FftEngine, LweCiphertext, ParameterSet, ServerKey, Torus32};
use matcha_math::{GadgetDecomposer, IntPolynomial, TorusPolynomial, TorusSampler};
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Median of `samples` timed runs of `f`, in nanoseconds per call.
fn measure<F: FnMut()>(samples: usize, iters: u32, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Paired comparison of two variants of the same kernel: samples are taken
/// *interleaved* (A, B, A, B, …) so slow drift on a shared/1-CPU container
/// hits both variants equally instead of biasing whichever ran second, and
/// each side reports its per-sample minimum — the standard noise-robust
/// estimator of a deterministic kernel's true cost, since external
/// contention only ever adds time. Returns `(a_ns, b_ns)`.
fn measure_paired<A: FnMut(), B: FnMut()>(
    samples: usize,
    iters: u32,
    mut a: A,
    mut b: B,
) -> (f64, f64) {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            a();
        }
        best_a = best_a.min(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
        let t0 = Instant::now();
        for _ in 0..iters {
            b();
        }
        best_b = best_b.min(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    (best_a, best_b)
}

struct Row {
    id: String,
    alloc_ns: f64,
    scratch_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.alloc_ns / self.scratch_ns
    }

    fn json(&self) -> String {
        format!(
            "{{\"id\": \"{}\", \"alloc_ns\": {:.1}, \"scratch_ns\": {:.1}, \"speedup\": {:.3}}}",
            self.id,
            self.alloc_ns,
            self.scratch_ns,
            self.speedup()
        )
    }
}

fn bench_external_product<E: FftEngine>(name: &str, engine: &E, params: ParameterSet) -> Row {
    let mut sampler = TorusSampler::new(rand::rngs::StdRng::seed_from_u64(5));
    let key = RingSecretKey::generate(params.ring_degree, &mut sampler);
    let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
    let tgsw = TgswCiphertext::encrypt_constant(1, &key, &params, engine, &mut sampler)
        .to_spectrum(engine);
    let mu = TorusPolynomial::constant(Torus32::from_dyadic(1, 3), params.ring_degree);
    let acc = TrlweCiphertext::encrypt(&mu, &key, params.ring_noise_stdev, engine, &mut sampler);

    let alloc_ns = measure(15, 20, || {
        std::hint::black_box(tgsw.external_product(engine, &acc, &decomp));
    });

    let mut scratch = EpScratch::new(engine, &params);
    let mut inplace = acc.clone();
    tgsw.external_product_assign(engine, &mut inplace, &decomp, &mut scratch);
    let scratch_ns = measure(15, 20, || {
        tgsw.external_product_assign(engine, &mut inplace, &decomp, &mut scratch);
        std::hint::black_box(&inplace);
    });

    Row {
        id: format!("external_product/{name}"),
        alloc_ns,
        scratch_ns,
    }
}

/// PR 1's scratch external product, reconstructed from the public engine
/// API: materialize all `2ℓ` digit polynomials, then transform each with
/// `forward_int_into`. This is the baseline the fused decompose→twist path
/// replaces, kept here so `BENCH_pbs.json` can track fused-vs-PR1 numbers.
#[allow(clippy::too_many_arguments)]
fn pr1_scratch_external_product<E: FftEngine>(
    engine: &E,
    tgsw: &TgswSpectrum<E>,
    c: &mut TrlweCiphertext,
    decomp: &GadgetDecomposer,
    digits: &mut [IntPolynomial],
    fd: &mut E::Spectrum,
    acc_a: &mut E::Spectrum,
    acc_b: &mut E::Spectrum,
    es: &mut E::Scratch,
) {
    let levels = decomp.levels();
    {
        let (mask_digits, body_digits) = digits.split_at_mut(levels);
        decomp.decompose_poly_into(c.mask(), mask_digits);
        decomp.decompose_poly_into(c.body(), body_digits);
    }
    engine.clear_spectrum(acc_a);
    engine.clear_spectrum(acc_b);
    for (j, digit) in digits.iter().enumerate() {
        engine.forward_int_into(digit, fd, es);
        let row = &tgsw.rows()[j];
        engine.mul_accumulate_pair(acc_a, acc_b, fd, &row.a, &row.b);
    }
    let (mask, body) = c.parts_mut();
    engine.backward_torus_into(acc_a, mask, es);
    engine.backward_torus_into(acc_b, body, es);
}

/// Fused decompose→twist external product vs. PR 1's materializing scratch
/// loop, on a bundled TGSW built at unroll factor `m` (the operand blind
/// rotation actually feeds the external product at the paper's parameters).
/// `alloc_ns` carries the PR 1 baseline, `scratch_ns` the fused path.
fn bench_fused_external_product<E: FftEngine>(name: &str, engine: &E, unroll: usize) -> Row {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let kit = matcha::tfhe::BootstrapKit::generate(&client, engine, unroll, &mut rng);
    let params = *kit.params();
    let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
    let bk = kit.bootstrapping_key();
    let group = &bk.groups()[0];
    let exponents: Vec<u32> = (0..group.len()).map(|i| (13 + 29 * i) as u32).collect();
    let bundle = bk.build_bundle(engine, group, &exponents, params.two_n());
    let mut sampler = TorusSampler::new(rand::rngs::StdRng::seed_from_u64(22));
    let mu = TorusPolynomial::constant(Torus32::from_dyadic(1, 3), params.ring_degree);
    let acc = TrlweCiphertext::encrypt(
        &mu,
        client.ring_key(),
        params.ring_noise_stdev,
        engine,
        &mut sampler,
    );

    // PR 1 baseline with its own pre-sized buffers, warmed like EpScratch.
    let mut digits: Vec<IntPolynomial> = (0..2 * params.decomp_levels)
        .map(|_| IntPolynomial::zero(params.ring_degree))
        .collect();
    let mut fd = engine.zero_spectrum();
    let mut acc_a = engine.zero_spectrum();
    let mut acc_b = engine.zero_spectrum();
    let mut es = engine.make_scratch();
    let mut c1 = acc.clone();
    pr1_scratch_external_product(
        engine,
        &bundle,
        &mut c1,
        &decomp,
        &mut digits,
        &mut fd,
        &mut acc_a,
        &mut acc_b,
        &mut es,
    );
    let mut scratch = EpScratch::new(engine, &params);
    let mut c2 = acc.clone();
    bundle.external_product_assign(engine, &mut c2, &decomp, &mut scratch);

    // The fused win is a single-digit percentage, so the two paths are
    // sampled interleaved: container-level drift cancels instead of
    // landing on whichever variant happened to run second.
    let (pr1_ns, fused_ns) = measure_paired(
        21,
        20,
        || {
            pr1_scratch_external_product(
                engine,
                &bundle,
                &mut c1,
                &decomp,
                &mut digits,
                &mut fd,
                &mut acc_a,
                &mut acc_b,
                &mut es,
            );
            std::hint::black_box(&c1);
        },
        || {
            bundle.external_product_assign(engine, &mut c2, &decomp, &mut scratch);
            std::hint::black_box(&c2);
        },
    );

    Row {
        id: format!("external_product_fused_vs_scratch/{name}"),
        alloc_ns: pr1_ns,
        scratch_ns: fused_ns,
    }
}

/// One blind-rotation step (bundle build + external product) — the unit of
/// work MATCHA's pipelines execute per key group (Figure 6a), and where the
/// scratch path's factor-table hoisting pays off.
fn bench_blind_rotate_step<E: FftEngine>(name: &str, engine: &E, unroll: usize) -> Row {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let kit = matcha::tfhe::BootstrapKit::generate(&client, engine, unroll, &mut rng);
    let params = *kit.params();
    let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
    let two_n = params.two_n();
    let bk = kit.bootstrapping_key();
    let group = &bk.groups()[0];
    let exponents: Vec<u32> = (0..group.len()).map(|i| (17 + 31 * i) as u32).collect();
    let mut sampler = TorusSampler::new(rand::rngs::StdRng::seed_from_u64(14));
    let mu = TorusPolynomial::constant(Torus32::from_dyadic(1, 3), params.ring_degree);
    let acc = TrlweCiphertext::encrypt(
        &mu,
        client.ring_key(),
        params.ring_noise_stdev,
        engine,
        &mut sampler,
    );

    let alloc_ns = measure(15, 10, || {
        let bundle = bk.build_bundle(engine, group, &exponents, two_n);
        std::hint::black_box(bundle.external_product(engine, &acc, &decomp));
    });

    let mut scratch = kit.make_scratch(engine);
    let mut inplace = acc.clone();
    scratch.test_vector_mut().copy_from(&mu);
    let scratch_ns = {
        // Drive the same step through the scratch plumbing.
        let c = client.encrypt_with(true, &mut rng);
        kit.blind_rotate_assign(engine, &c, &mut scratch); // warm every buffer
        let groups_per_rotation = bk.groups().len() as f64;
        let total = measure(15, 2, || {
            kit.blind_rotate_assign(engine, &c, &mut scratch);
            std::hint::black_box(scratch.accumulator());
        });
        let _ = &mut inplace;
        total / groups_per_rotation
    };

    Row {
        id: format!("blind_rotate_step/{name}"),
        alloc_ns,
        scratch_ns,
    }
}

/// Bare forward transform, SIMD leg vs scalar leg of the same engine.
/// Interleaved paired sampling with the per-sample `force_simd` toggle;
/// each side keeps its own warmed output/scratch so toggling cannot
/// perturb buffer sizing.
fn bench_simd_forward<E: FftEngine>(name: &str, engine: &E) -> Row {
    let n = engine.ring_degree();
    let p = TorusPolynomial::from_coeffs(
        (0..n as u32)
            .map(|i| Torus32::from_raw(i.wrapping_mul(0x9e37_79b9).wrapping_add(3)))
            .collect(),
    );
    let mut out_s = engine.zero_spectrum();
    let mut scratch_s = engine.make_scratch();
    let mut out_v = engine.zero_spectrum();
    let mut scratch_v = engine.make_scratch();
    force_simd(Some(false));
    engine.forward_torus_into(&p, &mut out_s, &mut scratch_s);
    force_simd(Some(true));
    engine.forward_torus_into(&p, &mut out_v, &mut scratch_v);
    let (scalar_ns, simd_ns) = measure_paired(
        21,
        100,
        || {
            force_simd(Some(false));
            engine.forward_torus_into(&p, &mut out_s, &mut scratch_s);
            std::hint::black_box(&out_s);
        },
        || {
            force_simd(Some(true));
            engine.forward_torus_into(&p, &mut out_v, &mut scratch_v);
            std::hint::black_box(&out_v);
        },
    );
    force_simd(None);
    Row {
        id: format!("simd_vs_scalar/forward_{name}"),
        alloc_ns: scalar_ns,
        scratch_ns: simd_ns,
    }
}

/// Fused external product on an unrolled bundle, SIMD leg vs scalar leg —
/// the end-to-end kernel the ROADMAP's "SIMD butterflies" item targets.
fn bench_simd_external_product<E: FftEngine>(name: &str, engine: &E, unroll: usize) -> Row {
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let kit = matcha::tfhe::BootstrapKit::generate(&client, engine, unroll, &mut rng);
    let params = *kit.params();
    let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
    let bk = kit.bootstrapping_key();
    let group = &bk.groups()[0];
    let exponents: Vec<u32> = (0..group.len()).map(|i| (11 + 23 * i) as u32).collect();
    let bundle = bk.build_bundle(engine, group, &exponents, params.two_n());
    let mut sampler = TorusSampler::new(rand::rngs::StdRng::seed_from_u64(34));
    let mu = TorusPolynomial::constant(Torus32::from_dyadic(1, 3), params.ring_degree);
    let acc = TrlweCiphertext::encrypt(
        &mu,
        client.ring_key(),
        params.ring_noise_stdev,
        engine,
        &mut sampler,
    );

    let mut scratch_s = EpScratch::new(engine, &params);
    let mut c_s = acc.clone();
    let mut scratch_v = EpScratch::new(engine, &params);
    let mut c_v = acc.clone();
    force_simd(Some(false));
    bundle.external_product_assign(engine, &mut c_s, &decomp, &mut scratch_s);
    force_simd(Some(true));
    bundle.external_product_assign(engine, &mut c_v, &decomp, &mut scratch_v);
    let (scalar_ns, simd_ns) = measure_paired(
        21,
        20,
        || {
            force_simd(Some(false));
            bundle.external_product_assign(engine, &mut c_s, &decomp, &mut scratch_s);
            std::hint::black_box(&c_s);
        },
        || {
            force_simd(Some(true));
            bundle.external_product_assign(engine, &mut c_v, &decomp, &mut scratch_v);
            std::hint::black_box(&c_v);
        },
    );
    force_simd(None);
    Row {
        id: format!("simd_vs_scalar/external_product_{name}"),
        alloc_ns: scalar_ns,
        scratch_ns: simd_ns,
    }
}

/// Whole lowered circuits, wave-scheduled onto the persistent pool vs.
/// eagerly evaluated gate-by-gate on one thread. `alloc_ns` carries the
/// sequential eager time (allocating `ServerKey::apply` per op, the seed
/// way of running a circuit), `scratch_ns` the scheduled pool time. One
/// shared key/pool across all circuits keeps the dominant cost — MATCHA
/// keygen — paid once. Alongside the measured row, the predicted makespan
/// from `accel::schedule` over the circuit's exported dependency skeleton
/// is printed for the model-vs-measured cross-check.
fn bench_circuit_sched(rows: &mut Vec<Row>) {
    use matcha::circuits::netlist;
    use matcha::tfhe::GateBatchPool;
    use std::sync::Arc;

    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server = Arc::new(ServerKey::with_unrolling(
        &client,
        F64Fft::new(1024),
        2,
        &mut rng,
    ));
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pool = GateBatchPool::new(Arc::clone(&server), threads);
    let circuits = [
        ("adder8", netlist::ripple_adder(8)),
        ("comparator8", netlist::eq_comparator(8)),
        ("mux4x4", netlist::mux_tree(2, 4)),
        // The PR 8 word-level lowerings: the widest DAG the scheduler
        // serves (8×8 schoolbook multiply) and one full encrypted-CPU
        // cycle (register file + encrypted opcode in, register file out).
        ("mul8", netlist::mul(8)),
        (
            "processor_cycle8",
            netlist::processor_cycle(
                2,
                8,
                netlist::CycleInstruction::Alu {
                    dst: 0,
                    src1: 0,
                    src2: 1,
                },
            ),
        ),
    ];
    for (name, net) in circuits {
        let inputs: Vec<_> = (0..net.num_inputs())
            .map(|i| client.encrypt_with(i % 3 == 0, &mut rng))
            .collect();
        // Warm both paths (pool worker scratches size themselves here).
        let warm = net.execute(&pool, &inputs);
        let _ = net.execute_sequential(server.as_ref(), &inputs);
        let (seq_ns, sched_ns) = measure_paired(
            3,
            1,
            || {
                std::hint::black_box(net.execute_sequential(server.as_ref(), &inputs));
            },
            || {
                std::hint::black_box(net.execute(&pool, &inputs));
            },
        );
        // Model cross-check. The per-gate latency is *derived from* the
        // measurement, so at 1 pipeline predicted == measured by
        // construction; the informative comparisons are (a) the measured
        // wave count against the model's critical path and (b) the
        // predicted headroom at the paper's 8 pipelines.
        let skeleton = matcha::accel::schedule::Netlist::from_deps(&net.schedule_skeleton());
        let gate_latency_s = sched_ns / 1e9 / net.bootstraps() as f64;
        let at8 = matcha::accel::schedule::schedule(&skeleton, 8, gate_latency_s);
        println!(
            "circuit {name}: {} bootstraps in {} waves on {threads} thread(s), \
             measured {:.0} ms; model critical path {} units; at 8 pipelines \
             the model predicts {:.0} ms ({:.0}% utilization)",
            net.bootstraps(),
            warm.waves,
            sched_ns / 1e6,
            at8.critical_path,
            at8.makespan_s * 1e3,
            at8.utilization * 100.0,
        );
        rows.push(Row {
            id: format!("circuit_sched_vs_sequential/{name}"),
            alloc_ns: seq_ns,
            scratch_ns: sched_ns,
        });
    }
}

/// Cross-circuit interleaving vs. the PR 4 one-circuit-at-a-time server
/// loop, on a 2-adder8 + 2-comparator8 mix over 2 pool workers.
/// `alloc_ns` carries the solo baseline (submit → wait, one circuit
/// occupying the pool at a time, exactly what PR 4's scheduler did),
/// `scratch_ns` the interleaved run (all circuits submitted up front, the
/// scheduler filling every dispatch from all in-flight frontiers). The
/// structural utilizations — busy task-slots over offered wave-slots, the
/// clock-noise-free measure — are printed alongside; on a single-CPU
/// container the wall-clock win is bounded by the shared core, while the
/// utilization gap shows what a real multi-worker host reclaims.
fn bench_circuit_interleaved(rows: &mut Vec<Row>) {
    use matcha::circuits::{netlist, word};
    use matcha::tfhe::{CircuitNetlist, CircuitServer, PendingCircuit};
    use matcha::LweCiphertext;
    use std::sync::Arc;

    let mut rng = rand::rngs::StdRng::seed_from_u64(51);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server_key = Arc::new(ServerKey::with_unrolling(
        &client,
        F64Fft::new(1024),
        2,
        &mut rng,
    ));
    let threads = 2;
    let server = CircuitServer::start(Arc::clone(&server_key), threads);
    let handle = server.client();
    let make_jobs = |rng: &mut rand::rngs::StdRng| {
        let mut jobs: Vec<(CircuitNetlist, Vec<LweCiphertext>)> = Vec::new();
        for (x, y) in [(173u64, 91u64), (4, 250)] {
            let a = word::encrypt(&client, x, 8, rng);
            let b = word::encrypt(&client, y, 8, rng);
            jobs.push((netlist::ripple_adder(8), a.into_iter().chain(b).collect()));
        }
        for (x, y) in [(200u64, 200u64), (17, 18)] {
            let a = word::encrypt(&client, x, 8, rng);
            let b = word::encrypt(&client, y, 8, rng);
            jobs.push((netlist::eq_comparator(8), a.into_iter().chain(b).collect()));
        }
        jobs
    };
    // A short chain barrier occupies the scheduler for a couple of
    // dispatches (two bootstraps ≈ tens of ms at paper parameters) while
    // the real circuits queue up, so they are all admitted into the same
    // super-wave and stay aligned even on a loaded host.
    let barrier = |rng: &mut rand::rngs::StdRng| {
        let mut net = CircuitNetlist::new();
        let (a, b, c) = (net.input(), net.input(), net.input());
        let g = net.gate(Gate::Or, a, b);
        let h = net.gate(Gate::Xor, g, c);
        net.mark_output(h);
        handle.submit(
            net,
            vec![
                client.encrypt_with(false, rng),
                client.encrypt_with(true, rng),
                client.encrypt_with(false, rng),
            ],
        )
    };

    // Warm the pool scratches once so neither phase pays first-touch
    // allocation costs.
    for (net, inputs) in make_jobs(&mut rng) {
        assert!(handle.submit(net, inputs).wait().is_completed());
    }

    let mut solo_ns = f64::INFINITY;
    let mut inter_ns = f64::INFINITY;
    // Utilization is computed from the counter deltas *summed over both
    // iterations* of each leg, so the reported number describes the same
    // runs the assert judges — not just whichever iteration came last.
    let (mut solo_tasks, mut solo_slots) = (0u64, 0u64);
    let (mut inter_tasks, mut inter_slots) = (0u64, 0u64);
    for _ in 0..2 {
        // Interleaved paired sampling, solo leg first.
        let before = server.stats();
        let t0 = Instant::now();
        for (net, inputs) in make_jobs(&mut rng) {
            assert!(handle.submit(net, inputs).wait().is_completed());
        }
        solo_ns = solo_ns.min(t0.elapsed().as_secs_f64() * 1e9);
        let mid = server.stats();
        let solo_delta = mid.since(&before);
        solo_tasks += solo_delta.tasks;
        solo_slots += solo_delta.slots;

        let t0 = Instant::now();
        let gate = barrier(&mut rng);
        let tickets: Vec<PendingCircuit> = make_jobs(&mut rng)
            .into_iter()
            .map(|(net, inputs)| handle.submit(net, inputs))
            .collect();
        assert!(gate.wait().is_completed());
        for ticket in tickets {
            assert!(ticket.wait().is_completed());
        }
        inter_ns = inter_ns.min(t0.elapsed().as_secs_f64() * 1e9);
        let inter_delta = server.stats().since(&mid);
        inter_tasks += inter_delta.tasks;
        inter_slots += inter_delta.slots;
    }
    let solo_util = solo_tasks as f64 / solo_slots as f64;
    let inter_util = inter_tasks as f64 / inter_slots as f64;
    let stats = server.stats();
    println!(
        "circuit interleaving (2×adder8 + 2×comparator8, {threads} workers): \
         solo {:.0} ms at {:.1}% utilization vs interleaved {:.0} ms at {:.1}% \
         (max {} circuits in flight; on one CPU the wall-clock win is bounded \
         by the shared core — the utilization gap is the structural gain)",
        solo_ns / 1e6,
        solo_util * 100.0,
        inter_ns / 1e6,
        inter_util * 100.0,
        stats.max_in_flight,
    );
    assert!(
        inter_util > solo_util,
        "interleaving must beat the solo baseline structurally"
    );
    rows.push(Row {
        id: "circuit_interleaved_vs_solo/adder8x2_comparator8x2".into(),
        alloc_ns: solo_ns,
        scratch_ns: inter_ns,
    });
    server.shutdown();
}

/// Admission-control fairness under an adversarial mix: one heavy client
/// floods the 2-worker pool with 8-bit adders while four light clients
/// each want a single gate. `alloc_ns` carries the mean light-client
/// completion latency with quotas off (the heavy circuits monopolize the
/// super-waves, so every light gate queues behind dozens of adder tasks),
/// `scratch_ns` the same with `per_client_quota = 1` (the heavy client
/// keeps one circuit in flight and the surplus is rejected with a
/// structured `QuotaExceeded`, so the light gates land in small waves).
/// The heavy completed/rejected counts are printed so the trade is
/// explicit: the latency win is bought by refusing over-quota work.
fn bench_adversarial_mix(rows: &mut Vec<Row>) {
    use matcha::circuits::{netlist, word};
    use matcha::tfhe::{CircuitNetlist, CircuitServer, RejectReason, ServerConfig};
    use matcha::LweCiphertext;
    use std::sync::Arc;

    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server_key = Arc::new(ServerKey::with_unrolling(
        &client,
        F64Fft::new(1024),
        2,
        &mut rng,
    ));
    let threads = 2;
    const HEAVY: usize = 4;
    const LIGHT: usize = 4;

    let light_net = || {
        let mut net = CircuitNetlist::new();
        let (a, b) = (net.input(), net.input());
        let g = net.gate(Gate::Xor, a, b);
        net.mark_output(g);
        net
    };

    // One leg: start a fresh server under `config`, flood it from the
    // heavy client, then submit the light gates and measure their mean
    // completion latency (clock started at the first light submit; each
    // ticket's latency is read when its `wait` returns, in submit order).
    let run_leg = |config: ServerConfig, rng: &mut rand::rngs::StdRng| -> (f64, u64, u64) {
        let server = CircuitServer::start_with(Arc::clone(&server_key), threads, config);
        let heavy = server.client();
        // Warm the worker scratches so neither leg pays first-touch costs.
        {
            let a = word::encrypt(&client, 1, 8, rng);
            let b = word::encrypt(&client, 2, 8, rng);
            let inputs: Vec<LweCiphertext> = a.into_iter().chain(b).collect();
            let warm = heavy.submit(netlist::ripple_adder(8), inputs).wait();
            assert!(warm.is_completed());
        }
        let heavy_tickets: Vec<_> = (0..HEAVY)
            .map(|i| {
                let a = word::encrypt(&client, 100 + i as u64, 8, rng);
                let b = word::encrypt(&client, 31 * i as u64, 8, rng);
                heavy.submit(netlist::ripple_adder(8), a.into_iter().chain(b).collect())
            })
            .collect();
        let light_started = Instant::now();
        let light_tickets: Vec<_> = (0..LIGHT)
            .map(|_| {
                let inputs = vec![
                    client.encrypt_with(true, rng),
                    client.encrypt_with(false, rng),
                ];
                server.client().submit(light_net(), inputs)
            })
            .collect();
        let mut light_total_ns = 0.0;
        for ticket in light_tickets {
            let outcome = ticket.wait();
            assert!(
                outcome.is_completed(),
                "light gates are within quota and must complete: {outcome:?}"
            );
            light_total_ns += light_started.elapsed().as_secs_f64() * 1e9;
        }
        let (mut done, mut rejected) = (0u64, 0u64);
        for ticket in heavy_tickets {
            let outcome = ticket.wait();
            if outcome.is_completed() {
                done += 1;
            } else {
                assert_eq!(outcome.reject_reason(), Some(RejectReason::QuotaExceeded));
                rejected += 1;
            }
        }
        server.shutdown();
        (light_total_ns / LIGHT as f64, done, rejected)
    };

    let (off_ns, off_done, off_rej) = run_leg(ServerConfig::default(), &mut rng);
    let (on_ns, on_done, on_rej) = run_leg(
        ServerConfig {
            per_client_quota: 1,
            ..ServerConfig::default()
        },
        &mut rng,
    );
    println!(
        "adversarial mix (1 heavy × {HEAVY} adder8 + {LIGHT} light 1-gate clients, \
         {threads} workers): light latency {:.0} ms quota-off ({off_done} heavy done, \
         {off_rej} rejected) vs {:.0} ms quota-on ({on_done} heavy done, {on_rej} \
         rejected with QuotaExceeded) — the fairness win is paid for by refusing \
         the heavy client's over-quota circuits",
        off_ns / 1e6,
        on_ns / 1e6,
    );
    rows.push(Row {
        id: "adversarial_mix/heavy1x4_light4_quota_off_vs_on".into(),
        alloc_ns: off_ns,
        scratch_ns: on_ns,
    });
}

/// Static-analysis rows. The `netlist_simplified_vs_raw/*` rows carry
/// **bootstrap counts, not nanoseconds** (`alloc_ns` = raw lowering,
/// `scratch_ns` = after `simplify`): the interesting quantity is how many
/// gate bootstraps the rewriter removes before any ciphertext work, and a
/// count survives container noise perfectly. The
/// `netlist_analyze_vs_one_bootstrap/adder8` row compares a full
/// `analyze()` pass (lints + noise certificates + cost ranks, in
/// `scratch_ns`) against one warmed NAND bootstrap reused from this run's
/// `nand/f64_m2` row (`alloc_ns`) — the analyzer must stay microseconds
/// against the milliseconds of work it certifies, or admission-time
/// verification would not be free.
fn bench_netlist_analysis(rows: &mut Vec<Row>) {
    use matcha::circuits::analysis;
    use matcha::tfhe::analyze::{analyze, simplify};

    for (name, net) in analysis::library() {
        let (_, report) = simplify(&net);
        rows.push(Row {
            id: format!("netlist_simplified_vs_raw/{name}"),
            alloc_ns: report.bootstraps_before as f64,
            scratch_ns: report.bootstraps_after as f64,
        });
    }

    let net = matcha::circuits::netlist::ripple_adder(8);
    let params = ParameterSet::MATCHA;
    let analyze_ns = measure(15, 20, || {
        std::hint::black_box(analyze(&net, &params, 2));
    });
    let nand_ns = rows
        .iter()
        .find(|r| r.id == "nand/f64_m2")
        .expect("nand/f64_m2 row is measured before the analysis rows")
        .scratch_ns;
    println!(
        "netlist analysis: full adder8 certificate in {:.1} µs vs {:.2} ms \
         for one NAND bootstrap ({:.0}× cheaper than a single gate of the \
         {} it certifies)",
        analyze_ns / 1e3,
        nand_ns / 1e6,
        nand_ns / analyze_ns,
        net.bootstraps(),
    );
    rows.push(Row {
        id: "netlist_analyze_vs_one_bootstrap/adder8".into(),
        alloc_ns: nand_ns,
        scratch_ns: analyze_ns,
    });
}

/// Formal-equivalence rows. Each `netlist_equiv_cost/*` row prices one
/// full BDD proof that a library lowering equals its simplified form on
/// every output: `alloc_ns` = wall-clock nanoseconds for the whole check
/// (both compilations plus the verdict), `scratch_ns` = **peak BDD node
/// count**, the space the proof needed under the default 2^20-node
/// budget. Mixed units by design — time tells whether admission-time
/// proving is affordable, nodes tell how much budget headroom the
/// hardest entries leave.
fn bench_netlist_equiv(rows: &mut Vec<Row>) {
    use matcha::circuits::analysis;
    use matcha::tfhe::analyze::equiv::{self, EquivBudget};
    use matcha::tfhe::analyze::simplify;

    let budget = EquivBudget::default();
    for (name, net) in analysis::library() {
        if !matches!(name, "adder8" | "mul8" | "processor_cycle8") {
            continue;
        }
        let (simplified, _) = simplify(&net);
        let report = equiv::check(&net, &simplified, budget);
        assert!(
            report.is_equivalent(),
            "{name}: the shipped simplifier must prove out — {report}"
        );
        let nodes = report.nodes;
        let check_ns = measure(5, 1, || {
            std::hint::black_box(equiv::check(&net, &simplified, budget));
        });
        println!(
            "netlist equiv: {name} proven raw ≡ simplified in {:.2} ms with \
             {nodes} BDD nodes ({:.1}% of the {}-node budget)",
            check_ns / 1e6,
            nodes as f64 / budget.max_nodes as f64 * 100.0,
            budget.max_nodes,
        );
        rows.push(Row {
            id: format!("netlist_equiv_cost/{name}"),
            alloc_ns: check_ns,
            scratch_ns: nodes as f64,
        });
    }
}

/// Packed-transport rows for the wire-session layer.
///
/// `packed_vs_lwe_upload/MATCHA` carries **bytes per bit on the wire,
/// not nanoseconds** (`alloc_ns` = per-LWE upload, `scratch_ns` = packed
/// TRLWE upload at a full `N`-bit payload, both measured from real codec
/// encodings): `(n + 1)` torus words per bit against 2, so the honest
/// ratio at the paper's parameters is `(n + 1) / 2 ≈ 251×` — counts, so
/// the row survives container noise perfectly.
/// `packed_unpack_cost/MATCHA_f64` is the server-side cost of turning one
/// packed bit into a gate-level LWE sample (sample extraction + key
/// switch): `alloc_ns` = the allocating `packing::extract_bit` the
/// admission path calls, `scratch_ns` = the warmed
/// `sample_extract_at_into` + `switch_into` pair — the floor a future
/// scratch-reusing ingest loop would hit.
fn bench_packed_transport(rows: &mut Vec<Row>) {
    use matcha::tfhe::{packing, BootstrapKit, Codec, LweCiphertext};

    let params = ParameterSet::MATCHA;

    // Upload bytes per bit, from actual encodings. A trivial LWE sample
    // and an all-zero TRLWE sample encode exactly like encrypted ones —
    // the codec is dimension-driven.
    let lwe_bytes = LweCiphertext::trivial(Torus32::ZERO, params.lwe_dimension)
        .to_bytes()
        .len();
    let packed_bytes = TrlweCiphertext::zero(params.ring_degree).to_bytes().len();
    let lwe_per_bit = lwe_bytes as f64;
    let packed_per_bit = packed_bytes as f64 / params.ring_degree as f64;
    println!(
        "packed transport: per-LWE {lwe_bytes} B/bit vs packed {:.2} B/bit at a \
         full {}-bit payload — {:.0}× less upload",
        packed_per_bit,
        params.ring_degree,
        lwe_per_bit / packed_per_bit,
    );
    rows.push(Row {
        id: "packed_vs_lwe_upload/MATCHA".into(),
        alloc_ns: lwe_per_bit,
        scratch_ns: packed_per_bit,
    });

    // Server-side unpack cost per bit.
    let mut rng = rand::rngs::StdRng::seed_from_u64(91);
    let client = ClientKey::generate(params, &mut rng);
    let engine = F64Fft::new(params.ring_degree);
    let kit = BootstrapKit::generate(&client, &engine, 2, &mut rng);
    let ksk = kit.key_switch_key();
    let bits: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
    let packed = packing::pack_bits(&client, &bits, &engine, &mut rng);

    let mut extracted = packed.sample_extract_at(0);
    let mut switched = ksk.switch(&extracted);
    let mut i_alloc = 0usize;
    let mut i_warm = 0usize;
    let (alloc_ns, scratch_ns) = measure_paired(
        15,
        20,
        || {
            i_alloc = (i_alloc + 1) % bits.len();
            std::hint::black_box(packing::extract_bit(&packed, i_alloc, ksk, &params));
        },
        || {
            i_warm = (i_warm + 1) % bits.len();
            packed.sample_extract_at_into(i_warm, &mut extracted);
            ksk.switch_into(&extracted, &mut switched);
            std::hint::black_box(&switched);
        },
    );
    println!(
        "packed unpack: {:.1} µs per bit allocating, {:.1} µs warmed \
         (sample extraction + key switch at n = {}, N = {})",
        alloc_ns / 1e3,
        scratch_ns / 1e3,
        params.lwe_dimension,
        params.ring_degree,
    );
    rows.push(Row {
        id: "packed_unpack_cost/MATCHA_f64".into(),
        alloc_ns,
        scratch_ns,
    });
}

fn bench_gate<E: FftEngine>(name: &str, engine: E, unroll: usize) -> Row {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let server = ServerKey::with_unrolling(&client, engine, unroll, &mut rng);
    let a = client.encrypt_with(true, &mut rng);
    let b = client.encrypt_with(false, &mut rng);

    let alloc_ns = measure(7, 3, || {
        std::hint::black_box(server.nand(&a, &b));
    });

    let mut scratch = server.make_scratch();
    let mut out = matcha::LweCiphertext::trivial(Torus32::ZERO, 1);
    server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);
    let scratch_ns = measure(7, 3, || {
        server.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);
        std::hint::black_box(&out);
    });

    Row {
        id: format!("nand/{name}"),
        alloc_ns,
        scratch_ns,
    }
}

/// A lockstep row: the per-lane cost of one lane alone (`alloc_ns`)
/// against `L` lanes in lockstep (`scratch_ns`), both in nanoseconds per
/// lane, each the minimum over `samples` interleaved samples, stamped
/// with the host that measured it.
struct LaneRow {
    id: String,
    one_lane_ns: f64,
    lanes_ns: f64,
    samples: usize,
}

impl LaneRow {
    fn json(&self, host: &str) -> String {
        format!(
            "{{\"id\": \"{}\", \"alloc_ns\": {:.1}, \"scratch_ns\": {:.1}, \"speedup\": {:.3}, \
             \"unit\": \"ns per lane\", \"samples\": {}, \"host\": {host}}}",
            self.id,
            self.one_lane_ns,
            self.lanes_ns,
            self.one_lane_ns / self.lanes_ns,
            self.samples,
        )
    }
}

/// `{"cpu", "nproc", "simd"}` of the measuring host.
fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = if matcha::fft::simd_active() {
        "on"
    } else {
        "off"
    };
    format!("{{\"cpu\": \"{cpu}\", \"nproc\": {nproc}, \"simd\": \"{simd}\"}}")
}

/// One lane of the bundle-streaming bench: a fixed exponent set per key
/// group, and the group currently being built.
struct StreamLane {
    exponents: Vec<Vec<u32>>,
    group: usize,
    bundle: TgswSpectrum<F64Fft>,
    factors: <F64Fft as FftEngine>::MonomialFactors,
}

impl BundleLane<F64Fft> for StreamLane {
    fn bundle_parts(
        &mut self,
    ) -> (
        &[u32],
        &mut TgswSpectrum<F64Fft>,
        &mut <F64Fft as FftEngine>::MonomialFactors,
    ) {
        (
            &self.exponents[self.group],
            &mut self.bundle,
            &mut self.factors,
        )
    }
}

/// Lockstep evidence at m = 3, `F64Fft`, MATCHA parameters, one thread:
///
/// * `bku_lockstep/f64_m3_l{1,4,8}` — the bundle step per lane, streaming
///   **every** key group in turn as a blind rotation does (the whole
///   unrolled key, larger than a typical L3), not one cache-resident
///   group;
/// * `keyswitch_lockstep/l{1,4,8}` — one key switch per lane.
///
/// Each `L`-lane row is sampled interleaved with the one-lane pass.
fn bench_lockstep() -> Vec<LaneRow> {
    const SAMPLES: usize = 15;
    let engine = F64Fft::new(1024);
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
    let kit = matcha::tfhe::BootstrapKit::generate(&client, &engine, 3, &mut rng);
    let two_n = kit.params().two_n();
    let bk = kit.bootstrapping_key();
    let groups = bk.groups();
    let mut lane = || StreamLane {
        exponents: groups
            .iter()
            .map(|g| (0..g.len()).map(|_| rng.gen::<u32>() % two_n).collect())
            .collect(),
        group: 0,
        bundle: groups[0].keys()[0].clone(),
        factors: Default::default(),
    };
    let mut alone = vec![lane()];
    let mut lanes: Vec<StreamLane> = (0..8).map(|_| lane()).collect();
    // Every group in turn, as a blind rotation streams them.
    let stream = |lanes: &mut [StreamLane]| {
        for (g, group) in groups.iter().enumerate() {
            for lane in lanes.iter_mut() {
                lane.group = g;
            }
            bk.build_bundles_into(&engine, group, two_n, lanes);
        }
    };
    let steps = groups.len() as f64;

    let ksk = kit.key_switch_key();
    let sample = |rng: &mut rand::rngs::StdRng| {
        let mask = (0..ksk.from_dimension())
            .map(|_| Torus32::from_raw(rng.gen()))
            .collect();
        LweCiphertext::from_parts(mask, Torus32::from_raw(rng.gen()))
    };
    let source: Vec<LweCiphertext> = (0..9).map(|_| sample(&mut rng)).collect();
    let mut outs = vec![LweCiphertext::trivial(Torus32::ZERO, 1); 9];
    let (first_out, outs) = outs.split_first_mut().expect("nine outputs");
    let mut single = [(&source[0], first_out)];
    let mut pairs: Vec<(&LweCiphertext, &mut LweCiphertext)> =
        source[1..].iter().zip(outs.iter_mut()).collect();

    let mut rows = Vec::new();
    for l in [1, 4, 8] {
        let (one, many) = measure_paired(
            SAMPLES,
            1,
            || stream(&mut alone),
            || stream(&mut lanes[..l]),
        );
        rows.push(LaneRow {
            id: format!("bku_lockstep/f64_m3_l{l}"),
            one_lane_ns: one / steps,
            lanes_ns: many / (steps * l as f64),
            samples: SAMPLES,
        });
    }
    for l in [1, 4, 8] {
        let (one, many) = measure_paired(
            2 * SAMPLES + 1,
            4,
            || ksk.switch_lockstep_into(&mut single),
            || ksk.switch_lockstep_into(&mut pairs[..l]),
        );
        rows.push(LaneRow {
            id: format!("keyswitch_lockstep/l{l}"),
            one_lane_ns: one,
            lanes_ns: many / l as f64,
            samples: 2 * SAMPLES + 1,
        });
    }
    rows
}

/// A typed kernel row: one `ApproxIntFft` kernel on one leg, with the
/// per-call times of every sample.
struct KernelRow {
    id: String,
    samples_ns: Vec<f64>,
}

impl KernelRow {
    fn json(&self, host: &str) -> String {
        let mut t = self.samples_ns.clone();
        t.sort_by(f64::total_cmp);
        let at = |q: f64| t[((t.len() - 1) as f64 * q).round() as usize];
        format!(
            "{{\"id\": \"{}\", \"layer\": \"fft\", \"unit\": \"ns per call\", \
             \"value\": {:.1}, \"min\": {:.1}, \"median\": {:.1}, \"p90\": {:.1}, \
             \"samples\": {}, \"host\": {host}}}",
            self.id,
            at(0.5),
            t[0],
            at(0.5),
            at(0.9),
            t.len(),
        )
    }
}

/// `ApproxIntFft` kernels at the paper's size (N = 1024, β = 38, MATCHA's
/// ℓ = 3 gadget), scalar leg against AVX-512F leg: each sample times
/// `ITERS` calls on one leg, then on the other (toggled with `force_simd`),
/// so drift hits both alike. Both legs share buffers, which is sound
/// because they compute bit-identical results. On hosts without AVX-512F
/// only the scalar rows are written.
///
/// * `forward_torus` — fold, twist and forward butterflies of a torus
///   polynomial;
/// * `forward_decomposed` — the same for one gadget-digit level, digits
///   extracted in the fold;
/// * `backward` — bit-reversing copy, inverse butterflies, untwist,
///   descale and `mod 2^32` truncation;
/// * `mul_acc_pair` — the external product's pointwise pair update;
/// * `scale_acc_pair` — the bundle's TGSW-scale pair update.
fn bench_approx_kernels() -> Vec<KernelRow> {
    const SAMPLES: usize = 21;
    const ITERS: u32 = 50;
    let engine = ApproxIntFft::new(1024, 38);
    let n = engine.ring_degree();
    let decomp = GadgetDecomposer::new(10, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut torus =
        || TorusPolynomial::from_coeffs((0..n).map(|_| Torus32::from_raw(rng.gen())).collect());
    let (p, p2) = (torus(), torus());
    let ft = engine.forward_torus(&p);
    let ft2 = engine.forward_torus(&p2);
    let mut fd = engine.zero_spectrum();
    let mut scratch = engine.make_scratch();
    engine.forward_decomposed_into(&p, &decomp, 1, &mut fd, &mut scratch);
    let factors = engine.monomial_minus_one(13);
    let mut out = engine.zero_spectrum();
    let mut poly = TorusPolynomial::zero(n);
    let (mut acc_a, mut acc_b) = (engine.zero_spectrum(), engine.zero_spectrum());
    let (mut bundle_a, mut bundle_b) = (
        engine.bundle_accumulator(&ft),
        engine.bundle_accumulator(&ft2),
    );

    let legs: &[(&str, bool)] = if matcha::fft::avx512_detected() {
        &[("scalar", false), ("avx512", true)]
    } else {
        &[("scalar", false)]
    };
    let mut rows = Vec::new();
    let mut time = |name: &str, f: &mut dyn FnMut()| {
        let mut samples = vec![Vec::new(); legs.len()];
        for _ in 0..SAMPLES {
            for (leg, &(_, on)) in samples.iter_mut().zip(legs) {
                force_simd(Some(on));
                let t0 = Instant::now();
                for _ in 0..ITERS {
                    f();
                }
                leg.push(t0.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS));
            }
        }
        force_simd(None);
        for ((leg, _), samples_ns) in legs.iter().zip(samples) {
            rows.push(KernelRow {
                id: format!("approx_kernels/{name}_{leg}"),
                samples_ns,
            });
        }
    };
    time("forward_torus", &mut || {
        engine.forward_torus_into(&p, &mut out, &mut scratch);
        std::hint::black_box(&out);
    });
    time("forward_decomposed", &mut || {
        engine.forward_decomposed_into(&p, &decomp, 1, &mut out, &mut scratch);
        std::hint::black_box(&out);
    });
    time("backward", &mut || {
        engine.backward_torus_into(&ft, &mut poly, &mut scratch);
        std::hint::black_box(&poly);
    });
    time("mul_acc_pair", &mut || {
        engine.mul_accumulate_pair(&mut acc_a, &mut acc_b, &fd, &ft, &ft2);
        std::hint::black_box((&acc_a, &acc_b));
    });
    time("scale_acc_pair", &mut || {
        engine.scale_accumulate_pair(&mut bundle_a, &mut bundle_b, &ft, &ft2, &factors);
        std::hint::black_box((&bundle_a, &bundle_b));
    });
    rows
}

/// Replaces (or appends) the `(id, json)` rows in the `BENCH_pbs.json` at
/// `path`, leaving every other row as it was.
fn merge_rows(path: &str, rows: &[(String, String)]) -> std::io::Result<()> {
    let old = std::fs::read_to_string(path).unwrap_or_default();
    let ids: Vec<String> = rows
        .iter()
        .map(|(id, _)| format!("{{\"id\": \"{id}\""))
        .collect();
    let mut lines: Vec<String> = old
        .lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| l.starts_with('{') && !ids.iter().any(|id| l.starts_with(id.as_str())))
        .collect();
    lines.extend(rows.iter().map(|(_, json)| json.clone()));
    std::fs::write(path, format!("[\n  {}\n]\n", lines.join(",\n  ")))
}

/// Prints `rows` and merges them into `BENCH_pbs.json`, exiting nonzero
/// when the file cannot be written.
fn print_and_merge(rows: &[(String, String)]) {
    for (_, json) in rows {
        println!("{json}");
    }
    if let Err(e) = merge_rows("BENCH_pbs.json", rows) {
        eprintln!("error: could not update BENCH_pbs.json: {e}");
        std::process::exit(1);
    }
    println!("\nupdated BENCH_pbs.json");
}

fn main() {
    let params = ParameterSet::MATCHA;
    let host = host_json();
    match std::env::args().nth(1).as_deref() {
        Some("lockstep") => {
            let rows: Vec<(String, String)> = bench_lockstep()
                .iter()
                .map(|r| (r.id.clone(), r.json(&host)))
                .collect();
            print_and_merge(&rows);
            return;
        }
        Some("approx") => {
            let gate = bench_gate("approx38_m2", ApproxIntFft::new(1024, 38), 2);
            let rows: Vec<(String, String)> = bench_approx_kernels()
                .iter()
                .map(|r| (r.id.clone(), r.json(&host)))
                .chain(std::iter::once((gate.id.clone(), gate.json())))
                .collect();
            print_and_merge(&rows);
            return;
        }
        _ => {}
    }
    println!(
        "simd: {} (AVX2+FMA {})",
        if matcha::fft::simd_active() {
            "on"
        } else {
            "off"
        },
        if simd_detected() {
            "detected"
        } else {
            "not detected"
        },
    );
    let mut rows = vec![
        bench_external_product("f64", &F64Fft::new(1024), params),
        bench_external_product("approx_int_38", &ApproxIntFft::new(1024, 38), params),
        bench_simd_forward("f64", &F64Fft::new(1024)),
        bench_simd_forward("radix4", &Radix4Fft::new(1024)),
        bench_simd_forward("depth_first", &matcha::DepthFirstFft::new(1024)),
        bench_simd_external_product("f64_m2", &F64Fft::new(1024), 2),
        bench_fused_external_product("f64_m1", &F64Fft::new(1024), 1),
        bench_fused_external_product("f64_m2", &F64Fft::new(1024), 2),
        bench_fused_external_product("f64_m3", &F64Fft::new(1024), 3),
        bench_fused_external_product("approx38_m2", &ApproxIntFft::new(1024, 38), 2),
        bench_blind_rotate_step("f64_m2", &F64Fft::new(1024), 2),
        bench_blind_rotate_step("f64_m3", &F64Fft::new(1024), 3),
        bench_gate("f64_m1", F64Fft::new(1024), 1),
        bench_gate("f64_m2", F64Fft::new(1024), 2),
        bench_gate("f64_m3", F64Fft::new(1024), 3),
        bench_gate("approx38_m2", ApproxIntFft::new(1024, 38), 2),
    ];
    bench_netlist_analysis(&mut rows);
    bench_netlist_equiv(&mut rows);
    bench_packed_transport(&mut rows);
    bench_circuit_sched(&mut rows);
    bench_circuit_interleaved(&mut rows);
    bench_adversarial_mix(&mut rows);
    let lane_rows = bench_lockstep();
    let kernel_rows = bench_approx_kernels();

    println!(
        "{:<32} {:>12} {:>12} {:>9}",
        "benchmark", "alloc", "scratch", "speedup"
    );
    for r in &rows {
        println!(
            "{:<32} {:>9.2} µs {:>9.2} µs {:>8.2}x",
            r.id,
            r.alloc_ns / 1e3,
            r.scratch_ns / 1e3,
            r.speedup()
        );
    }

    for r in &lane_rows {
        println!("{}", r.json(&host));
    }
    for r in &kernel_rows {
        println!("{}", r.json(&host));
    }

    let lines: Vec<String> = rows
        .iter()
        .map(Row::json)
        .chain(lane_rows.iter().map(|r| r.json(&host)))
        .chain(kernel_rows.iter().map(|r| r.json(&host)))
        .collect();
    let json = format!("[\n  {}\n]\n", lines.join(",\n  "));
    // Fail loudly: a missing results file must never look like a green run.
    let path = "BENCH_pbs.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!(
            "error: could not write {path} in {}: {e}",
            std::env::current_dir()
                .map(|d| d.display().to_string())
                .unwrap_or_else(|_| "<unknown cwd>".into())
        );
        std::process::exit(1);
    }
    println!("\nwrote {path}");
}
