//! The traced run's layer-by-layer measurements.
//!
//! Each layer is timed from outside, through its public functions, on the
//! workload's own engine, BKU factor and circuit, single-threaded on an
//! otherwise idle process (the server has shut down by then). Only the
//! kept entry points are called: the `_into` / `_assign` forms of the
//! crypto core and the `F64Fft` / `ApproxIntFft` engines.
//!
//! Each layer's records name the end-to-end metric it should move
//! ([`moves`]).

use crate::records::Record;
use crate::stats::{self, Summary};
use crate::workload::{Workload, POOL_THREADS};
use matcha_accel::schedule;
use matcha_circuits::analysis::{library, library_specs};
use matcha_fft::{FftEngine, Spectrum};
use matcha_math::{GadgetDecomposer, Torus32, TorusPolynomial};
use matcha_tfhe::analyze::equiv::{self, EquivBudget, Spec};
use matcha_tfhe::session::{SessionInputs, SubmitCircuit};
use matcha_tfhe::{
    analyze, packing, profile, simplify, BootstrapScratch, CircuitNetlist, ClientKey, Codec,
    EpScratch, Gate, GateBatchPool, GateOp, LweCiphertext, SchedulerStats, ServerKey,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The end-to-end metric a layer's numbers should move, and on which
/// workload: written down before measuring, so a change to one layer can
/// be checked against where its saving should show.
pub fn moves(layer: &str, metric: &str) -> Option<&'static str> {
    Some(match (layer, metric) {
        ("fft", _) => "bootstraps_per_s, most on deep_approx",
        ("bku", "key_mb") => "peak_rss_mb, most on wide_m3",
        ("bku", _) => "bootstraps_per_s, most on wide_m3",
        ("tgsw" | "bootstrap" | "keyswitch", _) => "bootstraps_per_s on every workload",
        ("gates", _) => "latency_p50_ms on deep_approx",
        ("circuit" | "accel", _) => "bootstraps_per_s on wide_m3, nothing on deep_approx",
        ("server", "rejected" | "faulted" | "restarts") => "the failed count",
        ("server", _) => "latency_* on wire_mix",
        ("analyze", _) => "latency_p50_ms on wire_mix only",
        ("packing" | "codec" | "session", _) => "upload_bytes_per_bit and latency on wire_mix",
        _ => return None,
    })
}

/// A library circuit with its plaintext specification.
pub struct Circuit {
    /// Library name.
    pub name: &'static str,
    /// The netlist clients submit.
    pub net: CircuitNetlist,
    /// What it computes on plaintext bits.
    pub spec: Spec,
    /// Bootstraps of the submitted netlist.
    pub bootstraps: usize,
}

impl Circuit {
    /// The library entry `name` with its spec.
    ///
    /// # Panics
    ///
    /// Panics if the library has no such entry.
    pub fn named(name: &str) -> Self {
        let (name, net) = library()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no library circuit {name}"));
        let (_, spec) = library_specs()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no spec for {name}"));
        let bootstraps = net.bootstraps();
        Self {
            name,
            net,
            spec,
            bootstraps,
        }
    }

    /// Two independent gates over two inputs: enough to warm both pool
    /// workers, and clean under the admission lints.
    pub fn warmup() -> Self {
        let mut net = CircuitNetlist::new();
        let (a, b) = (net.input(), net.input());
        let nand = net.gate(Gate::Nand, a, b);
        let xor = net.gate(Gate::Xor, a, b);
        net.mark_output(nand);
        net.mark_output(xor);
        let spec = Spec::new(vec![1, 1], 2, |x| vec![!(x[0] && x[1]), x[0] ^ x[1]]);
        let bootstraps = net.bootstraps();
        Self {
            name: "warmup",
            net,
            spec,
            bootstraps,
        }
    }
}

/// What the live measured phase showed of the server and session layers.
pub struct Live {
    /// Primary client's median latency.
    pub latency_s: f64,
    /// Primary client's median server-side run time.
    pub run_s: f64,
    /// Scheduler counter deltas over the phase.
    pub stats: SchedulerStats,
    /// Primary client's upload bytes per circuit.
    pub upload_bytes: f64,
    /// Primary client's download bytes per circuit.
    pub download_bytes: f64,
}

/// The layer records, with report lines and any wrong result.
pub struct Measured {
    /// Per-layer records.
    pub records: Vec<Record>,
    /// Report lines.
    pub notes: Vec<String>,
    /// Layer runs whose decrypted outputs disagreed with the spec, or
    /// admission proofs that were not `Equivalent`.
    pub failures: u64,
}

/// Per-call time of `f`: one warm-up call, then `batches` batches of
/// `batch` calls, each batch's mean one sample.
fn per_call(batch: usize, batches: usize, mut f: impl FnMut()) -> Summary {
    f();
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    stats::summarize(&samples).expect("at least one batch")
}

/// Evaluates `net` on the calling thread in netlist order through one
/// warmed scratch — `apply_into` / `not_into` / `mux_into`, no pool.
fn run_sequential<E: FftEngine>(
    key: &ServerKey<E>,
    net: &CircuitNetlist,
    inputs: &[LweCiphertext],
    scratch: &mut BootstrapScratch<E>,
) -> Vec<LweCiphertext> {
    let n = key.params().lwe_dimension;
    let mut values: Vec<LweCiphertext> = Vec::with_capacity(net.len());
    for op in net.ops() {
        let mut out = LweCiphertext::trivial(Torus32::ZERO, n);
        match *op {
            GateOp::Input(slot) => out = inputs[slot].clone(),
            GateOp::Constant(v) => out = key.trivial(v),
            GateOp::Binary(gate, a, b) => {
                key.apply_into(gate, &values[a], &values[b], &mut out, scratch)
            }
            GateOp::Not(a) => key.not_into(&values[a], &mut out),
            GateOp::Mux { sel, a, b } => {
                key.mux_into(&values[sel], &values[a], &values[b], &mut out, scratch)
            }
        }
        values.push(out);
    }
    net.outputs().iter().map(|&i| values[i].clone()).collect()
}

/// Measures every layer of `workload` on `circuit`.
pub fn measure<E: FftEngine + Send + Sync + 'static>(
    workload: Workload,
    key: &Arc<ServerKey<E>>,
    ck: &ClientKey,
    circuit: &Circuit,
    live: &Live,
    rng: &mut StdRng,
) -> Measured {
    let mut records = Vec::new();
    let mut notes = Vec::new();
    let mut failures = 0u64;
    let engine = key.engine();
    let params = *key.params();
    let ring = params.ring_degree;
    let decomp = GadgetDecomposer::new(params.decomp_base_log, params.decomp_levels);
    let bk = key.kit().bootstrapping_key();
    let ksk = key.kit().key_switch_key();

    // FFT: the hot path's fused decompose→forward transform and the
    // backward transform.
    let poly =
        TorusPolynomial::from_coeffs((0..ring).map(|_| Torus32::from_raw(rng.gen())).collect());
    let mut es = engine.make_scratch();
    let mut spectrum = engine.zero_spectrum();
    let forward = per_call(256, 21, || {
        engine.forward_decomposed_into(&poly, &decomp, 0, &mut spectrum, &mut es)
    });
    let mut back = TorusPolynomial::zero(ring);
    let inverse = per_call(256, 21, || {
        engine.backward_torus_into(&spectrum, &mut back, &mut es);
        black_box(&back);
    });

    // External product with one pattern key, on a fresh TRLWE sample.
    let group = &bk.groups()[0];
    let tgsw = &group.keys()[0];
    let mut acc = packing::pack_bits(ck, &[true], engine, rng);
    let mut ep = EpScratch::new(engine, &params);
    let external = per_call(8, 21, || {
        tgsw.external_product_assign(engine, &mut acc, &decomp, &mut ep)
    });

    // BKU bundle for one key group.
    let two_n = params.two_n();
    let exponents: Vec<u32> = (0..group.len()).map(|_| rng.gen::<u32>() % two_n).collect();
    let mut bundle = tgsw.clone();
    let mut factors = E::MonomialFactors::default();
    let build = per_call(8, 21, || {
        bk.build_bundle_into(engine, group, &exponents, two_n, &mut bundle, &mut factors)
    });
    let rows = tgsw.rows();
    let key_mib =
        (bk.key_count() * rows.len() * 2 * rows[0].a.len() * 16) as f64 / (1024.0 * 1024.0);

    // Blind rotation and key switch.
    let mut scratch = key.make_scratch();
    let gate_input = ck.encrypt_with(true, rng);
    scratch
        .test_vector_mut()
        .coeffs_mut()
        .fill(-Torus32::from_raw(1 << 29));
    let rotate = per_call(1, 9, || {
        key.kit()
            .blind_rotate_assign(engine, &gate_input, &mut scratch)
    });
    let steps = bk.groups().len();
    let mut extracted = LweCiphertext::trivial(Torus32::ZERO, ring);
    scratch.accumulator().sample_extract_into(&mut extracted);
    let mut switched = LweCiphertext::trivial(Torus32::ZERO, params.lwe_dimension);
    let switch = per_call(4, 15, || ksk.switch_into(&extracted, &mut switched));

    // Whole gate, unprofiled, then its phase shares with the profiler on.
    let (a, b) = (ck.encrypt_with(true, rng), ck.encrypt_with(false, rng));
    let mut out = LweCiphertext::trivial(Torus32::ZERO, params.lwe_dimension);
    let apply = per_call(1, 9, || {
        key.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch)
    });
    const PROFILED: u32 = 5;
    profile::start();
    for _ in 0..PROFILED {
        key.apply_into(Gate::Nand, &a, &b, &mut out, &mut scratch);
    }
    let phases = profile::snapshot();
    profile::stop();
    let total = phases.total().as_secs_f64();
    let share = |d: std::time::Duration| d.as_secs_f64() / total;
    let transforms = (phases.ifft_calls + phases.fft_calls) as f64 / f64::from(PROFILED);

    // Whole circuit: sequential on one scratch, then the pool at 1 and 2
    // threads, every result decrypted and checked.
    let bits: Vec<bool> = (0..circuit.spec.input_bits())
        .map(|_| rng.gen_bool(0.5))
        .collect();
    let expected = circuit.spec.eval(&bits);
    let inputs: Vec<LweCiphertext> = bits.iter().map(|&v| ck.encrypt_with(v, rng)).collect();
    let check = |outputs: &[LweCiphertext]| {
        outputs.iter().map(|c| ck.decrypt(c)).collect::<Vec<bool>>() == expected
    };
    let t0 = Instant::now();
    let seq_out = run_sequential(key, &circuit.net, &inputs, &mut scratch);
    let sequential_s = t0.elapsed().as_secs_f64();
    failures += u64::from(!check(&seq_out));
    let warm = Circuit::warmup();
    let warm_inputs: Vec<LweCiphertext> = [true, false]
        .iter()
        .map(|&v| ck.encrypt_with(v, rng))
        .collect();
    let mut pool_s = [0.0; 2];
    let mut waves = 0;
    for (slot, threads) in [1, POOL_THREADS].into_iter().enumerate() {
        let pool = GateBatchPool::new(Arc::clone(key), threads);
        warm.net.execute(&pool, &warm_inputs);
        let t0 = Instant::now();
        let run = circuit.net.execute(&pool, &inputs);
        pool_s[slot] = t0.elapsed().as_secs_f64();
        failures += u64::from(!check(&run.outputs));
        waves = run.waves;
    }
    let dag = schedule::Netlist::from_deps(&circuit.net.schedule_skeleton());
    let predicted_s = schedule::schedule(&dag, POOL_THREADS, apply.median).makespan_s;

    // Admission analysis on the circuit: analyze, simplify, BDD proof.
    let unroll = key.unroll();
    let analyzed = per_call(1, 5, || {
        black_box(analyze(&circuit.net, &params, unroll));
    });
    let simplified = per_call(1, 5, || {
        black_box(simplify(&circuit.net));
    });
    let (rewritten, _) = simplify(&circuit.net);
    let mut proof = None;
    let proved = per_call(1, 3, || {
        proof = Some(equiv::check(
            &circuit.net,
            &rewritten,
            EquivBudget::default(),
        ));
    });
    let proof = proof.expect("the proof ran");
    if !proof.is_equivalent() {
        failures += 1;
        notes.push(format!(
            "admission proof of {} not Equivalent: {proof}",
            circuit.name
        ));
    }

    // Wire: client pack, server unpack of one bit, submit-frame codec.
    let pack = per_call(1, 21, || {
        black_box(packing::pack_bits(ck, &bits, engine, rng));
    });
    let packed = packing::pack_bits(ck, &bits, engine, rng);
    let mut slot = 0;
    let extract = per_call(1, 21, || {
        black_box(packing::extract_bit(&packed, slot, ksk, &params));
        slot = (slot + 1) % bits.len();
    });
    let submission = SubmitCircuit {
        netlist: circuit.net.clone(),
        inputs: if workload.wire() {
            SessionInputs::Packed(vec![packed])
        } else {
            SessionInputs::Lwe(inputs)
        },
    };
    let frame = submission.to_bytes();
    let encode = per_call(1, 21, || {
        black_box(submission.to_bytes());
    });
    let decode = per_call(1, 21, || {
        black_box(SubmitCircuit::from_bytes(&frame).expect("own frame decodes"));
    });

    let us = |s: Summary| s.scaled(1e6);
    let ms = |s: Summary| s.scaled(1e3);
    records.extend([
        Record::median("fft", "forward_us", "us", us(forward)),
        Record::median("fft", "inverse_us", "us", us(inverse)),
        Record::value("fft", "transforms_per_gate", "count", transforms),
        Record::median("tgsw", "external_product_us", "us", us(external)),
        Record::median("bku", "build_bundle_us", "us", us(build)),
        Record::value("bku", "key_mb", "MiB", key_mib),
        Record::median("bootstrap", "blind_rotate_ms", "ms", ms(rotate)),
        Record::value("bootstrap", "steps", "count", steps as f64),
        Record::median("keyswitch", "switch_us", "us", us(switch)),
        Record::median("gates", "apply_ms", "ms", ms(apply)),
        Record::value(
            "gates",
            "share.fft",
            "fraction",
            share(phases.ifft + phases.fft),
        ),
        Record::value(
            "gates",
            "share.bundle",
            "fraction",
            share(phases.tgsw_scale),
        ),
        Record::value(
            "gates",
            "share.keyswitch",
            "fraction",
            share(phases.key_switch),
        ),
        Record::value("gates", "share.other", "fraction", share(phases.other)),
        Record::value("circuit", "sequential_s", "s", sequential_s),
        Record::value("circuit", "pool1_s", "s", pool_s[0]),
        Record::value("circuit", "pool2_s", "s", pool_s[1]),
        Record::value("circuit", "waves", "count", waves as f64),
        Record::value("circuit", "bootstraps", "count", circuit.bootstraps as f64),
        Record::value("accel", "predicted_s", "s", predicted_s),
        Record::value(
            "accel",
            "predicted_over_pool2",
            "ratio",
            predicted_s / pool_s[1],
        ),
        Record::median("analyze", "analyze_ms", "ms", ms(analyzed)),
        Record::median("analyze", "simplify_ms", "ms", ms(simplified)),
        Record::median("analyze", "equiv_ms", "ms", ms(proved)),
        Record::value("analyze", "bdd_nodes", "count", proof.nodes as f64),
        Record::median("packing", "pack_ms", "ms", ms(pack)),
        Record::median("packing", "extract_us", "us", us(extract)),
        Record::median("codec", "encode_us", "us", us(encode)),
        Record::median("codec", "decode_us", "us", us(decode)),
        Record::value("session", "upload_bytes", "B", live.upload_bytes),
        Record::value("session", "download_bytes", "B", live.download_bytes),
    ]);

    // Scheduler counters over the live phase.
    let st = &live.stats;
    records.extend([
        Record::value("server", "utilization", "fraction", st.utilization()),
        Record::value(
            "server",
            "tasks_per_dispatch",
            "count",
            st.tasks as f64 / st.dispatches.max(1) as f64,
        ),
        Record::value("server", "dispatches", "count", st.dispatches as f64),
        Record::value("server", "rejected", "count", st.rejected as f64),
        Record::value("server", "faulted", "count", st.faulted as f64),
        Record::value("server", "restarts", "count", st.restarts as f64),
    ]);

    // Additivity: each whole against the sum of its measured parts.
    let gate_parts = steps as f64 * (build.median + external.median) + switch.median;
    let gate_residual = 1.0 - gate_parts / apply.median;
    let circuit_parts = circuit.bootstraps as f64 * apply.median;
    let circuit_residual = 1.0 - circuit_parts / sequential_s;
    // The run clock starts before the frontier fills its input slots, so
    // the server-side unpack is inside `run`, not a separate term.
    let latency_parts = if workload.wire() {
        pack.median
            + encode.median
            + decode.median
            + analyzed.median
            + simplified.median
            + proved.median
            + live.run_s
    } else {
        live.run_s
    };
    let latency_residual = 1.0 - latency_parts / live.latency_s;
    records.extend([
        Record::value("check", "gate_residual", "fraction", gate_residual),
        Record::value("check", "circuit_residual", "fraction", circuit_residual),
        Record::value("check", "latency_residual", "fraction", latency_residual),
    ]);
    notes.push(format!(
        "additivity gate: apply {:.3} ms vs {steps} steps x (bundle {:.1} us + external product {:.1} us) \
         + key switch {:.1} us = {:.3} ms; residual {:+.1}%",
        apply.median * 1e3,
        build.median * 1e6,
        external.median * 1e6,
        switch.median * 1e6,
        gate_parts * 1e3,
        gate_residual * 100.0
    ));
    notes.push(format!(
        "additivity circuit: sequential {sequential_s:.3} s vs {} bootstraps x apply {:.3} ms = {circuit_parts:.3} s; \
         residual {:+.1}%",
        circuit.bootstraps,
        apply.median * 1e3,
        circuit_residual * 100.0
    ));
    notes.push(format!(
        "additivity latency: p50 {:.1} ms vs parts {:.1} ms (run {:.1} ms{}); residual {:+.1}%",
        live.latency_s * 1e3,
        latency_parts * 1e3,
        live.run_s * 1e3,
        if workload.wire() {
            format!(
                ", pack {:.2} ms, encode {:.3} ms, decode {:.3} ms, analyze {:.3} ms, \
                 simplify {:.3} ms, equiv {:.3} ms; unpack {:.1} us/bit is inside run",
                pack.median * 1e3,
                encode.median * 1e3,
                decode.median * 1e3,
                analyzed.median * 1e3,
                simplified.median * 1e3,
                proved.median * 1e3,
                extract.median * 1e6
            )
        } else {
            String::new()
        },
        latency_residual * 100.0
    ));
    notes.push(format!(
        "circuit {}: sequential {sequential_s:.3} s / pool@1 {:.3} s / pool@{POOL_THREADS} {:.3} s; \
         accel::schedule predicts {predicted_s:.3} s on {POOL_THREADS} pipelines at {:.3} ms/gate \
         (predicted / measured pool@{POOL_THREADS} = {:.3})",
        circuit.name,
        pool_s[0],
        pool_s[1],
        apply.median * 1e3,
        predicted_s / pool_s[1]
    ));
    Measured {
        records,
        notes,
        failures,
    }
}
