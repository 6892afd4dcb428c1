//! The three workloads and their closed-loop clients.
//!
//! Every workload is a closed loop: each client keeps exactly one circuit
//! in flight and submits the next only after the previous outcome
//! arrives. Operands are random words drawn from the seed; the server
//! only ever receives ciphertexts. Every output is decrypted and compared
//! with the circuit's plaintext specification.

use crate::layers::{self, Circuit};
use crate::procfs;
use crate::records::Record;
use crate::stats;
use crate::trace::{Span, Tracer};
use matcha_fft::{ApproxIntFft, F64Fft, FftEngine};
use matcha_math::Torus32;
use matcha_tfhe::analyze::equiv::{self, EquivBudget};
use matcha_tfhe::session::{self, OutcomeFrame, PipeEnd, SessionInputs, SubmitCircuit};
use matcha_tfhe::{
    packing, simplify, AnalysisPolicy, CircuitClient, CircuitServer, ClientKey, Codec,
    LweCiphertext, ParameterSet, ServerConfig, ServerKey, SessionClient, SessionOutcome,
    SessionServer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool workers of every server: the host's two vCPUs.
pub const POOL_THREADS: usize = 2;

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Twiddle precision of the approximate integer FFT (the paper's 38 bits).
pub const TWIDDLE_BITS: u32 = 38;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process server, `F64Fft`, BKU m=3; one client streams `mul8`.
    WideM3,
    /// In-process server, `ApproxIntFft` (38-bit twiddles), m=2; one
    /// client streams `adder8`.
    DeepApprox,
    /// Two framed sessions into one analysing server (`F64Fft`, m=2): a
    /// heavy client streams `processor_cycle8`, a light one `comparator8`.
    WireMix,
}

/// The FFT engine a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Exact double-precision FFT.
    F64,
    /// The paper's approximate multiplication-less integer FFT.
    ApproxInt,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::WideM3, Workload::DeepApprox, Workload::WireMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WideM3 => "wide_m3",
            Workload::DeepApprox => "deep_approx",
            Workload::WireMix => "wire_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The BKU factor m.
    pub fn unroll(self) -> usize {
        match self {
            Workload::WideM3 => 3,
            Workload::DeepApprox | Workload::WireMix => 2,
        }
    }

    /// The FFT engine.
    pub fn engine(self) -> EngineKind {
        match self {
            Workload::DeepApprox => EngineKind::ApproxInt,
            Workload::WideM3 | Workload::WireMix => EngineKind::F64,
        }
    }

    /// The engine's record label.
    pub fn engine_label(self) -> String {
        match self.engine() {
            EngineKind::F64 => "F64Fft".to_string(),
            EngineKind::ApproxInt => format!("ApproxIntFft/{TWIDDLE_BITS}"),
        }
    }

    /// The library circuit each client streams, one client per entry.
    /// The first is the primary (heaviest) client, the last the lightest.
    pub fn circuits(self) -> &'static [&'static str] {
        match self {
            Workload::WideM3 => &["mul8"],
            Workload::DeepApprox => &["adder8"],
            Workload::WireMix => &["processor_cycle8", "comparator8"],
        }
    }

    /// Whether clients reach the server over framed sessions.
    pub fn wire(self) -> bool {
        self == Workload::WireMix
    }

    /// The server's admission analysis policy.
    pub fn policy(self) -> Option<AnalysisPolicy> {
        self.wire().then(|| AnalysisPolicy {
            require_equivalence: Some(EquivBudget::default()),
            ..AnalysisPolicy::default()
        })
    }
}

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// TFHE parameters (`MATCHA` for measurement, `TEST_FAST` for smoke
    /// tests).
    pub params: ParameterSet,
    /// Seed of keys and operands.
    pub seed: u64,
    /// Length of the measured phase: clients stop submitting after it.
    pub seconds: f64,
    /// Record spans and measure the layers.
    pub trace: bool,
}

/// What one run produced.
pub struct RunReport {
    /// Circuits submitted in the measured phase.
    pub attempted: u64,
    /// Circuits not `Completed` or with a wrong output.
    pub failed: u64,
    /// Completed circuits with at least one wrong output bit.
    pub mismatches: u64,
    /// Layer runs (traced only) with a wrong output or a refuted proof.
    pub layer_failures: u64,
    /// End-to-end metrics `(name, value, unit)`.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics `(name, value, unit)` (traced runs only).
    pub per_layer: Vec<(String, f64, String)>,
    /// Every typed record of the run.
    pub records: Vec<Record>,
    /// Client-side spans (traced runs only).
    pub spans: Vec<Span>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl RunReport {
    /// `true` when every circuit completed with correct outputs and every
    /// layer run checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0 && self.layer_failures == 0
    }
}

/// Runs a workload end to end (and, when tracing, layer by layer).
///
/// # Errors
///
/// Returns wire-session I/O errors and refuted admission proofs.
pub fn run(opts: &Options) -> io::Result<RunReport> {
    let n = opts.params.ring_degree;
    match opts.workload.engine() {
        EngineKind::F64 => run_with(opts, || F64Fft::new(n)),
        EngineKind::ApproxInt => run_with(opts, || ApproxIntFft::new(n, TWIDDLE_BITS)),
    }
}

/// Byte counters of one metered connection.
#[derive(Default)]
struct Meter {
    up: AtomicU64,
    down: AtomicU64,
}

/// A client's transport end that counts the bytes it writes (upload) and
/// reads (download).
struct Metered {
    inner: PipeEnd,
    meter: Arc<Meter>,
}

impl Read for Metered {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let k = self.inner.read(buf)?;
        self.meter.down.fetch_add(k as u64, Ordering::Relaxed);
        Ok(k)
    }
}

impl Write for Metered {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let k = self.inner.write(buf)?;
        self.meter.up.fetch_add(k as u64, Ordering::Relaxed);
        Ok(k)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// How a client reaches the server.
enum Link {
    /// An in-process handle submitting per-LWE inputs.
    Local(CircuitClient),
    /// A framed session uploading packed TRLWE inputs.
    Wire {
        session: SessionClient<Metered>,
        meter: Arc<Meter>,
    },
}

/// A running server with its clients' links.
struct Deployment<E: FftEngine> {
    client_key: ClientKey,
    key: Arc<ServerKey<E>>,
    /// The clients' own engine, for packing.
    engine: E,
    server: CircuitServer,
    links: Vec<Link>,
    serves: Vec<JoinHandle<io::Result<u64>>>,
}

impl<E: FftEngine + Send + Sync + 'static> Deployment<E> {
    /// Key generation, server and session start, and one warm-up circuit
    /// per client (wide enough to warm both pool workers).
    fn start(opts: &Options, make: &impl Fn() -> E, rng: &mut StdRng) -> io::Result<Self> {
        let client_key = ClientKey::generate(opts.params, rng);
        let key = Arc::new(ServerKey::with_unrolling(
            &client_key,
            make(),
            opts.workload.unroll(),
            rng,
        ));
        let config = ServerConfig {
            analysis: opts.workload.policy(),
            ..ServerConfig::default()
        };
        let server = CircuitServer::start_with(Arc::clone(&key), POOL_THREADS, config);
        let mut links = Vec::new();
        let mut serves = Vec::new();
        for _ in opts.workload.circuits() {
            if opts.workload.wire() {
                let (near, far) = session::duplex();
                let endpoint = SessionServer::new(server.client(), *server.params());
                serves.push(std::thread::spawn(move || endpoint.serve(far)));
                let meter = Arc::new(Meter::default());
                let session = SessionClient::connect(Metered {
                    inner: near,
                    meter: Arc::clone(&meter),
                })?;
                links.push(Link::Wire { session, meter });
            } else {
                links.push(Link::Local(server.client()));
            }
        }
        let mut dep = Self {
            client_key,
            key,
            engine: make(),
            server,
            links,
            serves,
        };
        let warm = Circuit::warmup();
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        for link in &mut dep.links {
            let done = submit_one(
                link,
                &dep.client_key,
                &dep.engine,
                &warm,
                rng,
                &mut tracer,
                0,
            )?;
            if !done.ok {
                return Err(io::Error::other("warm-up circuit failed"));
            }
        }
        Ok(dep)
    }

    /// Closes every session, joins the session threads and stops the
    /// server; returns the server key for the layer measurements.
    fn shutdown(self) -> io::Result<Arc<ServerKey<E>>> {
        drop(self.links);
        let mut result = Ok(());
        for serve in self.serves {
            let served = serve
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("session thread panicked")));
            if let Err(e) = served {
                result = Err(e);
            }
        }
        self.server.shutdown();
        result.map(|()| self.key)
    }
}

/// One closed-loop step of client `link`: draw operands, encrypt or
/// pack, submit, wait, decrypt and verify.
fn submit_one<E: FftEngine>(
    link: &mut Link,
    ck: &ClientKey,
    engine: &E,
    circuit: &Circuit,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    id: u64,
) -> io::Result<Submitted> {
    let bits: Vec<bool> = (0..circuit.spec.input_bits())
        .map(|_| rng.gen_bool(0.5))
        .collect();
    let expected = circuit.spec.eval(&bits);
    let root = tracer.open("circuit", id, None);
    let net = circuit.net.clone();
    let (latency_s, outcome) = match link {
        Link::Local(handle) => {
            let inputs: Vec<LweCiphertext> = tracer.span("encrypt", id, Some(root), || {
                bits.iter().map(|&b| ck.encrypt_with(b, rng)).collect()
            });
            let t0 = Instant::now();
            let pending = tracer.span("submit", id, Some(root), || handle.submit(net, inputs));
            let outcome = tracer.span("outcome", id, Some(root), || pending.wait());
            (t0.elapsed().as_secs_f64(), SessionOutcome::from(outcome))
        }
        Link::Wire { session, .. } => {
            // What `SessionClient::submit_bits` does — pack each
            // N-bit chunk, then submit the samples — split so the
            // pack and submit stages are timed apart.
            let t0 = Instant::now();
            let n = session.params().ring_degree;
            let samples = tracer.span("pack", id, Some(root), || {
                bits.chunks(n)
                    .map(|chunk| packing::pack_bits(ck, chunk, engine, rng))
                    .collect()
            });
            let ticket = tracer.span("submit", id, Some(root), || {
                session.submit_packed(&net, samples)
            })?;
            let (resolved, outcome) = tracer.span("outcome", id, Some(root), || session.wait())?;
            if resolved != ticket {
                return Err(io::Error::other(format!(
                    "outcome for ticket {resolved} while waiting on {ticket}"
                )));
            }
            (t0.elapsed().as_secs_f64(), outcome)
        }
    };
    let verify = tracer.open("verify", id, Some(root));
    let (ok, completed, run_s) = match &outcome {
        SessionOutcome::Completed(run) => {
            let got: Vec<bool> = run.outputs.iter().map(|c| ck.decrypt(c)).collect();
            (got == expected, true, run.elapsed_s)
        }
        _ => (false, false, 0.0),
    };
    tracer.close(verify);
    tracer.close(root);
    Ok(Submitted {
        ok,
        completed,
        latency_s,
        run_s,
        bits: bits.len(),
        outcome,
    })
}

/// The result of one submitted circuit.
struct Submitted {
    /// Completed with every output bit correct.
    ok: bool,
    /// Resolved `Completed`.
    completed: bool,
    latency_s: f64,
    run_s: f64,
    bits: usize,
    outcome: SessionOutcome,
}

/// One client's tallies over the measured phase.
#[derive(Default)]
struct ClientTally {
    attempted: u64,
    verified: u64,
    bootstraps: u64,
    bits: u64,
    latencies_s: Vec<f64>,
    overheads_s: Vec<f64>,
    runs_s: Vec<f64>,
    last_outcome: Option<SessionOutcome>,
    spans: Vec<Span>,
}

fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (client as u64 + 1))
}

fn run_with<E, F>(opts: &Options, make: F) -> io::Result<RunReport>
where
    E: FftEngine + Send + Sync + 'static,
    F: Fn() -> E,
{
    let workload = opts.workload;
    let circuits: Vec<Circuit> = workload
        .circuits()
        .iter()
        .map(|c| Circuit::named(c))
        .collect();
    let mut notes = Vec::new();

    // Every admission proof the analysing server makes is of the
    // submitted netlist against its own `simplify` rewrite; the netlists
    // are fixed, so proving each once here covers every submission.
    if workload.policy().is_some() {
        for c in &circuits {
            let (rewritten, _) = simplify(&c.net);
            let report = equiv::check(&c.net, &rewritten, EquivBudget::default());
            if !report.is_equivalent() {
                return Err(io::Error::other(format!(
                    "admission proof of {} is not Equivalent: {report}",
                    c.name
                )));
            }
            notes.push(format!("admission proof {}: {report}", c.name));
        }
    }

    // Set-up, repeated; the last deployment serves the measured phase.
    let setups = if opts.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut dep: Option<Deployment<E>> = None;
    for _ in 0..setups {
        if let Some(old) = dep.take() {
            old.shutdown()?;
        }
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x6b65_7973);
        let t0 = Instant::now();
        dep = Some(Deployment::start(opts, &make, &mut rng)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut dep = dep.expect("at least one set-up ran");

    // The measured phase: every client in its own thread, closed loop.
    let stats_before = dep.server.stats();
    let meters_before: Vec<(u64, u64)> = dep.links.iter().map(link_bytes).collect();
    let cpu_before = procfs::cpu_seconds();
    let steal_before = procfs::steal_seconds();
    let epoch = Instant::now();
    let phase = Phase {
        epoch,
        stop_at: epoch + Duration::from_secs_f64(opts.seconds),
        primary_done: AtomicBool::new(false),
    };
    let tallies = drive(&mut dep, &circuits, opts, &phase)?;
    let phase_s = epoch.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds().zip(cpu_before).map(|(a, b)| a - b);
    // Steal is the host's, not the program's: it explains a slow run.
    let steal_s = procfs::steal_seconds()
        .zip(steal_before)
        .map(|(a, b)| a - b);
    let delta = dep.server.stats().since(&stats_before);
    let meters_after: Vec<(u64, u64)> = dep.links.iter().map(link_bytes).collect();
    let client_key = dep.client_key.clone();
    let key = dep.shutdown()?;

    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let completed: u64 = tallies.iter().map(|t| t.runs_s.len() as u64).sum();
    let verified: u64 = tallies.iter().map(|t| t.verified).sum();
    let failed = attempted - verified;
    let mismatches = completed - verified;
    let bootstraps: u64 = tallies.iter().map(|t| t.bootstraps).sum();

    // Upload/download bytes: counted on the wire for sessions; for
    // in-process clients, the encoded size of what they hand the server.
    let mut up_bytes = 0f64;
    let mut down_bytes = 0f64;
    let mut per_circuit_bytes = Vec::new();
    for (i, t) in tallies.iter().enumerate() {
        let (up, down) = if workload.wire() {
            (
                (meters_after[i].0 - meters_before[i].0) as f64,
                (meters_after[i].1 - meters_before[i].1) as f64,
            )
        } else {
            let frame = local_frame_bytes(&circuits[i], &opts.params, t.last_outcome.as_ref());
            (frame.0 * t.attempted as f64, frame.1 * t.attempted as f64)
        };
        up_bytes += up;
        down_bytes += down;
        per_circuit_bytes.push((up / t.attempted as f64, down / t.attempted as f64));
    }
    let bits: u64 = tallies.iter().map(|t| t.bits).sum();

    let primary = &tallies[0];
    let light = tallies.last().expect("at least one client");
    let lat = stats::summarize(&primary.latencies_s).expect("every client submits");
    let light_lat = stats::summarize(&light.latencies_s).expect("every client submits");
    let setup = stats::summarize(&setup_s).expect("at least one set-up ran");
    let cpu_per_bootstrap = cpu_s.unwrap_or(f64::NAN) / bootstraps as f64;
    let peak_rss = procfs::peak_rss_mb().unwrap_or(f64::NAN);

    let mut records = vec![
        Record::value(
            "e2e",
            "bootstraps_per_s",
            "1/s",
            bootstraps as f64 / phase_s,
        ),
        Record::value("e2e", "circuits_per_s", "1/s", verified as f64 / phase_s),
        Record::median("e2e", "latency_p50_ms", "ms", lat.scaled(1e3)),
        Record::value("e2e", "latency_tail_ms", "ms", lat.tail * 1e3),
        Record::median("e2e", "light_latency_p50_ms", "ms", light_lat.scaled(1e3)),
        Record::value("e2e", "light_latency_tail_ms", "ms", light_lat.tail * 1e3),
        Record::value("e2e", "cpu_s_per_bootstrap", "s", cpu_per_bootstrap),
        Record::value(
            "e2e",
            "upload_bytes_per_bit",
            "B/bit",
            up_bytes / bits as f64,
        ),
        Record::median("e2e", "setup_s", "s", setup),
        Record::value("e2e", "peak_rss_mb", "MiB", peak_rss),
        Record::value("e2e", "failed_share", "1", failed as f64 / attempted as f64),
        Record::value("e2e", "phase_s", "s", phase_s),
        Record::value("host", "steal_s", "s", steal_s.unwrap_or(f64::NAN)),
    ];
    notes.push(format!(
        "phase {phase_s:.2} s: {attempted} circuits attempted, {verified} verified, \
         {bootstraps} bootstraps; latency n={} p50 {:.1} ms, tail p{:.0} {:.1} ms; \
         light n={} p50 {:.1} ms, tail p{:.0} {:.1} ms; down {:.0} B; host CPU steal {:.2} s",
        lat.n,
        lat.median * 1e3,
        lat.tail_q * 100.0,
        lat.tail * 1e3,
        light_lat.n,
        light_lat.median * 1e3,
        light_lat.tail_q * 100.0,
        light_lat.tail * 1e3,
        down_bytes,
        steal_s.unwrap_or(f64::NAN),
    ));
    let end_to_end: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let r = records
                .iter()
                .find(|r| r.metric == name)
                .expect("every end-to-end metric has a record");
            (name, r.value, unit)
        })
        .collect();

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    let mut layer_failures = 0;
    if opts.trace {
        // Server layer, from the live phase.
        let run = stats::summarize(&primary.runs_s).expect("primary client completed");
        let overhead = stats::summarize(&primary.overheads_s).expect("primary client completed");
        let live = layers::Live {
            latency_s: lat.median,
            run_s: run.median,
            stats: delta.clone(),
            upload_bytes: per_circuit_bytes[0].0,
            download_bytes: per_circuit_bytes[0].1,
        };
        records.push(Record::median("server", "run_ms", "ms", run.scaled(1e3)));
        records.push(Record::median(
            "server",
            "overhead_ms",
            "ms",
            overhead.scaled(1e3),
        ));
        // The layer measurements draw from a stream no client uses.
        let mut rng = client_rng(opts.seed, circuits.len());
        let measured = layers::measure(workload, &key, &client_key, &circuits[0], &live, &mut rng);
        records.extend(measured.records);
        notes.extend(measured.notes);
        layer_failures = measured.failures;
        per_layer = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (layer, metric) = name.split_once('.').expect("layer.metric names");
                let r = records
                    .iter()
                    .find(|r| r.layer == layer && r.metric == metric)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                (name.to_string(), r.value, unit.to_string())
            })
            .collect();
        for t in tallies {
            spans.extend(t.spans);
        }
    }
    Ok(RunReport {
        attempted,
        failed,
        mismatches,
        layer_failures,
        end_to_end,
        per_layer,
        records,
        spans,
        notes,
    })
}

/// The measured phase's clock and stop rule.
struct Phase {
    epoch: Instant,
    stop_at: Instant,
    /// Set once the primary client has its last outcome back.
    primary_done: AtomicBool,
}

impl Phase {
    /// Whether client `index` submits another circuit. The primary client
    /// stops once half its median latency would carry it past the end of
    /// the phase, so the phase ends within about half a circuit of
    /// `--seconds`; the other clients keep the load on until the primary
    /// client's last circuit is back, so it never runs alone.
    fn go_on(&self, index: usize, latencies_s: &[f64]) -> bool {
        if index == 0 {
            let half = stats::median(latencies_s).unwrap_or(0.0) / 2.0;
            Instant::now() + Duration::from_secs_f64(half) < self.stop_at
        } else {
            !self.primary_done.load(Ordering::SeqCst)
        }
    }
}

/// Runs every client's closed loop in its own thread for the phase.
fn drive<E: FftEngine + Send + Sync + 'static>(
    dep: &mut Deployment<E>,
    circuits: &[Circuit],
    opts: &Options,
    phase: &Phase,
) -> io::Result<Vec<ClientTally>> {
    // Each thread owns one link; the rest of the deployment is shared.
    let links = std::mem::take(&mut dep.links);
    let (ck, engine) = (&dep.client_key, &dep.engine);
    let results: Vec<(Link, io::Result<ClientTally>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .into_iter()
            .zip(circuits)
            .enumerate()
            .map(|(i, (link, circuit))| {
                scope.spawn(move || {
                    let mut link = link;
                    let tally = client_loop(&mut link, ck, engine, i, circuit, opts, phase);
                    if i == 0 {
                        phase.primary_done.store(true, Ordering::SeqCst);
                    }
                    (link, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tallies = Vec::new();
    let mut first_err = None;
    for (link, tally) in results {
        dep.links.push(link);
        match tally {
            Ok(t) => tallies.push(t),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(tallies),
    }
}

fn client_loop<E: FftEngine>(
    link: &mut Link,
    ck: &ClientKey,
    engine: &E,
    index: usize,
    circuit: &Circuit,
    opts: &Options,
    phase: &Phase,
) -> io::Result<ClientTally> {
    let mut rng = client_rng(opts.seed, index);
    let mut tracer = Tracer::new(opts.trace, phase.epoch, (index as u64) << 32);
    let mut tally = ClientTally::default();
    loop {
        let id = ((index as u64) << 32) | tally.attempted;
        let done = submit_one(link, ck, engine, circuit, &mut rng, &mut tracer, id)?;
        tally.attempted += 1;
        tally.bits += done.bits as u64;
        tally.latencies_s.push(done.latency_s);
        if done.completed {
            tally.runs_s.push(done.run_s);
            tally.overheads_s.push(done.latency_s - done.run_s);
        }
        if done.ok {
            tally.verified += 1;
            tally.bootstraps += circuit.bootstraps as u64;
        }
        tally.last_outcome = Some(done.outcome);
        if !phase.go_on(index, &tally.latencies_s) {
            break;
        }
    }
    tally.spans = tracer.into_spans();
    Ok(tally)
}

/// The end-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("bootstraps_per_s", "1/s"),
    ("circuits_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("light_latency_p50_ms", "ms"),
    ("light_latency_tail_ms", "ms"),
    ("cpu_s_per_bootstrap", "s"),
    ("upload_bytes_per_bit", "B/bit"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics `(layer.metric, unit)`, as `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("fft.forward_us", "us"),
    ("fft.inverse_us", "us"),
    ("fft.transforms_per_gate", "count"),
    ("tgsw.external_product_us", "us"),
    ("bku.build_bundle_us", "us"),
    ("bku.key_mb", "MiB"),
    ("bootstrap.blind_rotate_ms", "ms"),
    ("bootstrap.steps", "count"),
    ("keyswitch.switch_us", "us"),
    ("gates.apply_ms", "ms"),
    ("gates.share.fft", "fraction"),
    ("gates.share.bundle", "fraction"),
    ("gates.share.keyswitch", "fraction"),
    ("gates.share.other", "fraction"),
    ("circuit.sequential_s", "s"),
    ("circuit.pool1_s", "s"),
    ("circuit.pool2_s", "s"),
    ("circuit.waves", "count"),
    ("circuit.bootstraps", "count"),
    ("accel.predicted_s", "s"),
    ("accel.predicted_over_pool2", "ratio"),
    ("server.run_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.utilization", "fraction"),
    ("server.tasks_per_dispatch", "count"),
    ("server.dispatches", "count"),
    ("server.rejected", "count"),
    ("server.faulted", "count"),
    ("server.restarts", "count"),
    ("analyze.analyze_ms", "ms"),
    ("analyze.simplify_ms", "ms"),
    ("analyze.equiv_ms", "ms"),
    ("analyze.bdd_nodes", "count"),
    ("packing.pack_ms", "ms"),
    ("packing.extract_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("session.upload_bytes", "B"),
    ("session.download_bytes", "B"),
    ("check.gate_residual", "fraction"),
    ("check.circuit_residual", "fraction"),
    ("check.latency_residual", "fraction"),
];

/// Bytes a link has written and read so far (zero for in-process links).
fn link_bytes(link: &Link) -> (u64, u64) {
    match link {
        Link::Local(_) => (0, 0),
        Link::Wire { meter, .. } => (
            meter.up.load(Ordering::Relaxed),
            meter.down.load(Ordering::Relaxed),
        ),
    }
}

/// For an in-process client, the framed size (4-byte length prefix plus
/// codec message) of its per-LWE submission and of its last outcome:
/// what the same exchange would put on a wire.
fn local_frame_bytes(
    circuit: &Circuit,
    params: &ParameterSet,
    outcome: Option<&SessionOutcome>,
) -> (f64, f64) {
    let inputs = vec![
        LweCiphertext::trivial(Torus32::ZERO, params.lwe_dimension);
        circuit.spec.input_bits()
    ];
    let submit = SubmitCircuit {
        netlist: circuit.net.clone(),
        inputs: SessionInputs::Lwe(inputs),
    };
    let down = outcome.map_or(0, |outcome| {
        OutcomeFrame {
            id: 0,
            outcome: outcome.clone(),
        }
        .to_bytes()
        .len()
            + 4
    });
    ((submit.to_bytes().len() + 4) as f64, down as f64)
}
