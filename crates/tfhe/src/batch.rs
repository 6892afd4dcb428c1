//! Batched gate evaluation across OS threads.
//!
//! The paper's throughput metric (Figure 10) assumes many independent
//! gates in flight — MATCHA runs 8 bootstrapping pipelines, the GPU
//! batches ciphertexts, and the CPU baseline uses its 8 cores. This module
//! is the software counterpart, in two forms:
//!
//! * [`run_gate_batch`] shards one batch over scoped workers, each holding
//!   a private [`BootstrapScratch`] so every gate after its first runs
//!   allocation-free;
//! * [`GateBatchPool`] keeps those workers (and their warmed scratches)
//!   **alive across batches** — the software analogue of MATCHA's eight
//!   always-resident bootstrapping pipelines, and the fix for the seed
//!   implementation's spawn-per-call sharding. Each worker takes a
//!   **chunk** of up to [`MAX_LANES`] bootstrap lanes and runs it in
//!   lockstep ([`SlabTask::apply_lockstep_into`]), streaming every
//!   bootstrapping-key group and key-switching block once per chunk
//!   instead of once per gate.
//!
//! Pool tasks pass operands **by index** into a shared [`ValueSlab`]
//! rather than cloning ciphertexts into every task: a [`SlabTask`] binds a
//! [`GateTask`] (node indices only) to the slab it reads from and the slot
//! it writes to, and one [`GateBatchPool::run_tasks`] dispatch may mix
//! tasks over several circuits' slabs — which is how the circuit server
//! interleaves every in-flight circuit's ready wave into one batch.

use crate::faults::{FaultAction, FaultPlan};
use crate::gates::{fold_mux, Gate, ServerKey};
use crate::lwe::LweCiphertext;
use crate::scratch::BootstrapScratch;
use matcha_fft::FftEngine;
use matcha_math::Torus32;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A write-once slab of ciphertext values shared between a dispatcher and
/// the pool workers — one slot per circuit node. Operands are passed **by
/// index** into the slab instead of being cloned into every task, so a
/// wave of gates reading the same value shares one ciphertext. Each slot
/// is set exactly once (by the dispatcher for sources and free `NOT`s, by
/// the worker that evaluated the node otherwise) and read only after the
/// dependency order guarantees it is present.
pub struct ValueSlab {
    slots: Box<[OnceLock<LweCiphertext>]>,
    /// Circuit identity for fault scripting: the
    /// [`CircuitServer`](crate::server::CircuitServer) tags each admitted
    /// circuit's slab with its admission sequence number, so a
    /// [`FaultPlan`] can address "node `n` of the `k`-th admitted
    /// circuit" deterministically. Standalone slabs are tag 0.
    tag: u64,
}

impl ValueSlab {
    /// A slab of `len` empty slots, tagged 0.
    pub fn new(len: usize) -> Self {
        Self::tagged(len, 0)
    }

    /// A slab of `len` empty slots carrying a circuit `tag` — the key
    /// [`FaultPlan`] sites match on.
    pub fn tagged(len: usize, tag: u64) -> Self {
        Self {
            slots: (0..len).map(|_| OnceLock::new()).collect(),
            tag,
        }
    }

    /// The circuit tag fault sites are keyed by.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the slab has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Stores the value of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`, or if the slot was already
    /// written — every node's value is computed exactly once.
    pub fn set(&self, index: usize, value: LweCiphertext) {
        assert!(
            self.slots[index].set(value).is_ok(),
            "value slot {index} written twice"
        );
    }

    /// The value of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`, or if the slot has not been
    /// written — an operand referenced before its wave completed.
    pub fn get(&self, index: usize) -> &LweCiphertext {
        self.slots[index]
            .get()
            .unwrap_or_else(|| panic!("value slot {index} not yet computed"))
    }

    /// The value of node `index`, if already computed.
    pub fn try_get(&self, index: usize) -> Option<&LweCiphertext> {
        self.slots[index].get()
    }

    /// Moves the value out of slot `index` (requires unique ownership of
    /// the slab, i.e. after every worker dropped its handle).
    pub fn take(&mut self, index: usize) -> Option<LweCiphertext> {
        self.slots[index].take()
    }
}

/// One heterogeneous unit of pool work: any gate the circuit layer emits,
/// with **by-index operands** — the fields are node indices into the
/// [`ValueSlab`] the task is dispatched against, not owned ciphertexts.
/// A wave of a [`CircuitNetlist`](crate::circuit::CircuitNetlist) is a
/// mixed batch of these, dispatched with [`GateBatchPool::run_tasks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateTask {
    /// A two-input bootstrapped gate (one bootstrap + key switch).
    Binary {
        /// The gate to evaluate.
        gate: Gate,
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
    /// Free negation — no bootstrap.
    Not {
        /// The operand node.
        a: usize,
    },
    /// `sel ? a : b` — two bootstraps + one key switch.
    Mux {
        /// The selector node.
        sel: usize,
        /// Node taken when `sel` is true.
        a: usize,
        /// Node taken when `sel` is false.
        b: usize,
    },
}

impl GateTask {
    /// Evaluates the task into `out` through `scratch`, reading operands
    /// from `slab` by index — the worker inner loop of the pool.
    /// Allocation-free once the scratch and `out` are warmed, for every
    /// variant: operands are borrowed from the slab, never cloned.
    ///
    /// # Panics
    ///
    /// Panics if an operand slot has not been computed yet.
    pub fn apply_into<E: FftEngine>(
        &self,
        server: &ServerKey<E>,
        slab: &ValueSlab,
        out: &mut LweCiphertext,
        scratch: &mut BootstrapScratch<E>,
    ) {
        match *self {
            GateTask::Binary { gate, a, b } => {
                server.apply_into(gate, slab.get(a), slab.get(b), out, scratch)
            }
            GateTask::Not { a } => server.not_into(slab.get(a), out),
            GateTask::Mux { sel, a, b } => {
                server.mux_into(slab.get(sel), slab.get(a), slab.get(b), out, scratch)
            }
        }
    }
}

impl GateTask {
    /// Bootstrap lanes the task occupies in a lockstep chunk: 1 for a
    /// binary gate, 2 for a mux, 0 for a free `NOT`.
    pub fn lanes(&self) -> usize {
        match self {
            GateTask::Binary { .. } => 1,
            GateTask::Mux { .. } => 2,
            GateTask::Not { .. } => 0,
        }
    }
}

/// One dispatchable task: a by-index [`GateTask`] bound to the slab its
/// indices refer to, plus the node slot its result is stored at. Batches
/// may freely mix tasks over *different* slabs — that is how the server
/// interleaves waves of several in-flight circuits into one dispatch.
#[derive(Clone)]
pub struct SlabTask {
    /// The value slab `task`'s indices point into.
    pub slab: Arc<ValueSlab>,
    /// Slot the result is stored at ([`ValueSlab::set`] by the worker).
    pub node: usize,
    /// The gate work itself.
    pub task: GateTask,
}

impl SlabTask {
    /// Evaluates a chunk of independent tasks **in lockstep** into
    /// `outs[i]`, one bootstrap lane per binary gate and two per mux: all
    /// lanes blind-rotate together
    /// ([`BootstrapKit::blind_rotate_lockstep_assign`](crate::bootstrap::BootstrapKit::blind_rotate_lockstep_assign)),
    /// so each bootstrapping-key group is streamed once per chunk instead
    /// of once per bootstrap, and every key switch of the chunk shares one
    /// walk of the key-switching key. `lanes` grows on demand to the
    /// chunk's lane count and is reused across chunks, so a warmed call
    /// allocates nothing. Every output is bit-identical to evaluating its
    /// task alone with [`GateTask::apply_into`].
    ///
    /// # Panics
    ///
    /// Panics if `outs` is shorter than `chunk`, or if any task panics
    /// (a missing or malformed operand) — the whole chunk then has no
    /// defined output; the pool re-runs such a chunk task by task.
    pub fn apply_lockstep_into<E: FftEngine>(
        chunk: &[SlabTask],
        server: &ServerKey<E>,
        outs: &mut [LweCiphertext],
        lanes: &mut Vec<BootstrapScratch<E>>,
    ) {
        assert!(outs.len() >= chunk.len(), "one output buffer per task");
        let heads = chunk.iter().filter(|st| st.task.lanes() > 0).count();
        let used = chunk.iter().map(|st| st.task.lanes()).sum::<usize>();
        while lanes.len() < used {
            lanes.push(server.make_scratch());
        }
        // Lanes [0, heads) carry one bootstrap per task and end in its key
        // switch; each mux's second bootstrap rides in a tail lane after
        // them.
        let (head_lanes, tail_lanes) = lanes[..used].split_at_mut(heads);
        let (mut h, mut t) = (0, 0);
        for st in chunk {
            let slab = &st.slab;
            match st.task {
                GateTask::Binary { gate, a, b } => {
                    server.load_lane(gate, slab.get(a), slab.get(b), &mut head_lanes[h]);
                    h += 1;
                }
                GateTask::Mux { sel, a, b } => {
                    let sel = slab.get(sel);
                    server.load_lane(Gate::And, sel, slab.get(a), &mut head_lanes[h]);
                    server.load_lane(Gate::AndNY, sel, slab.get(b), &mut tail_lanes[t]);
                    h += 1;
                    t += 1;
                }
                GateTask::Not { .. } => {}
            }
        }
        server.bootstrap_lanes(&mut lanes[..used]);
        let (head_lanes, tail_lanes) = lanes[..used].split_at_mut(heads);
        let boots = chunk.iter().filter(|st| st.task.lanes() > 0);
        let muxes = boots
            .zip(head_lanes.iter_mut())
            .filter(|(st, _)| st.task.lanes() == 2);
        for ((_, head), tail) in muxes.zip(tail_lanes.iter()) {
            fold_mux(&mut head.extracted, &tail.extracted);
        }
        server
            .kit()
            .key_switch_key()
            .switch_lockstep_into(head_lanes);
        let mut switched = lanes.iter().map(|lane| &lane.switched);
        for (st, out) in chunk.iter().zip(outs.iter_mut()) {
            match st.task {
                GateTask::Not { a } => server.not_into(st.slab.get(a), out),
                _ => out.copy_from(switched.next().expect("one head lane per task")),
            }
        }
    }
}

/// Per-batch outcome of [`GateBatchPool::run_tasks`]. Successes are not
/// listed — a task that does not appear in `failures` has stored its
/// result in its slab slot.
#[derive(Clone, Debug)]
pub struct DispatchResult {
    /// `(batch index, panic message)` for every task that panicked in a
    /// worker, ascending by index. Failures are *per task*: the rest of
    /// the batch still completes, so a dispatcher interleaving several
    /// circuits can fault only the circuit that owns the failing task.
    pub failures: Vec<(usize, String)>,
    /// Wall-clock seconds for the whole batch.
    pub elapsed_s: f64,
    /// Worker threads serving the batch.
    pub threads: usize,
}

/// The result of a batched run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Gate outputs, in input order.
    pub outputs: Vec<LweCiphertext>,
    /// Wall-clock seconds for the whole batch.
    pub elapsed_s: f64,
    /// Achieved throughput in gates per second.
    pub gates_per_second: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl BatchResult {
    /// Throughput of `gates` outputs over `elapsed_s` seconds.
    ///
    /// Well-defined on the whole domain: an empty batch is 0 gates/s, and a
    /// zero (or sub-tick) elapsed time — possible on coarse clocks when the
    /// batch is trivially small — is clamped to one nanosecond, the
    /// resolution of [`Instant`], so the result is finite ("at least this
    /// fast") instead of `f64::INFINITY`.
    pub fn throughput(gates: usize, elapsed_s: f64) -> f64 {
        if gates == 0 {
            0.0
        } else {
            gates as f64 / elapsed_s.max(1e-9)
        }
    }
}

fn finish_batch(outputs: Vec<LweCiphertext>, t0: Instant, threads: usize) -> BatchResult {
    let elapsed_s = t0.elapsed().as_secs_f64();
    let gates_per_second = BatchResult::throughput(outputs.len(), elapsed_s);
    BatchResult {
        outputs,
        elapsed_s,
        gates_per_second,
        threads,
    }
}

/// Renders a worker panic payload for re-raising on the submitter's thread.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates the same two-input gate over a batch of independent operand
/// pairs, sharded across `threads` scoped workers. Each worker owns one
/// bootstrap scratch for the whole batch, so per-gate heap traffic is
/// limited to the output ciphertexts.
///
/// For repeated batches against the same key, prefer [`GateBatchPool`],
/// which keeps workers and warmed scratches alive between calls.
///
/// # Panics
///
/// Panics if `threads` is 0.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::{batch, ClientKey, Gate, ParameterSet, ServerKey};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let server = ServerKey::new(&client, F64Fft::new(1024), &mut rng);
/// let pairs: Vec<_> = (0..16)
///     .map(|i| (client.encrypt(i % 2 == 0), client.encrypt(i % 3 == 0)))
///     .collect();
/// let result = batch::run_gate_batch(&server, Gate::Nand, &pairs, 8);
/// println!("{:.0} gates/s", result.gates_per_second);
/// ```
pub fn run_gate_batch<E>(
    server: &ServerKey<E>,
    gate: Gate,
    pairs: &[(LweCiphertext, LweCiphertext)],
    threads: usize,
) -> BatchResult
where
    E: FftEngine + Sync,
    E::Spectrum: Sync,
{
    assert!(threads > 0, "need at least one worker");
    let t0 = Instant::now();
    if pairs.is_empty() {
        // No work: `pairs.chunks(0)` below would panic, and spawning
        // workers for nothing is pointless. Report an empty batch.
        return finish_batch(Vec::new(), t0, 0);
    }
    let threads = threads.min(pairs.len());
    let chunk = pairs.len().div_ceil(threads);
    let mut outputs: Vec<Option<LweCiphertext>> = vec![None; pairs.len()];

    std::thread::scope(|scope| {
        let mut remaining: &mut [Option<LweCiphertext>] = &mut outputs;
        for work in pairs.chunks(chunk) {
            let (slot, rest) = remaining.split_at_mut(work.len());
            remaining = rest;
            scope.spawn(move || {
                // One scratch and one output buffer per worker: the first
                // gate warms them, the rest of the chunk reuses them.
                let mut scratch = server.make_scratch();
                let mut out = LweCiphertext::trivial(Torus32::ZERO, server.params().lwe_dimension);
                for ((a, b), out_slot) in work.iter().zip(slot.iter_mut()) {
                    server.apply_into(gate, a, b, &mut out, &mut scratch);
                    *out_slot = Some(out.clone());
                }
            });
        }
    });

    let outputs: Vec<LweCiphertext> = outputs
        .into_iter()
        .map(|o| o.expect("worker filled every slot"))
        .collect();
    finish_batch(outputs, t0, threads)
}

/// Most bootstrap lanes one worker runs in lockstep. Eight lanes of m=3
/// bundles (≈98 KB each at MATCHA's parameters) plus the ≈688 KB key group
/// streaming through them fit a 2 MiB L2.
pub const MAX_LANES: usize = 8;

/// Lanes per chunk for a dispatch of `lanes` bootstrap lanes over
/// `threads` workers: `⌈lanes / threads⌉`, capped at [`MAX_LANES`] — and,
/// past the cap, evened out so every worker gets the same number of
/// chunks.
fn chunk_lanes(lanes: usize, threads: usize) -> usize {
    let chunks = lanes
        .div_ceil(MAX_LANES)
        .next_multiple_of(threads)
        .max(threads);
    lanes.div_ceil(chunks).max(1)
}

/// The reply end of a dispatch round: `(batch index, result)` per task.
type Reply = mpsc::Sender<(usize, Result<(), String>)>;

/// One queued unit of pool work: a chunk of by-index tasks the worker
/// evaluates in lockstep, their batch indices, and a reply channel. Each
/// task gets its own reply, carrying `Err(panic message)` when it failed,
/// so a failure is reported on the dispatching thread instead of killing
/// the worker; on `Ok` the result is already stored in `slab[node]`.
///
/// Field order is drop order: the slab handles go before the reply
/// sender, so once a dispatcher sees its reply channel disconnect, no
/// worker still holds any of its slabs.
struct Job {
    tasks: Vec<SlabTask>,
    indices: Vec<usize>,
    reply: Reply,
}

/// A persistent gate-evaluation worker pool sharing one [`ServerKey`].
///
/// Workers are spawned once and hold their warmed lane
/// [`BootstrapScratch`]es across an arbitrary number of
/// [`GateBatchPool::run`] calls; lockstep chunks are pulled from a shared
/// queue, so uneven chunk latencies balance automatically. Dropping the
/// pool shuts the workers down.
///
/// # Examples
///
/// ```no_run
/// use matcha_tfhe::{batch::GateBatchPool, ClientKey, Gate, ParameterSet, ServerKey};
/// use matcha_fft::F64Fft;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let client = ClientKey::generate(ParameterSet::MATCHA, &mut rng);
/// let server = Arc::new(ServerKey::new(&client, F64Fft::new(1024), &mut rng));
/// let pool = GateBatchPool::new(server, 8);
/// let pairs: Vec<_> = (0..16)
///     .map(|i| (client.encrypt(i % 2 == 0), client.encrypt(i % 3 == 0)))
///     .collect();
/// // Both batches reuse the same warmed workers.
/// let nand = pool.run(Gate::Nand, &pairs);
/// let xor = pool.run(Gate::Xor, &pairs);
/// println!("{:.0} / {:.0} gates/s", nand.gates_per_second, xor.gates_per_second);
/// ```
pub struct GateBatchPool<E>
where
    E: FftEngine + Send + Sync + 'static,
{
    tx: Option<mpsc::Sender<Job>>,
    /// The pool keeps its own handle on the job queue's receiving end so
    /// (a) sending never fails even if every worker died, and (b) healed
    /// workers can be attached to the same queue.
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    /// Interior mutability so [`GateBatchPool::heal`] can respawn dead
    /// workers from `&self` (dispatchers hold the pool by shared ref).
    /// Indexed by worker slot.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Slots of workers that died and are not yet respawned, reported by
    /// each worker's [`WorkerLife`] guard.
    deaths: Arc<Mutex<Vec<usize>>>,
    threads: usize,
    server: Arc<ServerKey<E>>,
    faults: Option<Arc<FaultPlan>>,
    restarts: AtomicU64,
}

/// A worker's life: reports its death — on return and unwind alike —
/// *before* releasing the job it held, so a dispatcher that sees the job's
/// reply channel disconnect always finds the death already reported.
struct WorkerLife {
    slot: usize,
    deaths: Arc<Mutex<Vec<usize>>>,
    /// The chunk being evaluated; dropped after the death report.
    job: Option<Job>,
    /// Set when the queue closed: a shutdown, not a death.
    clean_exit: bool,
}

impl Drop for WorkerLife {
    fn drop(&mut self) {
        if !self.clean_exit {
            self.deaths
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(self.slot);
        }
    }
}

/// One persistent worker: pulls chunks off the shared queue, evaluates each
/// in lockstep through its warmed lane scratches, stores results in the
/// tasks' slabs and replies per task. Extracted as a free function so
/// [`GateBatchPool::heal`] can respawn a replacement into the same `slot`,
/// attached to the same queue.
fn spawn_worker<E>(
    slot: usize,
    server: Arc<ServerKey<E>>,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    faults: Option<Arc<FaultPlan>>,
    deaths: Arc<Mutex<Vec<usize>>>,
) -> JoinHandle<()>
where
    E: FftEngine + Send + Sync + 'static,
{
    std::thread::spawn(move || {
        let mut life = WorkerLife {
            slot,
            deaths,
            job: None,
            clean_exit: false,
        };
        // Lane scratches grow on demand up to the largest chunk seen.
        let mut lanes: Vec<BootstrapScratch<E>> = Vec::new();
        let mut outs: Vec<LweCiphertext> = Vec::new();
        loop {
            // Hold the lock only to pull the next job. A poisoned lock is
            // recovered rather than cascaded: the queue itself is never
            // left in a torn state by a panicking worker (jobs are popped
            // whole).
            let job = { rx.lock().unwrap_or_else(PoisonError::into_inner).recv() };
            let Ok(job) = job else {
                life.clean_exit = true;
                break;
            };
            let job = life.job.insert(job);
            if !run_job(&server, faults.as_deref(), job, &mut lanes, &mut outs) {
                // Death outside the per-task isolation: the thread exits
                // holding the chunk, so its replies are dropped unanswered
                // — exactly what a stack overflow or foreign abort looks
                // like from the dispatcher's side. `life` reports the
                // death; run_tasks heals the pool and retries the chunk.
                return;
            }
            life.job = None;
        }
    })
}

/// Runs one chunk. Scripted fault sites are consumed first, one-shot per
/// `(tag, node)`: a `Panic` fails only its own task, a `Delay` delays only
/// its own task (it runs alone after the rest of the chunk), and a
/// `KillWorker` loses the chunk — returns `false`, and the worker dies.
fn run_job<E: FftEngine>(
    server: &ServerKey<E>,
    faults: Option<&FaultPlan>,
    job: &Job,
    lanes: &mut Vec<BootstrapScratch<E>>,
    outs: &mut Vec<LweCiphertext>,
) -> bool {
    let Job {
        tasks,
        indices,
        reply,
    } = job;
    let Some(plan) = faults else {
        run_lockstep(server, tasks, indices, reply, lanes, outs);
        return true;
    };
    let (mut clean, mut delayed) = (Vec::new(), Vec::new());
    for (pos, st) in tasks.iter().enumerate() {
        match plan.take(st.slab.tag(), st.node) {
            Some(FaultAction::KillWorker) => return false,
            Some(FaultAction::Panic) => {
                let msg = format!(
                    "injected fault: task for node {} panicked in its worker",
                    st.node
                );
                let _ = reply.send((indices[pos], Err(msg)));
            }
            Some(FaultAction::Delay(d)) => delayed.push((pos, d)),
            None => clean.push(pos),
        }
    }
    let clean_tasks: Vec<SlabTask> = clean.iter().map(|&pos| tasks[pos].clone()).collect();
    let clean_indices: Vec<usize> = clean.iter().map(|&pos| indices[pos]).collect();
    run_lockstep(server, &clean_tasks, &clean_indices, reply, lanes, outs);
    for (pos, d) in delayed {
        std::thread::sleep(d);
        run_lockstep(
            server,
            &tasks[pos..=pos],
            &indices[pos..=pos],
            reply,
            lanes,
            outs,
        );
    }
    true
}

/// Evaluates `tasks` in lockstep, stores each result in its slab and
/// replies per task. Panic isolation: a genuine panic anywhere in the
/// chunk (e.g. a mismatched-dimension operand) re-runs its tasks one by
/// one, each under its own `catch_unwind`, so only the offending task
/// fails and this worker keeps serving. The lane scratches stay
/// structurally valid across an unwind — every load re-sizes its buffers
/// — hence the `AssertUnwindSafe`.
fn run_lockstep<E: FftEngine>(
    server: &ServerKey<E>,
    tasks: &[SlabTask],
    indices: &[usize],
    reply: &Reply,
    lanes: &mut Vec<BootstrapScratch<E>>,
    outs: &mut Vec<LweCiphertext>,
) {
    if tasks.is_empty() {
        return;
    }
    if outs.len() < tasks.len() {
        let n = server.params().lwe_dimension;
        outs.resize_with(tasks.len(), || LweCiphertext::trivial(Torus32::ZERO, n));
    }
    let whole = catch_unwind(AssertUnwindSafe(|| {
        SlabTask::apply_lockstep_into(tasks, server, outs, lanes)
    }));
    match whole {
        Ok(()) => {
            for ((st, out), &index) in tasks.iter().zip(outs.iter()).zip(indices) {
                let stored = catch_unwind(AssertUnwindSafe(|| st.slab.set(st.node, out.clone())));
                // The receiver may have given up (run() panicked);
                // dropping the result is then the right behavior.
                let _ = reply.send((index, stored.map_err(panic_message)));
            }
        }
        Err(payload) if tasks.len() == 1 => {
            let _ = reply.send((indices[0], Err(panic_message(payload))));
        }
        Err(_) => {
            for i in 0..tasks.len() {
                run_lockstep(server, &tasks[i..=i], &indices[i..=i], reply, lanes, outs);
            }
        }
    }
}

impl<E> GateBatchPool<E>
where
    E: FftEngine + Send + Sync + 'static,
{
    /// Spawns `threads` persistent workers over a shared server key.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn new(server: Arc<ServerKey<E>>, threads: usize) -> Self {
        Self::build(server, threads, None)
    }

    /// Like [`GateBatchPool::new`], but with a scripted [`FaultPlan`]
    /// wired into every worker — the deterministic fault-injection
    /// harness the robustness tests drive. Production pools use
    /// [`GateBatchPool::new`]; a faultless plan behaves identically
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn with_faults(server: Arc<ServerKey<E>>, threads: usize, faults: Arc<FaultPlan>) -> Self {
        Self::build(server, threads, Some(faults))
    }

    fn build(server: Arc<ServerKey<E>>, threads: usize, faults: Option<Arc<FaultPlan>>) -> Self {
        assert!(threads > 0, "need at least one worker");
        let (tx, rx) = mpsc::channel::<Job>();
        let mut pool = Self {
            tx: Some(tx),
            rx: Arc::new(Mutex::new(rx)),
            workers: Mutex::new(Vec::with_capacity(threads)),
            deaths: Arc::default(),
            threads,
            server,
            faults,
            restarts: AtomicU64::new(0),
        };
        let workers = (0..threads).map(|slot| pool.spawn(slot)).collect();
        pool.workers = Mutex::new(workers);
        pool
    }

    /// Spawns the worker for `slot` on the shared queue.
    fn spawn(&self, slot: usize) -> JoinHandle<()> {
        spawn_worker(
            slot,
            Arc::clone(&self.server),
            Arc::clone(&self.rx),
            self.faults.clone(),
            Arc::clone(&self.deaths),
        )
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers respawned after dying outside the per-task panic isolation
    /// (see [`GateBatchPool::heal`]). 0 in healthy operation.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Self-healing: joins every worker that reported its death (an exit
    /// outside the per-task `catch_unwind` — in production a stack
    /// overflow or foreign abort, in tests [`FaultAction::KillWorker`])
    /// and respawns a replacement with fresh scratches into its slot on
    /// the same job queue, so the pool never silently loses capacity.
    /// Returns how many workers were respawned; each bumps
    /// [`GateBatchPool::restarts`]. A worker reports its death before it
    /// releases its chunk, so when [`GateBatchPool::run_tasks`] finds a
    /// reply missing and calls this, the death is already on record.
    /// Cheap (one lock) when nothing died.
    pub fn heal(&self) -> usize {
        let dead = std::mem::take(&mut *self.deaths.lock().unwrap_or_else(PoisonError::into_inner));
        if dead.is_empty() {
            return 0;
        }
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for &slot in &dead {
            let gone = std::mem::replace(&mut workers[slot], self.spawn(slot));
            let _ = gone.join();
            self.restarts.fetch_add(1, Ordering::Relaxed);
        }
        dead.len()
    }

    /// The shared server key the workers evaluate under.
    pub fn server(&self) -> &ServerKey<E> {
        &self.server
    }

    /// Evaluates `gate` over all pairs on the persistent workers, returning
    /// outputs in input order. A convenience wrapper over
    /// [`GateBatchPool::run_tasks`] for the homogeneous binary-gate case:
    /// operands are staged into a throwaway [`ValueSlab`] and the outputs
    /// moved back out of it.
    ///
    /// # Panics
    ///
    /// Panics (on this thread, with the pool left healthy) if any job
    /// panicked in a worker.
    pub fn run(&self, gate: Gate, pairs: &[(LweCiphertext, LweCiphertext)]) -> BatchResult {
        let t0 = Instant::now();
        if pairs.is_empty() {
            // Same contract as `run_gate_batch`: an empty batch is a valid
            // request that produces an empty result, not a panic.
            return finish_batch(Vec::new(), t0, 0);
        }
        let n = pairs.len();
        // Slots 0..n hold the left operands, n..2n the right, 2n..3n the
        // outputs.
        let slab = ValueSlab::new(3 * n);
        for (i, (a, b)) in pairs.iter().enumerate() {
            slab.set(i, a.clone());
            slab.set(n + i, b.clone());
        }
        let slab = Arc::new(slab);
        let batch: Vec<SlabTask> = (0..n)
            .map(|i| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 * n + i,
                task: GateTask::Binary {
                    gate,
                    a: i,
                    b: n + i,
                },
            })
            .collect();
        let dispatch = self.run_tasks(&batch);
        // The batch has fully drained either way; re-raise the
        // lowest-index failure so the panic is deterministic.
        if let Some((index, msg)) = dispatch.failures.first() {
            panic!("pool task {index} panicked in a worker: {msg}");
        }
        drop(batch);
        let mut slab = Arc::try_unwrap(slab)
            .ok()
            .expect("batch drained: no worker still holds the slab");
        let outputs: Vec<LweCiphertext> = (0..n)
            .map(|i| slab.take(2 * n + i).expect("worker stored every output"))
            .collect();
        finish_batch(outputs, t0, self.threads)
    }

    /// Dispatches a heterogeneous batch — any mix of binary gates, free
    /// negations and muxes, possibly spanning **several circuits' slabs**
    /// — onto the persistent workers, blocking until every task has been
    /// answered. Each task reads its operands from its slab by index and
    /// stores its result at `node`; nothing is cloned per operand. This is
    /// the form circuit waves are dispatched in: the server fills one
    /// `run_tasks` call with the ready frontier of every in-flight
    /// circuit, and the warmed per-worker scratches keep each task
    /// allocation-free.
    ///
    /// Operands must already be present in their slabs when the batch is
    /// dispatched — tasks within one batch must not depend on each other.
    ///
    /// A task that panics in a worker (e.g. mismatched operand dimensions)
    /// is reported in [`DispatchResult::failures`] rather than raised:
    /// workers survive, nothing is poisoned, the rest of the batch still
    /// completes, and the dispatcher decides which circuit the failure
    /// faults.
    ///
    /// A worker that *dies* mid-batch (exit outside the per-task panic
    /// isolation) is detected by its lost reply, respawned via
    /// [`GateBatchPool::heal`], and the lost task retried once on the
    /// healed pool; only a task lost twice is reported as a failure. The
    /// batch therefore still completes after any single worker death.
    pub fn run_tasks(&self, tasks: &[SlabTask]) -> DispatchResult {
        let t0 = Instant::now();
        if tasks.is_empty() {
            return DispatchResult {
                failures: Vec::new(),
                elapsed_s: t0.elapsed().as_secs_f64(),
                threads: 0,
            };
        }
        let mut done = vec![false; tasks.len()];
        let mut failures: Vec<(usize, String)> = Vec::new();
        let all: Vec<usize> = (0..tasks.len()).collect();
        self.dispatch_round(tasks, &all, &mut done, &mut failures);
        // An index with no reply lost its chunk inside a dying worker (the
        // job — and its reply sender — were dropped unanswered). The dead
        // worker reported itself before releasing the job, so heal()
        // respawns it before the retry round. Retry those tasks once: a
        // scripted KillWorker was
        // consumed when it fired, so the retry runs clean, and a genuine
        // repeat offender is reported instead of retried forever.
        let missing: Vec<usize> = (0..tasks.len()).filter(|&i| !done[i]).collect();
        if !missing.is_empty() {
            self.heal();
            self.dispatch_round(tasks, &missing, &mut done, &mut failures);
            for index in (0..tasks.len()).filter(|&i| !done[i]) {
                failures.push((
                    index,
                    "worker died while executing this task (twice; giving up)".to_string(),
                ));
            }
        }
        failures.sort_unstable_by_key(|&(index, _)| index);
        DispatchResult {
            failures,
            elapsed_s: t0.elapsed().as_secs_f64(),
            threads: self.threads,
        }
    }

    /// Sends the tasks at `indices` as lockstep chunks of at most
    /// [`chunk_lanes`] bootstrap lanes each (tasks in batch order, a mux
    /// never split) and drains their replies until every job of this round
    /// is accounted for: answered, or dropped by a dying worker (each job
    /// holds a reply sender, so the reply channel disconnects exactly when
    /// no job of the round is queued or running any more). The timeout arm
    /// covers the one case disconnection cannot: every worker dead with
    /// jobs still sitting in the queue — those queued jobs keep the reply
    /// channel open forever, so a quiet stretch triggers a heal, which is
    /// one lock when nothing died and restarts the drain when something
    /// did.
    fn dispatch_round(
        &self,
        tasks: &[SlabTask],
        indices: &[usize],
        done: &mut [bool],
        failures: &mut Vec<(usize, String)>,
    ) {
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("pool is live");
        let budget = chunk_lanes(
            indices.iter().map(|&i| tasks[i].task.lanes()).sum(),
            self.threads,
        );
        let mut start = 0;
        while start < indices.len() {
            let mut end = start;
            let mut lanes = 0;
            while end < indices.len() {
                let more = tasks[indices[end]].task.lanes();
                if end > start && lanes + more > budget {
                    break;
                }
                lanes += more;
                end += 1;
            }
            let chunk = &indices[start..end];
            tx.send(Job {
                tasks: chunk.iter().map(|&i| tasks[i].clone()).collect(),
                indices: chunk.to_vec(),
                reply: reply_tx.clone(),
            })
            .expect("pool holds the queue receiver, sends cannot fail");
            start = end;
        }
        drop(reply_tx);
        loop {
            match reply_rx.recv_timeout(Duration::from_millis(25)) {
                Ok((index, result)) => {
                    done[index] = true;
                    if let Err(msg) = result {
                        failures.push((index, msg));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.heal();
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
}

impl<E> Drop for GateBatchPool<E>
where
    E: FftEngine + Send + Sync + 'static,
{
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.tx.take());
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParameterSet;
    use crate::secret::ClientKey;
    use matcha_fft::{ApproxIntFft, F64Fft};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type EncryptedPairs = Vec<(crate::LweCiphertext, crate::LweCiphertext)>;

    fn inputs(
        client: &ClientKey,
        rng: &mut StdRng,
        count: usize,
    ) -> (Vec<(bool, bool)>, EncryptedPairs) {
        let plain: Vec<(bool, bool)> = (0..count).map(|i| (i % 2 == 0, i % 3 == 0)).collect();
        let enc = plain
            .iter()
            .map(|&(a, b)| (client.encrypt_with(a, rng), client.encrypt_with(b, rng)))
            .collect();
        (plain, enc)
    }

    #[test]
    fn batch_outputs_match_sequential() {
        let mut rng = StdRng::seed_from_u64(81);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let (plain, enc) = inputs(&client, &mut rng, 10);
        let result = run_gate_batch(&server, Gate::Nand, &enc, 4);
        assert_eq!(result.outputs.len(), 10);
        for ((a, b), out) in plain.iter().zip(result.outputs.iter()) {
            assert_eq!(client.decrypt(out), !(a & b));
        }
        assert!(result.gates_per_second > 0.0);
    }

    #[test]
    fn single_thread_equals_multi_thread_results() {
        let mut rng = StdRng::seed_from_u64(82);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::with_unrolling(&client, ApproxIntFft::new(256, 40), 2, &mut rng);
        let (_, enc) = inputs(&client, &mut rng, 6);
        let seq = run_gate_batch(&server, Gate::Xor, &enc, 1);
        let par = run_gate_batch(&server, Gate::Xor, &enc, 3);
        for (s, p) in seq.outputs.iter().zip(par.outputs.iter()) {
            assert_eq!(client.decrypt(s), client.decrypt(p));
        }
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let mut rng = StdRng::seed_from_u64(83);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let (_, enc) = inputs(&client, &mut rng, 2);
        let result = run_gate_batch(&server, Gate::And, &enc, 16);
        assert_eq!(result.outputs.len(), 2);
        assert!(result.threads <= 2);
    }

    #[test]
    fn empty_batch_returns_empty_result() {
        let mut rng = StdRng::seed_from_u64(88);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let result = run_gate_batch(&server, Gate::Nand, &[], 4);
        assert!(result.outputs.is_empty());
        assert_eq!(result.threads, 0);
        assert_eq!(result.gates_per_second, 0.0);
    }

    #[test]
    fn pool_handles_empty_batch() {
        let mut rng = StdRng::seed_from_u64(89);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let empty = pool.run(Gate::And, &[]);
        assert!(empty.outputs.is_empty());
        assert_eq!(empty.gates_per_second, 0.0);
        // The pool is still usable for real work afterwards.
        let (plain, enc) = inputs(&client, &mut rng, 2);
        let result = pool.run(Gate::And, &enc);
        for ((a, b), out) in plain.iter().zip(result.outputs.iter()) {
            assert_eq!(client.decrypt(out), a & b);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let mut rng = StdRng::seed_from_u64(84);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = ServerKey::new(&client, F64Fft::new(256), &mut rng);
        let _ = run_gate_batch(&server, Gate::And, &[], 0);
    }

    #[test]
    fn pool_matches_plaintext_and_survives_reuse() {
        let mut rng = StdRng::seed_from_u64(85);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 8);
        let pool = GateBatchPool::new(Arc::clone(&server), 3);
        // Two batches over the same persistent workers.
        let nand = pool.run(Gate::Nand, &enc);
        let or = pool.run(Gate::Or, &enc);
        for ((a, b), (n, o)) in plain.iter().zip(nand.outputs.iter().zip(or.outputs.iter())) {
            assert_eq!(client.decrypt(n), !(a & b), "nand({a},{b})");
            assert_eq!(client.decrypt(o), a | b, "or({a},{b})");
        }
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn pool_matches_spawn_per_batch_outputs() {
        let mut rng = StdRng::seed_from_u64(86);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::with_unrolling(
            &client,
            F64Fft::new(256),
            2,
            &mut rng,
        ));
        let (_, enc) = inputs(&client, &mut rng, 5);
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let pooled = pool.run(Gate::Xor, &enc);
        let scoped = run_gate_batch(server.as_ref(), Gate::Xor, &enc, 2);
        // Bootstrapping is deterministic given the same keys, so the two
        // paths must agree exactly.
        assert_eq!(pooled.outputs, scoped.outputs);
    }

    #[test]
    fn throughput_zero_elapsed_is_finite() {
        // Sub-tick batches clamp to the 1 ns Instant resolution instead of
        // reporting f64::INFINITY.
        let r = BatchResult::throughput(5, 0.0);
        assert!(r.is_finite(), "zero-elapsed throughput must be finite");
        assert_eq!(r, 5.0e9);
        // Empty batches are 0 gates/s whatever the clock says.
        assert_eq!(BatchResult::throughput(0, 0.0), 0.0);
        assert_eq!(BatchResult::throughput(0, 1.0), 0.0);
        // The ordinary case is untouched.
        assert_eq!(BatchResult::throughput(10, 2.0), 5.0);
        // Clamping is monotone: a faster batch never reports lower.
        assert!(BatchResult::throughput(5, 1e-12) >= BatchResult::throughput(5, 1e-3));
    }

    #[test]
    fn dropping_pool_joins_all_workers() {
        let mut rng = StdRng::seed_from_u64(90);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (_, enc) = inputs(&client, &mut rng, 3);
        let pool = GateBatchPool::new(Arc::clone(&server), 3);
        let _ = pool.run(Gate::Or, &enc);
        drop(pool);
        // Every worker held a clone of the Arc; all of them having exited
        // (joined, not leaked or detached) leaves ours as the only one.
        assert_eq!(Arc::strong_count(&server), 1, "drop must join every worker");
    }

    #[test]
    fn panicking_job_poisons_nothing_and_pool_survives() {
        let mut rng = StdRng::seed_from_u64(91);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let (plain, enc) = inputs(&client, &mut rng, 4);

        // One malformed operand (wrong LWE dimension) makes its task panic
        // inside a worker; the panic must be re-raised on this thread…
        let mut bad = enc.clone();
        bad[1].0 = crate::LweCiphertext::trivial(Torus32::ZERO, 3);
        let raised = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(Gate::And, &bad)));
        let msg = panic_message(raised.expect_err("malformed batch must panic"));
        assert!(
            msg.contains("panicked in a worker"),
            "panic must identify the failing task: {msg}"
        );

        // …while the workers stay alive and unpoisoned: the same pool runs
        // the healthy batch to completion, twice, with correct outputs.
        for _ in 0..2 {
            let result = pool.run(Gate::And, &enc);
            assert_eq!(result.outputs.len(), enc.len());
            for ((a, b), out) in plain.iter().zip(result.outputs.iter()) {
                assert_eq!(client.decrypt(out), a & b);
            }
        }
        drop(pool);
        assert_eq!(
            Arc::strong_count(&server),
            1,
            "all workers must still be joinable after a job panic"
        );
    }

    #[test]
    fn mixed_task_batch_evaluates_every_kind() {
        let mut rng = StdRng::seed_from_u64(92);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        // Slots 0/1 hold the shared operands; 2..7 receive the outputs.
        // Every task reads the *same* two ciphertexts by index — nothing
        // is cloned per task.
        let slab = Arc::new(ValueSlab::new(7));
        slab.set(0, client.encrypt_with(true, &mut rng));
        slab.set(1, client.encrypt_with(false, &mut rng));
        let tasks = [
            GateTask::Binary {
                gate: Gate::Nand,
                a: 0,
                b: 0,
            },
            GateTask::Not { a: 1 },
            GateTask::Mux { sel: 0, a: 1, b: 0 },
            GateTask::Binary {
                gate: Gate::Xor,
                a: 0,
                b: 1,
            },
            GateTask::Mux { sel: 1, a: 1, b: 0 },
        ];
        let batch: Vec<SlabTask> = tasks
            .iter()
            .enumerate()
            .map(|(i, &task)| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 + i,
                task,
            })
            .collect();
        let expected = [false, true, false, true, true];
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty());
        for (i, want) in expected.into_iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 + i)), want, "task {i}");
        }
    }

    #[test]
    fn dispatch_reports_per_task_failures_and_finishes_the_rest() {
        // A failing task must not take the batch down with it: the other
        // tasks' slots are still filled, and only the failure is reported
        // — the property the interleaving scheduler's per-circuit fault
        // isolation is built on.
        let mut rng = StdRng::seed_from_u64(94);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let slab = Arc::new(ValueSlab::new(6));
        slab.set(0, client.encrypt_with(true, &mut rng));
        slab.set(1, client.encrypt_with(false, &mut rng));
        // Slot 2: right count of coefficients for nothing — wrong LWE
        // dimension, so any gate reading it panics in its worker.
        slab.set(2, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
        let batch: Vec<SlabTask> = [
            (
                3,
                GateTask::Binary {
                    gate: Gate::And,
                    a: 0,
                    b: 1,
                },
            ),
            (
                4,
                GateTask::Binary {
                    gate: Gate::Or,
                    a: 0,
                    b: 2,
                },
            ),
            (
                5,
                GateTask::Binary {
                    gate: Gate::Xor,
                    a: 0,
                    b: 1,
                },
            ),
        ]
        .into_iter()
        .map(|(node, task)| SlabTask {
            slab: Arc::clone(&slab),
            node,
            task,
        })
        .collect();
        let result = pool.run_tasks(&batch);
        assert_eq!(result.failures.len(), 1, "exactly the bad task fails");
        assert_eq!(result.failures[0].0, 1, "failure carries its batch index");
        assert!(!client.decrypt(slab.get(3)), "true AND false");
        assert!(slab.try_get(4).is_none(), "failed task stores nothing");
        assert!(client.decrypt(slab.get(5)), "true XOR false");
        // The pool survives for the next dispatch.
        let healthy = pool.run(
            Gate::And,
            &[(
                client.encrypt_with(true, &mut rng),
                client.encrypt_with(true, &mut rng),
            )],
        );
        assert!(client.decrypt(&healthy.outputs[0]));
    }

    #[test]
    fn chunk_lanes_split_evenly_under_the_cap() {
        // Up to threads·MAX_LANES lanes: ⌈lanes / threads⌉ per chunk.
        assert_eq!(chunk_lanes(3, 2), 2);
        assert_eq!(chunk_lanes(16, 2), MAX_LANES);
        assert_eq!(chunk_lanes(5, 1), 5);
        // Past the cap: every worker gets the same number of chunks.
        assert_eq!(chunk_lanes(24, 2), 6);
        assert_eq!(chunk_lanes(17, 2), 5);
        assert_eq!(chunk_lanes(100, 1), 8);
        // A NOT-only dispatch still forms chunks.
        assert_eq!(chunk_lanes(0, 2), 1);
        for lanes in 0..64 {
            for threads in 1..5 {
                assert!((1..=MAX_LANES).contains(&chunk_lanes(lanes, threads)));
            }
        }
    }

    #[test]
    fn slab_set_twice_is_rejected() {
        let slab = ValueSlab::new(2);
        assert_eq!(slab.len(), 2);
        assert!(!slab.is_empty());
        slab.set(0, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
        assert!(slab.try_get(0).is_some());
        assert!(slab.try_get(1).is_none());
        let raised = std::panic::catch_unwind(AssertUnwindSafe(|| {
            slab.set(0, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
        }));
        assert!(raised.is_err(), "double write must be rejected");
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn slab_set_out_of_range_rejected() {
        let slab = ValueSlab::new(2);
        slab.set(2, crate::LweCiphertext::trivial(Torus32::ZERO, 3));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn slab_get_out_of_range_rejected() {
        let slab = ValueSlab::new(1);
        let _ = slab.get(5);
    }

    #[test]
    fn run_delegates_to_tasks_identically() {
        let mut rng = StdRng::seed_from_u64(93);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let pool = GateBatchPool::new(Arc::clone(&server), 2);
        let (_, enc) = inputs(&client, &mut rng, 5);
        let via_run = pool.run(Gate::Xnor, &enc);
        // The same batch staged by hand on an explicit slab.
        let n = enc.len();
        let slab = Arc::new(ValueSlab::new(3 * n));
        for (i, (a, b)) in enc.iter().enumerate() {
            slab.set(i, a.clone());
            slab.set(n + i, b.clone());
        }
        let batch: Vec<SlabTask> = (0..n)
            .map(|i| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 * n + i,
                task: GateTask::Binary {
                    gate: Gate::Xnor,
                    a: i,
                    b: n + i,
                },
            })
            .collect();
        let dispatch = pool.run_tasks(&batch);
        assert!(dispatch.failures.is_empty());
        // Bootstrapping is deterministic given the keys: exact equality.
        for (i, out) in via_run.outputs.iter().enumerate() {
            assert_eq!(out, slab.get(2 * n + i), "task {i}");
        }
    }

    /// Stages `pairs` as a manual `Gate::And` batch on a tag-0 slab and
    /// returns `(slab, tasks)`; output for pair `i` lands at node
    /// `2 * len + i` — the node fault sites target.
    fn staged_and_batch(enc: &EncryptedPairs) -> (Arc<ValueSlab>, Vec<SlabTask>) {
        let n = enc.len();
        let slab = Arc::new(ValueSlab::new(3 * n));
        for (i, (a, b)) in enc.iter().enumerate() {
            slab.set(i, a.clone());
            slab.set(n + i, b.clone());
        }
        let batch = (0..n)
            .map(|i| SlabTask {
                slab: Arc::clone(&slab),
                node: 2 * n + i,
                task: GateTask::Binary {
                    gate: Gate::And,
                    a: i,
                    b: n + i,
                },
            })
            .collect();
        (slab, batch)
    }

    #[test]
    fn worker_death_heals_and_batch_completes() {
        // A scripted worker death mid-batch: the pool must notice the
        // lost reply, respawn the worker, retry the lost task, and still
        // deliver the whole batch — the tentpole self-healing guarantee.
        let mut rng = StdRng::seed_from_u64(95);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 4);
        let (slab, batch) = staged_and_batch(&enc);
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * enc.len() + 1, FaultAction::KillWorker));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 2, Arc::clone(&plan));
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(pool.restarts(), 1, "exactly the killed worker respawned");
        assert!(plan.is_spent(), "the death fired");
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
        // The healed pool keeps serving.
        let again = pool.run(Gate::Or, &enc);
        for ((a, b), out) in plain.iter().zip(again.outputs.iter()) {
            assert_eq!(client.decrypt(out), a | b);
        }
        drop(pool);
        assert_eq!(Arc::strong_count(&server), 1, "healed workers join too");
    }

    #[test]
    fn worker_death_in_a_chunk_restores_the_full_pool() {
        // A death inside a multi-task chunk is an event, not a poll: the
        // dying worker reports itself before its chunk's replies drop, so
        // by the time the dispatcher sees them missing, heal() joins and
        // replaces exactly that worker — the retry round and every later
        // dispatch run on a full pool, with no timeout involved. Repeated
        // on fresh pools to leave a race nowhere to hide.
        let mut rng = StdRng::seed_from_u64(99);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 6);
        for _ in 0..5 {
            let (slab, batch) = staged_and_batch(&enc);
            // Six lanes over two workers: two chunks of three; the kill
            // lands mid-chunk.
            let plan =
                Arc::new(FaultPlan::new().inject(0, 2 * enc.len() + 1, FaultAction::KillWorker));
            let pool = GateBatchPool::with_faults(Arc::clone(&server), 2, Arc::clone(&plan));
            let result = pool.run_tasks(&batch);
            assert!(result.failures.is_empty(), "{:?}", result.failures);
            assert!(plan.is_spent(), "the death fired");
            assert_eq!(pool.restarts(), 1, "the dead worker was replaced");
            {
                let workers = pool.workers.lock().unwrap();
                assert_eq!(workers.len(), 2);
                assert!(
                    workers.iter().all(|w| !w.is_finished()),
                    "pool back to full size"
                );
                assert!(pool.deaths.lock().unwrap().is_empty());
            }
            for (i, (a, b)) in plain.iter().enumerate() {
                assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
            }
        }
        drop(enc);
        assert_eq!(Arc::strong_count(&server), 1, "replacements join too");
    }

    #[test]
    fn sole_worker_death_with_queued_jobs_still_completes() {
        // The nastiest liveness case: one worker, killed while the rest
        // of the batch is still *queued*. Those queued jobs hold reply
        // senders, so the reply channel never disconnects on its own —
        // the timeout arm of the drain must heal the pool to get the
        // queue moving again.
        let mut rng = StdRng::seed_from_u64(96);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 3);
        let (slab, batch) = staged_and_batch(&enc);
        // Kill on the *first* task so jobs 1 and 2 are still queued.
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * enc.len(), FaultAction::KillWorker));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 1, plan);
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert_eq!(pool.restarts(), 1);
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
    }

    #[test]
    fn injected_panic_fails_only_its_task() {
        let mut rng = StdRng::seed_from_u64(97);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 3);
        let (slab, batch) = staged_and_batch(&enc);
        let plan = Arc::new(FaultPlan::new().inject(0, 2 * enc.len() + 2, FaultAction::Panic));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 2, plan);
        let result = pool.run_tasks(&batch);
        assert_eq!(result.failures.len(), 1);
        assert_eq!(result.failures[0].0, 2);
        assert!(
            result.failures[0].1.contains("injected fault"),
            "{}",
            result.failures[0].1
        );
        assert_eq!(pool.restarts(), 0, "a caught panic is not a death");
        for (i, (a, b)) in plain.iter().enumerate().take(2) {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
        assert!(slab.try_get(2 * enc.len() + 2).is_none());
    }

    #[test]
    fn injected_delay_completes_normally() {
        let mut rng = StdRng::seed_from_u64(98);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (plain, enc) = inputs(&client, &mut rng, 2);
        let (slab, batch) = staged_and_batch(&enc);
        // Longer than the 25 ms drain timeout, to prove a slow task is
        // not mistaken for a dead worker (heal is a no-op, no restart).
        let plan = Arc::new(FaultPlan::new().inject(
            0,
            2 * enc.len(),
            FaultAction::Delay(Duration::from_millis(80)),
        ));
        let pool = GateBatchPool::with_faults(Arc::clone(&server), 2, plan);
        let result = pool.run_tasks(&batch);
        assert!(result.failures.is_empty());
        assert_eq!(pool.restarts(), 0, "slow is not dead");
        for (i, (a, b)) in plain.iter().enumerate() {
            assert_eq!(client.decrypt(slab.get(2 * enc.len() + i)), a & b);
        }
    }

    #[test]
    fn pool_shuts_down_cleanly() {
        let mut rng = StdRng::seed_from_u64(87);
        let client = ClientKey::generate(ParameterSet::TEST_FAST, &mut rng);
        let server = Arc::new(ServerKey::new(&client, F64Fft::new(256), &mut rng));
        let (_, enc) = inputs(&client, &mut rng, 2);
        {
            let pool = GateBatchPool::new(Arc::clone(&server), 2);
            let _ = pool.run(Gate::And, &enc);
        } // drop joins workers; reaching here without hanging is the test
    }
}
