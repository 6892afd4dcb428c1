//! Typed, host-stamped measurement records.
//!
//! Every number the benchmark reports becomes one [`Record`] carrying its
//! layer, unit, sample summary and the context it was measured in: host
//! CPU, `nproc`, whether the SIMD FFT leg ran, source revision, engine,
//! BKU factor and seed. A run's records are written as one JSON file.

use crate::json::Json;
use crate::layers;
use crate::procfs;
use crate::stats::Summary;
use std::fs;
use std::path::{Path, PathBuf};

/// The machine a record was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPU model name.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Whether the FFT engines' AVX2+FMA leg is active.
    pub simd: bool,
}

impl Host {
    /// Reads this host's facts.
    pub fn detect() -> Self {
        Self {
            cpu: procfs::cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: matcha_fft::simd_active(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("cpu", Json::str(&self.cpu)),
            ("nproc", Json::Int(self.nproc as u64)),
            ("simd", Json::Bool(self.simd)),
        ])
    }
}

/// What a run measured under: shared by all of its records.
#[derive(Clone, Debug)]
pub struct Context {
    /// Workload name.
    pub workload: String,
    /// The host.
    pub host: Host,
    /// Source revision: the git commit, or a content hash of the sources
    /// when the tree is not a git checkout.
    pub rev: String,
    /// FFT engine label.
    pub engine: String,
    /// BKU factor.
    pub unroll: usize,
    /// Workload seed.
    pub seed: u64,
    /// Whether spans were recorded.
    pub trace: bool,
}

/// One measured quantity.
#[derive(Clone, Debug)]
pub struct Record {
    /// Layer name (`e2e` for end-to-end metrics).
    pub layer: String,
    /// Metric name, unique within the run.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// Summary of the samples behind the value, when it has several.
    pub summary: Option<Summary>,
}

impl Record {
    /// A record of a single value.
    pub fn value(layer: &str, metric: &str, unit: &str, value: f64) -> Self {
        Self {
            layer: layer.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            value,
            summary: None,
        }
    }

    /// A record reporting the median of a sample summary.
    pub fn median(layer: &str, metric: &str, unit: &str, summary: Summary) -> Self {
        Self {
            summary: Some(summary),
            ..Self::value(layer, metric, unit, summary.median)
        }
    }

    fn to_json(&self, ctx: &Context) -> Json {
        let s = self.summary;
        Json::obj([
            (
                "id",
                Json::str(format!("{}/{}/{}", ctx.workload, self.layer, self.metric)),
            ),
            ("workload", Json::str(&ctx.workload)),
            ("layer", Json::str(&self.layer)),
            ("metric", Json::str(&self.metric)),
            ("unit", Json::str(&self.unit)),
            (
                "moves",
                layers::moves(&self.layer, &self.metric).map_or(Json::Null, Json::str),
            ),
            ("value", Json::Num(self.value)),
            ("samples", Json::Int(s.map_or(1, |s| s.n as u64))),
            ("median", Json::Num(s.map_or(self.value, |s| s.median))),
            ("q1", Json::Num(s.map_or(self.value, |s| s.q1))),
            ("q3", Json::Num(s.map_or(self.value, |s| s.q3))),
            ("host", ctx.host.to_json()),
            ("rev", Json::str(&ctx.rev)),
            ("engine", Json::str(&ctx.engine)),
            ("m", Json::Int(ctx.unroll as u64)),
            ("seed", Json::Int(ctx.seed)),
            ("trace", Json::Bool(ctx.trace)),
        ])
    }
}

/// Renders a run's records as a JSON array.
pub fn render(ctx: &Context, records: &[Record]) -> String {
    Json::Arr(records.iter().map(|r| r.to_json(ctx)).collect()).render()
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The source revision of the tree at `root`: the git commit when `root`
/// is a git checkout, otherwise an FNV-1a hash over the library sources.
pub fn source_rev(root: &Path) -> String {
    git_head(root).unwrap_or_else(|| format!("tree-fnv64:{:016x}", tree_hash(&root.join("crates"))))
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(commit, _)| commit.to_string())
}

fn tree_hash(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect_sources(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let name = path.strip_prefix(dir).unwrap_or(&path).to_string_lossy();
        let bytes = fs::read(&path).unwrap_or_default();
        for b in name.as_bytes().iter().chain(bytes.iter()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
