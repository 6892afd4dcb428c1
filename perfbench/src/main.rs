//! The repository benchmark: verified encrypted-circuit throughput and
//! latency through the circuit server, with a traced per-layer breakdown.
//!
//! ```text
//! perfbench --workload <wide_m3|deep_approx|wire_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Clients submit encrypted library circuits to a `CircuitServer` in a
//! closed loop for `--seconds`, and every decrypted output is checked
//! against the circuit's plaintext specification. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records client-side spans and then
//! times every layer's public functions. The last line of standard output
//! is one JSON object `{correct, attempted, failed, metrics}`; the typed
//! records (and spans) go to `out/` beside this package's manifest, and a
//! readable report to standard error. The exit code is nonzero when any
//! output decrypts wrong or a circuit does not complete.

mod json;
mod layers;
mod procfs;
mod records;
mod stats;
mod trace;
mod workload;

use json::Json;
use matcha_tfhe::ParameterSet;
use records::{Context, Host};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Options, RunReport, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        params: ParameterSet::MATCHA,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The last stdout line: the result object of the benchmark contract.
fn result_line(report: &RunReport, trace: bool) -> String {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(String, Json)> = if trace {
        report
            .per_layer
            .iter()
            .map(|(name, value, unit)| (name.clone(), metric(*value, unit)))
            .collect()
    } else {
        report
            .end_to_end
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), metric(value, unit)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Where a run's records, spans and untraced baseline are written.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn untraced_path(dir: &Path, workload: Workload) -> PathBuf {
    dir.join(format!("{}.untraced-e2e.txt", workload.name()))
}

/// Writes the run's files; a failure is reported, not fatal.
fn write_outputs(opts: &Options, ctx: &Context, report: &RunReport) {
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let mut files = vec![(
        dir.join(format!("{stem}.records.json")),
        records::render(ctx, &report.records),
    )];
    if opts.trace {
        let spans = Json::Arr(report.spans.iter().map(|s| s.to_json()).collect());
        files.push((dir.join(format!("{stem}.spans.json")), spans.render()));
    } else {
        let lines: String = report
            .end_to_end
            .iter()
            .map(|(name, value, _)| format!("{name} {value}\n"))
            .collect();
        files.push((untraced_path(&dir, opts.workload), lines));
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(path, text)| std::fs::write(path, text))
    });
    if let Err(e) = written {
        eprintln!(
            "warning: could not write run files to {}: {e}",
            dir.display()
        );
    }
}

/// Traced minus untraced end-to-end metrics, against the latest untraced
/// run of the workload on record.
fn tracing_overhead(opts: &Options, report: &RunReport) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(untraced_path(&out_dir(), opts.workload)) else {
        return vec!["tracing overhead: no untraced run of this workload on record".to_string()];
    };
    let untraced: Vec<(&str, f64)> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect();
    report
        .end_to_end
        .iter()
        .filter(|(name, _, _)| *name != "setup_s")
        .filter_map(|&(name, traced, unit)| {
            let (_, base) = untraced.iter().find(|(k, _)| *k == name)?;
            Some(format!(
                "tracing overhead {name}: traced {traced:.6} - untraced {base:.6} = {:+.6} {unit}",
                traced - base
            ))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ctx = Context {
        workload: opts.workload.name().to_string(),
        host: Host::detect(),
        rev: records::source_rev(&records::repo_root()),
        engine: opts.workload.engine_label(),
        unroll: opts.workload.unroll(),
        seed: opts.seed,
        trace: opts.trace,
    };
    eprintln!(
        "perfbench {} seed {} for {} s, trace {}: {} m={} on {} ({} cpus, simd {}), rev {}",
        ctx.workload,
        ctx.seed,
        opts.seconds,
        u8::from(opts.trace),
        ctx.engine,
        ctx.unroll,
        ctx.host.cpu,
        ctx.host.nproc,
        ctx.host.simd,
        ctx.rev
    );
    let report = match workload::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for r in &report.records {
        let spread = r.summary.map_or(String::new(), |s| {
            format!("  [n={} q1 {:.6} q3 {:.6}]", s.n, s.q1, s.q3)
        });
        let moves =
            layers::moves(&r.layer, &r.metric).map_or(String::new(), |m| format!("  -> moves {m}"));
        eprintln!(
            "  {:<10} {:<24} {:>16.6} {}{spread}{moves}",
            r.layer, r.metric, r.value, r.unit
        );
    }
    if opts.trace {
        for (name, self_s) in span_self_times(&report) {
            eprintln!("  span {name:<8} median self time {:.3} ms", self_s * 1e3);
        }
        for line in tracing_overhead(&opts, &report) {
            eprintln!("  {line}");
        }
    }
    write_outputs(&opts, &ctx, &report);
    println!("{}", result_line(&report, opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} circuits failed, {} wrong decryptions, {} failed layer checks",
            report.failed, report.attempted, report.mismatches, report.layer_failures
        );
        ExitCode::FAILURE
    }
}

/// Median self time of each span name.
fn span_self_times(report: &RunReport) -> Vec<(&'static str, f64)> {
    let selfs = trace::self_times(&report.spans);
    let mut names: Vec<&'static str> = selfs.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| {
            let sample: Vec<f64> = selfs
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .collect();
            Some((name, stats::median(&sample)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args("--workload wire_mix --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::WireMix);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload wide_m3 --seed x --seconds 1 --trace 0",
            "--workload wide_m3 --seed 1 --seconds 0 --trace 0",
            "--workload wide_m3 --seed 1 --seconds 1 --trace 2",
            "--workload wide_m3 --seed 1 --seconds 1",
            "--workload wide_m3 --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// The metric lists match `BENCHMARK.json` exactly, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(records::repo_root().join("BENCHMARK.json")).unwrap();
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).unwrap();
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
                        entry[at..at + entry[at..].find('"').unwrap()].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&workload::END_TO_END));
        assert_eq!(listed("per_layer"), own(&workload::PER_LAYER));
    }

    /// Every workload runs end to end and traced at `TEST_FAST`, checks
    /// its outputs, and reports every metric of the contract.
    #[test]
    fn every_workload_smoke_runs_at_test_fast() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let opts = Options {
                    workload: w,
                    params: ParameterSet::TEST_FAST,
                    seed: 3,
                    seconds: 0.05,
                    trace,
                };
                let report = workload::run(&opts).unwrap();
                assert!(report.correct(), "{} trace {trace}", w.name());
                assert!(report.attempted >= 1);
                let line = result_line(&report, trace);
                let expected: Vec<&str> = if trace {
                    workload::PER_LAYER.iter().map(|(n, _)| *n).collect()
                } else {
                    workload::END_TO_END.iter().map(|(n, _)| *n).collect()
                };
                for name in expected {
                    assert!(
                        line.contains(&format!("\"{name}\":{{\"value\":")),
                        "{name} in {line}"
                    );
                }
                if !trace {
                    assert!(report
                        .end_to_end
                        .iter()
                        .all(|(_, v, _)| v.is_finite() && *v > 0.0));
                }
            }
        }
    }
}
