//! `sd-loadbench`: the serving stack's end-to-end and per-layer
//! benchmark. See `README.md` beside this package for the workloads and
//! metrics.
//!
//! ```text
//! sd-loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result; the lines before
//! it give every metric with its unit and sample count. The exit code is
//! 1 on a wrong answer and 2 on any other error (no result printed).

mod alloc;
mod gen;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use gen::{Config, Workload};
use run::Refs;
use stats::{Metric, Outcome};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The end-to-end metrics an untraced run prints, in order, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("cold_query_p50_ms", "ms"),
    ("cold_query_p90_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// The per-layer metrics a traced run prints, in order, with units.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("conn.rtt_p50_ms", "ms"),
    ("conn.self_p50_ms", "ms"),
    ("conn.codec_us", "us"),
    ("conn.response_bytes", "bytes"),
    ("conn.update_self_p50_ms", "ms"),
    ("batch.latency_p50_ms", "ms"),
    ("batch.wait_p50_ms", "ms"),
    ("batch.size_mean", "queries"),
    ("batch.expired", "count"),
    ("batch.shed", "count"),
    ("batch.cancelled", "count"),
    ("admission.overloaded", "count"),
    ("service.latency_p50_ms", "ms"),
    ("service.self_p50_ms", "ms"),
    ("service.fallback_ratio", "ratio"),
    ("service.parallel_queries", "count"),
    ("service.background_builds", "count"),
    ("service.apply_p50_ms", "ms"),
    ("service.tsd_repairs_per_batch", "count"),
    ("service.gct_repairs_per_batch", "count"),
    ("service.gct_carried_ratio", "ratio"),
    ("service.rejected_ratio", "ratio"),
    ("engine.tsd.build_ms", "ms"),
    ("engine.tsd.index_mb", "MB"),
    ("engine.gct.build_ms", "ms"),
    ("engine.gct.index_mb", "MB"),
    ("engine.online.query_p50_ms", "ms"),
    ("engine.online.search_space", "vertices"),
    ("engine.bound.query_p50_ms", "ms"),
    ("engine.bound.search_space", "vertices"),
    ("engine.tsd.query_p50_ms", "ms"),
    ("engine.tsd.search_space", "vertices"),
    ("engine.gct.query_p50_ms", "ms"),
    ("engine.gct.search_space", "vertices"),
    ("kernel.triangles_ms", "ms"),
    ("kernel.triangles", "count"),
    ("kernel.truss_ms", "ms"),
    ("kernel.core_ms", "ms"),
    ("kernel.ego_extract_ms", "ms"),
    ("kernel.ego_edges", "count"),
    ("kernel.ego_truss_ms", "ms"),
    ("kernel.snapshot_ms", "ms"),
    ("kernel.fingerprint_ms", "ms"),
    ("gen.lag_p90_ms", "ms"),
    ("overhead.setup_s", "%"),
    ("overhead.query_p50_ms", "%"),
    ("overhead.query_p90_ms", "%"),
    ("overhead.update_p50_ms", "%"),
    ("overhead.update_p90_ms", "%"),
    ("overhead.cold_query_p50_ms", "%"),
    ("overhead.cold_query_p90_ms", "%"),
    ("overhead.peak_heap_mb", "%"),
];

const USAGE: &str = "usage: sd-loadbench --workload <serve-burst|cold-deploy> \
     --seed <n> --seconds <s> --trace <0|1>";

/// A run that has not ended by then is stuck; exit instead of hanging.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("--seconds must be in (0, 60], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Generates the inputs, computes the references, and runs `workload`
/// untraced (end-to-end metrics) or traced (per-layer metrics).
fn execute(
    workload: Workload,
    config: &Config,
    seed: u64,
    traced: bool,
) -> Result<(Outcome, String), String> {
    let inputs = gen::generate(workload, config, seed);
    let queries = inputs.distinct_queries();
    let refs = Refs::compute(&inputs.graph, &queries);
    let (outcome, expected, note) = if traced {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{seed}.tsv", workload.name()));
        let outcome = trace::traced(workload, config, &inputs, &refs, &spans)?;
        (outcome, &PER_LAYER[..], format!("spans: {}", spans.display()))
    } else {
        let run = run::run(workload, config, &inputs, &refs, None)?;
        if let Some(what) = &run.tally.first_wrong {
            eprintln!("wrong answer: {what}");
        }
        let note = format!(
            "index sizes beside peak_heap_mb: gct {:.4} MB, tsd {:.4} MB",
            run.gct_index_bytes as f64 / 1e6,
            run.tsd_index_bytes as f64 / 1e6
        );
        let outcome = Outcome {
            correct: run.tally.wrong == 0,
            attempted: run.tally.attempted,
            failed: run.tally.failed,
            metrics: run.metrics,
        };
        (outcome, &END_TO_END[..], note)
    };
    check_names(&outcome.metrics, expected)?;
    Ok((outcome, note))
}

/// The printed metrics must be exactly the ones `BENCHMARK.json` lists,
/// with finite values.
fn check_names(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != expected {
        return Err(format!("metrics {got:?} differ from the declared {expected:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not finite: {}", m.name, m.value)),
        None => Ok(()),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: the run did not finish within {WATCHDOG:?}");
        std::process::exit(2);
    });
    let config = args.workload.config(args.seconds);
    match execute(args.workload, &config, args.seed, args.trace) {
        Ok((outcome, note)) => {
            print!("{}", outcome.table());
            println!("{note}");
            println!("{}", outcome.json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough to run in seconds, large enough that every named
    /// percentile has its samples (each serving stream must send all its
    /// distinct frames, 55 of them on fresh connections, and every run
    /// all 100 distinct update requests).
    fn tiny(workload: Workload) -> Config {
        Config {
            scale: 0.02,
            seconds: if workload == Workload::ColdDeploy { 1.5 } else { 3.0 },
            setups: 2,
        }
    }

    #[test]
    fn tiny_run_of_every_workload_emits_every_named_metric() {
        for workload in Workload::ALL {
            for (traced, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let (outcome, _) = execute(workload, &tiny(workload), 11, traced)
                    .unwrap_or_else(|e| panic!("{} trace={traced}: {e}", workload.name()));
                assert!(outcome.correct, "{} trace={traced}", workload.name());
                assert!(outcome.attempted > 0);
                let table = outcome.table();
                for (m, (name, unit)) in outcome.metrics.iter().zip(expected) {
                    assert_eq!((m.name, m.unit), (*name, *unit));
                    let line = table
                        .lines()
                        .find(|l| l.split_whitespace().next() == Some(name))
                        .expect("metric line");
                    assert!(line.contains(unit) && line.contains(" n="), "{line}");
                }
                if !traced {
                    assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{:?}", outcome.metrics);
                }
            }
        }
    }

    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload serve-burst --seed 3 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::ServeBurst, 3, 20.0, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload serve-read --seed 3 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload serve-write --seed 3 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload serve-burst --seed 3 --seconds 20 --trace 2").is_err());
        assert!(parse("--workload serve-burst --seed 3 --trace 0").is_err());
    }
}
