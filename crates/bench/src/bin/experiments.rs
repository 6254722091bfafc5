//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <name> [--scale X] [--mc N] [--seed S] [--p P]
//!
//! <name>   one of: table1 fig3 table2 fig8 fig9 fig10 table3 table4
//!          fig11 fig12 fig13 fig14 fig15 table5 case-study fig18 all,
//!          or `bench-json` (the CI perf-smoke mode: writes the committed BENCH_prN.json baseline)
//!          or `bench-compare` (re-measures, prints the bench/history
//!          trajectory, and fails on >2x regression against the
//!          committed BENCH_prN.json baseline)
//! --scale  dataset scale in (0, 1]   (default 0.25)
//! --mc     Monte-Carlo cascade samples (default 2000; paper used 10000)
//! --seed   RNG seed for effectiveness experiments (default 0xD1CE)
//! --p      independent-cascade activation probability in (0, 1] (default 0.03)
//! ```
//!
//! Exit status: 0 on success and for `--help`, 1 when `bench-compare`
//! finds a regression, 2 on an argument error (an unknown or malformed
//! option, or a missing or unknown experiment name), with the usage on
//! stderr.

use std::process::ExitCode;

use sd_bench::experiments::{run, ExpContext, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ExpContext::default();
    let mut name: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let v = iter.next().and_then(|s| s.parse::<f64>().ok());
                match v {
                    Some(s) if s > 0.0 && s <= 1.0 => ctx.scale = s,
                    _ => return usage_error("--scale expects a number in (0, 1]"),
                }
            }
            "--mc" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => ctx.mc_samples = n,
                _ => return usage_error("--mc expects a positive integer"),
            },
            "--seed" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => ctx.seed = s,
                _ => return usage_error("--seed expects an integer"),
            },
            "--p" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(p) if p > 0.0 && p <= 1.0 => ctx.ic_p = p,
                _ => return usage_error("--p expects a probability in (0, 1]"),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let Some(name) = name else {
        return usage_error("missing experiment name");
    };
    eprintln!(
        "[ctx] scale={} mc_samples={} ic_p={} seed={:#x}",
        ctx.scale, ctx.mc_samples, ctx.ic_p, ctx.seed
    );
    if !run(&name, &ctx) {
        return usage_error(&format!("unknown experiment {name:?}"));
    }
    ExitCode::SUCCESS
}

/// Reports an argument error with the usage, for exit status 2.
fn usage_error(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    usage();
    ExitCode::from(2)
}

fn usage() {
    eprintln!("usage: experiments <name> [--scale X] [--mc N] [--seed S] [--p P]");
    eprintln!("  names: {} all bench-json bench-compare", EXPERIMENTS.join(" "));
}
