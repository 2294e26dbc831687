//! GRETA benchmark driver.
//!
//! ```text
//! greta-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! greta-perfbench --self-test
//! ```
//!
//! Generates the workload from the seed, checks every output row against
//! the oracle, and measures for `S` seconds. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero on an oracle mismatch or an invalid
//! (over-capacity) open-loop run. See README.md.

mod inproc;
mod layers;
mod openloop;
mod oracle;
mod report;
mod selftest;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                }
            }
            "--self-test" => args.self_test = true,
            f => return Err(format!("unknown flag `{f}`")),
        }
    }
    if !args.self_test && workload::spec(&args.workload).is_none() {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Where runs write durability directories and traces: `.bench_out` in
/// the working directory.
fn scratch_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: greta-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 | --self-test"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = scratch_dir().and_then(|dir| {
        if args.self_test {
            selftest::run(&dir).map(|ok| if ok { 0 } else { 1 })
        } else {
            report::run(&args, &dir)
        }
    });
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
