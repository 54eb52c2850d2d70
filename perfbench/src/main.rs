//! The repository benchmark. One command runs one workload with one seed:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <shard-2d|roll-128d|serve-3d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from the seed, checks the program's answers
//! before it times anything, measures for `--seconds`, and prints one JSON
//! object as its last line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics, each measured from outside by
//! timing calls into that module's public functions. See `README.md`.

#![forbid(unsafe_code)]

mod common;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use common::{Report, Spec};

const USAGE: &str = "usage: pg_perfbench --workload <shard-2d|roll-128d|serve-3d> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    rayon::set_default_threads(common::threads());
    let mut report = Report::new(args.spec.name, args.trace);
    let result = if args.spec.served {
        serve::run(&args.spec, args.seed, args.seconds, args.trace, &mut report)
    } else {
        offline::run(&args.spec, args.seed, args.seconds, args.trace, &mut report)
    };
    if let Err(e) = result {
        eprintln!("benchmark error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "run wall time: {:.1} s (workload {}, seed {}, trace {})",
        started.elapsed().as_secs_f64(),
        args.spec.name,
        args.seed,
        u8::from(args.trace)
    );
    report.print();
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
