//! End-to-end benchmark of the inverted-file builder and its query path.
//!
//! ```text
//! perfbench --workload build-cpu|build-gpu --seed N --seconds S --trace 0|1
//! ```
//!
//! A run generates its workload's collection, builds and commits an index
//! of it for the first half of `--seconds` and serves queries from the
//! reopened index for the second half. With `--trace 0` it reports every
//! end-to-end metric; with `--trace 1` it traces every other build, runs the
//! layer isolation passes and reports every per-layer metric. Human-readable
//! detail goes to stderr; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench child ...` is
//! the one-build process the build phase spawns (see `build.rs`).

mod build;
mod layers;
mod oracle;
mod query;
mod report;
mod workload;

use report::Outcome;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{prepare, WorkDir, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new(args.workload)?;
    let coll_dir = work.join("collection");
    let inputs = prepare(args.workload.spec(args.seed), &coll_dir)?;
    let t = Instant::now();
    let queries = query::make_queries(&inputs.spec, &inputs.oracle);
    eprintln!(
        "query answers: {} queries in {:.1} s",
        queries.len(),
        t.elapsed().as_secs_f64()
    );
    // The children load the oracle from the file; the parent needs it no
    // more once the queries have their answers.
    let oracle_path = work.join("oracle.bin");
    inputs
        .oracle
        .save(&oracle_path)
        .map_err(|e| format!("save oracle: {e}"))?;
    drop(inputs.oracle);
    let coll = inputs.collection;
    let input_bytes = coll.manifest.stats.uncompressed_bytes as f64;

    let half = args.seconds / 2;
    let mut outcome = Outcome::new();
    let builds = build::run_builds(
        args.workload,
        &work,
        &coll_dir,
        &oracle_path,
        half,
        args.trace,
        &mut outcome,
    )?;
    if args.trace {
        let mut values = build::layer_values(&builds, &coll, input_bytes)?;
        query::layer_values(&builds.served, &queries, &mut outcome, &mut values)?;
        for (name, unit) in layers::LAYERS {
            outcome.push(name, unit, values.get(*name).copied().unwrap_or(0.0));
        }
    } else {
        build::push_metrics(&builds, input_bytes, &mut outcome);
        query::serve(&builds.served, &queries, half, &mut outcome)?;
        outcome.push("setup_s", "s", build::setup_s(&builds));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        return build::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            outcome.print_summary(args.workload.name());
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
