//! The build phase of a run. Every timed build runs in a child process of
//! its own, so its peak resident memory is that build's alone: the parent
//! holds the query answers, the child loads the oracle only after the build
//! and the memory reading. The last good build's committed directory is the
//! index the serve phase opens.

use crate::layers;
use crate::oracle::Oracle;
use crate::report::{median, OpError, Outcome};
use crate::workload::{WorkDir, Workload};
use ii_core::corpus::StoredCollection;
use ii_core::{Index, IndexBuilder};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds per run at the least, however short `--seconds` is: the median
/// of three shrugs off one build that a busy host slowed down.
const MIN_BUILDS: usize = 3;
/// Traced builds per traced run at the least, so that the exact counts of
/// one are checked against another's.
const MIN_TRACED: usize = 2;
/// `ii build`'s default checkpoint cadence, in runs.
const CHECKPOINT_EVERY: usize = 8;

/// `ii build --parsers 1 --cpu 1` with `gpus` simulated GPUs: the
/// command-line defaults (small GPU sizing, popular group of 40, default
/// codec and memory budget).
pub fn builder(gpus: usize) -> IndexBuilder {
    IndexBuilder::small()
        .parsers(1)
        .cpu_indexers(1)
        .gpus(gpus)
        .popular_count(40)
}

/// A build-cpu build: durable, CPU only, into a fresh `dir`.
pub fn build_durable(
    coll: &Arc<StoredCollection>,
    dir: &Path,
    trace: bool,
) -> Result<Index, String> {
    builder(0)
        .tracing(trace)
        .build_durable(coll, dir, CHECKPOINT_EVERY, false)
        .map_err(|e| format!("durable build: {e}"))
}

/// One child build as the parent sees it.
struct ChildBuild {
    status: Result<(), OpError>,
    values: BTreeMap<String, f64>,
}

fn spawn_child(
    workload: Workload,
    coll: &Path,
    oracle: &Path,
    out: &Path,
    trace: bool,
) -> Result<ChildBuild, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .arg(workload.name())
        .arg(coll)
        .arg(oracle)
        .arg(out)
        .arg(if trace { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut values = BTreeMap::new();
    // A child that dies prints no status line.
    let mut status = Err(OpError::Program(format!(
        "child exited with {}",
        output.status
    )));
    for line in stdout.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "ok" => status = Ok(()),
            "error" => status = Err(OpError::Program(rest.to_string())),
            "wrong" => status = Err(OpError::Wrong(rest.to_string())),
            _ => {
                if let Ok(v) = rest.parse::<f64>() {
                    values.insert(key.to_string(), v);
                }
            }
        }
    }
    Ok(ChildBuild { status, values })
}

/// `perfbench child <workload> <collection> <oracle> <out-dir> <trace>`:
/// one build, then `key value` lines on stdout and a status line (`ok`,
/// `error <why>` or `wrong <why>`).
pub fn child_main(argv: &[String]) -> ExitCode {
    let [workload, coll, oracle, out, trace] = argv else {
        eprintln!("perfbench child: expected <workload> <collection> <oracle> <out-dir> <0|1>");
        return ExitCode::from(2);
    };
    let workload = match Workload::from_name(workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench child: {e}");
            return ExitCode::from(2);
        }
    };
    let status = child(
        workload,
        Path::new(coll),
        Path::new(oracle),
        Path::new(out),
        trace == "1",
    );
    match status {
        Ok(()) => println!("ok"),
        Err(OpError::Program(e)) => println!("error {}", e.replace('\n', " ")),
        Err(OpError::Wrong(e)) => println!("wrong {}", e.replace('\n', " ")),
    }
    ExitCode::SUCCESS
}

fn child(
    workload: Workload,
    coll_dir: &Path,
    oracle_path: &Path,
    out: &Path,
    trace: bool,
) -> Result<(), OpError> {
    let program = |e: String| OpError::Program(e);
    let coll = Arc::new(
        StoredCollection::open(coll_dir).map_err(|e| program(format!("open collection: {e}")))?,
    );
    let t = Instant::now();
    let index = match workload {
        Workload::BuildCpu => build_durable(&coll, out, trace),
        Workload::BuildGpu => builder(1)
            .tracing(trace)
            .build(&coll)
            .map_err(|e| format!("in-memory build: {e}")),
    }
    .map_err(program)?;
    let wall_s = t.elapsed().as_secs_f64();
    // Read before the save below, which is not part of the build.
    let peak_rss_mb = peak_rss_mb().map_err(program)?;
    if workload == Workload::BuildGpu {
        index.save(out).map_err(|e| program(format!("save: {e}")))?;
    }
    println!("wall_s {wall_s}");
    println!("commit_s {}", t.elapsed().as_secs_f64());
    println!("peak_rss_mb {peak_rss_mb}");

    let sizes = layers::ArtifactSizes::of(&index, out).map_err(program)?;
    println!("index_bytes {}", sizes.total);
    // Simulated device time is only reported through the trace.
    let mut device_s = None;
    if trace {
        println!(
            "postings.run_bytes_per_posting {}",
            sizes.run_bytes as f64 / sizes.postings.max(1) as f64
        );
        for (name, value) in layers::from_build(&index.report, wall_s) {
            if name == "gpusim.device_s" {
                device_s = Some(value);
            }
            println!("{name} {value}");
        }
    }

    let oracle = Oracle::load(oracle_path).map_err(|e| program(format!("load oracle: {e}")))?;
    let statuses = Index::verify_dir(out).map_err(|e| OpError::Wrong(format!("verify: {e}")))?;
    if let Some(bad) = statuses.iter().find(|s| !s.ok) {
        return Err(OpError::Wrong(format!(
            "verify: {} {}",
            bad.name, bad.detail
        )));
    }
    match workload {
        Workload::BuildCpu => {
            let reopened = Index::open(out).map_err(|e| OpError::Wrong(format!("open: {e}")))?;
            oracle.check_index(&reopened).map_err(OpError::Wrong)
        }
        Workload::BuildGpu => {
            let stages = &index.report.stages;
            let shed =
                stages.counter("governor.gpu_sheds") + stages.counter("supervisor.gpu_takeovers");
            if shed > 0 {
                return Err(OpError::Wrong(format!(
                    "{shed} GPU shards moved to the CPU"
                )));
            }
            if index.report.gpu_stats.tokens == 0
                || stages.counter("gpu.instructions") == 0
                || device_s == Some(0.0)
            {
                return Err(OpError::Wrong("the simulated GPU indexed nothing".into()));
            }
            oracle.check_index(&index).map_err(OpError::Wrong)
        }
    }
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// A traced build's exact counts against those of the run's `first` traced
/// build: a count that differs is a wrong output.
fn same_exact(
    first: Option<&BTreeMap<String, f64>>,
    values: &BTreeMap<String, f64>,
) -> Result<(), OpError> {
    let Some(first) = first else { return Ok(()) };
    for key in layers::EXACT {
        let (a, b) = (first.get(*key), values.get(*key));
        if a != b {
            return Err(OpError::Wrong(format!(
                "{key} differs between builds of the same input: {a:?}, then {b:?}"
            )));
        }
    }
    Ok(())
}

/// The builds of one run.
pub struct Builds {
    /// Each successful build's figures, and whether it was traced.
    pub samples: Vec<(bool, BTreeMap<String, f64>)>,
    /// The committed directory of the last successful build.
    pub served: PathBuf,
}

impl Builds {
    /// `key` of every successful build that was (`traced`) or was not.
    pub fn values(&self, traced: bool, key: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|b| b.0 == traced)
            .filter_map(|b| b.1.get(key).copied())
            .collect()
    }
}

/// Build the run's collection in child processes until `window` has passed,
/// at least [`MIN_BUILDS`] times (a traced run alternates untraced and
/// traced builds, at least [`MIN_TRACED`] of each), recording each build as
/// one operation.
pub fn run_builds(
    workload: Workload,
    work: &WorkDir,
    coll_dir: &Path,
    oracle_path: &Path,
    window: Duration,
    trace: bool,
    outcome: &mut Outcome,
) -> Result<Builds, String> {
    let mut samples: Vec<(bool, BTreeMap<String, f64>)> = Vec::new();
    let mut served: Option<PathBuf> = None;
    let start = Instant::now();
    let mut n = 0usize;
    // Alternating prices the tracing under the same conditions.
    let min_builds = if trace { 2 * MIN_TRACED } else { MIN_BUILDS };
    while n < min_builds || start.elapsed() < window {
        let traced = trace && n % 2 == 1;
        let out = work.join(&format!("index-{n}"));
        let child = spawn_child(workload, coll_dir, oracle_path, &out, traced)?;
        let mut status = child.status;
        if traced && status.is_ok() {
            let first = samples.iter().find(|b| b.0).map(|b| &b.1);
            status = same_exact(first, &child.values);
        }
        outcome.record(&status);
        if status.is_ok() {
            samples.push((traced, child.values));
            if let Some(old) = served.replace(out) {
                let _ = fs::remove_dir_all(old);
            }
        } else {
            let _ = fs::remove_dir_all(&out);
        }
        n += 1;
    }
    let served = served.ok_or("no build succeeded")?;
    Ok(Builds { samples, served })
}

/// The end-to-end figures of the untraced builds.
pub fn push_metrics(builds: &Builds, input_bytes: f64, outcome: &mut Outcome) {
    let walls = builds.values(false, "wall_s");
    let mb_s: Vec<f64> = walls.iter().map(|w| input_bytes / 1e6 / w).collect();
    let bytes: Vec<f64> = builds
        .values(false, "index_bytes")
        .iter()
        .map(|b| b / input_bytes)
        .collect();
    eprintln!(
        "build walls (s): {walls:?}; build and commit (s): {:?}",
        builds.values(false, "commit_s")
    );
    outcome.push("build_mb_s", "MB/s", median(&mb_s));
    outcome.push(
        "build_peak_rss_mb",
        "MB",
        median(&builds.values(false, "peak_rss_mb")),
    );
    outcome.push("index_bytes_per_input_byte", "ratio", median(&bytes));
}

/// Building and committing the served index: the build call, plus
/// `Index::save` after an in-memory build.
pub fn setup_s(builds: &Builds) -> f64 {
    median(&builds.values(false, "commit_s"))
}

/// The per-layer figures of the traced builds (medians), the isolation
/// passes over the collection, and the tracing's price.
pub fn layer_values(
    builds: &Builds,
    coll: &StoredCollection,
    input_bytes: f64,
) -> Result<BTreeMap<String, f64>, String> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some((_, first)) = builds.samples.iter().find(|b| b.0) {
        for key in first.keys() {
            values.insert(key.clone(), median(&builds.values(true, key)));
        }
    }
    let untraced_walls = builds.values(false, "wall_s");
    let traced_walls = builds.values(true, "wall_s");
    let overhead = median(&traced_walls) / median(&untraced_walls);
    eprintln!(
        "untraced walls (s): {untraced_walls:?}, traced walls (s): {traced_walls:?}, \
         trace overhead {overhead:.4}"
    );
    layers::isolate_build(coll, input_bytes, &mut values)?;
    values.insert("obs.trace_overhead".into(), overhead);
    Ok(values)
}
