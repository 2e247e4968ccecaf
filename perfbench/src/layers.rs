//! Per-layer figures: the traced build's wall-time ledger and counters, and
//! isolation passes that time each layer's public entry point alone on the
//! workload's own files and batches.

use ii_core::corpus::StoredCollection;
use ii_core::indexer::CpuIndexer;
use ii_core::obs::trace::ALL_KINDS;
use ii_core::obs::{Trace, TraceKind, TraceReport, TraceSink};
use ii_core::pipeline::PipelineReport;
use ii_core::postings::{parse_run_artifact_name, Codec};
use ii_core::store::Store;
use ii_core::text::{parse_documents_into, ParseScratch, TrieGroup};
use ii_core::Index;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics, build side then serve side, in report order.
pub const LAYERS: &[(&str, &str)] = &[
    ("corpus.read_s", "s"),
    ("corpus.decompress_s", "s"),
    ("corpus.decode_mb_s", "MB/s"),
    ("text.parse_s", "s"),
    ("text.parse_mb_s", "MB/s"),
    ("text.parse_efficiency", "ratio"),
    ("pipeline.sample_s", "s"),
    ("pipeline.parser_busy_s", "s"),
    ("pipeline.main_busy_s", "s"),
    ("pipeline.parser_wait_s", "s"),
    ("pipeline.queue_full_s", "s"),
    ("pipeline.memory_wait_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("governor.high_water_mb", "MB"),
    ("indexer.cpu_index_s", "s"),
    ("indexer.cpu_index_mterms_s", "Mterms/s"),
    ("indexer.cpu_index_efficiency", "ratio"),
    ("dict.node_splits", "count"),
    ("dict.cache_hit_rate", "ratio"),
    ("dict.combine_s", "s"),
    ("dict.write_s", "s"),
    ("indexer.gpu_index_host_s", "s"),
    ("gpusim.device_s", "s"),
    ("gpusim.host_s_per_device_s", "ratio"),
    ("gpusim.instructions", "count"),
    ("gpusim.global_transactions", "count"),
    ("gpusim.bank_conflict_cycles", "count"),
    ("gpusim.warp_comparisons", "count"),
    ("postings.flush_s", "s"),
    ("postings.run_bytes_per_posting", "B"),
    ("store.checkpoint_s", "s"),
    ("store.checkpoints", "count"),
    ("store.fsyncs", "count"),
    ("store.bytes_written_mb", "MB"),
    ("obs.trace_overhead", "ratio"),
    ("store.verify_s", "s"),
    ("dict.lookup_ns", "ns"),
    ("postings.decode_mpostings_s", "Mpostings/s"),
    ("query.postings_scanned_per_query", "count"),
    ("query.blocks_decoded_per_query", "count"),
    ("query.blocks_skipped_per_query", "count"),
];

/// Counts that a given input must reproduce exactly, build after build.
pub const EXACT: &[&str] = &[
    "dict.node_splits",
    "gpusim.device_s",
    "gpusim.instructions",
    "gpusim.global_transactions",
    "gpusim.bank_conflict_cycles",
    "gpusim.warp_comparisons",
    "store.checkpoints",
];

/// Sizes of an index's artifacts.
pub struct ArtifactSizes {
    /// Every manifest-listed artifact.
    pub total: u64,
    /// Serialized run files.
    pub run_bytes: u64,
    /// Postings held in the runs.
    pub postings: u64,
}

impl ArtifactSizes {
    /// The artifacts `index` was committed to `dir` as.
    pub fn of(index: &Index, dir: &Path) -> Result<ArtifactSizes, String> {
        let mut run_bytes = 0u64;
        let mut postings = 0u64;
        for set in index.run_sets.values() {
            for run in set.runs() {
                run_bytes += run.to_bytes().len() as u64;
                postings += run
                    .entries
                    .iter()
                    .map(|e| u64::from(e.n_postings))
                    .sum::<u64>();
            }
        }
        let store = Store::open(dir).map_err(|e| format!("open store: {e}"))?;
        let artifacts = &store.manifest().artifacts;
        let runs: u64 = artifacts
            .iter()
            .filter(|a| parse_run_artifact_name(&a.name).is_some())
            .map(|a| a.len)
            .sum();
        if runs != run_bytes {
            return Err(format!(
                "manifest lists {runs} run bytes, the index holds {run_bytes}"
            ));
        }
        Ok(ArtifactSizes {
            total: artifacts.iter().map(|a| a.len).sum(),
            run_bytes,
            postings,
        })
    }
}

fn slot(kind: TraceKind) -> usize {
    ALL_KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is listed")
}

/// Per-layer figures of one traced build whose call took `wall_s`. Prints
/// the per-thread wall-time ledger to stderr.
pub fn from_build(report: &PipelineReport, wall_s: f64) -> Vec<(&'static str, f64)> {
    let Some(trace) = report.trace.as_ref() else {
        return Vec::new();
    };
    let tr = TraceReport::from_trace(trace);
    print_ledger(&tr, wall_s);
    let s = |ns: u64| ns as f64 / 1e9;
    let kind = |prefix: &str, k: TraceKind| -> f64 {
        s(tr.workers
            .iter()
            .filter(|w| w.name.starts_with(prefix))
            .map(|w| w.by_kind_ns[slot(k)])
            .sum())
    };
    let busy = |prefix: &str| -> f64 {
        s(tr.workers
            .iter()
            .filter(|w| w.name.starts_with(prefix))
            .map(|w| w.busy_ns)
            .sum())
    };
    let driver_covered = s(tr
        .workers
        .iter()
        .filter(|w| w.name == "driver")
        .map(|w| w.busy_ns + w.stall_ns)
        .sum());
    let stages = &report.stages;
    let device_s = gpu_device_s(trace);
    let gpu_host_s = kind("gpu-", TraceKind::Index);
    let checkpoints = trace
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter(|e| e.kind == TraceKind::Checkpoint)
        .count();
    vec![
        ("corpus.read_s", kind("parser-", TraceKind::Read)),
        (
            "corpus.decompress_s",
            kind("parser-", TraceKind::Decompress),
        ),
        ("text.parse_s", kind("parser-", TraceKind::Parse)),
        ("pipeline.sample_s", kind("driver", TraceKind::Sample)),
        ("pipeline.parser_busy_s", busy("parser-")),
        ("pipeline.main_busy_s", busy("driver")),
        (
            "pipeline.parser_wait_s",
            kind("driver", TraceKind::ParserWait),
        ),
        ("pipeline.queue_full_s", kind("", TraceKind::QueueFull)),
        ("pipeline.memory_wait_s", kind("", TraceKind::MemoryWait)),
        ("pipeline.unattributed_s", wall_s - driver_covered),
        (
            "governor.high_water_mb",
            stages.gauge("governor.high_water_bytes") as f64 / 1e6,
        ),
        ("indexer.cpu_index_s", kind("cpu-", TraceKind::Index)),
        ("indexer.cpu_tokens", report.cpu_stats.tokens as f64),
        (
            "dict.node_splits",
            stages.counter("dict.node_splits") as f64,
        ),
        (
            "dict.cache_hit_rate",
            stages.cache_hit_rate().unwrap_or(0.0),
        ),
        ("dict.combine_s", kind("driver", TraceKind::DictCombine)),
        ("dict.write_s", kind("driver", TraceKind::DictWrite)),
        ("indexer.gpu_index_host_s", gpu_host_s),
        ("gpusim.device_s", device_s),
        (
            "gpusim.host_s_per_device_s",
            if device_s > 0.0 {
                gpu_host_s / device_s
            } else {
                0.0
            },
        ),
        (
            "gpusim.instructions",
            stages.counter("gpu.instructions") as f64,
        ),
        (
            "gpusim.global_transactions",
            stages.counter("gpu.global_transactions") as f64,
        ),
        (
            "gpusim.bank_conflict_cycles",
            stages.counter("gpu.bank_conflict_cycles") as f64,
        ),
        (
            "gpusim.warp_comparisons",
            stages.counter("gpu.warp_comparisons") as f64,
        ),
        ("postings.flush_s", kind("driver", TraceKind::Flush)),
        ("store.checkpoint_s", kind("driver", TraceKind::Checkpoint)),
        ("store.checkpoints", checkpoints as f64),
        ("store.fsyncs", stages.counter("store.fsyncs") as f64),
        (
            "store.bytes_written_mb",
            stages.counter("store.bytes_written") as f64 / 1e6,
        ),
    ]
}

/// Simulated device seconds of every GPU span. The cost model's time, never
/// mixed with the host time spent emulating it.
fn gpu_device_s(trace: &Trace) -> f64 {
    let ns: u64 = trace
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter_map(|e| e.gpu.map(|g| g.device_ns))
        .sum();
    ns as f64 / 1e9
}

/// Each thread's wall time split into busy time per kind, stall and idle.
fn print_ledger(tr: &TraceReport, wall_s: f64) {
    let s = |ns: u64| ns as f64 / 1e9;
    eprintln!("wall-time ledger (s), build call {wall_s:.3}:");
    for w in &tr.workers {
        let spans = |stall: bool| -> String {
            let parts: Vec<String> = ALL_KINDS
                .iter()
                .enumerate()
                .filter(|(i, k)| k.is_stall() == stall && w.by_kind_ns[*i] > 0)
                .map(|(i, k)| format!("{} {:.3}", k.label(), s(w.by_kind_ns[i])))
                .collect();
            parts.join(", ")
        };
        eprintln!(
            "  {:<10} wall {:.3} = busy {:.3} [{}] + stall {:.3} [{}] + idle {:.3}",
            w.name,
            s(w.wall_ns),
            s(w.busy_ns),
            spans(false),
            s(w.stall_ns),
            spans(true),
            s(w.idle_ns)
        );
    }
    let driver = tr.workers.iter().find(|w| w.name == "driver");
    let covered = driver.map_or(0, |w| w.busy_ns + w.stall_ns);
    eprintln!(
        "  unattributed (build call - driver busy - driver stall) {:.3}",
        wall_s - s(covered)
    );
}

/// Isolation passes over the collection the build read: container decode,
/// parsing and CPU indexing, each timed alone on the outputs of the one
/// before. Adds the isolated rates and the in-pipeline / isolated ratios.
pub fn isolate_build(
    coll: &StoredCollection,
    input_bytes: f64,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let mb = input_bytes / 1e6;
    let t = Instant::now();
    let mut files = Vec::with_capacity(coll.num_files());
    for f in 0..coll.num_files() {
        files.push(
            coll.read_file(f)
                .map_err(|e| format!("read file {f}: {e}"))?,
        );
    }
    let decode_s = t.elapsed().as_secs_f64();

    // Parse and index batch by batch, recycling each batch into the
    // scratch and flushing a run after it, as the pipeline does with one
    // run per file.
    let html = coll.manifest.spec.html;
    let mut scratch = ParseScratch::new();
    let mut cpu = CpuIndexer::new(0);
    let sink = TraceSink::disabled();
    let (mut parse_s, mut index_s, mut terms, mut offset) = (0.0, 0.0, 0u64, 0u32);
    for (f, docs) in files.iter().enumerate() {
        let t = Instant::now();
        let batch = parse_documents_into(&mut scratch, docs, html, f);
        parse_s += t.elapsed().as_secs_f64();
        let groups: Vec<&TrieGroup> = batch.groups.iter().collect();
        terms += groups.iter().map(|g| g.total_terms()).sum::<u64>();
        let t = Instant::now();
        cpu.index_groups(&groups, offset, &sink, f as u32);
        index_s += t.elapsed().as_secs_f64();
        offset += batch.num_docs;
        std::hint::black_box(cpu.flush_run(f as u32, Codec::Auto));
        scratch.recycle(batch);
    }
    let parse_mb_s = mb / parse_s;
    let mterms_s = terms as f64 / 1e6 / index_s;
    let in_pipeline =
        |v: Option<&f64>, work: f64| v.filter(|s| **s > 0.0).map_or(0.0, |s| work / s);
    let parse_eff = in_pipeline(values.get("text.parse_s"), mb) / parse_mb_s;
    let cpu_eff = in_pipeline(
        values.get("indexer.cpu_index_s"),
        values.get("indexer.cpu_tokens").copied().unwrap_or(0.0) / 1e6,
    ) / mterms_s;
    eprintln!(
        "isolated: decode {:.1} MB/s, parse {parse_mb_s:.1} MB/s, cpu index {mterms_s:.2} Mterms/s \
         ({terms} terms); in-pipeline / isolated: parse {parse_eff:.3}, cpu index {cpu_eff:.3}",
        mb / decode_s
    );
    values.insert("corpus.decode_mb_s".into(), mb / decode_s);
    values.insert("text.parse_mb_s".into(), parse_mb_s);
    values.insert("text.parse_efficiency".into(), parse_eff);
    values.insert("indexer.cpu_index_mterms_s".into(), mterms_s);
    values.insert("indexer.cpu_index_efficiency".into(), cpu_eff);
    Ok(())
}
