//! The two workloads, their seeded inputs and their scratch directory.

use crate::oracle::Oracle;
use ii_core::corpus::{CollectionSpec, StoredCollection};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Each workload builds and commits an index, reopens it and serves
/// Zipf-sampled AND and OR top-10 queries from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Durable CPU-only build of the congress-like collection.
    BuildCpu,
    /// In-memory build of the clueweb-like collection with one simulated
    /// GPU, then saved.
    BuildGpu,
}

impl Workload {
    pub fn from_name(s: &str) -> Result<Workload, String> {
        match s {
            "build-cpu" => Ok(Workload::BuildCpu),
            "build-gpu" => Ok(Workload::BuildGpu),
            _ => Err(format!("unknown workload {s} (build-cpu, build-gpu)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildCpu => "build-cpu",
            Workload::BuildGpu => "build-gpu",
        }
    }

    /// The collection the workload runs on. The preset fixes its shape;
    /// `seed` picks the vocabulary and the documents.
    pub fn spec(self, seed: u64) -> CollectionSpec {
        let mut spec = match self {
            // 36 files x 500 docs, ~65 MB of HTML, 50k-word vocabulary.
            Workload::BuildCpu => CollectionSpec::congress_like(4.0),
            // 12 files x 400 docs, ~21 MB of HTML, 150k-word vocabulary,
            // distribution shift at 80% of the files.
            Workload::BuildGpu => CollectionSpec::clueweb_like(1.0),
        };
        spec.seed ^= splitmix64(seed);
        spec
    }
}

/// Seed mixing, so neighbouring seeds give unrelated collections.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scratch directory under `.perfbench_work/` in the working directory,
/// removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(workload: Workload) -> Result<WorkDir, String> {
        let path = PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.path.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Generated inputs of one run.
pub struct Inputs {
    pub spec: CollectionSpec,
    pub collection: Arc<StoredCollection>,
    pub oracle: Oracle,
}

/// Write the collection under `dir` and, on a second thread, invert the
/// regenerated documents. Neither is part of any timed figure.
pub fn prepare(spec: CollectionSpec, dir: &Path) -> Result<Inputs, String> {
    let t = Instant::now();
    let (collection, oracle) = std::thread::scope(|s| {
        let oracle = s.spawn(|| Oracle::build(&spec));
        let collection = StoredCollection::generate(spec.clone(), dir);
        (collection, oracle.join())
    });
    let collection = collection.map_err(|e| format!("generate collection: {e}"))?;
    let oracle = oracle.map_err(|_| "oracle thread panicked".to_string())?;
    let st = &collection.manifest.stats;
    eprintln!(
        "inputs: {} (seed {:#x}): {} files, {} docs, {:.1} MB uncompressed, {:.1} MB stored, \
         vocabulary {}, {} terms / {} postings after normalization; prepared in {:.1} s",
        spec.name,
        spec.seed,
        spec.num_files,
        st.documents,
        st.uncompressed_bytes as f64 / 1e6,
        st.compressed_bytes as f64 / 1e6,
        spec.vocab_size,
        oracle.num_terms(),
        oracle.num_postings(),
        t.elapsed().as_secs_f64()
    );
    Ok(Inputs {
        spec,
        collection: Arc::new(collection),
        oracle,
    })
}
