//! The serve phase of a run: the committed index is reopened and serves
//! Zipf-sampled AND and OR top-10 queries from one closed-loop client.

use crate::oracle::{check_and, check_top_k, normalize_query, AndDigest, Oracle, TOP_K};
use crate::report::{median, quantile, OpError, Outcome};
use ii_core::corpus::{CollectionGenerator, CollectionSpec, Zipf};
use ii_core::{Bm25Params, Index, QueryMode, RankedHit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Distinct queries per class. One round runs each once, so a round has 80
/// samples above each class's p99. The latency distribution is steep around
/// its median, so a smaller set moves the p50 by which queries it happens
/// to draw.
const QUERIES_PER_CLASS: usize = 8000;
/// Opens of the committed index per run; `open_s` is their median.
const OPENS: usize = 7;
/// Seed of the query words' ranks: the same for every run.
const QUERY_RANK_SEED: u64 = 0x5175_6572_7921;
/// Queries run untimed, and not counted, before timing starts.
const WARMUP: usize = 1000;

pub struct Query {
    text: String,
    want: Want,
}

enum Want {
    And(AndDigest),
    /// The top-10 (doc, score) in rank order.
    Or(Vec<(u32, f64)>),
}

/// Queries of 2 or 3 words drawn by the collection's own Zipf law from its
/// vocabulary, alternating AND and OR. A query whose words all normalize
/// away is drawn again.
///
/// The ranks come from one fixed stream, so every run asks the same mix of
/// frequent and rare words; the run's seed picks the collection, and with
/// it which words hold those ranks. Figures of two seeds then differ by
/// their collections, not by which queries each happened to draw.
pub fn make_queries(spec: &CollectionSpec, oracle: &Oracle) -> Vec<Query> {
    let gen = CollectionGenerator::new(spec.clone());
    let vocab = gen.vocabulary();
    let zipf = Zipf::new(vocab.len(), spec.zipf_s);
    let mut rng = StdRng::seed_from_u64(QUERY_RANK_SEED);
    let mut out = Vec::with_capacity(2 * QUERIES_PER_CLASS);
    while out.len() < 2 * QUERIES_PER_CLASS {
        let n_words = rng.gen_range(2..=3);
        let words: Vec<&str> = (0..n_words)
            .map(|_| vocab.term(zipf.sample(&mut rng)))
            .collect();
        let text = words.join(" ");
        let terms = normalize_query(&text);
        if terms.is_empty() {
            continue;
        }
        let want = if out.len() % 2 == 0 {
            Want::And(oracle.and_answer(&terms))
        } else {
            Want::Or(oracle.or_top_k(&terms))
        };
        out.push(Query { text, want });
    }
    out
}

fn ask(index: &Index, q: &Query) -> (Duration, Result<(), OpError>) {
    let mode = match q.want {
        Want::And(_) => QueryMode::And,
        Want::Or(_) => QueryMode::Or,
    };
    let t = Instant::now();
    let mut hits: Vec<RankedHit> = index.search_ranked(&q.text, mode, Bm25Params::default());
    if mode == QueryMode::Or {
        hits.truncate(TOP_K);
    }
    let took = t.elapsed();
    let check = match &q.want {
        Want::And(want) => check_and(want, &hits),
        Want::Or(want) => check_top_k(want, &hits),
    };
    (
        took,
        check.map_err(|e| OpError::Wrong(format!("{:?}: {e}", q.text))),
    )
}

fn open(dir: &Path) -> Result<(Duration, Index), String> {
    let t = Instant::now();
    let index = Index::open(dir).map_err(|e| format!("open served index: {e}"))?;
    Ok((t.elapsed(), index))
}

/// Open the served index [`OPENS`] times, then run whole rounds of
/// `queries` until `window` has passed since the first open, at least one;
/// every answer is one operation.
pub fn serve(
    served: &Path,
    queries: &[Query],
    window: Duration,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let mut opens = Vec::new();
    let mut index = None;
    for _ in 0..OPENS {
        drop(index.take());
        let (took, opened) = open(served)?;
        opens.push(took.as_secs_f64());
        index = Some(opened);
    }
    let index = index.expect("opened at least once");
    // The timed rounds ask these again and count their answers.
    for q in queries.iter().take(WARMUP) {
        let _ = ask(&index, q);
    }

    let mut and_us = Vec::new();
    let mut or_us = Vec::new();
    let mut busy = Duration::ZERO;
    // Whole rounds only, so every run asks each query equally often.
    while and_us.is_empty() || start.elapsed() < window {
        for q in queries {
            let (took, check) = ask(&index, q);
            outcome.record(&check);
            busy += took;
            let us = took.as_secs_f64() * 1e6;
            match q.want {
                Want::And(_) => and_us.push(us),
                Want::Or(_) => or_us.push(us),
            }
        }
    }
    eprintln!(
        "opens (s): {opens:?}; {} AND and {} OR queries in {:.1} s of service time",
        and_us.len(),
        or_us.len(),
        busy.as_secs_f64()
    );
    outcome.push("open_s", "s", median(&opens));
    outcome.push("query_and_p50_us", "us", quantile(&and_us, 0.5));
    outcome.push("query_and_p99_us", "us", quantile(&and_us, 0.99));
    outcome.push("query_or_top10_p50_us", "us", quantile(&or_us, 0.5));
    outcome.push("query_or_top10_p99_us", "us", quantile(&or_us, 0.99));
    outcome.push(
        "query_qps",
        "1/s",
        (and_us.len() + or_us.len()) as f64 / busy.as_secs_f64(),
    );
    Ok(())
}

/// The read-side layers timed alone on the served index, and the index's
/// own query counters over two rounds of `queries`, which must move them by
/// the same amounts; that comparison is one more operation.
pub fn layer_values(
    served: &Path,
    queries: &[Query],
    outcome: &mut Outcome,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut verify = Vec::new();
    for _ in 0..OPENS {
        let t = Instant::now();
        let statuses = Index::verify_dir(served).map_err(|e| format!("verify: {e}"))?;
        verify.push(t.elapsed().as_secs_f64());
        if let Some(bad) = statuses.iter().find(|s| !s.ok) {
            return Err(format!("verify: {} {}", bad.name, bad.detail));
        }
    }
    let (_, index) = open(served)?;

    // Dictionary lookups of the queries' own terms.
    let terms: Vec<String> = queries
        .iter()
        .flat_map(|q| normalize_query(&q.text))
        .collect();
    let passes = 20;
    let t = Instant::now();
    for _ in 0..passes {
        for term in &terms {
            std::hint::black_box(index.dictionary.lookup(term));
        }
    }
    let lookup_ns = t.elapsed().as_secs_f64() * 1e9 / (passes * terms.len()) as f64;

    // Decode every list of the index.
    let t = Instant::now();
    let mut postings = 0u64;
    for e in index.dictionary.entries() {
        if let Some(set) = index.run_sets.get(&e.indexer) {
            postings += std::hint::black_box(set.fetch(e.postings)).len() as u64;
        }
    }
    let decode = postings as f64 / 1e6 / t.elapsed().as_secs_f64();

    // Two rounds of the same queries must move the index's query counters
    // by the same amounts.
    let counters = [
        "query.postings_scanned",
        "query.blocks_decoded",
        "query.blocks_skipped",
    ];
    let read = || counters.map(|c| index.obs.counter(c).get());
    let mut rounds = Vec::new();
    for _ in 0..2 {
        let before = read();
        for q in queries {
            outcome.record(&ask(&index, q).1);
        }
        let after = read();
        rounds.push([0, 1, 2].map(|i| after[i] - before[i]));
    }
    outcome.record(&if rounds[0] == rounds[1] {
        Ok(())
    } else {
        Err(OpError::Wrong(format!(
            "query counters {counters:?} moved by {:?}, then by {:?}, on the same queries",
            rounds[0], rounds[1]
        )))
    });
    // Only the AND path decodes through skip cursors and counts blocks.
    let and_queries = queries
        .iter()
        .filter(|q| matches!(q.want, Want::And(_)))
        .count() as f64;
    let figures = [
        ("store.verify_s", median(&verify)),
        ("dict.lookup_ns", lookup_ns),
        ("postings.decode_mpostings_s", decode),
        (
            "query.postings_scanned_per_query",
            rounds[0][0] as f64 / queries.len() as f64,
        ),
        (
            "query.blocks_decoded_per_query",
            rounds[0][1] as f64 / and_queries,
        ),
        (
            "query.blocks_skipped_per_query",
            rounds[0][2] as f64 / and_queries,
        ),
    ];
    for (name, v) in figures {
        values.insert(name.into(), v);
    }
    Ok(())
}
