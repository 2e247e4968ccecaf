//! Answers computed apart from the program under test.
//!
//! The inversion regenerates every document with `CollectionGenerator`
//! (it never reads the stored collection the program reads) and inverts it
//! with the sort-based baseline. Queries are answered by exhaustive BM25
//! (b = 0, k1 = 1.2) over that inversion. The comparison functions turn any
//! difference into an error message, which the workloads count as a failed
//! operation.

use ii_baselines::sort_based_index;
use ii_core::corpus::{CollectionGenerator, CollectionSpec, DocId};
use ii_core::postings::Posting;
use ii_core::{Index, RankedHit};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// BM25 term-frequency saturation, the program's default.
const K1: f64 = 1.2;
/// Relative tolerance on scores.
const SCORE_TOL: f64 = 1e-9;
/// Hits compared for an OR query.
pub const TOP_K: usize = 10;

/// Every term of the collection with its full (doc, tf) list, sorted by term.
pub struct Oracle {
    terms: Vec<(String, Vec<Posting>)>,
    n_docs: u32,
}

impl Oracle {
    /// Regenerate the documents of `spec` and invert them.
    pub fn build(spec: &CollectionSpec) -> Oracle {
        let gen = CollectionGenerator::new(spec.clone());
        let mut docs = Vec::with_capacity(spec.total_docs());
        for f in 0..spec.num_files {
            docs.extend(gen.generate_file(f));
        }
        // One in-memory run: the budget only changes how the baseline
        // spills, not what it produces.
        let (index, _) = sort_based_index(&docs, spec.html, 1 << 26);
        let mut terms: Vec<(String, Vec<Posting>)> = index
            .postings
            .into_iter()
            .map(|(t, l)| (t, l.postings().to_vec()))
            .collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Oracle {
            terms,
            n_docs: docs.len() as u32,
        }
    }

    /// Distinct terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Postings in the whole inversion.
    pub fn num_postings(&self) -> u64 {
        self.terms.iter().map(|(_, l)| l.len() as u64).sum()
    }

    /// The full list of a normalized term.
    pub fn get(&self, term: &str) -> Option<&[Posting]> {
        self.terms
            .binary_search_by(|(t, _)| t.as_str().cmp(term))
            .ok()
            .map(|i| self.terms[i].1.as_slice())
    }

    /// Write as `n_docs, n_terms, (len, term, n, (doc, tf)*)*`, little-endian.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = Vec::with_capacity(16 + self.num_postings() as usize * 8);
        out.extend_from_slice(&self.n_docs.to_le_bytes());
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for (t, list) in &self.terms {
            out.extend_from_slice(&(t.len() as u32).to_le_bytes());
            out.extend_from_slice(t.as_bytes());
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for p in list {
                out.extend_from_slice(&p.doc.0.to_le_bytes());
                out.extend_from_slice(&p.tf.to_le_bytes());
            }
        }
        fs::File::create(path)?.write_all(&out)
    }

    /// Read what [`Self::save`] wrote.
    pub fn load(path: &Path) -> io::Result<Oracle> {
        let mut bytes = Vec::new();
        fs::File::open(path)?.read_to_end(&mut bytes)?;
        let mut rd = Reader { buf: &bytes };
        let n_docs = rd.u32()?;
        let n_terms = rd.u32()? as usize;
        let mut terms = Vec::with_capacity(n_terms.min(bytes.len() / 8));
        for _ in 0..n_terms {
            let len = rd.u32()? as usize;
            let term = String::from_utf8(rd.take(len)?.to_vec())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let n = rd.u32()? as usize;
            let mut list = Vec::with_capacity(n.min(rd.buf.len() / 8));
            for _ in 0..n {
                list.push(Posting {
                    doc: DocId(rd.u32()?),
                    tf: rd.u32()?,
                });
            }
            terms.push((term, list));
        }
        Ok(Oracle { terms, n_docs })
    }

    /// Compare a program's whole output with the inversion: the same term
    /// set and, term by term, the same (doc, tf) list.
    pub fn check_lists<I>(&self, n_terms: usize, lists: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (String, Vec<Posting>)>,
    {
        if n_terms != self.terms.len() {
            return Err(format!("{n_terms} terms, expected {}", self.terms.len()));
        }
        let mut seen = 0usize;
        for (term, got) in lists {
            let Some(want) = self.get(&term) else {
                return Err(format!("term {term:?} is not in the collection"));
            };
            if got != want {
                return Err(format!("term {term:?}: {}", first_difference(want, &got)));
            }
            seen += 1;
        }
        if seen != n_terms {
            return Err(format!("{seen} lists for {n_terms} terms"));
        }
        Ok(())
    }

    /// [`Self::check_lists`] over every list of an index.
    pub fn check_index(&self, index: &Index) -> Result<(), String> {
        let mut lists = Vec::with_capacity(index.num_terms());
        for e in index.dictionary.entries() {
            let set = index
                .run_sets
                .get(&e.indexer)
                .ok_or_else(|| format!("no runs for indexer {}", e.indexer))?;
            lists.push((e.full_term(), set.fetch(e.postings).postings().to_vec()));
        }
        self.check_lists(index.num_terms(), lists)
    }

    fn idf(&self, df: usize) -> f64 {
        let n = f64::from(self.n_docs.max(1));
        let df = df as f64;
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Exhaustive AND: the documents holding all `terms`, as a digest.
    pub fn and_answer(&self, terms: &[String]) -> AndDigest {
        let mut lists = Vec::with_capacity(terms.len());
        for t in terms {
            match self.get(t) {
                Some(l) => lists.push(l),
                None => return AndDigest::of([]),
            }
        }
        let Some((first, rest)) = lists.split_first() else {
            return AndDigest::of([]);
        };
        AndDigest::of(first.iter().filter_map(|p| {
            let mut score = self.term_score(first.len(), p.tf);
            for l in rest {
                let i = l.binary_search_by_key(&p.doc, |q| q.doc).ok()?;
                score += self.term_score(l.len(), l[i].tf);
            }
            Some((p.doc.0, score))
        }))
    }

    /// Exhaustive OR: every matching document scored, then the best
    /// [`TOP_K`] by score with ties broken by doc id. Contributions are
    /// summed in term order, so documents with equal term frequencies get
    /// bit-equal scores.
    pub fn or_top_k(&self, terms: &[String]) -> Vec<(u32, f64)> {
        let mut acc = vec![0.0f64; self.n_docs as usize];
        let mut hit = vec![false; self.n_docs as usize];
        for t in terms {
            let Some(l) = self.get(t) else { continue };
            for p in l {
                let d = p.doc.0 as usize;
                acc[d] += self.term_score(l.len(), p.tf);
                hit[d] = true;
            }
        }
        let mut all: Vec<(u32, f64)> = (0..acc.len())
            .filter(|&d| hit[d])
            .map(|d| (d as u32, acc[d]))
            .collect();
        let rank = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if all.len() > TOP_K {
            all.select_nth_unstable_by(TOP_K - 1, rank);
            all.truncate(TOP_K);
        }
        all.sort_by(rank);
        all
    }

    fn term_score(&self, df: usize, tf: u32) -> f64 {
        let tf = f64::from(tf);
        self.idf(df) * (tf * (K1 + 1.0)) / (tf + K1)
    }
}

/// Normalize a query the way documents are normalized: tokenize, stem,
/// drop stop words; sorted and deduplicated, as BM25 sums each term once.
pub fn normalize_query(q: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = ii_core::text::tokenize::tokens(q);
    while let Some(tok) = it.next_token() {
        let stemmed = ii_core::text::stem(tok);
        if !ii_core::text::is_stop_word(&stemmed) {
            out.push(stemmed.into_owned());
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// What an AND query must return: how many documents, a hash of their ids
/// in doc order, and the sum of their scores in doc order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AndDigest {
    pub count: usize,
    pub doc_hash: u64,
    pub score_sum: f64,
}

impl AndDigest {
    /// Digest of `(doc, score)` hits in increasing doc order.
    pub fn of(hits: impl IntoIterator<Item = (u32, f64)>) -> AndDigest {
        let mut d = AndDigest {
            count: 0,
            doc_hash: 0,
            score_sum: 0.0,
        };
        for (doc, score) in hits {
            d.count += 1;
            d.doc_hash = crate::workload::splitmix64(d.doc_hash.rotate_left(7) ^ u64::from(doc));
            d.score_sum += score;
        }
        d
    }
}

/// AND: exactly the expected documents (the program may order equal
/// scores as it likes), scores summing to the expected total.
pub fn check_and(want: &AndDigest, got: &[RankedHit]) -> Result<(), String> {
    let mut hits: Vec<(u32, f64)> = got.iter().map(|h| (h.doc.0, h.score)).collect();
    hits.sort_unstable_by_key(|h| h.0);
    if hits.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err("AND returned a document twice".into());
    }
    let d = AndDigest::of(hits);
    if d.count != want.count {
        return Err(format!(
            "AND returned {} documents, expected {}",
            d.count, want.count
        ));
    }
    if d.doc_hash != want.doc_hash {
        return Err(format!(
            "AND returned other documents than the {} expected",
            want.count
        ));
    }
    if !close(d.score_sum, want.score_sum) {
        return Err(format!(
            "AND scores sum to {}, expected {}",
            d.score_sum, want.score_sum
        ));
    }
    Ok(())
}

/// OR top-k: the same documents in the same order, scores within the
/// tolerance.
pub fn check_top_k(want: &[(u32, f64)], got: &[RankedHit]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "OR top-{TOP_K} has {} hits, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.doc.0 != w.0 || !close(g.score, w.1) {
            return Err(format!(
                "OR hit {i} is doc {} ({}), expected doc {} ({})",
                g.doc.0, g.score, w.0, w.1
            ));
        }
    }
    Ok(())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCORE_TOL * a.abs().max(b.abs())
}

fn first_difference(want: &[Posting], got: &[Posting]) -> String {
    if let Some(i) = (0..want.len().min(got.len())).find(|&i| want[i] != got[i]) {
        return format!(
            "posting {i} is (doc {}, tf {}), expected (doc {}, tf {})",
            got[i].doc.0, got[i].tf, want[i].doc.0, want[i].tf
        );
    }
    format!("{} postings, expected {}", got.len(), want.len())
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "oracle file truncated",
            ));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_core::corpus::StoredCollection;
    use ii_core::{Bm25Params, IndexBuilder, QueryMode};
    use std::sync::Arc;

    fn tiny(tag: &str) -> (Oracle, Index, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("perfbench-oracle-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut spec = CollectionSpec::tiny(7);
        spec.html = true;
        let coll = Arc::new(StoredCollection::generate(spec.clone(), &dir).unwrap());
        let index = IndexBuilder::small()
            .parsers(1)
            .cpu_indexers(1)
            .gpus(1)
            .build(&coll)
            .unwrap();
        (Oracle::build(&spec), index, dir)
    }

    fn program_lists(index: &Index) -> Vec<(String, Vec<Posting>)> {
        index
            .dictionary
            .entries()
            .iter()
            .map(|e| {
                (
                    e.full_term(),
                    index.run_sets[&e.indexer]
                        .fetch(e.postings)
                        .postings()
                        .to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn program_output_matches_and_mutations_fail() {
        let (oracle, index, dir) = tiny("lists");
        oracle.check_index(&index).unwrap();
        let lists = program_lists(&index);
        let n = lists.len();
        let victim = lists.iter().position(|(_, l)| l.len() > 1).unwrap();

        let mut dropped = lists.clone();
        dropped[victim].1.pop();
        assert!(oracle
            .check_lists(n, dropped)
            .unwrap_err()
            .contains("postings"));

        let mut tf = lists.clone();
        tf[victim].1[0].tf += 1;
        assert!(oracle.check_lists(n, tf).unwrap_err().contains("tf"));

        let mut missing = lists.clone();
        missing.pop();
        assert!(oracle.check_lists(n - 1, missing).is_err());

        let mut renamed = lists;
        renamed[victim].0.push('q');
        assert!(oracle.check_lists(n, renamed).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_answers_match_and_mutations_fail() {
        let (oracle, index, dir) = tiny("queries");
        let mut by_df: Vec<&(String, Vec<Posting>)> = oracle.terms.iter().collect();
        by_df.sort_by_key(|(_, l)| std::cmp::Reverse(l.len()));
        let heads: Vec<String> = by_df.iter().take(40).map(|(t, _)| t.clone()).collect();
        let mut checked_or = 0;
        for pair in heads.chunks(2) {
            let q = pair.join(" ");
            let terms = normalize_query(&q);
            let and = index.search_ranked(&q, QueryMode::And, Bm25Params::default());
            check_and(&oracle.and_answer(&terms), &and).unwrap();
            let mut or = index.search_ranked(&q, QueryMode::Or, Bm25Params::default());
            or.truncate(TOP_K);
            let want = oracle.or_top_k(&terms);
            check_top_k(&want, &or).unwrap();
            if or.len() >= 2 && or[0].doc != or[1].doc {
                let mut swapped = or.clone();
                swapped.swap(0, 1);
                assert!(check_top_k(&want, &swapped).is_err());
                checked_or += 1;
            }
            let want_and = oracle.and_answer(&terms);
            if let Some(last) = and.len().checked_sub(1) {
                let mut short = and.clone();
                short.remove(last);
                assert!(check_and(&want_and, &short).is_err());
                let mut other = and.clone();
                other[last].doc = DocId(other[last].doc.0 + oracle.n_docs);
                assert!(check_and(&want_and, &other).is_err());
                let mut scored = and.clone();
                scored[last].score *= 1.5;
                assert!(check_and(&want_and, &scored).is_err());
            }
        }
        assert!(checked_or > 0);
        let mut bumped = vec![RankedHit {
            doc: DocId(0),
            score: 1.0,
        }];
        assert!(check_top_k(&[(0, 1.0 + 1e-6)], &bumped).is_err());
        bumped[0].score = 1.0 + 1e-12;
        assert!(check_top_k(&[(0, 1.0)], &bumped).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_load_round_trip() {
        let (oracle, _, dir) = tiny("save");
        let path = dir.join("oracle.bin");
        oracle.save(&path).unwrap();
        let back = Oracle::load(&path).unwrap();
        assert_eq!(back.terms, oracle.terms);
        assert_eq!(back.n_docs, oracle.n_docs);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(Oracle::load(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
