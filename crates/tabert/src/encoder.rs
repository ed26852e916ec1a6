//! The TabSim encoder: triplet hashing + column statistics + frozen
//! projection + vertical pooling.

use crate::index::{TabertQuery, TableIndex};
use crate::latency::LatencyModel;
use crate::TabertConfig;
use qpseeker_storage::fnv::{self, FnvBuild};
use qpseeker_storage::{ColumnData, Database};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Width of the hashed feature space before projection.
const HASH_DIM: usize = 192;
/// Number of statistics features appended to the hashed features.
pub(crate) const STATS_DIM: usize = 16;
const IN_DIM: usize = HASH_DIM + STATS_DIM;

/// Encoding of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnEncoding {
    pub vector: Vec<f32>,
}

/// Encoding of one table for one query: per-column vectors and the `[CLS]`
/// table vector.
#[derive(Debug, Clone)]
pub struct TableEncoding {
    pub cls: Vec<f32>,
    pub columns: HashMap<String, ColumnEncoding>,
}

/// The TabSim encoder. Create once per database and share freely: the struct
/// is immutable apart from one atomic latency counter, so it is `Send + Sync`
/// with no locks. Encodings are cached in a caller-owned [`TabertCache`] —
/// one per planner session — which keeps the hot path free of shared state.
pub struct TabSim {
    config: TabertConfig,
    /// Frozen projection matrix `[HASH_DIM + STATS_DIM, dim]`, row-major.
    projection: Vec<f32>,
    latency: LatencyModel,
    /// Cumulative simulated encoding time in nanoseconds (drives Fig. 8
    /// right). Integer adds are commutative, so concurrent sessions produce
    /// the same total regardless of interleaving.
    simulated_ns: AtomicU64,
}

/// Per-session encoding cache, keyed by (table, FNV of the query's full SQL
/// text). Owned by one session/thread; never shared.
#[derive(Default)]
pub struct TabertCache {
    cache: HashMap<(String, u64), Cached>,
}

/// A cached encoding; the per-column map only once a caller asked for it.
struct Cached {
    cls: Vec<f32>,
    columns: Option<HashMap<String, ColumnEncoding>>,
}

impl TabertCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached (table, query) encodings.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

impl TabSim {
    pub fn new(config: TabertConfig) -> Self {
        let dim = config.dim();
        // Frozen pseudo-random Gaussian-ish projection from splitmix64.
        let mut state = config.seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let scale = 1.0 / (IN_DIM as f32).sqrt();
        let projection = (0..IN_DIM * dim)
            .map(|_| {
                // Sum of 4 uniforms ≈ Gaussian (Irwin-Hall), centered.
                let mut acc = 0.0f32;
                for _ in 0..4 {
                    acc += (next() >> 40) as f32 / (1u64 << 24) as f32;
                }
                (acc - 2.0) * scale
            })
            .collect();
        let latency = LatencyModel::new(&config);
        Self { config, projection, latency, simulated_ns: AtomicU64::new(0) }
    }

    /// Cumulative simulated encoding time in milliseconds.
    pub fn simulated_ms(&self) -> f64 {
        self.simulated_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Charge `ms` of simulated encoding latency, quantized to nanoseconds
    /// so concurrent adds commute exactly.
    fn charge_ms(&self, ms: f64) {
        self.simulated_ns.fetch_add((ms * 1e6).round() as u64, Ordering::Relaxed);
    }

    pub fn config(&self) -> &TabertConfig {
        &self.config
    }

    pub fn dim(&self) -> usize {
        self.config.dim()
    }

    /// Encode a table in the context of a query (the paper concatenates the
    /// query with the column triplets; here the query drives snapshot-row
    /// selection), with its per-column vectors. Builds the table's
    /// [`TableIndex`] on the spot; a caller encoding many queries against
    /// one table should hold the index and use [`Self::encode_table_cls`].
    /// Cached per (table, SQL text), like [`Self::encode_table_cls`], with
    /// which it shares cache entries and the latency charge.
    pub fn encode_table(
        &self,
        cache: &mut TabertCache,
        db: &Database,
        table: &str,
        query_text: &str,
    ) -> TableEncoding {
        let query = TabertQuery::new(query_text);
        let key = (table.to_string(), query.key);
        if let Some(Cached { cls, columns: Some(columns) }) = cache.cache.get(&key) {
            return TableEncoding { cls: cls.clone(), columns: columns.clone() };
        }
        let t = db.table(table).unwrap_or_else(|| panic!("unknown table {table}"));
        if !cache.cache.contains_key(&key) {
            self.charge_ms(self.latency.encode_table_ms(t.n_cols()));
        }
        let mut columns = HashMap::new();
        let cls = self.encode(&TableIndex::build(t), &query, Some(&mut columns));
        cache.cache.insert(key, Cached { cls: cls.clone(), columns: Some(columns.clone()) });
        TableEncoding { cls, columns }
    }

    /// The `[CLS]` table vector only, against a held index: the planner's
    /// hot loop needs nothing else, so the per-column projections are
    /// skipped. Bitwise equal to [`Self::encode_table`]'s `cls`.
    pub fn encode_table_cls(
        &self,
        cache: &mut TabertCache,
        index: &TableIndex,
        query: &TabertQuery,
    ) -> Vec<f32> {
        let key = (index.name.clone(), query.key);
        if let Some(hit) = cache.cache.get(&key) {
            return hit.cls.clone();
        }
        self.charge_ms(self.latency.encode_table_ms(index.columns.len()));
        let cls = self.encode(index, query, None);
        cache.cache.insert(key, Cached { cls: cls.clone(), columns: None });
        cls
    }

    /// Representation of a column *restricted by a predicate* (paper §4.2:
    /// "we take the representation of this column filtered based on this
    /// predicate"). The statistics half of the feature vector is recomputed
    /// over the matching rows only.
    pub fn encode_column_filtered(
        &self,
        db: &Database,
        table: &str,
        column: &str,
        matching_rows: &[u32],
    ) -> ColumnEncoding {
        let t = db.table(table).unwrap_or_else(|| panic!("unknown table {table}"));
        let col = t.col(column);
        self.charge_ms(self.latency.encode_column_ms());
        let mut feats = [0.0f32; IN_DIM];
        Token::of(&format!("name:{column}")).add(&mut feats, 1.0);
        Token::of(&format!("type:{:?}", col.data.dtype())).add(&mut feats, 1.0);
        Token::of(&format!("tbl:{table}")).add(&mut feats, 1.0);
        Token::of("filtered").add(&mut feats, 1.0);
        let values: Vec<f64> = matching_rows.iter().map(|&r| col.data.num(r as usize)).collect();
        write_stats(&mut feats[HASH_DIM..], &values, t.n_rows());
        ColumnEncoding { vector: self.project(&feats) }
    }

    /// The one encoding routine: the `[CLS]` vector of `index`'s table for
    /// `query`, and each column's vector into `columns` when asked.
    fn encode(
        &self,
        index: &TableIndex,
        query: &TabertQuery,
        mut columns: Option<&mut HashMap<String, ColumnEncoding>>,
    ) -> Vec<f32> {
        let snapshot = index.top_k(query, self.config.k.max(1));
        // Vertical attention: each snapshot row's cells weigh by the row's
        // overlap score.
        let total_w: f64 = snapshot.iter().map(|&(_, w)| w.max(1e-3)).sum();
        let weights: Vec<f32> =
            snapshot.iter().map(|&(_, w)| (w.max(1e-3) / total_w) as f32).collect();
        let mut cls_feats = [0.0f32; IN_DIM];
        index.tbl.add(&mut cls_feats, 1.0);
        let n_cols = index.columns.len() as f32;
        for (c, col) in index.columns.iter().enumerate() {
            let mut feats = [0.0f32; IN_DIM];
            for token in col.tokens.into_iter().chain([index.tbl]) {
                token.add(&mut feats, 1.0);
            }
            // Content snapshot: the cell values of the selected rows.
            for (&(pos, _), &w) in snapshot.iter().zip(&weights) {
                index.val(pos, c).add(&mut feats, w);
            }
            // Distribution statistics over the full column (what MCP/CVR
            // pretraining teaches TaBERT to internalize).
            feats[HASH_DIM..].copy_from_slice(&col.stats);
            // CLS accumulates column features (mean over columns).
            for (x, f) in cls_feats.iter_mut().zip(&feats) {
                *x += f / n_cols;
            }
            if let Some(columns) = columns.as_deref_mut() {
                columns.insert(col.name.clone(), ColumnEncoding { vector: self.project(&feats) });
            }
        }
        // Table-level size feature into the CLS stats slot.
        cls_feats[IN_DIM - 1] = ((index.n_rows as f32) + 1.0).ln() / 20.0;
        self.project(&cls_feats)
    }

    fn project(&self, feats: &[f32]) -> Vec<f32> {
        let dim = self.config.dim();
        let mut out = vec![0.0f32; dim];
        for (i, &f) in feats.iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            let row = &self.projection[i * dim..(i + 1) * dim];
            for (o, &p) in out.iter_mut().zip(row) {
                *o += f * p;
            }
        }
        // tanh squashing keeps downstream encoder inputs bounded.
        for o in &mut out {
            *o = o.tanh();
        }
        out
    }
}

/// Append a cell's text to `out`.
pub(crate) fn write_cell(out: &mut String, data: &ColumnData, row: usize) {
    use std::fmt::Write;
    match data {
        ColumnData::Int(v) => write!(out, "{}", v[row]),
        ColumnData::Float(v) => write!(out, "{:.2}", v[row]),
        ColumnData::Text { codes, dict } => out.write_str(&dict[codes[row] as usize]),
    }
    .expect("writing to a String cannot fail");
}

/// A feature-hashed token (Weinberger et al.): bucket = h mod H, sign from
/// another bit of the hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token {
    bucket: u8,
    negative: bool,
}

impl Token {
    pub(crate) fn of(text: &str) -> Self {
        Self::hashed(fnv::bytes(text.as_bytes()))
    }

    /// The token `val:{cell}`, hashed without building the string.
    pub(crate) fn val(cell: &str) -> Self {
        let mut h = FnvBuild.build_hasher();
        h.write(b"val:");
        h.write(cell.as_bytes());
        Self::hashed(h.finish())
    }

    fn hashed(h: u64) -> Self {
        Self { bucket: (h % HASH_DIM as u64) as u8, negative: h >> 63 != 0 }
    }

    /// Add the token with `weight` to its signed bucket.
    pub(crate) fn add(self, feats: &mut [f32], weight: f32) {
        feats[self.bucket as usize] += if self.negative { -weight } else { weight };
    }
}

/// Distribution statistics of a value vector, written into a 16-slot window:
/// log-count, distinct ratio, mean, std, min, max (normalized), plus an
/// 8-bin range-partitioned histogram sketch and selectivity.
pub(crate) fn write_stats(out: &mut [f32], values: &[f64], table_rows: usize) {
    debug_assert_eq!(out.len(), STATS_DIM);
    let n = values.len();
    out[0] = ((n as f32) + 1.0).ln() / 20.0;
    if n == 0 {
        return;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let distinct = 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count();
    out[1] = distinct as f32 / n as f32;
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    let (min, max) = (sorted[0], *sorted.last().expect("non-empty"));
    out[2] = squash(mean);
    out[3] = squash(var.sqrt());
    out[4] = squash(min);
    out[5] = squash(max);
    // 8-bin equi-width histogram sketch over [min, max].
    let span = (max - min).max(1e-9);
    let mut bins = [0usize; 8];
    for &v in values {
        let b = (((v - min) / span) * 8.0).min(7.0) as usize;
        bins[b] += 1;
    }
    for (i, &b) in bins.iter().enumerate() {
        out[6 + i] = b as f32 / n as f32;
    }
    out[14] = n as f32 / table_rows.max(1) as f32; // selectivity of the subset
}

fn squash(v: f64) -> f32 {
    let s = v.signum();
    (s * (v.abs() + 1.0).ln() / 20.0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ngram, ModelSize};
    use qpseeker_storage::datagen::imdb;

    fn db() -> Database {
        imdb::generate(0.1, 3)
    }

    #[test]
    fn feature_hashes_are_pinned() {
        // Cache keys and hashed-feature buckets of every saved model depend
        // on these values.
        assert_eq!(TabertQuery::new("SELECT * FROM title").key, 0x2e4c47f2523ce927);
        let mut feats = vec![0.0; HASH_DIM];
        Token::of("title").add(&mut feats, 0.5);
        assert_eq!(feats[169], -0.5);
        assert_eq!(feats.iter().filter(|&&x| x != 0.0).count(), 1);
    }

    #[test]
    fn encoding_has_requested_dimension() {
        let db = db();
        let ts = TabSim::new(TabertConfig::paper_default());
        let mut cache = TabertCache::new();
        let enc = ts.encode_table(&mut cache, &db, "title", "select * from title");
        assert_eq!(enc.cls.len(), 64);
        for c in enc.columns.values() {
            assert_eq!(c.vector.len(), 64);
        }
        let large =
            TabSim::new(TabertConfig { size: ModelSize::Large, ..TabertConfig::paper_default() });
        assert_eq!(large.dim(), 96);
    }

    #[test]
    fn deterministic_per_seed() {
        let db = db();
        let a = TabSim::new(TabertConfig::paper_default());
        let b = TabSim::new(TabertConfig::paper_default());
        let ea = a.encode_table(&mut TabertCache::new(), &db, "title", "q");
        let eb = b.encode_table(&mut TabertCache::new(), &db, "title", "q");
        assert_eq!(ea.cls, eb.cls);

        let c = TabSim::new(TabertConfig { seed: 999, ..TabertConfig::paper_default() });
        let ec = c.encode_table(&mut TabertCache::new(), &db, "title", "q");
        assert_ne!(ea.cls, ec.cls);
    }

    #[test]
    fn different_tables_encode_differently() {
        let db = db();
        let ts = TabSim::new(TabertConfig::paper_default());
        let mut cache = TabertCache::new();
        let a = ts.encode_table(&mut cache, &db, "title", "q");
        let b = ts.encode_table(&mut cache, &db, "name", "q");
        assert_ne!(a.cls, b.cls);
    }

    #[test]
    fn columns_of_same_table_encode_differently() {
        let db = db();
        let ts = TabSim::new(TabertConfig::paper_default());
        let enc = ts.encode_table(&mut TabertCache::new(), &db, "title", "q");
        let id = &enc.columns["id"].vector;
        let year = &enc.columns["production_year"].vector;
        assert_ne!(id, year);
    }

    #[test]
    fn filtered_column_differs_from_unfiltered() {
        let db = db();
        let ts = TabSim::new(TabertConfig::paper_default());
        let all: Vec<u32> = (0..db.table("title").unwrap().n_rows() as u32).collect();
        let some: Vec<u32> = all.iter().take(10).cloned().collect();
        let a = ts.encode_column_filtered(&db, "title", "production_year", &all);
        let b = ts.encode_column_filtered(&db, "title", "production_year", &some);
        assert_ne!(a, b);
    }

    #[test]
    fn values_are_bounded() {
        let db = db();
        let ts = TabSim::new(TabertConfig::paper_default());
        let enc =
            ts.encode_table(&mut TabertCache::new(), &db, "cast_info", "select big join query");
        assert!(enc.cls.iter().all(|v| v.abs() <= 1.0));
        for c in enc.columns.values() {
            assert!(c.vector.iter().all(|v| v.abs() <= 1.0 && v.is_finite()));
        }
    }

    #[test]
    fn caching_hits_on_same_query_shape() {
        let db = db();
        let ts = TabSim::new(TabertConfig::paper_default());
        let mut cache = TabertCache::new();
        ts.encode_table(&mut cache, &db, "title", "same query");
        let after_first = ts.simulated_ms();
        ts.encode_table(&mut cache, &db, "title", "same query");
        assert_eq!(ts.simulated_ms(), after_first, "cache hit must not add latency");
        ts.encode_table(&mut cache, &db, "title", "different query");
        assert!(ts.simulated_ms() > after_first);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn k3_and_large_cost_more_simulated_time() {
        let db = db();
        let base = TabSim::new(TabertConfig { k: 1, size: ModelSize::Base, seed: 1 });
        let k3 = TabSim::new(TabertConfig { k: 3, size: ModelSize::Base, seed: 1 });
        let large = TabSim::new(TabertConfig { k: 1, size: ModelSize::Large, seed: 1 });
        base.encode_table(&mut TabertCache::new(), &db, "title", "q");
        k3.encode_table(&mut TabertCache::new(), &db, "title", "q");
        large.encode_table(&mut TabertCache::new(), &db, "title", "q");
        assert!(k3.simulated_ms() > base.simulated_ms(), "K=3 must cost more (row-wise attention)");
        assert!(large.simulated_ms() > base.simulated_ms(), "Large must cost more (3x params)");
    }

    #[test]
    fn snapshot_row_follows_query_overlap() {
        // A query mentioning a specific keyword should select a row whose
        // text overlaps it more than a random query does.
        let db = db();
        let t = db.table("keyword").unwrap();
        let target = match &t.col("keyword").data {
            ColumnData::Text { codes, dict } => dict[codes[5] as usize].clone(),
            _ => panic!("keyword is text"),
        };
        let query = format!("keyword = '{target}'");
        let rows = TableIndex::build(t).snapshot(&TabertQuery::new(&query), 1);
        assert_eq!(rows.len(), 1);
        let (chosen, chosen_score) = rows[0];
        // The chosen row must score at least as high as any other sampled
        // row (top-1 by overlap), and strictly above the table median.
        let qgrams = ngram::trigrams(&query);
        let score = |row: usize| -> f64 {
            let mut text = String::new();
            for c in &t.columns {
                write_cell(&mut text, &c.data, row);
                text.push(' ');
            }
            ngram::overlap(&qgrams, &ngram::trigrams(&text))
        };
        let mut scores: Vec<f64> = (0..t.n_rows()).map(score).collect();
        assert_eq!(chosen_score, score(chosen));
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = scores[scores.len() / 2];
        assert!(chosen_score >= median, "chosen {chosen_score} vs median {median}");
        assert_eq!(chosen_score, *scores.last().unwrap());
    }

    #[test]
    fn cls_only_encoding_equals_the_full_one_in_either_order() {
        // The two entry points share cache entries: whichever encodes a
        // (table, query) first pays the simulated latency, once, and the
        // other reads the same bits on a hit — or, for `encode_table` after
        // a cls-only entry, computes the columns without a second charge.
        let db = db();
        for k in [1, 3] {
            let ts = TabSim::new(TabertConfig { k, ..TabertConfig::paper_default() });
            for table in ["title", "keyword", "cast_info"] {
                let index = TableIndex::build(db.table(table).unwrap());
                let sql = format!("select * from {table} where note = 'x'");
                let query = TabertQuery::new(&sql);
                let one_charge = ts.latency.encode_table_ms(index.columns.len());

                // cls first: a miss, then a hit; encode_table then completes it.
                let mut cache = TabertCache::new();
                let before = ts.simulated_ms();
                let miss = ts.encode_table_cls(&mut cache, &index, &query);
                let hit = ts.encode_table_cls(&mut cache, &index, &query);
                let full = ts.encode_table(&mut cache, &db, table, &sql);
                let full_hit = ts.encode_table(&mut cache, &db, table, &sql);
                assert!((ts.simulated_ms() - before - one_charge).abs() < 1e-6);
                assert_eq!(bits(&miss), bits(&full.cls));
                assert_eq!(bits(&hit), bits(&full.cls));
                assert_eq!(bits(&full_hit.cls), bits(&full.cls));
                assert_eq!(full_hit.columns, full.columns);
                assert_eq!(cache.len(), 1);

                // encode_table first: the cls-only call is a hit.
                let mut cache = TabertCache::new();
                let before = ts.simulated_ms();
                let full2 = ts.encode_table(&mut cache, &db, table, &sql);
                let hit2 = ts.encode_table_cls(&mut cache, &index, &query);
                assert!((ts.simulated_ms() - before - one_charge).abs() < 1e-6);
                assert_eq!(bits(&full2.cls), bits(&full.cls));
                assert_eq!(bits(&hit2), bits(&full.cls));
                assert_eq!(full2.columns, full.columns);

                // A fresh cache misses again, with the same bits.
                let before = ts.simulated_ms();
                let cold = ts.encode_table_cls(&mut TabertCache::new(), &index, &query);
                assert!((ts.simulated_ms() - before - one_charge).abs() < 1e-6);
                assert_eq!(bits(&cold), bits(&full.cls));
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
