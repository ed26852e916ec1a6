//! The TabSim encoder: triplet hashing + column statistics + frozen
//! projection + vertical pooling.

use crate::latency::LatencyModel;
use crate::ngram;
use crate::TabertConfig;
use qpseeker_storage::{fnv, ColumnData, Database, Table};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Width of the hashed feature space before projection.
const HASH_DIM: usize = 192;
/// Number of statistics features appended to the hashed features.
const STATS_DIM: usize = 16;

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

/// Per-session encoding cache: (table, query-bucket) → encoding. The query
/// only influences the snapshot-row choice, so we bucket queries by their
/// trigram hash. Owned by one session/thread; never shared.
#[derive(Default)]
pub struct TabertCache {
    cache: HashMap<(String, u64), TableEncoding>,
}

impl TabertCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached (table, query-bucket) encodings.
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
        let in_dim = HASH_DIM + STATS_DIM;
        // Frozen pseudo-random Gaussian-ish projection from splitmix64.
        let mut state = config.seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let scale = 1.0 / (in_dim as f32).sqrt();
        let projection = (0..in_dim * dim)
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
    /// selection). Cached per (table, query-shape).
    pub fn encode_table(
        &self,
        cache: &mut TabertCache,
        db: &Database,
        table: &str,
        query_text: &str,
    ) -> TableEncoding {
        let qkey = query_bucket(query_text);
        if let Some(hit) = cache.cache.get(&(table.to_string(), qkey)) {
            return hit.clone();
        }
        let t = db.table(table).unwrap_or_else(|| panic!("unknown table {table}"));
        self.charge_ms(self.latency.encode_table_ms(t.n_cols()));
        let enc = self.encode_uncached(t, query_text);
        cache.cache.insert((table.to_string(), qkey), enc.clone());
        enc
    }

    /// The `[CLS]` table vector only. On a cache hit this clones one `Vec`
    /// instead of the whole per-column encoding map — the planner's hot loop
    /// needs nothing else.
    pub fn encode_table_cls(
        &self,
        cache: &mut TabertCache,
        db: &Database,
        table: &str,
        query_text: &str,
    ) -> Vec<f32> {
        let qkey = query_bucket(query_text);
        if let Some(hit) = cache.cache.get(&(table.to_string(), qkey)) {
            return hit.cls.clone();
        }
        let t = db.table(table).unwrap_or_else(|| panic!("unknown table {table}"));
        self.charge_ms(self.latency.encode_table_ms(t.n_cols()));
        let enc = self.encode_uncached(t, query_text);
        let cls = enc.cls.clone();
        cache.cache.insert((table.to_string(), qkey), enc);
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
        let mut feats = vec![0.0f32; HASH_DIM + STATS_DIM];
        hash_token(&mut feats, &format!("name:{column}"));
        hash_token(&mut feats, &format!("type:{:?}", col.data.dtype()));
        hash_token(&mut feats, &format!("tbl:{table}"));
        hash_token(&mut feats, "filtered");
        let values: Vec<f64> = matching_rows.iter().map(|&r| col.data.num(r as usize)).collect();
        write_stats(&mut feats[HASH_DIM..], &values, t.n_rows());
        ColumnEncoding { vector: self.project(&feats) }
    }

    fn encode_uncached(&self, t: &Table, query_text: &str) -> TableEncoding {
        let snapshot = self.select_snapshot_rows(t, query_text);
        let mut columns = HashMap::new();
        let mut cls_feats = vec![0.0f32; HASH_DIM + STATS_DIM];
        hash_token(&mut cls_feats, &format!("tbl:{}", t.name));
        let mut total_rows_feat = Vec::new();

        for col in &t.columns {
            let mut feats = vec![0.0f32; HASH_DIM + STATS_DIM];
            hash_token(&mut feats, &format!("name:{}", col.name));
            hash_token(&mut feats, &format!("type:{:?}", col.data.dtype()));
            hash_token(&mut feats, &format!("tbl:{}", t.name));
            // Content snapshot: the cell values of the selected rows,
            // weighted by the row's overlap score (vertical attention).
            let total_w: f64 = snapshot.iter().map(|&(_, w)| w.max(1e-3)).sum();
            for &(row, w) in &snapshot {
                let cell = cell_text(&col.data, row);
                hash_token_weighted(
                    &mut feats,
                    &format!("val:{cell}"),
                    (w.max(1e-3) / total_w) as f32,
                );
            }
            // Distribution statistics over the full column (what MCP/CVR
            // pretraining teaches TaBERT to internalize).
            let values: Vec<f64> = (0..t.n_rows()).map(|i| col.data.num(i)).collect();
            write_stats(&mut feats[HASH_DIM..], &values, t.n_rows());

            // CLS accumulates column features (mean over columns).
            for (c, f) in cls_feats.iter_mut().zip(feats.iter()) {
                *c += f / t.n_cols() as f32;
            }
            total_rows_feat = values; // last column reused only for length; ignored
            columns.insert(col.name.clone(), ColumnEncoding { vector: self.project(&feats) });
        }
        let _ = total_rows_feat;
        // Table-level size feature into the CLS stats slot.
        cls_feats[HASH_DIM + STATS_DIM - 1] = ((t.n_rows() as f32) + 1.0).ln() / 20.0;
        TableEncoding { cls: self.project(&cls_feats), columns }
    }

    /// Top-K rows by trigram overlap with the query.
    fn select_snapshot_rows(&self, t: &Table, query_text: &str) -> Vec<(usize, f64)> {
        let qgrams = ngram::trigrams(query_text);
        let n = t.n_rows();
        if n == 0 {
            return Vec::new();
        }
        // Sample up to 256 rows for scoring (real TaBERT scans the table;
        // sampling keeps encoding O(1) while preserving the top-overlap
        // behaviour on our dictionary data).
        let stride = (n / 256).max(1);
        let mut scored: Vec<(usize, f64)> = (0..n)
            .step_by(stride)
            .map(|row| {
                let text: String =
                    t.columns.iter().map(|c| cell_text(&c.data, row)).collect::<Vec<_>>().join(" ");
                (row, ngram::overlap_score(&qgrams, &text))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        scored.truncate(self.config.k.max(1));
        scored
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

fn cell_text(data: &ColumnData, row: usize) -> String {
    match data {
        ColumnData::Int(v) => v[row].to_string(),
        ColumnData::Float(v) => format!("{:.2}", v[row]),
        ColumnData::Text { codes, dict } => dict[codes[row] as usize].clone(),
    }
}

fn hash_token(feats: &mut [f32], token: &str) {
    hash_token_weighted(feats, token, 1.0);
}

/// Feature hashing with sign (Weinberger et al.): bucket = h mod H,
/// sign from another bit of the hash.
fn hash_token_weighted(feats: &mut [f32], token: &str, weight: f32) {
    let h = fnv::bytes(token.as_bytes());
    let bucket = (h % HASH_DIM as u64) as usize;
    let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
    feats[bucket] += sign * weight;
}

/// Distribution statistics of a value vector, written into a 16-slot window:
/// log-count, distinct ratio, mean, std, min, max (normalized), plus an
/// 8-bin range-partitioned histogram sketch and selectivity.
fn write_stats(out: &mut [f32], values: &[f64], table_rows: usize) {
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

/// Bucket a query's text to a cache key.
fn query_bucket(query_text: &str) -> u64 {
    fnv::bytes(query_text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSize;
    use qpseeker_storage::datagen::imdb;

    fn db() -> Database {
        imdb::generate(0.1, 3)
    }

    #[test]
    fn feature_hashes_are_pinned() {
        // Cache keys and hashed-feature buckets of every saved model depend
        // on these values.
        assert_eq!(query_bucket("SELECT * FROM title"), 0x2e4c47f2523ce927);
        let mut feats = vec![0.0; HASH_DIM];
        hash_token_weighted(&mut feats, "title", 0.5);
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
        let ts = TabSim::new(TabertConfig::paper_default());
        let query = format!("keyword = '{target}'");
        let rows = ts.select_snapshot_rows(t, &query);
        assert_eq!(rows.len(), 1);
        let (chosen, chosen_score) = rows[0];
        // The chosen row must score at least as high as any other sampled
        // row (top-1 by overlap), and strictly above the table median.
        let qgrams = ngram::trigrams(&query);
        let row_text = |row: usize| -> String {
            t.columns.iter().map(|c| cell_text(&c.data, row)).collect::<Vec<_>>().join(" ")
        };
        let mut scores: Vec<f64> =
            (0..t.n_rows()).map(|r| ngram::overlap_score(&qgrams, &row_text(r))).collect();
        assert!((chosen_score - ngram::overlap_score(&qgrams, &row_text(chosen))).abs() < 1e-12);
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = scores[scores.len() / 2];
        assert!(chosen_score >= median, "chosen {chosen_score} vs median {median}");
    }
}
