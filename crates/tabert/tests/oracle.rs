//! Oracle for the indexed TabSim encoder: a verbatim copy of the encoder
//! that rebuilt every sampled row's text and trigram set for each (table,
//! query) pair runs beside [`TableIndex`] + [`TabSim`], and every snapshot
//! score, `[CLS]` vector and column vector must match bit for bit.
//!
//! Tables: all of `imdb::generate(0.05, 12)` (every one under 512 rows, so
//! every row is scored), all of `imdb::generate(0.2, 12)` (tables of 1,200
//! and 1,600 rows, so the sampling stride exceeds 1), and hand-made tables
//! whose rows include empty and whitespace-only text, float cells and
//! duplicate rows. Query texts are empty, under three bytes, whitespace
//! only, upper-cased, free of any table's characters (every score ties at
//! 0), arbitrary, or spliced from real cell values (partial overlaps, many
//! ties).
//!
//! The CI chaos job sweeps the texts over seeds {1,2,3} via
//! `QPS_CHAOS_SEED` (see .github/workflows).

use proptest::prelude::*;
use qpseeker_storage::datagen::imdb;
use qpseeker_storage::{
    Catalog, Column, ColumnData, ColumnMeta, DataType, Database, Table, TableMeta,
};
use qpseeker_tabert::{ModelSize, TabSim, TabertCache, TabertConfig, TabertQuery, TableIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

fn chaos_seed() -> u64 {
    std::env::var("QPS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// The encoder as it was before the table index, copied verbatim apart from
/// taking the config and database explicitly.
mod legacy {
    use qpseeker_storage::{fnv, ColumnData, Table};
    use qpseeker_tabert::TabertConfig;
    use std::collections::{HashMap, HashSet};

    const HASH_DIM: usize = 192;
    const STATS_DIM: usize = 16;

    pub fn trigrams(s: &str) -> HashSet<[u8; 3]> {
        let norm: Vec<u8> = s
            .bytes()
            .map(|b| if b.is_ascii_uppercase() { b + 32 } else { b })
            .filter(|b| !b.is_ascii_whitespace())
            .collect();
        let mut out = HashSet::new();
        if norm.len() >= 3 {
            for w in norm.windows(3) {
                out.insert([w[0], w[1], w[2]]);
            }
        } else if !norm.is_empty() {
            let mut g = [b' '; 3];
            for (i, &b) in norm.iter().enumerate() {
                g[i] = b;
            }
            out.insert(g);
        }
        out
    }

    pub fn jaccard(a: &HashSet<[u8; 3]>, b: &HashSet<[u8; 3]>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count();
        let union = a.len() + b.len() - inter;
        inter as f64 / union.max(1) as f64
    }

    pub fn overlap_score(query_grams: &HashSet<[u8; 3]>, text: &str) -> f64 {
        jaccard(query_grams, &trigrams(text))
    }

    pub struct Legacy {
        config: TabertConfig,
        projection: Vec<f32>,
    }

    impl Legacy {
        pub fn new(config: TabertConfig) -> Self {
            let dim = config.dim();
            let in_dim = HASH_DIM + STATS_DIM;
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
                    let mut acc = 0.0f32;
                    for _ in 0..4 {
                        acc += (next() >> 40) as f32 / (1u64 << 24) as f32;
                    }
                    (acc - 2.0) * scale
                })
                .collect();
            Self { config, projection }
        }

        pub fn encode_uncached(
            &self,
            t: &Table,
            query_text: &str,
        ) -> (Vec<f32>, HashMap<String, Vec<f32>>) {
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
                let total_w: f64 = snapshot.iter().map(|&(_, w)| w.max(1e-3)).sum();
                for &(row, w) in &snapshot {
                    let cell = cell_text(&col.data, row);
                    hash_token_weighted(
                        &mut feats,
                        &format!("val:{cell}"),
                        (w.max(1e-3) / total_w) as f32,
                    );
                }
                let values: Vec<f64> = (0..t.n_rows()).map(|i| col.data.num(i)).collect();
                write_stats(&mut feats[HASH_DIM..], &values, t.n_rows());

                for (c, f) in cls_feats.iter_mut().zip(feats.iter()) {
                    *c += f / t.n_cols() as f32;
                }
                total_rows_feat = values;
                columns.insert(col.name.clone(), self.project(&feats));
            }
            let _ = total_rows_feat;
            cls_feats[HASH_DIM + STATS_DIM - 1] = ((t.n_rows() as f32) + 1.0).ln() / 20.0;
            (self.project(&cls_feats), columns)
        }

        pub fn select_snapshot_rows(&self, t: &Table, query_text: &str) -> Vec<(usize, f64)> {
            let qgrams = trigrams(query_text);
            let n = t.n_rows();
            if n == 0 {
                return Vec::new();
            }
            let stride = (n / 256).max(1);
            let mut scored: Vec<(usize, f64)> = (0..n)
                .step_by(stride)
                .map(|row| {
                    let text: String = t
                        .columns
                        .iter()
                        .map(|c| cell_text(&c.data, row))
                        .collect::<Vec<_>>()
                        .join(" ");
                    (row, overlap_score(&qgrams, &text))
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
            for o in &mut out {
                *o = o.tanh();
            }
            out
        }
    }

    pub fn cell_text(data: &ColumnData, row: usize) -> String {
        match data {
            ColumnData::Int(v) => v[row].to_string(),
            ColumnData::Float(v) => format!("{:.2}", v[row]),
            ColumnData::Text { codes, dict } => dict[codes[row] as usize].clone(),
        }
    }

    fn hash_token(feats: &mut [f32], token: &str) {
        hash_token_weighted(feats, token, 1.0);
    }

    fn hash_token_weighted(feats: &mut [f32], token: &str, weight: f32) {
        let h = fnv::bytes(token.as_bytes());
        let bucket = (h % HASH_DIM as u64) as usize;
        let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
        feats[bucket] += sign * weight;
    }

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
        let span = (max - min).max(1e-9);
        let mut bins = [0usize; 8];
        for &v in values {
            let b = (((v - min) / span) * 8.0).min(7.0) as usize;
            bins[b] += 1;
        }
        for (i, &b) in bins.iter().enumerate() {
            out[6 + i] = b as f32 / n as f32;
        }
        out[14] = n as f32 / table_rows.max(1) as f32;
    }

    fn squash(v: f64) -> f32 {
        let s = v.signum();
        (s * (v.abs() + 1.0).ln() / 20.0) as f32
    }
}

/// Text cells with empty, whitespace-only, short and case-variant values,
/// repeated so that rows tie; a row whose every cell is blank has an empty
/// trigram set.
fn edge_db() -> Database {
    const TEXTS: [&str; 9] = ["", " ", "ab", "A", "x y z", "Drama", "drama", "  DRAMA  ", "\t"];
    let text = |stride: usize| {
        let mut b = qpseeker_storage::TextBuilder::new();
        for i in 0..48 {
            b.push(TEXTS[(i * stride) % TEXTS.len()]);
        }
        b.finish()
    };
    let blanks = Table::new(
        "blanks",
        vec![
            Column { name: "a".into(), data: text(1) },
            Column { name: "b".into(), data: text(2) },
        ],
    );
    let numbers = Table::new(
        "numbers",
        vec![
            Column {
                name: "i".into(),
                data: ColumnData::Int((0..48).map(|i| i % 7 - 3).collect()),
            },
            Column {
                name: "f".into(),
                data: ColumnData::Float((0..48).map(|i| (i % 5) as f64 * 1.005 - 2.0).collect()),
            },
        ],
    );
    let empty =
        Table::new("empty", vec![Column { name: "e".into(), data: ColumnData::Int(vec![]) }]);
    let meta = |t: &Table, dtypes: &[DataType]| TableMeta {
        name: t.name.clone(),
        columns: t
            .columns
            .iter()
            .zip(dtypes)
            .map(|(c, &dtype)| ColumnMeta { name: c.name.clone(), dtype })
            .collect(),
    };
    let catalog = Catalog {
        tables: vec![
            meta(&blanks, &[DataType::Text, DataType::Text]),
            meta(&numbers, &[DataType::Int, DataType::Float]),
            meta(&empty, &[DataType::Int]),
        ],
        foreign_keys: vec![],
        indexes: vec![],
    };
    Database::new("edge", catalog, vec![blanks, numbers, empty])
}

/// Every database under test, each table with its index.
fn fixtures() -> &'static [(Database, Vec<TableIndex>)] {
    static DBS: OnceLock<Vec<(Database, Vec<TableIndex>)>> = OnceLock::new();
    DBS.get_or_init(|| {
        [imdb::generate(0.05, 12), imdb::generate(0.2, 12), edge_db()]
            .into_iter()
            .map(|db| {
                let indexes = db.tables.iter().map(TableIndex::build).collect();
                (db, indexes)
            })
            .collect()
    })
}

/// A query text of one of the kinds the module doc lists.
fn query_text(kind: u8, rng: &mut StdRng) -> String {
    let mut text = match kind {
        0 => String::new(),
        1 => (0..rng.gen_range(1..=2)).map(|_| rng.gen_range(b'a'..=b'z') as char).collect(),
        2 => (0..rng.gen_range(1..8)).map(|_| [' ', '\t', '\n'][rng.gen_range(0..3)]).collect(),
        3 => (0..rng.gen_range(3..24)).map(|_| ['~', '^', '|', '`'][rng.gen_range(0..4)]).collect(),
        4 => (0..rng.gen_range(0..80)).map(|_| rng.gen_range(0x20u8..0x7f) as char).collect(),
        _ => {
            // "SELECT … WHERE" around fragments of real cells.
            let (db, _) = &fixtures()[rng.gen_range(0..fixtures().len())];
            let mut s = String::from("SELECT COUNT(*) FROM t WHERE ");
            for _ in 0..rng.gen_range(1..5) {
                let t = &db.tables[rng.gen_range(0..db.tables.len())];
                if t.n_rows() == 0 {
                    continue;
                }
                let col = &t.columns[rng.gen_range(0..t.n_cols())];
                let cell = legacy::cell_text(&col.data, rng.gen_range(0..t.n_rows()));
                let cut = rng.gen_range(0..=cell.len());
                let frag = cell.get(..cut).unwrap_or(&cell);
                s.push_str(&format!("{}.{} = '{frag}' AND ", t.name, col.name));
            }
            s
        }
    };
    if rng.gen_bool(0.3) {
        text = text.to_uppercase();
    }
    text
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check(config: TabertConfig, text: &str) -> Result<(), String> {
    let oracle = legacy::Legacy::new(config.clone());
    let ts = TabSim::new(config.clone());
    let query = TabertQuery::new(text);
    for (db, indexes) in fixtures() {
        for (t, index) in db.tables.iter().zip(indexes) {
            let want_rows = oracle.select_snapshot_rows(t, text);
            let got_rows = index.snapshot(&query, config.k);
            let key = |rows: &[(usize, f64)]| -> Vec<(usize, u64)> {
                rows.iter().map(|&(r, s)| (r, s.to_bits())).collect()
            };
            prop_assert_eq!(key(&got_rows), key(&want_rows), "snapshot of {}", t.name);

            let (cls, columns) = oracle.encode_uncached(t, text);
            let held = ts.encode_table_cls(&mut TabertCache::new(), index, &query);
            prop_assert_eq!(bits(&held), bits(&cls), "held-index cls of {}", t.name);
            let full = ts.encode_table(&mut TabertCache::new(), db, &t.name, text);
            prop_assert_eq!(bits(&full.cls), bits(&cls), "cls of {}", t.name);
            prop_assert_eq!(full.columns.len(), columns.len());
            for (name, v) in &columns {
                prop_assert_eq!(bits(&full.columns[name].vector), bits(v), "{}.{}", t.name, name);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed encoder selects the same rows with the same scores and
    /// produces the same bits as the verbatim rebuild-per-pair encoder.
    #[test]
    fn indexed_encoder_matches_the_rebuilding_one(
        seed in 0u64..u64::MAX,
        kind in 0u8..6,
        k in 1usize..=3,
        large in prop::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ chaos_seed());
        let text = query_text(kind, &mut rng);
        let size = if large { ModelSize::Large } else { ModelSize::Base };
        check(TabertConfig { k, size, seed: rng.gen() }, &text)?;
    }
}

/// Each text kind once, at the paper's default config, whatever the
/// proptest draws.
#[test]
fn every_text_kind_matches_at_the_default_config() {
    let mut rng = StdRng::seed_from_u64(chaos_seed());
    for kind in 0..6 {
        for k in [1, 3] {
            let text = query_text(kind, &mut rng);
            let config = TabertConfig { k, ..TabertConfig::paper_default() };
            check(config, &text).unwrap_or_else(|e| panic!("kind {kind}, {text:?}: {e}"));
        }
    }
}
