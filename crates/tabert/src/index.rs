//! What TabSim needs of a table, computed once per table, and of a query,
//! computed once per query.
//!
//! Only the choice of snapshot rows depends on the query. Everything else
//! an encoding reads — the sampled rows' trigram sets, their `val:` token
//! hashes, each column's statistics window and `name:` / `type:` hashes,
//! the `tbl:` hash — depends on the table alone. A [`TableIndex`] holds those, with
//! trigram → sampled-row postings, so one (table, query) pair costs a
//! postings walk for the intersection counts, a top-K pass and the
//! projection.

use crate::encoder::{write_cell, write_stats, Token, STATS_DIM};
use crate::ngram;
use qpseeker_storage::{fnv, Table};

/// What TabSim needs of one query: the cache key (the FNV of its full SQL
/// text) and its trigram set. Build it once per query and use it for every
/// table the query touches.
#[derive(Debug)]
pub struct TabertQuery {
    pub(crate) key: u64,
    grams: Vec<u32>,
}

impl TabertQuery {
    pub fn new(sql: &str) -> Self {
        Self { key: fnv::bytes(sql.as_bytes()), grams: ngram::trigrams(sql) }
    }
}

/// The query-independent half of one column's features.
#[derive(Debug)]
pub(crate) struct ColumnIndex {
    pub name: String,
    /// The `name:` and `type:` tokens.
    pub tokens: [Token; 2],
    /// Distribution statistics over the full column.
    pub stats: [f32; STATS_DIM],
}

/// One table's TabSim index. It depends on the table alone — not on the
/// query, the projection seed, K or the model size — so it is built once
/// and shared read-only by every session and thread.
#[derive(Debug)]
pub struct TableIndex {
    pub(crate) name: String,
    pub(crate) n_rows: usize,
    /// Sampled row ids, in row order; a row's *position* is its index here.
    rows: Vec<u32>,
    /// Size of each sampled row's trigram set.
    row_grams: Vec<u32>,
    /// Distinct trigrams of the sampled rows, sorted; trigram `grams[i]`
    /// occurs in the positions `posts[starts[i]..starts[i + 1]]`.
    grams: Vec<u32>,
    starts: Vec<u32>,
    posts: Vec<u16>,
    /// `val:{cell}` token of each (position, column), row-major.
    vals: Vec<Token>,
    /// The `tbl:` token.
    pub(crate) tbl: Token,
    pub(crate) columns: Vec<ColumnIndex>,
}

impl TableIndex {
    pub fn build(t: &Table) -> Self {
        let n = t.n_rows();
        // Score every `stride`-th row (real TaBERT scans the table;
        // sampling bounds a pair's cost while keeping the top-overlap
        // behaviour on our dictionary data): every row below 512 rows,
        // 256–511 of them above.
        let stride = (n / 256).max(1);
        let rows: Vec<u32> = (0..n).step_by(stride).map(|r| r as u32).collect();
        let mut row_grams = Vec::with_capacity(rows.len());
        let mut vals = Vec::with_capacity(rows.len() * t.n_cols());
        // (trigram, position) pairs packed as `trigram << 16 | position`,
        // so sorting them groups the postings by trigram, positions
        // ascending.
        let mut pairs: Vec<u64> = Vec::new();
        let mut text = String::new();
        for (pos, &row) in rows.iter().enumerate() {
            // The row's text is its cells joined by spaces.
            text.clear();
            for col in &t.columns {
                let start = text.len();
                write_cell(&mut text, &col.data, row as usize);
                vals.push(Token::val(&text[start..]));
                text.push(' ');
            }
            let grams = ngram::trigrams(&text);
            row_grams.push(grams.len() as u32);
            pairs.extend(grams.into_iter().map(|g| (g as u64) << 16 | pos as u64));
        }
        pairs.sort_unstable();
        let (mut grams, mut starts) = (Vec::new(), Vec::new());
        for (i, &pair) in pairs.iter().enumerate() {
            let g = (pair >> 16) as u32;
            if grams.last() != Some(&g) {
                grams.push(g);
                starts.push(i as u32);
            }
        }
        starts.push(pairs.len() as u32);
        let posts = pairs.into_iter().map(|pair| pair as u16).collect();

        let tbl = Token::of(&format!("tbl:{}", t.name));
        let columns = t
            .columns
            .iter()
            .map(|col| {
                let values: Vec<f64> = (0..n).map(|i| col.data.num(i)).collect();
                let mut stats = [0.0; STATS_DIM];
                write_stats(&mut stats, &values, n);
                ColumnIndex {
                    name: col.name.clone(),
                    tokens: [
                        Token::of(&format!("name:{}", col.name)),
                        Token::of(&format!("type:{:?}", col.data.dtype())),
                    ],
                    stats,
                }
            })
            .collect();
        Self {
            name: t.name.clone(),
            n_rows: n,
            rows,
            row_grams,
            grams,
            starts,
            posts,
            vals,
            tbl,
            columns,
        }
    }

    /// The indexed table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The top-`k` sampled rows by trigram overlap with `query`, as (row
    /// id, score), best first, ties broken by row order — exactly a stable
    /// sort of every sampled row by descending score, truncated to `k`.
    pub fn snapshot(&self, query: &TabertQuery, k: usize) -> Vec<(usize, f64)> {
        self.top_k(query, k).into_iter().map(|(pos, s)| (self.rows[pos] as usize, s)).collect()
    }

    /// [`Self::snapshot`] by sampled position instead of row id.
    pub(crate) fn top_k(&self, query: &TabertQuery, k: usize) -> Vec<(usize, f64)> {
        let mut inter = vec![0u16; self.rows.len()];
        for g in &query.grams {
            if let Ok(i) = self.grams.binary_search(g) {
                for &pos in &self.posts[self.starts[i] as usize..self.starts[i + 1] as usize] {
                    inter[pos as usize] += 1;
                }
            }
        }
        let mut top: Vec<(usize, f64)> = Vec::with_capacity(k.min(self.rows.len()) + 1);
        for (pos, (&n, &i)) in self.row_grams.iter().zip(&inter).enumerate() {
            let score = ngram::jaccard(query.grams.len(), n as usize, i as usize);
            // After every kept row with a score at least as high: a later
            // row never overtakes an earlier one it ties with.
            let at = top.iter().position(|&(_, s)| s < score).unwrap_or(top.len());
            if at < k {
                top.insert(at, (pos, score));
                top.truncate(k);
            }
        }
        top
    }

    /// The `val:` token of the cell at sampled position `pos`, column `col`.
    pub(crate) fn val(&self, pos: usize, col: usize) -> Token {
        self.vals[pos * self.columns.len() + col]
    }
}
