//! Plan executor with deterministic virtual-time accounting.
//!
//! The executor computes **exact** results (true per-node cardinalities) and
//! charges each operator a *virtual time* derived from the work it performs
//! (pages touched, tuples processed, comparisons, hash operations). Virtual
//! time replaces the paper's wall-clock measurements on PostgreSQL: it is
//! reproducible bit-for-bit from the workload seed while preserving the
//! property the evaluation needs — bad join orders and bad operator choices
//! are orders of magnitude slower than good ones (a nested-loop join over
//! two large inputs is charged `|L|·|R|` comparisons, exactly like the real
//! thing would pay).
//!
//! Semantics note: join/scan *outputs* are computed with hash/index lookups
//! regardless of the chosen physical operator; the operator choice affects
//! only the accounting. This keeps ground-truth generation fast while
//! keeping the cost/runtime figures faithful to each operator's work model.
//!
//! Late materialization: an intermediate tuple holds one base-row id for
//! each alias of its subtree that an ancestor's join predicate still reads,
//! and none for the rest. A join asks each child for the aliases its
//! ancestors read plus those its own predicates read, and keeps only the
//! former; a scan holds its one alias. Aliases are bits over the plan's
//! scans in postorder, so every subtree's aliases are one contiguous range
//! and a chunk's columns are in alias order.
//!
//! Count, then materialize: a join first counts its verified matches,
//! stopping at `max_intermediate + 2`, and writes tuples only when an
//! ancestor reads one of its aliases — never for a join that trips the row
//! cap (it times out on the count) or for the plan root (only its
//! cardinality is reported). A written join fills a buffer sized by its
//! count, never reallocating. The count pass is skipped only for a written
//! join whose output is bounded within the cap (probe tuples × the widest
//! key group of the build side), which cannot trip. The build side is one
//! flat table (`JoinTable`). Every charge (`join_charge`, peak memory, the
//! row budget, spikes, the timeout penalty) reads only counts, so results
//! are bit-for-bit those of materializing every alias of every join, while
//! a plan that explodes past the cap costs one probe pass and no memory for
//! its largest intermediate.

use crate::error::EngineError;
use crate::plan::{JoinOp, PhysicalOp, PlanNode, ScanOp};
use crate::query::{CmpOp, ColRef, Filter};
use qpseeker_storage::{
    ColumnData, Database, FaultConfig, FaultInjector, Table, TableStats, BLOCK_SIZE,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Virtual-time weights, in milliseconds per unit of work. Calibrated to
/// PostgreSQL-like ratios (random I/O 4x sequential; per-tuple CPU three
/// orders of magnitude below page I/O).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeights {
    pub seq_page_ms: f64,
    pub random_page_ms: f64,
    pub tuple_cpu_ms: f64,
    pub predicate_ms: f64,
    pub hash_build_ms: f64,
    pub hash_probe_ms: f64,
    pub compare_ms: f64,
    pub output_ms: f64,
    /// Extra charge per tuple once an operator's working set exceeds
    /// `work_mem_tuples` (spill simulation; the JOB-light "memory-demanding"
    /// regressions come from here).
    pub spill_ms: f64,
    pub work_mem_tuples: u64,
}

impl Default for TimeWeights {
    fn default() -> Self {
        Self {
            seq_page_ms: 0.02,
            random_page_ms: 0.08,
            tuple_cpu_ms: 0.0004,
            predicate_ms: 0.0001,
            hash_build_ms: 0.0008,
            hash_probe_ms: 0.0005,
            compare_ms: 0.0002,
            output_ms: 0.0002,
            spill_ms: 0.002,
            work_mem_tuples: 65_536,
        }
    }
}

/// PostgreSQL cost-unit constants (the "computational cost" target values).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostUnits {
    pub seq_page_cost: f64,
    pub random_page_cost: f64,
    pub cpu_tuple_cost: f64,
    pub cpu_operator_cost: f64,
    pub cpu_index_tuple_cost: f64,
}

impl Default for CostUnits {
    fn default() -> Self {
        Self {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_operator_cost: 0.0025,
            cpu_index_tuple_cost: 0.005,
        }
    }
}

/// Profile of one executed plan node (postorder position matches
/// [`PlanNode::postorder`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeProfile {
    pub op: PhysicalOp,
    /// True output cardinality (truncated at `max_intermediate + 2` on the
    /// join that tripped the row cap).
    pub rows: u64,
    /// Cumulative PG cost units of the subtree rooted here.
    pub cost: f64,
    /// Cumulative virtual runtime (ms) of the subtree rooted here.
    pub time_ms: f64,
}

/// Result of executing a full plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionResult {
    /// Root output cardinality. On a timed-out result, the count of the
    /// join that tripped the row cap instead, truncated at
    /// `max_intermediate + 2`.
    pub rows: u64,
    /// Total PG cost units.
    pub cost: f64,
    /// Total virtual runtime in milliseconds.
    pub time_ms: f64,
    /// Per-node profiles in postorder.
    pub nodes: Vec<NodeProfile>,
    /// True when an intermediate result exceeded the row cap and execution
    /// was aborted (charged a penalty, like a statement timeout).
    pub timed_out: bool,
    /// Peak simulated operator memory, in tuples.
    pub peak_mem_tuples: u64,
}

/// Access-path shape parameters for the scan charge formulas.
#[derive(Debug, Clone, Copy)]
pub struct ScanShape {
    pub n_rows: f64,
    pub blocks: f64,
    pub index_height: f64,
    pub index_leaf_pages: f64,
    /// True when the chosen operator can actually use an index.
    pub index_usable: bool,
    pub n_filters: f64,
}

/// Virtual-time and cost-unit charge for a scan that matches `matched` rows
/// (selectivity `sel`). Shared between the executor (actual counts) and the
/// EXPLAIN estimator (estimated counts).
pub fn scan_charge(
    op: ScanOp,
    shape: &ScanShape,
    sel: f64,
    matched: f64,
    w: &TimeWeights,
    c: &CostUnits,
) -> (f64, f64) {
    let n = shape.n_rows;
    let blocks = shape.blocks;
    let nf = shape.n_filters;
    let (height, leaf_pages) = (shape.index_height, shape.index_leaf_pages);
    match (op, shape.index_usable) {
        (ScanOp::SeqScan, _) | (_, false) => {
            // Full sweep (an index scan without a usable index degrades to a
            // full index traversal, slightly worse than seq).
            let degrade = if op == ScanOp::SeqScan { 1.0 } else { 1.3 };
            (
                degrade * (blocks * w.seq_page_ms + n * (w.tuple_cpu_ms + nf * w.predicate_ms)),
                degrade
                    * (blocks * c.seq_page_cost
                        + n * (c.cpu_tuple_cost + nf * c.cpu_operator_cost)),
            )
        }
        (ScanOp::IndexScan, true) => (
            height * w.random_page_ms
                + (sel * leaf_pages).max(1.0) * w.random_page_ms
                + matched * w.random_page_ms * 0.05 // heap fetches, clustered-ish
                + matched * (w.tuple_cpu_ms + (nf - 1.0).max(0.0) * w.predicate_ms),
            height * c.random_page_cost
                + (sel * leaf_pages).max(1.0) * c.random_page_cost
                + matched * (c.cpu_index_tuple_cost + c.cpu_tuple_cost),
        ),
        (ScanOp::BitmapIndexScan, true) => (
            height * w.random_page_ms
                + (sel * leaf_pages).max(1.0) * w.random_page_ms
                + (sel * blocks).max(1.0) * w.seq_page_ms // sorted heap sweep
                + matched * (w.tuple_cpu_ms + (nf - 1.0).max(0.0) * w.predicate_ms),
            height * c.random_page_cost
                + (sel * leaf_pages).max(1.0) * c.random_page_cost
                + (sel * blocks).max(1.0) * c.seq_page_cost
                + matched * (c.cpu_index_tuple_cost + c.cpu_tuple_cost),
        ),
    }
}

/// Virtual-time and cost-unit charge for one join operator given input and
/// output cardinalities.
pub fn join_charge(
    op: JoinOp,
    nl: f64,
    nr: f64,
    nout: f64,
    w: &TimeWeights,
    c: &CostUnits,
) -> (f64, f64) {
    let spill = |n: f64| -> f64 {
        if n > w.work_mem_tuples as f64 {
            (n - w.work_mem_tuples as f64) * w.spill_ms
        } else {
            0.0
        }
    };
    match op {
        JoinOp::HashJoin => (
            nr * w.hash_build_ms + nl * w.hash_probe_ms + nout * w.output_ms + spill(nr),
            nr * (c.cpu_operator_cost * 1.5) + nl * c.cpu_operator_cost + nout * c.cpu_tuple_cost,
        ),
        JoinOp::MergeJoin => {
            let sort = |n: f64| if n > 1.0 { n * n.log2() } else { 0.0 };
            (
                (sort(nl) + sort(nr)) * w.compare_ms
                    + (nl + nr) * w.compare_ms
                    + nout * w.output_ms
                    + spill(nl + nr),
                (sort(nl) + sort(nr) + nl + nr) * c.cpu_operator_cost + nout * c.cpu_tuple_cost,
            )
        }
        JoinOp::NestedLoopJoin => (
            nl * nr * w.compare_ms + nout * w.output_ms,
            nl * nr * c.cpu_operator_cost + nout * c.cpu_tuple_cost,
        ),
    }
}

/// Sorted (key, row) index over one column.
struct BtreeIndex {
    entries: Vec<(i64, u32)>,
}

impl BtreeIndex {
    fn build(data: &ColumnData) -> Self {
        let mut entries: Vec<(i64, u32)> =
            (0..data.len()).map(|i| (data.key(i), i as u32)).collect();
        entries.sort_unstable();
        Self { entries }
    }

    /// Rows whose key satisfies `op value` (value compared as integer key).
    fn lookup(&self, op: CmpOp, value: f64) -> Vec<u32> {
        let v = value;
        match op {
            CmpOp::Eq => {
                let k = v as i64;
                if (k as f64) != v {
                    return Vec::new(); // non-integer equality over int keys
                }
                let lo = self.entries.partition_point(|&(key, _)| key < k);
                let hi = self.entries.partition_point(|&(key, _)| key <= k);
                self.entries[lo..hi].iter().map(|&(_, r)| r).collect()
            }
            CmpOp::Lt => {
                let hi = self.entries.partition_point(|&(key, _)| (key as f64) < v);
                self.entries[..hi].iter().map(|&(_, r)| r).collect()
            }
            CmpOp::Le => {
                let hi = self.entries.partition_point(|&(key, _)| (key as f64) <= v);
                self.entries[..hi].iter().map(|&(_, r)| r).collect()
            }
            CmpOp::Gt => {
                let lo = self.entries.partition_point(|&(key, _)| (key as f64) <= v);
                self.entries[lo..].iter().map(|&(_, r)| r).collect()
            }
            CmpOp::Ge => {
                let lo = self.entries.partition_point(|&(key, _)| (key as f64) < v);
                self.entries[lo..].iter().map(|&(_, r)| r).collect()
            }
        }
    }
}

/// Intermediate result: a bag of `n` composite tuples. Bit `a` of `cols`
/// is set when the tuples hold a column for the plan's alias `a`; columns
/// are in alias order, one base-row id each, stored flattened. `rows` is
/// empty when the tuples were only counted.
struct Chunk {
    cols: u64,
    width: usize,
    n: usize,
    rows: Vec<u32>,
}

impl Chunk {
    #[inline]
    fn tuple(&self, t: usize) -> &[u32] {
        &self.rows[t * self.width..(t + 1) * self.width]
    }

    /// Column of alias `a`, which the chunk holds.
    fn col(&self, a: usize) -> usize {
        debug_assert!(self.cols >> a & 1 == 1, "chunk has no column for alias {a}");
        (self.cols & ((1u64 << a) - 1)).count_ones() as usize
    }

    /// Columns of the aliases in `cols`, in alias order.
    fn cols_of(&self, mut cols: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(cols.count_ones() as usize);
        while cols != 0 {
            out.push(self.col(cols.trailing_zeros() as usize));
            cols &= cols - 1;
        }
        out
    }

    #[inline]
    fn base_row(&self, tuple: usize, col: usize) -> u32 {
        self.rows[tuple * self.width + col]
    }
}

/// Aliases `lo..hi` as bits.
fn alias_range(lo: usize, hi: usize) -> u64 {
    let len = hi - lo;
    if len == 64 {
        u64::MAX
    } else {
        ((1u64 << len) - 1) << lo
    }
}

/// The build side of a hash join: build tuple ids grouped by FNV key in
/// one array, each group found through an open-addressing table of the
/// distinct keys (linear probing over a multiplicative mix of the key).
/// Groups list their tuples in build order.
struct JoinTable {
    slots: Vec<Slot>,
    /// `slots.len()` is `1 << (64 - shift)`.
    shift: u32,
    ids: Vec<u32>,
}

/// One distinct key and its group `ids[start..start + len]`; `len == 0`
/// marks an empty slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    start: u32,
    len: u32,
}

impl JoinTable {
    /// Group the build tuples `0..keys.len()` by key.
    fn build(keys: &[u64]) -> Self {
        let mut table = Self { slots: vec![Slot::default(); 16], shift: 60, ids: Vec::new() };
        let mut distinct = 0;
        for &key in keys {
            // Keep the load at most one half, counting `key` as new.
            if 2 * (distinct + 1) > table.slots.len() {
                table.grow();
            }
            let i = table.find(key);
            let s = &mut table.slots[i];
            if s.len == 0 {
                distinct += 1;
                s.key = key;
            }
            s.len += 1;
        }
        // Each group's end, then fill it backwards so it lists tuples in
        // build order and `start` lands on its first id.
        let mut end = 0;
        for s in table.slots.iter_mut().filter(|s| s.len > 0) {
            end += s.len;
            s.start = end;
        }
        table.ids = vec![0; keys.len()];
        for (t, &key) in keys.iter().enumerate().rev() {
            let i = table.find(key);
            let s = &mut table.slots[i];
            s.start -= 1;
            table.ids[s.start as usize] = t as u32;
        }
        table
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            let s = &self.slots[i];
            if s.len == 0 || s.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let grown = vec![Slot::default(); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        self.shift -= 1;
        for s in old.into_iter().filter(|s| s.len > 0) {
            let i = self.find(s.key);
            self.slots[i] = s;
        }
    }

    /// Build tuples whose key is `key`.
    #[inline]
    fn get(&self, key: u64) -> &[u32] {
        let s = self.slots[self.find(key)];
        &self.ids[s.start as usize..(s.start + s.len) as usize]
    }

    /// Size of the largest key group.
    fn widest(&self) -> usize {
        self.slots.iter().map(|s| s.len as usize).max().unwrap_or(0)
    }
}

/// One equi-join predicate resolved against a join's inputs: the alias and
/// key column on each side.
struct JoinKey<'d> {
    l_alias: usize,
    l_data: &'d ColumnData,
    r_alias: usize,
    r_data: &'d ColumnData,
}

/// One execution: the plan's scans in postorder, as (alias, table) — scan
/// `a` binds alias bit `a` — and what the run has charged so far.
struct Run<'p> {
    scans: Vec<(&'p str, &'p str)>,
    profiles: Vec<NodeProfile>,
    peak_mem: u64,
    rows_processed: u64,
}

/// Why execution stopped early: either the row cap tripped (reported as a
/// timed-out [`ExecutionResult`], like a statement timeout) or a typed
/// fault surfaced (reported as an `Err` from [`Executor::try_execute`]).
enum Interrupt {
    RowCap(f64),
    Fault(EngineError),
}

/// The plan executor.
pub struct Executor<'a> {
    db: &'a Database,
    weights: TimeWeights,
    costs: CostUnits,
    indexes: HashMap<(String, String), BtreeIndex>,
    faults: Option<FaultInjector>,
    /// Abort threshold for intermediate results.
    pub max_intermediate: usize,
}

impl<'a> Executor<'a> {
    /// Build an executor (materializes B-tree indexes declared in the catalog).
    ///
    /// # Panics
    /// Panics when the catalog declares an index on a missing table; use
    /// [`Executor::try_new`] on library paths that must not panic.
    pub fn new(db: &'a Database) -> Self {
        Self::with_weights(db, TimeWeights::default(), CostUnits::default())
    }

    /// Fallible variant of [`Executor::new`].
    pub fn try_new(db: &'a Database) -> Result<Self, EngineError> {
        Self::try_with_weights(db, TimeWeights::default(), CostUnits::default())
    }

    pub fn with_weights(db: &'a Database, weights: TimeWeights, costs: CostUnits) -> Self {
        Self::try_with_weights(db, weights, costs).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn try_with_weights(
        db: &'a Database,
        weights: TimeWeights,
        costs: CostUnits,
    ) -> Result<Self, EngineError> {
        let mut indexes = HashMap::new();
        for im in &db.catalog.indexes {
            let table = db.try_table(&im.table)?;
            let col = table.col(&im.column);
            indexes.insert((im.table.clone(), im.column.clone()), BtreeIndex::build(&col.data));
        }
        Ok(Self { db, weights, costs, indexes, faults: None, max_intermediate: 3_000_000 })
    }

    /// Arm deterministic fault injection: page-read failures, latency
    /// spikes, corrupted statistics and row-budget aborts, per `cfg`.
    /// Execute such plans through [`Executor::try_execute`].
    pub fn with_faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = Some(FaultInjector::new(cfg));
        self
    }

    /// Execute a plan, returning exact cardinalities and virtual-time/cost
    /// profiles for every node.
    ///
    /// # Panics
    /// Panics on a typed execution fault (unknown table, injected fault);
    /// fault-injected executors should use [`Executor::try_execute`].
    pub fn execute(&self, plan: &PlanNode) -> ExecutionResult {
        self.try_execute(plan).unwrap_or_else(|e| panic!("plan execution failed: {e}"))
    }

    /// Execute a plan, surfacing typed faults instead of panicking. A row
    /// cap overflow is still reported as a timed-out `Ok` result (it mimics
    /// a statement timeout, which PostgreSQL also reports in-band).
    pub fn try_execute(&self, plan: &PlanNode) -> Result<ExecutionResult, EngineError> {
        let scans: Vec<(&str, &str)> = plan
            .postorder()
            .into_iter()
            .filter_map(|node| match node {
                PlanNode::Scan { alias, table, .. } => Some((&**alias, &**table)),
                PlanNode::Join { .. } => None,
            })
            .collect();
        if scans.len() > u64::BITS as usize {
            return Err(EngineError::TooManyRelations { relations: scans.len() });
        }
        let mut run =
            Run { scans, profiles: Vec::with_capacity(plan.len()), peak_mem: 0, rows_processed: 0 };
        let outcome = self.exec_node(plan, 0, 0, &mut run);
        let (nodes, peak_mem) = (run.profiles, run.peak_mem);
        match outcome {
            Ok(chunk) => {
                let last = nodes.last().expect("at least one node profile");
                Ok(ExecutionResult {
                    rows: chunk.n as u64,
                    cost: last.cost,
                    time_ms: last.time_ms,
                    nodes,
                    timed_out: false,
                    peak_mem_tuples: peak_mem,
                })
            }
            Err(Interrupt::RowCap(partial_time)) => {
                // Timed out: charge everything so far plus a large penalty,
                // mimicking a statement timeout on an exploding plan.
                let penalty = partial_time.max(1.0) * 10.0;
                let (rows, cost) = nodes
                    .last()
                    .map(|n| (n.rows, n.cost))
                    .unwrap_or((self.max_intermediate as u64, 0.0));
                Ok(ExecutionResult {
                    rows,
                    cost: cost * 10.0,
                    time_ms: partial_time + penalty,
                    nodes,
                    timed_out: true,
                    peak_mem_tuples: peak_mem,
                })
            }
            Err(Interrupt::Fault(e)) => Err(e),
        }
    }

    /// Charge `n` rows against the injected row budget, if one is armed.
    fn charge_rows(&self, processed: &mut u64, n: u64) -> Result<(), Interrupt> {
        *processed += n;
        if let Some(budget) = self.faults.as_ref().and_then(|f| f.row_budget()) {
            if *processed > budget {
                return Err(Interrupt::Fault(EngineError::RowBudgetExceeded {
                    processed: *processed,
                    budget,
                }));
            }
        }
        Ok(())
    }

    /// Execute the subtree at `node`, whose scans bind aliases `first..`.
    /// `reads` is the set of aliases its ancestors read: the output holds
    /// columns for those it binds, and is only counted when there are none
    /// (as at the root). A scan always returns its rows.
    fn exec_node<'p>(
        &self,
        node: &'p PlanNode,
        first: usize,
        reads: u64,
        run: &mut Run<'p>,
    ) -> Result<Chunk, Interrupt> {
        match node {
            PlanNode::Scan { table, op, filters, .. } => {
                let t = self.db.try_table(table).map_err(|e| Interrupt::Fault(e.into()))?;
                let (rows, time, cost) =
                    self.exec_scan(t, *op, filters).map_err(Interrupt::Fault)?;
                let n = rows.len();
                self.charge_rows(&mut run.rows_processed, n as u64)?;
                run.profiles.push(NodeProfile {
                    op: PhysicalOp::Scan(*op),
                    rows: n as u64,
                    cost,
                    time_ms: time,
                });
                Ok(Chunk { cols: 1 << first, width: 1, n, rows })
            }
            PlanNode::Join { op, left, right, preds } => {
                // The left subtree binds `first..mid`, the right `mid..end`.
                let mid = first + left.len().div_ceil(2);
                let end = mid + right.len().div_ceil(2);
                let bound_in =
                    |lo: usize, hi: usize, alias: &str| (lo..hi).find(|&a| run.scans[a].0 == alias);
                let unbound = |c: &ColRef| {
                    Interrupt::Fault(EngineError::UnboundJoinAlias { alias: c.alias.to_string() })
                };
                let mut pred_aliases = Vec::with_capacity(preds.len());
                for p in preds.iter() {
                    let (lref, rref) = if bound_in(first, mid, &p.left.alias).is_some() {
                        (&p.left, &p.right)
                    } else {
                        (&p.right, &p.left)
                    };
                    let la = bound_in(first, mid, &lref.alias).ok_or_else(|| unbound(lref))?;
                    let ra = bound_in(mid, end, &rref.alias).ok_or_else(|| unbound(rref))?;
                    pred_aliases.push((la, &lref.column, ra, &rref.column));
                }
                let child_reads =
                    pred_aliases.iter().fold(reads, |m, &(la, _, ra, _)| m | 1 << la | 1 << ra);

                let l = self.exec_node(left, first, child_reads, run)?;
                let lprof_idx = run.profiles.len() - 1;
                let r = self.exec_node(right, mid, child_reads, run)?;
                let rprof_idx = run.profiles.len() - 1;
                let child_time = run.profiles[lprof_idx].time_ms + run.profiles[rprof_idx].time_ms;
                let child_cost = run.profiles[lprof_idx].cost + run.profiles[rprof_idx].cost;

                // Each key column comes from the table its alias's scan read.
                let column = |a: usize, col: &str| self.column(run.scans[a].1, col);
                let keys = pred_aliases
                    .iter()
                    .map(|&(la, lc, ra, rc)| {
                        Ok(JoinKey {
                            l_alias: la,
                            l_data: column(la, lc)?,
                            r_alias: ra,
                            r_data: column(ra, rc)?,
                        })
                    })
                    .collect::<Result<Vec<_>, Interrupt>>()?;
                let cols = reads & alias_range(first, end);
                let out = self.join_chunks(&l, &r, &keys, cols, &mut run.peak_mem);
                let (nl, nr) = (l.n as f64, r.n as f64);
                let nout = out.n as u64;
                let (mut self_time, self_cost) =
                    join_charge(*op, nl, nr, nout as f64, &self.weights, &self.costs);
                if let Some(fi) = &self.faults {
                    self_time += fi.latency_spike_ms(&format!("join:{}", run.profiles.len()));
                }
                self.charge_rows(&mut run.rows_processed, nout)?;
                run.profiles.push(NodeProfile {
                    op: PhysicalOp::Join(*op),
                    rows: nout,
                    cost: child_cost + self_cost,
                    time_ms: child_time + self_time,
                });
                if out.n > self.max_intermediate {
                    return Err(Interrupt::RowCap(child_time + self_time));
                }
                Ok(out)
            }
        }
    }

    fn column(&self, table: &str, column: &str) -> Result<&'a ColumnData, Interrupt> {
        let t = self.db.try_table(table).map_err(|e| Interrupt::Fault(e.into()))?;
        Ok(&t.col(column).data)
    }

    /// Execute a scan: compute matching base-row ids and charge the chosen
    /// access path.
    fn exec_scan(
        &self,
        table: &Table,
        op: ScanOp,
        filters: &[Filter],
    ) -> Result<(Vec<u32>, f64, f64), EngineError> {
        if let Some(fi) = &self.faults {
            fi.page_read(&table.name)?;
        }
        let n = table.n_rows();
        let base_stats = self.db.try_table_stats(&table.name)?;
        let corrupted;
        let stats: &TableStats = match &self.faults {
            Some(fi) if fi.corrupts_stats(&table.name) => {
                corrupted = fi.corrupted_stats(base_stats);
                &corrupted
            }
            _ => base_stats,
        };
        stats.validate()?;
        let blocks = stats.n_blocks as f64;
        let w = &self.weights;
        let c = &self.costs;

        // Pick an index-driven filter when the operator wants one.
        let index_filter = if op != ScanOp::SeqScan {
            filters.iter().enumerate().find(|(_, f)| {
                self.indexes.contains_key(&(table.name.clone(), f.col.column.to_string()))
            })
        } else {
            None
        };

        let (candidates, idx_used): (Vec<u32>, Option<&Filter>) = match index_filter {
            Some((_, f)) => {
                let idx = &self.indexes[&(table.name.clone(), f.col.column.to_string())];
                (idx.lookup(f.op, f.value), Some(f))
            }
            None => ((0..n as u32).collect(), None),
        };

        // Apply the remaining filters.
        let remaining: Vec<&Filter> = filters
            .iter()
            .filter(|f| match idx_used {
                Some(u) => !std::ptr::eq(*f, u),
                None => true,
            })
            .collect();
        let mut out = Vec::with_capacity(candidates.len());
        let cols: Vec<(&ColumnData, &Filter)> =
            remaining.iter().map(|f| (&table.col(&f.col.column).data, *f)).collect();
        for &row in &candidates {
            let mut keep = true;
            for (data, f) in &cols {
                if !f.op.eval(data.num(row as usize), f.value) {
                    keep = false;
                    break;
                }
            }
            if keep {
                out.push(row);
            }
        }

        let matched = candidates.len() as f64;
        let meta =
            self.db.catalog.index_on(&table.name, idx_used.map(|f| &*f.col.column).unwrap_or("id"));
        let (height, leaf_pages) =
            meta.map(|m| (m.height as f64, m.leaf_pages as f64)).unwrap_or((1.0, 1.0));
        let sel = if n > 0 { matched / n as f64 } else { 0.0 };
        let shape = ScanShape {
            n_rows: n as f64,
            blocks,
            index_height: height,
            index_leaf_pages: leaf_pages,
            index_usable: idx_used.is_some(),
            n_filters: filters.len() as f64,
        };
        let (mut time, cost) = scan_charge(op, &shape, sel, matched, w, c);
        if let Some(fi) = &self.faults {
            time += fi.latency_spike_ms(&table.name);
        }
        Ok((out, time, cost))
    }

    /// Compute the exact join result (hash-based, operator-independent):
    /// count the matches up to `max_intermediate + 2`, then write the
    /// columns of the aliases in `cols` only if there are any and the count
    /// is within the cap.
    fn join_chunks(
        &self,
        l: &Chunk,
        r: &Chunk,
        keys: &[JoinKey],
        cols: u64,
        peak_mem: &mut u64,
    ) -> Chunk {
        // A cap-tripping join reports its count truncated here.
        let limit = self.max_intermediate.saturating_add(2);

        if keys.is_empty() {
            // Cross product (only reachable for disconnected queries).
            let n = l.n.saturating_mul(r.n).min(limit);
            let pairs = (0..l.n).flat_map(|i| (0..r.n).map(move |j| (i, j)));
            return self.emit(cols, l, r, n, pairs);
        }

        // Hash the smaller input on the composite key.
        let (build_is_left, build, probe) = if l.n <= r.n { (true, l, r) } else { (false, r, l) };
        *peak_mem = (*peak_mem).max(build.n as u64);

        // Key columns of both inputs, in predicate order.
        let l_cols: Vec<usize> = keys.iter().map(|k| l.col(k.l_alias)).collect();
        let r_cols: Vec<usize> = keys.iter().map(|k| r.col(k.r_alias)).collect();
        let key_of = |c: &Chunk, left: bool, t: usize| -> u64 {
            let mut h = 0xcbf29ce484222325u64;
            for (i, k) in keys.iter().enumerate() {
                let v = if left {
                    k.l_data.key(c.base_row(t, l_cols[i]) as usize)
                } else {
                    k.r_data.key(c.base_row(t, r_cols[i]) as usize)
                };
                h = (h ^ v as u64).wrapping_mul(0x100000001b3);
            }
            h
        };
        let build_keys: Vec<u64> = (0..build.n).map(|t| key_of(build, build_is_left, t)).collect();
        let table = JoinTable::build(&build_keys);
        drop(build_keys);

        // The FNV hash of one key is a bijection of its value, so a single
        // predicate's key group matches as a whole; more need checking.
        let single = keys.len() == 1;
        let verify = |lt: usize, rt: usize| -> bool {
            keys.iter().enumerate().all(|(i, k)| {
                k.l_data.key(l.base_row(lt, l_cols[i]) as usize)
                    == k.r_data.key(r.base_row(rt, r_cols[i]) as usize)
            })
        };
        let pair = |b: u32, t: usize| if build_is_left { (b as usize, t) } else { (t, b as usize) };
        let group = |t: usize| table.get(key_of(probe, !build_is_left, t));

        // No probe tuple matches more than the widest key group. When that
        // bound is within the cap the join cannot trip, and a written join
        // skips the count pass (probing twice costs more than it saves there).
        let bound = probe.n.saturating_mul(table.widest());
        let n = if cols != 0 && bound <= self.max_intermediate {
            bound
        } else {
            let mut n = 0;
            for t in 0..probe.n {
                let g = group(t);
                n += if single {
                    g.len()
                } else {
                    g.iter()
                        .filter(|&&b| {
                            let (lt, rt) = pair(b, t);
                            verify(lt, rt)
                        })
                        .count()
                };
                if n >= limit {
                    break;
                }
            }
            n.min(limit)
        };
        // Every verified (left, right) tuple pair, in probe order.
        let (group, pair, verify) = (&group, &pair, &verify);
        if single {
            let matches = (0..probe.n).flat_map(move |t| group(t).iter().map(move |&b| pair(b, t)));
            return self.emit(cols, l, r, n, matches);
        }
        let matches = (0..probe.n).flat_map(move |t| {
            group(t).iter().map(move |&b| pair(b, t)).filter(move |&(lt, rt)| verify(lt, rt))
        });
        self.emit(cols, l, r, n, matches)
    }

    /// The output chunk, holding the aliases in `cols`, of a join with `n`
    /// matches, counted or bounded from above. `pairs` are written out, into
    /// a buffer of `n` tuples, only when `cols` is not empty and `n` is
    /// within the cap; the chunk then holds as many tuples as `pairs` yields.
    fn emit(
        &self,
        cols: u64,
        l: &Chunk,
        r: &Chunk,
        n: usize,
        pairs: impl Iterator<Item = (usize, usize)>,
    ) -> Chunk {
        let width = cols.count_ones() as usize;
        if cols == 0 || n > self.max_intermediate {
            return Chunk { cols, width, n, rows: Vec::new() };
        }
        // The left subtree's aliases precede the right's, so a tuple is its
        // left columns, then its right ones.
        let (l_cols, r_cols) = (l.cols_of(cols & l.cols), r.cols_of(cols & r.cols));
        let mut rows = Vec::with_capacity(n * width);
        for (lt, rt) in pairs {
            let (lt, rt) = (l.tuple(lt), r.tuple(rt));
            rows.extend(l_cols.iter().map(|&c| lt[c]));
            rows.extend(r_cols.iter().map(|&c| rt[c]));
        }
        debug_assert!(rows.len() <= n * width, "a join wrote past its count");
        Chunk { cols, width, n: rows.len() / width, rows }
    }

    /// Exact cardinality of a full query via its cheapest structural plan
    /// (used to produce ground-truth query cardinalities).
    pub fn true_rows(&self, plan: &PlanNode) -> u64 {
        self.execute(plan).rows
    }

    /// Execute and additionally report the *wall-clock* seconds the
    /// execution took. Virtual time is the experiment currency (it is
    /// deterministic); wall time is exposed as a sanity check that virtual
    /// and physical effort are correlated.
    pub fn execute_timed(&self, plan: &PlanNode) -> (ExecutionResult, f64) {
        let start = std::time::Instant::now();
        let res = self.execute(plan);
        (res, start.elapsed().as_secs_f64())
    }

    /// Block size used by the cost formulas (re-exported for the paper cost
    /// model).
    pub fn block_size() -> usize {
        BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinOp, PlanNode, ScanOp};
    use crate::query::{ColRef, Filter, JoinPred, Query, RelRef};
    use qpseeker_storage::datagen::imdb;
    use qpseeker_storage::{
        Catalog, Column, ColumnMeta, Database, ForeignKey, IndexMeta, TableMeta,
    };

    /// Hand-built 2-table database with known join result.
    fn micro_db() -> Database {
        let a = qpseeker_storage::Table::new(
            "a",
            vec![
                Column { name: "id".into(), data: ColumnData::Int(vec![0, 1, 2, 3]) },
                Column { name: "v".into(), data: ColumnData::Int(vec![10, 20, 30, 40]) },
            ],
        );
        let b = qpseeker_storage::Table::new(
            "b",
            vec![
                Column { name: "id".into(), data: ColumnData::Int(vec![0, 1, 2, 3, 4, 5]) },
                Column { name: "a_id".into(), data: ColumnData::Int(vec![0, 0, 1, 2, 2, 2]) },
            ],
        );
        let catalog = Catalog {
            tables: vec![
                TableMeta {
                    name: "a".into(),
                    columns: vec![
                        ColumnMeta { name: "id".into(), dtype: qpseeker_storage::DataType::Int },
                        ColumnMeta { name: "v".into(), dtype: qpseeker_storage::DataType::Int },
                    ],
                },
                TableMeta {
                    name: "b".into(),
                    columns: vec![
                        ColumnMeta { name: "id".into(), dtype: qpseeker_storage::DataType::Int },
                        ColumnMeta { name: "a_id".into(), dtype: qpseeker_storage::DataType::Int },
                    ],
                },
            ],
            foreign_keys: vec![ForeignKey {
                from_table: "b".into(),
                from_col: "a_id".into(),
                to_table: "a".into(),
                to_col: "id".into(),
            }],
            indexes: vec![
                IndexMeta::for_column("a", "id", 4, true),
                IndexMeta::for_column("b", "a_id", 6, false),
            ],
        };
        Database::new("micro", catalog, vec![a, b])
    }

    fn micro_query() -> Query {
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("a"), RelRef::new("b")];
        q.joins = vec![JoinPred { left: ColRef::new("b", "a_id"), right: ColRef::new("a", "id") }];
        q
    }

    #[test]
    fn scan_without_filters_returns_all_rows() {
        let db = micro_db();
        let ex = Executor::new(&db);
        let q = micro_query();
        let plan = PlanNode::scan(&q, "a", ScanOp::SeqScan);
        let res = ex.execute(&plan);
        assert_eq!(res.rows, 4);
        assert!(!res.timed_out);
        assert!(res.time_ms > 0.0);
        assert!(res.cost > 0.0);
    }

    #[test]
    fn scan_filters_apply() {
        let db = micro_db();
        let ex = Executor::new(&db);
        let mut q = micro_query();
        q.filters.push(Filter { col: ColRef::new("a", "v"), op: CmpOp::Gt, value: 15.0 });
        let plan = PlanNode::scan(&q, "a", ScanOp::SeqScan);
        assert_eq!(ex.execute(&plan).rows, 3);
        q.filters[0].op = CmpOp::Eq;
        q.filters[0].value = 30.0;
        let plan = PlanNode::scan(&q, "a", ScanOp::SeqScan);
        assert_eq!(ex.execute(&plan).rows, 1);
    }

    #[test]
    fn index_scan_same_semantics_as_seq_scan() {
        let db = micro_db();
        let ex = Executor::new(&db);
        let mut q = micro_query();
        q.filters.push(Filter { col: ColRef::new("b", "a_id"), op: CmpOp::Ge, value: 1.0 });
        let seq = ex.execute(&PlanNode::scan(&q, "b", ScanOp::SeqScan));
        let idx = ex.execute(&PlanNode::scan(&q, "b", ScanOp::IndexScan));
        let bix = ex.execute(&PlanNode::scan(&q, "b", ScanOp::BitmapIndexScan));
        assert_eq!(seq.rows, 4);
        assert_eq!(idx.rows, 4);
        assert_eq!(bix.rows, 4);
    }

    #[test]
    fn selective_index_scan_cheaper_than_seq_on_big_table() {
        let db = imdb::generate(1.0, 3);
        let ex = Executor::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("cast_info")];
        q.filters.push(Filter {
            col: ColRef::new("cast_info", "movie_id"),
            op: CmpOp::Eq,
            value: 5.0,
        });
        let seq = ex.execute(&PlanNode::scan(&q, "cast_info", ScanOp::SeqScan));
        let idx = ex.execute(&PlanNode::scan(&q, "cast_info", ScanOp::IndexScan));
        assert_eq!(seq.rows, idx.rows, "semantics must agree");
        assert!(
            idx.time_ms < seq.time_ms,
            "selective index scan ({}) must beat seq scan ({})",
            idx.time_ms,
            seq.time_ms
        );
    }

    #[test]
    fn join_result_matches_brute_force() {
        let db = micro_db();
        let ex = Executor::new(&db);
        let q = micro_query();
        // a_id values: [0,0,1,2,2,2] all present in a ⇒ 6 result rows.
        for op in JoinOp::ALL {
            let plan = PlanNode::join(
                &q,
                op,
                PlanNode::scan(&q, "a", ScanOp::SeqScan),
                PlanNode::scan(&q, "b", ScanOp::SeqScan),
            );
            let res = ex.execute(&plan);
            assert_eq!(res.rows, 6, "{op:?} wrong cardinality");
        }
    }

    #[test]
    fn join_operator_choice_changes_time_not_rows() {
        let db = imdb::generate(0.5, 3);
        let ex = Executor::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("cast_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let mk = |op| {
            PlanNode::join(
                &q,
                op,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "cast_info", ScanOp::SeqScan),
            )
        };
        let h = ex.execute(&mk(JoinOp::HashJoin));
        let m = ex.execute(&mk(JoinOp::MergeJoin));
        let n = ex.execute(&mk(JoinOp::NestedLoopJoin));
        assert_eq!(h.rows, m.rows);
        assert_eq!(h.rows, n.rows);
        // Nested loop over two thousand-row inputs must be far slower.
        assert!(n.time_ms > 10.0 * h.time_ms, "nlj {} vs hash {}", n.time_ms, h.time_ms);
    }

    #[test]
    fn per_node_profiles_are_cumulative_and_postordered() {
        let db = micro_db();
        let ex = Executor::new(&db);
        let q = micro_query();
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "a", ScanOp::SeqScan),
            PlanNode::scan(&q, "b", ScanOp::SeqScan),
        );
        let res = ex.execute(&plan);
        assert_eq!(res.nodes.len(), 3);
        assert_eq!(res.nodes[0].rows, 4); // scan a
        assert_eq!(res.nodes[1].rows, 6); // scan b
        assert_eq!(res.nodes[2].rows, 6); // join
        assert!(res.nodes[2].time_ms >= res.nodes[0].time_ms + res.nodes[1].time_ms);
        assert!(res.nodes[2].cost >= res.nodes[0].cost + res.nodes[1].cost);
        assert_eq!(res.time_ms, res.nodes[2].time_ms);
    }

    #[test]
    fn multi_predicate_join() {
        // Join on two columns at once: only exact pairs match.
        let a = qpseeker_storage::Table::new(
            "a",
            vec![
                Column { name: "x".into(), data: ColumnData::Int(vec![1, 1, 2]) },
                Column { name: "y".into(), data: ColumnData::Int(vec![1, 2, 1]) },
            ],
        );
        let b = qpseeker_storage::Table::new(
            "b",
            vec![
                Column { name: "x".into(), data: ColumnData::Int(vec![1, 2]) },
                Column { name: "y".into(), data: ColumnData::Int(vec![2, 1]) },
            ],
        );
        let catalog = Catalog {
            tables: vec![
                TableMeta {
                    name: "a".into(),
                    columns: vec![
                        ColumnMeta { name: "x".into(), dtype: qpseeker_storage::DataType::Int },
                        ColumnMeta { name: "y".into(), dtype: qpseeker_storage::DataType::Int },
                    ],
                },
                TableMeta {
                    name: "b".into(),
                    columns: vec![
                        ColumnMeta { name: "x".into(), dtype: qpseeker_storage::DataType::Int },
                        ColumnMeta { name: "y".into(), dtype: qpseeker_storage::DataType::Int },
                    ],
                },
            ],
            foreign_keys: vec![],
            indexes: vec![],
        };
        let db = Database::new("m2", catalog, vec![a, b]);
        let ex = Executor::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("a"), RelRef::new("b")];
        q.joins = vec![
            JoinPred { left: ColRef::new("a", "x"), right: ColRef::new("b", "x") },
            JoinPred { left: ColRef::new("a", "y"), right: ColRef::new("b", "y") },
        ];
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "a", ScanOp::SeqScan),
            PlanNode::scan(&q, "b", ScanOp::SeqScan),
        );
        // matches: a(1,2)~b(1,2), a(2,1)~b(2,1) ⇒ 2 rows.
        assert_eq!(ex.execute(&plan).rows, 2);

        // Written out below a parent that reads `a`: a second copy of `a`
        // on x matches a(1,2) twice and a(2,1) once ⇒ 3 rows.
        q.relations.push(RelRef::aliased("a", "a2"));
        q.joins.push(JoinPred { left: ColRef::new("a2", "x"), right: ColRef::new("a", "x") });
        let plan =
            PlanNode::join(&q, JoinOp::HashJoin, plan, PlanNode::scan(&q, "a2", ScanOp::SeqScan));
        assert_eq!(ex.execute(&plan).rows, 3);
    }

    #[test]
    fn row_cap_triggers_timeout() {
        let db = micro_db();
        let mut ex = Executor::new(&db);
        ex.max_intermediate = 3;
        let q = micro_query();
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "a", ScanOp::SeqScan),
            PlanNode::scan(&q, "b", ScanOp::SeqScan),
        );
        let res = ex.execute(&plan);
        assert!(res.timed_out);
        assert!(res.time_ms > 0.0);
    }

    #[test]
    fn three_way_join_on_imdb() {
        let db = imdb::generate(0.2, 3);
        let ex = Executor::new(&db);
        let mut q = Query::new("q");
        q.relations =
            vec![RelRef::new("title"), RelRef::new("movie_info"), RelRef::new("movie_keyword")];
        q.joins = vec![
            JoinPred {
                left: ColRef::new("movie_info", "movie_id"),
                right: ColRef::new("title", "id"),
            },
            JoinPred {
                left: ColRef::new("movie_keyword", "movie_id"),
                right: ColRef::new("title", "id"),
            },
        ];
        let p1 = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::join(
                &q,
                JoinOp::HashJoin,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
            ),
            PlanNode::scan(&q, "movie_keyword", ScanOp::SeqScan),
        );
        // Different join order must give the same cardinality.
        let p2 = PlanNode::join(
            &q,
            JoinOp::MergeJoin,
            PlanNode::join(
                &q,
                JoinOp::HashJoin,
                PlanNode::scan(&q, "title", ScanOp::SeqScan),
                PlanNode::scan(&q, "movie_keyword", ScanOp::SeqScan),
            ),
            PlanNode::scan(&q, "movie_info", ScanOp::SeqScan),
        );
        let r1 = ex.execute(&p1);
        let r2 = ex.execute(&p2);
        assert_eq!(r1.rows, r2.rows);
        assert!(r1.rows > 0);
    }

    #[test]
    fn sql_aliases_execute_like_table_names() {
        let db = imdb::generate(0.05, 3);
        let ex = Executor::new(&db);
        let opt = crate::optimizer::PgOptimizer::new(&db);
        // Both join orders under every join operator, plus the optimizer's
        // plan, which must agree on the cardinality.
        let run = |sql: &str| -> Vec<ExecutionResult> {
            let q = crate::sql::parse(&db, sql).expect("valid SQL");
            let scan = |i: usize, op| PlanNode::scan(&q, &q.relations[i].alias, op);
            let mut out = Vec::new();
            for op in JoinOp::ALL {
                for (a, b) in [(0, 1), (1, 0)] {
                    let plan = PlanNode::join(
                        &q,
                        op,
                        scan(a, ScanOp::SeqScan),
                        scan(b, ScanOp::IndexScan),
                    );
                    out.push(ex.try_execute(&plan).expect("executes"));
                }
            }
            let planned = ex.try_execute(&opt.plan(&q)).expect("the optimizer's plan executes");
            assert_eq!(planned.rows, out[0].rows, "{sql}");
            out
        };
        let named = run("SELECT COUNT(*) FROM title, movie_info \
             WHERE movie_info.movie_id = title.id AND title.production_year > 1990");
        assert!(named[0].rows > 0);
        let aliased = run("SELECT COUNT(*) FROM title t, movie_info mi \
             WHERE mi.movie_id = t.id AND t.production_year > 1990");
        assert_eq!(aliased, named);

        let numbered = run("SELECT COUNT(*) FROM title, title title#2 \
             WHERE title#2.id = title.id AND title.production_year > 1990");
        assert!(numbered[0].rows > 0);
        let self_join = run("SELECT COUNT(*) FROM title t1, title t2 \
             WHERE t2.id = t1.id AND t1.production_year > 1990");
        assert_eq!(self_join, numbered);
    }

    #[test]
    fn a_predicate_on_an_alias_no_scan_binds_is_an_error() {
        let db = micro_db();
        let ex = Executor::new(&db);
        let q = micro_query();
        let mut plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "a", ScanOp::SeqScan),
            PlanNode::scan(&q, "b", ScanOp::SeqScan),
        );
        if let PlanNode::Join { preds, .. } = &mut plan {
            std::sync::Arc::make_mut(preds)[0].left.alias = "ghost".into();
        }
        assert_eq!(
            ex.try_execute(&plan),
            Err(EngineError::UnboundJoinAlias { alias: "ghost".into() })
        );
    }

    #[test]
    fn a_plan_over_more_than_64_relations_is_an_error() {
        let db = micro_db();
        let ex = Executor::new(&db);
        let scan = |i: usize| PlanNode::Scan {
            alias: format!("a{i}").into(),
            table: "a".into(),
            op: ScanOp::SeqScan,
            filters: Default::default(),
        };
        let plan = (1..65).fold(scan(0), |plan, i| PlanNode::Join {
            op: JoinOp::NestedLoopJoin,
            left: std::sync::Arc::new(plan),
            right: std::sync::Arc::new(scan(i)),
            preds: Default::default(),
        });
        assert_eq!(ex.try_execute(&plan), Err(EngineError::TooManyRelations { relations: 65 }));
    }

    #[test]
    fn execution_is_deterministic() {
        let db = imdb::generate(0.2, 3);
        let ex = Executor::new(&db);
        let mut q = Query::new("q");
        q.relations = vec![RelRef::new("title"), RelRef::new("cast_info")];
        q.joins = vec![JoinPred {
            left: ColRef::new("cast_info", "movie_id"),
            right: ColRef::new("title", "id"),
        }];
        let plan = PlanNode::join(
            &q,
            JoinOp::HashJoin,
            PlanNode::scan(&q, "title", ScanOp::SeqScan),
            PlanNode::scan(&q, "cast_info", ScanOp::SeqScan),
        );
        let a = ex.execute(&plan);
        let b = ex.execute(&plan);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.time_ms, b.time_ms);
        assert_eq!(a.cost, b.cost);
    }
}
