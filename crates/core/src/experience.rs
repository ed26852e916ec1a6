//! The experience write-ahead log: the durable record of every plan the
//! serving loop executed and what actually happened.
//!
//! Closing the plan→execute→observe→retrain loop (Neo/Bao-style) starts
//! with never losing or corrupting an observation. [`ExperienceWal`] is an
//! append-only, segmented log where every record is sealed in the same
//! versioned FNV-64 envelope the checkpoint and snapshot paths use
//! ([`crate::durable::seal_envelope`]), one envelope per line. Appends go
//! through the deterministic fault-injection hooks ([`FaultInjector`]) so
//! chaos tests can tear or kill any individual append; recovery scans
//! segments in order, keeps the longest valid record prefix, truncates a
//! torn tail in place, and quarantines anything after the tear as
//! `*.corrupt` — a record either survives whole or not at all, and sequence
//! numbers are verified contiguous so a lost-or-duplicated record is a typed
//! error ([`CoreError::ExperienceGap`]), never silent.
//!
//! Each record carries the full [`Qep`] (query, chosen plan, observed
//! execution profile), not just fingerprints: the background trainer
//! fine-tunes directly from the drained log, with the fingerprints serving
//! audit and dedup.

use crate::durable::{fnv64, fsync_dir, open_envelope, seal_envelope, write_atomic};
use crate::error::CoreError;
use qpseeker_storage::{DurableFault, FaultInjector};
use qpseeker_workloads::Qep;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Envelope format version for experience records.
pub(crate) const WAL_VERSION: u64 = 1;

/// Which planner produced the executed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperienceDisposition {
    /// The neural (MCTS) path served the plan.
    Neural,
    /// The classical optimizer served it (fallback, breaker-open, no model).
    Classical,
}

/// One observed execution: what was planned, what the model predicted, and
/// what the executor actually measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperienceRecord {
    /// Position in the log (contiguous from 0; verified on recovery).
    pub seq: u64,
    /// FNV-64 over the serialized query (audit/dedup key).
    pub query_fp: u64,
    /// FNV-64 over the serialized chosen plan.
    pub plan_sig: u64,
    /// Which planner produced the plan.
    pub disposition: ExperienceDisposition,
    /// The model's runtime prediction for the plan (neural path only).
    pub predicted_ms: Option<f64>,
    /// Query, chosen plan and the observed execution profile — exactly the
    /// shape the trainer consumes.
    pub qep: Qep,
}

impl ExperienceRecord {
    /// Observed executor runtime (virtual milliseconds).
    pub fn observed_ms(&self) -> f64 {
        self.qep.truth.time_ms
    }

    /// Observed output cardinality.
    pub fn observed_rows(&self) -> u64 {
        self.qep.truth.rows
    }
}

/// Append-only, segmented, checksummed experience log.
///
/// Segments are named `exp-<first_seq:08>.wal`; a new segment starts every
/// `records_per_segment` appends. Each line is one sealed record; appends
/// are fsynced, and segment creation fsyncs the directory so the new entry
/// itself is durable.
#[derive(Debug)]
pub struct ExperienceWal {
    dir: PathBuf,
    records_per_segment: usize,
    faults: Option<FaultInjector>,
    records: Vec<ExperienceRecord>,
    /// Records already written into the currently-open segment.
    current_len: usize,
    current_path: Option<PathBuf>,
    /// Torn/corrupt lines dropped during the last recovery scan.
    tail_dropped: usize,
    /// Later segments quarantined during the last recovery scan.
    quarantined: usize,
}

impl ExperienceWal {
    /// Open (creating if needed) the log at `dir`, running recovery: the
    /// longest valid prefix of records is loaded, a torn tail is truncated
    /// in place, and segments past a tear are quarantined as `*.corrupt`.
    pub fn open(dir: impl Into<PathBuf>, records_per_segment: usize) -> Result<Self, CoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CoreError::Io {
            op: "create dir",
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let mut wal = Self {
            dir,
            records_per_segment: records_per_segment.max(1),
            faults: None,
            records: Vec::new(),
            current_len: 0,
            current_path: None,
            tail_dropped: 0,
            quarantined: 0,
        };
        wal.recover()?;
        Ok(wal)
    }

    /// Arm deterministic durable-path faults on the append path (chaos
    /// testing). Recovery itself always runs unfaulted — it models the
    /// restart after the simulated kill, not the kill itself.
    pub(crate) fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Directory this log persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All recovered + appended records, in sequence order.
    pub fn records(&self) -> &[ExperienceRecord] {
        &self.records
    }

    /// Records in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Torn/corrupt lines dropped by the last recovery scan.
    pub fn tail_dropped(&self) -> usize {
        self.tail_dropped
    }

    /// Segments quarantined by the last recovery scan.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    fn segment_path(&self, first_seq: u64) -> PathBuf {
        self.dir.join(format!("exp-{first_seq:08}.wal"))
    }

    /// Segment files on disk, sorted by ascending first sequence number.
    fn list_segments(&self) -> Result<Vec<(u64, PathBuf)>, CoreError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| CoreError::Io {
            op: "read dir",
            path: self.dir.display().to_string(),
            message: e.to_string(),
        })?;
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| CoreError::Io {
                op: "read dir",
                path: self.dir.display().to_string(),
                message: e.to_string(),
            })?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(stem) = name.strip_prefix("exp-").and_then(|r| r.strip_suffix(".wal")) else {
                continue; // *.corrupt quarantine or foreign file
            };
            if let Ok(seq) = stem.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        Ok(out)
    }

    /// Build and append one record, assigning the next sequence number.
    /// Returns the assigned sequence on success. With armed faults the
    /// append may be torn (a partial line reaches disk) or die at a crash
    /// point; both surface as the transient [`CoreError::InjectedCrash`] and
    /// leave the in-memory log unchanged — exactly what a killed process
    /// would find on restart.
    pub(crate) fn log(
        &mut self,
        disposition: ExperienceDisposition,
        predicted_ms: Option<f64>,
        qep: Qep,
    ) -> Result<u64, CoreError> {
        let seq = self.records.len() as u64;
        let query_fp = fnv64(&serde_json::to_string(&qep.query)?);
        let plan_sig = fnv64(&serde_json::to_string(&qep.plan)?);
        let rec = ExperienceRecord { seq, query_fp, plan_sig, disposition, predicted_ms, qep };
        self.append(rec)?;
        Ok(seq)
    }

    fn append(&mut self, rec: ExperienceRecord) -> Result<(), CoreError> {
        let payload = serde_json::to_string(&rec)?;
        let mut line = seal_envelope(&payload, WAL_VERSION);
        line.push('\n');

        // Roll to a fresh segment when the current one is full (or none is
        // open yet).
        let new_segment =
            self.current_path.is_none() || self.current_len >= self.records_per_segment;
        let path = if new_segment {
            self.segment_path(rec.seq)
        } else {
            self.current_path.clone().expect("segment open")
        };
        let site = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();

        if let Some(fi) = &self.faults {
            match fi.durable_fault(&site, line.len()) {
                Some(DurableFault::CrashPoint) => {
                    return Err(CoreError::InjectedCrash { site, seq: fi.durable_writes() - 1 });
                }
                Some(DurableFault::TornWrite { keep_bytes }) => {
                    // A partial line reaches the tail of the segment, then
                    // the process "dies". Recovery must drop exactly it.
                    let mut f = open_append(&path)?;
                    f.write_all(&line.as_bytes()[..keep_bytes])
                        .map_err(|e| append_err(&path, e))?;
                    let _ = f.sync_data();
                    return Err(CoreError::InjectedCrash { site, seq: fi.durable_writes() - 1 });
                }
                None => {}
            }
        }

        let mut f = open_append(&path)?;
        f.write_all(line.as_bytes()).map_err(|e| append_err(&path, e))?;
        f.sync_data().map_err(|e| append_err(&path, e))?;
        if new_segment {
            // The new directory entry must survive a crash too.
            fsync_dir(&self.dir)?;
            self.current_path = Some(path);
            self.current_len = 0;
        }
        self.current_len += 1;
        self.records.push(rec);
        Ok(())
    }

    /// Recovery scan: walk segments in order, verify every line's envelope,
    /// parse, and check sequence contiguity. The first invalid line ends the
    /// log: its segment is truncated to the valid prefix (rewritten
    /// atomically, or removed when nothing valid remains) and every later
    /// segment is quarantined — records past a tear have no trustworthy
    /// ordering. A valid record that *skips* a sequence number is
    /// [`CoreError::ExperienceGap`]: that is real corruption (a lost
    /// record with an intact successor), not a torn tail.
    fn recover(&mut self) -> Result<(), CoreError> {
        self.records.clear();
        self.tail_dropped = 0;
        self.quarantined = 0;
        self.current_path = None;
        self.current_len = 0;

        let segments = self.list_segments()?;
        let mut torn_at: Option<usize> = None; // index into `segments`
        'scan: for (si, (_, path)) in segments.iter().enumerate() {
            let text = fs::read_to_string(path).map_err(|e| CoreError::Io {
                op: "read segment",
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            let mut valid_lines = 0usize;
            for line in text.split_inclusive('\n') {
                let line = line.trim_end_matches('\n');
                if line.is_empty() {
                    continue;
                }
                let rec: ExperienceRecord = match open_envelope(line, WAL_VERSION)
                    .and_then(|p| serde_json::from_str(p).map_err(CoreError::from))
                {
                    Ok(r) => r,
                    Err(_) => {
                        // Torn/corrupt line: truncate here, drop the rest.
                        let dropped_here =
                            text.lines().filter(|l| !l.is_empty()).count() - valid_lines;
                        self.tail_dropped += dropped_here;
                        self.truncate_segment(path, &text, valid_lines)?;
                        torn_at = Some(si);
                        break 'scan;
                    }
                };
                let expected = self.records.len() as u64;
                if rec.seq != expected {
                    return Err(CoreError::ExperienceGap { expected, found: rec.seq });
                }
                self.records.push(rec);
                valid_lines += 1;
            }
            // Fully-valid segment: it may be the open tail.
            self.current_path = Some(path.clone());
            self.current_len = valid_lines;
        }

        if let Some(si) = torn_at {
            // Everything after the tear is untrustworthy: quarantine it.
            for (_, path) in &segments[si + 1..] {
                let mut name =
                    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                name.push_str(".corrupt");
                fs::rename(path, self.dir.join(name)).map_err(|e| CoreError::Io {
                    op: "quarantine",
                    path: path.display().to_string(),
                    message: e.to_string(),
                })?;
                self.quarantined += 1;
            }
        }
        Ok(())
    }

    /// Rewrite `path` with only its first `keep_lines` valid lines (atomic),
    /// or remove it entirely when nothing valid remains.
    fn truncate_segment(
        &mut self,
        path: &Path,
        text: &str,
        keep_lines: usize,
    ) -> Result<(), CoreError> {
        if keep_lines == 0 {
            fs::remove_file(path).map_err(|e| CoreError::Io {
                op: "remove torn segment",
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            fsync_dir(&self.dir)?;
            // The previous fully-valid segment (if any) stays the open tail.
            return Ok(());
        }
        let kept: String = text.lines().filter(|l| !l.is_empty()).take(keep_lines).fold(
            String::new(),
            |mut s, l| {
                s.push_str(l);
                s.push('\n');
                s
            },
        );
        // Recovery is the restart path: never fault-inject it.
        write_atomic(path, &kept, None)?;
        self.current_path = Some(path.to_path_buf());
        self.current_len = keep_lines;
        Ok(())
    }
}

fn open_append(path: &Path) -> Result<fs::File, CoreError> {
    fs::OpenOptions::new().create(true).append(true).open(path).map_err(|e| append_err(path, e))
}

fn append_err(path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Io { op: "append", path: path.display().to_string(), message: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_engine::executor::Executor;
    use qpseeker_engine::optimizer::PgOptimizer;
    use qpseeker_storage::FaultConfig;
    use qpseeker_workloads::{synthetic, SyntheticConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("qps-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_qeps() -> &'static Vec<Qep> {
        static QEPS: OnceLock<Vec<Qep>> = OnceLock::new();
        QEPS.get_or_init(|| {
            let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.03, 2));
            let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 6, seed: 11 });
            w.qeps
        })
    }

    fn log_n(wal: &mut ExperienceWal, n: usize) {
        let qeps = sample_qeps();
        for i in 0..n {
            let qep = qeps[i % qeps.len()].clone();
            wal.log(ExperienceDisposition::Neural, Some(1.0 + i as f64), qep).unwrap();
        }
    }

    #[test]
    fn records_round_trip_across_reopen() {
        let dir = scratch("roundtrip");
        let mut wal = ExperienceWal::open(&dir, 4).unwrap();
        log_n(&mut wal, 10);
        assert_eq!(wal.len(), 10);
        drop(wal);
        let wal = ExperienceWal::open(&dir, 4).unwrap();
        assert_eq!(wal.len(), 10);
        assert_eq!(wal.tail_dropped(), 0);
        for (i, r) in wal.records().iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.predicted_ms, Some(1.0 + i as f64));
            assert_eq!(r.observed_rows(), r.qep.truth.rows);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_at_the_configured_size() {
        let dir = scratch("rotate");
        let mut wal = ExperienceWal::open(&dir, 3).unwrap();
        log_n(&mut wal, 8);
        let segs: Vec<String> = {
            let mut v: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(segs, ["exp-00000000.wal", "exp-00000003.wal", "exp-00000006.wal"]);
        // Appends continue into the open tail after reopen.
        drop(wal);
        let mut wal = ExperienceWal::open(&dir, 3).unwrap();
        log_n(&mut wal, 1);
        assert_eq!(wal.len(), 9);
        drop(wal);
        let wal = ExperienceWal::open(&dir, 3).unwrap();
        assert_eq!(wal.len(), 9, "tail append after reopen must land in the open segment");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let dir = scratch("torn");
        let mut wal = ExperienceWal::open(&dir, 100).unwrap();
        log_n(&mut wal, 5);
        drop(wal);
        // Tear the tail by hand: append garbage half-line.
        let seg = dir.join("exp-00000000.wal");
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(b"{\"version\":1,\"checksum\":\"dead").unwrap();
        drop(f);
        let wal = ExperienceWal::open(&dir, 100).unwrap();
        assert_eq!(wal.len(), 5, "valid prefix survives");
        assert_eq!(wal.tail_dropped(), 1);
        // The truncation is durable: a second recovery sees a clean log.
        drop(wal);
        let wal = ExperienceWal::open(&dir, 100).unwrap();
        assert_eq!(wal.tail_dropped(), 0);
        assert_eq!(wal.len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_mid_history_quarantines_later_segments() {
        let dir = scratch("midcorrupt");
        let mut wal = ExperienceWal::open(&dir, 2).unwrap();
        log_n(&mut wal, 6); // segments at 0, 2, 4
        drop(wal);
        // Flip a byte inside the middle segment's first record.
        let seg = dir.join("exp-00000002.wal");
        let mut text = fs::read_to_string(&seg).unwrap();
        let flip = text.find("payload").unwrap() + 30;
        text.replace_range(flip..flip + 1, "~");
        fs::write(&seg, text).unwrap();
        let wal = ExperienceWal::open(&dir, 2).unwrap();
        assert_eq!(wal.len(), 2, "log ends at the corruption point");
        assert!(wal.tail_dropped() >= 1);
        assert_eq!(wal.quarantined(), 1, "the segment after the tear is quarantined");
        assert!(dir.join("exp-00000004.wal.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gap_is_a_typed_error() {
        let dir = scratch("gap");
        let mut wal = ExperienceWal::open(&dir, 2).unwrap();
        log_n(&mut wal, 4); // segments at 0 and 2
        drop(wal);
        // Losing a whole *interior* segment leaves an intact successor with
        // skipped sequence numbers: real corruption, not a torn tail.
        fs::remove_file(dir.join("exp-00000000.wal")).unwrap();
        let err = ExperienceWal::open(&dir, 2).unwrap_err();
        assert!(
            matches!(err, CoreError::ExperienceGap { expected: 0, found: 2 }),
            "expected ExperienceGap, got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_leaves_a_recoverable_prefix() {
        let qeps = sample_qeps();
        for kill_at in 0..6u64 {
            let dir = scratch(&format!("kill{kill_at}"));
            let fi = FaultInjector::new(FaultConfig {
                crash_after_writes: Some(kill_at),
                ..FaultConfig::default()
            });
            let mut wal = ExperienceWal::open(&dir, 3).unwrap().with_faults(Some(fi));
            let mut ok = 0u64;
            for i in 0..6 {
                let qep = qeps[i % qeps.len()].clone();
                match wal.log(ExperienceDisposition::Classical, None, qep) {
                    Ok(seq) => {
                        assert_eq!(seq, ok);
                        ok += 1;
                    }
                    Err(e) => {
                        assert!(e.is_transient(), "{e}");
                        break;
                    }
                }
            }
            assert_eq!(ok, kill_at.min(6), "crash point fires at append #{kill_at}");
            drop(wal);
            let wal = ExperienceWal::open(&dir, 3).unwrap();
            assert_eq!(wal.len() as u64, ok, "no lost or duplicated records");
            for (i, r) in wal.records().iter().enumerate() {
                assert_eq!(r.seq, i as u64);
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_append_sweep_recovers_the_exact_prefix() {
        let qeps = sample_qeps();
        let mut torn_seen = 0;
        for seed in 0..12u64 {
            let dir = scratch(&format!("sweep{seed}"));
            let fi = FaultInjector::new(FaultConfig {
                seed,
                torn_write_p: 0.25,
                ..FaultConfig::default()
            });
            let mut wal = ExperienceWal::open(&dir, 4).unwrap().with_faults(Some(fi));
            let mut shadow: Vec<u64> = Vec::new();
            for i in 0..10 {
                let qep = qeps[i % qeps.len()].clone();
                match wal.log(ExperienceDisposition::Neural, Some(i as f64), qep) {
                    Ok(seq) => shadow.push(seq),
                    Err(_) => {
                        torn_seen += 1;
                        break; // the "process" died
                    }
                }
            }
            drop(wal);
            let wal = ExperienceWal::open(&dir, 4).unwrap();
            // A tear that kept everything but the trailing newline leaves a
            // complete, valid record: durable but unacknowledged. Recovery
            // may commit at most that one extra record — never fewer than
            // the acknowledged prefix, never a gap or duplicate.
            assert!(
                wal.len() == shadow.len() || wal.len() == shadow.len() + 1,
                "seed {seed}: recovered {} vs acknowledged {}",
                wal.len(),
                shadow.len()
            );
            for (r, want) in wal.records().iter().zip(&shadow) {
                assert_eq!(r.seq, *want);
            }
            let _ = fs::remove_dir_all(&dir);
        }
        assert!(torn_seen > 0, "p=0.25 sweep never tore a write");
    }

    #[test]
    fn executed_truth_round_trips_through_the_log() {
        // The record's Qep is trainer-ready: truth comes from a real
        // execution and survives serialization bit-for-bit at the row level.
        let dir = scratch("truth");
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.03, 2));
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 3, seed: 5 });
        let q = w.qeps[0].query.clone();
        let plan = PgOptimizer::new(&db).plan(&q);
        let truth = Executor::new(&db).execute(&plan);
        let qep = Qep { query: q, plan, template: "online".into(), truth };
        let mut wal = ExperienceWal::open(&dir, 8).unwrap();
        wal.log(ExperienceDisposition::Neural, Some(12.5), qep.clone()).unwrap();
        drop(wal);
        let wal = ExperienceWal::open(&dir, 8).unwrap();
        let r = &wal.records()[0];
        assert_eq!(r.observed_rows(), qep.truth.rows);
        assert_eq!(r.observed_ms(), qep.truth.time_ms);
        assert_eq!(r.qep.truth.nodes.len(), qep.truth.nodes.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
