//! Crash-safe persistence primitives: atomic file writes, the checksummed
//! envelope shared with [`crate::checkpoint`], and a rotating snapshot store
//! with corruption-quarantining recovery.
//!
//! The write protocol is write-to-temp → fsync → atomic rename → fsync of
//! the parent directory, so a crash at any point leaves either the old file
//! or the new file, never a torn mix. Because production filesystems do not
//! always keep that promise (and because chaos tests simulate ones that
//! don't), every payload is additionally sealed in the same versioned
//! FNV-64 envelope checkpoints use: a reader never trusts file contents the
//! checksum does not vouch for.
//!
//! [`SnapshotStore`] builds the durable-training layer on top: numbered
//! snapshots (`<prefix>-<seq>.snap`) with keep-N rotation, and a recovery
//! scan that returns the newest snapshot whose envelope verifies, renaming
//! corrupt candidates to `*.corrupt` (quarantine) so they are inspected
//! rather than silently retried. An empty directory is a fresh start
//! (`Ok(None)`); a directory where every candidate is corrupt is a typed
//! [`CoreError::NoValidSnapshot`], never a panic.

use crate::error::CoreError;
use qpseeker_storage::{DurableFault, FaultInjector};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Envelope format version for training snapshots (the checkpoint envelope
/// has its own constant; both share the wire format).
pub const SNAPSHOT_VERSION: u64 = 1;

/// FNV-1a over `s` (the envelope checksum).
pub(crate) fn fnv64(s: &str) -> u64 {
    qpseeker_storage::fnv::bytes(s.as_bytes())
}

/// Seal `payload` (itself JSON) in the versioned, checksummed envelope:
/// `{"version":V,"checksum":"<fnv64 hex>","payload":<payload>}`.
pub fn seal_envelope(payload: &str, version: u64) -> String {
    let checksum = fnv64(payload);
    format!("{{\"version\":{version},\"checksum\":\"{checksum:016x}\",\"payload\":{payload}}}")
}

/// Extract the raw payload substring from an envelope produced by
/// [`seal_envelope`]: everything after the `"payload":` key up to the
/// envelope's closing brace. Checksumming the raw bytes (rather than a
/// parsed re-serialization) means even flips that survive float rounding
/// are caught.
fn raw_payload(envelope: &str) -> Result<&str, CoreError> {
    const KEY: &str = "\"payload\":";
    let start = envelope
        .find(KEY)
        .ok_or_else(|| CoreError::CheckpointMalformed("missing payload field".into()))?
        + KEY.len();
    let end = envelope
        .rfind('}')
        .filter(|&e| e > start)
        .ok_or_else(|| CoreError::CheckpointMalformed("unterminated envelope".into()))?;
    Ok(&envelope[start..end])
}

/// Open an envelope, verifying the format version and the payload checksum.
/// Returns the raw payload substring on success.
///
/// # Errors
/// [`CoreError::CheckpointMalformed`] for unparseable input or a missing
/// envelope field, [`CoreError::CheckpointVersion`] for a version this build
/// does not read, [`CoreError::CheckpointCorrupted`] when the payload does
/// not match its recorded checksum (truncation, torn write, bit-rot).
pub fn open_envelope(envelope: &str, supported: u64) -> Result<&str, CoreError> {
    let parsed: serde_json::Value = serde_json::from_str(envelope)?;
    let version = parsed
        .get("version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| CoreError::CheckpointMalformed("missing version field".into()))?;
    if version != supported {
        return Err(CoreError::CheckpointVersion { found: version, supported });
    }
    let expected = parsed
        .get("checksum")
        .and_then(|v| v.as_str())
        .ok_or_else(|| CoreError::CheckpointMalformed("missing checksum field".into()))?
        .to_string();
    parsed
        .get("payload")
        .ok_or_else(|| CoreError::CheckpointMalformed("missing payload field".into()))?;
    let payload = raw_payload(envelope)?;
    let actual = format!("{:016x}", fnv64(payload));
    if actual != expected {
        return Err(CoreError::CheckpointCorrupted { expected, actual });
    }
    Ok(payload)
}

pub(crate) fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Io { op, path: path.display().to_string(), message: e.to_string() }
}

/// The numbered files `<prefix>-<seq>.<ext>` in `dir`, by ascending `seq`.
/// Anything else — quarantined (`*.corrupt`), temp (`*.tmp`) or foreign
/// files — is skipped.
pub(crate) fn list_numbered(
    dir: &Path,
    prefix: &str,
    ext: &str,
) -> Result<Vec<(u64, PathBuf)>, CoreError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))?;
    let (want_prefix, want_ext) = (format!("{prefix}-"), format!(".{ext}"));
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = name.strip_prefix(&want_prefix).and_then(|r| r.strip_suffix(&want_ext))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Quarantine `path`: rename it to `<name>.corrupt` in `dir`, to be
/// inspected rather than read again.
pub(crate) fn quarantine(dir: &Path, path: &Path) -> Result<(), CoreError> {
    let mut name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    name.push_str(".corrupt");
    fs::rename(path, dir.join(name)).map_err(|e| io_err("quarantine", path, e))
}

/// Fsync a directory so a just-renamed (or just-created) entry inside it
/// survives power failure. On Unix an unsyncable directory is a real
/// durability hole — the rename itself can be lost — so failures are
/// reported as typed [`CoreError::Io`] errors rather than swallowed. On
/// platforms where directories cannot be opened for syncing the call is a
/// best-effort no-op.
pub fn fsync_dir(dir: &Path) -> Result<(), CoreError> {
    #[cfg(unix)]
    {
        let d = fs::File::open(dir).map_err(|e| io_err("open dir", dir, e))?;
        d.sync_all().map_err(|e| io_err("fsync dir", dir, e))?;
    }
    #[cfg(not(unix))]
    {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Write `contents` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, fsync the directory. With an armed
/// [`FaultInjector`] the write may instead be torn (a truncated prefix
/// reaches the destination directly, simulating a non-atomic filesystem) or
/// die at a crash point; both surface as [`CoreError::InjectedCrash`] so
/// callers experience them exactly like a kill.
pub fn write_atomic(
    path: &Path,
    contents: &str,
    faults: Option<&FaultInjector>,
) -> Result<(), CoreError> {
    let site = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    if let Some(fi) = faults {
        match fi.durable_fault(&site, contents.len()) {
            Some(DurableFault::CrashPoint) => {
                return Err(CoreError::InjectedCrash { site, seq: fi.durable_writes() - 1 });
            }
            Some(DurableFault::TornWrite { keep_bytes }) => {
                // Simulate a filesystem without atomic rename: partial bytes
                // land in the destination itself, then the process "dies".
                fs::write(path, &contents.as_bytes()[..keep_bytes])
                    .map_err(|e| io_err("torn write", path, e))?;
                return Err(CoreError::InjectedCrash { site, seq: fi.durable_writes() - 1 });
            }
            None => {}
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        f.write_all(contents.as_bytes()).map_err(|e| io_err("write", &tmp, e))?;
        f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, e))?;
    // Persist the rename itself: without the directory fsync the entry can
    // vanish on power failure even though the temp file's bytes were synced.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// A snapshot recovered from disk.
#[derive(Debug, Clone)]
pub struct RecoveredSnapshot {
    /// The snapshot's sequence number (for training: completed epochs).
    pub seq: u64,
    /// The verified raw payload (JSON).
    pub payload: String,
    /// Corrupt candidates quarantined while scanning down to this one.
    pub quarantined: usize,
}

/// Numbered, rotated, checksummed snapshot files in one directory.
///
/// Files are named `<prefix>-<seq:08>.snap`; rotation keeps the newest
/// `keep` of them. [`SnapshotStore::recover`] scans newest-first and returns
/// the first snapshot whose envelope verifies, quarantining corrupt ones as
/// `<name>.corrupt` along the way.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    prefix: String,
    keep: usize,
    faults: Option<FaultInjector>,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot directory. `keep` is clamped to
    /// at least 2 so a torn newest snapshot always leaves a fallback.
    pub fn create(dir: impl Into<PathBuf>, prefix: &str, keep: usize) -> Result<Self, CoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        Ok(Self { dir, prefix: prefix.to_string(), keep: keep.max(2), faults: None })
    }

    /// Arm deterministic durable-path faults (chaos testing).
    pub fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    fn path_of(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{}-{seq:08}.snap", self.prefix))
    }

    /// Snapshot files present on disk, sorted by ascending sequence number.
    fn list(&self) -> Result<Vec<(u64, PathBuf)>, CoreError> {
        list_numbered(&self.dir, &self.prefix, "snap")
    }

    /// Seal `payload` in the snapshot envelope and write it atomically as
    /// sequence `seq`, then rotate old snapshots down to `keep`.
    pub fn write(&self, seq: u64, payload: &str) -> Result<PathBuf, CoreError> {
        let sealed = seal_envelope(payload, SNAPSHOT_VERSION);
        let path = self.path_of(seq);
        write_atomic(&path, &sealed, self.faults.as_ref())?;
        self.rotate()?;
        Ok(path)
    }

    fn rotate(&self) -> Result<(), CoreError> {
        let files = self.list()?;
        if files.len() > self.keep {
            for (_, path) in &files[..files.len() - self.keep] {
                fs::remove_file(path).map_err(|e| io_err("remove", path, e))?;
            }
        }
        Ok(())
    }

    /// Scan for the newest valid snapshot. Corrupt candidates (torn writes,
    /// bit-rot, version skew) are quarantined as `<name>.corrupt` and the
    /// scan falls back to the next-newest.
    ///
    /// Returns `Ok(None)` when the directory holds no snapshots at all (a
    /// fresh start) and [`CoreError::NoValidSnapshot`] when snapshots were
    /// present but every one was corrupt.
    pub fn recover(&self) -> Result<Option<RecoveredSnapshot>, CoreError> {
        let files = self.list()?;
        if files.is_empty() {
            return Ok(None);
        }
        let mut quarantined = 0usize;
        for (seq, path) in files.iter().rev() {
            match fs::read_to_string(path) {
                Ok(sealed) => match open_envelope(&sealed, SNAPSHOT_VERSION) {
                    Ok(payload) => {
                        return Ok(Some(RecoveredSnapshot {
                            seq: *seq,
                            payload: payload.to_string(),
                            quarantined,
                        }));
                    }
                    Err(_) => {
                        quarantine(&self.dir, path)?;
                        quarantined += 1;
                    }
                },
                Err(_) => {
                    quarantine(&self.dir, path)?;
                    quarantined += 1;
                }
            }
        }
        Err(CoreError::NoValidSnapshot { dir: self.dir.display().to_string(), quarantined })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::FaultConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch directory per test (no tempfile crate in the tree).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("qps-durable-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn envelope_round_trips_and_rejects_tampering() {
        let payload = r#"{"a":1,"b":[1.5,2.25]}"#;
        let sealed = seal_envelope(payload, 3);
        assert_eq!(open_envelope(&sealed, 3).unwrap(), payload);
        assert!(matches!(
            open_envelope(&sealed, 4),
            Err(CoreError::CheckpointVersion { found: 3, supported: 4 })
        ));
        let tampered = sealed.replace("2.25", "2.26");
        assert!(matches!(open_envelope(&tampered, 3), Err(CoreError::CheckpointCorrupted { .. })));
        assert!(open_envelope(&sealed[..sealed.len() / 2], 3).is_err());
    }

    #[test]
    fn write_atomic_persists_and_replaces() {
        let dir = scratch("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic(&path, "first", None).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second", None).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp residue after a clean protocol run.
        assert!(!dir.join("state.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_point_fault_surfaces_as_injected_crash_and_leaves_no_file() {
        let dir = scratch("crash");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let fi = FaultInjector::new(FaultConfig {
            crash_after_writes: Some(0),
            ..FaultConfig::default()
        });
        let err = write_atomic(&path, "payload", Some(&fi)).unwrap_err();
        assert!(matches!(err, CoreError::InjectedCrash { seq: 0, .. }), "{err}");
        assert!(err.is_transient());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_leaves_a_truncated_destination() {
        let dir = scratch("torn");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let fi = FaultInjector::new(FaultConfig {
            seed: 5,
            torn_write_p: 1.0,
            ..FaultConfig::default()
        });
        let contents = "x".repeat(256);
        let err = write_atomic(&path, &contents, Some(&fi)).unwrap_err();
        assert!(matches!(err, CoreError::InjectedCrash { .. }), "{err}");
        let on_disk = fs::read_to_string(&path).unwrap();
        assert!(on_disk.len() < contents.len(), "torn write must truncate");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_the_newest_n() {
        let dir = scratch("rotate");
        let store = SnapshotStore::create(&dir, "epoch", 3).unwrap();
        for seq in 1..=5 {
            store.write(seq, &format!(r#"{{"epoch":{seq}}}"#)).unwrap();
        }
        let names: Vec<String> = {
            let mut v: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names, ["epoch-00000003.snap", "epoch-00000004.snap", "epoch-00000005.snap"]);
        let rec = store.recover().unwrap().expect("snapshots exist");
        assert_eq!(rec.seq, 5);
        assert_eq!(rec.payload, r#"{"epoch":5}"#);
        assert_eq!(rec.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_falls_back_past_a_torn_newest_snapshot() {
        let dir = scratch("fallback");
        let store = SnapshotStore::create(&dir, "epoch", 4).unwrap();
        store.write(1, r#"{"epoch":1}"#).unwrap();
        store.write(2, r#"{"epoch":2}"#).unwrap();
        // Tear the newest snapshot by hand (as a non-atomic crash would).
        let newest = dir.join("epoch-00000003.snap");
        let sealed = seal_envelope(r#"{"epoch":3}"#, SNAPSHOT_VERSION);
        fs::write(&newest, &sealed[..sealed.len() / 2]).unwrap();
        let rec = store.recover().unwrap().expect("a valid snapshot remains");
        assert_eq!(rec.seq, 2, "recovery must fall back to the newest valid snapshot");
        assert_eq!(rec.quarantined, 1);
        assert!(!newest.exists(), "torn snapshot is quarantined away");
        assert!(dir.join("epoch-00000003.snap.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_fresh_start() {
        let dir = scratch("empty");
        let store = SnapshotStore::create(&dir, "epoch", 3).unwrap();
        assert!(store.recover().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_directory_is_a_typed_error() {
        let dir = scratch("allcorrupt");
        let store = SnapshotStore::create(&dir, "epoch", 3).unwrap();
        for seq in 1..=3u64 {
            fs::write(store.path_of(seq), "garbage, not an envelope").unwrap();
        }
        let err = store.recover().unwrap_err();
        assert!(
            matches!(err, CoreError::NoValidSnapshot { quarantined: 3, .. }),
            "expected NoValidSnapshot, got {err}"
        );
        // Every candidate was quarantined, none deleted.
        let corrupt = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".corrupt"))
            .count();
        assert_eq!(corrupt, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_ignores_quarantined_and_temp_files() {
        let dir = scratch("ignore");
        let store = SnapshotStore::create(&dir, "epoch", 3).unwrap();
        store.write(7, r#"{"epoch":7}"#).unwrap();
        fs::write(dir.join("epoch-00000009.snap.corrupt"), "junk").unwrap();
        fs::write(dir.join("epoch-00000010.tmp"), "junk").unwrap();
        let rec = store.recover().unwrap().expect("valid snapshot exists");
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
