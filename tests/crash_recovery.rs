//! Crash-recovery suite for the durable-training layer.
//!
//! Three guarantees are exercised end to end:
//! 1. a training run killed (via injected crash-point fault) at *any* epoch
//!    boundary and resumed from its journal produces bitwise-identical
//!    parameters to an uninterrupted run, for serial and data-parallel
//!    training alike;
//! 2. recovery never loads a corrupt snapshot: torn writes are rejected by
//!    the checksum envelope and recovery falls back to the newest valid
//!    snapshot, across a 100-iteration seeded sweep with zero panics;
//! 3. journals that cannot be used — all-corrupt directories, snapshots from
//!    a different config or dataset — surface as typed errors, never panics.
//!
//! `QPS_CHAOS_SEED` offsets every fault schedule so CI can sweep seeds.

mod common;

use common::{chaos_seed, shared_db};
use qpseeker_repro::core::prelude::*;
use qpseeker_repro::storage::{FaultConfig, FaultInjector};
use qpseeker_repro::workloads::{synthetic, Qep, SyntheticConfig, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn shared_workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| synthetic::generate(shared_db(), &SyntheticConfig { n_queries: 10, seed: 5 }))
}

/// Small, fast config; `epochs` and `train_threads` are the sweep knobs.
fn train_cfg(epochs: usize, train_threads: usize) -> ModelConfig {
    let mut cfg = ModelConfig::small();
    cfg.epochs = epochs;
    cfg.train_threads = train_threads;
    cfg
}

/// Unique scratch journal directory per test case.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qps-crashrec-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every parameter scalar, as raw bits — the "bitwise identical" currency.
fn param_bits(model: &QPSeeker) -> Vec<u32> {
    model.store.iter().flat_map(|(_, p)| p.value.data().iter().map(|v| v.to_bits())).collect()
}

/// Train uninterrupted (no journal) and return the final parameter bits.
fn baseline_bits(epochs: usize, threads: usize) -> Vec<u32> {
    let refs: Vec<&Qep> = shared_workload().qeps.iter().collect();
    let mut model = QPSeeker::new(shared_db(), train_cfg(epochs, threads));
    model.fit(&refs).expect("training succeeds");
    param_bits(&model)
}

/// Kill a journaled run at durable write `k` (so `k` epoch snapshots made it
/// to disk), then resume in a fresh model; return the resumed model's bits.
fn crash_at_write_then_resume(dir: &PathBuf, epochs: usize, threads: usize, k: u64) -> Vec<u32> {
    let refs: Vec<&Qep> = shared_workload().qeps.iter().collect();

    let injector =
        FaultInjector::new(FaultConfig { crash_after_writes: Some(k), ..FaultConfig::default() });
    let journal =
        SnapshotStore::create(dir, "epoch", 8).expect("journal dir").with_faults(Some(injector));
    let mut doomed = QPSeeker::new(shared_db(), train_cfg(epochs, threads));
    let err = doomed.fit_resumable(&refs, &journal).expect_err("crash point must fire");
    assert!(
        matches!(err, CoreError::InjectedCrash { .. }),
        "expected an injected crash, got {err}"
    );
    assert!(err.is_transient(), "a crash is transient — a restart may succeed");

    // A restarted process: fresh model, same journal directory, no faults.
    let journal = SnapshotStore::create(dir, "epoch", 8).expect("journal dir");
    let mut resumed = QPSeeker::new(shared_db(), train_cfg(epochs, threads));
    resumed.fit_resumable(&refs, &journal).expect("resumed training succeeds");
    param_bits(&resumed)
}

/// The tentpole determinism guarantee: kill at *every* epoch boundary
/// (including before the first snapshot lands) and resume; the final
/// parameters must be bitwise identical to an uninterrupted run.
#[test]
fn kill_at_every_epoch_resumes_to_bitwise_identical_parameters() {
    let epochs = 3;
    let baseline = baseline_bits(epochs, 1);
    assert!(!baseline.is_empty());
    // Write k crashes after k snapshots are durable: k = 0 is a crash before
    // any snapshot (resume falls back to a fresh start), k = epochs - 1 is a
    // crash while journaling the final epoch.
    for k in 0..epochs as u64 {
        let dir = scratch(&format!("kill-k{k}"));
        let bits = crash_at_write_then_resume(&dir, epochs, 1, k);
        assert_eq!(
            bits, baseline,
            "resume after crash at write {k} diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same guarantee holds for data-parallel training: two kill points,
/// each checked with 1 and 2 training threads (whose uninterrupted results
/// are themselves bit-identical by the merge-order design).
#[test]
fn resume_is_bitwise_identical_across_train_threads() {
    let epochs = 4;
    let baseline = baseline_bits(epochs, 1);
    assert_eq!(baseline, baseline_bits(epochs, 2), "thread count changed the baseline");
    for threads in [1usize, 2] {
        for k in [1u64, 3] {
            let dir = scratch(&format!("thr{threads}-k{k}"));
            let bits = crash_at_write_then_resume(&dir, epochs, threads, k);
            assert_eq!(
                bits, baseline,
                "threads={threads}, crash at write {k}: resumed parameters diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Journaling itself must not perturb training: a journaled run (no faults,
/// no resume) lands on the same parameters as a plain `fit`.
#[test]
fn journaling_does_not_change_training() {
    let refs: Vec<&Qep> = shared_workload().qeps.iter().collect();
    let dir = scratch("noop");
    let journal = SnapshotStore::create(&dir, "epoch", 4).expect("journal dir");
    let mut model = QPSeeker::new(shared_db(), train_cfg(3, 1));
    model.fit_resumable(&refs, &journal).expect("training succeeds");
    assert_eq!(param_bits(&model), baseline_bits(3, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn write on the newest snapshot (simulated non-atomic filesystem)
/// must not poison recovery: the checksum rejects it, the file is
/// quarantined, and training resumes from the previous valid snapshot —
/// still landing on bitwise-identical parameters.
#[test]
fn torn_newest_snapshot_falls_back_to_previous_valid_and_stays_deterministic() {
    let epochs = 3;
    let refs: Vec<&Qep> = shared_workload().qeps.iter().collect();
    let baseline = baseline_bits(epochs, 1);

    let dir = scratch("torn-newest");
    let journal = SnapshotStore::create(&dir, "epoch", 8).expect("journal dir");
    let mut first = QPSeeker::new(shared_db(), train_cfg(epochs, 1));
    first.fit_resumable(&refs, &journal).expect("training succeeds");

    // Tear the newest snapshot by hand, as a crash mid-write on a
    // non-atomic filesystem would.
    let newest = dir.join(format!("epoch-{:08}.snap", epochs));
    let sealed = std::fs::read_to_string(&newest).expect("newest snapshot exists");
    std::fs::write(&newest, &sealed[..sealed.len() / 3]).expect("tear snapshot");

    let mut resumed = QPSeeker::new(shared_db(), train_cfg(epochs, 1));
    resumed.fit_resumable(&refs, &journal).expect("resume past the torn snapshot");
    assert_eq!(param_bits(&resumed), baseline, "fallback resume diverged");
    assert!(
        dir.join(format!("epoch-{:08}.snap.corrupt", epochs)).exists(),
        "torn snapshot must be quarantined, not deleted or retried"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal where every snapshot is corrupt is a typed error, not a panic,
/// and every candidate ends up quarantined for inspection.
#[test]
fn all_corrupt_journal_is_a_typed_error() {
    let refs: Vec<&Qep> = shared_workload().qeps.iter().collect();
    let dir = scratch("all-corrupt");
    let journal = SnapshotStore::create(&dir, "epoch", 8).expect("journal dir");
    for seq in 1..=3u64 {
        std::fs::write(dir.join(format!("epoch-{seq:08}.snap")), "not an envelope")
            .expect("plant corrupt snapshot");
    }
    let mut model = QPSeeker::new(shared_db(), train_cfg(2, 1));
    let err = model.fit_resumable(&refs, &journal).expect_err("corrupt journal must fail");
    assert!(
        matches!(err, CoreError::NoValidSnapshot { quarantined: 3, .. }),
        "expected NoValidSnapshot with 3 quarantined, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal written under one config or dataset must be rejected (typed)
/// when resumed under another — silently mixing them would corrupt training.
#[test]
fn mismatched_journal_is_rejected_with_a_typed_error() {
    let refs: Vec<&Qep> = shared_workload().qeps.iter().collect();
    let dir = scratch("mismatch");
    let journal = SnapshotStore::create(&dir, "epoch", 4).expect("journal dir");
    let mut model = QPSeeker::new(shared_db(), train_cfg(2, 1));
    model.fit_resumable(&refs, &journal).expect("training succeeds");

    // Different config (seed participates in the fingerprint).
    let mut other_cfg = train_cfg(2, 1);
    other_cfg.seed ^= 0xdead;
    let mut other = QPSeeker::new(shared_db(), other_cfg);
    let err = other.fit_resumable(&refs, &journal).expect_err("config mismatch must fail");
    assert!(
        matches!(err, CoreError::SnapshotMismatch { field: "config", .. }),
        "expected config mismatch, got {err}"
    );

    // Same config, different dataset size.
    let fewer: Vec<&Qep> = refs[..refs.len() - 1].to_vec();
    let mut smaller = QPSeeker::new(shared_db(), train_cfg(2, 1));
    let err = smaller.fit_resumable(&fewer, &journal).expect_err("dataset mismatch must fail");
    assert!(
        matches!(err, CoreError::SnapshotMismatch { field: "dataset size", .. }),
        "expected dataset-size mismatch, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rename in `write_atomic` is only durable once the parent directory
/// entry is fsynced; `fsync_dir` is that barrier and must report failures as
/// typed errors instead of swallowing them.
#[test]
fn write_atomic_fsyncs_the_parent_directory() {
    use qpseeker_repro::core::durable::fsync_dir;
    let dir = scratch("dirsync");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // The happy path: file lands and the directory barrier succeeds.
    let target = dir.join("state.json");
    write_atomic(&target, "{\"ok\":true}", None).expect("atomic write succeeds");
    assert_eq!(std::fs::read_to_string(&target).unwrap(), "{\"ok\":true}");
    fsync_dir(&dir).expect("fsync of an existing directory succeeds");
    // A missing directory is a typed Io error, not a panic or silent no-op.
    let err = fsync_dir(&dir.join("no-such-subdir")).expect_err("missing dir must fail");
    assert!(matches!(err, CoreError::Io { .. }), "expected Io error, got {err}");
    // And write_atomic into a missing parent surfaces the same typed error.
    let err = write_atomic(&dir.join("ghost/state.json"), "x", None)
        .expect_err("missing parent must fail");
    assert!(matches!(err, CoreError::Io { .. }), "expected Io error, got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-byte newest snapshot — the classic crash-between-create-and-write
/// artifact on non-atomic filesystems — must be quarantined and recovery
/// must fall back to the previous intact snapshot.
#[test]
fn zero_byte_newest_snapshot_is_quarantined_and_previous_wins() {
    let dir = scratch("zerobyte");
    let store = SnapshotStore::create(&dir, "epoch", 8).expect("journal dir");
    store.write(1, r#"{"epoch":1}"#).expect("write 1");
    store.write(2, r#"{"epoch":2}"#).expect("write 2");
    // Plant a zero-byte file as the newest snapshot (seq 3 never finished).
    std::fs::write(dir.join("epoch-00000003.snap"), "").expect("plant zero-byte file");
    let rec = store.recover().expect("recovery succeeds").expect("a snapshot survives");
    assert_eq!(rec.seq, 2, "recovery must fall back to the newest intact snapshot");
    assert_eq!(rec.payload, r#"{"epoch":2}"#);
    assert!(
        dir.join("epoch-00000003.snap.corrupt").exists(),
        "the zero-byte snapshot must be quarantined for inspection"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An envelope sealed by a *newer* format version must surface as the typed
/// version-skew error — telling the operator to upgrade — and never be
/// misreported as checksum corruption.
#[test]
fn newer_envelope_version_is_version_skew_not_corruption() {
    use qpseeker_repro::core::durable::{open_envelope, seal_envelope, SNAPSHOT_VERSION};
    let future = SNAPSHOT_VERSION + 1;
    let sealed = seal_envelope(r#"{"from":"the future"}"#, future);
    let err = open_envelope(&sealed, SNAPSHOT_VERSION).expect_err("future version must fail");
    match err {
        CoreError::CheckpointVersion { found, supported } => {
            assert_eq!(found, future);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected CheckpointVersion, got {other}"),
    }
    // The same skew through the snapshot store quarantines rather than loads.
    let dir = scratch("verskew");
    let store = SnapshotStore::create(&dir, "epoch", 4).expect("journal dir");
    store.write(1, r#"{"epoch":1}"#).expect("write 1");
    std::fs::write(dir.join("epoch-00000002.snap"), seal_envelope(r#"{"epoch":2}"#, future))
        .expect("plant future snapshot");
    let rec = store.recover().expect("recovery succeeds").expect("a snapshot survives");
    assert_eq!(rec.seq, 1, "future-version snapshot must not be loaded");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance sweep: 100 seeded iterations of snapshot-store writes
/// under torn-write faults. Recovery must never surface a corrupt payload —
/// it either returns the newest snapshot that was durably written intact, or
/// a typed error when nothing valid survived. Zero panics by construction.
#[test]
fn torn_write_sweep_100_iterations_never_recovers_corrupt_state() {
    let base = 0x70b2 ^ chaos_seed();
    for i in 0..100u64 {
        let dir = scratch(&format!("sweep-{i}"));
        let injector = FaultInjector::new(FaultConfig {
            seed: base ^ (i.wrapping_mul(0x9e37)),
            torn_write_p: 0.35,
            ..FaultConfig::default()
        });
        let store = SnapshotStore::create(&dir, "epoch", 8)
            .expect("journal dir")
            .with_faults(Some(injector));

        // Write a run of snapshots; torn ones error like a kill and leave a
        // truncated file in place. Track which sequence numbers landed whole.
        let mut intact: Vec<u64> = Vec::new();
        for seq in 1..=6u64 {
            let payload = format!(r#"{{"epoch":{seq},"iter":{i}}}"#);
            match store.write(seq, &payload) {
                Ok(_) => intact.push(seq),
                Err(CoreError::InjectedCrash { .. }) => {}
                Err(other) => panic!("iter {i}, seq {seq}: unexpected error {other}"),
            }
        }

        match store.recover() {
            Ok(Some(rec)) => {
                let newest = *intact.last().unwrap_or_else(|| {
                    panic!("iter {i}: recovered seq {} but no write survived", rec.seq)
                });
                assert_eq!(
                    rec.seq, newest,
                    "iter {i}: recovery must return the newest intact snapshot"
                );
                assert_eq!(
                    rec.payload,
                    format!(r#"{{"epoch":{newest},"iter":{i}}}"#),
                    "iter {i}: recovered payload does not match what was written"
                );
            }
            Ok(None) => {
                assert!(intact.is_empty(), "iter {i}: intact snapshots exist but none found");
            }
            Err(CoreError::NoValidSnapshot { .. }) => {
                assert!(
                    intact.is_empty(),
                    "iter {i}: valid snapshots were on disk but recovery rejected all"
                );
            }
            Err(other) => panic!("iter {i}: unexpected recovery error {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
