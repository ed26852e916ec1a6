//! Typed core errors.
//!
//! Top link of the workspace error chain: wraps [`EngineError`] (which in
//! turn wraps `StorageError`) and adds checkpoint-integrity, durable-write
//! and training-lifecycle failures. As in the lower layers, Display texts
//! preserve the phrases the stringly-typed APIs used ("schema mismatch",
//! "parameter layout mismatch") so messages stay stable across the
//! conversion.

use qpseeker_engine::error::EngineError;
use std::fmt;

/// Errors raised by the neural planner: plan compilation/execution failures
/// lifted from the engine, checkpoint load/restore failures, durable-write
/// failures on the snapshot path, and training-lifecycle failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A planning or execution failure from the engine layer.
    Engine(EngineError),
    /// The checkpoint file is not valid JSON / not a checkpoint envelope.
    CheckpointMalformed(String),
    /// The checkpoint envelope declares an unsupported format version.
    CheckpointVersion { found: u64, supported: u64 },
    /// The checkpoint payload does not match its recorded checksum
    /// (truncation or bit-rot).
    CheckpointCorrupted { expected: String, actual: String },
    /// The checkpoint was trained against a different catalog.
    SchemaMismatch { expected: (usize, usize), found: (usize, usize) },
    /// The rebuilt architecture does not match the saved parameters.
    ParamLayout {
        built_params: usize,
        built_scalars: usize,
        saved_params: usize,
        saved_scalars: usize,
    },
    /// A filesystem operation on the durable path failed. The io error is
    /// carried as text so `CoreError` stays `Clone + PartialEq`.
    Io { op: &'static str, path: String, message: String },
    /// An injected crash-point fault "killed" the process at durable write
    /// number `seq` (chaos testing). Transient: resuming from the newest
    /// valid snapshot is the designed recovery.
    InjectedCrash { site: String, seq: u64 },
    /// A snapshot directory recovery scan found snapshot files but every
    /// one of them was corrupt (all were quarantined).
    NoValidSnapshot { dir: String, quarantined: usize },
    /// A resumed training run does not match the snapshot it would resume
    /// from (different config, dataset, or epoch plan).
    SnapshotMismatch { field: &'static str, snapshot: String, current: String },
    /// Training was invoked on an empty QEP set.
    EmptyTrainingSet,
    /// A training sample carries no ground-truth target.
    MissingTarget { index: usize },
    /// A data-parallel training worker panicked; the panic was contained at
    /// the shard boundary instead of poisoning the whole process.
    TrainingWorkerPanicked { shard: usize, cause: String },
    /// Experience-log recovery found a valid record whose sequence number
    /// skips ahead: a record was lost *behind* an intact successor, which a
    /// torn tail can never produce. Real corruption, not recoverable by
    /// truncation.
    ExperienceGap { expected: u64, found: u64 },
}

impl CoreError {
    /// Whether a retry is worthwhile (delegates to the engine layer).
    /// Checkpoint failures are permanent; an injected crash is transient by
    /// design — resuming from the newest valid snapshot recovers it.
    pub fn is_transient(&self) -> bool {
        match self {
            CoreError::Engine(e) => e.is_transient(),
            CoreError::InjectedCrash { .. } => true,
            _ => false,
        }
    }
}

/// Render a `catch_unwind`/`join` panic payload as text (most panics carry
/// `&str` or `String`).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::CheckpointMalformed(why) => {
                write!(f, "malformed checkpoint: {why}")
            }
            CoreError::CheckpointVersion { found, supported } => {
                write!(f, "unsupported checkpoint version {found} (supported: {supported})")
            }
            CoreError::CheckpointCorrupted { expected, actual } => {
                write!(f, "corrupt checkpoint: checksum {actual} does not match recorded {expected}")
            }
            CoreError::SchemaMismatch { expected, found } => write!(
                f,
                "schema mismatch: checkpoint was trained against {expected:?} (tables, joins), database has {found:?}"
            ),
            CoreError::ParamLayout { built_params, built_scalars, saved_params, saved_scalars } => {
                write!(
                    f,
                    "parameter layout mismatch: rebuilt {built_params} params / {built_scalars} scalars, checkpoint has {saved_params} / {saved_scalars}"
                )
            }
            CoreError::Io { op, path, message } => {
                write!(f, "durable {op} of {path} failed: {message}")
            }
            CoreError::InjectedCrash { site, seq } => {
                write!(f, "injected crash at {site} (durable write #{seq})")
            }
            CoreError::NoValidSnapshot { dir, quarantined } => {
                write!(
                    f,
                    "no valid snapshot in {dir}: all {quarantined} candidate(s) were corrupt and quarantined"
                )
            }
            CoreError::SnapshotMismatch { field, snapshot, current } => {
                write!(
                    f,
                    "snapshot mismatch on {field}: snapshot has {snapshot}, this run has {current}"
                )
            }
            CoreError::EmptyTrainingSet => f.write_str("cannot train on an empty QEP set"),
            CoreError::MissingTarget { index } => {
                write!(f, "training QEP #{index} carries no ground-truth target")
            }
            CoreError::TrainingWorkerPanicked { shard, cause } => {
                write!(f, "training worker for shard {shard} panicked: {cause}")
            }
            CoreError::ExperienceGap { expected, found } => {
                write!(
                    f,
                    "experience log gap: expected record #{expected}, found #{found} — a record was lost behind an intact successor"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<serde_json::Error> for CoreError {
    fn from(e: serde_json::Error) -> Self {
        CoreError::CheckpointMalformed(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpseeker_storage::StorageError;

    #[test]
    fn preserves_legacy_message_phrases() {
        let schema = CoreError::SchemaMismatch { expected: (21, 13), found: (14, 12) };
        assert!(schema.to_string().contains("schema mismatch"));
        let layout = CoreError::ParamLayout {
            built_params: 10,
            built_scalars: 100,
            saved_params: 9,
            saved_scalars: 90,
        };
        assert!(layout.to_string().contains("parameter layout mismatch"));
    }

    #[test]
    fn engine_errors_lift_with_source() {
        use std::error::Error;
        let e: CoreError = EngineError::from(StorageError::UnknownTable("ghost".into())).into();
        assert!(e.to_string().contains("ghost"));
        assert!(e.source().is_some());
    }

    #[test]
    fn transience_follows_the_engine_layer() {
        let transient: CoreError =
            EngineError::from(StorageError::PageRead { table: "t".into(), page: 3 }).into();
        assert!(transient.is_transient());
        let corrupt = CoreError::CheckpointCorrupted { expected: "aa".into(), actual: "bb".into() };
        assert!(!corrupt.is_transient());
    }

    #[test]
    fn injected_crash_is_transient_training_errors_are_not() {
        assert!(CoreError::InjectedCrash { site: "s.snap".into(), seq: 3 }.is_transient());
        assert!(!CoreError::EmptyTrainingSet.is_transient());
        assert!(!CoreError::MissingTarget { index: 2 }.is_transient());
        assert!(
            !CoreError::TrainingWorkerPanicked { shard: 0, cause: "boom".into() }.is_transient()
        );
        assert!(!CoreError::NoValidSnapshot { dir: "d".into(), quarantined: 2 }.is_transient());
    }

    #[test]
    fn new_variants_display_their_context() {
        let io = CoreError::Io { op: "rename", path: "/x/y".into(), message: "denied".into() };
        assert!(io.to_string().contains("rename") && io.to_string().contains("/x/y"));
        let crash = CoreError::InjectedCrash { site: "epoch-3".into(), seq: 7 };
        assert!(crash.to_string().contains("epoch-3") && crash.to_string().contains("#7"));
        let none = CoreError::NoValidSnapshot { dir: "snaps".into(), quarantined: 4 };
        assert!(none.to_string().contains("snaps") && none.to_string().contains('4'));
        let mismatch = CoreError::SnapshotMismatch {
            field: "dataset",
            snapshot: "12 QEPs".into(),
            current: "8 QEPs".into(),
        };
        assert!(mismatch.to_string().contains("dataset"));
        assert!(CoreError::MissingTarget { index: 5 }.to_string().contains("#5"));
        let gap = CoreError::ExperienceGap { expected: 4, found: 7 };
        assert!(gap.to_string().contains("#4") && gap.to_string().contains("#7"));
        assert!(!gap.is_transient(), "a gap is real corruption, not a retryable fault");
        assert!(CoreError::TrainingWorkerPanicked { shard: 1, cause: "oh no".into() }
            .to_string()
            .contains("oh no"));
    }

    #[test]
    fn panic_payloads_render_as_text() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(17u32)), "opaque panic payload");
    }
}
