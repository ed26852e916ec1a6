//! Model checkpointing: serialize a trained QPSeeker to JSON and restore it
//! against the same database schema.
//!
//! A checkpoint stores the configuration, every parameter tensor, and the
//! fitted target normalizer. Restoration re-derives the architecture from
//! the config (parameter registration order is deterministic), then swaps in
//! the saved weights — so a checkpoint is only valid for a database with the
//! same catalog dimensions (relation/join vocabulary sizes).
//!
//! On disk a checkpoint is a versioned envelope
//! `{"version": 1, "checksum": "<fnv64 hex>", "payload": {…}}`; the checksum
//! covers the canonical serialization of the payload, so truncated or
//! bit-flipped checkpoint files are rejected at load with
//! [`CoreError::CheckpointCorrupted`] instead of restoring garbage weights.

use crate::config::ModelConfig;
use crate::durable;
use crate::error::CoreError;
use crate::model::QPSeeker;
use crate::normalize::TargetNormalizer;
use qpseeker_nn::params::ParamStore;
use qpseeker_storage::Database;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Envelope format version this build reads and writes.
pub(crate) const CHECKPOINT_VERSION: u64 = 1;

/// Serialized model state.
#[derive(Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    pub config: ModelConfig,
    pub normalizer: Option<TargetNormalizer>,
    pub store: ParamStore,
    /// Catalog fingerprint: (num_tables, num_joins) at save time.
    pub schema_dims: (usize, usize),
}

impl Checkpoint {
    /// Capture a model's state.
    pub fn capture(model: &QPSeeker, db: &Database) -> Self {
        Self {
            config: model.config.clone(),
            normalizer: model.normalizer.clone(),
            store: model.store.clone(),
            schema_dims: (db.catalog.num_tables(), db.catalog.num_joins()),
        }
    }

    /// Serialize to the versioned, checksummed envelope format (shared with
    /// the training-snapshot path in [`crate::durable`]).
    pub fn to_json(&self) -> Result<String, CoreError> {
        let payload = serde_json::to_string(self)?;
        Ok(durable::seal_envelope(&payload, CHECKPOINT_VERSION))
    }

    /// Parse an envelope, verifying the format version and the payload
    /// checksum before deserializing any model state.
    ///
    /// # Errors
    /// [`CoreError::CheckpointMalformed`] for unparseable input or a missing
    /// envelope field, [`CoreError::CheckpointVersion`] for a version this
    /// build does not read, [`CoreError::CheckpointCorrupted`] when the
    /// payload does not match its recorded checksum (truncation, bit-rot).
    pub fn from_json(s: &str) -> Result<Self, CoreError> {
        let payload = durable::open_envelope(s, CHECKPOINT_VERSION)?;
        serde_json::from_str(payload).map_err(CoreError::from)
    }

    /// Restore a model bound to `db`.
    ///
    /// # Errors
    /// Fails when the database's catalog dimensions differ from the ones the
    /// checkpoint was trained against, or the rebuilt architecture cannot
    /// hold the saved parameters.
    pub fn restore(self, db: &Arc<Database>) -> Result<QPSeeker, CoreError> {
        let dims = (db.catalog.num_tables(), db.catalog.num_joins());
        if dims != self.schema_dims {
            return Err(CoreError::SchemaMismatch { expected: self.schema_dims, found: dims });
        }
        let mut model = QPSeeker::new(db, self.config);
        let layout = CoreError::ParamLayout {
            built_params: model.store.len(),
            built_scalars: model.store.num_scalars(),
            saved_params: self.store.len(),
            saved_scalars: self.store.num_scalars(),
        };
        // Into the built store, which knows what serving reads packed.
        if !model.store.load(self.store) {
            return Err(layout);
        }
        model.normalizer = self.normalizer;
        // Pack what serving reads now so it never pays for it mid-query.
        model.store.warm_packed();
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::FeatSession;
    use qpseeker_workloads::{synthetic, Qep, SyntheticConfig};

    #[test]
    fn save_restore_round_trip_preserves_predictions() {
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 15, seed: 2 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let before = model.predict(&w.qeps[0].query, &w.qeps[0].plan);

        let json = Checkpoint::capture(&model, &db).to_json().unwrap();
        let restored = Checkpoint::from_json(&json).unwrap();
        let model2 = restored.restore(&db).unwrap();
        let after = model2.predict(&w.qeps[0].query, &w.qeps[0].plan);
        assert_eq!(before, after, "restored model must predict identically");

        // A checkpoint written before the tape serving path was retired
        // still carries its toggle, switched off. The key is ignored: the
        // model loads and scores through the one forward, identically.
        let payload = serde_json::to_string(&Checkpoint::capture(&model, &db)).unwrap();
        let legacy = payload.replacen(
            "\"train_threads\":",
            "\"fast_inference\":false,\"train_threads\":",
            1,
        );
        assert_ne!(legacy, payload, "the legacy key was spliced into the config object");
        let legacy = durable::seal_envelope(&legacy, CHECKPOINT_VERSION);
        let model3 = Checkpoint::from_json(&legacy).unwrap().restore(&db).unwrap();
        let after = model3.predict(&w.qeps[0].query, &w.qeps[0].plan);
        assert_eq!(before, after, "a retired config key must not change scoring");
    }

    /// A restored model has packed exactly what serving reads: scoring
    /// every plan of a workload (scans and joins, attention and the
    /// concatenation fallback), by its mean and by sampled risk, builds no
    /// further derived weight — the folds included, and no packed copy of
    /// a layer they replace.
    #[test]
    fn restored_model_serves_without_packing() {
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let w = synthetic::generate(&db, &SyntheticConfig { n_queries: 15, seed: 2 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(&db, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let json = Checkpoint::capture(&model, &db).to_json().unwrap();
        let restored = Checkpoint::from_json(&json).unwrap().restore(&db).unwrap();
        let warm = restored.store.derived_copies();
        assert!(warm > 0, "restore warms the served weights");
        assert!(w.qeps.iter().any(|q| q.plan.len() > 1), "some plan attends");
        let eps = restored.risk_eps(4, 7);
        let mut risk = Vec::new();
        for q in &w.qeps {
            restored.predict(&q.query, &q.plan);
            let mut ctx = restored.query_context(&q.query);
            let mut sess = FeatSession::new();
            restored.predict_risk_batch_with_context_in(
                &mut sess,
                &q.query,
                &[&q.plan],
                &mut ctx,
                &eps,
                &mut risk,
            );
        }
        assert_eq!(restored.store.derived_copies(), warm, "a served request packed a weight");
    }

    #[test]
    fn restore_rejects_mismatched_schema() {
        let imdb = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let stack = Arc::new(qpseeker_storage::datagen::stack::generate(0.04, 2));
        let w = synthetic::generate(&imdb, &SyntheticConfig { n_queries: 8, seed: 2 });
        let refs: Vec<&Qep> = w.qeps.iter().collect();
        let mut model = QPSeeker::new(&imdb, ModelConfig::small());
        model.fit(&refs).expect("training succeeds");
        let ckpt = Checkpoint::capture(&model, &imdb);
        let err = match ckpt.restore(&stack) {
            Ok(_) => panic!("restore against a different schema must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, CoreError::SchemaMismatch { .. }));
        assert!(err.to_string().contains("schema mismatch"));
    }

    #[test]
    fn unfitted_model_round_trips_too() {
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let model = QPSeeker::new(&db, ModelConfig::small());
        let json = Checkpoint::capture(&model, &db).to_json().unwrap();
        let restored = Checkpoint::from_json(&json).unwrap().restore(&db).unwrap();
        assert!(restored.normalizer.is_none());
        assert_eq!(restored.num_parameters(), model.num_parameters());
    }

    #[test]
    fn bit_flipped_checkpoint_rejected() {
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let model = QPSeeker::new(&db, ModelConfig::small());
        let json = Checkpoint::capture(&model, &db).to_json().unwrap();
        // Flip one digit inside the payload (keep the JSON well-formed).
        let pos = json
            .char_indices()
            .skip(json.find("payload").unwrap())
            .find(|(_, c)| ('1'..='8').contains(c))
            .map(|(i, _)| i)
            .expect("payload contains a digit");
        let mut bytes = json.into_bytes();
        bytes[pos] += 1;
        let tampered = String::from_utf8(bytes).unwrap();
        let err =
            Checkpoint::from_json(&tampered).err().expect("tampered checkpoint must be rejected");
        assert!(
            matches!(err, CoreError::CheckpointCorrupted { .. }),
            "expected corruption error, got: {err}"
        );
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let db = Arc::new(qpseeker_storage::datagen::imdb::generate(0.04, 2));
        let model = QPSeeker::new(&db, ModelConfig::small());
        let json = Checkpoint::capture(&model, &db).to_json().unwrap();
        let truncated = &json[..json.len() / 2];
        let err =
            Checkpoint::from_json(truncated).err().expect("truncated checkpoint must be rejected");
        assert!(
            matches!(err, CoreError::CheckpointMalformed(_)),
            "expected malformed error, got: {err}"
        );
    }

    #[test]
    fn future_version_rejected() {
        let err = Checkpoint::from_json(r#"{"version":99,"checksum":"00","payload":{}}"#)
            .err()
            .expect("future version must be rejected");
        assert!(matches!(err, CoreError::CheckpointVersion { found: 99, .. }), "{err}");
    }
}
