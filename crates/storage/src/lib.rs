//! `qpseeker-storage` — the column-store database substrate.
//!
//! The paper runs against PostgreSQL instances loaded with the IMDb and
//! StackExchange datasets. This crate provides the storage half of that
//! substrate:
//!
//! * [`table`] — in-memory columnar tables with dictionary-encoded text,
//! * [`catalog`] — schema metadata, foreign-key join graph, B-tree index
//!   shapes, bundled into a [`catalog::Database`],
//! * [`stats`] — ANALYZE-style statistics (equi-depth histograms, MCVs,
//!   distinct counts) that drive the PG-style estimator in `qpseeker-engine`,
//! * [`datagen`] — seeded synthetic generators for IMDb-shaped,
//!   Stack-shaped and random (Zero-Shot pretraining) databases,
//! * [`zipf`] — skewed sampling used throughout generation,
//! * [`fnv`] — the FNV-1a hash every crate above fingerprints and seeds with.
//!
//! # Example
//!
//! ```
//! let db = qpseeker_storage::datagen::imdb::generate(0.05, 42);
//! assert_eq!(db.catalog.num_tables(), 16);
//! let title = db.table("title").unwrap();
//! assert!(title.n_rows() > 50);
//! let stats = db.table_stats("title").unwrap();
//! assert!(stats.col("production_year").unwrap().n_distinct > 10);
//! ```

pub mod catalog;
pub mod datagen;
pub mod error;
pub mod fault;
pub mod fnv;
pub mod stats;
pub mod table;
pub mod zipf;

pub use catalog::{Catalog, ColumnMeta, Database, ForeignKey, IndexMeta, TableMeta};
pub use error::StorageError;
pub use fault::{DurableFault, FaultConfig, FaultInjector, InferenceFault};
pub use stats::{ColumnStats, Histogram, TableStats, BLOCK_SIZE};
pub use table::{Column, ColumnData, DataType, Table, TextBuilder, Value};
