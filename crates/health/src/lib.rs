//! Model-health schema and diagnoser for the LithoGAN reproduction.
//!
//! PR 1/2 made runs observable in *time* (spans, traces, the run
//! ledger); this crate makes them observable in *health*: is the model
//! learning, or silently dying? It owns three things:
//!
//! * [`record`] — the `health.jsonl` schema written into `runs/<id>/`
//!   during training: per-layer activation/gradient summaries, optimizer
//!   update-to-weight ratios, and per-epoch GAN balance signals.
//! * [`diagnose`](mod@diagnose) — six named failure modes (vanishing-gradient,
//!   exploding-update, dead-layer, d-overpowers-g, mode-collapse,
//!   nan-poisoned) with first-seen epoch/step attribution.
//! * [`json`] — a re-export of `litho-json`, the workspace's shared
//!   zero-dependency JSON value model (parser + writer), kept under the
//!   old path for existing consumers.
//!
//! The crate is std-only and deliberately does *not* depend on
//! `litho-nn`: the training stack produces records via its own hook
//! types, and analyzers consume them here, so the ledger/CLI side stays
//! free of the NN dependency graph.

pub mod diagnose;
pub use litho_json as json;
pub mod record;

pub use diagnose::{diagnose, AbortCondition, Diagnosis, DiagnosisKind, Streak, Thresholds};
pub use record::{
    decode_record, parse_health_file, parse_health_str, CenterEpochRecord, GanEpochRecord,
    HealthParse, HealthRecord, HealthWriter, LayerRecord, Pass, UpdateRecord,
};
