//! The unified cross-DBMS test runner.
//!
//! Paper §2: "SQuaLity executes and validates the test cases in a
//! statement-by-statement manner" over a common connector interface. This
//! crate provides:
//!
//! * [`connector`] — the DBMS abstraction (≈33 LOC to implement per engine,
//!   matching the paper's §9 claim) and the [`ConnectorFactory`] that mints
//!   per-worker connections,
//! * [`runner`] — conditioned, loop-expanding, halting execution,
//! * [`events`] — the typed [`RunEvent`] stream ([`RunObserver`] sinks,
//!   JSONL logging, CLI progress) every suite run can emit,
//! * [`scheduler`] — the one worker [`pool`] and parallel, deterministic
//!   suite execution on it ([`Runner::run_files`]),
//! * [`validate`] — SLT sort modes, hash-threshold, exact vs tolerant
//!   numeric comparison,
//! * [`classify`] — the RQ3 dependency and RQ4 incompatibility taxonomies
//!   (Tables 5 and 6),
//! * [`sigcodec`] — the shared on-disk codec for persisted
//!   [`FailureSignature`]s (result cache and bug store),
//! * [`store`] — the versioned, atomically written entry directory both
//!   of those stores sit on, and
//! * [`outcome`] — per-record and per-file result accounting, with crashes
//!   and hangs tracked separately like the paper's Figure 4.

pub mod classify;
pub mod connector;
pub mod events;
pub mod outcome;
pub mod runner;
pub mod scheduler;
pub mod sigcodec;
pub mod store;
pub mod validate;

pub use classify::{
    classify_dependency, classify_incompatibility, normalize_error, DependencyClass,
    FailureSignature, IncompatibilityClass, PerturbationAxis, ReuseDifficulty, Stability,
    TaxonomyContext,
};
pub use connector::{
    client_result_error, engine_info, engine_token, Connector, ConnectorError, ConnectorFactory,
    EngineConnector, EngineConnectorFactory, FnFactory, Provisionable, Provisioned, TransportError,
    TransportErrorKind,
};
pub use events::{
    emit_suite_finished, replay_file_events, ConnectorInfo, FanoutObserver, JsonlObserver,
    NullObserver, ProgressObserver, RunEvent, RunObserver,
};
pub use outcome::{FailInfo, FailKind, FileResult, Outcome, RecordResult, SkipReason};
pub use runner::{Runner, RunnerOptions, TranslationMode};
pub use scheduler::{pool, FileRunRecord, SuiteExecution};
pub use sigcodec::{decode_signature, encode_signature};
pub use squality_sqlast::translate::{
    TranslationCache, TranslationCounts, TranslationRule, TranslationStats,
};
pub use store::{Store, StoreStats};
pub use validate::{validate_query, values_equal, NumericMode, Verdict};
