//! Out-of-process backend layer.
//!
//! Everywhere else in the workspace the engine is a library call: fast,
//! deterministic, and fate-sharing — an engine bug that wedges or aborts
//! takes the harness with it. Real DBMS testing does not work that way,
//! and the paper's crash/hang taxonomy (Figure 4) only exists because
//! the systems under test live in their own processes. This crate adds
//! that boundary:
//!
//! * [`protocol`] — a tiny length-prefixed stdin/stdout wire format
//!   (`<len>\n<payload>` frames; typed values ship with exact bit
//!   patterns so parent-side rendering is byte-faithful),
//! * [`subprocess`] — [`subprocess::SubprocessConnector`], a
//!   [`squality_runner::Connector`] that drives a worker process with
//!   per-statement deadlines and bounded restart-with-backoff, and
//! * `squality-backend-worker` — the worker binary hosting the engine,
//!   with env-var fault hooks (`SQUALITY_CRASH_AFTER`,
//!   `SQUALITY_HANG_AFTER`) for crash-containment tests.
//!
//! A dead backend becomes a classified failure with a stable
//! [`squality_runner::FailureSignature`], never a harness abort. The
//! in-process path is untouched, so study output there stays
//! byte-identical.

pub mod protocol;
pub mod subprocess;

pub use subprocess::{
    discover_worker_bin, BackendFaultBreakdown, BackendStats, SubprocessConnector,
    SubprocessConnectorFactory, DEFAULT_DEADLINE, DEFAULT_MAX_RESTARTS,
};

use std::path::PathBuf;
use std::time::Duration;

/// Where a harness runs its engines — the builder axis added by the
/// backend layer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// The engine as a library call in the harness process (the default;
    /// byte-identical to every prior release).
    #[default]
    InProcess,
    /// Each connection is a `squality-backend-worker` child process.
    Subprocess {
        /// Worker binary; `None` means [`discover_worker_bin`] at
        /// connect time.
        bin: Option<PathBuf>,
        /// Per-statement deadline before the worker is killed.
        deadline: Duration,
        /// Restarts allowed per test file before faults stop the file.
        max_restarts: u32,
    },
}

impl BackendSpec {
    /// A subprocess spec with default deadline and restart budget.
    pub fn subprocess() -> BackendSpec {
        BackendSpec::Subprocess {
            bin: None,
            deadline: DEFAULT_DEADLINE,
            max_restarts: DEFAULT_MAX_RESTARTS,
        }
    }

    /// Override the per-statement deadline (no-op for
    /// [`BackendSpec::InProcess`]).
    pub fn with_deadline(mut self, new_deadline: Duration) -> BackendSpec {
        if let BackendSpec::Subprocess { deadline, .. } = &mut self {
            *deadline = new_deadline;
        }
        self
    }

    /// Override the per-file restart budget (no-op for
    /// [`BackendSpec::InProcess`]).
    pub fn with_max_restarts(mut self, new_max: u32) -> BackendSpec {
        if let BackendSpec::Subprocess { max_restarts, .. } = &mut self {
            *max_restarts = new_max;
        }
        self
    }

    /// Stable tag for cache keys and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            BackendSpec::InProcess => "in-process",
            BackendSpec::Subprocess { .. } => "subprocess",
        }
    }
}
