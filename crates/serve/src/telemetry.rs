//! Server-wide counters behind the `stats` op.
//!
//! Every counter is a relaxed [`AtomicU64`]: the stats snapshot is a
//! monitoring view, not a synchronization point, and the hot request
//! path pays one uncontended fetch-add per event.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::json::Json;

/// Monotonic counters covering every request the server saw.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Request lines received (every op, including malformed lines).
    pub requests: AtomicU64,
    /// Run executions performed (dedup-group leaders).
    pub runs: AtomicU64,
    /// Run requests that joined an in-flight execution instead of
    /// running themselves.
    pub joined: AtomicU64,
    /// Requests refused with 429 by admission control.
    pub rejected_overload: AtomicU64,
    /// Requests refused with 503 during graceful shutdown.
    pub rejected_shutdown: AtomicU64,
    /// Lines rejected with 400 (malformed JSON or bad fields).
    pub bad_requests: AtomicU64,
    /// Lines rejected with 413 (over the request-size cap).
    pub oversized: AtomicU64,
    /// Run requests whose compilation failed (422).
    pub compile_errors: AtomicU64,
    /// Run requests whose execution failed (500).
    pub exec_errors: AtomicU64,
}

impl ServerStats {
    /// Bump `counter` by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as ordered JSON fields.
    pub fn to_json_fields(&self) -> Vec<(String, Json)> {
        let n = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        vec![
            ("requests".into(), n(&self.requests)),
            ("runs".into(), n(&self.runs)),
            ("joined".into(), n(&self.joined)),
            ("rejected_overload".into(), n(&self.rejected_overload)),
            ("rejected_shutdown".into(), n(&self.rejected_shutdown)),
            ("bad_requests".into(), n(&self.bad_requests)),
            ("oversized".into(), n(&self.oversized)),
            ("compile_errors".into(), n(&self.compile_errors)),
            ("exec_errors".into(), n(&self.exec_errors)),
        ]
    }
}
