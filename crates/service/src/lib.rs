//! `gfp-service`: a crash-tolerant multi-tenant solve daemon.
//!
//! The crate turns the library-level supervised solver
//! ([`gfp_core::supervisor`]) into a long-running service:
//!
//! * [`protocol`] — the `GFPW` length-prefixed TCP wire format
//!   (submit / status / fetch / cancel / stats / shutdown), with a
//!   panic-free decoder whose typed errors carry byte offsets. Frames
//!   are `gfp-store` record envelopes (magic `GFPW`, the message tag
//!   as kind) with `gfp_store::{Encoder, Decoder}` bodies.
//! * [`queue`] — a bounded job queue with admission control: when the
//!   queue is full the daemon answers `Rejected { retry_after_ms }`
//!   instead of accepting unbounded work or silently dropping it.
//! * [`job`] — durable per-job state under `<root>/jobs/<id>/`:
//!   a meta record, the supervisor's checkpoint ring, the solve
//!   report, and the final result record; the records are `gfp-store`
//!   records written with `gfp_store::write_atomic`.
//! * [`cache`] — a result cache keyed by a content hash of the
//!   netlist source and solve budgets; resubmitting identical work
//!   is answered from the cache without burning a worker.
//! * [`daemon`] — the accept loop, worker pool (per-job wall
//!   deadlines, bounded retry with exponential backoff, degraded-mode
//!   serving), startup crash-resume scan, and checkpoint garbage
//!   collection.
//! * [`client`] — a small blocking client used by the `gfpd` binary,
//!   the tests, and the benchmark (floorbench's `served_n10`).
//!
//! # Failure policy
//!
//! Every admitted job ends in a definitive verdict. Transient faults
//! (injected via `gfp-fault`'s service sites, or real numeric
//! breakdowns surfaced by the supervisor) are retried with
//! exponential backoff up to a bounded attempt budget; when the
//! budget is exhausted the job is served *degraded* — the best-known
//! placement with an honest quality label — never dropped. A daemon
//! killed with `SIGKILL` mid-solve resumes in-flight jobs on restart
//! from their checkpoint rings and produces bitwise-identical results
//! to an uninterrupted run (proven by `tests/service_daemon.rs` in
//! the root package).

pub mod cache;
pub mod client;
pub mod daemon;
pub mod job;
pub mod protocol;
pub mod queue;

pub use cache::ResultCache;
pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig};
pub use job::{content_hash, JobMeta};
pub use protocol::{
    DaemonStats, FrameReadError, JobPhase, JobResult, JobSource, JobStatus, Request, Response,
    SubmitRequest, WireError,
};
pub use queue::{JobQueue, Pushed};
