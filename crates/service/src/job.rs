//! Durable per-job state.
//!
//! Each admitted job owns one directory:
//!
//! ```text
//! <root>/jobs/<id>/
//!     job.gfpj      meta record (phase, budgets, source) — atomic
//!     ckpt/         supervisor checkpoint ring (gfp-store snapshots)
//!     report.json   per-solve SolveReport (scoped, not GFP_REPORT)
//!     result.gfpr   final JobResult record, once done
//! ```
//!
//! Meta and result files are `gfp-store` records (magic + version +
//! kind + length + CRC) whose payloads are written with the store's
//! codec, and they go to disk through the store's one durable write,
//! `gfp_store::write_atomic` (temp file → `sync_all` → atomic rename).
//! After a `SIGKILL` at any instant each file is either the old
//! complete record, the new complete record, or a stray `.tmp` that
//! the startup scan ignores — the invariant the crash-resume test
//! leans on. A record of another format version fails to load, so
//! the startup scan sweeps job directories written by an older build,
//! as it sweeps corrupt ones.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gfp_store::{decode_record, encode_record, write_atomic, Decoder, Encoder};

use crate::protocol::{
    decode_body, decode_phase, decode_result, decode_submit, encode_result, encode_submit, Field,
    JobPhase, JobResult, SubmitRequest, WireError,
};

/// Format version of the `job.gfpj` meta record.
pub const META_VERSION: u16 = 2;
/// Format version of the `result.gfpr` record.
pub const RESULT_VERSION: u16 = 2;

/// Meta file name inside a job directory.
pub const META_FILE: &str = "job.gfpj";
/// Result file name inside a job directory.
pub const RESULT_FILE: &str = "result.gfpr";
/// Checkpoint ring subdirectory inside a job directory.
pub const CKPT_DIR: &str = "ckpt";
/// Per-solve report file inside a job directory.
pub const REPORT_FILE: &str = "report.json";

/// FNV-1a 64-bit — the job content hash. Covers the source kind, the
/// source text and the solve budgets (`max_iter`, `max_rounds`), as
/// codec bytes, but **not** the deadline: a certified cached result
/// satisfies any deadline, so two submissions differing only in
/// `deadline_ms` share a cache slot.
pub fn content_hash(req: &SubmitRequest) -> u64 {
    let mut e = Encoder::new();
    e.put_u8(req.source.code());
    e.put_str(req.source.content());
    e.put_u32(req.max_iter);
    e.put_u32(req.max_rounds);
    e.into_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The durable job record. This is what survives a `SIGKILL`: enough
/// to re-enqueue the job on restart and re-derive the identical solve
/// (source + budgets), plus bookkeeping the status endpoint reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMeta {
    /// Job id (also the directory name).
    pub id: u64,
    /// Content hash (cache key).
    pub hash: u64,
    /// Lifecycle phase at the last persist.
    pub phase: JobPhase,
    /// Solve attempts started.
    pub attempts: u32,
    /// Submission (source + budgets).
    pub request: SubmitRequest,
}

impl JobMeta {
    /// Fresh meta for a newly admitted job.
    pub fn new(id: u64, request: SubmitRequest) -> Self {
        let hash = content_hash(&request);
        JobMeta { id, hash, phase: JobPhase::Queued, attempts: 0, request }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.id);
        e.put_u64(self.hash);
        e.put_u8(self.phase as u8);
        e.put_u32(self.attempts);
        encode_submit(&mut e, &self.request);
        e.into_bytes()
    }

    fn decode_payload(d: &mut Decoder<'_>) -> Result<JobMeta, WireError> {
        Ok(JobMeta {
            id: d.u64().field("job id")?,
            hash: d.u64().field("content hash")?,
            phase: decode_phase(d)?,
            attempts: d.u32().field("attempts")?,
            request: decode_submit(d)?,
        })
    }

    /// Atomically persists the meta record into `dir/job.gfpj`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        write_atomic(&dir.join(META_FILE), &encode_record(META_VERSION, &self.encode_payload()))
    }

    /// Loads a meta record from `dir/job.gfpj`. `Ok(None)` when the
    /// file does not exist; corrupt records are an error (the startup
    /// scan skips such directories rather than guessing).
    pub fn load(dir: &Path) -> io::Result<Option<JobMeta>> {
        load_record(&dir.join(META_FILE), META_VERSION, JobMeta::decode_payload)
    }
}

/// Atomically persists a finished job's result into
/// `dir/result.gfpr`.
pub fn save_result(dir: &Path, result: &JobResult) -> io::Result<()> {
    let mut e = Encoder::new();
    encode_result(&mut e, result);
    write_atomic(&dir.join(RESULT_FILE), &encode_record(RESULT_VERSION, &e.into_bytes()))
}

/// Loads a result record from `dir/result.gfpr`. `Ok(None)` when the
/// file does not exist.
pub fn load_result(dir: &Path) -> io::Result<Option<JobResult>> {
    load_record(&dir.join(RESULT_FILE), RESULT_VERSION, decode_result)
}

/// Reads the record at `path` and decodes its whole payload with
/// `decode`. `Ok(None)` when the file does not exist; a bad envelope,
/// another format version or a malformed payload is `InvalidData`.
fn load_record<T>(
    path: &Path,
    version: u16,
    decode: impl FnOnce(&mut Decoder<'_>) -> Result<T, WireError>,
) -> io::Result<Option<T>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let (found, payload) = decode_record(&bytes).map_err(|e| invalid(e.to_string()))?;
    if found != version {
        return Err(invalid(format!(
            "{}: format version {found} (expected {version})",
            path.display()
        )));
    }
    decode_body(payload, decode).map(Some).map_err(|e| invalid(e.to_string()))
}

/// The job directory for `id` under `root`.
pub fn job_dir(root: &Path, id: u64) -> PathBuf {
    root.join("jobs").join(format!("{id:010}"))
}

/// The checkpoint ring directory inside a job directory.
pub fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join(CKPT_DIR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobSource;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gfp-job-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_request() -> SubmitRequest {
        SubmitRequest {
            source: JobSource::Suite("n10".into()),
            deadline_ms: 500,
            max_iter: 3,
            max_rounds: 2,
        }
    }

    #[test]
    fn meta_roundtrips_through_disk() {
        let dir = temp_dir("meta");
        let mut meta = JobMeta::new(7, sample_request());
        meta.phase = JobPhase::Running;
        meta.attempts = 2;
        meta.save(&dir).unwrap();
        assert_eq!(JobMeta::load(&dir).unwrap(), Some(meta));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_load_missing_is_none_and_corrupt_is_error() {
        let dir = temp_dir("meta-bad");
        assert_eq!(JobMeta::load(&dir).unwrap(), None);
        fs::write(dir.join(META_FILE), b"definitely not a record").unwrap();
        assert!(JobMeta::load(&dir).is_err());
        // A well-formed envelope (valid CRC) around a meta payload with
        // one trailing byte is still rejected.
        let mut payload = JobMeta::new(7, sample_request()).encode_payload();
        payload.push(0);
        fs::write(dir.join(META_FILE), encode_record(META_VERSION, &payload)).unwrap();
        assert!(JobMeta::load(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_roundtrips_through_disk() {
        let dir = temp_dir("result");
        let result = JobResult {
            job: 3,
            quality: "certified".into(),
            degraded: false,
            attempts: 1,
            cache_hit: false,
            objective_bits: 0xDEAD_BEEF,
            iterations: 12,
            rounds: 2,
            positions_bits: vec![(1, 2), (3, 4)],
        };
        assert_eq!(load_result(&dir).unwrap(), None);
        save_result(&dir, &result).unwrap();
        assert_eq!(load_result(&dir).unwrap(), Some(result));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hash_ignores_deadline_but_not_budgets() {
        let a = sample_request();
        let mut b = a.clone();
        b.deadline_ms = 9999;
        assert_eq!(content_hash(&a), content_hash(&b));
        let mut c = a.clone();
        c.max_iter = 4;
        assert_ne!(content_hash(&a), content_hash(&c));
        let mut d = a.clone();
        d.source = JobSource::Yal("n10".into());
        assert_ne!(content_hash(&a), content_hash(&d));
    }
}
