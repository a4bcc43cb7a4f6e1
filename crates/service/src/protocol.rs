//! The `gfpw` length-prefixed wire protocol.
//!
//! Every message travels as one self-delimiting **frame**: the
//! `gfp-store` record envelope (see `gfp_store::Header`) with magic
//! `b"GFPW"`, format version [`VERSION`] and the message type tag in
//! the `kind` field:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GFPW"
//! 4       2     protocol version
//! 6       2     message type tag (the envelope's kind)
//! 8       8     payload length in bytes (little-endian)
//! 16      4     CRC-32 (IEEE) of the payload
//! 20      n     payload
//! ```
//!
//! A reader can always decide "frame or garbage" from the first 20
//! bytes, and a torn TCP stream is detected as a typed error rather
//! than a hang or a misparse. Message bodies are written and read
//! with `gfp_store`'s [`Encoder`]/[`Decoder`]; this module owns only
//! the tags, the payload cap, the bodies and the mapping into
//! [`WireError`].
//!
//! # Decoder contract
//!
//! **Malformed bytes never panic.** Every decode path returns a
//! [`WireError`] carrying the *byte offset* at which decoding failed,
//! so a fuzzer (or an operator reading a log line) can point at the
//! exact spot in a captured frame. This is the same contract the
//! netlist parsers pin with their torture suite; the wire decoder has
//! its own (`tests/protocol_torture.rs`).
//!
//! Payload lengths are capped at [`MAX_PAYLOAD`] before any
//! allocation, so a hostile length field cannot OOM the daemon.

use std::fmt;
use std::io::{self, Read, Write};

use gfp_store::{encode_envelope, DecodeError, Decoder, Encoder, Header, RecordError};

pub use gfp_store::HEADER_LEN;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"GFPW";

/// Protocol version spoken by this build.
pub const VERSION: u16 = 2;

/// Hard cap on payload size (16 MiB): larger length fields are
/// rejected before allocating. Netlists of every suite size fit with
/// orders of magnitude to spare.
pub const MAX_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Typed decode failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Bytes present.
        have: usize,
    },
    /// The magic bytes are wrong.
    BadMagic {
        /// Offset of the first mismatching byte (0..4).
        offset: usize,
    },
    /// Unsupported protocol version.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// Unknown message type tag.
    UnknownType {
        /// Tag found in the header.
        found: u16,
    },
    /// Length field exceeds [`MAX_PAYLOAD`].
    Oversize {
        /// Length claimed by the header.
        len: u64,
    },
    /// Header length disagrees with the bytes present (torn frame).
    Truncated {
        /// Payload bytes claimed by the header.
        expected: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// Payload checksum mismatch (corruption in flight).
    CrcMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload as received.
        actual: u32,
    },
    /// The payload body failed to decode.
    Payload {
        /// Byte offset *within the payload* where decoding failed.
        offset: usize,
        /// What was expected there.
        reason: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort { have } => {
                write!(f, "frame too short: {have} bytes < {HEADER_LEN}-byte header")
            }
            WireError::BadMagic { offset } => {
                write!(f, "bad magic at byte {offset} (not a GFPW frame)")
            }
            WireError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (expected {VERSION})")
            }
            WireError::UnknownType { found } => write!(f, "unknown message type {found:#06x}"),
            WireError::Oversize { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Truncated { expected, actual } => {
                write!(f, "torn frame: header claims {expected} payload bytes, found {actual}")
            }
            WireError::CrcMismatch { expected, actual } => {
                write!(f, "payload CRC mismatch: header {expected:#010x}, got {actual:#010x}")
            }
            WireError::Payload { offset, reason } => {
                write!(f, "bad payload at byte {offset}: expected {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<RecordError> for WireError {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::TooShort { len } => WireError::TooShort { have: len },
            RecordError::BadMagic { offset } => WireError::BadMagic { offset },
            RecordError::BadKind { kind } => WireError::UnknownType { found: kind },
            RecordError::LengthMismatch { expected, actual } => {
                WireError::Truncated { expected, actual }
            }
            RecordError::CrcMismatch { expected, actual } => {
                WireError::CrcMismatch { expected, actual }
            }
        }
    }
}

/// Names the field a codec read was after, turning its failure into a
/// [`WireError::Payload`] at the same offset.
pub(crate) trait Field<T> {
    fn field(self, what: &'static str) -> Result<T, WireError>;
}

impl<T> Field<T> for Result<T, DecodeError> {
    fn field(self, what: &'static str) -> Result<T, WireError> {
        self.map_err(|e| WireError::Payload { offset: e.offset, reason: what })
    }
}

/// Message type tags. Requests are < 128, responses ≥ 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
enum Tag {
    Ping = 1,
    Submit = 2,
    Status = 3,
    Fetch = 4,
    Cancel = 5,
    Stats = 6,
    Shutdown = 7,
    Pong = 128,
    Submitted = 129,
    Rejected = 130,
    StatusRep = 131,
    Result = 132,
    Error = 133,
    StatsRep = 134,
    ShuttingDown = 135,
}

impl Tag {
    fn from_u16(v: u16) -> Option<Tag> {
        Some(match v {
            1 => Tag::Ping,
            2 => Tag::Submit,
            3 => Tag::Status,
            4 => Tag::Fetch,
            5 => Tag::Cancel,
            6 => Tag::Stats,
            7 => Tag::Shutdown,
            128 => Tag::Pong,
            129 => Tag::Submitted,
            130 => Tag::Rejected,
            131 => Tag::StatusRep,
            132 => Tag::Result,
            133 => Tag::Error,
            134 => Tag::StatsRep,
            135 => Tag::ShuttingDown,
            _ => return None,
        })
    }
}

/// Where a submitted job's netlist comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// A named instance of the built-in benchmark suite
    /// (`gfp_netlist::suite`), e.g. `"n10"`.
    Suite(String),
    /// Inline YAL netlist text, parsed with default [`YalOptions`]
    /// (power nets skipped).
    ///
    /// [`YalOptions`]: gfp_netlist::yal::YalOptions
    Yal(String),
}

impl JobSource {
    /// Stable label for telemetry and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSource::Suite(_) => "suite",
            JobSource::Yal(_) => "yal",
        }
    }

    /// The source content (suite name or YAL text).
    pub fn content(&self) -> &str {
        match self {
            JobSource::Suite(s) | JobSource::Yal(s) => s,
        }
    }

    /// The source kind byte of the wire and record bodies.
    pub(crate) fn code(&self) -> u8 {
        match self {
            JobSource::Suite(_) => 0,
            JobSource::Yal(_) => 1,
        }
    }
}

/// A solve submission. Budget fields of 0 mean "daemon default".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Netlist source.
    pub source: JobSource,
    /// Per-job wall deadline in milliseconds (0 = none): the solve is
    /// budgeted to this and degrades honestly when it cannot certify
    /// in time.
    pub deadline_ms: u64,
    /// `FloorplannerSettings::max_iter` override (0 = default).
    pub max_iter: u32,
    /// `FloorplannerSettings::max_alpha_rounds` override (0 = default).
    pub max_rounds: u32,
}

/// Job lifecycle phase as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued = 0,
    /// A worker is solving (or retrying) it.
    Running = 1,
    /// Finished; a result is available via Fetch.
    Done = 2,
    /// Cancelled before completion; no result.
    Cancelled = 3,
}

impl JobPhase {
    /// Stable machine-readable identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Parses the wire byte.
    pub fn from_u8(v: u8) -> Option<JobPhase> {
        Some(match v {
            0 => JobPhase::Queued,
            1 => JobPhase::Running,
            2 => JobPhase::Done,
            3 => JobPhase::Cancelled,
            _ => return None,
        })
    }
}

/// Status poll answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Solve attempts started so far (retries increment this).
    pub attempts: u32,
    /// Final quality verdict (`SolveQuality::as_str`), once done.
    pub quality: Option<String>,
    /// Whether the result came from the content-hash cache.
    pub cache_hit: bool,
}

/// A finished solve, bit-exact: positions travel as raw f64 bits so a
/// resumed-after-crash result can be compared bitwise against an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Job id.
    pub job: u64,
    /// Quality verdict (`SolveQuality::as_str`).
    pub quality: String,
    /// True when the verdict is anything below certified/recovered —
    /// the honest "this placement is usable but uncertified" flag of
    /// degraded-mode serving.
    pub degraded: bool,
    /// Solve attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Served from the content-hash cache.
    pub cache_hit: bool,
    /// Objective value, raw bits.
    pub objective_bits: u64,
    /// Total inner iterations.
    pub iterations: u64,
    /// Outer α rounds completed.
    pub rounds: u64,
    /// Module positions, raw `(x, y)` f64 bits in module order.
    pub positions_bits: Vec<(u64, u64)>,
}

/// Daemon-wide load/health numbers (for admission tuning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs waiting in the queue.
    pub queued: u32,
    /// Jobs currently being solved.
    pub running: u32,
    /// Jobs finished since startup (includes cache hits).
    pub completed: u64,
    /// Submissions rejected by admission control since startup.
    pub rejected: u64,
    /// Results served from the content-hash cache since startup.
    pub cache_hits: u64,
    /// Worker threads in the pool.
    pub workers: u32,
    /// Queue capacity.
    pub queue_cap: u32,
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a netlist for solving.
    Submit(SubmitRequest),
    /// Poll a job's lifecycle phase.
    Status {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Fetch a finished job's result.
    Fetch {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Cancel a queued (or running) job.
    Cancel {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Daemon load/health numbers.
    Stats,
    /// Graceful shutdown (drain and exit).
    Shutdown,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The job was admitted (or served instantly from cache).
    Submitted {
        /// Assigned job id.
        job: u64,
        /// True when a cached result was attached immediately; the
        /// job is already `Done`.
        cache_hit: bool,
    },
    /// Admission control rejected the submission: the queue is full.
    /// Never a silent drop — the client is told when to come back.
    Rejected {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
        /// Queue occupancy at rejection time.
        queue_len: u32,
    },
    /// Status poll answer.
    Status(JobStatus),
    /// Finished job payload.
    Result(JobResult),
    /// Typed failure (unknown job, bad netlist, wire error echo...).
    Error {
        /// Stable machine-readable code (`unknown_job`,
        /// `bad_netlist`, `not_done`, `cancelled`, `bad_frame`,
        /// `shutting_down`).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Daemon load/health numbers.
    Stats(DaemonStats),
    /// Acknowledges a graceful shutdown request.
    ShuttingDown,
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Encodes one frame: the body written by `body`, in the envelope.
fn frame(tag: Tag, body: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new();
    body(&mut e);
    encode_envelope(MAGIC, VERSION, tag as u16, &e.into_bytes())
}

/// Parses a frame header and vets what must hold before the payload
/// is trusted or allocated: magic, version, and the payload cap.
fn parse_header(bytes: &[u8]) -> Result<Header, WireError> {
    let header = Header::parse(MAGIC, bytes)?;
    if header.version != VERSION {
        return Err(WireError::BadVersion { found: header.version });
    }
    if header.len > MAX_PAYLOAD {
        return Err(WireError::Oversize { len: header.len });
    }
    Ok(header)
}

/// Validates a complete frame and returns `(type_tag, payload)`.
/// Never panics on arbitrary bytes; see [`WireError`] for what each
/// failure means.
fn open_frame(bytes: &[u8]) -> Result<(Tag, &[u8]), WireError> {
    let header = parse_header(bytes)?;
    let tag = Tag::from_u16(header.kind).ok_or(WireError::UnknownType { found: header.kind })?;
    let payload = &bytes[HEADER_LEN..];
    header.check_payload(payload)?;
    Ok((tag, payload))
}

/// Decodes a whole body with `f`, rejecting trailing bytes.
pub(crate) fn decode_body<T>(
    payload: &[u8],
    f: impl FnOnce(&mut Decoder<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut d = Decoder::new(payload);
    let value = f(&mut d)?;
    d.finish().field("end of payload (trailing bytes)")?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Message bodies
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => frame(Tag::Ping, |_| {}),
            Request::Submit(s) => frame(Tag::Submit, |e| encode_submit(e, s)),
            Request::Status { job } => frame(Tag::Status, |e| e.put_u64(*job)),
            Request::Fetch { job } => frame(Tag::Fetch, |e| e.put_u64(*job)),
            Request::Cancel { job } => frame(Tag::Cancel, |e| e.put_u64(*job)),
            Request::Stats => frame(Tag::Stats, |_| {}),
            Request::Shutdown => frame(Tag::Shutdown, |_| {}),
        }
    }

    /// Decodes a complete request frame.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let (tag, payload) = open_frame(bytes)?;
        decode_body(payload, |d| {
            Ok(match tag {
                Tag::Ping => Request::Ping,
                Tag::Submit => Request::Submit(decode_submit(d)?),
                Tag::Status => Request::Status { job: d.u64().field("job id")? },
                Tag::Fetch => Request::Fetch { job: d.u64().field("job id")? },
                Tag::Cancel => Request::Cancel { job: d.u64().field("job id")? },
                Tag::Stats => Request::Stats,
                Tag::Shutdown => Request::Shutdown,
                _ => return Err(WireError::UnknownType { found: tag as u16 }),
            })
        })
    }
}

impl Response {
    /// Encodes the response as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Pong => frame(Tag::Pong, |_| {}),
            Response::Submitted { job, cache_hit } => frame(Tag::Submitted, |e| {
                e.put_u64(*job);
                e.put_bool(*cache_hit);
            }),
            Response::Rejected { retry_after_ms, queue_len } => frame(Tag::Rejected, |e| {
                e.put_u64(*retry_after_ms);
                e.put_u32(*queue_len);
            }),
            Response::Status(s) => frame(Tag::StatusRep, |e| {
                e.put_u64(s.job);
                e.put_u8(s.phase as u8);
                e.put_u32(s.attempts);
                e.put_option(s.quality.as_ref(), |e, q| e.put_str(q));
                e.put_bool(s.cache_hit);
            }),
            Response::Result(r) => frame(Tag::Result, |e| encode_result(e, r)),
            Response::Error { code, detail } => frame(Tag::Error, |e| {
                e.put_str(code);
                e.put_str(detail);
            }),
            Response::Stats(s) => frame(Tag::StatsRep, |e| {
                e.put_u32(s.queued);
                e.put_u32(s.running);
                e.put_u64(s.completed);
                e.put_u64(s.rejected);
                e.put_u64(s.cache_hits);
                e.put_u32(s.workers);
                e.put_u32(s.queue_cap);
            }),
            Response::ShuttingDown => frame(Tag::ShuttingDown, |_| {}),
        }
    }

    /// Decodes a complete response frame.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let (tag, payload) = open_frame(bytes)?;
        decode_body(payload, |d| {
            Ok(match tag {
                Tag::Pong => Response::Pong,
                Tag::Submitted => Response::Submitted {
                    job: d.u64().field("job id")?,
                    cache_hit: d.bool().field("cache_hit flag")?,
                },
                Tag::Rejected => Response::Rejected {
                    retry_after_ms: d.u64().field("retry_after_ms")?,
                    queue_len: d.u32().field("queue_len")?,
                },
                Tag::StatusRep => Response::Status(JobStatus {
                    job: d.u64().field("job id")?,
                    phase: decode_phase(d)?,
                    attempts: d.u32().field("attempts")?,
                    quality: d.option(Decoder::str).field("quality string")?,
                    cache_hit: d.bool().field("cache_hit flag")?,
                }),
                Tag::Result => Response::Result(decode_result(d)?),
                Tag::Error => Response::Error {
                    code: d.str().field("error code string")?,
                    detail: d.str().field("error detail string")?,
                },
                Tag::StatsRep => Response::Stats(DaemonStats {
                    queued: d.u32().field("queued")?,
                    running: d.u32().field("running")?,
                    completed: d.u64().field("completed")?,
                    rejected: d.u64().field("rejected")?,
                    cache_hits: d.u64().field("cache_hits")?,
                    workers: d.u32().field("workers")?,
                    queue_cap: d.u32().field("queue_cap")?,
                }),
                Tag::ShuttingDown => Response::ShuttingDown,
                _ => return Err(WireError::UnknownType { found: tag as u16 }),
            })
        })
    }
}

/// Writes a [`SubmitRequest`] body (shared by the Submit frame and the
/// on-disk job meta record).
pub(crate) fn encode_submit(e: &mut Encoder, s: &SubmitRequest) {
    e.put_u8(s.source.code());
    e.put_str(s.source.content());
    e.put_u64(s.deadline_ms);
    e.put_u32(s.max_iter);
    e.put_u32(s.max_rounds);
}

pub(crate) fn decode_submit(d: &mut Decoder<'_>) -> Result<SubmitRequest, WireError> {
    let at = d.position();
    let kind = d.u8().field("source kind byte")?;
    let content = d.str().field("source content string")?;
    let source = match kind {
        0 => JobSource::Suite(content),
        1 => JobSource::Yal(content),
        _ => {
            return Err(WireError::Payload {
                offset: at,
                reason: "source kind 0 (suite) or 1 (yal)",
            })
        }
    };
    Ok(SubmitRequest {
        source,
        deadline_ms: d.u64().field("deadline_ms")?,
        max_iter: d.u32().field("max_iter")?,
        max_rounds: d.u32().field("max_rounds")?,
    })
}

pub(crate) fn decode_phase(d: &mut Decoder<'_>) -> Result<JobPhase, WireError> {
    let at = d.position();
    let raw = d.u8().field("job phase byte")?;
    JobPhase::from_u8(raw).ok_or(WireError::Payload { offset: at, reason: "job phase 0..=3" })
}

/// Writes a [`JobResult`] body (shared by the Result frame and the
/// on-disk result record).
pub(crate) fn encode_result(e: &mut Encoder, r: &JobResult) {
    e.put_u64(r.job);
    e.put_str(&r.quality);
    e.put_bool(r.degraded);
    e.put_u32(r.attempts);
    e.put_bool(r.cache_hit);
    e.put_u64(r.objective_bits);
    e.put_u64(r.iterations);
    e.put_u64(r.rounds);
    e.put_usize(r.positions_bits.len());
    for &(x, y) in &r.positions_bits {
        e.put_u64(x);
        e.put_u64(y);
    }
}

pub(crate) fn decode_result(d: &mut Decoder<'_>) -> Result<JobResult, WireError> {
    let job = d.u64().field("job id")?;
    let quality = d.str().field("quality string")?;
    let degraded = d.bool().field("degraded flag")?;
    let attempts = d.u32().field("attempts")?;
    let cache_hit = d.bool().field("cache_hit flag")?;
    let objective_bits = d.u64().field("objective bits")?;
    let iterations = d.u64().field("iterations")?;
    let rounds = d.u64().field("rounds")?;
    let n = d.usize().field("position count")?;
    // Reserve only what the remaining payload can hold (16 bytes per
    // position), so a hostile count cannot force a huge allocation.
    let mut positions_bits = Vec::with_capacity(n.min(d.remaining() / 16));
    for _ in 0..n {
        positions_bits
            .push((d.u64().field("position x bits")?, d.u64().field("position y bits")?));
    }
    Ok(JobResult {
        job,
        quality,
        degraded,
        attempts,
        cache_hit,
        objective_bits,
        iterations,
        rounds,
        positions_bits,
    })
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// What [`read_frame_bytes`] can fail with: transport vs. protocol.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed or closed mid-frame.
    Io(io::Error),
    /// The bytes read do not form a valid frame.
    Wire(WireError),
    /// The stream closed cleanly at a frame boundary (no bytes read).
    Eof,
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "transport: {e}"),
            FrameReadError::Wire(e) => write!(f, "protocol: {e}"),
            FrameReadError::Eof => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Reads exactly one frame off `r` and returns its raw bytes (header
/// + payload), ready for `Request::decode` / `Response::decode`.
///
/// The header is read first, the length validated against
/// [`MAX_PAYLOAD`] *before* the payload allocation, then the payload
/// read to completion. A clean EOF before any byte is
/// [`FrameReadError::Eof`]; EOF mid-frame is a [`WireError::Truncated`].
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Vec<u8>, FrameReadError> {
    let mut bytes = vec![0u8; HEADER_LEN];
    let filled = read_full(r, &mut bytes)?;
    if filled == 0 {
        return Err(FrameReadError::Eof);
    }
    let header = parse_header(&bytes[..filled]).map_err(FrameReadError::Wire)?;
    bytes.resize(HEADER_LEN + header.len as usize, 0);
    let got = read_full(r, &mut bytes[HEADER_LEN..])?;
    if got as u64 != header.len {
        return Err(FrameReadError::Wire(WireError::Truncated {
            expected: header.len,
            actual: got as u64,
        }));
    }
    Ok(bytes)
}

/// Reads until `buf` is full or the stream ends; returns the byte count.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameReadError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(filled)
}

/// Writes one already-encoded frame to `w` and flushes.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Submit(SubmitRequest {
            source: JobSource::Suite("n10".into()),
            deadline_ms: 1234,
            max_iter: 3,
            max_rounds: 2,
        }));
        roundtrip_req(Request::Submit(SubmitRequest {
            source: JobSource::Yal("MODULE a;\nENDMODULE;".into()),
            deadline_ms: 0,
            max_iter: 0,
            max_rounds: 0,
        }));
        roundtrip_req(Request::Status { job: 7 });
        roundtrip_req(Request::Fetch { job: u64::MAX });
        roundtrip_req(Request::Cancel { job: 0 });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Submitted { job: 42, cache_hit: true });
        roundtrip_resp(Response::Rejected { retry_after_ms: 250, queue_len: 8 });
        roundtrip_resp(Response::Status(JobStatus {
            job: 1,
            phase: JobPhase::Running,
            attempts: 2,
            quality: None,
            cache_hit: false,
        }));
        roundtrip_resp(Response::Status(JobStatus {
            job: 1,
            phase: JobPhase::Done,
            attempts: 1,
            quality: Some("certified".into()),
            cache_hit: true,
        }));
        roundtrip_resp(Response::Result(JobResult {
            job: 9,
            quality: "degraded".into(),
            degraded: true,
            attempts: 3,
            cache_hit: false,
            objective_bits: 0x3FF0_0000_0000_0000,
            iterations: 17,
            rounds: 2,
            positions_bits: vec![(1, 2), (u64::MAX, 0)],
        }));
        roundtrip_resp(Response::Error { code: "unknown_job".into(), detail: "job 9".into() });
        roundtrip_resp(Response::Stats(DaemonStats {
            queued: 1,
            running: 2,
            completed: 3,
            rejected: 4,
            cache_hits: 5,
            workers: 6,
            queue_cap: 7,
        }));
        roundtrip_resp(Response::ShuttingDown);
    }

    #[test]
    fn typed_errors_carry_offsets() {
        let good = Request::Status { job: 3 }.encode();

        assert_eq!(
            Request::decode(&good[..HEADER_LEN - 1]),
            Err(WireError::TooShort { have: HEADER_LEN - 1 })
        );

        let mut bad = good.clone();
        bad[2] ^= 0xFF;
        assert_eq!(Request::decode(&bad), Err(WireError::BadMagic { offset: 2 }));

        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(Request::decode(&bad), Err(WireError::BadVersion { found: 9 }));

        let mut bad = good.clone();
        bad[6] = 0x77;
        assert!(matches!(Request::decode(&bad), Err(WireError::UnknownType { found: 0x77 })));

        let mut bad = good.clone();
        let mut len = Encoder::new();
        len.put_u64(MAX_PAYLOAD + 1);
        bad[8..16].copy_from_slice(&len.into_bytes());
        assert!(matches!(Request::decode(&bad), Err(WireError::Oversize { .. })));

        assert!(matches!(
            Request::decode(&good[..good.len() - 2]),
            Err(WireError::Truncated { expected: 8, actual: 6 })
        ));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(Request::decode(&bad), Err(WireError::CrcMismatch { .. })));

        // Payload too short for the declared field: typed, with offset.
        let torn_payload = frame(Tag::Status, |e| e.put_u32(3));
        match Request::decode(&torn_payload) {
            Err(WireError::Payload { offset: 0, reason }) => assert_eq!(reason, "job id"),
            other => panic!("expected payload error, got {other:?}"),
        }

        // Trailing garbage after a valid body is rejected.
        let trailing = frame(Tag::Status, |e| {
            e.put_u64(3);
            e.put_u8(0xEE);
        });
        assert_eq!(
            Request::decode(&trailing),
            Err(WireError::Payload { offset: 8, reason: "end of payload (trailing bytes)" })
        );
    }

    #[test]
    fn stream_roundtrip_and_eof() {
        let a = Request::Ping.encode();
        let b = Request::Status { job: 5 }.encode();
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut r = &stream[..];
        assert_eq!(read_frame_bytes(&mut r).unwrap(), a);
        assert_eq!(read_frame_bytes(&mut r).unwrap(), b);
        assert!(matches!(read_frame_bytes(&mut r), Err(FrameReadError::Eof)));

        // EOF mid-frame is a typed truncation, not a hang or a panic.
        let mut torn = &b[..b.len() - 3];
        assert!(matches!(
            read_frame_bytes(&mut torn),
            Err(FrameReadError::Wire(WireError::Truncated { .. }))
        ));
        let mut torn_header = &a[..HEADER_LEN - 4];
        assert!(matches!(
            read_frame_bytes(&mut torn_header),
            Err(FrameReadError::Wire(WireError::TooShort { have: 16 }))
        ));
    }
}
