//! The shared record envelope, the one atomic durable write, and the
//! generation-ring snapshot store built on both.
//!
//! # Record layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  (b"GFPS" for stored records, b"GFPW" for wire frames)
//! 4       2     format version (owned by the payload producer)
//! 6       2     kind (0 for stored records; the message tag on the wire)
//! 8       8     payload length in bytes
//! 16      4     CRC-32 (IEEE) of the payload
//! 20      n     payload
//! ```
//!
//! # Durability protocol
//!
//! Each snapshot is one file `snap-<generation>.gfps` written by
//! [`write_atomic`]. The store keeps a ring of the newest `keep`
//! generations (stray temp files are cleaned on open); loads walk
//! generations newest-first and skip any file whose envelope or CRC
//! fails, so a torn or silently corrupted newest snapshot falls back
//! to the next good one.
//!
//! # Fault injection
//!
//! [`SnapshotStore::write`] polls [`Site::CheckpointWrite`] (inert
//! without the `fault-inject` feature): `Nan`/`Inf`/`Stall` fail the
//! write with an injected I/O error before anything lands on disk,
//! `BudgetExhaust` persists only a prefix of the record (torn write),
//! and `PerturbResidual` flips one payload byte after the CRC was
//! computed (silent corruption, caught by the CRC at load time).

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use gfp_fault::{FaultKind, Site};
use gfp_telemetry as telemetry;

use crate::crc32::crc32;

/// First four bytes of every stored record.
pub const MAGIC: [u8; 4] = *b"GFPS";

/// Fixed envelope size preceding the payload.
pub const HEADER_LEN: usize = 20;

const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".gfps";
const TMP_SUFFIX: &str = ".tmp";

/// Why a record failed to decode. Loads treat every variant the same
/// way (skip the file and fall back), but tests and diagnostics want
/// the distinction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Shorter than the fixed header.
    TooShort {
        /// Actual byte count.
        len: usize,
    },
    /// The first four bytes are not the expected magic.
    BadMagic {
        /// Offset of the first mismatching byte (0..4).
        offset: usize,
    },
    /// A stored record's kind field is non-zero (format from the
    /// future).
    BadKind {
        /// The kind value found.
        kind: u16,
    },
    /// Header length field disagrees with the bytes present (torn write).
    LengthMismatch {
        /// Payload length claimed by the header.
        expected: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// Payload checksum mismatch (corruption).
    CrcMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload as read.
        actual: u32,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::TooShort { len } => {
                write!(f, "record too short: {len} bytes < {HEADER_LEN}-byte header")
            }
            RecordError::BadMagic { offset } => write!(f, "bad magic at byte {offset}"),
            RecordError::BadKind { kind } => write!(f, "unsupported record kind {kind:#06x}"),
            RecordError::LengthMismatch { expected, actual } => {
                write!(f, "torn record: header claims {expected} payload bytes, found {actual}")
            }
            RecordError::CrcMismatch { expected, actual } => {
                write!(f, "CRC mismatch: header {expected:#010x}, payload {actual:#010x}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// The fixed 20-byte header in front of every payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version.
    pub version: u16,
    /// Record kind (0 for stored records, the message tag on the wire).
    pub kind: u16,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload.
    pub crc: u32,
}

impl Header {
    /// Parses the header at the start of `bytes`, checking only the
    /// magic. Version, kind and length are the caller's to vet — a
    /// stream reader checks the length against its cap here, before
    /// it allocates the payload.
    pub fn parse(magic: [u8; 4], bytes: &[u8]) -> Result<Header, RecordError> {
        if bytes.len() < HEADER_LEN {
            return Err(RecordError::TooShort { len: bytes.len() });
        }
        if let Some(offset) = (0..4).find(|&i| bytes[i] != magic[i]) {
            return Err(RecordError::BadMagic { offset });
        }
        let b = |i: usize| bytes[i];
        Ok(Header {
            version: u16::from_le_bytes([b(4), b(5)]),
            kind: u16::from_le_bytes([b(6), b(7)]),
            len: u64::from_le_bytes([b(8), b(9), b(10), b(11), b(12), b(13), b(14), b(15)]),
            crc: u32::from_le_bytes([b(16), b(17), b(18), b(19)]),
        })
    }

    /// Checks that `payload` is exactly the bytes this header
    /// describes: first its length, then its CRC.
    pub fn check_payload(&self, payload: &[u8]) -> Result<(), RecordError> {
        if self.len != payload.len() as u64 {
            return Err(RecordError::LengthMismatch {
                expected: self.len,
                actual: payload.len() as u64,
            });
        }
        let actual = crc32(payload);
        if self.crc != actual {
            return Err(RecordError::CrcMismatch { expected: self.crc, actual });
        }
        Ok(())
    }
}

/// Wraps `payload` in the envelope with the given magic, format
/// version and kind.
pub fn encode_envelope(magic: [u8; 4], version: u16, kind: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Wraps `payload` in a stored record (`GFPS`, kind 0).
pub fn encode_record(version: u16, payload: &[u8]) -> Vec<u8> {
    encode_envelope(MAGIC, version, 0, payload)
}

/// Validates a stored record and returns `(format_version, payload)`.
/// Interpreting the version is the caller's job; the store only
/// guarantees the payload bytes are exactly what was written.
pub fn decode_record(bytes: &[u8]) -> Result<(u16, &[u8]), RecordError> {
    let header = Header::parse(MAGIC, bytes)?;
    if header.kind != 0 {
        return Err(RecordError::BadKind { kind: header.kind });
    }
    let payload = &bytes[HEADER_LEN..];
    header.check_payload(payload)?;
    Ok((header.version, payload))
}

/// Durably replaces the file at `path` with `bytes`: write
/// `<path>.tmp` → `sync_all` → rename over `path` → fsync the parent
/// directory. After a crash at any instant `path` holds either the old
/// complete file or the new one; at worst a stray `.tmp` is left.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(TMP_SUFFIX);
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync can fail on
    // filesystems that reject opening directories for sync; the data
    // file is already synced, so treat that as best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A snapshot successfully loaded from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic generation number (file name ordinal).
    pub generation: u64,
    /// Format version recorded in the envelope.
    pub version: u16,
    /// The payload, bitwise as written.
    pub payload: Vec<u8>,
}

/// Store failures surfaced to callers. Write failures are expected to
/// be tolerated (a solve outlives a full disk); load failures carry
/// enough context to report why resume is impossible.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing.
        context: String,
        /// The OS error.
        source: io::Error,
    },
    /// Every generation present was torn or corrupt.
    NoUsableSnapshot {
        /// Directory scanned.
        dir: PathBuf,
        /// How many snapshot files were tried (all bad).
        tried: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "{context}: {source}"),
            StoreError::NoUsableSnapshot { dir, tried } => write!(
                f,
                "no usable snapshot in {}: all {tried} generation(s) torn or corrupt",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::NoUsableSnapshot { .. } => None,
        }
    }
}

fn io_err(context: impl Into<String>, source: io::Error) -> StoreError {
    StoreError::Io { context: context.into(), source }
}

/// Durable snapshot store over one directory: atomic writes, a
/// generation ring of the newest `keep` snapshots, CRC-checked loads
/// with fallback to older generations.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    keep: usize,
    next_gen: u64,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store at `dir`, keeping the
    /// newest `keep` generations (`keep` is clamped to ≥ 1). Stray
    /// temp files from a crashed writer are removed; the next write
    /// continues the generation sequence after the newest file
    /// present, so a resumed process never reuses a generation number.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| io_err(format!("create snapshot dir {}", dir.display()), e))?;
        let mut max_gen = None::<u64>;
        for name in file_names(&dir)? {
            if name.ends_with(TMP_SUFFIX) {
                // A writer died between create and rename; the temp
                // file was never a committed generation.
                let _ = fs::remove_file(dir.join(&name));
            } else if let Some(gen) = parse_generation(&name) {
                max_gen = max_gen.max(Some(gen));
            }
        }
        Ok(SnapshotStore { dir, keep: keep.max(1), next_gen: max_gen.map_or(0, |m| m + 1) })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed generation numbers currently on disk, ascending.
    pub fn generations(&self) -> Result<Vec<u64>, StoreError> {
        let mut gens: Vec<u64> =
            file_names(&self.dir)?.iter().filter_map(|name| parse_generation(name)).collect();
        gens.sort_unstable();
        Ok(gens)
    }

    /// Path of the committed file for `generation`.
    pub fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("{SNAP_PREFIX}{generation:010}{SNAP_SUFFIX}"))
    }

    /// Durably writes one snapshot, returning its generation number.
    ///
    /// Protocol: envelope → [`write_atomic`] → prune generations
    /// beyond the ring. A failure
    /// anywhere surfaces as `Err` (counted under `store.write_error`)
    /// and leaves previously committed generations untouched.
    pub fn write(&mut self, version: u16, payload: &[u8]) -> Result<u64, StoreError> {
        self.write_inner(version, payload).inspect_err(|_| {
            telemetry::counter_add("store.write_error", 1);
        })
    }

    fn write_inner(&mut self, version: u16, payload: &[u8]) -> Result<u64, StoreError> {
        let mut record = encode_record(version, payload);
        let mut torn = false;
        if let Some(fired) = gfp_fault::poll(Site::CheckpointWrite) {
            match fired.kind {
                FaultKind::Nan | FaultKind::Inf | FaultKind::Stall => {
                    return Err(io_err(
                        "snapshot write (injected fault)",
                        io::Error::other("injected checkpoint-write failure"),
                    ));
                }
                FaultKind::BudgetExhaust => {
                    // Torn write: only a prefix of the record survives,
                    // as if power failed on a non-atomic filesystem.
                    record.truncate(record.len() / 2);
                    torn = true;
                }
                FaultKind::PerturbResidual => {
                    // Silent corruption after the CRC was computed.
                    let idx = HEADER_LEN.min(record.len().saturating_sub(1));
                    record[idx] ^= 0x01;
                }
                _ => {}
            }
        }

        let gen = self.next_gen;
        let path = self.path_for(gen);
        write_atomic(&path, &record)
            .map_err(|e| io_err(format!("write snapshot {}", path.display()), e))?;
        self.next_gen = gen + 1;
        self.prune();

        telemetry::counter_add("store.snapshot_write", 1);
        telemetry::counter_add("store.snapshot_bytes", record.len() as u64);
        if telemetry::enabled() {
            telemetry::event(
                "store.snapshot_write",
                &[
                    ("generation", gen.into()),
                    ("bytes", (record.len() as u64).into()),
                    ("version", (version as u64).into()),
                    ("torn", u64::from(torn).into()),
                ],
            );
        }
        Ok(gen)
    }

    /// Drops committed generations beyond the newest `keep`. Pruning
    /// is best-effort: an undeletable old file never fails a write.
    fn prune(&self) {
        let Ok(gens) = self.generations() else { return };
        if gens.len() <= self.keep {
            return;
        }
        for &gen in &gens[..gens.len() - self.keep] {
            let _ = fs::remove_file(self.path_for(gen));
        }
    }

    /// Loads the newest good snapshot, walking generations descending
    /// and skipping (with a `store.corrupt_skipped` count) any file
    /// that is torn or fails its CRC.
    ///
    /// Returns `Ok(None)` when the directory holds no snapshot files
    /// at all, and `Err(NoUsableSnapshot)` when files exist but every
    /// one is bad — callers distinguish "fresh start" from "data
    /// loss".
    pub fn load_latest(&self) -> Result<Option<Snapshot>, StoreError> {
        let gens = self.generations()?;
        if gens.is_empty() {
            return Ok(None);
        }
        let mut tried = 0usize;
        for &gen in gens.iter().rev() {
            tried += 1;
            match self.load_generation(gen) {
                Ok(snap) => return Ok(Some(snap)),
                Err(reason) => {
                    telemetry::counter_add("store.corrupt_skipped", 1);
                    if telemetry::enabled() {
                        telemetry::event(
                            "store.corrupt_skipped",
                            &[
                                ("generation", gen.into()),
                                ("reason", telemetry::Value::Text(reason.to_string())),
                            ],
                        );
                    }
                }
            }
        }
        Err(StoreError::NoUsableSnapshot { dir: self.dir.clone(), tried })
    }

    /// Removes every committed snapshot and stray temp file under
    /// `dir`, then the directory itself when that leaves it empty.
    /// Returns the number of snapshot files removed; a missing
    /// directory is `Ok(0)` (garbage collection is idempotent).
    /// Foreign files are left alone and keep the directory alive.
    pub fn purge_dir(dir: impl AsRef<Path>) -> Result<usize, StoreError> {
        let dir = dir.as_ref();
        let names = match file_names(dir) {
            Err(StoreError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                return Ok(0)
            }
            names => names?,
        };
        let mut removed = 0usize;
        for name in names {
            if parse_generation(&name).is_some()
                || (name.starts_with(SNAP_PREFIX) && name.ends_with(TMP_SUFFIX))
            {
                let path = dir.join(&name);
                fs::remove_file(&path)
                    .map_err(|e| io_err(format!("remove {}", path.display()), e))?;
                removed += 1;
            }
        }
        // Best-effort: fails (and is ignored) when foreign files remain.
        let _ = fs::remove_dir(dir);
        telemetry::counter_add("store.purged", removed as u64);
        Ok(removed)
    }

    /// Reads and validates one specific generation.
    fn load_generation(&self, generation: u64) -> Result<Snapshot, Box<dyn std::error::Error>> {
        let path = self.path_for(generation);
        let bytes = fs::read(&path)?;
        let (version, payload) = decode_record(&bytes)?;
        Ok(Snapshot { generation, version, payload: payload.to_vec() })
    }
}

/// Names of the entries in `dir` (names that are not UTF-8 are skipped).
fn file_names(dir: &Path) -> Result<Vec<String>, StoreError> {
    let scan = |e: io::Error| io_err(format!("scan {}", dir.display()), e);
    let mut names = Vec::new();
    for entry in fs::read_dir(dir).map_err(scan)? {
        if let Ok(name) = entry.map_err(scan)?.file_name().into_string() {
            names.push(name);
        }
    }
    Ok(names)
}

fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix(SNAP_PREFIX)?.strip_suffix(SNAP_SUFFIX)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("gfp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn envelope_roundtrip_and_rejections() {
        let payload = b"hello snapshot".to_vec();
        let record = encode_record(3, &payload);
        assert_eq!(record.len(), HEADER_LEN + payload.len());
        let (version, decoded) = decode_record(&record).unwrap();
        assert_eq!(version, 3);
        assert_eq!(decoded, &payload[..]);

        // Too short.
        assert!(matches!(
            decode_record(&record[..HEADER_LEN - 1]),
            Err(RecordError::TooShort { .. })
        ));
        // Bad magic.
        let mut bad = record.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_record(&bad), Err(RecordError::BadMagic { offset: 0 }));
        // Non-zero kind.
        let mut bad = record.clone();
        bad[6] = 1;
        assert!(matches!(decode_record(&bad), Err(RecordError::BadKind { kind: 1 })));
        // Torn payload.
        assert!(matches!(
            decode_record(&record[..record.len() - 1]),
            Err(RecordError::LengthMismatch { .. })
        ));
        // Flipped payload byte.
        let mut bad = record.clone();
        bad[HEADER_LEN] ^= 0x10;
        assert!(matches!(decode_record(&bad), Err(RecordError::CrcMismatch { .. })));
        // Flipped header CRC byte.
        let mut bad = record;
        bad[16] ^= 0x10;
        assert!(matches!(decode_record(&bad), Err(RecordError::CrcMismatch { .. })));
    }

    #[test]
    fn write_load_ring_and_generation_continuity() {
        let dir = temp_dir("ring");
        let mut store = SnapshotStore::open(&dir, 3).unwrap();
        for i in 0..5u64 {
            let gen = store.write(1, format!("payload-{i}").as_bytes()).unwrap();
            assert_eq!(gen, i);
        }
        // Ring pruned to the newest 3.
        assert_eq!(store.generations().unwrap(), vec![2, 3, 4]);
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.generation, 4);
        assert_eq!(snap.version, 1);
        assert_eq!(snap.payload, b"payload-4");

        // Reopening continues the sequence instead of reusing gen 5.
        drop(store);
        let mut store = SnapshotStore::open(&dir, 3).unwrap();
        assert_eq!(store.write(1, b"payload-5").unwrap(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_loads_none() {
        let dir = temp_dir("empty");
        let store = SnapshotStore::open(&dir, 2).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let dir = temp_dir("fallback");
        let mut store = SnapshotStore::open(&dir, 4).unwrap();
        store.write(1, b"good-old").unwrap();
        let newest = store.write(1, b"good-new").unwrap();

        // Flip a payload byte of the newest snapshot on disk.
        let path = store.path_for(newest);
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.generation, newest - 1);
        assert_eq!(snap.payload, b"good-old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_newest_falls_back_then_all_bad_errors() {
        let dir = temp_dir("torn");
        let mut store = SnapshotStore::open(&dir, 4).unwrap();
        store.write(7, b"first").unwrap();
        let newest = store.write(7, b"second-longer-payload").unwrap();

        // Truncate the newest file mid-payload (torn write).
        let path = store.path_for(newest);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.payload, b"first");

        // Now tear the survivor too: every generation bad → error.
        let path = store.path_for(snap.generation);
        fs::write(&path, b"GF").unwrap();
        match store.load_latest() {
            Err(StoreError::NoUsableSnapshot { tried, .. }) => assert_eq!(tried, 2),
            other => panic!("expected NoUsableSnapshot, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn purge_dir_removes_snapshots_and_directory() {
        let dir = temp_dir("purge");
        let mut store = SnapshotStore::open(&dir, 3).unwrap();
        store.write(1, b"a").unwrap();
        store.write(1, b"b").unwrap();
        fs::write(dir.join("snap-0000000099.gfps.tmp"), b"stray").unwrap();
        let removed = SnapshotStore::purge_dir(&dir).unwrap();
        assert_eq!(removed, 3);
        assert!(!dir.exists(), "emptied snapshot dir should be removed");
        // Idempotent on a missing directory.
        assert_eq!(SnapshotStore::purge_dir(&dir).unwrap(), 0);
    }

    #[test]
    fn purge_dir_spares_foreign_files() {
        let dir = temp_dir("purge-foreign");
        let mut store = SnapshotStore::open(&dir, 3).unwrap();
        store.write(1, b"a").unwrap();
        fs::write(dir.join("keep.me"), b"not a snapshot").unwrap();
        assert_eq!(SnapshotStore::purge_dir(&dir).unwrap(), 1);
        assert!(dir.join("keep.me").exists());
        assert!(dir.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_cleaned_on_open() {
        let dir = temp_dir("tmpclean");
        fs::create_dir_all(&dir).unwrap();
        let stray = dir.join("snap-0000000009.gfps.tmp");
        fs::write(&stray, b"half-written").unwrap();
        let store = SnapshotStore::open(&dir, 2).unwrap();
        assert!(!stray.exists());
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_fail_tear_and_corrupt_writes() {
        // Serialize against other fault-armed tests in this binary.
        let dir = temp_dir("inject");
        let mut store = SnapshotStore::open(&dir, 8).unwrap();

        // Injected I/O failure: nothing lands on disk.
        gfp_fault::arm(gfp_fault::FaultPlan::single(
            Site::CheckpointWrite,
            FaultKind::Nan,
            0,
        ));
        assert!(store.write(1, b"lost").is_err());
        gfp_fault::disarm();
        assert!(store.generations().unwrap().is_empty());

        // Torn write: the file exists but fails validation.
        store.write(1, b"survivor-generation").unwrap();
        gfp_fault::arm(gfp_fault::FaultPlan::single(
            Site::CheckpointWrite,
            FaultKind::BudgetExhaust,
            0,
        ));
        let torn_gen = store.write(1, b"torn-payload-here").unwrap();
        gfp_fault::disarm();
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.payload, b"survivor-generation");
        assert!(snap.generation < torn_gen);

        // Silent byte flip: CRC catches it, fallback again.
        gfp_fault::arm(gfp_fault::FaultPlan::single(
            Site::CheckpointWrite,
            FaultKind::PerturbResidual,
            0,
        ));
        store.write(1, b"flipped-payload").unwrap();
        gfp_fault::disarm();
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.payload, b"survivor-generation");
        let _ = fs::remove_dir_all(&dir);
    }
}
