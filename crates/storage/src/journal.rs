//! The append-only, hash-chained catalog journal.
//!
//! One journal file (`catalog.journal`) holds a chain of
//! [`frame`]-sealed records. The first frame of a healthy
//! journal is a [`FrameKind::Snapshot`] (the compaction point); every
//! subsequent commit appends one `Upsert`/`Remove`/`Clear` frame whose
//! `prev_hash` is the [`chain_hash`](crate::frame::chain_hash) of its
//! predecessor. Commit cost is therefore O(entry), not O(catalog).
//!
//! Recovery is [`scan_bytes`]: walk frames from the front, verifying CRC
//! and chain linkage, and replay the longest valid prefix. The scan never
//! errors — a torn tail, bit rot, a chain break, or a future-format frame
//! simply *ends* the prefix, and the [`JournalScan`] reports where and
//! why ([`ScanStop`]). The writer then truncates the file back to the
//! valid prefix (or rewrites it as one fresh snapshot), so damage can
//! never accumulate ahead of the append position.
//!
//! This module is deliberately payload-agnostic: records are
//! `(FrameKind, bytes)`; the catalog owns their JSON meaning.

use crate::frame::{self, FrameError, FrameKind, GENESIS_HASH};
use helix_common::Result;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Uniquifier for compaction temp files.
static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// Why a scan stopped before the end of the file. `None` stop = the file
/// ends exactly on a frame boundary (healthy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanStop {
    /// Bytes at the stop offset do not start with the frame magic.
    NotAFrame,
    /// The final frame is torn (crash mid-append).
    Truncated,
    /// A frame from a format this build does not know.
    UnsupportedVersion(u8),
    /// CRC mismatch inside a frame (bit rot).
    Corrupt,
    /// CRC-valid frame of a kind this build does not know.
    UnknownKind(u8),
    /// A CRC-valid frame whose `prev_hash` does not match the running
    /// chain (e.g. a duplicated or spliced frame).
    ChainBreak,
}

impl ScanStop {
    fn from_frame_error(e: FrameError) -> ScanStop {
        match e {
            FrameError::NotAFrame => ScanStop::NotAFrame,
            FrameError::Truncated => ScanStop::Truncated,
            FrameError::UnsupportedVersion(v) => ScanStop::UnsupportedVersion(v),
            FrameError::Corrupt => ScanStop::Corrupt,
            FrameError::UnknownKind(k) => ScanStop::UnknownKind(k),
        }
    }
}

impl std::fmt::Display for ScanStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanStop::NotAFrame => write!(f, "not-a-frame"),
            ScanStop::Truncated => write!(f, "truncated"),
            ScanStop::UnsupportedVersion(v) => write!(f, "unsupported-version({v})"),
            ScanStop::Corrupt => write!(f, "corrupt"),
            ScanStop::UnknownKind(k) => write!(f, "unknown-kind({k:#04x})"),
            ScanStop::ChainBreak => write!(f, "chain-break"),
        }
    }
}

/// Result of scanning a journal byte stream: the replayable records of
/// the longest CRC- and chain-valid prefix, plus where and why the
/// prefix ended.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// `(kind, payload)` of every frame in the valid prefix, in order.
    pub records: Vec<(FrameKind, Vec<u8>)>,
    /// Frames in the valid prefix.
    pub frames: u64,
    /// Bytes in the valid prefix — the safe append (and truncate) point.
    pub valid_bytes: u64,
    /// End offset of each frame in the valid prefix (diagnostics and
    /// corruption tests: which commits survive a cut at byte `c` is
    /// exactly `frame_ends.iter().filter(|e| **e <= c).count()`).
    pub frame_ends: Vec<u64>,
    /// Chain hash of the last valid frame ([`GENESIS_HASH`] if none) —
    /// what the next appended frame must carry as `prev_hash`.
    pub last_hash: u128,
    /// Bytes past the valid prefix (torn tail / damage).
    pub tail_bytes: u64,
    /// Why the prefix ended, when it ended before end-of-file.
    pub stop: Option<ScanStop>,
}

/// Scan a journal byte stream. Never errors and never allocates beyond
/// the records actually verified: damage of any shape just terminates
/// the valid prefix.
pub fn scan_bytes(bytes: &[u8]) -> JournalScan {
    let mut scan = JournalScan { last_hash: GENESIS_HASH, ..JournalScan::default() };
    let mut offset = 0usize;
    while offset < bytes.len() {
        let parsed = match frame::parse_frame(&bytes[offset..]) {
            Ok(parsed) => parsed,
            Err(e) => {
                scan.stop = Some(ScanStop::from_frame_error(e));
                break;
            }
        };
        if parsed.prev_hash != scan.last_hash {
            scan.stop = Some(ScanStop::ChainBreak);
            break;
        }
        scan.last_hash = frame::chain_hash(&bytes[offset..offset + parsed.len]);
        scan.records.push((parsed.kind, parsed.payload.to_vec()));
        offset += parsed.len;
        scan.frame_ends.push(offset as u64);
    }
    scan.frames = scan.frame_ends.len() as u64;
    scan.valid_bytes = offset as u64;
    scan.tail_bytes = (bytes.len() - offset) as u64;
    scan
}

/// Scan a journal file; `Ok(None)` when the file does not exist.
pub fn scan_file(path: &Path) -> Result<Option<JournalScan>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    Ok(Some(scan_bytes(&bytes)))
}

/// Appending writer positioned at the end of a journal's valid prefix.
///
/// Appends are buffered by the OS (no fsync per frame); callers group a
/// batch of frames and then [`sync`](JournalWriter::sync) at commit
/// points. Each frame is written with one `write_all` of its sealed
/// bytes, so a crash tears at most the final frame — which the next scan
/// drops by construction.
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    last_hash: u128,
    frames: u64,
    bytes: u64,
}

impl JournalWriter {
    /// Create (or truncate to empty) a journal at `path`.
    pub fn create(path: &Path) -> Result<JournalWriter> {
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            last_hash: GENESIS_HASH,
            frames: 0,
            bytes: 0,
        })
    }

    /// Open `path` for appending after `scan`: the file is truncated back
    /// to the scan's valid prefix (dropping any torn tail so damage never
    /// sits between committed frames) and the writer resumes the chain at
    /// the scan's last hash.
    pub fn append_to(path: &Path, scan: &JournalScan) -> Result<JournalWriter> {
        // truncate(false): the valid prefix must survive the open; the
        // set_len below cuts exactly the torn tail and nothing else.
        let mut file = OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
        file.set_len(scan.valid_bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            last_hash: scan.last_hash,
            frames: scan.frames,
            bytes: scan.valid_bytes,
        })
    }

    /// Atomically replace the journal with the given records (compaction):
    /// the new chain is written to a temp file, synced, and renamed over
    /// `path`. A crash leaves either the old or the new journal, never a
    /// torn mix; an orphaned temp is swept at the next catalog open.
    pub fn rewrite<'a>(
        path: &Path,
        records: impl IntoIterator<Item = (FrameKind, &'a [u8])>,
    ) -> Result<JournalWriter> {
        let tmp =
            path.with_extension(format!("journal.tmp-{}", UNIQUE.fetch_add(1, Ordering::Relaxed)));
        let mut writer = JournalWriter::create(&tmp)?;
        for (kind, payload) in records {
            writer.append(kind, payload)?;
        }
        writer.sync()?;
        std::fs::rename(&tmp, path)?;
        writer.path = path.to_path_buf();
        Ok(writer)
    }

    /// Append one sealed frame carrying `payload`. Returns the sealed
    /// frame's length in bytes.
    pub fn append(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64> {
        let mut buf = frame::begin_frame(kind, payload.len());
        buf.extend_from_slice(payload);
        let sealed = frame::seal_frame(buf, self.last_hash);
        self.file.write_all(&sealed)?;
        self.last_hash = frame::chain_hash(&sealed);
        self.frames += 1;
        self.bytes += sealed.len() as u64;
        Ok(sealed.len() as u64)
    }

    /// Durability point: flush appended frames to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Frames in the journal (including any replayed prefix).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes in the journal.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "helix-journal-test-{}-{}-{}",
            std::process::id(),
            tag,
            UNIQUE.fetch_add(1, Ordering::Relaxed),
        ))
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(FrameKind::Snapshot, b"snap").unwrap();
        w.append(FrameKind::Upsert, b"entry-1").unwrap();
        w.append(FrameKind::Remove, b"entry-1-gone").unwrap();
        w.sync().unwrap();
        let last = w.last_hash;
        drop(w);

        let scan = scan_file(&path).unwrap().unwrap();
        assert_eq!(scan.frames, 3);
        assert_eq!(scan.stop, None);
        assert_eq!(scan.tail_bytes, 0);
        assert_eq!(scan.last_hash, last);
        let kinds: Vec<FrameKind> = scan.records.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, [FrameKind::Snapshot, FrameKind::Upsert, FrameKind::Remove]);
        assert_eq!(scan.records[1].1, b"entry-1");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_append_resumes() {
        let path = temp_path("torn");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(FrameKind::Snapshot, b"snap").unwrap();
        w.append(FrameKind::Upsert, b"committed").unwrap();
        drop(w);
        // Crash mid-append: half a frame at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let committed_len = bytes.len();
        let mut torn = frame::begin_frame(FrameKind::Upsert, 4);
        torn.extend_from_slice(b"lost");
        bytes.extend_from_slice(&frame::seal_frame(torn, 123)[..10]);
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_file(&path).unwrap().unwrap();
        assert_eq!(scan.frames, 2);
        assert_eq!(scan.valid_bytes, committed_len as u64);
        assert!(scan.tail_bytes > 0);
        // (The torn tail here is a *chain break*: the fragment's magic and
        // version parse but its hash linkage cannot match. A tail cut
        // inside the header reads as Truncated instead — either way the
        // prefix ends.)
        assert!(scan.stop.is_some());

        // Reopen for append: tail truncated, chain resumes, new frame valid.
        let mut w = JournalWriter::append_to(&path, &scan).unwrap();
        w.append(FrameKind::Upsert, b"after-recovery").unwrap();
        w.sync().unwrap();
        drop(w);
        let scan = scan_file(&path).unwrap().unwrap();
        assert_eq!(scan.frames, 3);
        assert_eq!(scan.stop, None);
        assert_eq!(scan.records[2].1, b"after-recovery");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicated_frame_is_a_chain_break() {
        let path = temp_path("dup");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(FrameKind::Snapshot, b"snap").unwrap();
        let end_of_first = w.bytes() as usize;
        w.append(FrameKind::Upsert, b"only-once").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let dup = bytes[end_of_first..].to_vec();
        bytes.extend_from_slice(&dup); // replay the second frame
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_file(&path).unwrap().unwrap();
        assert_eq!(scan.frames, 2, "duplicate must not replay twice");
        assert_eq!(scan.stop, Some(ScanStop::ChainBreak));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_replaces_atomically_and_resets_the_chain() {
        let path = temp_path("rewrite");
        let mut w = JournalWriter::create(&path).unwrap();
        for i in 0..20 {
            w.append(FrameKind::Upsert, format!("e{i}").as_bytes()).unwrap();
        }
        drop(w);
        let w = JournalWriter::rewrite(&path, [(FrameKind::Snapshot, b"compacted".as_slice())])
            .unwrap();
        assert_eq!(w.frames(), 1);
        drop(w);
        let scan = scan_file(&path).unwrap().unwrap();
        assert_eq!(scan.frames, 1);
        assert_eq!(scan.records[0], (FrameKind::Snapshot, b"compacted".to_vec()));
        // No temp residue.
        let dir = path.parent().unwrap();
        for dirent in std::fs::read_dir(dir).unwrap().flatten() {
            let name = dirent.file_name().to_string_lossy().into_owned();
            assert!(
                !(name.starts_with(path.file_name().unwrap().to_str().unwrap())
                    && name.contains(".tmp-")),
                "compaction temp survived: {name}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_scans_to_none() {
        assert!(scan_file(&temp_path("missing")).unwrap().is_none());
    }

    #[test]
    fn empty_file_is_a_healthy_empty_journal() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let scan = scan_file(&path).unwrap().unwrap();
        assert_eq!(scan.frames, 0);
        assert_eq!(scan.stop, None);
        assert_eq!(scan.last_hash, GENESIS_HASH);
        std::fs::remove_file(&path).unwrap();
    }
}
