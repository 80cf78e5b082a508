//! Durable write-ahead logging for the serving layer.
//!
//! Bundles (`persist::save_bundle`) give cold-start persistence, but a
//! serving process dies with every `insert`/`remove` applied since the
//! bundle was written. This module closes that gap: the server appends
//! each accepted update line to an append-only log *before* applying it
//! to the session, and recovery replays the log over the reloaded
//! bundle — the recovered session is byte-identical to one that never
//! crashed, because replay runs the exact same `apply_item` path the
//! live server runs.
//!
//! ## Format
//!
//! Little-endian throughout:
//!
//! ```text
//! magic    8 bytes  "KTGWAL__"
//! version  u32      currently 1
//! base_seq u64      seq already folded into the bundle (0 for a fresh log)
//! records, each:
//!   len      u32    payload byte length (8 ≤ len ≤ MAX_PAYLOAD)
//!   payload  seq u64, then the raw update line bytes (UTF-8)
//!   checksum u64    FNV-1a over the payload
//! ```
//!
//! Sequence numbers are strictly consecutive: record `i` carries
//! `base_seq + i + 1`, and replay rejects any gap or repeat. The
//! checksum is FNV-1a (not the Fx hash the bundle envelope uses): one
//! multiply per byte, order-sensitive, and independent of the hasher
//! family used for in-memory maps, so a WAL checksum bug can never be
//! masked by — or mask — a bundle checksum bug.
//!
//! ## The torn-tail rule
//!
//! A crash while appending leaves a *prefix* of the record on disk
//! (appends go through one `write_all`; the kernel persists some prefix
//! of it). Replay therefore distinguishes exactly two failure shapes:
//!
//! * **Torn tail** — the final record's bytes run out before its
//!   declared end (or the file ends inside the header). This is the
//!   crash signature; replay drops that one partial record, reports
//!   `torn_tail = true`, and [`WalWriter::open`] truncates the file
//!   back to the last whole record so appending can resume.
//! * **Mid-log corruption** — a record that is *fully present* but
//!   wrong: checksum mismatch, impossible length, a sequence gap, or
//!   invalid UTF-8. No crash produces these (a prefix of a valid record
//!   never has a complete-but-wrong body), so they are storage-level
//!   damage and replay returns a typed [`KtgError`] — never a panic,
//!   and never a silent truncation that would rewrite history.
//!
//! ## Checkpointing
//!
//! The log stays bounded by checkpointing: the server rewrites the
//! bundle (temp file + atomic rename) from the live session, then calls
//! [`WalWriter::truncate`], which resets the log to an empty record set
//! with `base_seq` advanced to the current sequence. A crash *between*
//! the rename and the truncate is benign: replaying the whole old log
//! onto the post-log state is a fixpoint (each update line sets the
//! presence of one specific edge, so the final state after replay
//! equals the state the checkpoint captured). The reverse order must
//! never reach the disk: a durable truncate with a lost rename would
//! bring the old bundle back with an empty log. The checkpoint therefore
//! syncs the bundle's directory ([`sync_parent_dir`]) between the rename
//! and the truncate, and [`WalWriter::create`] syncs the log's directory
//! so a new log's directory entry is durable too.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use ktg_common::fault::{self, FaultSite};
use ktg_common::{KtgError, Result};

const MAGIC: &[u8; 8] = b"KTGWAL__";
const VERSION: u32 = 1;
/// Header bytes: magic + version + base_seq.
const HEADER_LEN: usize = 8 + 4 + 8;
/// Payload cap: the 8-byte seq plus one workload line (the serving
/// protocol caps lines at 4096 bytes; the slack keeps the two caps
/// decoupled).
const MAX_PAYLOAD: usize = 8 + 4096 + 64;
/// Under [`WalSync::Batch`], fsync once per this many appends (and on
/// [`WalWriter::sync`] / [`WalWriter::truncate`]).
const BATCH_SYNC_EVERY: u32 = 64;

/// FNV-1a over `bytes` (64-bit offset basis / prime).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// `fsync` after every append: an acknowledged update is durable
    /// before it is applied (the strongest guarantee, one sync per
    /// update).
    #[default]
    Always,
    /// `fsync` every [`BATCH_SYNC_EVERY`] appends and at sync points
    /// (drain, shutdown, checkpoint). A crash can lose the unsynced
    /// tail; the torn-tail rule makes that loss a clean truncation, not
    /// corruption.
    Batch,
}

impl WalSync {
    /// Parses a `--wal-sync` flag value.
    pub fn parse(value: &str) -> Result<Self> {
        match value {
            "always" => Ok(WalSync::Always),
            "batch" => Ok(WalSync::Batch),
            other => Err(KtgError::input(format!(
                "unknown --wal-sync policy `{other}` (expected always|batch)"
            ))),
        }
    }

    /// Flag-facing name.
    pub fn name(self) -> &'static str {
        match self {
            WalSync::Always => "always",
            WalSync::Batch => "batch",
        }
    }
}

/// One replayed log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's sequence number (`base_seq + position + 1`).
    pub seq: u64,
    /// The raw update line as the server accepted it.
    pub line: String,
}

/// The result of reading a log back: every whole record, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// `base_seq` from the header: the sequence already folded into the
    /// bundle this log extends.
    pub base_seq: u64,
    /// Whole records after the base, in append order.
    pub records: Vec<WalRecord>,
    /// Whether a torn tail record (or torn header) was dropped.
    pub torn_tail: bool,
    /// Byte length of the valid prefix (header + whole records); the
    /// length [`WalWriter::open`] truncates the file to.
    valid_len: u64,
}

impl WalReplay {
    /// An empty log (no file yet).
    fn empty() -> Self {
        WalReplay { base_seq: 0, records: Vec::new(), torn_tail: false, valid_len: 0 }
    }

    /// The sequence number of the last durable update (base if none).
    pub fn last_seq(&self) -> u64 {
        self.base_seq + self.records.len() as u64
    }
}

/// Reads `path` back under the torn-tail rule. A missing file is an
/// empty log (the server may be starting with a `--wal` path that does
/// not exist yet).
///
/// # Errors
/// Mid-log corruption (checksum mismatch, impossible length, sequence
/// gap, invalid UTF-8, bad magic/version) returns a typed
/// [`KtgError`]; I/O failures propagate as [`KtgError::Io`].
pub fn replay(path: &Path) -> Result<WalReplay> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::empty()),
        Err(e) => return Err(e.into()),
    }
    replay_bytes(&buf)
}

fn replay_bytes(buf: &[u8]) -> Result<WalReplay> {
    if buf.is_empty() {
        return Ok(WalReplay::empty());
    }
    if buf.len() < HEADER_LEN {
        // The creating process died inside the header write: nothing
        // was ever logged, so dropping the partial header loses nothing.
        return Ok(WalReplay { torn_tail: true, ..WalReplay::empty() });
    }
    if &buf[..8] != MAGIC {
        return Err(KtgError::input("not a KTG write-ahead log (bad magic)"));
    }
    let version = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if version != VERSION {
        return Err(KtgError::input(format!(
            "unsupported WAL version {version} (expected {VERSION})"
        )));
    }
    let mut seq_bytes = [0u8; 8];
    seq_bytes.copy_from_slice(&buf[12..HEADER_LEN]);
    let base_seq = u64::from_le_bytes(seq_bytes);

    let mut records = Vec::new();
    let mut off = HEADER_LEN;
    let mut torn_tail = false;
    while off < buf.len() {
        let remaining = buf.len() - off;
        if remaining < 4 {
            torn_tail = true;
            break;
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&buf[off..off + 4]);
        let len = u32::from_le_bytes(len_bytes) as usize;
        // A crash leaves a *prefix*, and a prefix of ≥ 4 bytes carries
        // the true length — so an impossible length is corruption, not
        // a torn write.
        if !(8..=MAX_PAYLOAD).contains(&len) {
            return Err(KtgError::input(format!(
                "corrupt WAL record at byte {off}: impossible payload length {len}"
            )));
        }
        if remaining < 4 + len + 8 {
            torn_tail = true;
            break;
        }
        let payload = &buf[off + 4..off + 4 + len];
        let mut ck_bytes = [0u8; 8];
        ck_bytes.copy_from_slice(&buf[off + 4 + len..off + 4 + len + 8]);
        let stored = u64::from_le_bytes(ck_bytes);
        if fnv1a(payload) != stored {
            return Err(KtgError::input(format!(
                "corrupt WAL record at byte {off}: checksum mismatch"
            )));
        }
        let mut rec_seq_bytes = [0u8; 8];
        rec_seq_bytes.copy_from_slice(&payload[..8]);
        let seq = u64::from_le_bytes(rec_seq_bytes);
        let expected = base_seq + records.len() as u64 + 1;
        if seq != expected {
            return Err(KtgError::input(format!(
                "corrupt WAL record at byte {off}: sequence {seq} (expected {expected})"
            )));
        }
        let line = String::from_utf8(payload[8..].to_vec()).map_err(|_| {
            KtgError::input(format!("corrupt WAL record at byte {off}: invalid UTF-8"))
        })?;
        records.push(WalRecord { seq, line });
        off += 4 + len + 8;
    }
    let valid_len = off as u64;
    Ok(WalReplay {
        base_seq,
        records,
        torn_tail,
        valid_len: if torn_tail && valid_len < HEADER_LEN as u64 { 0 } else { valid_len },
    })
}

/// The append half: an open log file positioned at its valid end.
pub struct WalWriter {
    file: File,
    /// Sequence of the last appended (or replayed) record.
    seq: u64,
    sync: WalSync,
    unsynced: u32,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` with the given base
    /// sequence, writing and syncing the header.
    pub fn create(path: &Path, base_seq: u64, sync: WalSync) -> Result<Self> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        write_header(&mut file, base_seq)?;
        file.sync_data()?;
        sync_parent_dir(path)?;
        Ok(WalWriter { file, seq: base_seq, sync, unsynced: 0 })
    }

    /// Opens `path` for appending: replays it (torn-tail rule), chops a
    /// torn tail off the file, and positions at the valid end. Returns
    /// the replay so the caller can re-apply the surviving records. A
    /// missing or header-torn file is recreated empty with base 0.
    pub fn open(path: &Path, sync: WalSync) -> Result<(Self, WalReplay)> {
        let rep = replay(path)?;
        if rep.valid_len < HEADER_LEN as u64 {
            let writer = WalWriter::create(path, rep.base_seq, sync)?;
            return Ok((writer, rep));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(rep.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        if rep.torn_tail {
            // Make the truncation itself durable before new appends.
            file.sync_data()?;
        }
        Ok((WalWriter { file, seq: rep.last_seq(), sync, unsynced: 0 }, rep))
    }

    /// The sequence number of the last appended record.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Appends one update line, returning its sequence number. Under
    /// [`WalSync::Always`] the record is durable on return; under
    /// [`WalSync::Batch`] it is durable within [`BATCH_SYNC_EVERY`]
    /// appends or the next explicit [`WalWriter::sync`].
    pub fn append(&mut self, line: &str) -> Result<u64> {
        fault::inject(FaultSite::WalAppend);
        let seq = self.seq + 1;
        let payload_len = 8 + line.len();
        if payload_len > MAX_PAYLOAD {
            return Err(KtgError::input(format!(
                "WAL record too large: {payload_len} bytes (cap {MAX_PAYLOAD})"
            )));
        }
        let mut rec = Vec::with_capacity(4 + payload_len + 8);
        rec.extend_from_slice(&(payload_len as u32).to_le_bytes());
        rec.extend_from_slice(&seq.to_le_bytes());
        rec.extend_from_slice(line.as_bytes());
        let checksum = fnv1a(&rec[4..]);
        rec.extend_from_slice(&checksum.to_le_bytes());
        self.file.write_all(&rec)?;
        self.seq = seq;
        match self.sync {
            WalSync::Always => self.file.sync_data()?,
            WalSync::Batch => {
                self.unsynced += 1;
                if self.unsynced >= BATCH_SYNC_EVERY {
                    self.sync()?;
                }
            }
        }
        Ok(seq)
    }

    /// Forces everything appended so far to disk.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Empties the log after a checkpoint: the record set resets and
    /// `base_seq` advances to the current sequence, so numbering stays
    /// monotonic across checkpoints. Durable on return.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        write_header(&mut self.file, self.seq)?;
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// Fsyncs the directory holding `path`, making a create or rename of
/// `path` durable (a file's own sync does not cover its directory
/// entry). A bare file name syncs the current directory.
pub fn sync_parent_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

fn write_header(file: &mut File, base_seq: u64) -> Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..].copy_from_slice(&base_seq.to_le_bytes());
    file.write_all(&header)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ktg-wal-{name}-{}", std::process::id()));
        p
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn lines(rep: &WalReplay) -> Vec<&str> {
        rep.records.iter().map(|r| r.line.as_str()).collect()
    }

    #[test]
    fn roundtrip_preserves_lines_and_seqs() {
        let path = temp_path("roundtrip");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        assert_eq!(w.append("insert 0 5").unwrap(), 1);
        assert_eq!(w.append("remove 0 5").unwrap(), 2);
        assert_eq!(w.append("insert 2 7").unwrap(), 3);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn_tail);
        assert_eq!(rep.base_seq, 0);
        assert_eq!(lines(&rep), ["insert 0 5", "remove 0 5", "insert 2 7"]);
        assert_eq!(rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(rep.last_seq(), 3);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = temp_path("missing");
        let rep = replay(&path).unwrap();
        assert_eq!(rep, WalReplay::empty());
    }

    #[test]
    fn every_byte_truncation_of_the_tail_record_is_torn_not_fatal() {
        let path = temp_path("torn");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        w.append("insert 0 5").unwrap();
        let full_one = std::fs::read(&path).unwrap();
        w.append("remove 0 5").unwrap();
        let full_two = std::fs::read(&path).unwrap();
        // Chop the second record at every possible crash point: replay
        // must keep record one, drop the tail, and flag it torn.
        for cut in full_one.len() + 1..full_two.len() {
            let rep = replay_bytes(&full_two[..cut]).unwrap();
            assert!(rep.torn_tail, "cut at {cut} must be torn");
            assert_eq!(lines(&rep), ["insert 0 5"], "cut at {cut}");
            assert_eq!(rep.valid_len, full_one.len() as u64, "cut at {cut}");
        }
        // Chopping inside the *first* record leaves zero records.
        for cut in HEADER_LEN + 1..full_one.len() {
            let rep = replay_bytes(&full_two[..cut]).unwrap();
            assert!(rep.torn_tail, "cut at {cut} must be torn");
            assert!(rep.records.is_empty(), "cut at {cut}");
        }
        // And inside the header: empty log, nothing lost.
        for cut in [0usize, 1, HEADER_LEN - 1] {
            let rep = replay_bytes(&full_two[..cut]).unwrap();
            assert!(rep.records.is_empty());
            assert_eq!(rep.torn_tail, cut > 0);
        }
    }

    #[test]
    fn open_truncates_torn_tail_and_resumes_numbering() {
        let path = temp_path("resume");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        w.append("insert 0 5").unwrap();
        w.append("remove 0 5").unwrap();
        drop(w);
        // Simulate a crash mid-append: lop 5 bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut w, rep) = WalWriter::open(&path, WalSync::Always).unwrap();
        assert!(rep.torn_tail);
        assert_eq!(lines(&rep), ["insert 0 5"]);
        assert_eq!(w.seq(), 1, "numbering resumes after the survivor");
        w.append("insert 2 7").unwrap();
        let rep = replay(&path).unwrap();
        assert!(!rep.torn_tail, "open() chopped the torn bytes off the file");
        assert_eq!(lines(&rep), ["insert 0 5", "insert 2 7"]);
        assert_eq!(rep.records[1].seq, 2);
    }

    #[test]
    fn mid_log_bitflip_is_a_typed_error_never_a_panic() {
        let path = temp_path("bitflip");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        w.append("insert 0 5").unwrap();
        w.append("remove 0 5").unwrap();
        w.append("insert 2 7").unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit in every byte of the first record's payload and
        // checksum: all must be detected as corruption (the record is
        // fully present, so the torn-tail rule does not apply).
        for pos in HEADER_LEN + 4..HEADER_LEN + 4 + 18 + 8 {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            let err = replay_bytes(&bad).expect_err("bitflip must be detected");
            assert!(err.to_string().contains("corrupt WAL record"), "pos {pos}: {err}");
        }
    }

    #[test]
    fn impossible_length_and_sequence_gap_are_corruption() {
        let path = temp_path("len");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        w.append("insert 0 5").unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Length below the seq-word minimum.
        let mut bad = clean.clone();
        bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&3u32.to_le_bytes());
        assert!(replay_bytes(&bad).is_err());
        // Length far past the cap, with plenty of bytes behind it.
        let mut bad = clean.clone();
        bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        bad.extend_from_slice(&vec![0u8; MAX_PAYLOAD + 64]);
        assert!(replay_bytes(&bad).is_err());
        // A sequence gap: record claims seq 2 where 1 is expected.
        let mut bad = clean.clone();
        bad[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&2u64.to_le_bytes());
        let payload_len = u32::from_le_bytes([
            clean[HEADER_LEN],
            clean[HEADER_LEN + 1],
            clean[HEADER_LEN + 2],
            clean[HEADER_LEN + 3],
        ]) as usize;
        let ck = fnv1a(&bad[HEADER_LEN + 4..HEADER_LEN + 4 + payload_len]);
        let ck_at = HEADER_LEN + 4 + payload_len;
        bad[ck_at..ck_at + 8].copy_from_slice(&ck.to_le_bytes());
        let err = replay_bytes(&bad).expect_err("sequence gap must be detected");
        assert!(err.to_string().contains("sequence"), "{err}");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[..8].copy_from_slice(b"NOTAWAL_");
        assert!(replay_bytes(&bytes).is_err());
        bytes[..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(replay_bytes(&bytes).is_err());
    }

    #[test]
    fn sync_parent_dir_syncs_existing_and_rejects_missing_directories() {
        sync_parent_dir(&temp_path("any-file")).unwrap();
        sync_parent_dir(Path::new("relative-name")).unwrap();
        let mut missing = temp_path("no-such-dir");
        missing.push("log.wal");
        let err = sync_parent_dir(&missing).unwrap_err();
        assert!(matches!(err, KtgError::Io(_)), "{err:?}");
    }

    #[test]
    fn truncate_advances_base_and_keeps_numbering_monotonic() {
        let path = temp_path("truncate");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 0, WalSync::Batch).unwrap();
        w.append("insert 0 5").unwrap();
        w.append("remove 0 5").unwrap();
        w.truncate().unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.base_seq, 2);
        assert!(rep.records.is_empty());
        assert_eq!(w.append("insert 2 7").unwrap(), 3, "numbering continues");
        let rep = replay(&path).unwrap();
        assert_eq!(lines(&rep), ["insert 2 7"]);
        assert_eq!(rep.records[0].seq, 3);
        assert_eq!(rep.last_seq(), 3);
    }

    #[test]
    fn oversized_line_is_rejected_before_touching_the_file() {
        let path = temp_path("oversize");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        let huge = "x".repeat(MAX_PAYLOAD);
        assert!(w.append(&huge).is_err());
        assert_eq!(w.seq(), 0, "failed append must not consume a sequence number");
        assert!(replay(&path).unwrap().records.is_empty());
    }

    #[test]
    fn nonzero_base_seq_roundtrips() {
        let path = temp_path("base");
        let _c = Cleanup(path.clone());
        let mut w = WalWriter::create(&path, 41, WalSync::Always).unwrap();
        assert_eq!(w.append("insert 1 2").unwrap(), 42);
        drop(w);
        let (w, rep) = WalWriter::open(&path, WalSync::Always).unwrap();
        assert_eq!(rep.base_seq, 41);
        assert_eq!(rep.records[0].seq, 42);
        assert_eq!(w.seq(), 42);
    }
}
