//! The append-only, checksummed write-ahead log.
//!
//! # Record framing
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────────┐
//! │ len: u32LE │ crc: u32LE │ payload (len bytes)  │
//! └────────────┴────────────┴──────────────────────┘
//! ```
//!
//! `crc` is CRC-32/IEEE over the payload. Records abut with no padding;
//! a record's *position* is the byte offset of its `len` field, and the
//! log's position is the offset one past the last record — the value a
//! snapshot stores as the point its state covers.
//!
//! # Crash semantics
//!
//! A crash can only leave the file with a **torn tail**: some prefix of
//! the final record missing (the kernel persists appends in order within
//! one file). [`Wal::open`] therefore scans the whole log — once: the
//! same pass that finds the clean end decodes every record and hands
//! them to the caller, so recovery never reads the file again (the
//! records borrow their texts from the log's bytes, which
//! [`Wal::open_with`] leaves with its caller) — and
//!
//! * truncates a trailing *incomplete* frame (header short, or payload
//!   shorter than `len`) — that is the expected residue of a crash, and
//!   every byte before it is a clean record;
//! * truncates a trailing all-zero header (a filesystem that extended
//!   the file but never wrote the append leaves zeros);
//! * refuses with [`StoreError::CorruptRecord`] if a frame is present
//!   *in full* but its CRC or its payload decoding fails — truncation
//!   cannot manufacture that, so the file was damaged after the fact
//!   and silently dropping the record (and everything after it) would
//!   resurrect a state the market never durably confirmed.
//!
//! # Failure domains
//!
//! Appends run on a [`Vfs`] and classify faults per the taxonomy in
//! [`crate::error`]: transient faults (`EINTR`/`EAGAIN`) retry the
//! whole frame with jittered backoff after discarding partial bytes; a
//! partial fatal write (`ENOSPC`) truncates back to the last record
//! boundary (bounded retries on the truncate itself) so the garbage
//! can never be buried mid-log; and a **failed fsync poisons the
//! handle** — per fsyncgate semantics the kernel may already have
//! dropped the dirty pages, so continuing to append would let later
//! "synced" events leapfrog an earlier acknowledged-but-lost one.
//! Poisoning guarantees the at-most-one uncertain event is always the
//! *last* one in the log, which is what keeps recovery
//! prefix-consistent.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for append latency: `Always` fsyncs
//! every append (group-commit left to the caller), `EveryN(n)` fsyncs
//! every `n` appends, `Never` leaves flushing to the OS. Whatever the
//! policy, the *framing* guarantees recovery is prefix-consistent — the
//! policy only bounds how many tail events a power loss may drop.

use crate::crc::crc32;
use crate::error::StoreError;
use crate::event::MarketEvent;
use crate::vfs::{is_transient_kind, RealFs, RetryPolicy, Vfs, VfsFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How often the log fsyncs its appends. The policy covers appends
/// only: an explicit [`Wal::sync`], and a durable market's compaction
/// (which calls it and fsyncs the snapshots it writes), fsync whatever
/// the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged mutation survives
    /// power loss.
    Always,
    /// `fsync` every `n` appends: at most `n-1` acknowledged mutations
    /// can be lost (`EveryN(0)` and `EveryN(1)` behave like `Always`).
    EveryN(u64),
    /// Never `fsync` an append; the OS flushes when it pleases. A
    /// process crash (not power loss) still loses nothing. Compaction
    /// still fsyncs (see the type's docs).
    Never,
}

/// One decoded log record with its byte extent, borrowing its texts
/// from the log's bytes for `'a`.
#[derive(Clone, Debug)]
pub struct LogRecord<'a> {
    /// Offset of the record's frame header.
    pub start: u64,
    /// Offset one past the record (= position of the next record).
    pub end: u64,
    /// The decoded event.
    pub event: MarketEvent<'a>,
}

impl LogRecord<'_> {
    /// The same record owning its texts.
    pub fn into_owned(self) -> LogRecord<'static> {
        LogRecord {
            start: self.start,
            end: self.end,
            event: self.event.into_owned(),
        }
    }
}

/// Records larger than this are rejected as corrupt rather than
/// allocated: no market event comes within orders of magnitude of it.
const MAX_RECORD: u32 = 1 << 24;

pub(crate) const HEADER: usize = 8;

/// The append handle over one log file. Opening scans and repairs the
/// torn tail; see the module docs for the exact semantics.
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    position: u64,
    policy: FsyncPolicy,
    retry: RetryPolicy,
    unsynced: u64,
    /// Why appends are refused, when they are: the clean offset plus
    /// the poisoning cause. See [`StoreError::Poisoned`].
    poisoned: Option<String>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("position", &self.position)
            .field("policy", &self.policy)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

/// Clean-shutdown flush. Under [`FsyncPolicy::EveryN`] up to `n - 1`
/// acked appends sit in the "synced by the *next* batch boundary"
/// window; without this, dropping the last handle on a graceful exit
/// silently abandoned that tail — the one failure `EveryN`'s contract
/// ("bounded loss on *power failure*", not on *clean shutdown*) does
/// not permit. [`FsyncPolicy::Never`] is deliberately excluded — that
/// policy opts appends out of fsync, and `Always` never
/// has a tail (`unsynced` returns to zero on every append). Best-effort
/// by necessity (`Drop` cannot return an error): a failure here poisons
/// nothing because the handle is gone, and callers that need the error
/// path use an explicit [`Wal::sync`] — the drop flush is the backstop,
/// not the contract.
impl Drop for Wal {
    fn drop(&mut self) {
        if matches!(self.policy, FsyncPolicy::EveryN(_))
            && self.unsynced > 0
            && self.poisoned.is_none()
        {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Drop cannot return the error; Wal::sync is the checked path"
            )]
            let _ = self.sync();
        }
    }
}

/// Scan `bytes`, returning the decoded records, which borrow their texts
/// from `bytes`, plus the clean length (the offset the log should be
/// truncated to). A complete-but-invalid frame is a hard error; an
/// incomplete one ends the scan.
pub(crate) fn scan(bytes: &[u8]) -> Result<(Vec<LogRecord<'_>>, u64), StoreError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = &bytes[pos..];
        if remaining.len() < HEADER {
            break; // torn header
        }
        let len = u32::from_le_bytes([remaining[0], remaining[1], remaining[2], remaining[3]]);
        let crc = u32::from_le_bytes([remaining[4], remaining[5], remaining[6], remaining[7]]);
        if len == 0 && crc == 0 {
            // Zero-extended tail: the filesystem grew the file but the
            // append never landed. This is only unambiguous because a
            // real frame can never be all-zero: `MarketEvent::encode`
            // always emits at least its tag byte (enforced by the
            // debug_assert in `append`), and crc32 of any non-empty
            // payload is checked against the header.
            break;
        }
        if len > MAX_RECORD {
            return Err(StoreError::CorruptRecord {
                offset: pos as u64,
                reason: format!("implausible record length {len}"),
            });
        }
        let len = len as usize;
        if remaining.len() < HEADER + len {
            break; // torn payload
        }
        let payload = &remaining[HEADER..HEADER + len];
        if crc32(payload) != crc {
            return Err(StoreError::CorruptRecord {
                offset: pos as u64,
                reason: "CRC mismatch".to_string(),
            });
        }
        let event = MarketEvent::decode(payload, pos as u64)?;
        records.push(LogRecord {
            start: pos as u64,
            end: (pos + HEADER + len) as u64,
            event,
        });
        pos += HEADER + len;
    }
    let clean_len = records.last().map_or(0, |r| r.end);
    Ok((records, clean_len))
}

/// The records of `records` (a whole log, oldest first, as
/// [`Wal::open`] returns it) from byte offset `from` on. `from` must be a
/// record boundary recorded earlier, e.g. by a snapshot; an offset at or
/// past the log's end yields no records — after a compaction crash the
/// snapshot may legitimately cover more log than survived truncation —
/// and an offset inside a record is refused as
/// [`StoreError::CorruptRecord`].
pub fn records_from<'r, 'a>(
    records: &'r [LogRecord<'a>],
    from: u64,
) -> Result<&'r [LogRecord<'a>], StoreError> {
    let first = records.partition_point(|r| r.start < from);
    let aligned = match records.get(first) {
        Some(r) => r.start == from,
        None => records.last().is_none_or(|r| r.end <= from),
    };
    if aligned {
        Ok(&records[first..])
    } else {
        Err(StoreError::CorruptRecord {
            offset: from,
            reason: "replay position is not a record boundary".to_string(),
        })
    }
}

impl Wal {
    /// Open (or create) the log at `path` on the real filesystem with
    /// the default retry policy, returning records that own their texts:
    /// the form for tools and tests. See [`Wal::open_with`].
    pub fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(Wal, Vec<LogRecord<'static>>), StoreError> {
        let mut bytes = Vec::new();
        let (wal, records) = Self::open_with(
            Arc::new(RealFs),
            path,
            policy,
            RetryPolicy::default(),
            &mut bytes,
        )?;
        Ok((
            wal,
            records.into_iter().map(LogRecord::into_owned).collect(),
        ))
    }

    /// Open (or create) the log at `path` on `vfs`, truncating a torn
    /// tail. Returns the handle positioned at the end of the last clean
    /// record, and every clean record, oldest first: the one scan that
    /// finds the clean end also decodes them, from offset 0, so a
    /// damaged record anywhere in the log fails the open. The log's
    /// bytes are read into `bytes`, and the records borrow their texts
    /// from there, so decoding copies none. Transient faults during the
    /// open are retried per `retry`.
    pub fn open_with<'b>(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        retry: RetryPolicy,
        bytes: &'b mut Vec<u8>,
    ) -> Result<(Wal, Vec<LogRecord<'b>>), StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = retry.run("wal-open", &path, || vfs.open_rw(&path))?;
        *bytes = retry.run("wal-scan", &path, || vfs.read_file(&path))?;
        let bytes: &'b Vec<u8> = bytes;
        let (records, clean_len) = scan(bytes)?;
        if clean_len < bytes.len() as u64 {
            retry.run("wal-repair", &path, || file.set_len(clean_len))?;
            retry.run("wal-repair-sync", &path, || file.sync_all())?;
        }
        // Appends must start exactly at the clean end or they'd punch a
        // hole.
        retry.run("wal-seek", &path, || file.seek_to(clean_len))?;
        let wal = Wal {
            file,
            path,
            position: clean_len,
            policy,
            retry,
            unsynced: 0,
            poisoned: None,
        };
        Ok((wal, records))
    }

    /// The offset one past the last record — what the next append
    /// returns, and what a snapshot records as the state it covers.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    fn poison_error(&self, reason: &str) -> StoreError {
        StoreError::Poisoned {
            path: self.path.display().to_string(),
            offset: self.position,
            reason: reason.to_string(),
        }
    }

    fn poisoned_error(&self) -> Option<StoreError> {
        self.poisoned.as_deref().map(|r| self.poison_error(r))
    }

    /// Append one event; returns the log position *after* it. The write
    /// is flushed to the OS unconditionally and fsynced per the policy,
    /// so once `append` returns the event survives a process crash, and
    /// survives power loss per [`FsyncPolicy`].
    ///
    /// Failure handling follows the module-level failure domains: a
    /// transient write fault discards the partial bytes and retries the
    /// whole frame (bounded, jittered backoff); a fatal write fault
    /// (e.g. `ENOSPC`) truncates back to the last record boundary so
    /// the partial frame cannot be buried by a later successful append;
    /// and if even that truncation fails — or the policy-mandated fsync
    /// does — the handle is poisoned and refuses further appends with
    /// [`StoreError::Poisoned`], naming the offset and path.
    pub fn append(&mut self, event: &MarketEvent<'_>) -> Result<u64, StoreError> {
        let sw = qbdp_obs::Stopwatch::start();
        if let Some(e) = self.poisoned_error() {
            return Err(e);
        }
        let payload = event.encode();
        // scan() relies on an all-zero header meaning "filesystem
        // zero-fill, not a record": an empty payload (len 0, crc32 0)
        // would be indistinguishable from that and silently dropped.
        debug_assert!(
            !payload.is_empty(),
            "MarketEvent::encode must never produce an empty payload"
        );
        let mut frame = Vec::with_capacity(HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let attempts = self.retry.attempts.max(1);
        let mut attempt = 0u32;
        // audit: bounded(attempt counter reaches the fixed retry cap)
        loop {
            attempt += 1;
            match self.file.write_all(&frame) {
                Ok(()) => break,
                Err(e) => {
                    // Whether or not we retry, the partial bytes must go
                    // first — a retried frame must start at the boundary.
                    self.discard_partial_append()?;
                    if is_transient_kind(e.kind()) {
                        if attempt < attempts {
                            qbdp_obs::record(qbdp_obs::Ctr::StoreWalRetries, 1);
                            std::thread::sleep(self.retry.delay_for(attempt));
                            continue;
                        }
                        return Err(StoreError::Transient {
                            op: "wal-append",
                            path: self.path.display().to_string(),
                            source: e,
                        });
                    }
                    return Err(e.into());
                }
            }
        }
        self.position += frame.len() as u64;
        self.unsynced += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        qbdp_obs::record(qbdp_obs::Ctr::StoreWalAppends, 1);
        sw.stop(qbdp_obs::Hst::WalAppendUs);
        Ok(self.position)
    }

    /// Drop whatever a failed `write_all` left past the last record
    /// boundary (the OS cursor has advanced over partial frame bytes)
    /// and restore the cursor, retrying the truncate itself a bounded
    /// number of times (an `ENOSPC` write often coincides with flaky
    /// metadata operations). If the file cannot be repaired, poison
    /// the handle: appending after the garbage would turn a recoverable
    /// torn tail into a complete-but-invalid frame mid-log, which
    /// [`Wal::open`] rightly refuses as corruption. The resulting
    /// [`StoreError::Poisoned`] names the byte offset and file path so
    /// a chaos-run failure can be triaged from the message alone.
    fn discard_partial_append(&mut self) -> Result<(), StoreError> {
        let attempts = self.retry.attempts.max(1);
        let mut attempt = 0u32;
        // audit: bounded(attempt counter reaches the fixed retry cap)
        let repaired = loop {
            attempt += 1;
            let ok = self.file.set_len(self.position).is_ok()
                && self.file.seek_to(self.position).is_ok();
            if ok {
                break true;
            }
            if attempt >= attempts {
                break false;
            }
            std::thread::sleep(self.retry.delay_for(attempt));
        };
        if repaired {
            Ok(())
        } else {
            let reason = "unrepaired partial append (truncate to record boundary failed)";
            self.poisoned = Some(reason.to_string());
            Err(self.poison_error(reason))
        }
    }

    /// Force everything appended so far to stable storage.
    ///
    /// A failed fsync **poisons the handle** (fsyncgate semantics): the
    /// kernel may have dropped the dirty pages, so the most recent
    /// append can no longer be assumed durable, and a later successful
    /// fsync would not bring it back. Refusing further appends keeps
    /// the at-most-one uncertain event at the very end of the log,
    /// which recovery handles as an ordinary (possibly torn) tail.
    /// Transient fsync faults (`EINTR`) are retried before poisoning.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let sw = qbdp_obs::Stopwatch::start();
        if let Some(e) = self.poisoned_error() {
            return Err(e);
        }
        self.file.flush()?;
        let attempts = self.retry.attempts.max(1);
        let mut attempt = 0u32;
        // audit: bounded(attempt counter reaches the fixed retry cap)
        loop {
            attempt += 1;
            match self.file.sync_data() {
                Ok(()) => {
                    self.unsynced = 0;
                    sw.stop(qbdp_obs::Hst::WalFsyncUs);
                    return Ok(());
                }
                Err(e) if is_transient_kind(e.kind()) && attempt < attempts => {
                    qbdp_obs::record(qbdp_obs::Ctr::StoreWalRetries, 1);
                    std::thread::sleep(self.retry.delay_for(attempt));
                }
                Err(e) => {
                    let reason = format!("fsync failed: {e}");
                    self.poisoned = Some(reason.clone());
                    return Err(self.poison_error(&reason));
                }
            }
        }
    }

    /// Drop every record (compaction: the snapshot now covers them) and
    /// fsync the truncation. On success the handle is clean again: an
    /// empty file has no partial frame left to bury, and the truncation
    /// was durably confirmed. A handle poisoned by a *failed fsync*
    /// stays poisoned unless this reset's own fsync succeeds — which,
    /// under fsyncgate semantics, a real kernel will not grant on the
    /// same file description.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        // Before the truncation lands the file is untouched, so a
        // failure here is an ordinary (non-poisoning) error.
        self.retry
            .run("wal-reset", &self.path, || self.file.set_len(0))?;
        // From here the file IS truncated: if the cursor reposition or
        // the fsync cannot be completed, the handle's bookkeeping no
        // longer matches the file, and limping on would append frames
        // at an offset `position` does not describe — poison instead.
        type FileStep = fn(&mut Box<dyn VfsFile>) -> std::io::Result<()>;
        let attempts = self.retry.attempts.max(1);
        let finish = |file: &mut Box<dyn VfsFile>,
                      retry: &RetryPolicy,
                      op: FileStep|
         -> Result<(), String> {
            let mut attempt = 0u32;
            // audit: bounded(attempt counter reaches the fixed retry cap)
            loop {
                attempt += 1;
                match op(file) {
                    Ok(()) => return Ok(()),
                    Err(e) if is_transient_kind(e.kind()) && attempt < attempts => {
                        std::thread::sleep(retry.delay_for(attempt));
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
        };
        let steps: [(FileStep, &str); 2] = [
            (
                |f| f.seek_to(0).map(|_| ()),
                "cursor reposition after log truncation",
            ),
            (|f| f.sync_all(), "fsync of log truncation"),
        ];
        for (op, what) in steps {
            if let Err(e) = finish(&mut self.file, &self.retry, op) {
                let reason = format!("{what} failed: {e}");
                self.poisoned = Some(reason.clone());
                return Err(self.poison_error(&reason));
            }
        }
        self.position = 0;
        self.unsynced = 0;
        self.poisoned = None;
        Ok(())
    }
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "test temp files and directories are removed best-effort"
)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, FaultKind, FaultOp, FaultPlan, ScriptedFault};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qbdp_wal_{tag}_{}_{}.wal",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay_micros: 1,
            max_delay_micros: 2,
            jitter_seed: 9,
        }
    }

    /// Every record of the log at `path`, read back through a second
    /// open (the handle under test stays open).
    fn logged(path: &Path) -> Vec<LogRecord<'static>> {
        Wal::open(path, FsyncPolicy::Never).unwrap().1
    }

    fn sample_events() -> Vec<MarketEvent<'static>> {
        vec![
            MarketEvent::InsertTuple {
                relation: "T".into(),
                values: vec!["b2".into()],
            },
            MarketEvent::SetPrice {
                view: "S.Y=b1".into(),
                cents: 25,
            },
            MarketEvent::Purchase {
                query: "Q(x) :- R(x)".into(),
                price_cents: 400,
                answer_tuples: 2,
                views: 4,
            },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = temp_path("roundtrip");
        let events = sample_events();
        let (mut wal, none) = Wal::open(&path, FsyncPolicy::EveryN(2)).unwrap();
        assert!(none.is_empty());
        assert_eq!(wal.position(), 0);
        let mut ends = Vec::new();
        for ev in &events {
            ends.push(wal.append(ev).unwrap());
        }
        assert_eq!(wal.position(), *ends.last().unwrap());
        drop(wal);
        // Reopening lands at the same position and hands back every
        // record from the same scan.
        let (wal, records) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(wal.position(), *ends.last().unwrap());
        assert_eq!(records.len(), events.len());
        for ((rec, ev), end) in records.iter().zip(&events).zip(&ends) {
            assert_eq!(&rec.event, ev);
            assert_eq!(rec.end, *end);
        }
        // Suffix replay from the second record's start.
        let suffix = records_from(&records, records[1].start).unwrap();
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].event, events[1]);
        assert_eq!(suffix[0].start, records[1].start);
        assert_eq!(records_from(&records, 0).unwrap().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = temp_path("torn");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        for ev in sample_events() {
            wal.append(&ev).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let second_end = logged(&path)[1].end;
        drop(wal);
        // Cut into the middle of the third record.
        std::fs::write(&path, &full[..second_end as usize + 3]).unwrap();
        let (wal, records) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(wal.position(), second_end);
        assert_eq!(records.len(), 2);
        // The file itself was repaired.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), second_end);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_extended_tail_is_truncated() {
        let path = temp_path("zeros");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        for ev in sample_events() {
            wal.append(&ev).unwrap();
        }
        let end = wal.position();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let (wal, records) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(wal.position(), end);
        assert_eq!(records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_log_corruption_is_refused() {
        let path = temp_path("corrupt");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        for ev in sample_events() {
            wal.append(&ev).unwrap();
        }
        let first_end = logged(&path)[0].end;
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the second record's payload.
        bytes[first_end as usize + HEADER + 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path, FsyncPolicy::Always);
        assert!(
            matches!(err, Err(StoreError::CorruptRecord { offset, .. }) if offset == first_end),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_path("reset");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        for ev in sample_events() {
            wal.append(&ev).unwrap();
        }
        wal.reset().unwrap();
        assert_eq!(wal.position(), 0);
        assert!(logged(&path).is_empty());
        // Appends keep working after a reset.
        wal.append(&sample_events()[0]).unwrap();
        assert_eq!(logged(&path).len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_append_residue_is_discarded() {
        let path = temp_path("partial");
        let events = sample_events();
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        wal.append(&events[0]).unwrap();
        // Simulate the aftermath of a failed write_all: partial frame
        // bytes on disk with the cursor advanced past them.
        wal.file.write_all(&[0x11, 0x22, 0x33]).unwrap();
        wal.discard_partial_append().unwrap();
        assert!(wal.poisoned.is_none());
        // The next append must land at the record boundary, leaving a
        // log that reopens cleanly — not a CorruptRecord mid-log.
        wal.append(&events[1]).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].event, events[0]);
        assert_eq!(replayed[1].event, events[1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poisoned_handle_refuses_appends_until_reset() {
        let path = temp_path("poison");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        wal.append(&sample_events()[0]).unwrap();
        wal.poisoned = Some("test poison".into());
        let err = wal.append(&sample_events()[1]);
        match &err {
            Err(StoreError::Poisoned {
                path: p, offset, ..
            }) => {
                assert!(p.contains("qbdp_wal_poison"), "{p}");
                assert_eq!(*offset, wal.position());
            }
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // The message alone carries enough for triage.
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("byte") && msg.contains(".wal"), "{msg}");
        // reset() truncates everything, so there is no garbage left to
        // bury and the handle is usable again.
        wal.reset().unwrap();
        wal.append(&sample_events()[1]).unwrap();
        assert_eq!(logged(&path).len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_from_beyond_end_is_empty() {
        let path = temp_path("beyond");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.append(&sample_events()[0]).unwrap();
        let records = logged(&path);
        assert!(records_from(&records, wal.position()).unwrap().is_empty());
        assert!(records_from(&records, wal.position() + 999)
            .unwrap()
            .is_empty());
        assert!(records_from(&[], 0).unwrap().is_empty());
        assert!(records_from(&[], 7).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A replay position inside a record — the first, a middle or the
    /// last one — names no record boundary and is refused at its offset.
    #[test]
    fn replay_from_inside_a_record_is_refused() {
        let path = temp_path("inside");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for ev in sample_events() {
            wal.append(&ev).unwrap();
        }
        let records = logged(&path);
        for r in &records {
            for from in [r.start + 1, r.end - 1] {
                let err = records_from(&records, from);
                assert!(
                    matches!(err, Err(StoreError::CorruptRecord { offset, .. }) if offset == from),
                    "{from}: {err:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_write_faults_are_retried_away() {
        let path = temp_path("transient");
        let fs = FaultFs::new(FaultPlan {
            script: vec![
                ScriptedFault {
                    op: FaultOp::Write,
                    path_contains: "transient".into(),
                    skip: 0,
                    kind: FaultKind::Eintr,
                },
                ScriptedFault {
                    op: FaultOp::Write,
                    path_contains: "transient".into(),
                    skip: 0,
                    kind: FaultKind::Eagain,
                },
            ],
            seeded: None,
        });
        let (mut wal, _) = Wal::open_with(
            Arc::new(fs.clone()),
            &path,
            FsyncPolicy::Always,
            fast_retry(),
            &mut Vec::new(),
        )
        .unwrap();
        // Both scripted transients hit this one append; it still lands.
        wal.append(&sample_events()[0]).unwrap();
        assert_eq!(logged(&path).len(), 1);
        assert_eq!(fs.injected_count(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enospc_partial_write_is_repaired_and_typed() {
        let path = temp_path("enospc");
        let fs = FaultFs::new(FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Write,
                path_contains: "enospc".into(),
                skip: 1,
                kind: FaultKind::Enospc { keep: 5 },
            }],
            seeded: None,
        });
        let (mut wal, _) = Wal::open_with(
            Arc::new(fs.clone()),
            &path,
            FsyncPolicy::Never,
            fast_retry(),
            &mut Vec::new(),
        )
        .unwrap();
        let end1 = wal.append(&sample_events()[0]).unwrap();
        let err = wal.append(&sample_events()[1]).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io(e) if e.kind() == std::io::ErrorKind::StorageFull),
            "{err:?}"
        );
        assert!(err.degrades_to_read_only());
        // Repair succeeded: position unchanged, partial bytes gone, and
        // the handle is NOT poisoned (the log itself is intact).
        assert_eq!(wal.position(), end1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end1);
        wal.append(&sample_events()[2]).unwrap();
        assert_eq!(logged(&path).len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_fsync_poisons_with_offset_and_path() {
        let path = temp_path("fsyncgate");
        let fs = FaultFs::new(FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Fsync,
                path_contains: "fsyncgate".into(),
                skip: 1,
                kind: FaultKind::FsyncFail,
            }],
            seeded: None,
        });
        let (mut wal, _) = Wal::open_with(
            Arc::new(fs.clone()),
            &path,
            FsyncPolicy::Always,
            fast_retry(),
            &mut Vec::new(),
        )
        .unwrap();
        let end1 = wal.append(&sample_events()[0]).unwrap();
        let err = wal.append(&sample_events()[1]).unwrap_err();
        match &err {
            StoreError::Poisoned {
                path: p,
                offset,
                reason,
            } => {
                assert!(p.contains("fsyncgate"), "{p}");
                assert_eq!(*offset, end1 + (wal.position() - end1));
                assert!(reason.contains("fsync"), "{reason}");
            }
            other => panic!("expected Poisoned, got {other:?}"),
        }
        assert!(err.degrades_to_read_only());
        // fsyncgate: every further append is refused.
        assert!(matches!(
            wal.append(&sample_events()[2]),
            Err(StoreError::Poisoned { .. })
        ));
        // Recovery after reopen yields at most the acked prefix plus
        // the one uncertain tail event.
        drop(wal);
        let mut bytes = Vec::new();
        let (_, records) = Wal::open_with(
            Arc::new(fs),
            &path,
            FsyncPolicy::Never,
            fast_retry(),
            &mut bytes,
        )
        .unwrap();
        let n = records.len();
        assert!(n == 1 || n == 2, "prefix of attempted history, got {n}");
        std::fs::remove_file(&path).ok();
    }
}
