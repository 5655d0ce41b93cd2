//! Integrity scrubbing: verify every checksum **before** it is
//! load-bearing.
//!
//! Recovery only reads the snapshot plus the log suffix it covers, so
//! bit-rot in an already-compacted region sits undetected until the next
//! full replay needs it. [`scrub`] walks both files end to end — snapshot
//! header, section checksum, every WAL frame CRC — and reports damage as
//! data rather than failing, so an operator (or the `qbdp scrub` CLI
//! verb) can see *all* the damage at once and decide what to restore.
//! Scrubbing never mutates anything: it opens both files read-only and
//! is safe to run against a live market directory between syncs.

use crate::error::StoreError;
use crate::snapshot::Snapshot;
use crate::vfs::Vfs;
use crate::wal;
use std::fmt;
use std::path::Path;

/// One piece of damage found by [`scrub`].
#[derive(Clone, Debug)]
pub struct ScrubFinding {
    /// Which file is damaged (`snapshot` or `wal`).
    pub file: String,
    /// Byte offset of the damage, where known.
    pub offset: Option<u64>,
    /// What the check found.
    pub detail: String,
}

/// The full result of one scrub pass. `findings` is damage that makes
/// some state unrecoverable; `notes` are benign observations (a torn
/// tail, a snapshot covering more log than exists) that recovery
/// handles on its own.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Intact records decoded from the log.
    pub wal_records: u64,
    /// Clean log bytes (offset of the first non-intact byte).
    pub wal_bytes: u64,
    /// Bytes past the clean prefix (torn tail residue); 0 when clean.
    pub wal_torn_bytes: u64,
    /// The log position the snapshot covers, when the snapshot loaded.
    pub snapshot_wal_pos: Option<u64>,
    /// Section names present in the snapshot, when it loaded.
    pub snapshot_sections: Vec<String>,
    /// Damage that loses state. Empty means every checksum verified.
    pub findings: Vec<ScrubFinding>,
    /// Benign observations recovery already tolerates.
    pub notes: Vec<String>,
}

impl ScrubReport {
    /// True when nothing unrecoverable was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.snapshot_wal_pos {
            Some(pos) => writeln!(
                f,
                "snapshot: ok (wal_pos {pos}, sections: {})",
                self.snapshot_sections.join(", ")
            )?,
            None => writeln!(f, "snapshot: not verified")?,
        }
        writeln!(
            f,
            "wal: {} record(s), {} clean byte(s), {} torn tail byte(s)",
            self.wal_records, self.wal_bytes, self.wal_torn_bytes
        )?;
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        if self.findings.is_empty() {
            write!(f, "scrub: clean")?;
        } else {
            for finding in &self.findings {
                match finding.offset {
                    Some(off) => writeln!(
                        f,
                        "DAMAGE in {} at byte {off}: {}",
                        finding.file, finding.detail
                    )?,
                    None => writeln!(f, "DAMAGE in {}: {}", finding.file, finding.detail)?,
                }
            }
            write!(f, "scrub: {} finding(s)", self.findings.len())?;
        }
        Ok(())
    }
}

/// Walk the snapshot and WAL at the given paths, verifying every
/// checksum, and report. Never fails: I/O errors and corruption both
/// become findings so one damaged file does not hide damage in the
/// other.
pub fn scrub(vfs: &dyn Vfs, snapshot_path: &Path, wal_path: &Path) -> ScrubReport {
    let mut report = ScrubReport::default();

    match Snapshot::load_with(vfs, snapshot_path) {
        Ok((snap, _)) => {
            report.snapshot_wal_pos = Some(snap.wal_pos);
            report.snapshot_sections = snap.sections.iter().map(|(n, _)| n.clone()).collect();
        }
        Err(StoreError::SnapshotMissing) => {
            report
                .notes
                .push("no snapshot file (directory not initialized?)".to_string());
        }
        Err(e) => {
            report.findings.push(ScrubFinding {
                file: "snapshot".to_string(),
                offset: None,
                detail: e.to_string(),
            });
        }
    }

    match vfs.read_file(wal_path) {
        Ok(bytes) => match wal::scan(&bytes) {
            Ok((records, clean_len)) => {
                report.wal_records = records.len() as u64;
                report.wal_bytes = clean_len;
                report.wal_torn_bytes = bytes.len() as u64 - clean_len;
                if report.wal_torn_bytes > 0 {
                    report.notes.push(format!(
                        "torn tail of {} byte(s) past offset {clean_len} \
                         (expected crash residue; reopening repairs it)",
                        report.wal_torn_bytes
                    ));
                }
            }
            Err(e) => {
                let offset = match &e {
                    StoreError::CorruptRecord { offset, .. } => Some(*offset),
                    _ => None,
                };
                report.findings.push(ScrubFinding {
                    file: "wal".to_string(),
                    offset,
                    detail: e.to_string(),
                });
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            report
                .notes
                .push("no WAL file (clean post-compaction state)".to_string());
        }
        Err(e) => {
            report.findings.push(ScrubFinding {
                file: "wal".to_string(),
                offset: None,
                detail: format!("unreadable: {e}"),
            });
        }
    }

    if let Some(pos) = report.snapshot_wal_pos {
        if pos > report.wal_bytes && report.findings.is_empty() {
            report.notes.push(format!(
                "snapshot covers log position {pos} but only {} clean \
                 byte(s) exist (compaction crash window; recovery rebases)",
                report.wal_bytes
            ));
        }
    }

    report
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "test temp files and directories are removed best-effort"
)]
mod tests {
    use super::*;
    use crate::event::MarketEvent;
    use crate::vfs::RealFs;
    use crate::wal::{FsyncPolicy, Wal};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qbdp_scrub_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populate(dir: &Path) -> (PathBuf, PathBuf) {
        let snap_path = dir.join("snapshot.qdps");
        let wal_path = dir.join("market.wal");
        let mut snap = Snapshot::new(0);
        snap.push_section("market", "schema R(X)\n");
        snap.write(&snap_path).unwrap();
        let (mut wal, _) = Wal::open(&wal_path, FsyncPolicy::Always).unwrap();
        for i in 0..3 {
            wal.append(&MarketEvent::SetPrice {
                view: format!("R.X=a{i}").into(),
                cents: 100 + i,
            })
            .unwrap();
        }
        (snap_path, wal_path)
    }

    #[test]
    fn clean_state_scrubs_clean() {
        let dir = temp_dir("clean");
        let (snap_path, wal_path) = populate(&dir);
        let report = scrub(&RealFs, &snap_path, &wal_path);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.wal_records, 3);
        assert_eq!(report.snapshot_wal_pos, Some(0));
        assert_eq!(report.snapshot_sections, vec!["market".to_string()]);
        assert_eq!(report.wal_torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_a_note_not_a_finding() {
        let dir = temp_dir("torn");
        let (snap_path, wal_path) = populate(&dir);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&[7, 0, 0, 0]); // half a header
        std::fs::write(&wal_path, &bytes).unwrap();
        let report = scrub(&RealFs, &snap_path, &wal_path);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.wal_torn_bytes, 4);
        assert!(report.notes.iter().any(|n| n.contains("torn tail")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_rot_in_both_files_yields_both_findings() {
        let dir = temp_dir("rot");
        let (snap_path, wal_path) = populate(&dir);
        for path in [&snap_path, &wal_path] {
            let mut bytes = std::fs::read(path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(path, &bytes).unwrap();
        }
        let report = scrub(&RealFs, &snap_path, &wal_path);
        assert!(!report.is_clean());
        let files: Vec<&str> = report.findings.iter().map(|f| f.file.as_str()).collect();
        assert!(files.contains(&"snapshot"), "{report}");
        assert!(files.contains(&"wal"), "{report}");
        assert!(report.to_string().contains("DAMAGE"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_are_notes() {
        let dir = temp_dir("missing");
        let report = scrub(&RealFs, &dir.join("snapshot.qdps"), &dir.join("market.wal"));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.notes.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
