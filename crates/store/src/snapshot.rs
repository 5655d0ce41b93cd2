//! Atomic, checksummed snapshots.
//!
//! A snapshot is the full materialized state at one log position, so
//! recovery is *snapshot load + suffix replay* instead of replaying the
//! log from genesis. The store layer treats the state as opaque named
//! text **sections** — the market layer puts its `.qdp` serialization in
//! one, its ledger in another — plus the one field recovery needs from
//! us: `wal_pos`, the log offset the state covers.
//!
//! # File format
//!
//! ```text
//! qbdp-snapshot v1
//! wal_pos <u64>
//! crc <u32>                 # CRC-32 over wal_pos and every section
//! sections <count>
//! section <name> <byte_len>
//! <byte_len raw bytes>
//! …one `section` header + body per section…
//! ```
//!
//! # Atomicity
//!
//! [`Snapshot::write`] writes to `<name>.tmp` in the same directory,
//! fsyncs it, renames over the target, and fsyncs the directory — the
//! POSIX recipe that leaves either the old snapshot or the new one,
//! never a torn hybrid. The CRC catches damage that happens *after* a
//! successful write (bit rot, partial disk restore).

use crate::crc::Crc32;
use crate::error::StoreError;
use crate::vfs::{RealFs, RetryPolicy, Vfs};
use std::path::Path;

const MAGIC: &str = "qbdp-snapshot v1";

/// A snapshot: the log position it covers plus named state sections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Log offset this state covers; recovery replays the log from here.
    pub wal_pos: u64,
    /// Named opaque text sections, in writing order.
    pub sections: Vec<(String, String)>,
}

impl Snapshot {
    /// A snapshot covering log position `wal_pos` with no sections yet.
    pub fn new(wal_pos: u64) -> Snapshot {
        Snapshot {
            wal_pos,
            sections: Vec::new(),
        }
    }

    /// Append a named section. Names must be single tokens (no
    /// whitespace); contents are arbitrary text.
    pub fn push_section(&mut self, name: impl Into<String>, body: impl Into<String>) {
        self.sections.push((name.into(), body.into()));
    }

    /// The body of the first section called `name`.
    pub fn section(&self, name: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_str())
    }

    /// The body of the first section called `name`, handed over by
    /// value: the section stays, empty, so the snapshot no longer
    /// describes the state it was read with.
    pub fn take_section(&mut self, name: &str) -> Option<String> {
        self.sections
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, b)| std::mem::take(b))
    }

    /// CRC-32 over `wal_pos` (little-endian) and each section's name
    /// and body, each followed by a zero byte, folded piece by piece.
    fn checksum(&self) -> u32 {
        let mut crc = Crc32::new();
        crc.update(&self.wal_pos.to_le_bytes());
        for (name, body) in &self.sections {
            crc.update(name.as_bytes());
            crc.update(&[0]);
            crc.update(body.as_bytes());
            crc.update(&[0]);
        }
        crc.finish()
    }

    /// Serialize to the file format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(format!("wal_pos {}\n", self.wal_pos).as_bytes());
        out.extend_from_slice(format!("crc {}\n", self.checksum()).as_bytes());
        out.extend_from_slice(format!("sections {}\n", self.sections.len()).as_bytes());
        for (name, body) in &self.sections {
            out.extend_from_slice(format!("section {} {}\n", name, body.len()).as_bytes());
            out.extend_from_slice(body.as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Parse the file format, verifying the checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let bad = |m: &str| StoreError::CorruptSnapshot(m.to_string());
        let mut pos = 0usize;
        let line = |pos: &mut usize| -> Result<&str, StoreError> {
            let rest = bytes.get(*pos..).ok_or_else(|| bad("unexpected end"))?;
            let nl = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| bad("missing newline"))?;
            let s = std::str::from_utf8(&rest[..nl]).map_err(|_| bad("non-UTF-8 header"))?;
            *pos += nl + 1;
            Ok(s)
        };
        if line(&mut pos)? != MAGIC {
            return Err(bad("bad magic"));
        }
        let field = |l: &str, key: &str| -> Result<u64, StoreError> {
            l.strip_prefix(key)
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| bad(&format!("bad `{key}` line")))
        };
        let wal_pos = field(line(&mut pos)?, "wal_pos ")?;
        let crc = field(line(&mut pos)?, "crc ")? as u32;
        let count = field(line(&mut pos)?, "sections ")? as usize;
        if count > 1024 {
            return Err(bad("implausible section count"));
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let header = line(&mut pos)?.to_string();
            let mut parts = header
                .strip_prefix("section ")
                .ok_or_else(|| bad("bad section header"))?
                .splitn(2, ' ');
            let name = parts.next().ok_or_else(|| bad("missing section name"))?;
            let len: usize = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("bad section length"))?;
            let end = pos
                .checked_add(len)
                .filter(|&e| e < bytes.len() + 1)
                .ok_or_else(|| bad("section body truncated"))?;
            let body = std::str::from_utf8(
                bytes
                    .get(pos..end)
                    .ok_or_else(|| bad("section body truncated"))?,
            )
            .map_err(|_| bad("non-UTF-8 section body"))?
            .to_string();
            pos = end;
            if bytes.get(pos) != Some(&b'\n') {
                return Err(bad("section body not newline-terminated"));
            }
            pos += 1;
            sections.push((name.to_string(), body));
        }
        let snapshot = Snapshot { wal_pos, sections };
        if snapshot.checksum() != crc {
            return Err(bad("checksum mismatch"));
        }
        Ok(snapshot)
    }

    /// Write atomically to `path`: temp file in the same directory,
    /// fsync, rename, directory fsync. Uses the real filesystem with
    /// the default retry policy; see [`Snapshot::write_with`].
    pub fn write(&self, path: impl AsRef<Path>) -> Result<u64, StoreError> {
        self.write_with(&RealFs, path, &RetryPolicy::default())
    }

    /// Write atomically to `path` on `vfs`. Each step retries transient
    /// faults per `retry`; the whole temp-file build (create + write +
    /// fsync) retries as one unit — `create_file` truncates, so a retry
    /// restarts from a clean slate. A transient fault that persists
    /// through the retries surfaces as the typed
    /// [`StoreError::Transient`], never as a corruption error: nothing
    /// past the temp file was touched, so the previous snapshot is
    /// intact and the caller may simply try compacting again later.
    ///
    /// Returns the size of the written file in bytes.
    pub fn write_with(
        &self,
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
        retry: &RetryPolicy,
    ) -> Result<u64, StoreError> {
        let sw = qbdp_obs::Stopwatch::start();
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let bytes = self.to_bytes();
        retry.run("snapshot-tmp", &tmp, || {
            let mut f = vfs.create_file(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()
        })?;
        retry.run("snapshot-rename", path, || vfs.rename_file(&tmp, path))?;
        if let Some(dir) = path.parent() {
            // Persist the rename itself: the caller may truncate the WAL
            // next, so a rename that can roll back must be an error.
            retry.run("snapshot-dir-sync", dir, || vfs.sync_dir(dir))?;
        }
        qbdp_obs::record(qbdp_obs::Ctr::StoreSnapshots, 1);
        sw.stop(qbdp_obs::Hst::SnapshotWriteUs);
        Ok(bytes.len() as u64)
    }

    /// Load and verify a snapshot from `path`. A missing file is
    /// [`StoreError::SnapshotMissing`], distinct from a damaged one.
    pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        Self::load_with(&RealFs, path).map(|(snapshot, _)| snapshot)
    }

    /// Load and verify a snapshot from `path` on `vfs`, with the file's
    /// size in bytes.
    pub fn load_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<(Snapshot, u64), StoreError> {
        let bytes = match vfs.read_file(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::SnapshotMissing)
            }
            Err(e) => return Err(e.into()),
        };
        Ok((Snapshot::from_bytes(&bytes)?, bytes.len() as u64))
    }
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "test temp files and directories are removed best-effort"
)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qbdp_snap_{tag}_{}_{}.qdps",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(4242);
        s.push_section("market", "schema R(X)\ntuple R(a1)\n");
        s.push_section(
            "ledger",
            "revenue 600\nnext_id 2\nsale 1 600 1 6 Q(x) :- R(x)\n",
        );
        s
    }

    #[test]
    fn roundtrip_bytes() {
        let s = sample();
        let back = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.section("ledger").unwrap().lines().count(), 3);
        assert!(back.section("nope").is_none());
    }

    #[test]
    fn roundtrip_file_and_missing() {
        let path = temp_path("file");
        assert!(matches!(
            Snapshot::load(&path),
            Err(StoreError::SnapshotMissing)
        ));
        let written = sample().write(&path).unwrap();
        assert_eq!(written, sample().to_bytes().len() as u64);
        assert_eq!(
            Snapshot::load_with(&RealFs, &path).unwrap(),
            (sample(), written)
        );
        // Overwrite is atomic-replace, not append.
        let mut s2 = sample();
        s2.wal_pos = 1;
        s2.write(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().wal_pos, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damage_is_detected() {
        let bytes = sample().to_bytes();
        // Flip a byte inside a section body.
        let mut bad = bytes.clone();
        let idx = bytes.len() - 10;
        bad[idx] ^= 0x20;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(StoreError::CorruptSnapshot(_))
        ));
        // Truncations anywhere are CorruptSnapshot, never a panic.
        for cut in 0..bytes.len() {
            assert!(matches!(
                Snapshot::from_bytes(&bytes[..cut]),
                Err(StoreError::CorruptSnapshot(_))
            ));
        }
    }

    #[test]
    fn empty_sections_and_weird_bodies() {
        let mut s = Snapshot::new(0);
        s.push_section("empty", "");
        s.push_section("tricky", "section fake 99\nwal_pos 7\n");
        let back = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
    }
}
