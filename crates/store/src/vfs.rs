//! The virtual filesystem the durability layer runs on.
//!
//! Production code uses [`RealFs`] (thin delegation to `std::fs`); the
//! chaos harness swaps in [`FaultFs`], a deterministic fault injector
//! that wraps the real filesystem and misbehaves on command:
//!
//! * **transient faults** — `EINTR`/`EAGAIN`-style errors that succeed
//!   on retry (exercising [`RetryPolicy`]);
//! * **`ENOSPC` at byte N** — a write lands a strict prefix, then fails
//!   with `StorageFull` (exercising the WAL's partial-append repair);
//! * **fsync failures with fsyncgate semantics** — a failed fsync
//!   *permanently poisons* the file: the kernel may have dropped the
//!   dirty pages, so a later "successful" fsync must not resurrect the
//!   illusion of durability. `FaultFs` keeps failing fsyncs on that
//!   path until the file is re-created;
//! * **torn writes** — a prefix lands, then simulated power loss: every
//!   subsequent operation fails until [`FaultFs::simulate_crash`];
//! * **post-crash bit-rot** — [`FaultFs::corrupt_byte`] flips bits in
//!   the on-disk image, exercising CRC detection and `scrub()`.
//!
//! # The durability shadow
//!
//! `FaultFs` tracks, per file, the **durable image**: the content a
//! power loss is guaranteed to preserve. The image advances only on a
//! *successful* fsync (first-seen disk content counts as durable — it
//! predates the injector). Renames are pending until the containing
//! directory is fsynced, and [`FaultFs::simulate_crash`] restores every
//! file to a state a real power loss could have left: the durable
//! image, the current content, or the durable image plus a prefix of
//! the unsynced suffix (a torn tail) — chosen by a seeded RNG.

use crate::error::StoreError;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// An open, writable file handle. Reads go through [`Vfs::read_file`]
/// (the log replays from the path, not the handle), so the trait only
/// carries the append-side surface `Wal` and `Snapshot` need.
pub trait VfsFile: Send {
    /// Write the whole buffer at the current cursor.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush userspace buffers to the OS (no durability implied).
    fn flush(&mut self) -> io::Result<()>;
    /// Fsync file data to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Fsync file data and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate (or extend with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Move the cursor to an absolute offset.
    fn seek_to(&mut self, pos: u64) -> io::Result<u64>;
}

/// The filesystem operations the durability layer performs. Method
/// names are deliberately distinct from `std` trait methods so call
/// sites stay greppable and unambiguous in audits.
pub trait Vfs: Send + Sync {
    /// Open `path` read-write, creating it if absent (no truncation).
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create `path`, truncating any existing content.
    fn create_file(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read the whole file.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` onto `to` (same directory).
    fn rename_file(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory, persisting renames within it. Best-effort on
    /// platforms where directories cannot be opened.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
}

/// Whether an I/O error kind is transiently retryable (`EINTR`,
/// `EAGAIN`, timeouts) as opposed to a real failure.
pub fn is_transient_kind(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------

/// The production filesystem: straight delegation to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<u64> {
        self.0.seek(SeekFrom::Start(pos))
    }
}

impl Vfs for RealFs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn create_file(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename_file(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // On platforms where directories cannot be opened this is
        // best-effort; once opened, a failed fsync is the caller's error.
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------
// Deterministic RNG + retry policy
// ---------------------------------------------------------------------

/// SplitMix64: a tiny, deterministic, seedable RNG. Used for retry
/// jitter and by the fault injector / chaos driver, so no external
/// randomness dependency is needed and every schedule replays exactly.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator; equal seeds give equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` 0 yields 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Bounded retry with jittered exponential backoff for transient I/O
/// faults. Deterministic: the jitter stream is a pure function of
/// `jitter_seed` and the attempt number.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (including the first); clamped to at least 1.
    pub attempts: u32,
    /// Backoff before the second attempt, microseconds.
    pub base_delay_micros: u64,
    /// Backoff ceiling, microseconds.
    pub max_delay_micros: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay_micros: 20,
            max_delay_micros: 2_000,
            jitter_seed: 0x9bd5,
        }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff to sleep after failed attempt number `attempt`
    /// (1-based): exponential from the base, capped, plus up to 100%
    /// deterministic jitter.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay_micros
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_micros.max(self.base_delay_micros));
        let jitter = SplitMix64::new(self.jitter_seed ^ u64::from(attempt)).next_below(exp.max(1));
        Duration::from_micros(exp + jitter)
    }

    /// Run `f`, retrying transient errors with backoff. Non-transient
    /// errors surface immediately as [`StoreError::Io`]; a transient
    /// error on the final attempt surfaces as [`StoreError::Transient`]
    /// carrying `op` and `path` for triage.
    pub fn run<T>(
        &self,
        op: &'static str,
        path: &Path,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> Result<T, StoreError> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0u32;
        // audit: bounded(attempt counter reaches the fixed retry cap)
        loop {
            attempt += 1;
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if !is_transient_kind(e.kind()) => return Err(StoreError::Io(e)),
                Err(e) if attempt >= attempts => {
                    return Err(StoreError::Transient {
                        op,
                        path: path.display().to_string(),
                        source: e,
                    })
                }
                Err(_) => std::thread::sleep(self.delay_for(attempt)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------

/// Which filesystem operation a fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// `open_rw` / `create_file`.
    Open,
    /// `read_file`.
    Read,
    /// `write_all`.
    Write,
    /// `sync_data` / `sync_all` on a file.
    Fsync,
    /// `set_len`.
    SetLen,
    /// `rename_file`.
    Rename,
    /// `sync_dir`.
    SyncDir,
}

/// What an injected fault does.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Fail with `EINTR` before touching anything; a retry succeeds.
    Eintr,
    /// Fail with `EAGAIN` before touching anything; a retry succeeds.
    Eagain,
    /// Land `keep` bytes of the write (strictly less than the buffer),
    /// then fail with `StorageFull`.
    Enospc {
        /// Bytes of the buffer that reach the file before the error.
        keep: usize,
    },
    /// Fail the fsync and poison the file per fsyncgate semantics: the
    /// unsynced pages are considered dropped and every later fsync on
    /// this path fails too, until the file is re-created.
    FsyncFail,
    /// Land `keep` bytes, then simulated power loss: every subsequent
    /// operation on the filesystem fails until
    /// [`FaultFs::simulate_crash`].
    TornWrite {
        /// Bytes of the buffer that reach the file before the cut.
        keep: usize,
    },
}

/// One scripted fault: fires on the `skip`+1-th operation matching
/// `op` whose path contains `path_contains`, then is consumed.
#[derive(Clone, Debug)]
pub struct ScriptedFault {
    /// Operation to intercept.
    pub op: FaultOp,
    /// Substring the path must contain (empty matches everything).
    pub path_contains: String,
    /// Matching operations to let through before firing.
    pub skip: u64,
    /// What to do when firing.
    pub kind: FaultKind,
}

/// Seeded probabilistic faults: each rate is per-mille per matching
/// operation, rolled on a deterministic stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeededFaults {
    /// RNG seed for the roll stream.
    pub seed: u64,
    /// `EINTR`/`EAGAIN` on open/read/write/fsync/set-len, per mille.
    pub transient_per_mille: u32,
    /// `ENOSPC` partial write, per mille of writes.
    pub enospc_per_mille: u32,
    /// Failed (and poisoning) fsync, per mille of fsyncs.
    pub fsync_fail_per_mille: u32,
    /// Torn write + power cut, per mille of writes.
    pub torn_write_per_mille: u32,
}

/// A full injection plan: scripted faults fire first (and are
/// consumed); seeded faults roll on everything else.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// One-shot scripted faults, checked in order.
    pub script: Vec<ScriptedFault>,
    /// Background probabilistic faults.
    pub seeded: Option<SeededFaults>,
}

impl FaultPlan {
    /// No faults at all — `FaultFs` behaves like `RealFs` plus the
    /// durability shadow (the configuration the E16 overhead bench
    /// measures).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }
}

#[derive(Debug)]
struct PendingRename {
    from: PathBuf,
    to: PathBuf,
    prev_from: Option<Vec<u8>>,
    prev_to: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct FaultState {
    script: Vec<ScriptedFault>,
    seeded: Option<SeededFaults>,
    rng: Option<SplitMix64>,
    /// Per-path durable image: `Some(bytes)` = content a power loss
    /// preserves; `None` = the file durably does not exist.
    durable: HashMap<PathBuf, Option<Vec<u8>>>,
    /// Renames not yet committed by a directory fsync.
    pending_renames: Vec<PendingRename>,
    /// Paths whose fsync failed (fsyncgate): all later fsyncs fail too.
    fsync_poisoned: Vec<PathBuf>,
    /// Set by a torn write; everything fails until `simulate_crash`.
    powered_off: bool,
    /// Human-readable log of injected faults, for triage.
    injected: Vec<String>,
}

enum Verdict {
    Proceed,
    Fail(io::Error),
    Partial {
        keep: usize,
        error: io::Error,
        power_cut: bool,
    },
}

impl FaultState {
    /// First-touch tracking: content already on disk predates the
    /// injector and counts as durable.
    fn track(&mut self, path: &Path) {
        if !self.durable.contains_key(path) {
            let image = std::fs::read(path).ok();
            self.durable.insert(path.to_path_buf(), image);
        }
    }

    /// Size a partial write: scripted faults pass their `keep` through
    /// (clamped to a strict prefix); seeded faults size it by RNG.
    fn clamp_partial(&mut self, keep: usize, write_len: usize) -> usize {
        if write_len == 0 {
            0
        } else if keep >= write_len {
            let rng = self.rng.get_or_insert_with(|| SplitMix64::new(0));
            rng.next_below(write_len as u64) as usize
        } else {
            keep
        }
    }

    fn fault_for(&mut self, op: FaultOp, path: &Path) -> Option<FaultKind> {
        if let Some(i) = self.script.iter().position(|s| {
            s.op == op
                && (s.path_contains.is_empty()
                    || path.display().to_string().contains(&s.path_contains))
        }) {
            if self.script[i].skip > 0 {
                self.script[i].skip -= 1;
            } else {
                return Some(self.script.remove(i).kind);
            }
        }
        let seeded = self.seeded?;
        let rng = self.rng.get_or_insert_with(|| SplitMix64::new(seeded.seed));
        let roll = |rng: &mut SplitMix64, per_mille: u32| {
            per_mille > 0 && rng.next_below(1000) < u64::from(per_mille)
        };
        match op {
            FaultOp::Write => {
                if roll(rng, seeded.torn_write_per_mille) {
                    Some(FaultKind::TornWrite { keep: usize::MAX })
                } else if roll(rng, seeded.enospc_per_mille) {
                    Some(FaultKind::Enospc { keep: usize::MAX })
                } else if roll(rng, seeded.transient_per_mille) {
                    Some(FaultKind::Eintr)
                } else {
                    None
                }
            }
            FaultOp::Fsync => {
                if roll(rng, seeded.fsync_fail_per_mille) {
                    Some(FaultKind::FsyncFail)
                } else if roll(rng, seeded.transient_per_mille) {
                    Some(FaultKind::Eagain)
                } else {
                    None
                }
            }
            FaultOp::Open
            | FaultOp::Read
            | FaultOp::SetLen
            | FaultOp::Rename
            | FaultOp::SyncDir => {
                if roll(rng, seeded.transient_per_mille) {
                    Some(FaultKind::Eintr)
                } else {
                    None
                }
            }
        }
    }

    /// Decide what happens to one operation. `write_len` sizes partial
    /// faults for writes (0 for non-writes).
    fn decide(&mut self, op: FaultOp, path: &Path, write_len: usize) -> Verdict {
        if self.powered_off {
            return Verdict::Fail(io::Error::other(
                "simulated power loss: filesystem is down until crash recovery",
            ));
        }
        // fsyncgate: once an fsync on this path failed, the dirty pages
        // are gone; keep failing until the file is re-created.
        if op == FaultOp::Fsync && self.fsync_poisoned.iter().any(|p| p == path) {
            return Verdict::Fail(io::Error::other(
                "fsync failed earlier on this file (fsyncgate); clean state unrecoverable",
            ));
        }
        let Some(kind) = self.fault_for(op, path) else {
            return Verdict::Proceed;
        };
        let verdict = match kind {
            FaultKind::Eintr => Verdict::Fail(io::Error::from(io::ErrorKind::Interrupted)),
            FaultKind::Eagain => Verdict::Fail(io::Error::from(io::ErrorKind::WouldBlock)),
            FaultKind::Enospc { keep } => Verdict::Partial {
                keep: self.clamp_partial(keep, write_len),
                error: io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"),
                power_cut: false,
            },
            FaultKind::FsyncFail => {
                self.fsync_poisoned.push(path.to_path_buf());
                Verdict::Fail(io::Error::other("injected fsync failure"))
            }
            FaultKind::TornWrite { keep } => Verdict::Partial {
                keep: self.clamp_partial(keep, write_len),
                error: io::Error::other("injected torn write (power cut)"),
                power_cut: true,
            },
        };
        let label = match &verdict {
            Verdict::Fail(e) => format!("{op:?} {} -> {e}", path.display()),
            Verdict::Partial { keep, error, .. } => {
                format!("{op:?} {} -> {keep} byte(s) then {error}", path.display())
            }
            Verdict::Proceed => String::new(),
        };
        self.injected.push(label);
        verdict
    }
}

/// The deterministic fault injector. Wraps the real filesystem; see the
/// module docs for the fault model and the durability shadow. Cloning
/// is cheap and shares the fault state — handles, the store, and the
/// chaos driver all see one injector. Its mutex is the crate's only
/// lock, and `qbdp-store` does not depend on the pricing engine, so no
/// path can price, or take a second lock, while holding it.
#[derive(Clone, Debug)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultFs {
    /// A new injector over the real filesystem with `plan` armed.
    pub fn new(plan: FaultPlan) -> FaultFs {
        let fs = FaultFs {
            state: Arc::new(Mutex::new(FaultState::default())),
        };
        fs.locked().script = plan.script;
        fs.locked().seeded = plan.seeded;
        fs
    }

    // A poisoned mutex only means another thread panicked mid-update of
    // bookkeeping that the next reader can still use; recover the guard.
    fn locked(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replace the armed fault plan (keeps the durability shadow).
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut s = self.locked();
        s.script = plan.script;
        s.seeded = plan.seeded;
        s.rng = None;
    }

    /// Disarm all faults (keeps the durability shadow).
    pub fn clear_plan(&self) {
        self.set_plan(FaultPlan::none());
    }

    /// Human-readable log of every fault injected so far.
    pub fn injected_faults(&self) -> Vec<String> {
        self.locked().injected.clone()
    }

    /// How many faults have been injected so far.
    pub fn injected_count(&self) -> usize {
        self.locked().injected.len()
    }

    /// Whether a torn write has cut the power (everything fails until
    /// [`FaultFs::simulate_crash`]).
    pub fn powered_off(&self) -> bool {
        self.locked().powered_off
    }

    /// Simulate the machine dying and rebooting: every tracked file is
    /// restored to a state a real power loss could have left it in —
    /// the durable image, the current content, or the durable image
    /// plus a seeded-length prefix of the unsynced suffix (a torn
    /// tail). Uncommitted renames are rolled back or committed by the
    /// same seeded coin. Fsync poison and the power-cut flag clear (a
    /// reboot starts clean); the fault plan is left as armed.
    ///
    /// Callers must drop every open handle first: restoring rewrites
    /// the files on disk underneath them.
    pub fn simulate_crash(&self, seed: u64) -> io::Result<()> {
        let mut s = self.locked();
        let mut rng = SplitMix64::new(seed);
        // Roll back (or commit) pending renames, newest first, so the
        // durable map reflects the chosen outcome before files restore.
        while let Some(p) = s.pending_renames.pop() {
            if rng.next_below(2) == 0 {
                // Not committed: both paths revert to their pre-rename
                // durable images.
                s.durable.insert(p.from.clone(), p.prev_from);
                s.durable.insert(p.to.clone(), p.prev_to);
            }
            // Committed: the images moved at rename time already stand.
        }
        // Sorted: each path's draws must not depend on the map's order.
        let mut paths: Vec<PathBuf> = s.durable.keys().cloned().collect();
        paths.sort_unstable();
        for path in paths {
            let durable = s.durable.get(&path).and_then(|i| i.clone());
            let current = std::fs::read(&path).ok();
            let restored: Option<Vec<u8>> = match (durable, current) {
                (Some(d), Some(c)) => {
                    // The durable prefix survives; the unsynced suffix
                    // survives partially, fully, or not at all.
                    if c.len() > d.len() && c[..d.len()] == d[..] {
                        let extra = rng.next_below(c.len() as u64 - d.len() as u64 + 1) as usize;
                        Some(c[..d.len() + extra].to_vec())
                    } else if rng.next_below(2) == 0 {
                        Some(d)
                    } else {
                        Some(c)
                    }
                }
                (Some(d), None) => Some(d),
                (None, Some(c)) => {
                    // Never fsynced: the file may survive (metadata
                    // flushed by the OS) or vanish entirely.
                    if rng.next_below(2) == 0 {
                        None
                    } else {
                        let keep = rng.next_below(c.len() as u64 + 1) as usize;
                        Some(c[..keep].to_vec())
                    }
                }
                (None, None) => None,
            };
            match &restored {
                Some(bytes) => std::fs::write(&path, bytes)?,
                None => match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
            // After the reboot, what is on disk is what is durable.
            s.durable.insert(path, restored);
        }
        s.fsync_poisoned.clear();
        s.powered_off = false;
        Ok(())
    }

    /// Flip bits at `offset` of the on-disk (and durable) image of
    /// `path` — post-crash bit-rot, for exercising CRC detection.
    pub fn corrupt_byte(&self, path: &Path, offset: u64, xor: u8) -> io::Result<()> {
        let mut s = self.locked();
        let mut bytes = std::fs::read(path)?;
        let i = offset as usize;
        if i >= bytes.len() {
            return Err(io::Error::other("corrupt_byte offset past end of file"));
        }
        bytes[i] ^= xor;
        std::fs::write(path, &bytes)?;
        s.durable.insert(path.to_path_buf(), Some(bytes));
        s.injected.push(format!(
            "bit-rot {} @ {offset} ^ {xor:#04x}",
            path.display()
        ));
        Ok(())
    }
}

/// A handle through the injector: every operation consults the shared
/// fault state first.
struct FaultFile {
    inner: File,
    path: PathBuf,
    fs: FaultFs,
}

impl FaultFile {
    fn decide(&self, op: FaultOp, write_len: usize) -> Verdict {
        self.fs.locked().decide(op, &self.path, write_len)
    }

    fn fsync(&mut self, all: bool) -> io::Result<()> {
        match self.decide(FaultOp::Fsync, 0) {
            Verdict::Proceed => {}
            Verdict::Fail(e) | Verdict::Partial { error: e, .. } => return Err(e),
        }
        if all {
            self.inner.sync_all()?;
        } else {
            self.inner.sync_data()?;
        }
        // Success: the file's full current content is now durable.
        let image = std::fs::read(&self.path)?;
        self.fs
            .locked()
            .durable
            .insert(self.path.clone(), Some(image));
        Ok(())
    }
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.decide(FaultOp::Write, buf.len()) {
            Verdict::Proceed => self.inner.write_all(buf),
            Verdict::Fail(e) => Err(e),
            Verdict::Partial {
                keep,
                error,
                power_cut,
            } => {
                self.inner.write_all(&buf[..keep.min(buf.len())])?;
                if power_cut {
                    self.fs.locked().powered_off = true;
                }
                Err(error)
            }
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.fsync(false)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.fsync(true)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.decide(FaultOp::SetLen, 0) {
            Verdict::Proceed => self.inner.set_len(len),
            Verdict::Fail(e) | Verdict::Partial { error: e, .. } => Err(e),
        }
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<u64> {
        self.inner.seek(SeekFrom::Start(pos))
    }
}

impl Vfs for FaultFs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        {
            let mut s = self.locked();
            s.track(path);
            match s.decide(FaultOp::Open, path, 0) {
                Verdict::Proceed => {}
                Verdict::Fail(e) | Verdict::Partial { error: e, .. } => return Err(e),
            }
        }
        let inner = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            fs: self.clone(),
        }))
    }

    fn create_file(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        {
            let mut s = self.locked();
            s.track(path);
            match s.decide(FaultOp::Open, path, 0) {
                Verdict::Proceed => {}
                Verdict::Fail(e) | Verdict::Partial { error: e, .. } => return Err(e),
            }
            // A re-created file is a new inode: fsyncgate poison does
            // not follow it.
            s.fsync_poisoned.retain(|p| p != path);
        }
        let inner = File::create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            fs: self.clone(),
        }))
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        {
            let mut s = self.locked();
            s.track(path);
            match s.decide(FaultOp::Read, path, 0) {
                Verdict::Proceed => {}
                Verdict::Fail(e) | Verdict::Partial { error: e, .. } => return Err(e),
            }
        }
        std::fs::read(path)
    }

    fn rename_file(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.locked();
        s.track(from);
        s.track(to);
        match s.decide(FaultOp::Rename, to, 0) {
            Verdict::Proceed => {}
            Verdict::Fail(e) | Verdict::Partial { error: e, .. } => return Err(e),
        }
        std::fs::rename(from, to)?;
        // The rename is durable only once the directory is fsynced;
        // until then a crash may roll it back.
        let prev_from = s.durable.get(from).cloned().unwrap_or(None);
        let prev_to = s.durable.get(to).cloned().unwrap_or(None);
        s.pending_renames.push(PendingRename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            prev_from: prev_from.clone(),
            prev_to,
        });
        s.durable.insert(to.to_path_buf(), prev_from);
        s.durable.insert(from.to_path_buf(), None);
        // Poison follows the inode out of existence, not the name.
        s.fsync_poisoned.retain(|p| p != to && p != from);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.locked();
        if s.powered_off {
            return Err(io::Error::other("simulated power loss"));
        }
        std::fs::remove_file(path)?;
        // Model removal as immediately durable (the market only removes
        // a stale WAL before its genesis snapshot exists; resurrecting
        // it would be indistinguishable from an uninitialized dir).
        s.durable.insert(path.to_path_buf(), None);
        s.fsync_poisoned.retain(|p| p != path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.locked().powered_off {
            return Err(io::Error::other("simulated power loss"));
        }
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.locked();
        match s.decide(FaultOp::SyncDir, dir, 0) {
            Verdict::Proceed => {}
            Verdict::Fail(e) | Verdict::Partial { error: e, .. } => return Err(e),
        }
        // Commit pending renames inside this directory: they survive
        // any later crash.
        s.pending_renames
            .retain(|p| p.to.parent() != Some(dir) && p.from.parent() != Some(dir));
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        if self.locked().powered_off {
            return false;
        }
        path.exists()
    }
}

#[cfg(test)]
#[expect(
    clippy::unused_result_ok,
    reason = "test temp files and directories are removed best-effort"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qbdp_vfs_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let below: Vec<u64> = (0..100).map(|_| a.next_below(10)).collect();
        assert!(below.iter().all(|&v| v < 10));
        assert!(below.iter().collect::<std::collections::HashSet<_>>().len() > 3);
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let policy = RetryPolicy {
            attempts: 4,
            base_delay_micros: 1,
            max_delay_micros: 2,
            jitter_seed: 1,
        };
        let mut fails = 2;
        let out = policy.run("test-op", Path::new("x"), || {
            if fails > 0 {
                fails -= 1;
                Err(io::Error::from(io::ErrorKind::Interrupted))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.ok(), Some(42));
    }

    #[test]
    fn retry_exhaustion_is_typed_transient() {
        let policy = RetryPolicy {
            attempts: 3,
            base_delay_micros: 1,
            max_delay_micros: 2,
            jitter_seed: 1,
        };
        let mut calls = 0;
        let out: Result<(), StoreError> = policy.run("wal-append", Path::new("/tmp/x.wal"), || {
            calls += 1;
            Err(io::Error::from(io::ErrorKind::WouldBlock))
        });
        assert_eq!(calls, 3);
        match out {
            Err(StoreError::Transient { op, path, .. }) => {
                assert_eq!(op, "wal-append");
                assert!(path.contains("x.wal"));
            }
            other => panic!("expected Transient, got {other:?}"),
        }
    }

    #[test]
    fn retry_surfaces_fatal_immediately() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<(), StoreError> = policy.run("op", Path::new("x"), || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::StorageFull, "full"))
        });
        assert_eq!(calls, 1, "fatal errors must not be retried");
        assert!(matches!(out, Err(StoreError::Io(_))));
    }

    #[test]
    fn scripted_enospc_lands_a_strict_prefix() {
        let path = temp_path("enospc");
        let fs = FaultFs::new(FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Write,
                path_contains: "enospc".into(),
                skip: 1,
                kind: FaultKind::Enospc { keep: 3 },
            }],
            seeded: None,
        });
        let mut f = fs.open_rw(&path).unwrap();
        f.write_all(b"hello").unwrap(); // skip lets the first through
        let err = f.write_all(b"world").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hellowor");
        assert_eq!(fs.injected_count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsyncgate_poison_persists_until_recreate() {
        let path = temp_path("fsyncgate");
        let fs = FaultFs::new(FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Fsync,
                path_contains: String::new(),
                skip: 0,
                kind: FaultKind::FsyncFail,
            }],
            seeded: None,
        });
        let mut f = fs.open_rw(&path).unwrap();
        f.write_all(b"data").unwrap();
        assert!(f.sync_data().is_err(), "injected fsync failure");
        // The script is consumed, but fsyncgate keeps the file poisoned.
        assert!(f.sync_data().is_err(), "fsyncgate: still failing");
        assert!(f.sync_all().is_err());
        drop(f);
        // Re-creating the file is a new inode: fsync works again.
        let mut f = fs.create_file(&path).unwrap();
        f.write_all(b"fresh").unwrap();
        assert!(f.sync_data().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_restores_durable_image_and_drops_unsynced_suffix() {
        let path = temp_path("crash");
        let fs = FaultFs::new(FaultPlan::none());
        let mut f = fs.open_rw(&path).unwrap();
        f.write_all(b"durable!").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"-unsynced-tail").unwrap();
        drop(f);
        // Whatever the seeded coin picks, the durable prefix survives
        // and nothing beyond the written bytes appears.
        for seed in 0..20u64 {
            fs.simulate_crash(seed).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert!(bytes.len() >= 8, "durable prefix lost (seed {seed})");
            assert_eq!(&bytes[..8], b"durable!");
            assert!(bytes.len() <= 8 + 14);
            // Reset for the next round: crash made the restored state
            // durable, so re-append an unsynced tail.
            let mut f = fs.open_rw(&path).unwrap();
            f.set_len(8).unwrap();
            f.sync_data().unwrap();
            f.seek_to(8).unwrap();
            f.write_all(b"-unsynced-tail").unwrap();
            drop(f);
        }
        std::fs::remove_file(&path).ok();
    }

    /// The same write history crashed with the same seed restores the
    /// same bytes, whatever order each instance's map holds its paths in.
    #[test]
    fn the_same_crash_seed_restores_the_same_files() {
        const FILES: usize = 10;
        let restore = |seed: u64| -> Vec<Option<Vec<u8>>> {
            let dir = temp_path("crash_seed");
            std::fs::create_dir_all(&dir).unwrap();
            let fs = FaultFs::new(FaultPlan::none());
            for i in 0..FILES {
                let mut f = fs.open_rw(&dir.join(format!("f{i}"))).unwrap();
                f.write_all(b"durable-").unwrap();
                f.sync_data().unwrap();
                f.write_all(&[b'x'; 64]).unwrap();
            }
            fs.simulate_crash(seed).unwrap();
            let files = (0..FILES)
                .map(|i| std::fs::read(dir.join(format!("f{i}"))).ok())
                .collect();
            std::fs::remove_dir_all(&dir).ok();
            files
        };
        for seed in 0..4u64 {
            assert_eq!(restore(seed), restore(seed), "seed {seed}");
        }
    }

    #[test]
    fn torn_write_cuts_the_power() {
        let path = temp_path("torn");
        let fs = FaultFs::new(FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Write,
                path_contains: String::new(),
                skip: 0,
                kind: FaultKind::TornWrite { keep: 2 },
            }],
            seeded: None,
        });
        let mut f = fs.open_rw(&path).unwrap();
        let err = f.write_all(b"abcdef").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert!(fs.powered_off());
        // Everything fails until the crash is simulated.
        assert!(f.write_all(b"x").is_err());
        assert!(f.sync_data().is_err());
        assert!(fs.read_file(&path).is_err());
        drop(f);
        fs.simulate_crash(3).unwrap();
        assert!(!fs.powered_off());
        // The file never had an fsync: it holds at most the torn bytes.
        let bytes = std::fs::read(&path).unwrap_or_default();
        assert!(bytes.len() <= 2, "{bytes:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncommitted_rename_may_roll_back_committed_never_does() {
        // Committed: a dir fsync after the rename pins it.
        let to = temp_path("ren_committed");
        let from = to.with_extension("tmp");
        let fs = FaultFs::new(FaultPlan::none());
        let mut f = fs.create_file(&from).unwrap();
        f.write_all(b"new").unwrap();
        f.sync_all().unwrap();
        drop(f);
        fs.rename_file(&from, &to).unwrap();
        fs.sync_dir(to.parent().unwrap()).unwrap();
        for seed in 0..10 {
            fs.simulate_crash(seed).unwrap();
            assert_eq!(std::fs::read(&to).unwrap(), b"new", "seed {seed}");
        }
        std::fs::remove_file(&to).ok();

        // Uncommitted: some seed rolls the rename back.
        let to2 = temp_path("ren_pending");
        let from2 = to2.with_extension("tmp");
        let mut rolled_back = false;
        let mut survived = false;
        for seed in 0..20 {
            std::fs::write(&to2, b"old").unwrap();
            let fs = FaultFs::new(FaultPlan::none());
            let mut f = fs.create_file(&from2).unwrap();
            f.write_all(b"new").unwrap();
            f.sync_all().unwrap();
            drop(f);
            fs.rename_file(&from2, &to2).unwrap();
            fs.simulate_crash(seed).unwrap();
            match std::fs::read(&to2).unwrap().as_slice() {
                b"old" => rolled_back = true,
                b"new" => survived = true,
                other => panic!("torn hybrid after rename: {other:?}"),
            }
        }
        assert!(rolled_back, "no seed rolled the uncommitted rename back");
        assert!(survived, "no seed let the uncommitted rename survive");
        std::fs::remove_file(&to2).ok();
        std::fs::remove_file(&from2).ok();
    }

    #[test]
    fn corrupt_byte_flips_on_disk_and_durable_image() {
        let path = temp_path("rot");
        let fs = FaultFs::new(FaultPlan::none());
        let mut f = fs.open_rw(&path).unwrap();
        f.write_all(b"pristine").unwrap();
        f.sync_data().unwrap();
        drop(f);
        fs.corrupt_byte(&path, 0, 0x20).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"Pristine");
        // The rot is durable: a crash does not undo it.
        fs.simulate_crash(1).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"Pristine");
        assert!(fs.corrupt_byte(&path, 999, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_faults_fire_deterministically() {
        let run = |seed: u64| {
            let path = temp_path(&format!("seeded{seed}"));
            let fs = FaultFs::new(FaultPlan {
                script: vec![],
                seeded: Some(SeededFaults {
                    seed,
                    transient_per_mille: 300,
                    enospc_per_mille: 100,
                    fsync_fail_per_mille: 100,
                    torn_write_per_mille: 0,
                }),
            });
            let mut f = fs.open_rw(&path).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..50 {
                outcomes.push(f.write_all(&[i]).is_ok());
                outcomes.push(f.sync_data().is_ok());
            }
            drop(f);
            std::fs::remove_file(&path).ok();
            (outcomes, fs.injected_count())
        };
        let (a, fa) = run(11);
        let (b, fb) = run(11);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(fa, fb);
        assert!(fa > 0, "rates this high must inject something");
        let (c, _) = run(12);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn real_fs_roundtrip() {
        let path = temp_path("realfs");
        let fs = RealFs;
        let mut f = fs.create_file(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert!(fs.exists(&path));
        assert_eq!(fs.read_file(&path).unwrap(), b"abc");
        let to = path.with_extension("renamed");
        fs.rename_file(&path, &to).unwrap();
        fs.sync_dir(to.parent().unwrap()).unwrap();
        assert!(!fs.exists(&path));
        let mut f = fs.open_rw(&to).unwrap();
        f.set_len(1).unwrap();
        f.seek_to(1).unwrap();
        f.write_all(b"z").unwrap();
        f.flush().unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(fs.read_file(&to).unwrap(), b"az");
        fs.remove_file(&to).unwrap();
    }
}
