//! Crash-safe disk persistence for the cross-run [`FactorStore`].
//!
//! Persistence is two cooperating artifacts:
//!
//! **Snapshot** (`<path>`): one versioned JSON document holding every
//! store entry, each wrapped with a per-entry checksum, plus a footer
//! checksum over the whole entry list:
//!
//! ```json
//! {"version": 2,
//!  "entries": [ {"entry": {"opts_fp": …, "fingerprint": …, "box_bits": […],
//!                "profile_bits": […], "mean_bits": …, "variance_bits": …},
//!               "crc": …}, … ],
//!  "footer_crc": …}
//! ```
//!
//! **Write-ahead log** (`<path>.wal`): one checksummed JSON line per
//! *fresh* factor insert, appended (and flushed) the moment the analyzer
//! deposits the estimate — long before the next snapshot. Each line is a
//! `{"entry": …, "crc": …}` object identical to a snapshot entry.
//!
//! Recovery on [`PersistentStore::open`] is fail-soft at every layer:
//!
//! 1. Load the snapshot. Entries whose checksum does not match are
//!    *skipped and counted* — one flipped bit costs one entry, not the
//!    whole cache. A footer mismatch is recorded but does not discard
//!    the per-entry survivors. A wrong version or unparseable document
//!    degrades to a cold snapshot (the WAL is still replayed).
//! 2. Replay the WAL line by line: valid lines are absorbed, corrupt
//!    complete lines are skipped and counted, and a torn tail (a final
//!    partial line from a crash mid-append) is truncated away so later
//!    appends start on a clean boundary.
//!
//! The outcome is summarized in a [`RecoveryReport`] surfaced through
//! serviced startup logs and the `health` protocol op.
//!
//! Estimates are stored as exact `f64` bits, so recovery is
//! observationally invisible: a warm restart answers recurring factors
//! with the bit-identical estimates the original process computed —
//! whether they came from the snapshot or from WAL replay.
//!
//! Saving writes a sibling `.tmp` file and renames it into place, then
//! truncates the WAL (its entries are now in the snapshot); a crash at
//! any point leaves either the old snapshot + full WAL or the new
//! snapshot + empty WAL loadable. The WAL lock is held across the whole
//! sequence so inserts racing a snapshot land in the post-truncation WAL
//! (replaying an entry the snapshot already holds is idempotent).

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use qcoral::{FactorStore, FactorStoreEntry};
use qcoral_failpoints::failpoint;
use qcoral_obs::{log, Histogram, Registry};

/// Version of the snapshot document. Bumped on any change to the entry
/// or checksum schema; older snapshots are discarded (cold start) rather
/// than misinterpreted. Version history:
///
/// - 1: plain entry list, no checksums, no WAL.
/// - 2: per-entry + footer checksums, sibling write-ahead log.
pub const SNAPSHOT_VERSION: u32 = 2;

#[derive(Serialize, Deserialize)]
struct Snapshot {
    version: u32,
    entries: Vec<SnapshotEntry>,
    footer_crc: u64,
}

/// One checksummed store entry — the unit of both the snapshot entry
/// list and the WAL (one JSON line each).
#[derive(Serialize, Deserialize)]
struct SnapshotEntry {
    entry: FactorStoreEntry,
    /// FNV-1a over the canonical JSON encoding of `entry`.
    crc: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Checksum of one entry: FNV-1a over its canonical JSON text. The serde
/// shim emits struct fields in declaration order, so the encoding is
/// deterministic.
fn entry_crc(entry: &FactorStoreEntry) -> u64 {
    let text = serde_json::to_string(entry).expect("entry serializes");
    fnv1a(FNV_OFFSET, text.as_bytes())
}

/// Footer checksum: FNV-1a over the entry count and every entry crc, so
/// a dropped/duplicated/reordered entry is detected even when each
/// surviving entry is individually intact.
fn footer_crc(entries: &[SnapshotEntry]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(entries.len() as u64).to_le_bytes());
    for e in entries {
        h = fnv1a(h, &e.crc.to_le_bytes());
    }
    h
}

/// Writes the snapshot document of `entries` to `out`, one entry at a
/// time: the bytes of `serde_json::to_string(&Snapshot { .. })`, without
/// holding the document in memory. Each entry is serialized once; that
/// text is both checksummed and written.
fn write_snapshot_doc(entries: Vec<FactorStoreEntry>, out: &mut impl Write) -> io::Result<()> {
    let mut footer = fnv1a(FNV_OFFSET, &(entries.len() as u64).to_le_bytes());
    write!(out, "{{\"version\":{SNAPSHOT_VERSION},\"entries\":[")?;
    for (i, entry) in entries.into_iter().enumerate() {
        let text = serde_json::to_string(&entry).expect("entry serializes");
        let crc = fnv1a(FNV_OFFSET, text.as_bytes());
        footer = fnv1a(footer, &crc.to_le_bytes());
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}{{\"entry\":{text},\"crc\":{crc}}}")?;
    }
    write!(out, "],\"footer_crc\":{footer}}}")
}

/// The sibling write-ahead log path for a snapshot path: the snapshot
/// file name with `.wal` appended (`store.json` → `store.json.wal`).
pub fn wal_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

/// Encodes one factor-store entry as a WAL line (no trailing newline).
/// Exposed so benches and tests can synthesize WAL files that recovery
/// accepts.
pub fn encode_wal_line(entry: &FactorStoreEntry) -> String {
    let wrapped = SnapshotEntry {
        crc: entry_crc(entry),
        entry: entry.clone(),
    };
    serde_json::to_string(&wrapped).expect("wal entry serializes")
}

/// What [`PersistentStore::open`] found on disk and how much of it
/// survived validation. All counters are zero / false for a fresh path
/// or an in-memory store.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot document of the current version was parsed.
    pub snapshot_loaded: bool,
    /// Entries absorbed from the snapshot.
    pub snapshot_entries: u64,
    /// Snapshot entries dropped for a checksum mismatch or failed
    /// estimate validation.
    pub snapshot_corrupt_entries: u64,
    /// The snapshot's footer checksum did not match its entry list
    /// (entries with valid per-entry checksums were still absorbed).
    pub footer_mismatch: bool,
    /// WAL lines absorbed on top of the snapshot.
    pub wal_replayed_entries: u64,
    /// Complete WAL lines dropped for a checksum/parse/validation
    /// failure.
    pub wal_corrupt_entries: u64,
    /// The WAL ended in a partial line (crash mid-append); the tail was
    /// truncated away.
    pub wal_torn_tail: bool,
}

impl RecoveryReport {
    /// `true` when any persisted state survived into the warm store.
    pub fn recovered(&self) -> bool {
        self.snapshot_entries > 0 || self.wal_replayed_entries > 0
    }

    /// `true` when recovery dropped something it found on disk.
    pub fn lossy(&self) -> bool {
        self.snapshot_corrupt_entries > 0 || self.wal_corrupt_entries > 0 || self.footer_mismatch
    }
}

/// A [`FactorStore`] bound to an optional snapshot path (plus its WAL).
pub struct PersistentStore {
    store: Arc<FactorStore>,
    path: Option<PathBuf>,
    /// Serializes snapshot writes: the save methods can be called
    /// concurrently (persist timer, shutdown, tools), and both the dirty
    /// check and the shared `.tmp`-then-rename pair must happen under
    /// one lock, or overlapping saves could interleave and rename a torn
    /// file into place.
    save_state: Mutex<SaveState>,
    /// Shared with the store's insert hook; see [`WalState`].
    wal: Arc<Mutex<WalState>>,
    recovery: RecoveryReport,
    /// Wall time of each snapshot write (tmp write + rename + WAL
    /// truncation), microseconds. Per-instance; the server registers it
    /// via [`PersistentStore::register_metrics`].
    save_duration_us: Arc<Histogram>,
}

struct SaveState {
    saved_revision: u64,
}

/// WAL writer state, shared between the [`PersistentStore`] (which
/// truncates after snapshots) and the factor store's insert hook (which
/// appends). The mutex doubles as the snapshot/append ordering fence:
/// `write_snapshot` holds it across entries() + write + rename +
/// truncate, so an insert either lands in the snapshotted entry set or
/// appends to the freshly truncated WAL — never falls between.
struct WalState {
    path: Option<PathBuf>,
}

/// Cumulative count of WAL append attempts that failed with an I/O
/// error (including injected ones). The entry is still safe in memory
/// and reaches disk with the next snapshot; the counter surfaces the
/// reduced crash-durability window through `health`.
static WAL_APPEND_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Cumulative WAL append failures across all stores in this process
/// (see [`PersistentStore::wal_append_failures`]).
pub fn wal_append_failures() -> u64 {
    WAL_APPEND_FAILURES.load(Ordering::Relaxed)
}

fn append_wal_line(path: &Path, line: &str) -> io::Result<()> {
    if failpoint!("store.wal.append") {
        return Err(io::Error::other("injected wal append failure"));
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    // One write() call per line: the OS page cache preserves it across a
    // process kill, and a machine crash can only tear the final line —
    // which recovery truncates.
    file.write_all(&buf)
}

impl PersistentStore {
    /// Opens the store, recovering `path` (snapshot, then WAL replay) if
    /// it holds prior state — see the module docs for the fail-soft
    /// semantics. `path: None` gives a purely in-memory store with the
    /// same interface.
    pub fn open(path: Option<PathBuf>, cap: usize) -> PersistentStore {
        let store = Arc::new(FactorStore::new(cap));
        let mut recovery = RecoveryReport::default();
        if let Some(p) = &path {
            recovery = recover(&store, p);
        }
        let wal = Arc::new(Mutex::new(WalState {
            path: path.as_deref().map(wal_path),
        }));
        if path.is_some() {
            // From here on, every fresh analyzer insert is logged before
            // the next snapshot can capture it. `absorb` (used by
            // recovery above and by future snapshot loads) bypasses the
            // hook, so replayed entries are not re-appended.
            let wal_hook = Arc::clone(&wal);
            store.set_insert_hook(Some(Box::new(move |entry: &FactorStoreEntry| {
                let line = encode_wal_line(entry);
                let state = wal_hook.lock().expect("wal state");
                if let Some(p) = &state.path {
                    if append_wal_line(p, &line).is_err() {
                        WAL_APPEND_FAILURES.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })));
        }
        PersistentStore {
            save_state: Mutex::new(SaveState {
                saved_revision: store.revision(),
            }),
            store,
            path,
            wal,
            recovery,
            save_duration_us: Histogram::new(),
        }
    }

    /// Registers this store's persistence metrics
    /// (`qcoral_store_save_duration_us`) into `registry`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_histogram(
            "qcoral_store_save_duration_us",
            "Factor-store snapshot write time (tmp write + rename + WAL truncation), microseconds.",
            Arc::clone(&self.save_duration_us),
        );
    }

    /// The in-memory store (attach to analyzers via
    /// `Analyzer::with_factor_store`).
    pub fn factor_store(&self) -> &Arc<FactorStore> {
        &self.store
    }

    /// The snapshot path, if persistence is enabled.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// What [`PersistentStore::open`] recovered from disk.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Cumulative WAL append failures in this process (in-memory state
    /// stays correct; crash durability until the next snapshot is what
    /// suffers).
    pub fn wal_append_failures(&self) -> u64 {
        wal_append_failures()
    }

    /// Saves a snapshot if the store changed since the last save.
    /// Returns whether a write happened. No-op without a path.
    pub fn save_if_dirty(&self) -> io::Result<bool> {
        if self.path.is_none() {
            return Ok(false);
        }
        let mut state = self.save_state.lock().expect("save state");
        self.save_locked(&mut state)
    }

    /// Unconditionally writes the snapshot. No-op without a path.
    pub fn save(&self) -> io::Result<()> {
        if self.path.is_none() {
            return Ok(());
        }
        let mut state = self.save_state.lock().expect("save state");
        let rev = self.store.revision();
        self.write_snapshot()?;
        state.saved_revision = rev;
        Ok(())
    }

    /// Dirty-checked save; the caller holds the save lock, so exactly one
    /// snapshot write is in flight at a time.
    fn save_locked(&self, state: &mut SaveState) -> io::Result<bool> {
        // Revision is read before the entries are snapshotted: inserts
        // racing the write may land in the file but not in
        // `saved_revision`, which at worst re-saves them next round.
        let rev = self.store.revision();
        if rev == state.saved_revision {
            return Ok(false);
        }
        self.write_snapshot()?;
        state.saved_revision = rev;
        Ok(true)
    }

    /// The actual tmp-file + rename write, followed by WAL truncation.
    /// Callers must hold the save lock (see `save_state`); the WAL lock
    /// is taken here for the duration so no insert can slip between "in
    /// the snapshotted entry set" and "in the WAL". The document is
    /// streamed to the tmp file (see `write_snapshot_doc`), so a save
    /// never holds more than the store's entries and one entry's text.
    fn write_snapshot(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let t0 = Instant::now();
        let wal = self.wal.lock().expect("wal state");
        let entries = self.store.entries();
        let tmp = path.with_extension("tmp");
        if failpoint!("store.snapshot.write") {
            return Err(io::Error::other("injected snapshot write failure"));
        }
        let mut out = BufWriter::new(File::create(&tmp)?);
        write_snapshot_doc(entries, &mut out)?;
        out.flush()?;
        drop(out);
        if failpoint!("store.snapshot.rename") {
            return Err(io::Error::other("injected snapshot rename failure"));
        }
        std::fs::rename(&tmp, path)?;
        // The snapshot now covers everything the WAL held; clear it so
        // replay work and file size stay proportional to the window
        // since the last snapshot. Failure to truncate is harmless
        // (replay is idempotent) so the error is not propagated as a
        // failed save.
        if let Some(wal_p) = &wal.path {
            let _ = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(wal_p);
        }
        self.save_duration_us
            .record(t0.elapsed().as_micros() as u64);
        Ok(())
    }
}

/// Loads snapshot + WAL into `store`, truncating a torn WAL tail.
fn recover(store: &FactorStore, path: &Path) -> RecoveryReport {
    let mut report = RecoveryReport::default();

    // Phase 1: snapshot. A missing file is a quiet first run; anything
    // else that fails wholesale is reported and degrades to a cold
    // snapshot, with the WAL still replayed on top.
    if let Ok(text) = std::fs::read_to_string(path) {
        match serde_json::from_str::<Snapshot>(&text) {
            Ok(snap) if snap.version == SNAPSHOT_VERSION => {
                report.snapshot_loaded = true;
                report.footer_mismatch = footer_crc(&snap.entries) != snap.footer_crc;
                let total = snap.entries.len() as u64;
                let valid = snap
                    .entries
                    .into_iter()
                    .filter(|se| entry_crc(&se.entry) == se.crc)
                    .map(|se| se.entry);
                report.snapshot_entries = store.absorb(valid) as u64;
                report.snapshot_corrupt_entries = total - report.snapshot_entries;
            }
            Ok(snap) => log::warn(
                "snapshot_version_mismatch",
                &[
                    ("path", path.display().to_string()),
                    ("found", snap.version.to_string()),
                    ("want", SNAPSHOT_VERSION.to_string()),
                    ("action", "starting cold".to_string()),
                ],
            ),
            Err(e) => log::warn(
                "snapshot_unreadable",
                &[
                    ("path", path.display().to_string()),
                    ("error", e.to_string()),
                    ("action", "starting cold".to_string()),
                ],
            ),
        }
    }

    // Phase 2: WAL replay. Only a crash between an insert and the next
    // snapshot leaves lines here; each is validated independently.
    let wal_p = wal_path(path);
    if let Ok(bytes) = std::fs::read(&wal_p) {
        // A torn tail is everything after the final newline: an append
        // is a single write() of `line + '\n'`, so only the last record
        // can be partial and completeness is exactly newline-termination.
        let complete_len = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(pos) => pos + 1,
            None => 0,
        };
        if complete_len < bytes.len() {
            report.wal_torn_tail = true;
            let _ = OpenOptions::new()
                .write(true)
                .open(&wal_p)
                .and_then(|f| f.set_len(complete_len as u64));
        }
        for line in bytes[..complete_len].split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(line)
                .ok()
                .and_then(|s| serde_json::from_str::<SnapshotEntry>(s).ok())
                .filter(|se| entry_crc(&se.entry) == se.crc);
            let absorbed = parsed.is_some_and(|se| store.absorb([se.entry]) == 1);
            if absorbed {
                report.wal_replayed_entries += 1;
            } else {
                report.wal_corrupt_entries += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> FactorStoreEntry {
        FactorStoreEntry {
            opts_fp: 0xfeed ^ i,
            fingerprint: u128::from(i) << 70 | 3,
            box_bits: vec![0.0f64.to_bits(), (1.0 + i as f64).to_bits()],
            profile_bits: vec![i, u64::MAX - i],
            mean_bits: (0.25 * i as f64).to_bits(),
            variance_bits: 1e-9f64.to_bits(),
        }
    }

    /// What the writer streams: the document it replaced, built whole.
    fn whole_document(entries: &[FactorStoreEntry]) -> String {
        let entries: Vec<SnapshotEntry> = entries
            .iter()
            .map(|entry| SnapshotEntry {
                crc: entry_crc(entry),
                entry: entry.clone(),
            })
            .collect();
        let snap = Snapshot {
            version: SNAPSHOT_VERSION,
            footer_crc: footer_crc(&entries),
            entries,
        };
        serde_json::to_string(&snap).expect("snapshot serializes")
    }

    #[test]
    fn streamed_snapshot_matches_the_whole_document() {
        for n in [0u64, 1, 7] {
            let entries: Vec<FactorStoreEntry> = (0..n).map(entry).collect();
            let mut streamed = Vec::new();
            write_snapshot_doc(entries.clone(), &mut streamed).expect("in-memory write");
            assert_eq!(
                String::from_utf8(streamed).expect("utf-8"),
                whole_document(&entries),
                "{n} entries"
            );
        }
    }

    #[test]
    fn saved_snapshot_matches_the_whole_document() {
        let path =
            std::env::temp_dir().join(format!("qcoral-store-stream-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = PersistentStore::open(Some(path.clone()), 64);
        store.save().expect("empty save");
        let empty = std::fs::read_to_string(&path).expect("snapshot");
        assert_eq!(empty, whole_document(&[]));
        store.factor_store().absorb((0..5).map(entry));
        store.save().expect("populated save");
        let full = std::fs::read_to_string(&path).expect("snapshot");
        assert_eq!(full, whole_document(&store.factor_store().entries()));
        let reopened = PersistentStore::open(Some(path.clone()), 64);
        assert_eq!(reopened.recovery_report().snapshot_entries, 5);
        assert!(!reopened.recovery_report().lossy());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path(&path));
    }
}
