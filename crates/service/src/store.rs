//! Crash-safe disk persistence for the cross-run [`FactorStore`].
//!
//! Both files hold one record format: a *record* is one checksummed
//! store entry on one JSON line, `{"entry":{…},"crc":…}`, where `crc` is
//! FNV-1a over the entry's JSON text. One encoder ([`encode_wal_line`])
//! writes every record and one streaming line reader reads both files.
//!
//! **Write-ahead log** (`<path>.wal`): one record per *fresh* factor
//! insert, appended the moment the analyzer deposits the estimate.
//!
//! **Snapshot** (`<path>`): a compacted WAL. Line 1 is the version
//! header, then comes one record per store entry (least recently used
//! first, each byte-identical to its WAL line), and the last line is a
//! footer with the record count and a checksum over the record crcs in
//! order:
//!
//! ```text
//! {"version":3}
//! {"entry":{"opts_fp":…,"fingerprint":…,"box_bits":[…],"profile_bits":[…],"mean_bits":…,"variance_bits":…},"crc":…}
//! …
//! {"records":…,"footer_crc":…}
//! ```
//!
//! Recovery on [`PersistentStore::open`] reads one line at a time, so a
//! restart holds the store plus one record line, and is fail-soft:
//!
//! 1. Load the snapshot. A first line that is not this version's header
//!    (every v2 document) means a cold snapshot, without parsing further.
//!    Records whose checksum does not match are *skipped and counted* —
//!    one flipped bit costs one entry, not the whole cache. A footer
//!    mismatch (a record dropped, duplicated or reordered) is recorded
//!    but keeps the per-record survivors.
//! 2. Replay the WAL: valid lines are absorbed, corrupt complete lines
//!    are skipped and counted, and a torn tail (a final partial line
//!    from a crash mid-append) is truncated away so later appends start
//!    on a clean boundary.
//!
//! The outcome is a [`RecoveryReport`], surfaced through serviced
//! startup logs and the `Status` protocol op. Estimates are stored as
//! exact `f64` bits, so a warm restart answers recurring factors with
//! the bit-identical estimates the original process computed.
//!
//! Saving streams the records to a sibling `.tmp` file, renames it into
//! place, then truncates the WAL; a crash at any point leaves either the
//! old snapshot + full WAL or the new snapshot + empty WAL loadable. The
//! WAL lock is held across the whole sequence so inserts racing a
//! snapshot land in the post-truncation WAL (replaying an entry the
//! snapshot already holds is idempotent).

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use qcoral::{FactorStore, FactorStoreEntry};
use qcoral_failpoints::failpoint;
use qcoral_obs::{log, Counter, Histogram, Registry};

/// Version of the snapshot format. Bumped on any change to the record
/// or checksum schema; a snapshot of another version is discarded (cold
/// start) rather than misinterpreted. Version history:
///
/// - 1: plain entry list, no checksums, no WAL.
/// - 2: one JSON document with per-entry + footer checksums, sibling
///   write-ahead log.
/// - 3: the WAL's record lines between a version header and a footer
///   line, read one line at a time. A v2 document starts cold.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The snapshot's first line.
fn snapshot_header() -> String {
    format!("{{\"version\":{SNAPSHOT_VERSION}}}")
}

/// One checksummed store entry: a line of the WAL and of the snapshot.
#[derive(Deserialize)]
struct Record {
    entry: FactorStoreEntry,
    /// FNV-1a over the entry's JSON text.
    crc: u64,
}

impl Record {
    /// The entry still matches its checksum.
    fn intact(&self) -> bool {
        encode_record(&self.entry).1 == self.crc
    }
}

/// The snapshot's last line: the record count and FNV-1a over the record
/// crcs in order, so a dropped, duplicated or reordered record is
/// detected even when every surviving line is intact.
#[derive(Serialize, Deserialize, PartialEq)]
struct Footer {
    records: u64,
    footer_crc: u64,
}

/// The footer of zero records.
const NO_RECORDS: Footer = Footer {
    records: 0,
    footer_crc: FNV_OFFSET,
};

impl Footer {
    /// Counts one more record and folds in its crc.
    fn push(&mut self, crc: u64) {
        self.records += 1;
        self.footer_crc = fnv1a(self.footer_crc, &crc.to_le_bytes());
    }
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

/// Encodes one entry as a record line (no trailing newline) and returns
/// it with its crc. The entry is serialized once, and that text is both
/// checksummed and written; the serde shim emits struct fields in
/// declaration order, so the text is canonical.
fn encode_record(entry: &FactorStoreEntry) -> (String, u64) {
    let text = serde_json::to_string(entry).expect("entry serializes");
    let crc = fnv1a(FNV_OFFSET, text.as_bytes());
    (format!("{{\"entry\":{text},\"crc\":{crc}}}"), crc)
}

/// Encodes one factor-store entry as a record line (no trailing
/// newline), the same for the WAL and the snapshot. Exposed so benches
/// and tests can synthesize WAL files that recovery accepts.
pub fn encode_wal_line(entry: &FactorStoreEntry) -> String {
    encode_record(entry).0
}

/// The sibling write-ahead log path for a snapshot path: the snapshot
/// file name with `.wal` appended (`store.json` → `store.json.wal`).
pub fn wal_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

/// Parses one line as a `T`; `None` if it is not UTF-8 or not a `T`.
fn parse_line<T: Deserialize>(line: &[u8]) -> Option<T> {
    serde_json::from_str(std::str::from_utf8(line).ok()?).ok()
}

/// Streams `reader` one line at a time (`BufRead::read_until`), passing
/// each complete non-empty line, without its newline, to `each`. Returns
/// the byte length of the complete-line prefix and whether a partial
/// final line (no newline) followed it.
fn read_lines(mut reader: impl BufRead, mut each: impl FnMut(&[u8])) -> io::Result<(u64, bool)> {
    let mut line = Vec::new();
    let mut complete = 0u64;
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok((complete, false));
        }
        if line.pop() != Some(b'\n') {
            return Ok((complete, true));
        }
        complete += n as u64;
        if !line.is_empty() {
            each(&line);
        }
    }
}

/// What [`PersistentStore::open`] found on disk and how much of it
/// survived validation. All counters are zero / false for a fresh path
/// or an in-memory store.
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot of the current version was read (its header matched).
    pub snapshot_loaded: bool,
    /// Entries absorbed from the snapshot.
    pub snapshot_entries: u64,
    /// Snapshot records dropped for a checksum mismatch, a parse failure
    /// or failed estimate validation.
    pub snapshot_corrupt_entries: u64,
    /// The snapshot's footer did not match its record list (records with
    /// valid per-record checksums were still absorbed).
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
    /// The store revision the last snapshot captured. The mutex also
    /// serializes snapshot writes: the save methods can be called
    /// concurrently (persist timer, shutdown, tools), and both the dirty
    /// check and the shared `.tmp`-then-rename pair must happen under
    /// one lock, or overlapping saves could interleave and rename a torn
    /// file into place.
    saved_revision: Mutex<u64>,
    /// The WAL path, shared with the store's insert hook (which appends).
    /// The mutex doubles as the snapshot/append ordering fence:
    /// `write_snapshot` holds it across entries() + write + rename +
    /// truncate, so an insert either lands in the snapshotted entry set
    /// or appends to the freshly truncated WAL — never falls between.
    wal: Arc<Mutex<Option<PathBuf>>>,
    recovery: RecoveryReport,
    /// Wall time of each snapshot write (tmp write + rename + WAL
    /// truncation), microseconds. Per-instance; the server registers it
    /// via [`PersistentStore::register_metrics`].
    save_duration_us: Arc<Histogram>,
    /// WAL appends that failed with an I/O error (injected ones
    /// included), counted by the insert hook.
    wal_append_failures: Arc<Counter>,
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
            load_snapshot(&store, p, &mut recovery);
            replay_wal(&store, &wal_path(p), &mut recovery);
        }
        let wal = Arc::new(Mutex::new(path.as_deref().map(wal_path)));
        let wal_append_failures = Counter::new();
        if path.is_some() {
            // From here on, every fresh analyzer insert is logged before
            // the next snapshot can capture it. `absorb` (used by
            // recovery above) bypasses the hook, so replayed entries are
            // not re-appended.
            let wal_hook = Arc::clone(&wal);
            let failures = Arc::clone(&wal_append_failures);
            store.set_insert_hook(Some(Box::new(move |entry: &FactorStoreEntry| {
                let line = encode_wal_line(entry);
                let wal = wal_hook.lock().expect("wal state");
                if let Some(p) = &*wal {
                    if append_wal_line(p, &line).is_err() {
                        failures.inc();
                    }
                }
            })));
        }
        // Records replayed from the WAL are not in the snapshot yet, so
        // the store starts dirty and the next save compacts them.
        let saved_revision = match recovery.wal_replayed_entries {
            0 => store.revision(),
            _ => u64::MAX,
        };
        PersistentStore {
            saved_revision: Mutex::new(saved_revision),
            store,
            path,
            wal,
            recovery,
            save_duration_us: Histogram::new(),
            wal_append_failures,
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

    /// What [`PersistentStore::open`] recovered from disk.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// WAL appends of this store that failed since it was opened
    /// (in-memory state stays correct; crash durability until the next
    /// snapshot is what suffers).
    pub fn wal_append_failures(&self) -> u64 {
        self.wal_append_failures.get()
    }

    /// Saves a snapshot if the store changed since the last save.
    /// Returns whether a write happened. No-op without a path.
    pub fn save_if_dirty(&self) -> io::Result<bool> {
        self.save_locked(true)
    }

    /// Unconditionally writes the snapshot. No-op without a path.
    pub fn save(&self) -> io::Result<()> {
        self.save_locked(false).map(drop)
    }

    /// Writes the snapshot under the save lock, so exactly one write is
    /// in flight at a time; with `only_if_dirty`, only if the store
    /// changed since the last save.
    fn save_locked(&self, only_if_dirty: bool) -> io::Result<bool> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        let mut saved = self.saved_revision.lock().expect("save state");
        // Revision is read before the entries are snapshotted: inserts
        // racing the write may land in the file but not in `saved`,
        // which at worst re-saves them next round.
        let rev = self.store.revision();
        if only_if_dirty && rev == *saved {
            return Ok(false);
        }
        self.write_snapshot(path)?;
        *saved = rev;
        Ok(true)
    }

    /// The actual tmp-file + rename write, followed by WAL truncation.
    /// Callers hold the save lock; the WAL lock is taken here for the
    /// duration so no insert can slip between "in the snapshotted entry
    /// set" and "in the WAL". Records are streamed one at a time, so a
    /// save never holds more than the store's entries and one record.
    fn write_snapshot(&self, path: &Path) -> io::Result<()> {
        let t0 = Instant::now();
        let wal = self.wal.lock().expect("wal state");
        let entries = self.store.entries();
        let tmp = path.with_extension("tmp");
        if failpoint!("store.snapshot.write") {
            return Err(io::Error::other("injected snapshot write failure"));
        }
        let mut out = BufWriter::new(File::create(&tmp)?);
        writeln!(out, "{}", snapshot_header())?;
        let mut footer = NO_RECORDS;
        for entry in entries {
            let (line, crc) = encode_record(&entry);
            writeln!(out, "{line}")?;
            footer.push(crc);
        }
        let footer = serde_json::to_string(&footer).expect("footer serializes");
        writeln!(out, "{footer}")?;
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
        if let Some(wal_p) = &*wal {
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

/// Recovery phase 1: loads the snapshot at `path` into `store`, one
/// record line at a time. A missing file is a quiet first run.
fn load_snapshot(store: &FactorStore, path: &Path, report: &mut RecoveryReport) {
    let Ok(file) = File::open(path) else {
        return;
    };
    let mut reader = BufReader::new(file);
    // Reads no further than the header's length, so a file of another
    // format (a v2 snapshot is one line) is never read whole.
    let header = format!("{}\n", snapshot_header());
    let mut first = Vec::new();
    let _ = reader
        .by_ref()
        .take(header.len() as u64)
        .read_until(b'\n', &mut first);
    if first != header.as_bytes() {
        log::warn(
            "snapshot_version_mismatch",
            &[
                ("path", path.display().to_string()),
                ("want", SNAPSHOT_VERSION.to_string()),
                ("action", "starting cold".to_string()),
            ],
        );
        return;
    }
    report.snapshot_loaded = true;
    let (mut seen, mut footer) = (NO_RECORDS, None);
    // An I/O error ends the read early; the footer then cannot match.
    let _ = read_lines(reader, |line| match parse_line::<Record>(line) {
        Some(record) => {
            seen.push(record.crc);
            if record.intact() && store.absorb([record.entry]) == 1 {
                report.snapshot_entries += 1;
            } else {
                report.snapshot_corrupt_entries += 1;
            }
        }
        None => match parse_line::<Footer>(line) {
            Some(f) => footer = Some(f),
            None => report.snapshot_corrupt_entries += 1,
        },
    });
    report.footer_mismatch = footer != Some(seen);
}

/// Recovery phase 2: replays the WAL at `wal` into `store`. Only a crash
/// between an insert and the next snapshot leaves lines here; each is
/// validated independently.
fn replay_wal(store: &FactorStore, wal: &Path, report: &mut RecoveryReport) {
    let Ok(file) = File::open(wal) else {
        return;
    };
    let read = read_lines(BufReader::new(file), |line| {
        let absorbed = parse_line::<Record>(line)
            .filter(Record::intact)
            .is_some_and(|r| store.absorb([r.entry]) == 1);
        if absorbed {
            report.wal_replayed_entries += 1;
        } else {
            report.wal_corrupt_entries += 1;
        }
    });
    // A torn tail is everything after the final newline: an append is a
    // single write() of `line + '\n'`, so only the last record can be
    // partial and completeness is exactly newline-termination.
    if let Ok((complete_len, true)) = read {
        report.wal_torn_tail = true;
        let _ = OpenOptions::new()
            .write(true)
            .open(wal)
            .and_then(|f| f.set_len(complete_len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral::{Analyzer, Options, UsageProfile};
    use qcoral_constraints::parse::parse_system;

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

    fn temp_path(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("qcoral-store-{tag}-{}.json", std::process::id()));
        remove(&path);
        path
    }

    fn remove(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(wal_path(path));
    }

    /// A saved snapshot of entries `0..n`, its lines and its path.
    fn saved(tag: &str, n: u64) -> (PathBuf, Vec<String>) {
        let path = temp_path(tag);
        let store = PersistentStore::open(Some(path.clone()), 64);
        store.factor_store().absorb((0..n).map(entry));
        store.save().expect("save");
        let text = std::fs::read_to_string(&path).expect("snapshot");
        let lines = text.lines().map(str::to_string).collect();
        (path, lines)
    }

    #[test]
    fn saved_snapshot_reopens_with_the_same_entries_in_lru_order() {
        for n in [0u64, 5] {
            let path = temp_path(&format!("round-trip-{n}"));
            let store = PersistentStore::open(Some(path.clone()), 64);
            store.factor_store().absorb((0..n).map(entry));
            store.save().expect("save");
            let reopened = PersistentStore::open(Some(path.clone()), 64);
            assert_eq!(
                reopened.factor_store().entries(),
                store.factor_store().entries(),
                "{n} entries"
            );
            let report = reopened.recovery_report();
            assert!(report.snapshot_loaded, "{n} entries");
            assert_eq!(report.snapshot_entries, n);
            assert!(!report.lossy(), "{n} entries: {report:?}");
            remove(&path);
        }
    }

    #[test]
    fn snapshot_records_are_wal_lines_between_header_and_footer() {
        let (path, lines) = saved("layout", 3);
        assert_eq!(lines.len(), 5, "header, 3 records, footer");
        assert_eq!(lines[0], snapshot_header());
        let store = PersistentStore::open(Some(path.clone()), 64);
        let records: Vec<String> = store
            .factor_store()
            .entries()
            .iter()
            .map(encode_wal_line)
            .collect();
        assert_eq!(lines[1..4], records[..]);
        let footer: Footer = serde_json::from_str(&lines[4]).expect("footer parses");
        assert_eq!(footer.records, 3);
        remove(&path);
    }

    #[test]
    fn corrupt_middle_record_is_skipped_and_counted() {
        let (path, mut lines) = saved("corrupt-record", 5);
        // A flipped digit keeps the line valid JSON but breaks its crc;
        // a mangled line does not parse at all.
        lines[2] = lines[2].replacen("\"mean_bits\":", "\"mean_bits\":1", 1);
        lines[4] = "{\"entry\":{\"opts_fp\"".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let store = PersistentStore::open(Some(path.clone()), 64);
        let report = store.recovery_report();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_corrupt_entries, 2, "{report:?}");
        assert_eq!(report.snapshot_entries, 3, "the other records load");
        assert_eq!(store.factor_store().len(), 3);
        remove(&path);
    }

    #[test]
    fn deleted_record_line_sets_footer_mismatch() {
        let (path, mut lines) = saved("deleted-record", 5);
        lines.remove(3);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let store = PersistentStore::open(Some(path.clone()), 64);
        let report = store.recovery_report();
        assert!(report.footer_mismatch, "{report:?}");
        assert_eq!(report.snapshot_entries, 4, "every intact line still loads");
        assert_eq!(report.snapshot_corrupt_entries, 0);
        remove(&path);
    }

    #[test]
    fn v2_document_starts_cold_and_the_wal_still_replays() {
        let path = temp_path("v2");
        let record = encode_wal_line(&entry(1));
        let v2 = format!("{{\"version\":2,\"entries\":[{record}],\"footer_crc\":7}}");
        std::fs::write(&path, v2).unwrap();
        std::fs::write(wal_path(&path), encode_wal_line(&entry(2)) + "\n").unwrap();
        let store = PersistentStore::open(Some(path.clone()), 64);
        let report = store.recovery_report();
        assert!(!report.snapshot_loaded, "{report:?}");
        assert_eq!(report.snapshot_entries, 0);
        assert_eq!(report.wal_replayed_entries, 1);
        assert_eq!(store.factor_store().entries(), vec![entry(2)]);
        remove(&path);
    }

    #[test]
    fn wal_recovery_leaves_the_store_dirty_until_saved() {
        let path = temp_path("wal-dirty");
        std::fs::write(wal_path(&path), encode_wal_line(&entry(4)) + "\n").unwrap();
        let store = PersistentStore::open(Some(path.clone()), 64);
        assert!(
            store.save_if_dirty().expect("save"),
            "replayed WAL compacts"
        );
        assert!(!store.save_if_dirty().expect("save"), "then it is clean");
        assert_eq!(std::fs::read(wal_path(&path)).unwrap(), b"");
        let reopened = PersistentStore::open(Some(path.clone()), 64);
        assert_eq!(reopened.recovery_report().snapshot_entries, 1);
        remove(&path);
    }

    #[test]
    fn wal_append_failures_are_counted_per_store() {
        // A WAL in a missing directory fails every append; a store next
        // to it in the same process counts none of those failures.
        let missing = std::env::temp_dir()
            .join(format!("qcoral-no-such-dir-{}", std::process::id()))
            .join("store.json");
        let failing = PersistentStore::open(Some(missing), 64);
        let path = temp_path("wal-healthy");
        let healthy = PersistentStore::open(Some(path.clone()), 64);
        let sys = parse_system("var x in [0, 1]; pc x < 0.5 && x * x > 0.1;").unwrap();
        let profile = UsageProfile::uniform(1);
        for store in [&failing, &healthy] {
            Analyzer::new(Options::default().with_samples(100))
                .with_factor_store(Arc::clone(store.factor_store()))
                .analyze(&sys.constraint_set, &sys.domain, &profile);
            assert_eq!(store.factor_store().len(), 1, "one fresh insert each");
        }
        assert_eq!(failing.wal_append_failures(), 1);
        assert_eq!(healthy.wal_append_failures(), 0);
        remove(&path);
    }
}
