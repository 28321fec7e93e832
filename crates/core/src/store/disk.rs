//! The persistent disk tier: one JSON file per component key under a
//! versioned cache directory.

use super::load_histogram;
use crate::analysis::ProcedureSummary;
use crate::cache::{decode_entry, entry_key, ScopeResolver, CACHE_VERSION};
use chora_ir::Fingerprint;
use chora_telemetry::metrics::Histogram;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

/// Distinguishes temp files (`<key>.tmp.<pid>.<seq>`) written by this
/// process from those of concurrent writers, and two writer threads of one
/// process from each other — two in-process writers racing on the same key
/// must never share a temp path, or one can rename the other's half-written
/// file into place.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The persistent disk tier of a [`super::TieredStore`] (never a store on
/// its own): one JSON file per component key under
/// `<root>/v<CACHE_VERSION>/`.
///
/// The version directory means a future encoding bump simply starts a fresh
/// namespace; stray files from other versions are never read.  Within the
/// directory, any file that fails to decode (truncated write, manual edit,
/// hash collision on `key`) is deleted and counted as an eviction.  The
/// tier carries the stack's age limit: an expired entry is removed on
/// sight instead of served.
///
/// The layout is safe for any number of concurrent readers and writers,
/// across threads and processes: writes land under a unique temp name and
/// are renamed into place atomically, reads that race a GC deletion see a
/// plain miss, and keys are content-addressed so a "lost" rename race
/// between two writers of the same key is harmless (both wrote identical
/// bytes for identical inputs).
pub struct DiskStore {
    dir: PathBuf,
    /// Entries older than this are removed instead of served (`None` =
    /// never); set by the [`super::TieredStore`] that owns this tier.
    pub(super) max_age: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    age_evictions: AtomicU64,
    evicted: AtomicU64,
    gc_removed: AtomicU64,
    removed_bytes: AtomicU64,
    load_hist: &'static Histogram,
}

impl DiskStore {
    /// Opens (creating if necessary) a cache rooted at `root`.
    ///
    /// Version directories left behind by *older* encodings (`v1/` after
    /// the v2 bump, and so on) are deleted on open: this binary can never
    /// read them, and leaving them would let the cache silently exceed its
    /// byte budget forever — `disk_bytes` and [`DiskStore::gc`] only scan
    /// the current version's directory.  Newer versions' directories are
    /// left alone so a mixed-version fleet sharing one root does not
    /// thrash each other's caches.
    pub fn open(root: impl AsRef<Path>) -> std::io::Result<DiskStore> {
        let root = root.as_ref();
        let dir = root.join(format!("v{CACHE_VERSION}"));
        std::fs::create_dir_all(&dir)?;
        if let Ok(entries) = std::fs::read_dir(root) {
            for entry in entries.filter_map(|e| e.ok()) {
                let name = entry.file_name();
                let stale = name
                    .to_str()
                    .and_then(|n| n.strip_prefix('v'))
                    .and_then(|n| n.parse::<i64>().ok())
                    .is_some_and(|version| version < CACHE_VERSION);
                if stale {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        Ok(DiskStore {
            dir,
            max_age: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            age_evictions: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            gc_removed: AtomicU64::new(0),
            removed_bytes: AtomicU64::new(0),
            load_hist: load_histogram("disk"),
        })
    }

    /// The versioned directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads this handle answered.
    pub(super) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads this handle could not answer.
    pub(super) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries a load removed because they outlived `max_age` (also
    /// counted in [`DiskStore::gc_evictions`]).
    pub(super) fn age_evictions(&self) -> u64 {
        self.age_evictions.load(Ordering::Relaxed)
    }

    /// How many entries this handle has discarded as *invalid* (corrupted,
    /// truncated, version-mismatched, or unrescopable).
    pub(super) fn evictions(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// How many entries this handle has removed for *space or age* reasons
    /// (expired entries a load removed, and [`DiskStore::gc`] passes).
    pub(super) fn gc_evictions(&self) -> u64 {
        self.gc_removed.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }

    /// The disk's one load path: loads, validates, and decodes the entry
    /// under `key`, also reporting its age (time since last write) when the
    /// filesystem can say.  Corrupt (or unrescopable) entries are deleted
    /// and counted as evictions, expired ones as age evictions; every call
    /// counts a hit or a miss and is timed in the `tier="disk"` load
    /// histogram.
    ///
    /// Returns the *serialized* text alongside the decoded summaries so a
    /// fronting tier ([`super::TieredStore`]) can keep the validated bytes
    /// without re-encoding, and the age so promotion never extends an
    /// entry's lifetime.
    pub(super) fn load_validated(
        &self,
        key: &Fingerprint,
        scopes: &dyn ScopeResolver,
    ) -> Option<(String, Vec<ProcedureSummary>, Option<Duration>)> {
        let started = Instant::now();
        let result = match self.read_entry(key, scopes) {
            Some((_, _, Some(age))) if self.max_age.is_some_and(|limit| age > limit) => {
                self.remove(key);
                self.age_evictions.fetch_add(1, Ordering::Relaxed);
                None
            }
            hit => hit,
        };
        let counter = if result.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.load_hist
            .observe_ms(started.elapsed().as_secs_f64() * 1e3);
        result
    }

    /// Reads and decodes the entry under `key` with its age, evicting one
    /// that does not decode.
    fn read_entry(
        &self,
        key: &Fingerprint,
        scopes: &dyn ScopeResolver,
    ) -> Option<(String, Vec<ProcedureSummary>, Option<Duration>)> {
        let path = self.entry_path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        match decode_entry(&text, key, scopes) {
            Some(summaries) => {
                let age = std::fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| SystemTime::now().duration_since(mtime).ok());
                Some((text, summaries, age))
            }
            None => {
                // Corrupt or stale: evict, never fail.
                let _ = std::fs::remove_file(&path);
                self.evicted.fetch_add(1, Ordering::Relaxed);
                self.removed_bytes
                    .fetch_add(text.len() as u64, Ordering::Relaxed);
                None
            }
        }
    }

    /// The raw serialized entry under `key`, gated only on its *envelope*
    /// (format tag, version, embedded key) — no summary decoding, which
    /// would need the consuming run's scope assignment.  This is what a
    /// summary server hands to `GET /v1/summaries/{key}`; the analyzing
    /// peer performs the full decode-and-rescope on its side.
    pub(super) fn load_text(&self, key: &Fingerprint) -> Option<String> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        (entry_key(&text) == Some(*key)).then_some(text)
    }

    /// Writes an already-encoded entry (temp file + rename, best-effort).
    pub(super) fn store_encoded(&self, key: &Fingerprint, encoded: &str) {
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.to_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Best-effort: a failed write leaves the cache without this entry,
        // and never leaves a partial temp file behind (disk-full writes
        // would otherwise leak one per attempt).
        match std::fs::write(&tmp, encoded) {
            Ok(()) => {
                if std::fs::rename(&tmp, &path).is_err() {
                    let _ = std::fs::remove_file(&tmp);
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Removes the entry under `key` (a GC deletion, not a corruption
    /// eviction).  Racing readers see a miss; racing writers re-create it.
    fn remove(&self, key: &Fingerprint) {
        let path = self.entry_path(key);
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(path).is_ok() {
            self.gc_removed.fetch_add(1, Ordering::Relaxed);
            self.removed_bytes.fetch_add(size, Ordering::Relaxed);
        }
    }

    /// Total bytes this store has deleted — corruption evictions, explicit
    /// removals, and GC passes combined (the operational "how much has the
    /// cache churned" number surfaced by `/v1/stats`).
    pub(super) fn removed_bytes(&self) -> u64 {
        self.removed_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes currently held by cache entries.
    pub fn disk_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// One lock-free garbage-collection pass: deletes entries older than
    /// `max_age`, then — if the directory still exceeds `cap_bytes` —
    /// deletes oldest-first until it fits.  Also sweeps temp files from
    /// crashed writers (older than one minute).  Returns how many entries
    /// were removed.
    ///
    /// Safe to run concurrently with readers and writers of any process:
    /// deletion of a whole entry can only turn a would-be hit into a miss,
    /// and only ever deletes *expired or excess* keys — a racing writer
    /// that re-creates one simply refreshes its age.
    pub fn gc(&self, max_age: Option<Duration>, cap_bytes: Option<u64>) -> u64 {
        let Ok(dir_entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let now = SystemTime::now();
        let mut removed = 0u64;
        // (path, age, size) of every surviving cache entry.
        let mut live: Vec<(PathBuf, Duration, u64)> = Vec::new();
        for entry in dir_entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Ok(meta) = entry.metadata() else { continue };
            let age = meta
                .modified()
                .ok()
                .and_then(|m| now.duration_since(m).ok())
                .unwrap_or_default();
            // Orphaned temp files (a writer died between write and rename):
            // anything past a minute is garbage, no live writer keeps a
            // temp file open that long.
            if name.as_deref().is_some_and(|n| n.contains(".tmp.")) {
                if age > Duration::from_secs(60) {
                    let _ = std::fs::remove_file(&path);
                }
                continue;
            }
            if path.extension().is_none_or(|ext| ext != "json") {
                continue;
            }
            if max_age.is_some_and(|limit| age > limit) {
                if std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                    self.removed_bytes.fetch_add(meta.len(), Ordering::Relaxed);
                }
                continue;
            }
            live.push((path, age, meta.len()));
        }
        if let Some(cap) = cap_bytes {
            let mut total: u64 = live.iter().map(|(_, _, size)| size).sum();
            // Oldest first.
            live.sort_by_key(|(_, age, _)| std::cmp::Reverse(*age));
            for (path, _, size) in live {
                if total <= cap {
                    break;
                }
                if std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                    total = total.saturating_sub(size);
                    self.removed_bytes.fetch_add(size, Ordering::Relaxed);
                }
            }
        }
        self.gc_removed.fetch_add(removed, Ordering::Relaxed);
        removed
    }
}
