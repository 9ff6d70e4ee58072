//! Content-addressed artifact cache for trace/slice products.
//!
//! The expensive half of the pipeline — functional trace plus slice-tree
//! construction — depends only on (workload, input, trace configuration),
//! not on the machine or selection parameters. "Dynamic Slicing by
//! On-demand Re-execution"-style reuse therefore applies: the service
//! persists each (forest, stats) pair once, keyed by the FNV-1a-64 digest
//! of the trace inputs, and re-selection under new [`MachineParams`] skips
//! re-tracing entirely.
//!
//! On disk an entry is two sibling files under the cache directory:
//!
//! - `<digest>.slices` — the forest in the checksummed v2 slice-file
//!   format ([`preexec_slice::write_forest`]), so cache entries are
//!   integrity-checked and interoperable with `toolflow --read`;
//! - `<digest>.stats` — the [`RunStats`] as one line of JSON.
//!
//! Failure semantics follow DESIGN.md §9: a corrupt entry is *diagnosed*
//! through [`read_forest_lenient`], counted, and treated as a miss — the
//! job recomputes and overwrites; it never fails. Only a byte-identical
//! clean parse is served as a hit, because the service's contract is that
//! cached runs are bit-identical to direct ones. Writes are
//! temp-file-plus-rename so a crashed writer cannot leave a torn entry
//! under the final name, and the directory is created lazily on first
//! store.
//!
//! [`MachineParams`]: preexec_timing::MachineParams

use crate::json::Json;
use preexec_func::{LoadSiteStats, RunStats};
use preexec_obs::{Counter, Journal, Registry};
use preexec_slice::{read_forest_lenient, write_forest, SliceForest};
use preexec_workloads::InputSet;
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything the trace+slice stage depends on: the cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKey {
    /// Workload name (suite registry name).
    pub workload: String,
    /// Input set the workload was built with.
    pub input: InputSet,
    /// Slicing scope.
    pub scope: usize,
    /// Maximum stored slice length.
    pub max_slice_len: usize,
    /// Measured instruction budget.
    pub budget: u64,
    /// Warm-up instructions preceding the measured window.
    pub warmup: u64,
}

/// The canonical wire name of an input set.
pub fn input_name(input: InputSet) -> &'static str {
    match input {
        InputSet::Train => "train",
        InputSet::Test => "test",
        InputSet::Alt => "alt",
    }
}

/// Parses an input-set name (the inverse of [`input_name`]).
pub fn parse_input(name: &str) -> Option<InputSet> {
    match name {
        "train" => Some(InputSet::Train),
        "test" => Some(InputSet::Test),
        "alt" => Some(InputSet::Alt),
        _ => None,
    }
}

/// FNV-1a, 64-bit — same integrity-grade hash the slice-file header uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl TraceKey {
    /// The content-address of this key: FNV-1a-64 over a canonical
    /// rendering of every field (NUL-separated so no two distinct keys
    /// share a rendering).
    pub fn digest(&self) -> u64 {
        let canonical = format!(
            "{}\0{}\0{}\0{}\0{}\0{}",
            self.workload,
            input_name(self.input),
            self.scope,
            self.max_slice_len,
            self.budget,
            self.warmup
        );
        fnv1a64(canonical.as_bytes())
    }
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Entries removed to stay under the capacity bound.
    pub evictions: u64,
    /// Lookups that found an entry but could not parse it cleanly.
    pub corrupt: u64,
}

impl CacheStats {
    /// Hits over lookups, in [0, 1] (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The on-disk artifact cache. Thread-safe: every store stages under its
/// own temp name and renames atomically, and the counters are
/// registry-backed atomics, so workers share one instance without
/// locking.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    max_entries: usize,
    /// How old a `.tmp` staging file must be before an eviction scan
    /// treats it as an orphan (a live writer renames within moments).
    tmp_grace: std::time::Duration,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    corrupt: Arc<Counter>,
    orphan_stats: Arc<Counter>,
    journal: Arc<Journal>,
}

impl ArtifactCache {
    /// Creates a cache rooted at `dir`, holding at most `max_entries`
    /// entries (oldest evicted first), counting into the process-wide
    /// [`preexec_obs::global`] registry (`cache.hits`, `cache.misses`,
    /// `cache.evictions`, `cache.corrupt`, `cache.orphan_stats`). No
    /// filesystem work happens here — the directory is created lazily by
    /// the first [`store`](Self::store).
    pub fn new(dir: impl Into<PathBuf>, max_entries: usize) -> ArtifactCache {
        ArtifactCache::with_registry(dir, max_entries, preexec_obs::global())
    }

    /// [`new`](Self::new) counting into a caller-supplied registry —
    /// tests asserting exact counts use a private registry so parallel
    /// tests in the same process cannot pollute each other.
    pub fn with_registry(
        dir: impl Into<PathBuf>,
        max_entries: usize,
        registry: &Registry,
    ) -> ArtifactCache {
        ArtifactCache {
            dir: dir.into(),
            max_entries: max_entries.max(1),
            tmp_grace: std::time::Duration::from_secs(60),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            evictions: registry.counter("cache.evictions"),
            corrupt: registry.counter("cache.corrupt"),
            orphan_stats: registry.counter("cache.orphan_stats"),
            journal: registry.journal(),
        }
    }

    fn slices_path(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(format!("{:016x}.slices", key.digest()))
    }

    fn stats_path(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(format!("{:016x}.stats", key.digest()))
    }

    /// Looks up the artifacts for `key`. `None` (a counted miss) when the
    /// entry is absent or fails to parse cleanly; corruption additionally
    /// bumps the `corrupt` counter and removes the bad files so the
    /// recompute's store starts clean.
    pub fn load(&self, key: &TraceKey) -> Option<(SliceForest, RunStats)> {
        match self.try_load(key) {
            Some(artifacts) => {
                self.hits.inc();
                Some(artifacts)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    fn try_load(&self, key: &TraceKey) -> Option<(SliceForest, RunStats)> {
        let slices_path = self.slices_path(key);
        let text = std::fs::read_to_string(&slices_path).ok()?;
        // Lenient read is the fallback path required for corrupt entries:
        // it never panics, and its diagnostics tell us whether the entry
        // parsed byte-clean. Anything less than clean is recomputed — a
        // partially recovered forest would silently change selections.
        let recovered = read_forest_lenient(&text);
        if !recovered.is_clean() {
            self.corrupt.inc();
            self.journal.note(
                "cache_corrupt",
                &format!("slice file failed clean parse: {}", slices_path.display()),
            );
            let _ = std::fs::remove_file(&slices_path);
            let _ = std::fs::remove_file(self.stats_path(key));
            return None;
        }
        let stats_text = std::fs::read_to_string(self.stats_path(key)).ok()?;
        let stats = match Json::parse(&stats_text)
            .ok()
            .and_then(|j| stats_from_json(&j))
        {
            Some(s) => s,
            None => {
                self.corrupt.inc();
                self.journal.note(
                    "cache_corrupt",
                    &format!(
                        "stats file failed to parse: {}",
                        self.stats_path(key).display()
                    ),
                );
                let _ = std::fs::remove_file(&slices_path);
                let _ = std::fs::remove_file(self.stats_path(key));
                return None;
            }
        };
        Some((recovered.forest, stats))
    }

    /// Persists the artifacts for `key`, creating the cache directory if
    /// needed and evicting the oldest entries beyond the capacity bound.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (callers treat the cache as
    /// best-effort: a failed store degrades to recomputation next time).
    pub fn store(&self, key: &TraceKey, forest: &SliceForest, stats: &RunStats) -> io::Result<()> {
        if crate::chaos::plan().cache_store_fail {
            self.journal.note("chaos", "injected cache store fault");
            return Err(io::Error::other("chaos: injected cache store fault"));
        }
        std::fs::create_dir_all(&self.dir)?;
        write_atomically(&self.slices_path(key), &write_forest(forest))?;
        write_atomically(&self.stats_path(key), &stats_to_json(stats).encode())?;
        self.evict_excess();
        Ok(())
    }

    /// Removes the oldest entries (by modification time, ties broken by
    /// path so concurrent scans agree on the victim) until at most
    /// `max_entries` remain. The same scan sweeps two kinds of debris
    /// that would otherwise accumulate forever, invisible to the entry
    /// count: `.tmp` staging files orphaned by a crashed writer, and
    /// `.stats` files whose `.slices` sibling is gone (corrupt-read
    /// cleanup or a partially-completed eviction removes the pair
    /// non-atomically).
    fn evict_excess(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let now = std::time::SystemTime::now();
        let mut slices: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        let mut slices_seen: HashSet<PathBuf> = HashSet::new();
        let mut stats_seen: Vec<PathBuf> = Vec::new();
        for e in entries.flatten() {
            let path = e.path();
            let mtime = e.metadata().and_then(|m| m.modified()).ok();
            if path.extension().is_some_and(|x| x == "tmp") {
                // Old enough that no live writer can still be about to
                // rename it (writers rename within moments of the write).
                let orphaned = mtime
                    .is_none_or(|t| now.duration_since(t).is_ok_and(|age| age >= self.tmp_grace));
                if orphaned {
                    let _ = std::fs::remove_file(&path);
                }
            } else if path.extension().is_some_and(|x| x == "slices") {
                slices_seen.insert(path.clone());
                if let Some(mtime) = mtime {
                    slices.push((mtime, path));
                }
            } else if path.extension().is_some_and(|x| x == "stats") {
                stats_seen.push(path);
            }
        }
        // `.stats` with no `.slices` sibling is unreachable (load reads
        // the slices first) and uncounted (the entry count enumerates
        // `.slices`). No grace period is needed: store writes `.slices`
        // before `.stats`, so a live writer's half-written entry is the
        // slices-without-stats case, never this one.
        for path in stats_seen {
            if !slices_seen.contains(&path.with_extension("slices")) {
                let _ = std::fs::remove_file(&path);
                self.orphan_stats.inc();
            }
        }
        if slices.len() <= self.max_entries {
            return;
        }
        // Lexicographic (mtime, path): filesystems with coarse timestamps
        // routinely give back-to-back stores identical mtimes, and a sort
        // keyed on mtime alone would then pick victims by directory order.
        slices.sort();
        let excess = slices.len() - self.max_entries;
        for (_, path) in slices.into_iter().take(excess) {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(path.with_extension("stats"));
            self.evictions.inc();
        }
    }

    /// A snapshot of the hit/miss/eviction/corruption counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            corrupt: self.corrupt.get(),
        }
    }
}

/// Serializes [`RunStats`] as one JSON object (load sites sorted by PC so
/// encoding is deterministic).
pub fn stats_to_json(stats: &RunStats) -> Json {
    let mut sites: Vec<_> = stats.load_sites.iter().collect();
    sites.sort_by_key(|(pc, _)| **pc);
    let sites = sites
        .into_iter()
        .map(|(pc, s)| {
            Json::Arr(vec![
                Json::num_u64(u64::from(*pc)),
                Json::num_u64(s.execs),
                Json::num_u64(s.l1_misses),
                Json::num_u64(s.l2_misses),
            ])
        })
        .collect();
    Json::obj(vec![
        ("insts", Json::num_u64(stats.insts)),
        ("total_steps", Json::num_u64(stats.total_steps)),
        ("loads", Json::num_u64(stats.loads)),
        ("stores", Json::num_u64(stats.stores)),
        ("branches", Json::num_u64(stats.branches)),
        ("taken_branches", Json::num_u64(stats.taken_branches)),
        ("l1d_misses", Json::num_u64(stats.l1d_misses)),
        ("l2_misses", Json::num_u64(stats.l2_misses)),
        ("timed_out", Json::Bool(stats.timed_out)),
        ("load_sites", Json::Arr(sites)),
    ])
}

/// Deserializes [`stats_to_json`]'s output; `None` on any missing or
/// mistyped field.
pub fn stats_from_json(json: &Json) -> Option<RunStats> {
    let mut stats = RunStats::new();
    stats.insts = json.get("insts")?.as_u64()?;
    stats.total_steps = json.get("total_steps")?.as_u64()?;
    stats.loads = json.get("loads")?.as_u64()?;
    stats.stores = json.get("stores")?.as_u64()?;
    stats.branches = json.get("branches")?.as_u64()?;
    stats.taken_branches = json.get("taken_branches")?.as_u64()?;
    stats.l1d_misses = json.get("l1d_misses")?.as_u64()?;
    stats.l2_misses = json.get("l2_misses")?.as_u64()?;
    stats.timed_out = json.get("timed_out")?.as_bool()?;
    for site in json.get("load_sites")?.as_arr()? {
        let fields = site.as_arr()?;
        if fields.len() != 4 {
            return None;
        }
        let pc = preexec_isa::Pc::try_from(fields[0].as_u64()?).ok()?;
        stats.load_sites.insert(
            pc,
            LoadSiteStats {
                execs: fields[1].as_u64()?,
                l1_misses: fields[2].as_u64()?,
                l2_misses: fields[3].as_u64()?,
            },
        );
    }
    Some(stats)
}

/// Writes `contents` to `path` via a sibling temp file, an fsync, and an
/// atomic rename, so readers never observe a torn entry — *including
/// after a power loss*: without the fsync, the rename can be durable
/// while the data blocks are not, leaving a clean-looking entry full of
/// zeros under the final name. Every write stages under its own name,
/// `<final>.<pid>-<n>.tmp`: two workers that missed on one key both
/// store it, and a shared staging file would be truncated under one
/// writer and renamed out from under the other. The `.tmp` extension is
/// what the eviction scan's orphan sweep matches.
pub(crate) fn write_atomically(path: &Path, contents: &str) -> io::Result<()> {
    use std::io::Write;
    static STAGED: AtomicU64 = AtomicU64::new(0);
    let n = STAGED.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".{}-{n}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_slice::SliceForestBuilder;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("preexec-serve-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A cache counting into its own registry: tests in this binary run
    /// concurrently, so exact-count assertions need isolation from the
    /// global registry.
    fn isolated_cache(dir: &Path, max_entries: usize) -> (ArtifactCache, Registry) {
        let registry = Registry::new();
        let cache = ArtifactCache::with_registry(dir, max_entries, &registry);
        (cache, registry)
    }

    fn sample_artifacts() -> (SliceForest, RunStats) {
        let p = preexec_isa::assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 512\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut b = SliceForestBuilder::new(1024, 16);
        let full = run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
        let mut stats = RunStats::new();
        stats.insts = full.total_steps;
        stats.total_steps = full.total_steps;
        stats.l2_misses = 17;
        stats.record_load(4, preexec_mem::MemLevel::Memory);
        (b.finish(), stats)
    }

    fn key(workload: &str) -> TraceKey {
        TraceKey {
            workload: workload.to_string(),
            input: InputSet::Train,
            scope: 1024,
            max_slice_len: 16,
            budget: 10_000,
            warmup: 0,
        }
    }

    #[test]
    fn digests_separate_distinct_keys() {
        let base = key("vpr.r");
        let mut other = key("vpr.r");
        other.budget += 1;
        assert_ne!(base.digest(), other.digest());
        assert_ne!(base.digest(), key("mcf").digest());
        assert_eq!(base.digest(), key("vpr.r").digest());
        let swapped = TraceKey {
            input: InputSet::Alt,
            ..key("vpr.r")
        };
        assert_ne!(base.digest(), swapped.digest());
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("round-trip");
        let (cache, _) = isolated_cache(&dir, 8);
        let (forest, stats) = sample_artifacts();
        let k = key("vpr.r");
        assert!(cache.load(&k).is_none(), "cold cache must miss");
        cache.store(&k, &forest, &stats).expect("store");
        let (forest2, stats2) = cache.load(&k).expect("hit");
        assert_eq!(forest2.num_trees(), forest.num_trees());
        assert_eq!(forest2.sample_insts(), forest.sample_insts());
        assert_eq!(stats2.insts, stats.insts);
        assert_eq!(stats2.l2_misses, stats.l2_misses);
        assert_eq!(stats2.load_sites.len(), stats.load_sites.len());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_a_counted_miss_not_a_failure() {
        let dir = tmp_dir("corrupt");
        let (cache, registry) = isolated_cache(&dir, 8);
        let (forest, stats) = sample_artifacts();
        let k = key("vpr.r");
        cache.store(&k, &forest, &stats).expect("store");
        // Truncate the slice file mid-payload: checksum now mismatches.
        let path = cache.slices_path(&k);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        assert!(cache.load(&k).is_none(), "corrupt entry must miss");
        assert_eq!(cache.stats().corrupt, 1);
        // The corruption is journaled for the metrics verb.
        let events = registry.journal().recent();
        assert!(
            events.iter().any(|e| e.kind == "cache_corrupt"),
            "corruption must be journaled, got {events:?}"
        );
        // The bad entry was removed; a fresh store works and hits again.
        cache.store(&k, &forest, &stats).expect("re-store");
        assert!(cache.load(&k).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_filled_entry_under_the_final_name_is_a_counted_miss() {
        // The power-loss artifact the fsync-before-rename guards against:
        // the rename was durable but the data blocks were not, so the
        // *final* name holds zeros of the right length — no `.tmp`
        // suffix to give it away. The lenient reader must diagnose it
        // and the cache must recover by recomputing, never serve it.
        let dir = tmp_dir("partial-write");
        let (cache, registry) = isolated_cache(&dir, 8);
        let (forest, stats) = sample_artifacts();
        let k = key("vpr.r");
        cache.store(&k, &forest, &stats).expect("store");
        let path = cache.slices_path(&k);
        let len = std::fs::metadata(&path).expect("meta").len() as usize;
        std::fs::write(&path, "\0".repeat(len)).expect("zero-fill");
        assert!(cache.load(&k).is_none(), "zero-filled entry must miss");
        assert_eq!(cache.stats().corrupt, 1);
        assert!(registry
            .journal()
            .recent()
            .iter()
            .any(|e| e.kind == "cache_corrupt"));
        // The bad pair was removed; recompute-and-overwrite hits again.
        cache.store(&k, &forest, &stats).expect("re-store");
        assert!(cache.load(&k).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_stats_file_also_misses() {
        let dir = tmp_dir("corrupt-stats");
        let (cache, _) = isolated_cache(&dir, 8);
        let (forest, stats) = sample_artifacts();
        let k = key("gap");
        cache.store(&k, &forest, &stats).expect("store");
        std::fs::write(cache.stats_path(&k), "{ not json").expect("mangle");
        assert!(cache.load(&k).is_none());
        assert_eq!(cache.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_bounds_the_entry_count() {
        let dir = tmp_dir("evict");
        let (cache, _) = isolated_cache(&dir, 2);
        let (forest, stats) = sample_artifacts();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            let mut k = key(name);
            k.budget = 1000 + i as u64;
            cache.store(&k, &forest, &stats).expect("store");
        }
        let remaining = std::fs::read_dir(&dir)
            .expect("dir")
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "slices"))
            .count();
        assert_eq!(remaining, 2);
        assert_eq!(cache.stats().evictions, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_scan_sweeps_orphaned_tmp_files() {
        let dir = tmp_dir("tmp-orphans");
        let (mut cache, _) = isolated_cache(&dir, 8);
        let (forest, stats) = sample_artifacts();
        cache.store(&key("a"), &forest, &stats).expect("store");
        // A staging file a crashed writer left behind.
        let orphan = dir.join("deadbeefdeadbeef.slices.tmp");
        std::fs::write(&orphan, "torn half-write").expect("plant orphan");
        // Within the grace period the scan must leave it alone (it could
        // be a live writer about to rename).
        cache.store(&key("b"), &forest, &stats).expect("store");
        assert!(orphan.exists(), "fresh .tmp swept inside the grace period");
        // Past the grace period it is an orphan and gets swept.
        cache.tmp_grace = std::time::Duration::ZERO;
        cache.store(&key("c"), &forest, &stats).expect("store");
        assert!(!orphan.exists(), "orphaned .tmp survived the scan");
        // Real entries are untouched (no spurious evictions either).
        assert!(cache.load(&key("a")).is_some());
        assert_eq!(cache.stats().evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_stats_files_are_swept_on_the_next_store() {
        let dir = tmp_dir("stats-orphans");
        let (cache, registry) = isolated_cache(&dir, 8);
        let (forest, stats) = sample_artifacts();
        cache.store(&key("a"), &forest, &stats).expect("store");
        // Simulate a partially-completed eviction / corrupt-read cleanup:
        // the `.slices` half of an entry is gone, its `.stats` survives.
        let k = key("victim");
        cache.store(&k, &forest, &stats).expect("store");
        std::fs::remove_file(cache.slices_path(&k)).expect("drop slices half");
        assert!(cache.stats_path(&k).exists());
        // The next store's eviction scan sweeps the orphan.
        cache.store(&key("b"), &forest, &stats).expect("store");
        assert!(
            !cache.stats_path(&k).exists(),
            "orphaned .stats survived the eviction scan"
        );
        assert_eq!(registry.counter("cache.orphan_stats").get(), 1);
        // Intact entries keep both halves and still hit.
        assert!(cache.load(&key("a")).is_some());
        assert!(cache.load(&key("b")).is_some());
        assert_eq!(cache.stats().evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed_and_never_tear() {
        // Two workers that miss on one key both trace and both store it.
        // Each write must stage privately: a shared staging file is
        // truncated under one writer and renamed out from under another
        // (`NotFound`), and a reader can catch the torn file, count it
        // corrupt and delete the entry.
        let dir = tmp_dir("concurrent-stores");
        let (cache, _) = isolated_cache(&dir, 8);
        let (forest, stats) = sample_artifacts();
        let k = key("mcf");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..25 {
                        cache.store(&k, &forest, &stats).expect("concurrent store");
                        let _ = cache.load(&k);
                    }
                });
            }
        });
        assert_eq!(cache.stats().corrupt, 0, "a reader saw a torn entry");
        assert!(cache.load(&k).is_some(), "the entry must survive the race");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_round_trips() {
        let (_, stats) = sample_artifacts();
        let back = stats_from_json(&stats_to_json(&stats)).expect("round-trip");
        assert_eq!(back.insts, stats.insts);
        assert_eq!(back.load_sites, stats.load_sites);
        assert!(stats_from_json(&Json::Null).is_none());
        assert!(stats_from_json(&Json::obj(vec![("insts", Json::Num(1.0))])).is_none());
    }
}
