//! Consistent-hash sharding of the artifact cache across daemon
//! processes (DESIGN.md §15.3).
//!
//! Every cache key digest has exactly one *owning* shard, chosen by a
//! [`HashRing`]: each shard contributes a fixed set of virtual points
//! (FNV-1a of `"shard:<i>:vnode:<v>"`, decorrelated by a splitmix64
//! finalizer), and a key belongs to the shard
//! owning the first point at or after the key's digest, wrapping. Since
//! a shard's points depend only on its index, growing the ring from N to
//! N+1 shards moves *only* the keys the new shard's points capture
//! (~1/(N+1) of the space) — every other key keeps its owner. That
//! minimal-remapping property is pinned by property test.
//!
//! [`ShardedCache`] layers ownership onto the local [`ArtifactCache`]:
//! lookups and stores for self-owned keys stay local; remote-owned keys
//! go to the owner over the wire protocol's `cache_get`/`cache_put`
//! verbs (raw file texts, newline-JSON, same port as client traffic).
//! Every peer path degrades: a dead, slow, or corrupt peer is counted
//! (`shard.peer_errors`) and the caller falls back to the local cache —
//! and from there to recomputation — so shard loss costs latency, never
//! correctness and never a client-visible error.

use crate::cache::{fnv1a64, stats_from_json, stats_to_json, ArtifactCache, TraceKey};
use crate::json::Json;
use preexec_func::RunStats;
use preexec_obs::{Counter, Journal, Registry};
use preexec_slice::{read_forest_lenient, write_forest, SliceForest};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Virtual points per shard. Enough to keep the expected imbalance of
/// the mixed point set low; small enough that ring construction and
/// lookups are trivial.
pub const DEFAULT_VNODES: usize = 64;

/// Finalizing mix (splitmix64's) applied to every value placed on or
/// looked up against the ring. FNV-1a of short, near-identical strings
/// ("shard:0:vnode:1" vs "shard:0:vnode:2") leaves the high bits — the
/// bits ring ordering sorts by — strongly correlated, which clumps the
/// arcs and starves shards. Full avalanche restores the uniform spread
/// the balance bound in tests/ring_props.rs pins. Applied to both sides
/// of the lookup, it cannot change which digest maps to which arc class,
/// only decorrelate the placement.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A consistent-hash ring over shard indices `0..shards`.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs; ties broken by shard index so
    /// duplicate points resolve deterministically.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring for `shards` shards with `vnodes` virtual points
    /// each (both clamped to at least 1).
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                let point = mix64(fnv1a64(format!("shard:{shard}:vnode:{v}").as_bytes()));
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `digest`: the first ring point at or after it,
    /// wrapping past the top of the u64 space.
    pub fn owner(&self, digest: u64) -> usize {
        let digest = mix64(digest);
        let idx = self.points.partition_point(|&(p, _)| p < digest);
        let idx = if idx == self.points.len() { 0 } else { idx };
        self.points[idx].1
    }
}

/// Peer-visible counters of one shard's remote cache traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Artifacts served by a peer shard.
    pub peer_hits: u64,
    /// Peer lookups that found nothing (the artifact was never built).
    pub peer_misses: u64,
    /// Failed peer exchanges (dead shard, timeout, corrupt payload) —
    /// each one degraded to the local cache or a recompute.
    pub peer_errors: u64,
    /// Artifacts shipped to their owning shard after a local compute.
    pub peer_puts: u64,
}

/// A lazily-connected client for one peer shard, shared by worker
/// threads. One connection is kept warm behind a mutex (peer exchanges
/// are short and rare relative to job runtimes); a failed exchange on a
/// reused connection retries once on a fresh one, so a restarted peer
/// costs one reconnect, not an error.
struct PeerClient {
    addr: String,
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

/// How long a peer connect may take before the exchange is abandoned.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Read/write timeout on an established peer connection.
const PEER_IO_TIMEOUT: Duration = Duration::from_millis(2_000);

impl PeerClient {
    fn new(addr: String) -> PeerClient {
        PeerClient {
            addr,
            conn: Mutex::new(None),
        }
    }

    fn connect(&self) -> io::Result<BufReader<TcpStream>> {
        let addr = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::other(format!("peer address resolves to nothing: {}", self.addr))
        })?;
        let stream = TcpStream::connect_timeout(&addr, PEER_CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(PEER_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(PEER_IO_TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    /// One request/response exchange. Retries exactly once (with a fresh
    /// connection) when the failure happened on a reused connection.
    fn rpc(&self, line: &str) -> io::Result<Json> {
        let mut guard = self
            .conn
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let reused = guard.is_some();
        let mut conn = match guard.take() {
            Some(c) => c,
            None => self.connect()?,
        };
        match Self::exchange(&mut conn, line) {
            Ok(resp) => {
                *guard = Some(conn);
                Ok(resp)
            }
            Err(first) if reused => {
                // The warm connection may simply be stale (peer
                // restarted); one fresh attempt before reporting.
                let mut conn = self.connect().map_err(|_| first)?;
                let resp = Self::exchange(&mut conn, line)?;
                *guard = Some(conn);
                Ok(resp)
            }
            Err(e) => Err(e),
        }
    }

    fn exchange(conn: &mut BufReader<TcpStream>, line: &str) -> io::Result<Json> {
        let stream = conn.get_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut resp = String::new();
        let n = conn.read_line(&mut resp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed connection",
            ));
        }
        Json::parse(resp.trim()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("peer sent bad JSON: {e}"),
            )
        })
    }

    /// Fetches the raw artifact texts for `digest` from this peer.
    /// `Ok(None)` is a clean peer miss.
    fn cache_get(&self, digest: u64) -> io::Result<Option<(String, String)>> {
        let resp = self.rpc(&format!(r#"{{"cmd":"cache_get","key":"{digest:016x}"}}"#))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(io::Error::other(format!(
                "peer refused cache_get: {}",
                resp.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no error message")
            )));
        }
        if resp.get("hit").and_then(Json::as_bool) != Some(true) {
            return Ok(None);
        }
        let slices = resp
            .get("slices")
            .and_then(Json::as_str)
            .map(str::to_string);
        let stats = resp.get("stats").and_then(Json::as_str).map(str::to_string);
        match (slices, stats) {
            (Some(s), Some(t)) => Ok(Some((s, t))),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "peer hit without slices/stats payload",
            )),
        }
    }

    /// Ships raw artifact texts to this peer for persistence.
    fn cache_put(&self, digest: u64, slices: &str, stats: &str) -> io::Result<()> {
        let line = Json::obj(vec![
            ("cmd", Json::str("cache_put")),
            ("key", Json::str(format!("{digest:016x}"))),
            ("slices", Json::str(slices)),
            ("stats", Json::str(stats)),
        ])
        .encode();
        let resp = self.rpc(&line)?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(io::Error::other(format!(
                "peer refused cache_put: {}",
                resp.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no error message")
            )));
        }
        // `ok` without `stored` means the owner's disk rejected the
        // write: the artifact is nowhere durable unless we keep it.
        if resp.get("stored").and_then(Json::as_bool) != Some(true) {
            return Err(io::Error::other("peer accepted but did not store"));
        }
        Ok(())
    }
}

struct Topology {
    ring: HashRing,
    self_index: usize,
    /// One client per shard index; `peers[self_index]` exists but is
    /// never used (self-owned keys stay local).
    peers: Vec<PeerClient>,
}

/// The artifact cache with shard awareness. Without a topology it is a
/// transparent wrapper over the local [`ArtifactCache`]; with one, keys
/// route to their owning shard and every remote path degrades locally.
pub struct ShardedCache {
    local: ArtifactCache,
    topology: Option<Topology>,
    peer_hits: Arc<Counter>,
    peer_misses: Arc<Counter>,
    peer_errors: Arc<Counter>,
    peer_puts: Arc<Counter>,
    journal: Arc<Journal>,
}

impl ShardedCache {
    /// A single-process cache: every key is local. The `shard.peer_*`
    /// counters still exist (at zero) so the metrics surface is uniform.
    pub fn local_only(local: ArtifactCache) -> ShardedCache {
        ShardedCache::build(local, None, preexec_obs::global())
    }

    /// A shard-cluster cache: this process is `self_index` within
    /// `peer_addrs` (the full cluster address list, self included).
    pub fn sharded(
        local: ArtifactCache,
        self_index: usize,
        peer_addrs: &[String],
        registry: &Registry,
    ) -> ShardedCache {
        let topology = Topology {
            ring: HashRing::new(peer_addrs.len(), DEFAULT_VNODES),
            self_index: self_index.min(peer_addrs.len().saturating_sub(1)),
            peers: peer_addrs.iter().cloned().map(PeerClient::new).collect(),
        };
        ShardedCache::build(local, Some(topology), registry)
    }

    fn build(
        local: ArtifactCache,
        topology: Option<Topology>,
        registry: &Registry,
    ) -> ShardedCache {
        ShardedCache {
            local,
            topology,
            peer_hits: registry.counter("shard.peer_hits"),
            peer_misses: registry.counter("shard.peer_misses"),
            peer_errors: registry.counter("shard.peer_errors"),
            peer_puts: registry.counter("shard.peer_puts"),
            journal: registry.journal(),
        }
    }

    /// The local cache under this shard view (the `cache_get`/`cache_put`
    /// server side answers from here directly).
    pub fn local(&self) -> &ArtifactCache {
        &self.local
    }

    /// `(self_index, shard_count)` when sharded.
    pub fn shard_info(&self) -> Option<(usize, usize)> {
        self.topology
            .as_ref()
            .map(|t| (t.self_index, t.ring.shards()))
    }

    /// A snapshot of the peer-traffic counters.
    pub fn peer_stats(&self) -> ShardStats {
        ShardStats {
            peer_hits: self.peer_hits.get(),
            peer_misses: self.peer_misses.get(),
            peer_errors: self.peer_errors.get(),
            peer_puts: self.peer_puts.get(),
        }
    }

    /// Looks up artifacts for `key`, consulting the owning shard when
    /// that is a peer. Peer failure of any kind falls back to the local
    /// cache (which may hold the entry from a past degraded store) and
    /// from there to a normal counted miss.
    pub fn load(&self, key: &TraceKey) -> Option<(SliceForest, RunStats)> {
        let Some(topo) = &self.topology else {
            return self.local.load(key);
        };
        let digest = key.digest();
        let owner = topo.ring.owner(digest);
        if owner == topo.self_index {
            return self.local.load(key);
        }
        match topo.peers[owner].cache_get(digest) {
            Ok(Some((slices, stats_text))) => {
                // The bytes crossed a network: validate exactly like a
                // local disk read before trusting them.
                let recovered = read_forest_lenient(&slices);
                let stats = Json::parse(&stats_text)
                    .ok()
                    .and_then(|j| stats_from_json(&j));
                match (recovered.is_clean(), stats) {
                    (true, Some(stats)) => {
                        self.peer_hits.inc();
                        Some((recovered.forest, stats))
                    }
                    _ => {
                        self.peer_errors.inc();
                        self.journal.note(
                            "shard_peer_corrupt",
                            &format!("shard {owner} served a corrupt artifact for {digest:016x}"),
                        );
                        self.local.load(key)
                    }
                }
            }
            Ok(None) => {
                self.peer_misses.inc();
                self.local.load(key)
            }
            Err(e) => {
                self.peer_errors.inc();
                self.journal.note(
                    "shard_peer_error",
                    &format!("cache_get {digest:016x} from shard {owner} failed: {e}"),
                );
                self.local.load(key)
            }
        }
    }

    /// Persists artifacts for `key` on the owning shard. When the owner
    /// is a peer and unreachable, the entry is kept locally instead —
    /// this shard can then serve its own future lookups (and the peer's
    /// `cache_get` misses stay clean misses, not errors).
    ///
    /// # Errors
    ///
    /// Propagates local filesystem errors; callers treat stores as
    /// best-effort either way.
    pub fn store(&self, key: &TraceKey, forest: &SliceForest, stats: &RunStats) -> io::Result<()> {
        let Some(topo) = &self.topology else {
            return self.local.store(key, forest, stats);
        };
        let digest = key.digest();
        let owner = topo.ring.owner(digest);
        if owner == topo.self_index {
            return self.local.store(key, forest, stats);
        }
        let slices = write_forest(forest);
        let stats_text = stats_to_json(stats).encode();
        match topo.peers[owner].cache_put(digest, &slices, &stats_text) {
            Ok(()) => {
                self.peer_puts.inc();
                Ok(())
            }
            Err(e) => {
                self.peer_errors.inc();
                self.journal.note(
                    "shard_peer_error",
                    &format!("cache_put {digest:016x} to shard {owner} failed: {e}"),
                );
                self.local.store(key, forest, stats)
            }
        }
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ShardedCache");
        d.field("local", &self.local.dir());
        match &self.topology {
            Some(t) => d
                .field("self_index", &t.self_index)
                .field("shards", &t.ring.shards())
                .finish(),
            None => d.field("topology", &"local-only").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn ring_owner_is_deterministic_and_total() {
        let ring = HashRing::new(3, DEFAULT_VNODES);
        assert_eq!(ring.shards(), 3);
        for digest in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let owner = ring.owner(digest);
            assert!(owner < 3);
            assert_eq!(owner, ring.owner(digest), "owner must be stable");
            assert_eq!(
                owner,
                HashRing::new(3, DEFAULT_VNODES).owner(digest),
                "ring rebuild"
            );
        }
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = HashRing::new(1, 4);
        for digest in [0u64, 42, u64::MAX] {
            assert_eq!(ring.owner(digest), 0);
        }
        // Degenerate parameters clamp instead of panicking.
        assert_eq!(HashRing::new(0, 0).owner(7), 0);
    }

    #[test]
    fn growing_the_ring_only_reroutes_keys_to_the_new_shard() {
        let old = HashRing::new(3, DEFAULT_VNODES);
        let new = HashRing::new(4, DEFAULT_VNODES);
        let mut moved = 0u32;
        const KEYS: u32 = 4_000;
        for i in 0..KEYS {
            let digest = fnv1a64(format!("key-{i}").as_bytes());
            let before = old.owner(digest);
            let after = new.owner(digest);
            if before != after {
                assert_eq!(after, 3, "key may only move to the joining shard");
                moved += 1;
            }
        }
        // ~1/4 of the keyspace belongs to the new shard; generous bounds
        // (the tight statistical version lives in the property tests).
        assert!(moved > 0, "the new shard captured nothing");
        assert!(moved < KEYS / 2, "far too many keys moved: {moved}/{KEYS}");
    }
}
