//! Per-shard flow state with bounded memory.
//!
//! Each shard worker owns one `FlowTable` exclusively (share-nothing), so
//! no synchronization appears on the ingest path. The table enforces two
//! caps — flow count and approximate recorder-state bytes — by evicting
//! the least-recently-updated flows, plus an optional idle TTL measured
//! in sink timestamps. The collector therefore survives unbounded flow
//! churn: old flows age out instead of accumulating forever.
//!
//! The table is built for the ingest hot path:
//!
//! * flows live in a slab of slots linked into an intrusive LRU list, so
//!   a recency touch is O(1) pointer surgery (no tree rebalance, no
//!   allocation);
//! * the flow→slot map hashes `u64` IDs with a salted splitmix64
//!   finalizer instead of SipHash;
//! * recency and byte accounting are *batch-granular*: a flow is touched
//!   once per batch (callers pass a batch stamp), and `state_bytes` is
//!   re-read only on a fixed packet stride, so the per-digest
//!   cost is one map probe plus the recorder update.

use crate::config::FlowId;
use pint_core::FlowRecorder;
use pint_sketches::KllSketch;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// Sentinel for "no slot" in the intrusive list.
const NIL: u32 = u32::MAX;

/// Re-read a flow's `state_bytes` estimate only after this many absorbed
/// packets. Recorder state grows by at most a few words per packet, so
/// the byte-cap enforcement lags the true footprint by a bounded, small
/// amount in exchange for dropping the estimator call from the hot path.
const REFRESH_STRIDE: u64 = 16;

/// `u64`-key hasher: one splitmix64 finalizer round instead of SipHash.
/// Flow IDs are already arbitrary 64-bit values; the finalizer's
/// avalanche is what HashMap needs, at a fraction of the cost. The
/// per-table random salt keeps the map keyed: mix64 alone is an
/// invertible public function, so without the salt an adversary could
/// craft flow IDs that all collide (hash-flooding) — flow IDs come off
/// the wire.
#[derive(Default, Clone)]
pub struct Mix64Hasher {
    salt: u64,
    out: u64,
}

impl Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.out
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.out = pint_core::hash::mix64(v ^ self.salt);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64 key path): fold 8-byte
        // chunks through the same finalizer.
        self.out ^= self.salt;
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.out = pint_core::hash::mix64(self.out ^ u64::from_le_bytes(w));
        }
    }
}

/// Builds salted [`Mix64Hasher`]s; one random salt per table.
#[derive(Clone)]
struct Mix64Build {
    salt: u64,
}

impl Mix64Build {
    fn new() -> Self {
        // Derive the salt from std's process-random SipHash keys — the
        // same entropy source `HashMap::new` relies on, with no new
        // dependency.
        use std::hash::BuildHasher;
        Self {
            salt: std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish(),
        }
    }
}

impl std::hash::BuildHasher for Mix64Build {
    type Hasher = Mix64Hasher;

    fn build_hasher(&self) -> Mix64Hasher {
        Mix64Hasher {
            salt: self.salt,
            out: 0,
        }
    }
}

/// Hop-sketch blocks taken out of their entries since the last
/// [`FlowTable::free_retired`]: blocks dropped by
/// [`FlowEntry::rec_mut`] or evicted with their flow.
pub type Retired = Vec<Arc<[KllSketch]>>;

/// Per-flow bookkeeping around the boxed recorder.
///
/// Besides the recorder, an entry keeps the hop-sketch block it last
/// published to readers ([`hop_block`](Self::hop_block)), until the
/// recorder changes. The block is reader memory, not recorder state:
/// it is left out of the `state_bytes` estimate and so out of byte-cap
/// eviction, and evicting the flow retires it.
pub struct FlowEntry {
    /// The flow's Recording + Inference module. Mutable only through
    /// [`rec_mut`](Self::rec_mut), which drops the published block.
    rec: Box<dyn FlowRecorder>,
    /// The hop sketches as of the last read that needed them, shared
    /// with every result that read them; `None` once `rec` changed.
    published: Option<Arc<[KllSketch]>>,
    /// Latest sink timestamp observed for this flow.
    pub last_ts: u64,
    /// Bitmask of event rules currently fired (armed again on cooldown).
    pub fired_rules: u64,
    /// Per-rule timestamp of the last firing; allocated lazily, only for
    /// flows that fire a cooldown rule (indexed by rule).
    pub fired_ts: Vec<u64>,
    /// `rec.packets()` at the last event-rule evaluation (amortizes
    /// quantile recomputation on the ingest path).
    pub last_eval_packets: u64,
    /// Cached `state_bytes` estimate (refreshed every `REFRESH_STRIDE`
    /// packets).
    bytes: usize,
    /// `rec.packets()` at the last estimate refresh.
    packets_at_refresh: u64,
    /// Batch stamp of the last touch (dedups touches within a batch).
    seen: u64,
}

impl FlowEntry {
    /// The flow's recorder, read-only.
    pub fn rec(&self) -> &dyn FlowRecorder {
        self.rec.as_ref()
    }

    /// The flow's recorder, mutably: the only way to change it, so the
    /// published block goes first, into `retired`. A later read then
    /// publishes a fresh block instead of a stale one.
    pub fn rec_mut<'a>(&'a mut self, retired: &mut Retired) -> &'a mut dyn FlowRecorder {
        if let Some(block) = self.published.take() {
            retired.push(block);
        }
        self.rec.as_mut()
    }

    /// The flow's hop sketches as one shared block. The first call
    /// after the recorder changed copies the sketches and publishes the
    /// copy; every later call until the next change returns that same
    /// block.
    pub fn hop_block(&mut self) -> Arc<[KllSketch]> {
        let rec = &self.rec;
        Arc::clone(self.published.get_or_insert_with(|| {
            rec.hop_sketches()
                .into_iter()
                .map(Cow::into_owned)
                .collect()
        }))
    }
}

/// One slab slot: a flow entry plus its LRU links. `entry == None` marks
/// a free slot awaiting reuse.
struct Slot {
    flow: FlowId,
    entry: Option<FlowEntry>,
    /// Next-older flow (towards the eviction end).
    prev: u32,
    /// Next-newer flow.
    next: u32,
}

/// Eviction/ingest counters for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Flows created.
    pub created: u64,
    /// Flows evicted by the flow-count or byte cap (LRU order).
    pub evicted_lru: u64,
    /// Flows evicted by idle TTL.
    pub evicted_ttl: u64,
}

/// One shard's flow map with LRU + TTL eviction and byte accounting.
pub struct FlowTable {
    map: HashMap<FlowId, u32, Mix64Build>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Oldest (next eviction victim).
    lru_head: u32,
    /// Most recently touched.
    lru_tail: u32,
    total_bytes: usize,
    max_flows: usize,
    max_bytes: usize,
    ttl: Option<u64>,
    /// Clock of the last TTL sweep (sweeps are amortized; see
    /// [`expire`](Self::expire)).
    last_sweep: u64,
    /// Stamp source for the compatibility wrapper [`entry_mut`](Self::entry_mut).
    auto_stamp: u64,
    /// Published blocks taken out of entries, awaiting
    /// [`free_retired`](Self::free_retired).
    retired: Retired,
    /// Counters exposed to the shard worker.
    pub stats: TableStats,
}

impl FlowTable {
    /// Creates a table with the given caps.
    pub fn new(max_flows: usize, max_bytes: usize, ttl: Option<u64>) -> Self {
        Self {
            map: HashMap::with_hasher(Mix64Build::new()),
            slots: Vec::new(),
            free: Vec::new(),
            lru_head: NIL,
            lru_tail: NIL,
            total_bytes: 0,
            max_flows,
            max_bytes,
            ttl,
            last_sweep: 0,
            auto_stamp: 0,
            retired: Vec::new(),
            stats: TableStats::default(),
        }
    }

    /// Tracked flows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no flow is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate recorder-state bytes across all flows.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    // ----- intrusive LRU list surgery -------------------------------

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.lru_head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.lru_tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_newest(&mut self, idx: u32) {
        let tail = self.lru_tail;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = tail;
            s.next = NIL;
        }
        if tail == NIL {
            self.lru_head = idx;
        } else {
            self.slots[tail as usize].next = idx;
        }
        self.lru_tail = idx;
    }

    // ----- ingest hot path ------------------------------------------

    /// Looks up (or creates) the slot for `flow`, stamping recency and
    /// `last_ts` at batch granularity: the LRU touch happens only the
    /// first time a given `stamp` sees the flow. Returns the slot index
    /// and whether this was that first touch (callers collect touched
    /// slots without a sort/dedup pass).
    ///
    /// Creation may evict other flows to honor the flow-count cap; the
    /// new flow is never its own victim.
    pub fn upsert(
        &mut self,
        flow: FlowId,
        ts: u64,
        stamp: u64,
        make: impl FnOnce() -> Box<dyn FlowRecorder>,
    ) -> (u32, bool) {
        if let Some(&idx) = self.map.get(&flow) {
            let first = {
                let entry = self.slots[idx as usize]
                    .entry
                    .as_mut()
                    .expect("mapped slot");
                entry.last_ts = entry.last_ts.max(ts);
                let first = entry.seen != stamp;
                entry.seen = stamp;
                first
            };
            if first && self.lru_tail != idx {
                self.unlink(idx);
                self.push_newest(idx);
            }
            return (idx, first);
        }
        // Make room first so the new flow is never its own victim.
        while self.map.len() >= self.max_flows {
            self.evict_oldest();
        }
        let rec = make();
        let bytes = rec.state_bytes();
        self.total_bytes += bytes;
        self.stats.created += 1;
        let entry = FlowEntry {
            rec,
            published: None,
            last_ts: ts,
            fired_rules: 0,
            fired_ts: Vec::new(),
            last_eval_packets: 0,
            bytes,
            packets_at_refresh: 0,
            seen: stamp,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.flow = flow;
                s.entry = Some(entry);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("≤ 4G flows per shard");
                self.slots.push(Slot {
                    flow,
                    entry: Some(entry),
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
        };
        self.push_newest(idx);
        self.map.insert(flow, idx);
        (idx, true)
    }

    /// Compatibility wrapper around [`upsert`](Self::upsert): every call
    /// counts as its own batch (touches recency unconditionally).
    pub fn entry_mut(
        &mut self,
        flow: FlowId,
        ts: u64,
        make: impl FnOnce() -> Box<dyn FlowRecorder>,
    ) -> (&mut FlowEntry, &mut Retired) {
        self.auto_stamp += 1;
        let stamp = self.auto_stamp;
        let (idx, _) = self.upsert(flow, ts, stamp, make);
        self.entry_if(idx, flow).expect("just upserted")
    }

    /// Direct slot access, validated against the expected flow: `None`
    /// if the slot was evicted (and possibly reused) since the index was
    /// obtained. Comes with the table's retired list, for
    /// [`FlowEntry::rec_mut`].
    pub fn entry_if(&mut self, idx: u32, flow: FlowId) -> Option<(&mut FlowEntry, &mut Retired)> {
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.flow != flow {
            return None;
        }
        Some((slot.entry.as_mut()?, &mut self.retired))
    }

    /// Frees the blocks retired since the last call. The shard worker
    /// calls it off the apply path — before it parks and before it
    /// publishes new blocks for a read — so ingest never pays for
    /// freeing reader memory, the `measure-alloc` window never counts
    /// those frees as recorder state given back, and retired and
    /// published blocks together stay within one block per flow.
    pub fn free_retired(&mut self) {
        self.retired.clear();
    }

    /// Re-reads `state_bytes` for the flow in slot `idx` if it absorbed
    /// at least `REFRESH_STRIDE` (16) packets since the last estimate, then
    /// evicts LRU flows until the byte cap holds again.
    pub fn refresh_bytes_at(&mut self, idx: u32, flow: FlowId) {
        if let Some((entry, _)) = self.entry_if(idx, flow) {
            let packets = entry.rec.packets();
            if packets.wrapping_sub(entry.packets_at_refresh) >= REFRESH_STRIDE {
                entry.packets_at_refresh = packets;
                let now = entry.rec.state_bytes();
                let before = entry.bytes;
                entry.bytes = now;
                self.total_bytes = self.total_bytes - before + now;
            }
        }
        while self.total_bytes > self.max_bytes && self.map.len() > 1 {
            self.evict_oldest();
        }
    }

    /// [`refresh_bytes_at`](Self::refresh_bytes_at) by flow ID.
    pub fn refresh_bytes(&mut self, flow: FlowId) {
        if let Some(&idx) = self.map.get(&flow) {
            self.refresh_bytes_at(idx, flow);
        }
    }

    /// Evicts flows whose `last_ts` is older than `now − ttl`.
    ///
    /// A sweep is O(flows), so sweeps are amortized: at most ~4 per TTL
    /// window (the first sweep after each `ttl/4` of clock advance).
    /// Flows therefore linger at most ~1.25·ttl — acceptable slack for
    /// an idle-eviction policy, and the ingest hot path stays O(batch).
    pub fn expire(&mut self, now: u64) {
        let Some(ttl) = self.ttl else {
            return;
        };
        let stride = (ttl / 4).max(1);
        if now < self.last_sweep.saturating_add(stride) {
            return;
        }
        self.last_sweep = now;
        let cutoff = now.saturating_sub(ttl);
        // Walk the LRU list oldest-first; recency order matches last_ts
        // order closely but not exactly (batch-granular touches), so the
        // walk covers the whole list but victims cluster at the front.
        let victims: Vec<u32> = self
            .iter_slots()
            .filter(|&(_, slot)| slot.entry.as_ref().is_some_and(|e| e.last_ts < cutoff))
            .map(|(idx, _)| idx)
            .collect();
        for idx in victims {
            self.remove_slot(idx);
            self.stats.evicted_ttl += 1;
        }
    }

    fn evict_oldest(&mut self) {
        let idx = self.lru_head;
        if idx == NIL {
            return;
        }
        debug_assert!(
            self.slots[idx as usize].entry.is_some(),
            "LRU list out of sync"
        );
        self.remove_slot(idx);
        self.stats.evicted_lru += 1;
    }

    fn remove_slot(&mut self, idx: u32) {
        let flow = self.slots[idx as usize].flow;
        if let Some(mut entry) = self.slots[idx as usize].entry.take() {
            self.retired.extend(entry.published.take());
            self.total_bytes -= entry.bytes;
            self.unlink(idx);
            self.map.remove(&flow);
            self.free.push(idx);
        }
    }

    fn iter_slots(&self) -> impl Iterator<Item = (u32, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.entry.is_some())
            .map(|(i, s)| (i as u32, s))
    }

    /// Iterates over `(flow, entry)` pairs (snapshot production).
    pub fn iter(&self) -> impl Iterator<Item = (&FlowId, &FlowEntry)> {
        self.slots
            .iter()
            .filter_map(|s| s.entry.as_ref().map(|e| (&s.flow, e)))
    }

    /// [`iter`](Self::iter) with mutable entries, for reads that
    /// publish hop blocks ([`FlowEntry::hop_block`]).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut FlowEntry)> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.entry.as_mut().map(|e| (s.flow, e)))
    }

    /// Iterates `(flow, entry)` from least to most recently touched.
    pub fn iter_lru(&self) -> impl Iterator<Item = (FlowId, &FlowEntry)> {
        let mut idx = self.lru_head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(idx as usize)?;
            idx = slot.next;
            Some((slot.flow, slot.entry.as_ref()?))
        })
    }

    /// Shared access without touching LRU recency (snapshot production).
    pub fn get(&self, flow: FlowId) -> Option<&FlowEntry> {
        let idx = *self.map.get(&flow)?;
        self.slots[idx as usize].entry.as_ref()
    }

    /// Mutable access without touching LRU recency (reads that publish
    /// hop blocks).
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut FlowEntry> {
        let idx = *self.map.get(&flow)?;
        self.slots[idx as usize].entry.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
    use pint_core::value::Digest;

    fn recorder() -> Box<dyn FlowRecorder> {
        let agg = DynamicAggregator::new(1, 8, 100.0, 1.0e7);
        Box::new(DynamicRecorder::new_sketched(agg, 3, 64))
    }

    #[test]
    fn lru_evicts_least_recently_updated() {
        let mut t = FlowTable::new(3, usize::MAX, None);
        for f in 1..=3u64 {
            t.entry_mut(f, f, recorder);
        }
        // Touch flow 1 again: flow 2 becomes the oldest.
        t.entry_mut(1, 10, recorder);
        t.entry_mut(4, 11, recorder);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|(&f, _)| f != 2), "flow 2 should be evicted");
        assert_eq!(t.stats.evicted_lru, 1);
        assert_eq!(t.stats.created, 4);
    }

    #[test]
    fn batch_stamp_touches_once_per_batch() {
        let mut t = FlowTable::new(2, usize::MAX, None);
        let (idx, first) = t.upsert(1, 0, 100, recorder);
        assert!(first, "creation is a first touch");
        let (idx2, first2) = t.upsert(1, 1, 100, recorder);
        assert_eq!(idx, idx2);
        assert!(!first2, "same stamp: no second touch");
        let (_, first3) = t.upsert(1, 2, 101, recorder);
        assert!(first3, "new stamp: touched again");
        // Recency within stamp 100 still ordered flow 1 < flow 2.
        t.upsert(2, 3, 100, recorder);
        t.upsert(3, 4, 102, recorder); // evicts flow 1 (oldest touch)
        assert!(t.iter().all(|(&f, _)| f != 1), "flow 1 evicted first");
    }

    #[test]
    fn entry_if_rejects_stale_slots() {
        let mut t = FlowTable::new(1, usize::MAX, None);
        let (idx, _) = t.upsert(1, 0, 1, recorder);
        assert!(t.entry_if(idx, 1).is_some());
        t.upsert(2, 1, 2, recorder); // evicts flow 1, reuses the slot
        assert!(t.entry_if(idx, 1).is_none(), "stale (idx, flow) rejected");
        assert!(t.entry_if(idx, 2).is_some(), "current occupant accessible");
    }

    #[test]
    fn byte_cap_evicts_until_it_fits() {
        let mut t = FlowTable::new(usize::MAX, 4_000, None);
        let agg = DynamicAggregator::new(1, 8, 100.0, 1.0e7);
        for f in 0..20u64 {
            let (e, retired) = t.entry_mut(f, f, recorder);
            // Grow the recorder's state with real samples.
            for pid in 0..200u64 {
                let mut d = Digest::new(1);
                for hop in 1..=3 {
                    agg.encode_hop(pid, hop, 1_000.0, &mut d, 0);
                }
                e.rec_mut(retired).absorb(pid, &d);
            }
            t.refresh_bytes(f);
        }
        assert!(t.total_bytes() <= 4_000, "bytes {}", t.total_bytes());
        assert!(t.stats.evicted_lru > 0);
        assert!(t.len() < 20);
    }

    #[test]
    fn ttl_expires_idle_flows_only() {
        let mut t = FlowTable::new(usize::MAX, usize::MAX, Some(100));
        t.entry_mut(1, 0, recorder);
        t.entry_mut(2, 150, recorder);
        t.expire(200);
        assert_eq!(t.len(), 1, "flow 1 idle since ts=0 must expire");
        assert!(t.iter().any(|(&f, _)| f == 2));
        assert_eq!(t.stats.evicted_ttl, 1);
        // Updating the survivor keeps it alive forever.
        t.entry_mut(2, 300, recorder);
        t.expire(350);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn accounting_stays_consistent_across_churn() {
        let mut t = FlowTable::new(8, usize::MAX, None);
        for f in 0..1000u64 {
            t.entry_mut(f, f, recorder);
            t.refresh_bytes(f);
        }
        assert_eq!(t.len(), 8);
        let manual: usize = t.iter().map(|(_, e)| e.rec.state_bytes()).sum();
        assert_eq!(t.total_bytes(), manual);
        assert_eq!(t.stats.created, 1000);
        assert_eq!(t.stats.evicted_lru, 992);
    }

    #[test]
    fn slot_reuse_keeps_list_consistent() {
        // Churn through far more flows than slots, with interleaved
        // touches, and verify map/list/free-list agreement throughout.
        let mut t = FlowTable::new(4, usize::MAX, None);
        for round in 0..500u64 {
            t.entry_mut(round % 11, round, recorder);
            if round % 3 == 0 {
                t.entry_mut(round % 5, round, recorder);
            }
            assert!(t.len() <= 4);
            let walked = {
                let mut n = 0;
                let mut idx = t.lru_head;
                while idx != NIL {
                    n += 1;
                    idx = t.slots[idx as usize].next;
                }
                n
            };
            assert_eq!(walked, t.len(), "LRU list covers exactly the live flows");
        }
        assert_eq!(
            t.free.len() + t.len(),
            t.slots.len(),
            "every slot is live or free"
        );
    }
}
