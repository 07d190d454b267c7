//! Continuously updatable routing table with stable route ids — the
//! live counterpart of [`crate::FrozenBgpTable`].
//!
//! [`crate::FrozenBgpTable`] is a snapshot: correct for a fixed RIB, but a
//! single route change costs a full refreeze while lookups stall. A
//! [`LiveBgpTable`] stays updatable end-to-end: announce/withdraw
//! batches ([`RouteUpdate`]) apply incrementally through
//! [`eleph_net::EpochLpm`] — repainting only the changed prefix's slot
//! range as a new *generation* — while any number of readers keep
//! attributing packets against pinned [`TableView`]s, wait-free. A
//! batch writes the table in place except where a pinned view still
//! shares it, so a reader that drops its view before a batch and
//! re-pins after it (as the pipeline does) makes the batch copy
//! nothing.
//!
//! # Id semantics
//!
//! [`RouteId`]s here are **stable and append-only**, unlike the frozen
//! table's dump-ordered dense ids:
//!
//! * a route keeps its id for as long as it stays in the table;
//! * a withdrawn route's id *retires* — it is never reused, and its
//!   prefix/entry remain resolvable via [`TableView::prefix`] (so
//!   checkpointed accounting keyed by retired ids can still be
//!   validated);
//! * a re-announced prefix gets a **fresh** id — downstream accounting
//!   (the flow `KeyAllocator`) sees it as a new key, which is exactly
//!   the paper-faithful re-attribution semantics: history is not
//!   rewritten, old keys drain out through the classifier's latent-heat
//!   window.
//!
//! The id space therefore grows monotonically ([`LiveBgpTable::n_ids`])
//! while the live route count ([`LiveBgpTable::len`]) tracks the RIB.

use std::fmt;
use std::sync::{Arc, Mutex};

use eleph_net::epoch::LpmSnapshot;
use eleph_net::{EpochLpm, LpmDelta, LpmView, Prefix};

use crate::{BgpTable, RouteEntry, RouteId};

/// Entries per chunk of the append-only id → route store. Chunks behind
/// an `Arc` are shared with pinned [`TableView`]s; only the (at most
/// one) partially filled tail chunk is copied, and only when a writer
/// appends while a view holds it.
const ROUTE_CHUNK: usize = 1024;

/// One route change in an update stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteUpdate {
    /// Announce (insert or replace) a route.
    Announce(RouteEntry),
    /// Withdraw the route for exactly this prefix (no-op if absent).
    Withdraw(Prefix),
}

/// A timestamped batch of route updates: every update in a batch
/// applies atomically under one published generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Unix seconds at which the batch takes effect.
    pub at_unix: u64,
    /// The updates, applied in order within the batch.
    pub updates: Vec<RouteUpdate>,
}

/// Result of one [`LiveBgpTable::apply`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyReport {
    /// Generation published for this batch.
    pub generation: u64,
    /// Number of announces in the batch (each allocated a fresh id).
    pub announced: usize,
    /// Ids that retired: withdrawn routes plus routes replaced by a
    /// re-announce, in batch order.
    pub retired: Vec<RouteId>,
}

/// Append-only id → entry store, chunked so published views share all
/// full chunks with the writer.
struct Routes {
    chunks: Vec<Arc<Vec<RouteEntry>>>,
    n_ids: u32,
    live: usize,
}

impl Routes {
    fn push(&mut self, entry: RouteEntry) -> RouteId {
        let id = self.n_ids;
        assert!(id != u32::MAX, "route id space exhausted");
        if self.chunks.last().is_none_or(|c| c.len() >= ROUTE_CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(ROUTE_CHUNK)));
        }
        Arc::make_mut(self.chunks.last_mut().expect("chunk pushed above")).push(entry);
        self.n_ids += 1;
        id
    }
}

/// A continuously updatable BGP table: stable ids, epoch-swapped
/// incremental LPM underneath, wait-free pinned views.
///
/// ```
/// use eleph_bgp::{LiveBgpTable, RouteUpdate, RouteEntry, Origin, PeerClass};
///
/// let table = LiveBgpTable::new();
/// table.apply(&[RouteUpdate::Announce(RouteEntry {
///     prefix: "10.0.0.0/8".parse().unwrap(),
///     next_hop: "192.0.2.1".parse().unwrap(),
///     as_path: vec![1239],
///     origin: Origin::Igp,
///     peer_class: PeerClass::Tier1,
/// })]);
///
/// let view = table.view();
/// let id = view.attribute_id(u32::from_be_bytes([10, 1, 2, 3])).unwrap();
/// assert_eq!(view.prefix(id), "10.0.0.0/8".parse().unwrap());
/// assert_eq!(view.generation(), 1);
/// ```
pub struct LiveBgpTable {
    lpm: EpochLpm,
    routes: Mutex<Routes>,
}

impl LiveBgpTable {
    /// An empty table at generation 0.
    pub fn new() -> Self {
        LiveBgpTable {
            lpm: EpochLpm::new(),
            routes: Mutex::new(Routes {
                chunks: Vec::new(),
                n_ids: 0,
                live: 0,
            }),
        }
    }

    /// Seed a live table from a route list (e.g.
    /// [`crate::dump::read_routes`]), moving the routes in. Initial ids
    /// run `0..len()` in ascending prefix order, a later route for the
    /// same prefix replacing the earlier — identical to what
    /// [`crate::FrozenBgpTable::from_routes`] would assign — and the table
    /// starts at generation 0, so a checkpoint taken against the
    /// equivalent frozen table fingerprints the same.
    pub fn from_routes(routes: Vec<RouteEntry>) -> Self {
        let mut store = Routes {
            chunks: Vec::new(),
            n_ids: 0,
            live: 0,
        };
        let mut entries = Vec::with_capacity(routes.len());
        for e in eleph_net::rib_order(routes, |e| e.prefix) {
            let prefix = e.prefix;
            entries.push((prefix, store.push(e)));
        }
        store.live = entries.len();
        LiveBgpTable {
            lpm: EpochLpm::from_entries(entries),
            routes: Mutex::new(store),
        }
    }

    /// Seed a live table from a RIB snapshot:
    /// [`LiveBgpTable::from_routes`] over a clone of the table's routes.
    pub fn from_table(table: &BgpTable) -> Self {
        Self::from_routes(table.iter().cloned().collect())
    }

    /// Apply one batch of updates as a new generation.
    ///
    /// Announces allocate fresh ids (replacing the prefix's old route,
    /// whose id retires); withdraws retire the prefix's id, or do
    /// nothing if the prefix is not routed. Pinned views are
    /// unaffected (what they share is copied before it is written);
    /// views taken after `apply` returns see the batch in full.
    pub fn apply(&self, updates: &[RouteUpdate]) -> ApplyReport {
        let mut routes = self.routes.lock().expect("route store poisoned");
        let mut deltas = Vec::with_capacity(updates.len());
        let mut announced = 0usize;
        for update in updates {
            match update {
                RouteUpdate::Announce(entry) => {
                    let id = routes.push(entry.clone());
                    deltas.push(LpmDelta::Announce {
                        prefix: entry.prefix,
                        id,
                    });
                    announced += 1;
                }
                RouteUpdate::Withdraw(prefix) => {
                    deltas.push(LpmDelta::Withdraw { prefix: *prefix });
                }
            }
        }
        let applied = self.lpm.apply(&deltas);
        routes.live = routes.live + announced - applied.retired.len();
        ApplyReport {
            generation: applied.generation,
            announced,
            retired: applied.retired,
        }
    }

    /// Pin a consistent read view of the current generation. The view
    /// owns its snapshot: attribution against it is wait-free and
    /// unaffected by concurrent [`LiveBgpTable::apply`] calls. Taking
    /// one waits for an `apply` in progress and clones ~4 100 `Arc`s;
    /// holding one across an `apply` makes that batch copy every page
    /// (and the route store's tail chunk) the view shares.
    pub fn view(&self) -> TableView {
        // Pin the LPM snapshot *first*: route metadata is appended
        // before a generation is applied, so the chunks grabbed after
        // the pin always cover every id the snapshot can resolve.
        let snap = self.lpm.pin();
        let routes = self.routes.lock().expect("route store poisoned");
        TableView {
            snap,
            chunks: routes.chunks.clone(),
            n_ids: routes.n_ids,
        }
    }

    /// Generation of the most recently applied batch (0 = as built).
    pub fn generation(&self) -> u64 {
        self.lpm.generation()
    }

    /// Number of *live* routes.
    #[allow(
        clippy::len_without_is_empty,
        reason = "an `is_empty` that nothing calls is dead code"
    )]
    pub fn len(&self) -> usize {
        self.routes.lock().expect("route store poisoned").live
    }

    /// Total ids ever allocated (live + retired); the id space the
    /// downstream `KeyAllocator` must be able to address.
    pub fn n_ids(&self) -> usize {
        self.routes.lock().expect("route store poisoned").n_ids as usize
    }
}

impl Default for LiveBgpTable {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LiveBgpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let routes = self.routes.lock().expect("route store poisoned");
        f.debug_struct("LiveBgpTable")
            .field("live", &routes.live)
            .field("n_ids", &routes.n_ids)
            .field("generation", &self.lpm.generation())
            .finish_non_exhaustive()
    }
}

/// A pinned, immutable view of a [`LiveBgpTable`] generation.
///
/// Mirrors the [`crate::FrozenBgpTable`] attribution API; additionally
/// resolves *retired* ids (their routes stay in the append-only store),
/// which checkpoint revalidation relies on. While a view is held, an
/// [`LiveBgpTable::apply`] copies each page and route chunk it shares
/// before writing it; drop the view before applying to write in place.
#[derive(Clone)]
pub struct TableView {
    snap: Arc<LpmSnapshot>,
    chunks: Vec<Arc<Vec<RouteEntry>>>,
    n_ids: u32,
}

impl TableView {
    /// The generation this view is pinned to.
    pub fn generation(&self) -> u64 {
        self.snap.generation()
    }

    /// Size of the id space this view can resolve (live + retired).
    pub fn n_ids(&self) -> usize {
        self.n_ids as usize
    }

    /// Longest-prefix attribution returning only the route id.
    #[inline]
    pub fn attribute_id(&self, dst: u32) -> Option<RouteId> {
        self.snap.lookup_id(dst)
    }

    /// The prefix of route `id` — resolvable for retired ids too.
    ///
    /// # Panics
    /// If `id` was never allocated in this view's generation.
    #[inline]
    pub fn prefix(&self, id: RouteId) -> Prefix {
        self.route(id).prefix
    }

    /// The full entry of route `id` (live or retired).
    ///
    /// # Panics
    /// If `id` was never allocated in this view's generation.
    #[inline]
    pub fn route(&self, id: RouteId) -> &RouteEntry {
        assert!(
            id < self.n_ids,
            "route id {id} not allocated (n_ids {})",
            self.n_ids
        );
        &self.chunks[id as usize / ROUTE_CHUNK][id as usize % ROUTE_CHUNK]
    }
}

impl fmt::Debug for TableView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableView")
            .field("generation", &self.generation())
            .field("n_ids", &self.n_ids)
            .finish_non_exhaustive()
    }
}

impl LpmView<u32> for TableView {
    fn lookup_one(&self, addr: u32) -> Option<u32> {
        self.snap.lookup_id(addr)
    }

    fn lookup_batch(&self, addrs: &[u32], out: &mut [Option<u32>]) {
        self.snap.lookup_many(addrs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Origin, PeerClass};
    use std::net::Ipv4Addr;

    fn entry(prefix: &str) -> RouteEntry {
        RouteEntry {
            prefix: prefix.parse().unwrap(),
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            as_path: vec![1239, 701],
            origin: Origin::Igp,
            peer_class: PeerClass::Tier1,
        }
    }

    fn addr(s: &str) -> u32 {
        u32::from(s.parse::<Ipv4Addr>().unwrap())
    }

    #[test]
    fn from_table_ids_match_frozen_order() {
        let base = BgpTable::from_entries(vec![
            entry("10.1.0.0/16"),
            entry("9.0.0.0/8"),
            entry("10.0.0.0/8"),
        ]);
        let frozen = base.freeze();
        let live = LiveBgpTable::from_table(&base);
        assert_eq!(live.generation(), 0);
        assert_eq!(live.len(), 3);
        assert_eq!(live.n_ids(), 3);
        let view = live.view();
        for a in ["9.1.1.1", "10.1.2.3", "10.200.0.1", "11.0.0.1"] {
            assert_eq!(
                view.attribute_id(addr(a)),
                frozen.attribute_id(addr(a)),
                "{a}"
            );
        }
        assert_eq!(view.prefix(0), "9.0.0.0/8".parse().unwrap());
    }

    #[test]
    fn withdraw_retires_and_reannounce_gets_fresh_id() {
        let live = LiveBgpTable::from_table(&BgpTable::from_entries(vec![
            entry("10.0.0.0/8"),
            entry("10.1.0.0/16"),
        ]));
        let old_id = live.view().attribute_id(addr("10.1.2.3")).unwrap();
        assert_eq!(old_id, 1);

        let report = live.apply(&[RouteUpdate::Withdraw("10.1.0.0/16".parse().unwrap())]);
        assert_eq!(report.retired, vec![1]);
        assert_eq!(live.len(), 1);
        let mid = live.view();
        assert_eq!(
            mid.attribute_id(addr("10.1.2.3")),
            Some(0),
            "falls back to /8"
        );
        // the retired id still resolves its prefix (checkpoint path)
        assert_eq!(mid.prefix(old_id), "10.1.0.0/16".parse().unwrap());

        let report = live.apply(&[RouteUpdate::Announce(entry("10.1.0.0/16"))]);
        assert_eq!(report.announced, 1);
        assert!(report.retired.is_empty());
        let new_id = live.view().attribute_id(addr("10.1.2.3")).unwrap();
        assert_eq!(new_id, 2, "re-announced prefix gets a fresh id");
        assert_eq!(live.n_ids(), 3);
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn replacing_announce_retires_old_id() {
        let live = LiveBgpTable::from_table(&BgpTable::from_entries(vec![entry("10.0.0.0/8")]));
        let mut replacement = entry("10.0.0.0/8");
        replacement.as_path = vec![7018];
        let report = live.apply(&[RouteUpdate::Announce(replacement)]);
        assert_eq!(report.retired, vec![0]);
        let view = live.view();
        let id = view.attribute_id(addr("10.9.9.9")).unwrap();
        assert_eq!(id, 1);
        assert_eq!(view.route(id).as_path, vec![7018]);
        assert_eq!(
            view.route(0).as_path,
            vec![1239, 701],
            "retired entry preserved"
        );
    }

    #[test]
    fn pinned_view_survives_later_batches() {
        let live = LiveBgpTable::from_table(&BgpTable::from_entries(vec![entry("10.0.0.0/8")]));
        let pinned = live.view();
        live.apply(&[RouteUpdate::Withdraw("10.0.0.0/8".parse().unwrap())]);
        assert_eq!(pinned.attribute_id(addr("10.1.2.3")), Some(0));
        assert_eq!(pinned.generation(), 0);
        assert_eq!(live.view().attribute_id(addr("10.1.2.3")), None);
    }

    #[test]
    fn delta_built_equals_fresh_freeze() {
        let live = LiveBgpTable::new();
        live.apply(&[
            RouteUpdate::Announce(entry("10.0.0.0/8")),
            RouteUpdate::Announce(entry("10.1.0.0/16")),
            RouteUpdate::Announce(entry("10.1.2.192/27")),
        ]);
        live.apply(&[RouteUpdate::Withdraw("10.1.0.0/16".parse().unwrap())]);
        live.apply(&[RouteUpdate::Announce(entry("203.0.113.0/24"))]);

        // Final RIB frozen from scratch.
        let fresh = BgpTable::from_entries(vec![
            entry("10.0.0.0/8"),
            entry("10.1.2.192/27"),
            entry("203.0.113.0/24"),
        ])
        .freeze();
        let view = live.view();
        for a in [
            "10.0.0.1",
            "10.1.2.3",
            "10.1.2.200",
            "10.1.2.223",
            "203.0.113.9",
            "8.8.8.8",
        ] {
            let via_live = view.attribute_id(addr(a)).map(|id| view.prefix(id));
            let via_fresh = fresh.attribute_id(addr(a)).map(|id| fresh.prefix(id));
            assert_eq!(via_live, via_fresh, "{a}");
        }
        assert_eq!(live.len(), fresh.len());
    }

    #[test]
    fn chunk_boundary_appends_stay_shared() {
        let live = LiveBgpTable::new();
        // Cross the ROUTE_CHUNK boundary with distinct /24s.
        let n = super::ROUTE_CHUNK + 5;
        for i in 0..n {
            let b = 1 + (i / 256) as u8;
            let c = (i % 256) as u8;
            live.apply(&[RouteUpdate::Announce(entry(&format!("{b}.{c}.0.0/24")))]);
        }
        assert_eq!(live.n_ids(), n);
        let view = live.view();
        assert_eq!(view.n_ids(), n);
        let last = (n - 1) as u32;
        assert_eq!(view.route(last).prefix, view.prefix(last));
    }
}
