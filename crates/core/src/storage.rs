//! Runtime storage for one GRETA graph (paper §7, Fig. 11).
//!
//! Vertices live in a slab ([`VertexStore`]). For predecessor lookup they
//! are indexed by **Time Pane** → **template state** → **Vertex Tree**:
//!
//! * panes are consecutive time intervals of length `gcd(within, slide)`;
//!   window boundaries align with pane boundaries, so a whole pane (and its
//!   trees) is batch-deleted once its last window closed;
//! * each pane holds one ordered tree per template state, keyed by
//!   `(sort key, seq)`: the attribute of that state's range-form edge
//!   predicate (falling back to event time), so edge predicates are
//!   answered with range queries.
//!
//! A Vertex Tree is an arena treap. For *aggregate-indexed* states (see
//! [`AugSpec`]) every node also carries its subtree's entry count and the
//! summed per-window aggregates of the pane, so a range of predecessors
//! is merged as O(log n) subtree sums instead of one merge per
//! predecessor
//! ([`GraphStorage::fold_predecessors`]). Sums are always recomputed as
//! `own + left + right` (lazily, when a fold needs them) over a tree whose
//! shape depends only on the live entries (priorities hash the key, the event time and the rank among
//! equal `(key, time)` entries), so floating-point results do not depend
//! on insertion history.
//!
//! Edges are **not** stored: each edge is traversed exactly once, when the
//! newer event's aggregate is computed (paper §7).

use crate::agg::{AggLayout, AggState, TrendNum};
use crate::window::{windows_of, WindowId};
use greta_query::ast::CmpOp;
use greta_query::{StateId, WindowSpec};
use greta_types::{shared_heap_size, AttrId, EventRef, Time};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Slab index of a vertex.
pub type VertexId = u32;

/// A graph vertex: one matched event at one template state, carrying one
/// aggregate per window it falls into (paper §4.2 / §6).
#[derive(Debug, Clone)]
pub struct Vertex<N: TrendNum> {
    /// The matched event, shared with the ingest path and every other
    /// vertex instantiated from it (zero-copy event plane).
    pub event: EventRef,
    /// Template state this vertex instantiates.
    pub state: StateId,
    /// Arrival sequence within the owning partition graph (selection
    /// semantics; see `Semantics`).
    pub seq: u64,
    /// Latest start time over all (sub-)trends ending at this vertex —
    /// propagated like an aggregate; drives Definition 5 invalidation.
    /// Edges answered by the predecessor aggregate index do not propagate
    /// it: they exist only in alternatives without negation, where nothing
    /// reads it.
    pub latest_start: Time,
    /// Per-window aggregates, sorted by window id.
    pub aggs: Vec<(WindowId, AggState<N>)>,
}

impl<N: TrendNum> Vertex<N> {
    /// Aggregate for a window, if the vertex falls into it.
    pub fn agg(&self, wid: WindowId) -> Option<&AggState<N>> {
        self.aggs
            .binary_search_by_key(&wid, |(w, _)| *w)
            .ok()
            .map(|i| &self.aggs[i].1)
    }

    /// Aggregate for the `j`-th window of its pane (whose first window is
    /// `first`): a direct index on the hot paths of the aggregate index,
    /// with the search as fallback for a list not starting at `first`.
    fn pane_agg(&self, first: WindowId, j: usize) -> Option<&AggState<N>> {
        let wid = first + j as WindowId;
        match self.aggs.get(j) {
            Some((w, st)) if *w == wid => Some(st),
            _ => self.agg(wid),
        }
    }

    /// Approximate heap bytes of this vertex. The shared event payload is
    /// amortized over its current holders ([`shared_heap_size`]), so an
    /// event referenced by many vertices/shards is counted once overall —
    /// not once per reference.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + shared_heap_size(&self.event)
            + self
                .aggs
                .iter()
                .map(|(_, a)| std::mem::size_of::<(WindowId, AggState<N>)>() + a.heap_size())
                .sum::<usize>()
    }
}

/// Slab of vertices with free-list reuse and running byte accounting.
///
/// The byte charge of a vertex is recorded at insert time: with shared
/// `EventRef` payloads, [`Vertex::heap_size`] depends on the Arc strong
/// count at the moment of the call, so subtracting a *recomputed* size at
/// removal could drift (or underflow) as sharing changes. Each slot
/// remembers exactly what it charged.
#[derive(Debug, Default)]
pub struct VertexStore<N: TrendNum> {
    slots: Vec<Option<(Vertex<N>, usize)>>,
    free: Vec<VertexId>,
    live: usize,
    bytes: usize,
}

impl<N: TrendNum> VertexStore<N> {
    /// Empty store.
    pub fn new() -> Self {
        VertexStore {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            bytes: 0,
        }
    }

    /// Insert a vertex, returning its id.
    pub fn insert(&mut self, v: Vertex<N>) -> VertexId {
        let charged = v.heap_size();
        self.bytes += charged;
        self.live += 1;
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some((v, charged));
                id
            }
            None => {
                self.slots.push(Some((v, charged)));
                (self.slots.len() - 1) as VertexId
            }
        }
    }

    /// Shared access.
    pub fn get(&self, id: VertexId) -> &Vertex<N> {
        &self.slots[id as usize].as_ref().expect("live vertex").0
    }

    /// Remove a vertex (pane purge / trend pruning).
    pub fn remove(&mut self, id: VertexId) {
        if let Some((_, charged)) = self.slots[id as usize].take() {
            self.bytes = self.bytes.saturating_sub(charged);
            self.live -= 1;
            self.free.push(id);
        }
    }

    /// Number of live vertices.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Running byte estimate of live vertices.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// The subtree aggregates an aggregate-indexed state's trees keep per
/// node: the [`AggState`] slots of the query's layout, per window of the
/// pane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugSpec {
    counts: usize,
    sums: usize,
    mins: usize,
    maxs: usize,
}

impl AugSpec {
    /// Slots for `layout`.
    pub fn new(layout: &AggLayout) -> AugSpec {
        AugSpec {
            counts: layout.count_targets.len(),
            sums: layout.sum_targets.len(),
            mins: layout.min_targets.len(),
            maxs: layout.max_targets.len(),
        }
    }

    /// Carrier slots per window: `count`, then `counts_e`, then `sums`.
    fn nums(&self) -> usize {
        1 + self.counts + self.sums
    }

    /// Extremum slots per window: `mins`, then `maxs`.
    fn exts(&self) -> usize {
        self.mins + self.maxs
    }
}

/// Work done by one [`GraphStorage::fold_predecessors`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Predecessor entries covered (the edges of the scan it replaces).
    pub edges: u64,
    /// Per-window aggregate merges performed (subtree sums or single
    /// entries).
    pub merges: u64,
}

/// A sort key as an integer in the order of `f64::total_cmp` (the same
/// bit transform), so tree comparisons are integer comparisons.
fn ord_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Inclusive bounds of a range query on a tree's ordered keys; `lo > hi`
/// is empty.
#[derive(Debug, Clone, Copy)]
struct KeyRange {
    lo: i64,
    hi: i64,
}

impl KeyRange {
    const ALL: KeyRange = KeyRange {
        lo: i64::MIN,
        hi: i64::MAX,
    };
    const EMPTY: KeyRange = KeyRange {
        lo: i64::MAX,
        hi: i64::MIN,
    };

    /// Keys satisfying `key ⟨op⟩ bound`; `None` and `Ne` (not a contiguous
    /// range: the caller filters) cover every key.
    fn of(range: Option<(CmpOp, f64)>) -> KeyRange {
        let Some((op, b)) = range else {
            return KeyRange::ALL;
        };
        let k = ord_key(b);
        let below = |hi: Option<i64>| {
            hi.map_or(KeyRange::EMPTY, |hi| KeyRange {
                hi,
                ..KeyRange::ALL
            })
        };
        let above = |lo: Option<i64>| {
            lo.map_or(KeyRange::EMPTY, |lo| KeyRange {
                lo,
                ..KeyRange::ALL
            })
        };
        match op {
            CmpOp::Ne => KeyRange::ALL,
            CmpOp::Lt => below(k.checked_sub(1)),
            CmpOp::Le => below(Some(k)),
            CmpOp::Gt => above(k.checked_add(1)),
            CmpOp::Ge => above(Some(k)),
            CmpOp::Eq => KeyRange { lo: k, hi: k },
        }
    }

    /// Which bounds a descent still has to check.
    fn bounds(&self) -> (bool, bool) {
        (self.lo != i64::MIN, self.hi != i64::MAX)
    }

    fn contains(&self, key: i64) -> bool {
        self.lo <= key && key <= self.hi
    }
}

/// Null arena link.
const NIL: u32 = u32::MAX;

/// One tree entry. Freed slots carry `id == NIL`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Sort key, [`ord_key`]-encoded.
    key: i64,
    seq: u64,
    id: VertexId,
    prio: u32,
    left: u32,
    right: u32,
    /// Entries in this subtree.
    size: u32,
    /// The subtree changed since its sums were last recomputed (see
    /// [`VertexTree::clean`]).
    stale: bool,
}

fn mix(mut z: u64) -> u64 {
    // splitmix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Treap priority: a fixed hash, so the tree shape is a function of the
/// entries alone.
fn priority(key: i64, a: u64, b: u64) -> u32 {
    (mix(mix(mix(key as u64) ^ a) ^ b) >> 32) as u32
}

/// One piece of a range decomposition.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// A whole subtree inside the range.
    Subtree(u32),
    /// A single entry inside the range (its subtrees are not).
    Entry(u32),
}

/// Flat subtree aggregates of an aggregate-indexed tree, `windows` windows
/// starting at `first`, one fixed-size stripe per arena slot.
#[derive(Debug)]
struct Sums<N: TrendNum> {
    spec: AugSpec,
    first: WindowId,
    windows: usize,
    nums: Vec<N>,
    exts: Vec<f64>,
    /// Heap bytes held by `nums` (non-zero only for heap carriers), as of
    /// the last recompute of each slot.
    heap: usize,
}

impl<N: TrendNum> Sums<N> {
    fn new(spec: AugSpec, pane_start: Time, window: &WindowSpec) -> Sums<N> {
        // Every time in a pane falls into the same windows (their bounds
        // align with pane bounds).
        let mut ws = windows_of(pane_start, window);
        let first = ws.next();
        let windows = first.map_or(0, |_| 1 + ws.count());
        Sums {
            spec,
            first: first.unwrap_or(0),
            windows,
            nums: Vec::new(),
            exts: Vec::new(),
            heap: 0,
        }
    }

    fn stride_nums(&self) -> usize {
        self.windows * self.spec.nums()
    }

    fn stride_exts(&self) -> usize {
        self.windows * self.spec.exts()
    }

    /// Bytes charged per entry.
    fn entry_bytes(&self) -> usize {
        self.stride_nums() * std::mem::size_of::<N>()
            + self.stride_exts() * std::mem::size_of::<f64>()
    }

    /// Append one slot's stripes.
    fn grow(&mut self) {
        self.nums
            .extend(std::iter::repeat_with(N::zero).take(self.stride_nums()));
        self.exts
            .extend(std::iter::repeat_n(0.0, self.stride_exts()));
    }

    /// `x`'s aggregates for its `j`-th window.
    fn nums_of(&self, x: u32, j: usize) -> &[N] {
        let n = self.spec.nums();
        let at = x as usize * self.stride_nums() + j * n;
        &self.nums[at..at + n]
    }

    fn exts_of(&self, x: u32, j: usize) -> &[f64] {
        let n = self.spec.exts();
        let at = x as usize * self.stride_exts() + j * n;
        &self.exts[at..at + n]
    }

    /// Recompute `x`'s stripes as `own + left + right`.
    fn recompute(&mut self, x: u32, l: u32, r: u32, v: &Vertex<N>) {
        let (sn, se) = (self.stride_nums(), self.stride_exts());
        let (nn, ne) = (self.spec.nums(), self.spec.exts());
        for j in 0..self.windows {
            let own = v.pane_agg(self.first, j);
            let mut own_nums = own.map(AggState::num_slots);
            for k in 0..nn {
                let o = j * nn + k;
                let mut acc = own_nums
                    .as_mut()
                    .and_then(Iterator::next)
                    .cloned()
                    .unwrap_or_else(N::zero);
                if l != NIL {
                    acc.add_assign(&self.nums[l as usize * sn + o]);
                }
                if r != NIL {
                    acc.add_assign(&self.nums[r as usize * sn + o]);
                }
                let slot = &mut self.nums[x as usize * sn + o];
                self.heap = (self.heap + acc.heap_size()).saturating_sub(slot.heap_size());
                *slot = acc;
            }
            let mut own_exts = own.map(AggState::ext_slots);
            for k in 0..ne {
                let o = j * ne + k;
                let is_min = k < self.spec.mins;
                let fold = |a: f64, b: f64| if is_min { a.min(b) } else { a.max(b) };
                let mut acc = own_exts
                    .as_mut()
                    .and_then(Iterator::next)
                    .copied()
                    .unwrap_or(if is_min {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    });
                if l != NIL {
                    acc = fold(acc, self.exts[l as usize * se + o]);
                }
                if r != NIL {
                    acc = fold(acc, self.exts[r as usize * se + o]);
                }
                self.exts[x as usize * se + o] = acc;
            }
        }
    }
}

/// Ordered index of one state's vertices within one pane: an arena treap
/// keyed by `(sort key, seq)`.
#[derive(Debug)]
struct VertexTree<N: TrendNum> {
    nodes: Vec<Node>,
    root: u32,
    /// Freed slots (reused by plain trees only: aggregate-indexed trees
    /// append, so their staged entries are the last arena slots).
    free: Vec<u32>,
    /// Aggregate-indexed trees: the last `staged` arena slots hold entries
    /// at the newest time, not yet linked. Entries tied with a new event's
    /// time are no predecessors of it, so they join the sums only once
    /// time advances.
    staged: u32,
    sums: Option<Sums<N>>,
}

impl<N: TrendNum> VertexTree<N> {
    fn new(sums: Option<Sums<N>>) -> Self {
        VertexTree {
            nodes: Vec::new(),
            root: NIL,
            free: Vec::new(),
            staged: 0,
            sums,
        }
    }

    /// Arena slots of the staged entries.
    fn staged_slots(&self) -> std::ops::Range<u32> {
        let len = self.nodes.len() as u32;
        len - self.staged..len
    }

    /// Stored entries (linked and staged).
    fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Bytes charged for the index: node plus flat aggregates per entry.
    fn bytes(&self) -> usize {
        let per = std::mem::size_of::<Node>() + self.sums.as_ref().map_or(0, Sums::entry_bytes);
        self.len() * per + self.sums.as_ref().map_or(0, |s| s.heap)
    }

    fn size(&self, x: u32) -> u32 {
        if x == NIL {
            0
        } else {
            self.nodes[x as usize].size
        }
    }

    /// `(key, seq)` against entry `x`.
    fn cmp_to(&self, key: i64, seq: u64, x: u32) -> Ordering {
        let n = &self.nodes[x as usize];
        (key, seq).cmp(&(n.key, n.seq))
    }

    /// Heap order: higher priority nearer the root, ties broken by key.
    fn above(&self, a: u32, b: u32) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        na.prio > nb.prio
            || (na.prio == nb.prio && self.cmp_to(na.key, na.seq, b) == Ordering::Less)
    }

    fn alloc(&mut self, key: i64, seq: u64, id: VertexId, prio: u32) -> u32 {
        let node = Node {
            key,
            seq,
            id,
            prio,
            left: NIL,
            right: NIL,
            size: 0,
            stale: true,
        };
        if self.sums.is_none() {
            if let Some(x) = self.free.pop() {
                self.nodes[x as usize] = node;
                return x;
            }
        }
        self.nodes.push(node);
        if let Some(s) = self.sums.as_mut() {
            s.grow();
        }
        (self.nodes.len() - 1) as u32
    }

    /// Recompute `x`'s entry count from its children and mark its sums
    /// stale. Sums are recomputed lazily, when a fold needs them.
    fn touch(&mut self, x: u32) {
        let n = self.nodes[x as usize];
        let size = self.size(n.left) + self.size(n.right) + 1;
        let node = &mut self.nodes[x as usize];
        (node.size, node.stale) = (size, true);
    }

    /// Recompute the stale sums in the subtree at `x`, bottom-up, each as
    /// `own + left + right`. Every ancestor of a stale node is stale, so
    /// only stale nodes are visited.
    fn clean(&mut self, x: u32, store: &VertexStore<N>) {
        if x == NIL || !self.nodes[x as usize].stale {
            return;
        }
        let n = self.nodes[x as usize];
        self.clean(n.left, store);
        self.clean(n.right, store);
        if let Some(s) = self.sums.as_mut() {
            s.recompute(x, n.left, n.right, store.get(n.id));
        }
        self.nodes[x as usize].stale = false;
    }

    /// Insert slot `n` into the subtree at `x`; returns the new subtree root.
    fn insert_at(&mut self, x: u32, n: u32) -> u32 {
        if x == NIL {
            self.touch(n);
            return n;
        }
        let (key, seq) = (self.nodes[n as usize].key, self.nodes[n as usize].seq);
        if self.cmp_to(key, seq, x) == Ordering::Less {
            let l = self.insert_at(self.nodes[x as usize].left, n);
            self.nodes[x as usize].left = l;
            if self.above(l, x) {
                self.nodes[x as usize].left = self.nodes[l as usize].right;
                self.nodes[l as usize].right = x;
                self.touch(x);
                self.touch(l);
                return l;
            }
        } else {
            let r = self.insert_at(self.nodes[x as usize].right, n);
            self.nodes[x as usize].right = r;
            if self.above(r, x) {
                self.nodes[x as usize].right = self.nodes[r as usize].left;
                self.nodes[r as usize].left = x;
                self.touch(x);
                self.touch(r);
                return r;
            }
        }
        self.touch(x);
        x
    }

    /// Join two subtrees whose keys are ordered `a < b`.
    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.above(a, b) {
            let r = self.join(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = r;
            self.touch(a);
            a
        } else {
            let l = self.join(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = l;
            self.touch(b);
            b
        }
    }

    /// Unlink entry `(key, seq)` from the subtree at `x`; returns the new
    /// subtree root.
    fn remove_at(&mut self, x: u32, key: i64, seq: u64) -> u32 {
        if x == NIL {
            return NIL;
        }
        let n = self.nodes[x as usize];
        match self.cmp_to(key, seq, x) {
            Ordering::Less => self.nodes[x as usize].left = self.remove_at(n.left, key, seq),
            Ordering::Greater => self.nodes[x as usize].right = self.remove_at(n.right, key, seq),
            Ordering::Equal => return self.join(n.left, n.right),
        }
        self.touch(x);
        x
    }

    /// Add an entry. Aggregate-indexed trees stage it until time advances
    /// past `time` (see [`GraphStorage::settle`]); plain trees link it now.
    fn insert(&mut self, key: i64, seq: u64, id: VertexId, time: Time) {
        if self.sums.is_some() {
            // Rank among staged entries with the same key (they all share
            // `time`): distinct priorities without depending on `seq`,
            // whose absolute value differs between shard layouts.
            let dup = self
                .staged_slots()
                .filter(|&p| self.nodes[p as usize].key == key)
                .count();
            self.alloc(key, seq, id, priority(key, time.ticks(), dup as u64));
            self.staged += 1;
        } else {
            // Plain trees hold no sums, so their shape never shows in a
            // result; any well-spread priority will do.
            let x = self.alloc(key, seq, id, priority(key, seq, 0));
            self.root = self.insert_at(self.root, x);
        }
    }

    /// Link every staged entry.
    fn flush(&mut self) {
        for x in self.staged_slots() {
            if self.nodes[x as usize].id != NIL {
                self.root = self.insert_at(self.root, x);
            }
        }
        self.staged = 0;
    }

    /// Decompose the linked entries of the subtree at `x` inside `range`
    /// into in-order pieces; `lo`/`hi` say which bounds still need
    /// checking. Without `subtrees` every piece is a single entry.
    fn fold(
        &self,
        mut x: u32,
        range: &KeyRange,
        (mut lo, hi): (bool, bool),
        subtrees: bool,
        f: &mut impl FnMut(Piece),
    ) {
        // The right-hand recursion is a loop.
        while x != NIL {
            if !lo && !hi && subtrees {
                return f(Piece::Subtree(x));
            }
            let n = &self.nodes[x as usize];
            if lo && n.key < range.lo {
                x = n.right;
                continue;
            }
            if hi && n.key > range.hi {
                x = n.left;
                continue;
            }
            if n.left != NIL {
                self.fold(n.left, range, (lo, false), subtrees, f);
            }
            f(Piece::Entry(x));
            (x, lo) = (n.right, false);
        }
    }

    /// Visit linked entries in `range` in key order, then staged ones.
    fn visit(&self, range: &KeyRange, f: &mut impl FnMut(VertexId)) {
        self.fold(self.root, range, range.bounds(), false, &mut |p| {
            if let Piece::Entry(x) = p {
                f(self.nodes[x as usize].id);
            }
        });
        for x in self.staged_slots() {
            let n = &self.nodes[x as usize];
            if n.id != NIL && range.contains(n.key) {
                f(n.id);
            }
        }
    }

    /// Vertex ids of every stored entry.
    fn ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.nodes.iter().map(|n| n.id).filter(|&id| id != NIL)
    }

    /// Remove every entry with time ≤ `cutoff`, appending its id to `out`.
    fn purge_up_to(&mut self, cutoff: Time, store: &VertexStore<N>, out: &mut Vec<VertexId>) {
        let staged = self.staged_slots();
        for x in 0..self.nodes.len() as u32 {
            let n = self.nodes[x as usize];
            if n.id == NIL || store.get(n.id).event.time > cutoff {
                continue;
            }
            if !staged.contains(&x) {
                self.root = self.remove_at(self.root, n.key, n.seq);
            }
            out.push(n.id);
            self.nodes[x as usize] = Node {
                id: NIL,
                left: NIL,
                right: NIL,
                size: 0,
                stale: false,
                ..n
            };
            self.free.push(x);
        }
    }

    /// Merge the linked entries in `range` into `acc` (the new vertex's
    /// per-window aggregates, ascending contiguous windows) and count them.
    /// `pieces` is scratch space.
    fn fold_into(
        &mut self,
        range: &KeyRange,
        store: &VertexStore<N>,
        acc: &mut [(WindowId, AggState<N>)],
        out: &mut FoldStats,
        pieces: &mut Vec<Piece>,
    ) {
        pieces.clear();
        self.fold(self.root, range, range.bounds(), true, &mut |p| {
            pieces.push(p)
        });
        for p in pieces.iter() {
            if let Piece::Subtree(x) = *p {
                self.clean(x, store);
            }
        }
        let Some(s) = self.sums.as_ref() else {
            return;
        };
        // Windows this pane shares with the new event, as indexes into the
        // pane's stripes (`j0..`) and into `acc` (`a0..`).
        let acc_first = acc.first().map_or(0, |(w, _)| *w);
        let from = s.first.max(acc_first);
        let to = (s.first + s.windows as WindowId).min(acc_first + acc.len() as WindowId);
        let shared = to.saturating_sub(from) as usize;
        let (j0, a0) = ((from - s.first) as usize, (from - acc_first) as usize);
        for p in pieces.iter() {
            match *p {
                Piece::Subtree(x) => {
                    out.edges += u64::from(self.nodes[x as usize].size);
                    for i in 0..shared {
                        acc[a0 + i]
                            .1
                            .merge_slots(s.nums_of(x, j0 + i), s.exts_of(x, j0 + i));
                    }
                    out.merges += shared as u64;
                }
                Piece::Entry(x) => {
                    out.edges += 1;
                    let v = store.get(self.nodes[x as usize].id);
                    for i in 0..shared {
                        if let Some(st) = v.pane_agg(s.first, j0 + i) {
                            acc[a0 + i].1.merge(st);
                            out.merges += 1;
                        }
                    }
                }
            }
        }
    }
}

/// One time pane: state-indexed vertex trees (Fig. 11). Trees are a dense
/// vector indexed by `StateId` (template states are small dense ids), so
/// the per-event lookup is an array index, not a hash.
#[derive(Debug)]
pub struct Pane<N: TrendNum> {
    /// Pane start time (covers `[start, start + pane_len)`).
    pub start: Time,
    trees: Vec<VertexTree<N>>,
}

impl<N: TrendNum> Pane<N> {
    /// Ids stored in this pane (all states).
    pub fn all_ids(&self) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = self.trees.iter().flat_map(VertexTree::ids).collect();
        v.sort_unstable();
        v
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.trees.iter().map(VertexTree::bytes).sum::<usize>()
    }
}

/// Pane-partitioned, state-indexed vertex storage for one GRETA graph.
#[derive(Debug)]
pub struct GraphStorage<N: TrendNum> {
    /// Vertex slab.
    pub store: VertexStore<N>,
    panes: VecDeque<Pane<N>>,
    pane_len: u64,
    /// Sort attribute per state, dense by `StateId` (from the range-form
    /// edge predicate whose previous state this is); `None` sorts by event
    /// time. Also fixes the number of per-pane trees.
    sort_attr: Vec<Option<AttrId>>,
    /// Subtree aggregates per state (dense by `StateId`; `None` = plain
    /// tree), with the window spec that sizes them per pane.
    aug: Vec<Option<AugSpec>>,
    window: WindowSpec,
    /// Time of the staged entries of aggregate-indexed trees, if any (they
    /// all sit in the newest pane).
    pending_time: Option<Time>,
    /// Scratch for [`fold_predecessors`](Self::fold_predecessors).
    pieces: Vec<Piece>,
}

impl<N: TrendNum> GraphStorage<N> {
    /// New storage with the given pane length and per-state sort attributes
    /// (`sort_attr[state.0]`; its length is the template's state count).
    /// Every tree is plain; see [`with_aggregates`](Self::with_aggregates).
    pub fn new(pane_len: u64, sort_attr: Vec<Option<AttrId>>) -> Self {
        let pane_len = pane_len.max(1);
        GraphStorage {
            store: VertexStore::new(),
            panes: VecDeque::new(),
            pane_len,
            sort_attr,
            aug: Vec::new(),
            window: WindowSpec::new(pane_len, pane_len),
            pending_time: None,
            pieces: Vec::new(),
        }
    }

    /// Keep subtree aggregates (`aug[state.0]`) in the trees of the given
    /// states, sized by `window`'s windows per pane (whose boundaries must
    /// align with this storage's panes).
    pub fn with_aggregates(mut self, window: WindowSpec, aug: Vec<Option<AugSpec>>) -> Self {
        self.window = window;
        self.aug = aug;
        self
    }

    fn sort_key(&self, state: StateId, e: &EventRef) -> i64 {
        ord_key(
            match self.sort_attr.get(state.0 as usize).copied().flatten() {
                Some(a) => e.attr(a).as_f64(),
                None => e.time.ticks() as f64,
            },
        )
    }

    /// Number of template states (trees per pane).
    fn n_states(&self) -> usize {
        self.sort_attr.len()
    }

    fn new_tree(&self, state: usize, pane_start: Time) -> VertexTree<N> {
        let sums = self
            .aug
            .get(state)
            .copied()
            .flatten()
            .map(|spec| Sums::new(spec, pane_start, &self.window));
        VertexTree::new(sums)
    }

    /// True when range queries on `state` use the given attribute.
    pub fn indexes_attr(&self, state: StateId, attr: AttrId) -> bool {
        self.sort_attr.get(state.0 as usize).copied().flatten() == Some(attr)
    }

    /// Insert a vertex; returns its id. Vertices arrive in time order.
    pub fn insert(&mut self, v: Vertex<N>) -> VertexId {
        self.settle(v.event.time);
        let id = self.store.insert(v);
        self.index(id);
        id
    }

    /// Insert vertices in stored order (their ids follow that order), then
    /// index them in arrival order (time, then `seq`), which rebuilds the
    /// index state of the run that stored them (snapshot restore).
    pub fn restore(&mut self, vertices: Vec<Vertex<N>>) {
        let mut ids: Vec<VertexId> = vertices.into_iter().map(|v| self.store.insert(v)).collect();
        ids.sort_by_key(|&id| {
            let v = self.store.get(id);
            (v.event.time, v.seq)
        });
        for id in ids {
            self.settle(self.store.get(id).event.time);
            self.index(id);
        }
    }

    /// Add stored vertex `id` to its pane's tree.
    fn index(&mut self, id: VertexId) {
        let v = self.store.get(id);
        let (t, state, seq) = (v.event.time, v.state, v.seq);
        let key = self.sort_key(state, &v.event);
        let pane_len = self.pane_len;
        let ps = Time(t.ticks() / pane_len * pane_len);
        // In-order arrival: the pane is the last one or a new one.
        let need_new = match self.panes.back() {
            Some(p) => p.start < ps,
            None => true,
        };
        if need_new {
            let n = self.n_states().max(state.0 as usize + 1);
            let trees = (0..n).map(|s| self.new_tree(s, ps)).collect();
            self.panes.push_back(Pane { start: ps, trees });
        }
        let s = state.0 as usize;
        let pi = self
            .panes
            .iter()
            .rposition(|p| p.start <= t && t.ticks() < p.start.ticks() + pane_len)
            .expect("pane exists for in-order insert");
        while self.panes[pi].trees.len() <= s {
            let tree = self.new_tree(self.panes[pi].trees.len(), ps);
            self.panes[pi].trees.push(tree);
        }
        let tree = &mut self.panes[pi].trees[s];
        tree.insert(key, seq, id, t);
        if tree.sums.is_some() {
            self.pending_time = Some(t);
        }
    }

    /// Link staged entries older than `t`: called before the predecessors
    /// of an event at `t` are looked up, and before every insert.
    pub fn settle(&mut self, t: Time) {
        if self.pending_time.is_none_or(|p| p >= t) {
            return;
        }
        self.pending_time = None;
        if let Some(pane) = self.panes.back_mut() {
            for tree in &mut pane.trees {
                tree.flush();
            }
        }
    }

    /// Visit candidate predecessors of `state` with event time in
    /// `[lo, hi)`, optionally restricted by a range predicate on the
    /// state's sort attribute.
    pub fn visit_candidates(
        &self,
        state: StateId,
        lo: Time,
        hi: Time,
        range: Option<(CmpOp, f64)>,
        mut f: impl FnMut(VertexId, &Vertex<N>),
    ) {
        let range = KeyRange::of(range);
        for pane in &self.panes {
            if pane.start >= hi {
                break;
            }
            // Skip panes entirely before lo (latest pane time = start+len-1).
            if pane.start.ticks() + self.pane_len <= lo.ticks() {
                continue;
            }
            if let Some(tree) = pane.trees.get(state.0 as usize) {
                tree.visit(&range, &mut |id| {
                    let v = self.store.get(id);
                    if v.event.time >= lo && v.event.time < hi {
                        f(id, v);
                    }
                });
            }
        }
    }

    /// Merge the aggregates of every predecessor of `state` with event time
    /// in `[lo, hi)` and sort key in `range` into `acc` (a new vertex's
    /// per-window aggregates at time `hi`, ascending contiguous windows),
    /// as O(log n) subtree sums per pane. Needs an aggregate-indexed tree
    /// for `state` (empty otherwise) and [`settle(hi)`](Self::settle)
    /// first.
    ///
    /// Each pane only contributes to the windows it shares with `acc`. The
    /// pane straddling `lo` shares none: its entries at or after `lo` are
    /// only counted. The engine purges that pane before the next event
    /// (its last window closed by `lo`), so the count walks a pane only
    /// for direct callers of the storage layer.
    pub fn fold_predecessors(
        &mut self,
        state: StateId,
        lo: Time,
        hi: Time,
        range: Option<(CmpOp, f64)>,
        acc: &mut [(WindowId, AggState<N>)],
    ) -> FoldStats {
        let range = KeyRange::of(range);
        let mut out = FoldStats::default();
        let store = &self.store;
        for pane in self.panes.iter_mut() {
            if pane.start >= hi {
                break;
            }
            if pane.start.ticks() + self.pane_len <= lo.ticks() {
                continue;
            }
            let Some(tree) = pane.trees.get_mut(state.0 as usize) else {
                continue;
            };
            if pane.start < lo {
                tree.visit(&range, &mut |id| {
                    let t = store.get(id).event.time;
                    out.edges += u64::from(t >= lo && t < hi);
                });
            } else {
                tree.fold_into(&range, store, acc, &mut out, &mut self.pieces);
            }
        }
        out
    }

    /// Visit **all** vertices of a state (deferred final aggregation).
    pub fn visit_state(&self, state: StateId, mut f: impl FnMut(VertexId, &Vertex<N>)) {
        for pane in &self.panes {
            if let Some(tree) = pane.trees.get(state.0 as usize) {
                tree.visit(&KeyRange::ALL, &mut |id| f(id, self.store.get(id)));
            }
        }
    }

    /// Batch-delete panes whose start is before `deadline` (their last
    /// window closed). Returns the number of vertices purged.
    pub fn purge_panes_before(&mut self, deadline: Time) -> usize {
        let mut purged = 0;
        while let Some(front) = self.panes.front() {
            if front.start.ticks() + self.pane_len <= deadline.ticks() {
                let pane = self.panes.pop_front().unwrap();
                for id in pane.all_ids() {
                    self.store.remove(id);
                    purged += 1;
                }
            } else {
                break;
            }
        }
        purged
    }

    /// Remove all vertices with event time ≤ `cutoff` (finished-trend
    /// pruning in negative graphs, Example 5 / Theorem 5.1). Returns the
    /// number purged.
    pub fn purge_vertices_up_to(&mut self, cutoff: Time) -> usize {
        let mut doomed = Vec::new();
        for pane in &mut self.panes {
            if pane.start > cutoff {
                break;
            }
            for tree in pane.trees.iter_mut() {
                tree.purge_up_to(cutoff, &self.store, &mut doomed);
            }
        }
        for &id in &doomed {
            self.store.remove(id);
        }
        doomed.len()
    }

    /// Number of live vertices.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no vertices are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Approximate bytes of live state: vertices, plus each index entry's
    /// node and flat subtree aggregates, plus pane headers.
    pub fn bytes(&self) -> usize {
        self.store.bytes() + self.panes.iter().map(Pane::bytes).sum::<usize>()
    }

    /// Pane iterator (tests / diagnostics).
    pub fn panes(&self) -> impl Iterator<Item = &Pane<N>> {
        self.panes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggLayout;
    use greta_types::{Event, TypeId, Value};

    fn vertex(t: u64, attr: f64, state: u16, seq: u64) -> Vertex<f64> {
        let layout = AggLayout::default();
        Vertex {
            event: Event::new_unchecked(TypeId(0), Time(t), vec![Value::Float(attr)]).into_ref(),
            state: StateId(state),
            seq,
            latest_start: Time(t),
            aggs: vec![(0, AggState::zero(&layout))],
        }
    }

    fn storage_by_attr() -> GraphStorage<f64> {
        GraphStorage::new(5, vec![Some(AttrId(0))])
    }

    #[test]
    fn insert_and_candidates_time_bounds() {
        let mut s = GraphStorage::new(5, Vec::new());
        for t in [1, 3, 7, 12] {
            s.insert(vertex(t, 0.0, 0, t));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.panes().count(), 3); // panes [0,5) [5,10) [10,15)
        let mut seen = Vec::new();
        s.visit_candidates(StateId(0), Time(2), Time(12), None, |_, v| {
            seen.push(v.event.time.ticks())
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 7]); // in [2, 12)
    }

    #[test]
    fn range_queries_on_sort_attr() {
        let mut s = storage_by_attr();
        for (t, a) in [(1, 10.0), (2, 8.0), (3, 6.0), (4, 9.0)] {
            s.insert(vertex(t, a, 0, t));
        }
        let collect = |op, b| {
            let mut v = Vec::new();
            s.visit_candidates(StateId(0), Time(0), Time(100), Some((op, b)), |_, x| {
                v.push(x.event.attr(AttrId(0)).as_f64())
            });
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(collect(CmpOp::Lt, 9.0), vec![6.0, 8.0]);
        assert_eq!(collect(CmpOp::Le, 9.0), vec![6.0, 8.0, 9.0]);
        assert_eq!(collect(CmpOp::Gt, 8.0), vec![9.0, 10.0]);
        assert_eq!(collect(CmpOp::Ge, 8.0), vec![8.0, 9.0, 10.0]);
        assert_eq!(collect(CmpOp::Eq, 8.0), vec![8.0]);
        // Ne falls back to full scan (caller filters).
        assert_eq!(collect(CmpOp::Ne, 8.0).len(), 4);
    }

    #[test]
    fn state_separation() {
        let mut s = GraphStorage::new(10, Vec::new());
        s.insert(vertex(1, 0.0, 0, 1));
        s.insert(vertex(2, 0.0, 1, 2));
        let mut n0 = 0;
        s.visit_candidates(StateId(0), Time(0), Time(10), None, |_, _| n0 += 1);
        let mut n1 = 0;
        s.visit_candidates(StateId(1), Time(0), Time(10), None, |_, _| n1 += 1);
        assert_eq!((n0, n1), (1, 1));
    }

    #[test]
    fn pane_purge_batch_deletes() {
        let mut s = GraphStorage::new(5, Vec::new());
        for t in [1, 3, 7, 12] {
            s.insert(vertex(t, 0.0, 0, t));
        }
        let purged = s.purge_panes_before(Time(10)); // panes [0,5) and [5,10)
        assert_eq!(purged, 3);
        assert_eq!(s.len(), 1);
        let mut seen = Vec::new();
        s.visit_state(StateId(0), |_, v| seen.push(v.event.time.ticks()));
        assert_eq!(seen, vec![12]);
    }

    #[test]
    fn vertex_purge_up_to_cutoff() {
        let mut s = GraphStorage::new(5, Vec::new());
        for t in [1, 3, 7] {
            s.insert(vertex(t, 0.0, 0, t));
        }
        let purged = s.purge_vertices_up_to(Time(3));
        assert_eq!(purged, 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bytes_accounting_shrinks_on_purge() {
        let mut s = GraphStorage::new(5, Vec::new());
        for t in [1, 2, 3, 8] {
            s.insert(vertex(t, 0.0, 0, t));
        }
        let before = s.bytes();
        s.purge_panes_before(Time(5));
        assert!(s.bytes() < before);
    }

    #[test]
    fn vertex_agg_lookup() {
        let layout = AggLayout::default();
        let mut v = vertex(1, 0.0, 0, 1);
        v.aggs = vec![(2, AggState::zero(&layout)), (5, AggState::zero(&layout))];
        assert!(v.agg(2).is_some());
        assert!(v.agg(5).is_some());
        assert!(v.agg(3).is_none());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Range-assisted candidate visits return exactly the vertices a
            /// naive filter over all inserted vertices would.
            #[test]
            fn visit_candidates_matches_naive_filter(
                inserts in proptest::collection::vec((0u64..40, -10i32..10), 0..40),
                lo in 0u64..40,
                hi in 0u64..45,
                op_idx in 0usize..6,
                bound in -10i32..10,
            ) {
                let mut sorted = inserts.clone();
                sorted.sort_by_key(|(t, _)| *t); // in-order arrival
                let mut st = storage_by_attr();
                for (seq, (t, a)) in sorted.iter().enumerate() {
                    st.insert(vertex(*t, *a as f64, 0, seq as u64));
                }
                let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
                let op = ops[op_idx];
                let mut got: Vec<(u64, f64)> = Vec::new();
                st.visit_candidates(StateId(0), Time(lo), Time(hi), Some((op, bound as f64)), |_, v| {
                    got.push((v.event.time.ticks(), v.event.attr(AttrId(0)).as_f64()));
                });
                // Ne is answered by a full visit (the caller filters), so
                // emulate that here.
                let mut expect: Vec<(u64, f64)> = sorted
                    .iter()
                    .filter(|(t, a)| {
                        *t >= lo && *t < hi && (op == CmpOp::Ne || op.eval((*a as f64).total_cmp(&(bound as f64))))
                    })
                    .map(|(t, a)| (*t, *a as f64))
                    .collect();
                got.sort_by(|x, y| x.partial_cmp(y).unwrap());
                expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
                prop_assert_eq!(got, expect);
            }

            /// Pane purge removes exactly the vertices strictly before the
            /// deadline pane boundary.
            #[test]
            fn pane_purge_is_exact(
                times in proptest::collection::vec(0u64..60, 0..40),
                deadline in 0u64..70,
            ) {
                let mut sorted = times.clone();
                sorted.sort_unstable();
                let mut st = GraphStorage::<f64>::new(5, Vec::new());
                for (seq, t) in sorted.iter().enumerate() {
                    st.insert(vertex(*t, 0.0, 0, seq as u64));
                }
                st.purge_panes_before(Time(deadline));
                let mut remaining = Vec::new();
                st.visit_state(StateId(0), |_, v| remaining.push(v.event.time.ticks()));
                remaining.sort_unstable();
                // A vertex survives iff its pane [p, p+5) ends after deadline.
                let mut expect: Vec<u64> = sorted
                    .iter()
                    .copied()
                    .filter(|t| (t / 5) * 5 + 5 > deadline)
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(remaining, expect);
            }
        }
    }

    mod aggregate_index {
        use super::*;
        use crate::window::windows_of;
        use proptest::prelude::*;

        /// A vertex at `t` whose per-window count is `count`.
        fn counted(t: u64, attr: f64, seq: u64, count: f64, w: &WindowSpec) -> Vertex<f64> {
            let layout = AggLayout::default();
            let aggs = windows_of(Time(t), w)
                .map(|wid| {
                    let mut st = AggState::zero(&layout);
                    st.count = count;
                    (wid, st)
                })
                .collect();
            Vertex {
                event: Event::new_unchecked(TypeId(0), Time(t), vec![Value::Float(attr)])
                    .into_ref(),
                state: StateId(0),
                seq,
                latest_start: Time(t),
                aggs,
            }
        }

        fn indexed(w: WindowSpec) -> GraphStorage<f64> {
            let spec = AugSpec::new(&AggLayout::default());
            GraphStorage::new(crate::window::pane_length(&w), vec![Some(AttrId(0))])
                .with_aggregates(w, vec![Some(spec)])
        }

        /// What the scan would merge and count for a new event at `t`.
        fn naive(
            s: &GraphStorage<f64>,
            t: u64,
            w: &WindowSpec,
            range: Option<(CmpOp, f64)>,
        ) -> (Vec<(WindowId, f64)>, u64) {
            let lo = Time(t.saturating_sub(w.within - 1));
            let mut acc: Vec<(WindowId, f64)> = windows_of(Time(t), w).map(|x| (x, 0.0)).collect();
            let mut edges = 0;
            s.visit_candidates(StateId(0), lo, Time(t), range, |_, v| {
                edges += 1;
                for (wid, c) in acc.iter_mut() {
                    if let Some(st) = v.agg(*wid) {
                        *c += st.count;
                    }
                }
            });
            (acc, edges)
        }

        proptest! {
            /// Subtree sums equal the per-predecessor merge and edge count
            /// of the scan, for events arriving one by one with nothing
            /// purged (so panes straddling the horizon stay and are counted
            /// only), ties included.
            #[test]
            fn fold_matches_scan(
                steps in proptest::collection::vec((0u64..3, -4i32..4, 1u32..9), 1..60),
                within in 1u64..12,
                slide in 1u64..8,
                op_idx in 0usize..6,
            ) {
                let w = WindowSpec::new(within, slide);
                let mut s = indexed(w);
                let ops = [None, Some(CmpOp::Lt), Some(CmpOp::Le), Some(CmpOp::Gt), Some(CmpOp::Ge), Some(CmpOp::Eq)];
                let mut t = 0u64;
                for (seq, (dt, attr, count)) in steps.iter().enumerate() {
                    t += dt;
                    let range = ops[op_idx].map(|op| (op, *attr as f64));
                    let (want, want_edges) = naive(&s, t, &w, range);
                    s.settle(Time(t));
                    let mut acc: Vec<(WindowId, AggState<f64>)> = windows_of(Time(t), &w)
                        .map(|x| (x, AggState::zero(&AggLayout::default())))
                        .collect();
                    let lo = Time(t.saturating_sub(within - 1));
                    let f = s.fold_predecessors(StateId(0), lo, Time(t), range, &mut acc);
                    let got: Vec<(WindowId, f64)> = acc.iter().map(|(x, st)| (*x, st.count)).collect();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(f.edges, want_edges);
                    s.insert(counted(t, *attr as f64, seq as u64, *count as f64, &w));
                }
            }

            /// The tree shape, so the f64 summation order, depends on the
            /// entries only: linking them in any order gives the same root
            /// sum, bit for bit.
            #[test]
            fn sums_do_not_depend_on_insertion_order(
                raw_keys in proptest::collection::vec(-1000i32..1000, 1..80),
                rotate in 0usize..80,
            ) {
                // Distinct keys, so entries never share a priority rank.
                let keys: Vec<i64> = raw_keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| i64::from(*k) * 100 + i as i64)
                    .collect();
                let w = WindowSpec::new(1000, 1000);
                let mut store = VertexStore::<f64>::new();
                let entries: Vec<(i64, u64, VertexId)> = keys
                    .iter()
                    .enumerate()
                    .map(|(seq, k)| {
                        // Counts spanning many binades make f64 sums
                        // order-sensitive.
                        let c = 1.0 + (seq as f64) * 1e15 + 0.1 * seq as f64;
                        let v = counted(1, *k as f64, seq as u64, c, &w);
                        (ord_key(*k as f64), seq as u64, store.insert(v))
                    })
                    .collect();
                let spec = AugSpec::new(&AggLayout::default());
                let build = |order: &[(i64, u64, VertexId)]| {
                    let mut tree = VertexTree::new(Some(Sums::new(spec, Time(0), &w)));
                    for &(k, seq, id) in order {
                        tree.insert(k, seq, id, Time(1));
                    }
                    tree.flush();
                    let root = tree.root;
                    tree.clean(root, &store);
                    let sum = tree.sums.as_ref().unwrap().nums_of(root, 0)[0];
                    (tree.nodes[root as usize].id, sum.to_bits())
                };
                let mut rotated = entries.clone();
                rotated.rotate_left(rotate % entries.len());
                rotated.reverse();
                prop_assert_eq!(build(&entries), build(&rotated));
            }
        }

        /// Insert an entry at `t`; returns the vertex bytes it charges.
        fn add(s: &mut GraphStorage<f64>, seq: u64, t: u64, w: &WindowSpec) -> usize {
            let v = counted(t, seq as f64, seq, 1.0, w);
            let charge = v.heap_size();
            s.insert(v);
            charge
        }

        #[test]
        fn entry_bytes_include_node_and_flat_sums() {
            let w = WindowSpec::new(8, 4); // panes of 4, 2 windows each
            let mut s = indexed(w);
            let (node, pane) = (
                std::mem::size_of::<Node>(),
                std::mem::size_of::<Pane<f64>>(),
            );
            // Every entry, staged or linked, carries its node plus 2
            // windows × 1 slot.
            let per = node + 2 * 8;
            let mut vertices = 0;
            for seq in 0..3 {
                vertices += add(&mut s, seq, 8, &w);
            }
            assert_eq!(s.bytes(), vertices + pane + 3 * per);
            vertices += add(&mut s, 3, 9, &w);
            assert_eq!(s.bytes(), vertices + pane + 4 * per);
        }
    }

    #[test]
    fn shared_event_bytes_counted_once_not_per_vertex() {
        // Two vertices holding the SAME EventRef must together charge the
        // event payload about once; two vertices over deep copies charge it
        // twice. Use a long string payload so the difference dominates.
        let layout = AggLayout::default();
        let long = "X".repeat(4096);
        let mk = |e: &EventRef, seq: u64| Vertex::<f64> {
            event: e.clone(),
            state: StateId(0),
            seq,
            latest_start: Time(1),
            aggs: vec![(0, AggState::zero(&layout))],
        };
        let shared =
            Event::new_unchecked(TypeId(0), Time(1), vec![Value::from(long.clone())]).into_ref();
        let mut with_sharing = VertexStore::<f64>::new();
        // Hold both vertices' refs before charging so the amortized charge
        // sees the final strong count.
        let (v1, v2) = (mk(&shared, 1), mk(&shared, 2));
        with_sharing.insert(v1);
        with_sharing.insert(v2);

        let mut without_sharing = VertexStore::<f64>::new();
        for seq in [1, 2] {
            let copy = Event::new_unchecked(TypeId(0), Time(1), vec![Value::from(long.clone())])
                .into_ref();
            without_sharing.insert(mk(&copy, seq));
        }
        assert!(
            with_sharing.bytes() < without_sharing.bytes() * 3 / 4,
            "shared: {}, deep-copied: {}",
            with_sharing.bytes(),
            without_sharing.bytes()
        );
        // Removal subtracts the recorded charge exactly: no drift/underflow
        // even though the strong count changed since insertion.
        drop(shared);
        with_sharing.remove(0);
        with_sharing.remove(1);
        assert_eq!(with_sharing.bytes(), 0);
        assert_eq!(with_sharing.len(), 0);
    }

    #[test]
    fn store_reuses_slots() {
        let mut st = VertexStore::<f64>::new();
        let a = st.insert(vertex(1, 0.0, 0, 1));
        st.remove(a);
        let b = st.insert(vertex(2, 0.0, 0, 2));
        assert_eq!(a, b);
        assert_eq!(st.len(), 1);
    }
}
