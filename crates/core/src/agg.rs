//! Incremental aggregation calculus (paper Theorem 4.3 and Theorem 9.1).
//!
//! Every vertex carries, per sliding window, an [`AggState`]: the aggregate
//! of all (sub-)trends that start at a START event and end at this vertex.
//! When a new event is inserted, its state is the *merge* of its
//! predecessors' states plus its own contribution — each edge is traversed
//! exactly once, which is what makes GRETA quadratic instead of exponential.
//!
//! `COUNT`/`SUM` values grow like 2ⁿ under skip-till-any-match, so the
//! numeric carrier is pluggable via [`TrendNum`]: `u64` (saturating),
//! `f64` (exact below 2⁵³, then approximate), or [`greta_bignum::BigUint`]
//! (always exact).

use greta_bignum::BigUint;
use greta_query::compile::{AggKind, CompiledAgg};
use greta_types::codec::{put_u32, put_u64, Reader};
use greta_types::{AttrId, CodecError, Event, TypeId};

/// Numeric carrier for trend counts and sums.
pub trait TrendNum: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity (one trend).
    fn one() -> Self;
    /// True iff zero.
    fn is_zero(&self) -> bool;
    /// `self += other`.
    fn add_assign(&mut self, other: &Self);
    /// `attr · count` — the per-event contribution to `SUM(E.attr)`
    /// (Theorem 9.1: `e.sum = e.attr * e.count + Σ p.sum`).
    fn scale_by_attr(count: &Self, attr: f64) -> Self;
    /// Lossy conversion for reporting and AVG.
    fn to_f64(&self) -> f64;
    /// Exact decimal rendering.
    fn display(&self) -> String;
    /// Heap bytes beyond `size_of::<Self>()` (memory accounting).
    fn heap_size(&self) -> usize {
        0
    }
    /// Append the binary encoding (durability snapshots).
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode a value written by [`encode`](Self::encode).
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>
    where
        Self: Sized;
}

impl TrendNum for u64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
    fn add_assign(&mut self, other: &Self) {
        *self = self.saturating_add(*other);
    }
    fn scale_by_attr(count: &Self, attr: f64) -> Self {
        let a = attr.max(0.0).round() as u64;
        count.saturating_mul(a)
    }
    fn to_f64(&self) -> f64 {
        *self as f64
    }
    fn display(&self) -> String {
        self.to_string()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl TrendNum for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn add_assign(&mut self, other: &Self) {
        *self += *other;
    }
    fn scale_by_attr(count: &Self, attr: f64) -> Self {
        count * attr
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn display(&self) -> String {
        if self.fract() == 0.0 && self.abs() < 1e15 {
            format!("{}", *self as i64)
        } else {
            format!("{self}")
        }
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl TrendNum for BigUint {
    fn zero() -> Self {
        BigUint::zero()
    }
    fn one() -> Self {
        BigUint::one()
    }
    fn is_zero(&self) -> bool {
        BigUint::is_zero(self)
    }
    fn add_assign(&mut self, other: &Self) {
        self.add_assign_ref(other);
    }
    fn scale_by_attr(count: &Self, attr: f64) -> Self {
        // Exact SUM over BigUint requires non-negative integral attributes.
        let mut c = count.clone();
        c.mul_u64(attr.max(0.0).round() as u64);
        c
    }
    fn to_f64(&self) -> f64 {
        BigUint::to_f64(self)
    }
    fn display(&self) -> String {
        self.to_string()
    }
    fn heap_size(&self) -> usize {
        BigUint::heap_size(self)
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.limb_count() as u32);
        for &l in self.limbs() {
            put_u64(out, l);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len(8)?;
        let mut limbs = Vec::with_capacity(n);
        for _ in 0..n {
            limbs.push(r.u64()?);
        }
        Ok(BigUint::from_limbs(limbs))
    }
}

/// Dense per-event-type accessor of an [`AggLayout`]: the slots (and
/// attribute indexes) an event of one type contributes to, resolved once
/// at plan time so [`AggState::apply_own`] indexes straight into its
/// arrays instead of scanning every target per event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct TypeAggOps {
    counts: Vec<usize>,
    mins: Vec<(usize, AttrId)>,
    maxs: Vec<(usize, AttrId)>,
    sums: Vec<(usize, AttrId)>,
}

/// Physical layout of an [`AggState`], derived from the query's aggregates.
/// Distinct targets are deduplicated: `AVG(E.a)` shares the `COUNT(E)` and
/// `SUM(E.a)` slots with any other aggregate needing them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggLayout {
    /// `COUNT(E)` slots (also AVG denominators).
    pub count_targets: Vec<TypeId>,
    /// `MIN(E.attr)` slots.
    pub min_targets: Vec<(TypeId, AttrId)>,
    /// `MAX(E.attr)` slots.
    pub max_targets: Vec<(TypeId, AttrId)>,
    /// `SUM(E.attr)` slots (also AVG numerators).
    pub sum_targets: Vec<(TypeId, AttrId)>,
    /// Per-type slot table, indexed by `TypeId` (compiled accessor).
    ops: Vec<TypeAggOps>,
}

impl AggLayout {
    /// Build the layout for a list of compiled aggregates.
    pub fn new(aggs: &[CompiledAgg]) -> AggLayout {
        let mut l = AggLayout::default();
        for a in aggs {
            match a.kind {
                AggKind::CountStar => {}
                AggKind::Count(t) => l.add_count(t),
                AggKind::Min(t, a) => push_unique(&mut l.min_targets, (t, a)),
                AggKind::Max(t, a) => push_unique(&mut l.max_targets, (t, a)),
                AggKind::Sum(t, a) => push_unique(&mut l.sum_targets, (t, a)),
                AggKind::Avg(t, a) => {
                    l.add_count(t);
                    push_unique(&mut l.sum_targets, (t, a));
                }
            }
        }
        l.build_ops();
        l
    }

    fn add_count(&mut self, t: TypeId) {
        if !self.count_targets.contains(&t) {
            self.count_targets.push(t);
        }
    }

    /// Resolve the dense per-type slot table from the target lists.
    fn build_ops(&mut self) {
        let max_ty = self
            .count_targets
            .iter()
            .copied()
            .chain(self.min_targets.iter().map(|(t, _)| *t))
            .chain(self.max_targets.iter().map(|(t, _)| *t))
            .chain(self.sum_targets.iter().map(|(t, _)| *t))
            .map(|t| t.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut ops = vec![TypeAggOps::default(); max_ty];
        for (i, t) in self.count_targets.iter().enumerate() {
            ops[t.0 as usize].counts.push(i);
        }
        for (i, (t, a)) in self.min_targets.iter().enumerate() {
            ops[t.0 as usize].mins.push((i, *a));
        }
        for (i, (t, a)) in self.max_targets.iter().enumerate() {
            ops[t.0 as usize].maxs.push((i, *a));
        }
        for (i, (t, a)) in self.sum_targets.iter().enumerate() {
            ops[t.0 as usize].sums.push((i, *a));
        }
        self.ops = ops;
    }

    /// Slot of `COUNT(E)`.
    pub fn count_slot(&self, t: TypeId) -> Option<usize> {
        self.count_targets.iter().position(|x| *x == t)
    }

    /// Slot of `SUM(E.attr)`.
    pub fn sum_slot(&self, t: TypeId, a: AttrId) -> Option<usize> {
        self.sum_targets.iter().position(|x| *x == (t, a))
    }

    /// Slot of `MIN(E.attr)`.
    pub fn min_slot(&self, t: TypeId, a: AttrId) -> Option<usize> {
        self.min_targets.iter().position(|x| *x == (t, a))
    }

    /// Slot of `MAX(E.attr)`.
    pub fn max_slot(&self, t: TypeId, a: AttrId) -> Option<usize> {
        self.max_targets.iter().position(|x| *x == (t, a))
    }
}

fn push_unique<T: PartialEq>(v: &mut Vec<T>, x: T) {
    if !v.contains(&x) {
        v.push(x);
    }
}

/// Per-vertex per-window aggregate state (Theorem 9.1):
///
/// * `count`    — number of (sub-)trends ending at this vertex
/// * `counts_e` — `COUNT(E)` occurrences across those trends, per target
/// * `mins`/`maxs` — extrema of the tracked attributes across those trends
/// * `sums`     — `SUM(E.attr)` across those trends, per target
#[derive(Debug, Clone, PartialEq)]
pub struct AggState<N: TrendNum> {
    /// Trend count ending here (`e.count`).
    pub count: N,
    /// `COUNT(E)` per layout slot.
    pub counts_e: Box<[N]>,
    /// `MIN(E.attr)` per layout slot (`+∞` = no occurrence yet).
    pub mins: Box<[f64]>,
    /// `MAX(E.attr)` per layout slot (`-∞`).
    pub maxs: Box<[f64]>,
    /// `SUM(E.attr)` per layout slot.
    pub sums: Box<[N]>,
}

impl<N: TrendNum> AggState<N> {
    /// All-zero state for the given layout.
    pub fn zero(layout: &AggLayout) -> AggState<N> {
        AggState {
            count: N::zero(),
            counts_e: vec![N::zero(); layout.count_targets.len()].into_boxed_slice(),
            mins: vec![f64::INFINITY; layout.min_targets.len()].into_boxed_slice(),
            maxs: vec![f64::NEG_INFINITY; layout.max_targets.len()].into_boxed_slice(),
            sums: vec![N::zero(); layout.sum_targets.len()].into_boxed_slice(),
        }
    }

    /// Merge a predecessor's (or another END event's) state into this one:
    /// counts and sums add, extrema fold (the `Σ`/`min`/`max` of Thm 9.1).
    pub fn merge(&mut self, other: &AggState<N>) {
        self.count.add_assign(&other.count);
        for (a, b) in self.counts_e.iter_mut().zip(other.counts_e.iter()) {
            a.add_assign(b);
        }
        for (a, b) in self.mins.iter_mut().zip(other.mins.iter()) {
            *a = a.min(*b);
        }
        for (a, b) in self.maxs.iter_mut().zip(other.maxs.iter()) {
            *a = a.max(*b);
        }
        for (a, b) in self.sums.iter_mut().zip(other.sums.iter()) {
            a.add_assign(b);
        }
    }

    /// Carrier slots in flat order: `count`, `counts_e`, `sums`.
    pub(crate) fn num_slots(&self) -> impl Iterator<Item = &N> {
        std::iter::once(&self.count)
            .chain(self.counts_e.iter())
            .chain(self.sums.iter())
    }

    /// Extremum slots in flat order: `mins`, `maxs`.
    pub(crate) fn ext_slots(&self) -> impl Iterator<Item = &f64> {
        self.mins.iter().chain(self.maxs.iter())
    }

    /// [`merge`](Self::merge) a state stored flat, in the order of
    /// [`num_slots`](Self::num_slots) and [`ext_slots`](Self::ext_slots).
    pub(crate) fn merge_slots(&mut self, nums: &[N], exts: &[f64]) {
        let mut nums = nums.iter();
        if let Some(c) = nums.next() {
            self.count.add_assign(c);
        }
        for (a, b) in self.counts_e.iter_mut().zip(nums.by_ref()) {
            a.add_assign(b);
        }
        for (a, b) in self.sums.iter_mut().zip(nums) {
            a.add_assign(b);
        }
        let mut exts = exts.iter();
        for (a, b) in self.mins.iter_mut().zip(exts.by_ref()) {
            *a = a.min(*b);
        }
        for (a, b) in self.maxs.iter_mut().zip(exts) {
            *a = a.max(*b);
        }
    }

    /// Apply the inserted event's own contribution (Theorem 9.1), after all
    /// predecessor states have been merged:
    ///
    /// * START events increment `count` by one (they begin a new trend);
    /// * if the event's type is a tracked target, fold its attribute into
    ///   `counts_e` / `mins` / `maxs` / `sums` weighted by the final count.
    pub fn apply_own(&mut self, event: &Event, is_start: bool, layout: &AggLayout) {
        if is_start {
            self.count.add_assign(&N::one());
        }
        // Dense accessor: one index by type id, then only the slots this
        // type actually feeds (resolved once in `AggLayout::new`).
        let Some(ops) = layout.ops.get(event.type_id.0 as usize) else {
            return;
        };
        for &i in &ops.counts {
            // e.countE = e.count + Σ p.countE; the Σ part is already in
            // counts_e from merge(), so add e.count.
            let c = self.count.clone();
            self.counts_e[i].add_assign(&c);
        }
        for &(i, a) in &ops.mins {
            self.mins[i] = self.mins[i].min(event.attr(a).as_f64());
        }
        for &(i, a) in &ops.maxs {
            self.maxs[i] = self.maxs[i].max(event.attr(a).as_f64());
        }
        for &(i, a) in &ops.sums {
            let contrib = N::scale_by_attr(&self.count, event.attr(a).as_f64());
            self.sums[i].add_assign(&contrib);
        }
    }

    /// Heap bytes (memory accounting).
    pub fn heap_size(&self) -> usize {
        let slots = self.counts_e.len() + self.sums.len();
        slots * std::mem::size_of::<N>()
            + (self.mins.len() + self.maxs.len()) * std::mem::size_of::<f64>()
            + self.count.heap_size()
            + self.counts_e.iter().map(TrendNum::heap_size).sum::<usize>()
            + self.sums.iter().map(TrendNum::heap_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_query::compile::CompiledAgg;
    use greta_types::{Time, Value};

    fn layout() -> AggLayout {
        // COUNT(A), MIN(A.0), MAX(A.0), SUM(A.0), AVG(A.0) over TypeId(0)
        let t = TypeId(0);
        let a = AttrId(0);
        AggLayout::new(&[
            CompiledAgg {
                label: "c".into(),
                kind: AggKind::Count(t),
            },
            CompiledAgg {
                label: "mn".into(),
                kind: AggKind::Min(t, a),
            },
            CompiledAgg {
                label: "mx".into(),
                kind: AggKind::Max(t, a),
            },
            CompiledAgg {
                label: "s".into(),
                kind: AggKind::Sum(t, a),
            },
            CompiledAgg {
                label: "avg".into(),
                kind: AggKind::Avg(t, a),
            },
        ])
    }

    fn ev(ty: u16, attr: f64, t: u64) -> Event {
        Event::new_unchecked(TypeId(ty), Time(t), vec![Value::Float(attr)])
    }

    #[test]
    fn layout_dedups_avg_slots() {
        let l = layout();
        assert_eq!(l.count_targets.len(), 1); // COUNT(A) and AVG share
        assert_eq!(l.sum_targets.len(), 1); // SUM and AVG share
        assert_eq!(l.min_targets.len(), 1);
        assert_eq!(l.max_targets.len(), 1);
    }

    #[test]
    fn start_event_contribution() {
        let l = layout();
        let mut s = AggState::<u64>::zero(&l);
        s.apply_own(&ev(0, 5.0, 1), true, &l);
        assert_eq!(s.count, 1);
        assert_eq!(s.counts_e[0], 1);
        assert_eq!(s.mins[0], 5.0);
        assert_eq!(s.maxs[0], 5.0);
        assert_eq!(s.sums[0], 5);
    }

    #[test]
    fn untracked_type_contributes_count_only() {
        let l = layout();
        let mut s = AggState::<u64>::zero(&l);
        s.apply_own(&ev(1, 99.0, 1), true, &l); // type B, not tracked
        assert_eq!(s.count, 1);
        assert_eq!(s.counts_e[0], 0);
        assert_eq!(s.mins[0], f64::INFINITY);
        assert_eq!(s.sums[0], 0);
    }

    #[test]
    fn figure_12_a4_state() {
        // Reproduce a4's intermediate aggregates from Fig. 12:
        // preds a1 (count 1, min 5, sum 5), b2 (count 1, carries a1's aggs),
        // a3 (count 3, min 5, sum 28). a4.attr = 4.
        let l = layout();
        let mut a1 = AggState::<u64>::zero(&l);
        a1.apply_own(&ev(0, 5.0, 1), true, &l);
        let mut b2 = AggState::<u64>::zero(&l);
        b2.merge(&a1);
        b2.apply_own(&ev(1, 0.0, 2), false, &l);
        assert_eq!(b2.count, 1);
        assert_eq!(b2.counts_e[0], 1);

        let mut a3 = AggState::<u64>::zero(&l);
        a3.merge(&a1);
        a3.merge(&b2);
        a3.apply_own(&ev(0, 6.0, 3), true, &l);
        assert_eq!(a3.count, 3);
        assert_eq!(a3.counts_e[0], 1 + 1 + 3); // 5
        assert_eq!(a3.sums[0], 5 + 5 + 6 * 3); // 28

        let mut a4 = AggState::<u64>::zero(&l);
        a4.merge(&a1);
        a4.merge(&b2);
        a4.merge(&a3);
        a4.apply_own(&ev(0, 4.0, 4), true, &l);
        assert_eq!(a4.count, 6); // 1 + (1+1+3)
        assert_eq!(a4.counts_e[0], 1 + 1 + 5 + 6); // 13
        assert_eq!(a4.mins[0], 4.0);
        assert_eq!(a4.sums[0], 5 + 5 + 28 + 4 * 6); // 62
    }

    #[test]
    fn carriers_agree_on_small_counts() {
        let l = layout();
        let mut u = AggState::<u64>::zero(&l);
        let mut f = AggState::<f64>::zero(&l);
        let mut b = AggState::<BigUint>::zero(&l);
        for i in 0..20 {
            let e = ev(0, i as f64, i);
            let (start, other_u) = (i % 2 == 0, u.clone());
            u.merge(&other_u);
            u.apply_own(&e, start, &l);
            let of = f.clone();
            f.merge(&of);
            f.apply_own(&e, start, &l);
            let ob = b.clone();
            b.merge(&ob);
            b.apply_own(&e, start, &l);
        }
        assert_eq!(u.count as f64, f.count);
        assert_eq!(b.count.to_f64(), f.count);
        assert_eq!(u.sums[0] as f64, f.sums[0]);
        assert_eq!(b.sums[0].to_f64(), f.sums[0]);
    }

    #[test]
    fn u64_saturates_instead_of_overflowing() {
        let mut x = u64::MAX - 1;
        TrendNum::add_assign(&mut x, &5u64);
        assert_eq!(x, u64::MAX);
        assert_eq!(u64::scale_by_attr(&u64::MAX, 2.0), u64::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TrendNum::display(&42u64), "42");
        assert_eq!(TrendNum::display(&42.0f64), "42");
        assert_eq!(TrendNum::display(&42.5f64), "42.5");
        assert_eq!(TrendNum::display(&BigUint::from_u64(42)), "42");
    }

    #[test]
    fn merge_is_commutative_on_extrema() {
        let l = layout();
        let mut s1 = AggState::<f64>::zero(&l);
        s1.apply_own(&ev(0, 3.0, 1), true, &l);
        let mut s2 = AggState::<f64>::zero(&l);
        s2.apply_own(&ev(0, 7.0, 2), true, &l);
        let mut a = s1.clone();
        a.merge(&s2);
        let mut b = s2.clone();
        b.merge(&s1);
        assert_eq!(a.mins, b.mins);
        assert_eq!(a.maxs, b.maxs);
        assert_eq!(a.count, b.count);
    }
}
