//! Runtime GRETA graphs for one stream partition (paper §4.2, Algorithm 2,
//! extended with negation §5.2, sliding windows §6 and selection semantics
//! §9).
//!
//! An [`AltRuntime`] maintains one [`GraphStorage`] per graph of a compiled
//! alternative (the positive root plus negative sub-patterns). Processing an
//! event:
//!
//! 1. offer it to every graph/state whose event type matches (Case-3
//!    negation may drop it, Fig. 8(b));
//! 2. filter by vertex predicates;
//! 3. find valid predecessors per predecessor state — Vertex-Tree range
//!    query for the range-form edge predicate, residual predicates on the
//!    candidates, Definition-5 invalidation thresholds, selection-semantics
//!    filter — and merge their per-window aggregates. Edges eligible for
//!    the predecessor aggregate index (skip-till-any-match, no negation, no
//!    predicate or one range-form predicate other than `≠`) skip the
//!    per-predecessor walk: [`GraphStorage::fold_predecessors`] returns
//!    O(log n) subtree sums;
//! 4. insert iff START or some predecessor exists (Algorithm 2 line 5);
//! 5. apply the event's own contribution to the merged aggregates
//!    (Theorem 9.1);
//! 6. END events: root graphs report their aggregate to the caller;
//!    negative graphs append to their [`InvalidationLog`] and prune the
//!    finished trend (Example 5).

use crate::agg::{AggLayout, AggState, TrendNum};
use crate::negation::{
    end_event_valid_at_close, insertion_dropped, needs_deferred_final, predecessor_valid, DepMode,
    Dependency, InvalidationLog,
};
use crate::semantics::Semantics;
use crate::storage::{AugSpec, GraphStorage, Vertex, VertexId};
use crate::window::{pane_length, windows_of, WindowId};
use greta_query::ast::CmpOp;
use greta_query::compile::AltPlan;
use greta_query::predicate::{CompiledExpr, EdgePredicate};
use greta_query::{StateId, WindowSpec};
use greta_types::{EventRef, Time};

/// Immutable per-event processing context.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// Aggregate layout of the query.
    pub layout: &'a AggLayout,
    /// The window specification.
    pub window: WindowSpec,
    /// Selection semantics.
    pub semantics: Semantics,
    /// Whether Vertex-Tree range queries are used (ablation switch).
    pub use_range_index: bool,
}

/// One graph's runtime state.
struct GraphRuntime<N: TrendNum> {
    storage: GraphStorage<N>,
    /// Invalidations produced by this graph (non-empty only for negative
    /// graphs that finished trends).
    log: InvalidationLog,
    /// Dependencies on child (negative) graphs.
    deps: Vec<Dependency>,
}

/// Compiled per-state accessors of one graph, resolved once from the plan
/// (no per-event name/hash lookups or predicate scans on the hot path):
/// dispatch table from event type to candidate states, hoisted vertex and
/// edge predicate lists, START/END flags, and the range-query predicate
/// index per predecessor state.
struct GraphOps {
    /// `TypeId.0` → indices into [`GraphOps::states`].
    dispatch: Vec<Box<[usize]>>,
    /// Per-state ops, in `state_types` order.
    states: Vec<StateOps>,
}

/// Compiled accessors for one template state.
struct StateOps {
    state: StateId,
    is_start: bool,
    is_end: bool,
    /// Local filters of this state (§6), hoisted out of the per-event scan.
    vertex_preds: Vec<CompiledExpr>,
    /// One entry per predecessor state, hoisted out of the per-event
    /// `predecessors()` + `edge_preds()` collection.
    preds: Vec<PredOps>,
}

/// Compiled edge-predicate set for one `(prev_state, state)` pair.
struct PredOps {
    p_state: StateId,
    eps: Vec<EdgePredicate>,
    /// Index into `eps` of the predicate the Vertex Tree answers as a
    /// range query (honored only when `Ctx::use_range_index` is set).
    range_idx: Option<usize>,
    /// Answered by subtree sums ([`GraphStorage::fold_predecessors`])
    /// instead of a per-predecessor walk. Decided at plan time: the range
    /// index is on, semantics are skip-till-any-match, the alternative has
    /// no negation (no Definition-5 checks, no pruning), and the edge's
    /// predicates are none or exactly its range-form one (never `≠`).
    aggregate: bool,
}

/// Runtime of one compiled alternative within one partition.
pub struct AltRuntime<N: TrendNum> {
    graphs: Vec<GraphRuntime<N>>,
    /// Compiled accessors, parallel to `graphs`.
    ops: Vec<GraphOps>,
    /// Vertices inserted (statistics).
    pub vertices_inserted: u64,
    /// Edges traversed, i.e. predecessor pairs merged (statistics; the
    /// quadratic term of Theorem 8.1).
    pub edges_traversed: u64,
    /// Per-window aggregate merges into new vertices: one per predecessor
    /// and window on the scan path, one per subtree sum and window on the
    /// aggregate index (statistics; not persisted).
    pub merges: u64,
}

impl<N: TrendNum> AltRuntime<N> {
    /// Set up runtime state for an alternative under `ctx` (the layout,
    /// window, semantics and range-index switch the engine will process
    /// with).
    pub fn new(plan: &AltPlan, ctx: &Ctx<'_>) -> AltRuntime<N> {
        let window = &ctx.window;
        let pane_len = pane_length(window);
        // Subtree sums are exact only without Definition-5 invalidation or
        // pruning (negation) and when every predecessor in range is merged.
        let aggregate_ok = ctx.use_range_index
            && ctx.semantics == Semantics::SkipTillAny
            && plan.graphs.len() == 1;
        let mut graphs = Vec::with_capacity(plan.graphs.len());
        let mut ops = Vec::with_capacity(plan.graphs.len());
        for spec in &plan.graphs {
            let n_states = spec
                .template
                .states
                .iter()
                .map(|s| s.occ.0 as usize + 1)
                .max()
                .unwrap_or(0);
            // Sort attribute per state: first range-form edge predicate
            // using this state as the previous side.
            let mut sort_attr: Vec<Option<greta_types::AttrId>> = vec![None; n_states];
            for s in &spec.template.states {
                sort_attr[s.occ.0 as usize] = plan
                    .predicates
                    .edges
                    .iter()
                    .filter(|e| e.prev_state == s.occ)
                    .find_map(|e| e.range.as_ref().map(|r| r.prev_attr));
            }
            let mut states: Vec<StateOps> = Vec::with_capacity(spec.state_types.len());
            let mut dispatch: Vec<Vec<usize>> = Vec::new();
            let mut aug: Vec<Option<AugSpec>> = vec![None; n_states];
            for (sid, tid) in &spec.state_types {
                let ti = tid.0 as usize;
                if dispatch.len() <= ti {
                    dispatch.resize(ti + 1, Vec::new());
                }
                dispatch[ti].push(states.len());
                let mut preds = Vec::new();
                for p_state in spec.template.predecessors(*sid) {
                    let eps: Vec<EdgePredicate> =
                        plan.predicates.edge_preds(p_state, *sid).cloned().collect();
                    // `≠` is no contiguous range: it stays a residual
                    // predicate, checked on every candidate.
                    let range_idx = eps.iter().position(|ep| {
                        ep.range.as_ref().is_some_and(|r| {
                            r.op != CmpOp::Ne
                                && sort_attr.get(p_state.0 as usize).copied().flatten()
                                    == Some(r.prev_attr)
                        })
                    });
                    let aggregate = aggregate_ok
                        && match eps.len() {
                            0 => true,
                            1 => range_idx == Some(0),
                            _ => false,
                        };
                    if aggregate {
                        aug[p_state.0 as usize] = Some(AugSpec::new(ctx.layout));
                    }
                    preds.push(PredOps {
                        p_state,
                        eps,
                        range_idx,
                        aggregate,
                    });
                }
                states.push(StateOps {
                    state: *sid,
                    is_start: spec.template.is_start(*sid),
                    is_end: spec.template.is_end(*sid),
                    vertex_preds: plan
                        .predicates
                        .vertex_preds(*sid)
                        .map(|p| p.expr.clone())
                        .collect(),
                    preds,
                });
            }
            let deps = plan
                .graphs
                .iter()
                .filter(|g| g.parent == Some(spec.id))
                .map(|g| Dependency {
                    child: g.id,
                    mode: DepMode::of(g),
                })
                .collect();
            graphs.push(GraphRuntime {
                storage: GraphStorage::new(pane_len, sort_attr).with_aggregates(*window, aug),
                log: InvalidationLog::default(),
                deps,
            });
            ops.push(GraphOps {
                dispatch: dispatch.into_iter().map(Vec::into_boxed_slice).collect(),
                states,
            });
        }
        AltRuntime {
            graphs,
            ops,
            vertices_inserted: 0,
            edges_traversed: 0,
            merges: 0,
        }
    }

    /// True when final aggregates must be computed at window close instead
    /// of incrementally (trailing negation on the root, Case 2).
    pub fn needs_deferred_final(&self) -> bool {
        needs_deferred_final(&self.graphs[0].deps)
    }

    /// Process one event. `event_seq` is the partition-local arrival index.
    /// `on_root_end` is called once per window entry of every END vertex
    /// inserted into the **root** graph (drives incremental final
    /// aggregation, Algorithm 2 line 8).
    // lint:hot-path
    pub fn process(
        &mut self,
        ctx: &Ctx<'_>,
        e: &EventRef,
        event_seq: u64,
        mut on_root_end: impl FnMut(WindowId, &AggState<N>),
    ) {
        for gi in 0..self.graphs.len() {
            self.process_graph(ctx, gi, e, event_seq, &mut on_root_end);
        }
    }

    // lint:hot-path
    fn process_graph(
        &mut self,
        ctx: &Ctx<'_>,
        gi: usize,
        e: &EventRef,
        event_seq: u64,
        on_root_end: &mut impl FnMut(WindowId, &AggState<N>),
    ) {
        // Compiled dispatch: event type → candidate states, one array index.
        let ops = &self.ops[gi];
        let Some(state_idxs) = ops.dispatch.get(e.type_id.0 as usize) else {
            return;
        };
        if state_idxs.is_empty() {
            return;
        }

        // Case-3 negation: drop events arriving strictly after the first
        // finished trend of a DropFollowing child (Fig. 8(b)).
        {
            let deps = &self.graphs[gi].deps;
            let logs =
                |g: greta_query::compile::GraphId| self.graphs.get(g.0 as usize).map(|gr| &gr.log);
            if insertion_dropped(deps, logs, e.time) {
                return;
            }
        }

        // Entries tied with `e` join the aggregate index's sums only now
        // that time has advanced past them.
        self.graphs[gi].storage.settle(e.time);

        for &si in state_idxs.iter() {
            let so = &ops.states[si];
            let state = so.state;
            // Vertex predicates (local filters, §6), hoisted at plan time.
            if !so.vertex_preds.iter().all(|p| p.eval_bool(None, e)) {
                continue;
            }
            let is_start = so.is_start;
            let is_end = so.is_end;

            // lint:allow(hot-path): these aggregates ARE the new vertex's owned state — the allocation is the data structure, not a copy
            let mut aggs: Vec<(WindowId, AggState<N>)> = Vec::new();
            for w in windows_of(e.time, &ctx.window) {
                aggs.push((w, AggState::zero(ctx.layout)));
            }
            let mut latest_start = if is_start { e.time } else { Time::ZERO };
            let mut edges = 0u64;
            // lint:allow(hot-path): per-state scratch; hoisting it would alias the storage borrow taken inside visit_candidates
            let mut preds: Vec<VertexId> = Vec::new();

            // --- predecessors and aggregate propagation (Theorem 9.1) -------
            let lo = Time(e.time.ticks().saturating_sub(ctx.window.within - 1));
            for po in &so.preds {
                let p_state = po.p_state;
                let eps = &po.eps;
                // Range form answered by the Vertex Tree (if it sorts on
                // the predicate's attribute; resolved at plan time).
                let range_idx = if ctx.use_range_index {
                    po.range_idx
                } else {
                    None
                };
                let range = range_idx.map(|i| eps[i].range.as_ref().unwrap().bound(e));

                if po.aggregate {
                    // `latest_start` is left alone: it is only read for
                    // negation, and an alternative with negation has no
                    // aggregate-indexed edges.
                    let f = self.graphs[gi]
                        .storage
                        .fold_predecessors(p_state, lo, e.time, range, &mut aggs);
                    edges += f.edges;
                    self.merges += f.merges;
                    continue;
                }

                let (storage, deps, logs_src) = {
                    let (before, rest) = self.graphs.split_at(gi);
                    let (cur, after) = rest.split_first().unwrap();
                    // Child graphs always have larger ids than the parent
                    // (BFS flattening), so their logs live in `after`.
                    let _ = before;
                    (&cur.storage, &cur.deps, after)
                };
                let logs = |g: greta_query::compile::GraphId| {
                    let idx = g.0 as usize;
                    idx.checked_sub(gi + 1)
                        .and_then(|i| logs_src.get(i))
                        .map(|gr| &gr.log)
                };

                preds.clear();
                let mut best: Option<(u64, VertexId)> = None; // skip-till-next
                storage.visit_candidates(p_state, lo, e.time, range, |id, v| {
                    // Definition-5 invalidation.
                    if !predecessor_valid(deps, logs, p_state, state, v.event.time, e.time) {
                        return;
                    }
                    // Residual edge predicates (the range one is exact).
                    for (i, ep) in eps.iter().enumerate() {
                        if Some(i) == range_idx {
                            continue;
                        }
                        if !ep.expr.eval_bool(Some(v.event.as_ref()), e) {
                            return;
                        }
                    }
                    match ctx.semantics {
                        Semantics::SkipTillAny => preds.push(id),
                        Semantics::Contiguous => {
                            if v.seq + 1 == event_seq {
                                preds.push(id);
                            }
                        }
                        Semantics::SkipTillNext => {
                            if best.is_none_or(|(s, _)| v.seq > s) {
                                best = Some((v.seq, id));
                            }
                        }
                    }
                });
                if let Some((_, id)) = best {
                    preds.push(id);
                }
                for pid in &preds {
                    let pv = storage.store.get(*pid);
                    latest_start = latest_start.max(pv.latest_start);
                    for (w, st) in aggs.iter_mut() {
                        if let Some(ps) = pv.agg(*w) {
                            st.merge(ps);
                            self.merges += 1;
                        }
                    }
                }
                edges += preds.len() as u64;
            }

            // Algorithm 2 line 5: MID/END events need a predecessor.
            if !is_start && edges == 0 {
                continue;
            }
            self.edges_traversed += edges;
            for (_, st) in aggs.iter_mut() {
                st.apply_own(e, is_start, ctx.layout);
            }

            let vertex = Vertex {
                // lint:allow(hot-path): EventRef is an Arc — clone() is a refcount bump, not a payload copy
                event: e.clone(),
                state,
                seq: event_seq,
                latest_start,
                aggs,
            };

            if is_end && gi == 0 {
                for (w, st) in &vertex.aggs {
                    on_root_end(*w, st);
                }
            }
            let finished_negative = is_end && gi != 0;
            self.graphs[gi].storage.insert(vertex);
            self.vertices_inserted += 1;

            if finished_negative {
                // A negative trend finished: record the invalidation and
                // prune the dominated prefix (Example 5, Theorem 5.1).
                self.graphs[gi].log.push(e.time, latest_start);
                self.graphs[gi].storage.purge_vertices_up_to(latest_start);
            }
        }
    }

    /// Deferred final aggregation for Case-2 negation: fold the aggregates
    /// of all still-valid END vertices of the root graph for window `wid`
    /// closing at `close_time`.
    pub fn collect_final(
        &self,
        plan: &AltPlan,
        layout: &AggLayout,
        wid: WindowId,
        close_time: Time,
    ) -> AggState<N> {
        let spec = &plan.graphs[0];
        let deps = &self.graphs[0].deps;
        let logs =
            |g: greta_query::compile::GraphId| self.graphs.get(g.0 as usize).map(|gr| &gr.log);
        let mut acc = AggState::zero(layout);
        self.graphs[0]
            .storage
            .visit_state(spec.template.end, |_, v| {
                if let Some(st) = v.agg(wid) {
                    if end_event_valid_at_close(deps, logs, v.event.time, close_time) {
                        acc.merge(st);
                    }
                }
            });
        acc
    }

    /// Batch-delete panes that ended before `deadline` in all graphs.
    pub fn purge_panes_before(&mut self, deadline: Time) -> usize {
        self.graphs
            .iter_mut()
            .map(|g| g.storage.purge_panes_before(deadline))
            .sum()
    }

    /// Live vertices across all graphs.
    pub fn len(&self) -> usize {
        self.graphs.iter().map(|g| g.storage.len()).sum()
    }

    /// True when no vertices are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of live state.
    pub fn bytes(&self) -> usize {
        self.graphs
            .iter()
            .map(|g| g.storage.bytes() + g.log.heap_size())
            .sum()
    }

    /// Append the binary encoding of the mutable runtime state: statistics
    /// counters, each graph's invalidation log, and every live vertex in
    /// pane order (durability snapshots). The immutable plan-derived parts
    /// (state indexes, sort attributes, dependencies) are rebuilt from the
    /// query on [`decode_state`](Self::decode_state).
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use greta_types::codec::{put_u32, put_u64};
        put_u64(out, self.vertices_inserted);
        put_u64(out, self.edges_traversed);
        put_u32(out, self.graphs.len() as u32);
        for g in &self.graphs {
            g.log.encode(out);
            put_u32(out, g.storage.len() as u32);
            for pane in g.storage.panes() {
                for id in pane.all_ids() {
                    crate::state::encode_vertex(g.storage.store.get(id), out);
                }
            }
        }
    }

    /// Rebuild a runtime from `plan`/`ctx` and state written by
    /// [`encode_state`](Self::encode_state). Vertices keep their stored
    /// order in the slab and are indexed in arrival order, reconstructing
    /// the pane/tree indexes (tree shapes and subtree sums depend only on
    /// the entries, so the restored sums are bit-identical).
    pub fn decode_state(
        plan: &AltPlan,
        ctx: &Ctx<'_>,
        r: &mut greta_types::Reader<'_>,
    ) -> Result<AltRuntime<N>, greta_types::CodecError> {
        use greta_types::CodecError;
        let mut rt = AltRuntime::new(plan, ctx);
        rt.vertices_inserted = r.u64()?;
        rt.edges_traversed = r.u64()?;
        let n = r.seq_len(8)?;
        if n != rt.graphs.len() {
            return Err(CodecError(format!(
                "graph count mismatch: snapshot has {n}, plan has {}",
                rt.graphs.len()
            )));
        }
        for g in &mut rt.graphs {
            g.log = crate::negation::InvalidationLog::decode(r)?;
            let nv = r.seq_len(27)?;
            let mut vertices = Vec::with_capacity(nv);
            for _ in 0..nv {
                vertices.push(crate::state::decode_vertex(r)?);
            }
            g.storage.restore(vertices);
        }
        Ok(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_query::CompiledQuery;
    use greta_types::{EventBuilder, SchemaRegistry};

    fn setup(pattern: &str) -> (SchemaRegistry, CompiledQuery) {
        let mut reg = SchemaRegistry::new();
        for t in ["A", "B", "C", "D", "E"] {
            reg.register_type(t, &["attr"]).unwrap();
        }
        let q = CompiledQuery::parse(
            &format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 1000 SLIDE 1000"),
            &reg,
        )
        .unwrap();
        (reg, q)
    }

    fn run_count(pattern: &str, events: &[(&str, u64)]) -> f64 {
        let (reg, q) = setup(pattern);
        let layout = AggLayout::new(&q.aggregates);
        let plan = &q.alternatives[0];
        let ctx = Ctx {
            layout: &layout,
            window: q.window,
            semantics: Semantics::SkipTillAny,
            use_range_index: true,
        };
        let mut rt = AltRuntime::<f64>::new(plan, &ctx);
        let mut total = 0.0;
        for (seq, (ty, t)) in events.iter().enumerate() {
            let e = EventBuilder::new(&reg, ty)
                .unwrap()
                .at(Time(*t))
                .build()
                .into_ref();
            rt.process(&ctx, &e, seq as u64 + 1, |_w, st| total += st.count);
        }
        total
    }

    #[test]
    fn figure_6c_count_43() {
        // (SEQ(A+, B))+ over {a1, b2, a3, a4, b7, a8, b9} = 43 trends (§4.2).
        let count = run_count(
            "(SEQ(A+, B))+",
            &[
                ("A", 1),
                ("B", 2),
                ("A", 3),
                ("A", 4),
                ("B", 7),
                ("A", 8),
                ("B", 9),
            ],
        );
        assert_eq!(count, 43.0);
    }

    #[test]
    fn example_1_count_11() {
        let count = run_count(
            "(SEQ(A+, B))+",
            &[("A", 1), ("B", 2), ("A", 3), ("A", 4), ("B", 7)],
        );
        assert_eq!(count, 11.0);
    }

    #[test]
    fn flat_kleene_counts_subsets() {
        // A+ over n a's: every non-empty subset in time order = 2^n - 1.
        let events: Vec<(&str, u64)> = (1..=6).map(|t| ("A", t)).collect();
        assert_eq!(run_count("A+", &events), 63.0);
    }

    #[test]
    fn seq_without_loop() {
        // SEQ(A+, B) over a1 a2 b3: trends (a1 b3), (a2 b3), (a1 a2 b3) = 3.
        assert_eq!(
            run_count("SEQ(A+, B)", &[("A", 1), ("A", 2), ("B", 3)]),
            3.0
        );
        // Irrelevant B first is skipped (no predecessor), Fig. 6(b).
        assert_eq!(
            run_count("SEQ(A+, B)", &[("B", 0), ("A", 1), ("A", 2), ("B", 3)]),
            3.0
        );
    }

    #[test]
    fn mid_events_need_predecessors() {
        // SEQ(A, B, C): b before any a is not inserted.
        assert_eq!(run_count("SEQ(A, B, C)", &[("B", 1), ("C", 2)]), 0.0);
        assert_eq!(
            run_count("SEQ(A, B, C)", &[("A", 1), ("B", 2), ("C", 3)]),
            1.0
        );
    }

    #[test]
    fn figure_6d_nested_negation() {
        // (SEQ(A+, NOT SEQ(C, NOT E, D), B))+ over
        // {a1, b2, c2, a3, e3, a4, c5, d6, b7, a8, b9} (Example 4):
        // e3 invalidates c2, so (c5,d6) is the only negative trend; it marks
        // a1,a3,a4 invalid for b's after t6. b7 has no valid predecessors
        // and is not inserted. The marked a's still connect to a8
        // ("the marked a's are valid to connect to new a's"), so
        // a8.count = 1 + (a1:1 + b2:1 + a3:3 + a4:6) = 12; b9 connects to
        // a8 only: b9.count = 12. Final = b2 (1) + b9 (12) = 13.
        let count = run_count(
            "(SEQ(A+, NOT SEQ(C, NOT E, D), B))+",
            &[
                ("A", 1),
                ("B", 2),
                ("C", 2),
                ("A", 3),
                ("E", 3),
                ("A", 4),
                ("C", 5),
                ("D", 6),
                ("B", 7),
                ("A", 8),
                ("B", 9),
            ],
        );
        assert_eq!(count, 13.0);
    }

    #[test]
    fn negative_graph_pruning_keeps_count_correct() {
        // Same as above but with another (C,D) pair later: pruning c5,d6
        // after the first finished trend must not lose the invalidation.
        let count = run_count(
            "SEQ(A+, NOT SEQ(C, D), B)",
            &[("A", 1), ("C", 2), ("D", 3), ("A", 4), ("B", 5)],
        );
        // (c2,d3) invalidates a1 for b's after t3, but a1 still connects to
        // a4 (A→A is unaffected, Example 4): trends (a4,b5) and (a1,a4,b5).
        assert_eq!(count, 2.0);
    }

    #[test]
    fn case3_drops_following_events() {
        // SEQ(NOT E, A+): e3 kills all later a's (Fig. 8(b)).
        let count = run_count("SEQ(NOT E, A+)", &[("A", 1), ("A", 2), ("E", 3), ("A", 4)]);
        // Valid: trends within {a1, a2} = 3.
        assert_eq!(count, 3.0);
    }

    #[test]
    fn contiguous_semantics_counts_runs() {
        let (reg, q) = setup("A+");
        let layout = AggLayout::new(&q.aggregates);
        let plan = &q.alternatives[0];
        let ctx = Ctx {
            layout: &layout,
            window: q.window,
            semantics: Semantics::Contiguous,
            use_range_index: true,
        };
        let mut rt = AltRuntime::<f64>::new(plan, &ctx);
        let mut total = 0.0;
        for (seq, t) in [1u64, 2, 3].iter().enumerate() {
            let e = EventBuilder::new(&reg, "A")
                .unwrap()
                .at(Time(*t))
                .build()
                .into_ref();
            rt.process(&ctx, &e, seq as u64 + 1, |_w, st| total += st.count);
        }
        // Contiguous trends of a1 a2 a3: (a1),(a2),(a3),(a1a2),(a2a3),(a1a2a3) = 6
        assert_eq!(total, 6.0);
    }

    #[test]
    fn skip_till_next_is_polynomial() {
        let (reg, q) = setup("A+");
        let layout = AggLayout::new(&q.aggregates);
        let plan = &q.alternatives[0];
        let ctx = Ctx {
            layout: &layout,
            window: q.window,
            semantics: Semantics::SkipTillNext,
            use_range_index: true,
        };
        let mut rt = AltRuntime::<f64>::new(plan, &ctx);
        let mut total = 0.0;
        for (seq, t) in (1u64..=10).enumerate() {
            let e = EventBuilder::new(&reg, "A")
                .unwrap()
                .at(Time(t))
                .build()
                .into_ref();
            rt.process(&ctx, &e, seq as u64 + 1, |_w, st| total += st.count);
        }
        // Each event links only to its immediate predecessor: runs = n(n+1)/2.
        assert_eq!(total, 55.0);
    }

    #[test]
    fn stats_track_vertices_and_edges() {
        let (reg, q) = setup("A+");
        let layout = AggLayout::new(&q.aggregates);
        let plan = &q.alternatives[0];
        let ctx = Ctx {
            layout: &layout,
            window: q.window,
            semantics: Semantics::SkipTillAny,
            use_range_index: true,
        };
        let mut rt = AltRuntime::<f64>::new(plan, &ctx);
        for (seq, t) in (1u64..=4).enumerate() {
            let e = EventBuilder::new(&reg, "A")
                .unwrap()
                .at(Time(t))
                .build()
                .into_ref();
            rt.process(&ctx, &e, seq as u64 + 1, |_, _| {});
        }
        assert_eq!(rt.vertices_inserted, 4);
        assert_eq!(rt.edges_traversed, 1 + 2 + 3);
        assert_eq!(rt.len(), 4);
        assert!(rt.bytes() > 0);
    }
}
