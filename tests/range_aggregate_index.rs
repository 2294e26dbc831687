//! The predecessor aggregate index against the per-predecessor scan.
//!
//! Eligible edges (skip-till-any-match, no negation, no predicate or one
//! range-form predicate other than `≠`) merge O(log n) subtree sums per
//! pane instead of every predecessor. These tests hold it to the scan it
//! replaces and to the determinism contract of the runtime:
//!
//! * **differential**: with exact carriers (`u64`, `BigUint`) every row
//!   and the `vertices`/`edges` counters equal the `use_range_index:
//!   false` scan — sliding windows whose predecessors span several panes
//!   with different shared windows, equal timestamps, every comparison
//!   operator (`≠` falls back to the scan), MID/END states, edges without
//!   predicates, and a Q1 stock stream (a pane straddling the predecessor
//!   horizon is always purged by the engine before the next event, so
//!   `storage.rs` unit tests cover that case directly);
//! * **determinism**: with `f64` and counts far past 2⁵³ (where summation
//!   order shows in the low bits), results are bit-identical across
//!   export/import split points, shard counts and resharded recovery;
//! * **complexity**: the merge-work counter grows like n log n, not n², on
//!   `A+ WHERE A.attr > NEXT(A).attr`.

use greta::bignum::BigUint;
use greta::core::{
    sort_canonical, EngineConfig, ExecutorConfig, GretaEngine, StreamExecutor, TrendNum,
    WindowResult,
};
use greta::durability::DurabilityConfig;
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};
use greta::workloads::{StockConfig, StockGen};
use proptest::prelude::*;

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for t in ["A", "B", "C"] {
        reg.register_type(t, &["attr", "g"]).unwrap();
    }
    reg
}

/// `(type, time delta, attr, group)`; deltas of 0 give equal timestamps.
/// Types 0 and 1 are `A`, so the Kleene state's trees grow large enough
/// to keep subtree sums.
fn build_events(reg: &SchemaRegistry, raw: &[(u8, u8, u8, u8)]) -> Vec<Event> {
    let names = ["A", "A", "B", "C"];
    let mut t = 0u64;
    raw.iter()
        .map(|(ty, dt, attr, g)| {
            t += *dt as u64;
            EventBuilder::new(reg, names[*ty as usize % names.len()])
                .unwrap()
                .at(Time(t))
                .set("attr", *attr as i64)
                .unwrap()
                .set("g", *g as i64)
                .unwrap()
                .build()
        })
        .collect()
}

/// Rows in canonical order, each encoded with the row codec (exact for
/// every carrier; floats compare by bits).
fn encoded<N: TrendNum>(mut rows: Vec<WindowResult<N>>) -> Vec<Vec<u8>> {
    sort_canonical(&mut rows);
    rows.iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            b
        })
        .collect()
}

/// Run `events` with and without the range index; `(rows, vertices,
/// edges, merges)` of each.
#[allow(clippy::type_complexity)]
fn index_and_scan<N: TrendNum>(
    q: &CompiledQuery,
    reg: &SchemaRegistry,
    events: &[Event],
) -> [(Vec<Vec<u8>>, u64, u64, u64); 2] {
    [true, false].map(|use_range_index| {
        let mut eng = GretaEngine::<N>::with_config(
            q.clone(),
            reg.clone(),
            EngineConfig {
                use_range_index,
                ..Default::default()
            },
        )
        .unwrap();
        let rows = encoded(eng.run(events).unwrap());
        let s = eng.stats();
        (rows, s.vertices, s.edges, s.merges)
    })
}

fn assert_index_matches_scan<N: TrendNum>(
    q: &CompiledQuery,
    reg: &SchemaRegistry,
    events: &[Event],
    ctx: &str,
) -> Result<(), TestCaseError> {
    let [(rows_i, v_i, e_i, _), (rows_s, v_s, e_s, _)] = index_and_scan::<N>(q, reg, events);
    prop_assert_eq!(v_i, v_s, "vertices differ: {}", ctx);
    prop_assert_eq!(e_i, e_s, "edges differ: {}", ctx);
    prop_assert_eq!(rows_i, rows_s, "rows differ: {}", ctx);
    Ok(())
}

const PATTERNS: &[&str] = &["A+", "SEQ(A+, B)", "(SEQ(A+, B))+", "SEQ(A, B+, C)"];

/// Edge predicates on `A → A`: every comparison operator (`!=` is not a
/// contiguous range and falls back to the scan), a scaled bound, and none.
const WHERES: &[&str] = &[
    "",
    " WHERE A.attr < NEXT(A).attr",
    " WHERE A.attr <= NEXT(A).attr",
    " WHERE A.attr > NEXT(A).attr",
    " WHERE A.attr >= NEXT(A).attr",
    " WHERE A.attr = NEXT(A).attr",
    " WHERE A.attr != NEXT(A).attr",
    " WHERE A.attr * 2 > NEXT(A).attr",
    " WHERE [g] AND A.attr > NEXT(A).attr",
];

/// `(within, slide)`: tumbling, sliding with panes shorter than the
/// window, slide not dividing within, and a window shorter than its slide.
const WINDOWS: &[(u64, u64)] = &[(48, 48), (64, 16), (60, 24), (54, 36), (3, 5)];

const AGGS: &str = "COUNT(*), COUNT(A), SUM(A.attr), MIN(A.attr), MAX(A.attr), AVG(A.attr)";

/// Dense streams (about three events per tick) so trees pass the size
/// from which they keep subtree sums.
fn arb_stream() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..4, 0u8..3, 0u8..6, 0u8..2), 0..200).prop_map(|v| {
        v.into_iter()
            .map(|(ty, dt, attr, g)| (ty, u8::from(dt == 2), attr, g))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    #[test]
    fn index_equals_scan_on_exact_carriers(
        pat in 0..PATTERNS.len(),
        wh in 0..WHERES.len(),
        win in 0..WINDOWS.len(),
        raw in arb_stream(),
    ) {
        let reg = registry();
        let (within, slide) = WINDOWS[win];
        let text = format!(
            "RETURN {AGGS} PATTERN {}{} WITHIN {within} SLIDE {slide}",
            PATTERNS[pat], WHERES[wh]
        );
        let q = CompiledQuery::parse(&text, &reg).unwrap();
        let events = build_events(&reg, &raw);
        assert_index_matches_scan::<u64>(&q, &reg, &events, &text)?;
        assert_index_matches_scan::<BigUint>(&q, &reg, &events, &text)?;
    }
}

#[test]
fn ties_are_not_predecessors() {
    // Bursts of equal timestamps: an entry tied with the new event must
    // stay out of the sums, then join them once time advances.
    let reg = registry();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*), SUM(A.attr) PATTERN SEQ(A+, B) WITHIN 8 SLIDE 2",
        &reg,
    )
    .unwrap();
    let raw: Vec<(u8, u8, u8, u8)> = (0..60u8)
        .map(|i| (u8::from(i % 5 == 4), u8::from(i % 3 == 0), i % 4, 0))
        .collect();
    let events = build_events(&reg, &raw);
    let [idx, scan] = index_and_scan::<BigUint>(&q, &reg, &events);
    assert_eq!(idx.0, scan.0);
    assert_eq!((idx.1, idx.2), (scan.1, scan.2));
    assert!(idx.2 > 0, "the stream must have edges");
}

fn stock(n: usize, seed: u64) -> (SchemaRegistry, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: n,
            seed,
            ..StockConfig::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    (reg, events)
}

const Q1: &str = "RETURN sector, COUNT(*), COUNT(S), MIN(S.price), MAX(S.price) \
    PATTERN Stock S+ WHERE [company, sector] AND S.price > NEXT(S).price \
    GROUP-BY sector WITHIN 2000 SLIDE 500";

#[test]
fn q1_stock_stream_index_equals_scan_on_biguint() {
    let (reg, events) = stock(5_000, 7);
    let q = CompiledQuery::parse(Q1, &reg).unwrap();
    let [idx, scan] = index_and_scan::<BigUint>(&q, &reg, &events);
    assert_eq!(idx.0, scan.0, "rows");
    assert_eq!((idx.1, idx.2), (scan.1, scan.2), "vertices/edges");
    assert!(
        idx.2 > 10 * events.len() as u64,
        "dense stream: {} edges",
        idx.2
    );
    assert!(
        idx.3 < scan.3,
        "the index merges less: {} vs {}",
        idx.3,
        scan.3
    );
}

/// Q1 rows on `f64` whose counts are far past 2⁵³, encoded.
fn q1_f64_expected(q: &CompiledQuery, reg: &SchemaRegistry, events: &[Event]) -> Vec<Vec<u8>> {
    let mut eng = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let rows = eng.run(events).unwrap();
    let max = rows
        .iter()
        .map(|r| r.values[0].to_f64())
        .fold(0.0, f64::max);
    assert!(max > 1e18, "counts must be far past 2^53 (max {max:e})");
    encoded(rows)
}

#[test]
fn f64_results_are_bit_identical_across_export_import() {
    let (reg, events) = stock(5_000, 7);
    let q = CompiledQuery::parse(Q1, &reg).unwrap();
    let expect = q1_f64_expected(&q, &reg, &events);
    for split in [1, 777, 2_500, 4_321, 4_999] {
        let mut first = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        let mut rows = Vec::new();
        for e in &events[..split] {
            first.process(e).unwrap();
            rows.extend(first.poll_results());
        }
        let blob = first.export_state();
        let mut second = GretaEngine::<f64>::import_state(
            q.clone(),
            reg.clone(),
            EngineConfig::default(),
            &blob,
        )
        .unwrap();
        assert_eq!(second.export_state(), blob, "split {split}: re-export");
        for e in &events[split..] {
            second.process(e).unwrap();
            rows.extend(second.poll_results());
        }
        rows.extend(second.finish());
        assert_eq!(encoded(rows), expect, "split {split}");
    }
}

#[test]
fn f64_results_are_bit_identical_across_shard_counts() {
    let (reg, events) = stock(5_000, 7);
    let q = CompiledQuery::parse(Q1, &reg).unwrap();
    let expect = q1_f64_expected(&q, &reg, &events);
    for shards in [1, 2, 4] {
        let mut exec = StreamExecutor::<f64>::new(
            q.clone(),
            reg.clone(),
            ExecutorConfig {
                shards,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rows = Vec::new();
        for e in &events {
            exec.push(e.clone()).unwrap();
            rows.extend(exec.poll_results());
        }
        rows.extend(exec.finish().unwrap());
        assert_eq!(encoded(rows), expect, "{shards} shards");
    }
}

#[test]
fn f64_results_are_bit_identical_across_resharded_recovery() {
    let (reg, events) = stock(5_000, 7);
    let q = CompiledQuery::parse(Q1, &reg).unwrap();
    let expect = q1_f64_expected(&q, &reg, &events);
    for (from, to) in [(2usize, 4usize), (4, 1)] {
        let dir = std::env::temp_dir().join(format!(
            "greta-range-agg-{from}-{to}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |shards| ExecutorConfig {
            shards,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let mut committed = Vec::new();
        {
            let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), cfg(from)).unwrap();
            for e in &events[..3_000] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
            // A WAL tail replayed through the resharded routing.
            for e in &events[3_000..3_400] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
        } // crash
        let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), cfg(to)).unwrap();
        for e in &events[3_400..] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        committed.extend(exec.finish().unwrap());
        // Rows emitted between checkpoint and crash come again; an
        // idempotent sink keeps one per (window, group).
        sort_canonical(&mut committed);
        committed.dedup_by(|a, b| a.window == b.window && a.group == b.group);
        assert_eq!(encoded(committed), expect, "{from}→{to}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `(edges, merges)` of `A+ WHERE A.attr > NEXT(A).attr` over `n` events
/// with pseudo-random attributes, all in one window.
fn kleene_work(n: u64, use_range_index: bool) -> (u64, u64) {
    let reg = registry();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN A+ WHERE A.attr > NEXT(A).attr WITHIN 100000 SLIDE 100000",
        &reg,
    )
    .unwrap();
    let mut eng = GretaEngine::<f64>::with_config(
        q,
        reg.clone(),
        EngineConfig {
            use_range_index,
            ..Default::default()
        },
    )
    .unwrap();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for t in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let e = EventBuilder::new(&reg, "A")
            .unwrap()
            .at(Time(t))
            .set("attr", (x % 1_000_000) as i64)
            .unwrap()
            .build();
        eng.process(&e).unwrap();
    }
    eng.finish();
    let s = eng.stats();
    (s.edges, s.merges)
}

#[test]
fn merge_work_grows_n_log_n_not_quadratically() {
    let (e1, m1) = kleene_work(2_000, true);
    let (e2, m2) = kleene_work(4_000, true);
    // Edges are the quadratic term of Thm 8.1: doubling n ~quadruples them.
    assert!(e2 as f64 / e1 as f64 > 3.5, "edges {e1} → {e2}");
    // Subtree merges: n log n doubles to 2·log(2n)/log(n) ≈ 2.18×.
    let ratio = m2 as f64 / m1 as f64;
    assert!(ratio < 2.6, "merges {m1} → {m2} (×{ratio:.2})");
    assert!(m2 < e2 / 20, "merges {m2} vs edges {e2}");
    // The scan merges once per edge (one window).
    let (e_scan, m_scan) = kleene_work(2_000, false);
    assert_eq!((e_scan, m_scan), (e1, e1));
}
