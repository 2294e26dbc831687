//! Output oracle: every query's rows from a sequential `GretaEngine` over
//! the time-sorted stream, in canonical `(window, group)` order, encoded
//! to bytes so a comparison is byte for byte. Runs outside every timed
//! region.

use crate::workload::Workload;
use greta_core::{sort_canonical, GretaEngine, WindowResult};

/// Encoded expected rows of one query, canonical order.
pub type Expected = Vec<Vec<u8>>;

/// One expected row set per hosted query (primary first), each from the
/// query's standalone sequential run.
pub fn expected(w: &Workload) -> Result<Vec<Expected>, String> {
    w.compiled
        .iter()
        .map(|q| {
            let mut engine = GretaEngine::<f64>::new(q.clone(), w.registry.clone())
                .map_err(|e| format!("oracle engine: {e}"))?;
            let mut rows = engine
                .run(&w.sorted)
                .map_err(|e| format!("oracle run: {e}"))?;
            sort_canonical(&mut rows);
            Ok(encode(&rows))
        })
        .collect()
}

/// Encode rows with the program's own row codec.
pub fn encode(rows: &[WindowResult<f64>]) -> Expected {
    rows.iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            b
        })
        .collect()
}

/// Rows of `got` that differ from `want` position by position, plus the
/// missing or extra ones. With `sort`, `got` is put in canonical order
/// first (unordered emission); without, its own order must already match
/// (window-ordered emission).
pub fn mismatches(want: &Expected, got: &mut [WindowResult<f64>], sort: bool) -> u64 {
    if sort {
        sort_canonical(got);
    }
    let got = encode(got);
    let differing = want.iter().zip(&got).filter(|(a, b)| a != b).count();
    (differing + want.len().abs_diff(got.len())) as u64
}
