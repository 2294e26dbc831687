//! Closed-loop driver of an in-process `StreamExecutor`: one thread pushes
//! the arrival-order stream, polling every hosted query after each push,
//! then calls `finish`.

use crate::trace::Tracer;
use crate::workload::{Driver, Schedule, Workload, SHARDS};
use greta_core::{ExecutorConfig, ExecutorStats, QueryId, StreamExecutor, WindowResult};
use greta_durability::DurabilityConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A fresh durability directory under `root` (removed by [`Rig::drop`]).
fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    root.join(format!("{tag}-{}-{n}", std::process::id()))
}

/// An executor hosting every query of the workload, plus its durability
/// directory when it has one.
pub struct Rig {
    exec: StreamExecutor<f64>,
    /// Ids of the hosted queries, primary first.
    ids: Vec<QueryId>,
    dir: Option<PathBuf>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// Build the executor for `w` (the program's set-up for one pass).
pub fn build(w: &Workload, scratch: &Path) -> Result<Rig, String> {
    let dir = (w.spec.driver == Driver::Durable).then(|| fresh_dir(scratch, w.spec.name));
    let mut config = ExecutorConfig {
        shards: SHARDS,
        slack: w.spec.slack,
        emission: w.spec.emission,
        durability: dir.as_ref().map(DurabilityConfig::new),
        ..ExecutorConfig::default()
    };
    if let Some(c) = w.spec.channel_capacity {
        config.channel_capacity = c;
    }
    let mut exec = StreamExecutor::new(w.compiled[0].clone(), w.registry.clone(), config)
        .map_err(|e| format!("executor: {e}"))?;
    let mut ids = vec![QueryId::PRIMARY];
    for q in &w.spec.queries[1..] {
        ids.push(
            exec.register_query(q, w.spec.emission)
                .map_err(|e| format!("register_query: {e}"))?,
        );
    }
    Ok(Rig { exec, ids, dir })
}

/// What one pass measured.
pub struct Pass {
    /// Push loop plus `finish`, seconds.
    pub secs: f64,
    /// `finish`, ms.
    pub drain_ms: f64,
    /// Closing push → row returned by a poll, ms (rows `finish` returns
    /// are not samples).
    pub row_latency_ms: Vec<f64>,
    /// Every row of every hosted query, primary first.
    pub rows: Vec<Vec<WindowResult<f64>>>,
    /// Push calls that returned an error.
    pub push_errors: u64,
    /// Executor counters after `finish`.
    pub stats: ExecutorStats,
}

/// Drive one pass of `w` through `rig`. Spans (when `tr` records):
/// `executor.push` / `checkpoint.push` (a push at which the schedule
/// predicts a checkpoint), `executor.poll`, `executor.finish`, all under
/// one `bench.pass`.
pub fn run_pass(w: &Workload, sched: &Schedule, mut rig: Rig, tr: &mut Tracer) -> Pass {
    let nq = rig.ids.len();
    let mut rows: Vec<Vec<WindowResult<f64>>> = vec![Vec::new(); nq];
    let mut closed_at: Vec<Instant> = Vec::with_capacity(sched.closing_pushes.len());
    let mut row_latency_ms = Vec::with_capacity(sched.closing_pushes.len() * 4);
    let (mut next_close, mut next_ckpt) = (0usize, 0usize);
    let mut push_errors = 0u64;
    let mut stamped = vec![0usize; nq];
    let exec = &mut rig.exec;

    tr.enter("bench.pass");
    let start = Instant::now();
    for (i, e) in w.arrival.iter().enumerate() {
        let i = i as u32;
        if sched.closing_pushes.get(next_close) == Some(&i) {
            closed_at.push(Instant::now());
            next_close += 1;
        }
        let ckpt = sched.checkpoint_pushes.get(next_ckpt) == Some(&i);
        next_ckpt += ckpt as usize;
        tr.enter(if ckpt {
            "checkpoint.push"
        } else {
            "executor.push"
        });
        let pushed = exec.push_ref(e.clone());
        tr.exit();
        push_errors += pushed.is_err() as u64;

        tr.enter("executor.poll");
        let mut got_any = false;
        for (q, id) in rig.ids.iter().enumerate() {
            let polled = exec.poll_results_of(*id).unwrap_or_default();
            got_any |= !polled.is_empty();
            rows[q].extend(polled);
        }
        tr.exit();
        if got_any {
            let now = Instant::now();
            for (q, stamped) in rows.iter().zip(&mut stamped) {
                for r in &q[*stamped..] {
                    if let Some(at) = sched.closed_by(r.window).and_then(|k| closed_at.get(k)) {
                        row_latency_ms.push((now - *at).as_secs_f64() * 1e3);
                    }
                }
                *stamped = q.len();
            }
        }
    }
    let fin = Instant::now();
    tr.enter("executor.finish");
    match exec.finish() {
        Ok(rest) => rows[0].extend(rest),
        Err(_) => push_errors += 1,
    }
    for (q, id) in rig.ids.iter().enumerate().skip(1) {
        rows[q].extend(exec.poll_results_of(*id).unwrap_or_default());
    }
    tr.exit();
    let end = Instant::now();
    tr.exit();
    let stats = exec.stats();
    drop(rig);
    Pass {
        secs: (end - start).as_secs_f64(),
        drain_ms: (end - fin).as_secs_f64() * 1e3,
        row_latency_ms,
        rows,
        push_errors,
        stats,
    }
}
