//! Layer replays of the traced run: the benchmark calls each layer's
//! public functions itself, on the workload's own events, under spans
//! named `layer.call`. Together they mirror one pass of the pipeline the
//! workload drives: reorder, routing, the per-shard engines with their
//! window closes, and, where the workload has them, the ordered merge,
//! the WAL / snapshot / manifest at the checkpoint points, and the wire
//! codec. The engine replay runs every shard on one thread, so it doubles
//! as the single-threaded baseline.

use crate::oracle::{self, Expected};
use crate::stats::{busy_wait, dir_bytes, median};
use crate::trace::Tracer;
use crate::workload::{self, Cadence, Driver, Workload, SHARDS};
use greta_core::{EmissionMode, WindowResult};
use greta_core::{GretaEngine, MemoryFootprint, ReorderBuffer, ResultMerge, StreamRouting};
use greta_durability::{DurabilityConfig, Manifest, SnapshotStore, Wal};
use greta_server::Request;
use greta_types::{Event, EventRef};
use std::path::Path;
use std::time::Duration;

/// Events per span where a layer is called once per event.
const CHUNK: usize = 1024;
/// WAL record tag the executor writes before an event (one byte).
const WAL_EVENT_TAG: u8 = 0;

/// A fixed busy-wait added to one wrapper (the attribution self-test).
#[derive(Debug, Clone, Default)]
pub struct Inject {
    /// Wrapper name: `wal.append` or `sender` (the open-loop sender).
    pub target: String,
    /// Delay per call.
    pub delay: Duration,
}

impl Inject {
    /// Busy-wait if `name` is the injected wrapper.
    #[inline]
    pub fn hit(&self, name: &str) {
        if self.target == name {
            busy_wait(self.delay);
        }
    }
}

/// Counters and per-call timings the replays measured (times from spans
/// are read off the tracer afterwards).
#[derive(Debug, Default)]
pub struct Replay {
    /// Events replayed.
    pub events: u64,
    /// Reorder buffer high-water mark.
    pub reorder_buffered_max: usize,
    /// Events the reorder buffer called late.
    pub reorder_late: u64,
    /// Primary-plane events broadcast to every shard.
    pub broadcasts: u64,
    /// Windows closed (primary query).
    pub windows_closed: u64,
    /// Engine counters summed over every shard engine.
    pub edges: u64,
    /// Vertices inserted, summed.
    pub vertices: u64,
    /// Sum of the shard engines' peak state bytes.
    pub peak_state_bytes: u64,
    /// Engine state blob bytes per checkpoint.
    pub blob_bytes: Vec<f64>,
    /// WAL bytes appended (frame payloads).
    pub wal_bytes: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// Largest size of the durability directory after a checkpoint.
    pub dir_bytes_max: u64,
    /// Rows offered to the ordered merge.
    pub merge_rows: u64,
    /// Largest number of rows parked in the merge.
    pub merge_buffered_max: usize,
    /// Wire bytes of the encoded ingest frames.
    pub wire_bytes: u64,
    /// Replayed outputs that differ from the oracle (must be 0).
    pub mismatches: u64,
}

/// Replay every layer of `w`'s pipeline once under `tr`. `scratch` hosts
/// the WAL directory of durable workloads.
pub fn replay(
    w: &Workload,
    expected: &[Expected],
    scratch: &Path,
    inj: &Inject,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let mut r = Replay {
        events: w.arrival.len() as u64,
        ..Replay::default()
    };
    let released = replay_reorder(w, tr, &mut r);
    let dests = replay_grouping(w, &released, tr, &mut r);
    replay_engines(w, &released, &dests, expected, scratch, inj, tr, &mut r)?;
    if w.spec.driver == Driver::Server {
        replay_protocol(w, tr, &mut r);
    }
    Ok(r)
}

fn replay_reorder(w: &Workload, tr: &mut Tracer, r: &mut Replay) -> Vec<EventRef> {
    tr.enter("bench.replay_reorder");
    let mut rb = ReorderBuffer::new(w.spec.slack);
    let mut released = Vec::with_capacity(w.arrival.len());
    for chunk in w.arrival.chunks(CHUNK) {
        tr.enter("reorder.push_into");
        for e in chunk {
            let _ = rb.push_into(e.clone(), &mut released);
        }
        tr.exit();
        // Off the clock: the buffer's depth after this chunk.
        r.reorder_buffered_max = r.reorder_buffered_max.max(rb.buffered());
    }
    tr.span("reorder.flush", || released.extend(rb.flush()));
    r.reorder_late = rb.late_events();
    tr.exit();
    released
}

/// Per hosted query, per released event: the destination shard (`None`
/// = every shard), as the executor's router decides it.
fn replay_grouping(
    w: &Workload,
    released: &[EventRef],
    tr: &mut Tracer,
    r: &mut Replay,
) -> Vec<Vec<Option<u8>>> {
    tr.enter("bench.replay_grouping");
    let routings: Vec<StreamRouting> = w
        .compiled
        .iter()
        .map(|q| StreamRouting::new(q, &w.registry))
        .collect();
    // Queries whose routing agrees share one plane (one hash per event).
    let plane_of: Vec<usize> = (0..routings.len())
        .map(|q| {
            (0..q)
                .find(|&p| routings[p].routes_like(&routings[q]))
                .unwrap_or(q)
        })
        .collect();
    let mut dests: Vec<Vec<Option<u8>>> = vec![Vec::with_capacity(released.len()); routings.len()];
    for chunk in released.chunks(CHUNK) {
        tr.enter("grouping.shard_of");
        for e in chunk {
            for (q, routing) in routings.iter().enumerate() {
                if plane_of[q] == q {
                    let d = routing.shard_of(e, SHARDS).map(|s| s as u8);
                    dests[q].push(d);
                }
            }
        }
        tr.exit();
    }
    for q in 0..routings.len() {
        if plane_of[q] != q {
            dests[q] = dests[plane_of[q]].clone();
        }
    }
    r.broadcasts = dests[0].iter().filter(|d| d.is_none()).count() as u64;
    tr.exit();
    dests
}

/// The durability replay state of a durable workload.
struct Durable<'a> {
    dir: &'a Path,
    wal: Wal,
    snapshots: SnapshotStore,
    epoch: u64,
    record: Vec<u8>,
}

#[allow(clippy::too_many_arguments)]
fn replay_engines(
    w: &Workload,
    released: &[EventRef],
    dests: &[Vec<Option<u8>>],
    expected: &[Expected],
    scratch: &Path,
    inj: &Inject,
    tr: &mut Tracer,
    r: &mut Replay,
) -> Result<(), String> {
    tr.enter("bench.replay_engines");
    let mut engines: Vec<Vec<GretaEngine<f64>>> = w
        .compiled
        .iter()
        .map(|q| {
            (0..SHARDS)
                .map(|_| GretaEngine::new(q.clone(), w.registry.clone()))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("replay engine: {e}"))?;
    let ordered = w.spec.emission == EmissionMode::WindowOrdered;
    let mut merges: Vec<ResultMerge<f64>> = (0..engines.len())
        .map(|_| ResultMerge::new(SHARDS))
        .collect();
    let mut seqs = vec![vec![0u64; SHARDS]; engines.len()];
    let mut rows: Vec<Vec<WindowResult<f64>>> = vec![Vec::new(); engines.len()];

    let dur_dir = scratch.join(format!("replay-wal-{}", std::process::id()));
    // The durability layers are replayed on the closed-loop workloads at
    // the default checkpoint cadence, also where the pass itself runs
    // without durability.
    let mut durable = if w.spec.driver != Driver::Server {
        let _ = std::fs::remove_dir_all(&dur_dir);
        let cfg = DurabilityConfig::new(&dur_dir);
        Some(Durable {
            dir: &dur_dir,
            wal: Wal::open(&dur_dir, cfg.segment_bytes, cfg.fsync).map_err(|e| e.to_string())?,
            snapshots: SnapshotStore::open(&dur_dir).map_err(|e| e.to_string())?,
            epoch: 0,
            record: Vec::new(),
        })
    } else {
        None
    };
    let every = if durable.is_some() {
        workload::snapshot_every_windows()
    } else {
        0
    };
    let mut cadence = Cadence::new(w.compiled[0].window, every);
    let mut seg_start = 0usize;

    for i in 0..=released.len() {
        let t = released.get(i).map(|e| e.time.ticks());
        let step = t.and_then(|t| cadence.step(t));
        if t.is_some() && step.is_none() {
            continue;
        }
        // The segment [seg_start, i) holds no window boundary.
        let seg = &released[seg_start..i];
        if let Some(d) = &mut durable {
            tr.enter("wal.append");
            for e in seg {
                d.record.clear();
                d.record.push(WAL_EVENT_TAG);
                e.encode(&mut d.record);
                d.wal.append(&d.record).map_err(|e| e.to_string())?;
                inj.hit("wal.append");
                r.wal_bytes += d.record.len() as u64;
            }
            tr.exit();
            r.wal_records += seg.len() as u64;
        }
        tr.enter("engine.process_ref");
        for (k, e) in seg.iter().enumerate() {
            for (q, shards) in engines.iter_mut().enumerate() {
                match dests[q][seg_start + k] {
                    Some(s) => shards[s as usize].process_ref(e),
                    None => shards.iter_mut().try_for_each(|g| g.process_ref(e)),
                }
                .map_err(|e| format!("replay engine: {e}"))?;
            }
        }
        tr.exit();
        let (Some(t), Some(step)) = (t, step) else {
            break;
        };
        seg_start = i;
        r.windows_closed += step.closed;

        tr.enter("engine.advance_watermark");
        for shards in &mut engines {
            for g in shards.iter_mut() {
                g.advance_watermark(greta_types::Time(t));
            }
        }
        tr.exit();
        collect_rows(
            &mut engines,
            ordered,
            &mut merges,
            &mut seqs,
            &mut rows,
            tr,
            r,
        );
        if let (Some(d), true) = (&mut durable, step.checkpoint) {
            checkpoint(d, &engines, tr, r)?;
        }
    }
    tr.enter("engine.finish");
    let mut finals: Vec<Vec<Vec<WindowResult<f64>>>> = Vec::new();
    for shards in &mut engines {
        finals.push(shards.iter_mut().map(|g| g.finish()).collect());
    }
    tr.exit();
    for (q, per_shard) in finals.into_iter().enumerate() {
        for (s, out) in per_shard.into_iter().enumerate() {
            if ordered {
                offer(&mut merges[q], &mut seqs[q], s, out, tr, r);
            } else {
                rows[q].extend(out);
            }
        }
        if ordered {
            tr.span("merge.close", || merges[q].close(&mut rows[q]));
        }
    }
    for shards in &engines {
        for g in shards {
            let s = g.stats();
            r.edges += s.edges;
            r.vertices += s.vertices;
            r.peak_state_bytes += g.peak_memory_bytes() as u64;
        }
    }
    for (q, got) in rows.iter_mut().enumerate() {
        r.mismatches += oracle::mismatches(&expected[q], got, !ordered);
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dur_dir);
    tr.exit();
    Ok(())
}

/// Drain every engine's closed rows: straight into the output (unordered)
/// or through the per-query ordered merge, as the executor's workers and
/// ingest side do.
fn collect_rows(
    engines: &mut [Vec<GretaEngine<f64>>],
    ordered: bool,
    merges: &mut [ResultMerge<f64>],
    seqs: &mut [Vec<u64>],
    rows: &mut [Vec<WindowResult<f64>>],
    tr: &mut Tracer,
    r: &mut Replay,
) {
    for (q, shards) in engines.iter_mut().enumerate() {
        for (s, g) in shards.iter_mut().enumerate() {
            let out = tr.span("engine.poll_results", || g.poll_results());
            if !ordered {
                rows[q].extend(out);
                continue;
            }
            let frontier = g.emission_frontier();
            offer(&mut merges[q], &mut seqs[q], s, out, tr, r);
            tr.span("merge.advance", || {
                merges[q].advance(s, frontier, &mut rows[q])
            });
            r.merge_buffered_max = r.merge_buffered_max.max(merges[q].buffered_rows());
        }
    }
}

fn offer(
    merge: &mut ResultMerge<f64>,
    seqs: &mut [u64],
    shard: usize,
    out: Vec<WindowResult<f64>>,
    tr: &mut Tracer,
    r: &mut Replay,
) {
    r.merge_rows += out.len() as u64;
    tr.span("merge.offer", || {
        for row in out {
            seqs[shard] += 1;
            merge.offer(shard, seqs[shard], row);
        }
    });
}

/// One checkpoint as the executor persists it: engine state export, WAL
/// sync, snapshot write, manifest store, then truncation of what the new
/// manifest made obsolete.
fn checkpoint(
    d: &mut Durable<'_>,
    engines: &[Vec<GretaEngine<f64>>],
    tr: &mut Tracer,
    r: &mut Replay,
) -> Result<(), String> {
    tr.enter("engine.export_state");
    let mut blob = Vec::new();
    for shards in engines {
        for g in shards {
            blob.extend(g.export_state());
        }
    }
    tr.exit();
    r.blob_bytes.push(blob.len() as f64);
    tr.span("wal.sync", || d.wal.sync())
        .map_err(|e| e.to_string())?;
    let wal_index = d.wal.next_index();
    d.epoch += 1;
    tr.span("snapshot.write", || d.snapshots.write(d.epoch, &blob))
        .map_err(|e| e.to_string())?;
    let manifest = Manifest {
        epoch: d.epoch,
        wal_index,
        shards: SHARDS as u32,
    };
    tr.span("manifest.store", || manifest.store(d.dir))
        .map_err(|e| e.to_string())?;
    tr.span("wal.truncate_segments_before", || {
        d.wal.truncate_segments_before(wal_index)
    })
    .map_err(|e| e.to_string())?;
    tr.span("snapshot.purge_before", || {
        d.snapshots.purge_before(d.epoch)
    })
    .map_err(|e| e.to_string())?;
    r.dir_bytes_max = r.dir_bytes_max.max(dir_bytes(d.dir));
    Ok(())
}

/// Encode and decode every ingest batch of the open loop as
/// `Request::Ingest` frames.
fn replay_protocol(w: &Workload, tr: &mut Tracer, r: &mut Replay) {
    tr.enter("bench.replay_protocol");
    let mut buf = Vec::new();
    for batch in w.arrival.chunks(w.spec.batch) {
        let req = Request::Ingest {
            session: 1,
            events: batch.iter().map(|e| Event::clone(e)).collect(),
        };
        buf.clear();
        tr.span("protocol.encode", || req.encode(&mut buf));
        r.wire_bytes += buf.len() as u64;
        let decoded = tr.span("protocol.decode", || Request::decode(&buf));
        if !matches!(decoded, Ok(Request::Ingest { events, .. }) if events.len() == batch.len()) {
            r.mismatches += 1;
        }
    }
    tr.exit();
}

/// Median of the durations (ms) of spans named `name`.
pub fn span_ms_p50(tr: &Tracer, name: &str) -> f64 {
    median(&mut tr.durations(name)) / 1e6
}
