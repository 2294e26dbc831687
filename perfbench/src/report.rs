//! One benchmark run: set-up, oracle, measured passes, optional traced
//! pass and layer replays, and the printed result.

use crate::layers::{self, span_ms_p50, Inject, Replay};
use crate::oracle::{self, Expected};
use crate::stats::{hwm_kib, median, quantile, reset_hwm, rss_kib, supported_percentile};
use crate::trace::Tracer;
use crate::workload::{self, Driver, Schedule, Spec, Workload};
use crate::{inproc, openloop, Args};
use greta_core::{EmissionMode, ExecutorStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// `setup_s` is the median over `SETUP_BATCHES` batches of the mean
/// set-up time of `SETUP_BATCH` consecutive set-ups. The server's set-up
/// time is bimodal (its accept loop polls every 2 ms, so a connection is
/// taken at once or up to a poll later, about half the time each); the
/// mean over a batch smooths that out, where a plain median would jump
/// between the two modes from run to run.
const SETUP_BATCHES: usize = 21;
const SETUP_BATCH: usize = 8;

/// The seed kept out of tuning, for re-checking later claims.
pub const HELD_OUT_SEED: u64 = 20_171_001;

/// Layers of the self-time table, in pipeline order.
const LAYERS: [&str; 11] = [
    "client",
    "protocol",
    "executor",
    "checkpoint",
    "reorder",
    "grouping",
    "engine",
    "merge",
    "wal",
    "snapshot",
    "manifest",
];

/// Calls attempted and failed (errors, refusals, mismatched rows).
#[derive(Debug, Default)]
pub struct Tally {
    /// Push / ingest calls plus checked rows.
    pub attempted: u64,
    /// Failed calls plus mismatched rows.
    pub failed: u64,
}

impl Tally {
    fn check(
        &mut self,
        want: &[Expected],
        got: &mut [Vec<greta_core::WindowResult<f64>>],
        sort: bool,
    ) {
        for (q, rows) in got.iter_mut().enumerate() {
            self.attempted += want[q].len() as u64;
            self.failed += oracle::mismatches(&want[q], rows, sort);
        }
    }
}

/// What every pass reports, whichever driver ran it. On the server
/// workload one pass is an unpaced pass (throughput, counters) followed by
/// a paced one (latencies, capacity check).
#[derive(Default)]
struct PassSummary {
    /// Events driven through the program.
    events: u64,
    secs: f64,
    rate: f64,
    drain_ms: f64,
    row_latency_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    busy_acks: u64,
    backlog_max: u64,
    over_capacity: bool,
    stats: Option<ExecutorStats>,
}

/// Generate the workload, then set the program up
/// `SETUP_BATCHES * SETUP_BATCH` times: compile the queries and build the
/// executor, or start the server, connect, submit and subscribe. Only the
/// set-up is timed, not the generation or the tear-down. Returns the
/// workload with the set-up time in seconds (see [`SETUP_BATCHES`]).
fn setup(spec: Spec, seed: u64, dir: &Path) -> Result<(Workload, f64), String> {
    let mut w = workload::generate(spec, seed)?;
    let mut batches = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let mut total = 0.0;
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            if spec.driver == Driver::Server {
                // The server compiles the query text itself.
                let rig = openloop::build(&w)?;
                total += t0.elapsed().as_secs_f64();
                rig.abort();
            } else {
                w.compiled = workload::compile(spec, &w.registry)?;
                let rig = inproc::build(&w, dir)?;
                total += t0.elapsed().as_secs_f64();
                drop(rig);
            }
        }
        batches.push(total / SETUP_BATCH as f64);
    }
    Ok((w, median(&mut batches)))
}

#[allow(clippy::too_many_arguments)]
fn one_pass(
    w: &Workload,
    sched: &Schedule,
    expected: &[Expected],
    dir: &Path,
    inj: &Inject,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<PassSummary, String> {
    let sort = w.spec.emission == EmissionMode::Unordered;
    if w.spec.driver == Driver::Server {
        let mut c = openloop::run_pass(w, sched, openloop::build(w)?, false, inj, tr)?;
        let mut p = openloop::run_pass(w, sched, openloop::build(w)?, true, inj, tr)?;
        for pass in [&mut c, &mut p] {
            tally.attempted += pass.ack_ms.len() as u64;
            tally.failed += pass.errors;
            tally.check(expected, std::slice::from_mut(&mut pass.rows), false);
        }
        return Ok(PassSummary {
            events: 2 * w.arrival.len() as u64,
            secs: c.secs,
            rate: c.rate,
            drain_ms: p.drain_ms,
            row_latency_ms: p.row_latency_ms,
            ack_ms: p.ack_ms,
            lag_ms: p.lag_ms,
            rtt_us: p.rtt_us,
            busy_acks: p.busy_acks,
            backlog_max: p.backlog_max,
            over_capacity: p.over_capacity,
            stats: Some(c.stats),
        });
    }
    let mut p = inproc::run_pass(w, sched, inproc::build(w, dir)?, tr);
    tally.attempted += w.arrival.len() as u64;
    tally.failed += p.push_errors;
    tally.check(expected, &mut p.rows, sort);
    Ok(PassSummary {
        events: w.arrival.len() as u64,
        secs: p.secs,
        rate: w.arrival.len() as f64 / p.secs,
        drain_ms: p.drain_ms,
        row_latency_ms: p.row_latency_ms,
        stats: Some(p.stats),
        ..PassSummary::default()
    })
}

/// Ordered metric list with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }
}

fn pooled<'a>(passes: &'a [PassSummary], f: impl Fn(&'a PassSummary) -> &'a Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| f(p).iter().copied()).collect()
}

/// Run one workload as `args` says; returns the exit code.
pub fn run(args: &Args, dir: &Path) -> Result<u8, String> {
    let spec = workload::spec(&args.workload).ok_or("unknown workload")?;
    let (w, setup_s) = setup(spec, args.seed, dir)?;
    let expected = oracle::expected(&w)?;
    let every = match spec.driver {
        Driver::Durable => workload::snapshot_every_windows(),
        _ => 0,
    };
    let sched = workload::schedule(&w.arrival, spec.slack, w.compiled[0].window, every);
    if sched.late > 0 {
        return Err(format!("{} arrivals beyond the reorder slack", sched.late));
    }
    let mut tally = Tally::default();

    // The subscription's rows must also equal those of an in-process
    // executor with the session's configuration (window-ordered).
    if spec.driver == Driver::Server {
        let mut p = inproc::run_pass(&w, &sched, inproc::build(&w, dir)?, &mut Tracer::new(false));
        tally.attempted += w.arrival.len() as u64;
        tally.failed += p.push_errors;
        tally.check(&expected, &mut p.rows, false);
    }

    let peak_reset = reset_hwm();
    let rss0 = rss_kib();
    let started = Instant::now();
    let mut live = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut plain, mut traced): (Vec<PassSummary>, Vec<PassSummary>) = (Vec::new(), Vec::new());
    for k in 0.. {
        let is_traced = args.trace && k % 2 == 1;
        let tr = if is_traced { &mut live } else { &mut off };
        let p = one_pass(
            &w,
            &sched,
            &expected,
            dir,
            &Inject::default(),
            tr,
            &mut tally,
        )?;
        if is_traced {
            traced.push(p);
        } else {
            plain.push(p);
        }
        if started.elapsed().as_secs_f64() >= args.seconds && (!args.trace || !traced.is_empty()) {
            break;
        }
    }
    let peak_rss_mib = hwm_kib().saturating_sub(rss0) as f64 / 1024.0;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} (held-out seed {HELD_OUT_SEED}) events/pass {} rows/pass {} passes {}{}",
        spec.name,
        args.seed,
        w.arrival.len(),
        expected.iter().map(Vec::len).sum::<usize>(),
        plain.len(),
        if args.trace {
            format!(" + {} traced", traced.len())
        } else {
            String::new()
        }
    );
    let over = plain
        .iter()
        .chain(&traced)
        .filter(|p| p.over_capacity)
        .count();
    let mut lat = pooled(&plain, |p| &p.row_latency_ms);
    let _ = writeln!(
        out,
        "row latency samples {} (highest supported percentile {}); peak reset {}",
        lat.len(),
        supported_percentile(lat.len()),
        if peak_reset {
            "ok"
        } else {
            "unavailable: peak includes set-up"
        }
    );
    let spread = |f: fn(&PassSummary) -> f64| {
        let mut v: Vec<f64> = plain.iter().map(f).collect();
        let (lo, mid, hi) = (quantile(&mut v, 0.0), median(&mut v), quantile(&mut v, 1.0));
        format!("{lo:.4} / {mid:.4} / {hi:.4}")
    };
    let _ = writeln!(
        out,
        "per pass min / median / max: events/s {}; drain ms {}",
        spread(|p| p.rate),
        spread(|p| p.drain_ms)
    );
    let mut m = Metrics::default();
    if spec.driver == Driver::Server {
        let _ = writeln!(
            out,
            "paced at {} events/s in batches of {}: ack p50 {:.3} ms p99 {:.3} ms, \
             generator lag p99 {:.3} ms, backlog max {} events",
            spec.rate,
            spec.batch,
            quantile(&mut pooled(&plain, |p| &p.ack_ms), 0.5),
            quantile(&mut pooled(&plain, |p| &p.ack_ms), 0.99),
            quantile(&mut pooled(&plain, |p| &p.lag_ms), 0.99),
            plain.iter().map(|p| p.backlog_max).max().unwrap_or(0),
        );
    }
    if !args.trace {
        m.put(
            "events_per_s",
            median(&mut plain.iter().map(|p| p.rate).collect::<Vec<_>>()),
            "1/s",
        );
        // The executor's own state accounting (the paper's memory metric),
        // read off the server's metrics page for the server's session.
        let mut state: Vec<f64> = plain
            .iter()
            .filter_map(|p| p.stats.as_ref())
            .map(|s| s.peak_memory_bytes as f64 / (1 << 20) as f64)
            .collect();
        m.put("peak_state_mib", median(&mut state), "MiB");
        m.put("setup_s", setup_s, "s");
    } else {
        let mut rt = Tracer::new(true);
        let replay = layers::replay(&w, &expected, dir, &Inject::default(), &mut rt)?;
        tally.failed += replay.mismatches;
        // End-to-end figures that repeat too loosely across runs on a
        // shared machine to gate on (README.md), from the untraced passes.
        m.put("row_latency_p50_ms", quantile(&mut lat, 0.5), "ms");
        m.put("row_latency_p99_ms", quantile(&mut lat, 0.99), "ms");
        m.put(
            "drain_ms",
            median(&mut plain.iter().map(|p| p.drain_ms).collect::<Vec<_>>()),
            "ms",
        );
        m.put("peak_rss_mib", peak_rss_mib, "MiB");
        let stats = traced.last().and_then(|p| p.stats.clone());
        layer_metrics(
            &mut m, &mut out, &w, &plain, &traced, &live, &rt, &replay, stats, &tally,
        );
        cadence_check(&mut m, &mut out, spec, &sched, &traced);
        let stem = format!("trace-{}-{}", spec.name, args.seed);
        for (tr, part) in [(&live, "live"), (&rt, "replay")] {
            let path = dir.join(format!("{stem}-{part}.csv"));
            tr.write_csv(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let _ = writeln!(
            out,
            "spans written to {}/{stem}-{{live,replay}}.csv",
            dir.display()
        );
    }

    for (name, value, unit) in &m.0 {
        let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
    }
    let correct = tally.failed == 0;
    if !correct {
        let _ = writeln!(
            out,
            "ORACLE MISMATCH: {} of {} failed",
            tally.failed, tally.attempted
        );
    }
    print!("{out}");
    if over > 0 {
        eprintln!(
            "error: open loop over capacity in {over} pass(es): the backlog grew, \
             latencies are not valid at {} events/s",
            spec.rate
        );
        return Ok(3);
    }
    println!("{}", result_json(correct, &tally, &m));
    Ok(if correct { 0 } else { 1 })
}

fn result_json(correct: bool, tally: &Tally, m: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Sum of the durations (ns) of spans named `name`.
fn sum_ns(tr: &Tracer, name: &str) -> f64 {
    tr.durations(name).iter().sum()
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    out: &mut String,
    w: &Workload,
    plain: &[PassSummary],
    traced: &[PassSummary],
    live: &Tracer,
    rt: &Tracer,
    r: &Replay,
    stats: Option<ExecutorStats>,
    tally: &Tally,
) {
    let n = r.events.max(1) as f64;
    let driver = w.spec.driver;
    let all: Vec<&PassSummary> = plain.iter().chain(traced).collect();

    // Executor: spans around push on the traced passes, counters after finish.
    let mut pushes = live.durations("executor.push");
    let mut ckpts = live.durations("checkpoint.push");
    let ckpt_ns: f64 = ckpts.iter().sum();
    let push_ns: f64 = pushes.iter().sum::<f64>() + ckpt_ns;
    pushes.extend(ckpts.iter().copied());
    m.put(
        "executor.push_us_p50",
        quantile(&mut pushes, 0.5) / 1e3,
        "us",
    );
    m.put(
        "executor.push_us_p99",
        quantile(&mut pushes, 0.99) / 1e3,
        "us",
    );
    m.put(
        "executor.checkpoint_share",
        if push_ns > 0.0 {
            ckpt_ns / push_ns
        } else {
            0.0
        },
        "share",
    );
    m.put(
        "executor.checkpoint_push_ms_p50",
        median(&mut ckpts) / 1e6,
        "ms",
    );
    let s = stats.unwrap_or_default();
    let shard_total: u64 = s.events_per_shard.iter().sum();
    m.put(
        "executor.frames_per_kevent",
        s.frames as f64 / n * 1e3,
        "count/kevent",
    );
    m.put(
        "executor.watermarks_per_kevent",
        s.watermarks as f64 / n * 1e3,
        "count/kevent",
    );
    m.put(
        "executor.channel_occupancy_max",
        s.max_channel_occupancy as f64,
        "frames",
    );
    m.put(
        "executor.shard_load_max_share",
        s.events_per_shard.iter().copied().max().unwrap_or(0) as f64 / shard_total.max(1) as f64,
        "share",
    );
    m.put("executor.checkpoints", s.checkpoints as f64, "count");
    m.put(
        "executor.barrier_snapshots",
        s.barrier_snapshots as f64,
        "count",
    );

    m.put(
        "reorder.push_ns_per_event",
        sum_ns(rt, "reorder.push_into") / n,
        "ns",
    );
    m.put(
        "reorder.buffered_max",
        r.reorder_buffered_max as f64,
        "events",
    );
    m.put("reorder.late_events", r.reorder_late as f64, "count");
    m.put(
        "grouping.route_ns_per_event",
        sum_ns(rt, "grouping.shard_of") / n,
        "ns",
    );
    m.put("grouping.broadcast_share", r.broadcasts as f64 / n, "share");

    let close_ns = sum_ns(rt, "engine.advance_watermark") + sum_ns(rt, "engine.poll_results");
    m.put(
        "engine.process_ns_per_event",
        sum_ns(rt, "engine.process_ref") / n,
        "ns",
    );
    m.put(
        "engine.close_us_per_window",
        close_ns / r.windows_closed.max(1) as f64 / 1e3,
        "us",
    );
    m.put("engine.edges_per_event", r.edges as f64 / n, "count");
    m.put("engine.vertices_per_event", r.vertices as f64 / n, "count");
    m.put(
        "engine.peak_state_bytes",
        r.peak_state_bytes as f64,
        "bytes",
    );
    m.put(
        "engine.export_state_ms_p50",
        span_ms_p50(rt, "engine.export_state"),
        "ms",
    );
    m.put(
        "engine.state_blob_bytes",
        median(&mut r.blob_bytes.clone()),
        "bytes",
    );

    // Frame header of a WAL record: u32 length + u32 CRC.
    let wal_frame = 8.0;
    m.put(
        "wal.append_ns_per_record",
        sum_ns(rt, "wal.append") / r.wal_records.max(1) as f64,
        "ns",
    );
    m.put(
        "wal.bytes_per_event",
        (r.wal_bytes as f64 + wal_frame * r.wal_records as f64) / n,
        "bytes",
    );
    m.put("wal.sync_ms_p50", span_ms_p50(rt, "wal.sync"), "ms");
    m.put(
        "snapshot.write_ms_p50",
        span_ms_p50(rt, "snapshot.write"),
        "ms",
    );
    m.put(
        "manifest.store_ms_p50",
        span_ms_p50(rt, "manifest.store"),
        "ms",
    );
    m.put("durability.dir_bytes_max", r.dir_bytes_max as f64, "bytes");

    let merge_ns =
        sum_ns(rt, "merge.offer") + sum_ns(rt, "merge.advance") + sum_ns(rt, "merge.close");
    m.put(
        "merge.ns_per_row",
        merge_ns / r.merge_rows.max(1) as f64,
        "ns",
    );
    m.put(
        "merge.buffered_rows_max",
        r.merge_buffered_max as f64,
        "rows",
    );

    m.put(
        "protocol.encode_ns_per_event",
        sum_ns(rt, "protocol.encode") / n,
        "ns",
    );
    m.put(
        "protocol.decode_ns_per_event",
        sum_ns(rt, "protocol.decode") / n,
        "ns",
    );
    m.put("protocol.bytes_per_event", r.wire_bytes as f64 / n, "bytes");

    let mut rtt: Vec<f64> = all.iter().flat_map(|p| p.rtt_us.iter().copied()).collect();
    let acks = rtt.len();
    m.put("client.ingest_rtt_us_p50", quantile(&mut rtt, 0.5), "us");
    m.put("client.ingest_rtt_us_p99", quantile(&mut rtt, 0.99), "us");
    m.put(
        "client.busy_ack_ratio",
        all.iter().map(|p| p.busy_acks).sum::<u64>() as f64 / acks.max(1) as f64,
        "share",
    );
    m.put(
        "client.backlog_events_max",
        all.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
        "events",
    );
    // Ack latency: due time → ack in the open loop; push call → return
    // (the executor accepted the event) in the closed loop, where nothing
    // is scheduled and the generator cannot lag.
    let mut ack: Vec<f64> = match driver {
        Driver::Server => all.iter().flat_map(|p| p.ack_ms.iter().copied()).collect(),
        _ => pushes.iter().map(|ns| ns / 1e6).collect(),
    };
    let mut lag: Vec<f64> = all.iter().flat_map(|p| p.lag_ms.iter().copied()).collect();
    m.put("ack_latency_p50_ms", quantile(&mut ack, 0.5), "ms");
    m.put("ack_latency_p99_ms", quantile(&mut ack, 0.99), "ms");
    m.put("generator_lag_p99_ms", quantile(&mut lag, 0.99), "ms");
    m.put(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "share",
    );

    // Self time per event, per layer: live spans over the traced passes'
    // events, replay spans over one replay's events.
    let live_events = traced.iter().map(|p| p.events).sum::<u64>().max(1) as f64;
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for (layer, ns) in live.self_time_by_layer() {
        *self_ns.entry(layer).or_default() += ns as f64 / live_events;
    }
    for (layer, ns) in rt.self_time_by_layer() {
        *self_ns.entry(layer).or_default() += ns as f64 / n;
    }
    let _ = writeln!(
        out,
        "self time per event by layer (bench = driver loop overhead):"
    );
    for (layer, ns) in &self_ns {
        let _ = writeln!(out, "  {layer:<12} {ns:>12.1} ns");
    }
    for layer in LAYERS {
        let v = self_ns.get(layer).copied().unwrap_or(0.0);
        m.put(&format!("self.{layer}_ns_per_event"), v, "ns");
    }
    let top = LAYERS
        .iter()
        .copied()
        .max_by(|a, b| {
            let va = self_ns.get(a).copied().unwrap_or(0.0);
            let vb = self_ns.get(b).copied().unwrap_or(0.0);
            va.total_cmp(&vb)
        })
        .unwrap_or("none");
    let expect: &[&str] = match driver {
        Driver::InProcess => &["engine"],
        Driver::Durable => &["checkpoint", "wal", "snapshot", "manifest"],
        Driver::Server => &["protocol", "client"],
    };
    let ok = expect.contains(&top);
    let _ = writeln!(
        out,
        "largest self-time layer: {top} (expected one of {}): {}",
        expect.join("/"),
        if ok { "OK" } else { "MISMATCH" }
    );
    m.put("trace.top_layer_ok", ok as u8 as f64, "bool");

    let mut pu: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let mut pt: Vec<f64> = traced.iter().map(|p| p.secs).collect();
    let overhead = median(&mut pt) / median(&mut pu) - 1.0;
    m.put("trace.overhead_share", overhead, "share");
}

/// The `checkpoint.push` spans are labelled from the schedule's mirror of
/// the executor's checkpoint cadence. Check it against the checkpoints
/// the executor counted in every traced pass (plus the terminal one
/// `finish` takes when durability is on), so a change in the executor's
/// cadence shows instead of silently misattributing push time.
fn cadence_check(
    m: &mut Metrics,
    out: &mut String,
    spec: Spec,
    sched: &Schedule,
    traced: &[PassSummary],
) {
    let terminal = (spec.driver == Driver::Durable) as u64;
    let predicted = sched.checkpoint_pushes.len() as u64 + terminal;
    let counted: Vec<u64> = traced
        .iter()
        .filter_map(|p| p.stats.as_ref())
        .map(|s| s.checkpoints)
        .collect();
    let ok = counted.iter().all(|&c| c == predicted);
    let _ = writeln!(
        out,
        "checkpoint cadence: schedule predicts {predicted} per pass, executor counted {counted:?}: {}",
        if ok { "OK" } else { "MISMATCH" }
    );
    m.put("trace.checkpoint_cadence_ok", ok as u8 as f64, "bool");
}
