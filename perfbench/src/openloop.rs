//! Driver of an in-process `GretaServer` on loopback: one connection sends
//! the arrival-order stream in `Client::ingest` batches, one
//! `Subscription` receives the rows. Paced (open loop), every batch is
//! sent on a fixed schedule and timed from when it was due, so a stall
//! also delays the batches queued behind it. Unpaced (closed loop), each
//! batch is sent as soon as the previous one is acknowledged, which
//! measures the server's throughput.

use crate::layers::Inject;
use crate::trace::Tracer;
use crate::workload::{Schedule, Workload, SHARDS};
use greta_core::{ExecutorStats, WindowResult};
use greta_server::{Client, GretaServer, SessionOptions};
use greta_types::Event;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows received on the subscription, each with its arrival time.
type Received = Vec<(WindowResult<f64>, Instant)>;

/// A server plus the two connections of one session.
pub struct Rig {
    server: GretaServer,
    client: Client,
    session: u64,
    /// What the subscriber thread received, sent once its stream ends.
    subscriber: Receiver<Result<Received, String>>,
    /// Set once the subscription delivered its first rows.
    subscribed: Arc<AtomicBool>,
}

/// Start a server, submit the workload's query and subscribe to it (the
/// program's set-up for one pass).
pub fn build(w: &Workload) -> Result<Rig, String> {
    let server = GretaServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let options = SessionOptions {
        shards: SHARDS as u32,
        slack: w.spec.slack,
        emission: w.spec.emission,
        ..SessionOptions::default()
    };
    let session = client
        .submit(w.spec.queries[0], &w.registry, options)
        .map_err(|e| format!("submit: {e}"))?;
    let mut sub = Client::connect(addr)
        .and_then(|c| c.subscribe(session))
        .map_err(|e| format!("subscribe: {e}"))?;
    let subscribed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&subscribed);
    let (tx, subscriber) = mpsc::channel();
    std::thread::spawn(move || {
        let mut rows = Vec::new();
        let received = loop {
            match sub.next_rows() {
                Ok(Some(batch)) => {
                    let now = Instant::now();
                    flag.store(true, Ordering::Release);
                    rows.extend(batch.into_iter().map(|r| (r, now)));
                }
                Ok(None) => break Ok(rows),
                Err(e) => break Err(format!("subscription: {e}")),
            }
        };
        let _ = tx.send(received);
    });
    Ok(Rig {
        server,
        client,
        session,
        subscriber,
        subscribed,
    })
}

/// How long the subscriber may take to end after the server stopped.
const SUBSCRIBER_TIMEOUT: Duration = Duration::from_secs(10);

impl Rig {
    /// Drain the session: every window closes and the subscription ends.
    ///
    /// The server registers a subscription asynchronously, and a
    /// `Subscribe` still queued when its session drains is never answered.
    /// So the drain first waits (up to a second) until rows have arrived,
    /// which proves the subscription is registered, and fails if none did.
    fn drain(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(1);
        while !self.subscribed.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                return Err("no rows on the subscription before the drain".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.client
            .drain(self.session)
            .map_err(|e| format!("drain: {e}"))
    }

    /// The session's executor counters as the server's metrics page
    /// reports them (after [`drain`](Self::drain), the final ones).
    fn stats(&mut self) -> Result<ExecutorStats, String> {
        let text = self.client.stats().map_err(|e| format!("stats: {e}"))?;
        session_stats(&text, self.session)
    }

    /// Tear down without draining (set-up timing only): the server drops
    /// its sessions, which ends the subscription.
    pub fn abort(self) {
        drop(self.client);
        self.server.abort();
        let _ = self.subscriber.recv_timeout(SUBSCRIBER_TIMEOUT);
    }

    /// Stop the server, then collect the subscription's rows. After a
    /// successful drain the server shuts down gracefully; otherwise it is
    /// aborted, which ends a subscription the drain never reached. The
    /// wait for the subscriber is bounded either way.
    fn close(self, drained: bool) -> Result<Received, String> {
        drop(self.client);
        let stopped = if drained {
            self.server.shutdown()
        } else {
            self.server.abort();
            Ok(())
        };
        let received = match self.subscriber.recv_timeout(SUBSCRIBER_TIMEOUT) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err("subscription did not end".into()),
            Err(RecvTimeoutError::Disconnected) => Err("subscriber panicked".into()),
        };
        stopped?;
        received
    }
}

/// Read a session's executor counters off a Prometheus metrics page: the
/// series of the families the server exports per session, labelled
/// `session="<id>"` (and `shard="<k>"` for the per-shard ones).
pub fn session_stats(text: &str, session: u64) -> Result<ExecutorStats, String> {
    let label = format!("session=\"{session}\"");
    let mut s = ExecutorStats::default();
    let mut seen = false;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Some((name, labels)) = series.split_once('{') else {
            continue;
        };
        if !labels.split([',', '}']).any(|l| l == label) {
            continue;
        }
        let v: f64 = value.parse().map_err(|e| format!("metrics: {line}: {e}"))?;
        let n = v as u64;
        match name {
            "greta_events_pushed_total" => {
                s.pushed = n;
                seen = true;
            }
            "greta_frames_sent_total" => s.frames = n,
            "greta_watermarks_total" => s.watermarks = n,
            "greta_checkpoints_total" => s.checkpoints = n,
            "greta_barrier_snapshots_total" => s.barrier_snapshots = n,
            "greta_max_channel_occupancy_frames" => s.max_channel_occupancy = n as usize,
            "greta_peak_memory_bytes" => s.peak_memory_bytes = n as usize,
            "greta_shard_events_total" => s.events_per_shard.push(n),
            _ => {}
        }
    }
    if !seen {
        return Err(format!("metrics page has no session {session}"));
    }
    Ok(s)
}

/// What one pass measured.
pub struct Pass {
    /// Paced: first due time to last ack. Unpaced: first send to the end
    /// of the drain. Seconds.
    pub secs: f64,
    /// Events acknowledged per second over `secs`: the achieved rate when
    /// paced, the server's completed events/s when unpaced.
    pub rate: f64,
    /// `Client::drain`, ms.
    pub drain_ms: f64,
    /// Due time of the batch holding a window's closing event → the row
    /// arriving on the subscription, ms.
    pub row_latency_ms: Vec<f64>,
    /// Due time → ack, ms, per batch.
    pub ack_ms: Vec<f64>,
    /// Due time → send, ms, per batch (how late the generator ran).
    pub lag_ms: Vec<f64>,
    /// Send → ack, µs, per batch.
    pub rtt_us: Vec<f64>,
    /// Acks with the `busy` bit set.
    pub busy_acks: u64,
    /// Largest backlog (events due but not acknowledged) seen at an ack.
    pub backlog_max: u64,
    /// Paced only: the backlog grew over the pass, so the offered rate is
    /// over capacity and the latencies are not valid.
    pub over_capacity: bool,
    /// Rows received on the subscription, in arrival order.
    pub rows: Vec<WindowResult<f64>>,
    /// Ingest calls that failed.
    pub errors: u64,
    /// The session's executor counters after the drain, from the server.
    pub stats: ExecutorStats,
}

/// The sender's fixed delay injection: busy-wait before every
/// `INJECT_EVERY`-th batch.
pub const INJECT_EVERY: usize = 50;

/// Run one pass, paced at the workload's offered rate or unpaced (each
/// batch due when the previous one is acknowledged). `Client::ingest`
/// calls are spans named `client.ingest` and the drain `client.drain`,
/// under `bench.pass`.
pub fn run_pass(
    w: &Workload,
    sched: &Schedule,
    mut rig: Rig,
    paced: bool,
    inj: &Inject,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let b = w.spec.batch;
    let batches: Vec<Vec<Event>> = w
        .arrival
        .chunks(b)
        .map(|c| c.iter().map(|e| Event::clone(e)).collect())
        .collect();
    let n = w.arrival.len() as u64;
    let per_batch = Duration::from_secs_f64(b as f64 / w.spec.rate);
    let mut due_at = Vec::with_capacity(batches.len());
    let (mut ack_ms, mut lag_ms, mut rtt_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut backlog: Vec<(f64, u64)> = Vec::with_capacity(batches.len());
    let (mut busy_acks, mut errors, mut acked) = (0u64, 0u64, 0u64);

    tr.enter("bench.pass");
    let start = Instant::now() + Duration::from_millis(if paced { 2 } else { 0 });
    let mut last_ack = start;
    for (j, batch) in batches.into_iter().enumerate() {
        let due = if paced {
            start + per_batch * j as u32
        } else {
            Instant::now()
        };
        due_at.push(due);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if j % INJECT_EVERY == INJECT_EVERY - 1 {
            inj.hit("sender");
        }
        let sent = Instant::now();
        let len = batch.len() as u64;
        tr.enter("client.ingest");
        let ack = rig.client.ingest(rig.session, batch);
        tr.exit();
        let done = Instant::now();
        match ack {
            Ok(a) => {
                busy_acks += a.busy as u64;
                acked += len;
            }
            Err(_) => errors += 1,
        }
        last_ack = done;
        lag_ms.push((sent - due).as_secs_f64() * 1e3);
        ack_ms.push((done - due).as_secs_f64() * 1e3);
        rtt_us.push((done - sent).as_secs_f64() * 1e6);
        if paced {
            let since = (done - start).as_secs_f64();
            let due_events = (((since / per_batch.as_secs_f64()) as u64 + 1) * b as u64).min(n);
            backlog.push((since, due_events.saturating_sub(acked)));
        }
    }
    let fin = Instant::now();
    tr.enter("client.drain");
    let drained = rig.drain();
    tr.exit();
    let end = Instant::now();
    tr.exit();
    let stats = match drained {
        Ok(()) => rig.stats(),
        Err(e) => Err(e),
    };
    let received = rig.close(stats.is_ok());
    let stats = stats?;
    let received = received?;

    let mut row_latency_ms = Vec::with_capacity(received.len());
    for (r, at) in &received {
        let Some(k) = sched.closed_by(r.window) else {
            continue;
        };
        let due = due_at[sched.closing_pushes[k] as usize / b];
        row_latency_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
    let secs = if paced { last_ack - start } else { end - start }.as_secs_f64();
    Ok(Pass {
        secs,
        rate: acked as f64 / secs,
        drain_ms: (end - fin).as_secs_f64() * 1e3,
        row_latency_ms,
        ack_ms,
        lag_ms,
        rtt_us,
        busy_acks,
        backlog_max: backlog.iter().map(|&(_, q)| q).max().unwrap_or(0),
        over_capacity: backlog_grew(&backlog, w.spec.rate),
        rows: received.into_iter().map(|(r, _)| r).collect(),
        errors,
        stats,
    })
}

/// Over capacity: the mean backlog of the last quarter of the pass exceeds
/// that of the first quarter by more than a tenth of a second of offered
/// load. A transient stall drains again and does not trip it.
fn backlog_grew(samples: &[(f64, u64)], rate: f64) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[(f64, u64)]| s.iter().map(|&(_, b)| b as f64).sum::<f64>() / s.len() as f64;
    mean(&samples[samples.len() - q..]) - mean(&samples[..q]) > rate * 0.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growing_backlog_is_over_capacity() {
        let steady: Vec<(f64, u64)> = (0..100).map(|i| (i as f64, 250 + (i % 3))).collect();
        assert!(!backlog_grew(&steady, 100_000.0));
        let growing: Vec<(f64, u64)> = (0..100).map(|i| (i as f64, i * 1_000)).collect();
        assert!(backlog_grew(&growing, 100_000.0));
    }

    #[test]
    fn session_stats_reads_only_its_session() {
        let text = "# TYPE greta_frames_sent_total counter\n\
            greta_events_pushed_total{session=\"1\"} 9\n\
            greta_events_pushed_total{session=\"12\"} 5\n\
            greta_frames_sent_total{session=\"12\"} 7\n\
            greta_peak_memory_bytes{session=\"12\"} 4096\n\
            greta_shard_events_total{session=\"12\",shard=\"0\"} 3\n\
            greta_shard_events_total{session=\"12\",shard=\"1\"} 2\n";
        let s = session_stats(text, 12).unwrap();
        assert_eq!((s.pushed, s.frames, s.peak_memory_bytes), (5, 7, 4096));
        assert_eq!(s.events_per_shard, vec![3, 2]);
        assert!(session_stats(text, 2).is_err());
    }
}
