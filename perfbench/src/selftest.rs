//! Red-path self-test of the attribution, on the benchmark's own code:
//!
//! 1. A fixed busy-wait injected into the `Wal::append` wrapper of the
//!    layer replay must move the self time of its spans (`wal.append`) by
//!    about the injected amount per record, and no other span's (the
//!    other `wal` calls included) by more than a fraction of it.
//! 2. A delay injected into the open-loop sender must show in the ack
//!    latency p99 and the generator lag p99.
//! 3. The same delay, unpaced, must lower the server throughput
//!    (`events_per_s` of `q3_lr_server`) by about the injected time.

use crate::layers::{self, Inject};
use crate::openloop;
use crate::oracle;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{self, Spec};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

const SEED: u64 = 1;
const REPS: usize = 7;
/// Injected per `Wal::append` call: large against the fsync noise of the
/// other durability spans, which share the disk with other tenants.
const WAL_DELAY: Duration = Duration::from_micros(10);
/// Injected before every 50th open-loop batch: above the ≈20 ms stalls a
/// shared 2-vCPU machine puts into an uninjected run's p99 now and then.
const SENDER_DELAY: Duration = Duration::from_millis(50);

/// Per span name: median and range (max − min) of a self time per event.
type SpanNs = BTreeMap<String, (f64, f64)>;

/// Self time per event (ns) of every span name over `REPS` replays
/// without and `REPS` with the injection, interleaved so that a drift of
/// the shared machine or disk during the test hits both sides alike:
/// the median and the range (max − min, the span's own run-to-run noise).
fn span_self_ns(
    w: &workload::Workload,
    expected: &[oracle::Expected],
    dir: &Path,
    inj: &Inject,
) -> Result<(SpanNs, SpanNs), String> {
    let mut samples: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
    for _ in 0..REPS {
        for (side, inj) in [Inject::default(), inj.clone()].iter().enumerate() {
            let mut tr = Tracer::new(true);
            let r = layers::replay(w, expected, dir, inj, &mut tr)?;
            if r.mismatches > 0 {
                return Err("replay output differs from the oracle".into());
            }
            for (name, ns) in tr.self_time_by_name() {
                samples[side]
                    .entry(name.to_string())
                    .or_default()
                    .push(ns as f64 / r.events as f64);
            }
        }
    }
    let summarise = |m: BTreeMap<String, Vec<f64>>| -> SpanNs {
        m.into_iter()
            .map(|(k, mut v)| {
                let mid = median(&mut v);
                (k, (mid, v[v.len() - 1] - v[0]))
            })
            .collect()
    };
    let [base, hit] = samples;
    Ok((summarise(base), summarise(hit)))
}

fn check(ok: &mut bool, cond: bool, what: String) {
    println!("  [{}] {what}", if cond { "PASS" } else { "FAIL" });
    *ok &= cond;
}

/// Run both checks; returns whether all passed.
pub fn run(dir: &Path) -> Result<bool, String> {
    let mut ok = true;

    println!("attribution: {WAL_DELAY:?} injected into each Wal::append (q1_stock_durable replay)");
    let spec = workload::spec("q1_stock_durable").expect("known workload");
    let w = workload::generate(
        Spec {
            events: 6_000,
            ..spec
        },
        SEED,
    )?;
    let expected = oracle::expected(&w)?;
    let inj = Inject {
        target: "wal.append".into(),
        delay: WAL_DELAY,
    };
    let (base, hit) = span_self_ns(&w, &expected, dir, &inj)?;
    // One WAL record per event, so the wal layer gains the delay per event.
    let injected = WAL_DELAY.as_nanos() as f64;
    for (name, &(after, hit_noise)) in &hit {
        let (before, base_noise) = base.get(name).copied().unwrap_or_default();
        let noise = base_noise.max(hit_noise);
        let delta = after - before;
        if name == "wal.append" {
            check(
                &mut ok,
                (0.8 * injected..1.3 * injected).contains(&delta),
                format!("{name} self time moved {delta:.0} ns/event for {injected:.0} injected"),
            );
        } else {
            // A span may not move by more than a fraction of the injected
            // delay, or by more than its own noise across the replays of
            // either side (fsync-bound spans swing with the shared disk).
            let limit = (0.15 * injected).max(0.25 * before).max(noise);
            check(
                &mut ok,
                delta.abs() <= limit,
                format!("{name} self time moved {delta:.0} ns/event (limit ±{limit:.0})"),
            );
        }
    }

    println!("open loop: {SENDER_DELAY:?} injected before every 50th batch (q3_lr_server)");
    let spec = workload::spec("q3_lr_server").expect("known workload");
    let w = workload::generate(
        Spec {
            events: 60_000,
            ..spec
        },
        SEED,
    )?;
    let sched = workload::schedule(&w.arrival, spec.slack, w.compiled[0].window, 0);
    // Median over `REPS` passes of each pass's ack and lag p99.
    let run = |inj: &Inject| -> Result<(f64, f64), String> {
        let (mut ack, mut lag) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let mut p = openloop::run_pass(
                &w,
                &sched,
                openloop::build(&w)?,
                true,
                inj,
                &mut Tracer::new(false),
            )?;
            ack.push(quantile(&mut p.ack_ms, 0.99));
            lag.push(quantile(&mut p.lag_ms, 0.99));
        }
        Ok((median(&mut ack), median(&mut lag)))
    };
    let (ack0, lag0) = run(&Inject::default())?;
    let (ack1, lag1) = run(&Inject {
        target: "sender".into(),
        delay: SENDER_DELAY,
    })?;
    let half = SENDER_DELAY.as_secs_f64() * 1e3 / 2.0;
    check(
        &mut ok,
        ack1 - ack0 >= half,
        format!("ack_latency_p99_ms {ack0:.3} -> {ack1:.3}"),
    );
    check(
        &mut ok,
        lag1 - lag0 >= half,
        format!("generator_lag_p99_ms {lag0:.3} -> {lag1:.3}"),
    );

    // Unpaced, the same injection must show in the server throughput
    // (`events_per_s` of the workload): the pass takes longer by about
    // the total injected delay.
    let injected_s =
        (w.arrival.len() / spec.batch / openloop::INJECT_EVERY) as f64 * SENDER_DELAY.as_secs_f64();
    println!(
        "closed loop: the same injection, unpaced ({:.0} ms per pass)",
        injected_s * 1e3
    );
    let unpaced = |inj: &Inject| -> Result<f64, String> {
        let mut secs = Vec::new();
        for _ in 0..REPS {
            let p = openloop::run_pass(
                &w,
                &sched,
                openloop::build(&w)?,
                false,
                inj,
                &mut Tracer::new(false),
            )?;
            secs.push(w.arrival.len() as f64 / p.rate);
        }
        Ok(median(&mut secs))
    };
    let secs0 = unpaced(&Inject::default())?;
    let secs1 = unpaced(&Inject {
        target: "sender".into(),
        delay: SENDER_DELAY,
    })?;
    let n = w.arrival.len() as f64;
    check(
        &mut ok,
        secs1 - secs0 >= injected_s / 2.0,
        format!(
            "events_per_s {:.0} -> {:.0} (pass {:.0} -> {:.0} ms)",
            n / secs0,
            n / secs1,
            secs0 * 1e3,
            secs1 * 1e3
        ),
    );
    println!("self-test {}", if ok { "PASSED" } else { "FAILED" });
    Ok(ok)
}
