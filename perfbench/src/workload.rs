//! The three workloads, generated from the seed given on the command line.
//!
//! Every workload is a fixed stream replayed once per pass: its events in
//! time order (what the oracle consumes), the same events in arrival order
//! (displaced within the reorder slack, never beyond it), and the queries
//! the program hosts over them.

use greta_core::EmissionMode;
use greta_core::ReorderBuffer;
use greta_durability::DurabilityConfig;
use greta_query::{CompiledQuery, WindowSpec};
use greta_types::{Event, EventRef, SchemaRegistry};
use greta_workloads::{LinearRoadConfig, LinearRoadGen, StockConfig, StockGen};

/// Shards of every executor and server session.
pub const SHARDS: usize = 2;

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// In-process `StreamExecutor`, closed loop, no durability.
    InProcess,
    /// In-process `StreamExecutor`, closed loop, WAL and checkpoints at the
    /// `DurabilityConfig` defaults.
    Durable,
    /// In-process `GretaServer` on loopback, open loop at a fixed rate.
    Server,
}

/// A workload's static shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// How it is driven.
    pub driver: Driver,
    /// Events per pass.
    pub events: usize,
    /// Primary query, then queries added with `register_query`.
    pub queries: &'static [&'static str],
    /// Reorder slack in ticks (arrival displacement is within it).
    pub slack: u64,
    /// Emission mode of every hosted query.
    pub emission: EmissionMode,
    /// Per-shard input queue capacity (frames) of an in-process executor;
    /// `None` keeps the executor's default.
    pub channel_capacity: Option<usize>,
    /// Offered rate of the open loop, events/s (0 = closed loop).
    pub rate: f64,
    /// Events per `Client::ingest` batch (open loop only).
    pub batch: usize,
}

const Q1_DENSE: &str = "RETURN sector, COUNT(*) PATTERN Stock S+ \
    WHERE [company, sector] AND S.price > NEXT(S).price \
    GROUP-BY sector WITHIN 2000 SLIDE 500";
const Q1_SHORT: &str = "RETURN sector, COUNT(*) PATTERN Stock S+ \
    WHERE [company, sector] AND S.price > NEXT(S).price \
    GROUP-BY sector WITHIN 200 SLIDE 50";
const Q1_RISE_BY_COMPANY: &str = "RETURN company, COUNT(*), MAX(S.price) PATTERN Stock S+ \
    WHERE [company] AND S.price < NEXT(S).price \
    GROUP-BY company WITHIN 200 SLIDE 50";
const Q3_LR: &str = "RETURN segment, COUNT(*), AVG(P.speed) \
    PATTERN SEQ(NOT Accident A, Position P+) \
    WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
    GROUP-BY segment WITHIN 1000 SLIDE 250";

/// Every workload, in documentation order.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "q1_stock_dense",
        driver: Driver::InProcess,
        events: 100_000,
        queries: &[Q1_DENSE],
        slack: 0,
        emission: EmissionMode::Unordered,
        // Bounded so the closed loop runs at steady state. With the
        // default 4096 frames a whole pass fits in the queues: the push
        // loop ends after an eighth of the work and most rows only come
        // back from `finish`.
        channel_capacity: Some(64),
        rate: 0.0,
        batch: 0,
    },
    Spec {
        name: "q1_stock_durable",
        driver: Driver::Durable,
        events: 25_000,
        queries: &[Q1_SHORT, Q1_RISE_BY_COMPANY],
        slack: 32,
        emission: EmissionMode::Unordered,
        channel_capacity: None,
        rate: 0.0,
        batch: 0,
    },
    Spec {
        name: "q3_lr_server",
        driver: Driver::Server,
        events: 150_000,
        queries: &[Q3_LR],
        slack: 64,
        emission: EmissionMode::WindowOrdered,
        channel_capacity: None,
        rate: 70_000.0,
        batch: 250,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// A generated workload.
pub struct Workload {
    /// Its shape.
    pub spec: Spec,
    /// Event schemas.
    pub registry: SchemaRegistry,
    /// Events in time order.
    pub sorted: Vec<Event>,
    /// The same events in arrival order.
    pub arrival: Vec<EventRef>,
    /// Compiled `spec.queries`, same order.
    pub compiled: Vec<CompiledQuery>,
}

/// Generate `spec`'s stream from `seed` and compile its queries.
pub fn generate(spec: Spec, seed: u64) -> Result<Workload, String> {
    let mut registry = SchemaRegistry::new();
    let sorted = match spec.driver {
        Driver::InProcess | Driver::Durable => StockGen::new(
            StockConfig {
                events: spec.events,
                seed,
                ..StockConfig::default()
            },
            &mut registry,
        )
        .map_err(|e| format!("stock generator: {e}"))?
        .generate(),
        Driver::Server => LinearRoadGen::new(
            LinearRoadConfig {
                events: spec.events,
                vehicles: 200,
                segments: 40,
                accident_rate: 0.0005,
                seed,
                ..LinearRoadConfig::default()
            },
            &mut registry,
        )
        .map_err(|e| format!("linear road generator: {e}"))?
        .generate(),
    };
    let arrival = displace(&sorted, spec.slack, seed);
    let compiled = compile(spec, &registry)?;
    Ok(Workload {
        spec,
        registry,
        sorted,
        arrival,
        compiled,
    })
}

/// Compile `spec.queries` against `registry` (part of the program's
/// set-up, so it is timed in `setup_s`).
pub fn compile(spec: Spec, registry: &SchemaRegistry) -> Result<Vec<CompiledQuery>, String> {
    spec.queries
        .iter()
        .map(|q| CompiledQuery::parse(q, registry).map_err(|e| format!("query: {e}")))
        .collect()
}

/// SplitMix64: the arrival-displacement draw (independent of the
/// generators' own RNG stream).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arrival order: each event is delayed by a uniform `0..=slack` ticks and
/// the stream is stably re-sorted by arrival tick. When an event arrives
/// no event later than its own time plus `slack` has arrived, so the
/// reorder buffer never sees it late.
fn displace(sorted: &[Event], slack: u64, seed: u64) -> Vec<EventRef> {
    let mut state = seed ^ 0xD15B_1ACE;
    let mut keyed: Vec<(u64, usize)> = sorted
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let delay = if slack == 0 {
                0
            } else {
                splitmix(&mut state) % (slack + 1)
            };
            (e.time.ticks() + delay, i)
        })
        .collect();
    keyed.sort_by_key(|&(a, i)| (a, i));
    keyed
        .into_iter()
        .map(|(_, i)| sorted[i].clone().into_ref())
        .collect()
}

/// When each window of the primary query closes, in push indices: the
/// executor closes window `w` at the push whose reorder release first
/// carries the watermark to `w`'s close time.
pub struct Schedule {
    /// Pushes that close at least one window, ascending.
    pub closing_pushes: Vec<u32>,
    /// Per window id: index into `closing_pushes` of the push that closes
    /// it, `None` for windows only `finish` closes.
    closer: Vec<Option<u32>>,
    /// Pushes at which a durability checkpoint is taken (every
    /// `every_windows` closed windows), ascending; empty when 0.
    pub checkpoint_pushes: Vec<u32>,
    /// Events the reorder buffer reported late (0 by construction).
    pub late: u64,
}

impl Schedule {
    /// Index into `closing_pushes` of the push that closes window `w`.
    pub fn closed_by(&self, w: u64) -> Option<usize> {
        self.closer
            .get(w as usize)
            .copied()
            .flatten()
            .map(|k| k as usize)
    }
}

/// Windows between durability checkpoints at the `DurabilityConfig`
/// defaults, the cadence the durable workload runs at and the layer
/// replays mirror.
pub fn snapshot_every_windows() -> u64 {
    DurabilityConfig::new(".").snapshot_every_windows
}

/// The executor's window-close and checkpoint cadence, stepped by the
/// watermark: window `i` closes once the watermark reaches
/// `within + i * slide`, and a checkpoint is taken once `every_windows`
/// windows have closed since the last one (never when 0).
pub struct Cadence {
    window: WindowSpec,
    every_windows: u64,
    last_close: Option<u64>,
    since_checkpoint: u64,
}

/// What one watermark advance closed.
pub struct Step {
    /// Windows closed by this advance (at least 1).
    pub closed: u64,
    /// Index of the last window closed.
    pub last: u64,
    /// A checkpoint is taken at this advance.
    pub checkpoint: bool,
}

impl Cadence {
    /// A cadence for `window` with a checkpoint every `every_windows`.
    pub fn new(window: WindowSpec, every_windows: u64) -> Cadence {
        Cadence {
            window,
            every_windows,
            last_close: None,
            since_checkpoint: 0,
        }
    }

    /// Advance the watermark to `t`; `None` when no window closes.
    pub fn step(&mut self, t: u64) -> Option<Step> {
        if t < self.window.within {
            return None;
        }
        let last = (t - self.window.within) / self.window.slide.max(1);
        if self.last_close == Some(last) {
            return None;
        }
        let closed = last + 1 - self.last_close.map_or(0, |p| p + 1);
        self.last_close = Some(last);
        self.since_checkpoint += closed;
        let checkpoint = self.every_windows > 0 && self.since_checkpoint >= self.every_windows;
        if checkpoint {
            self.since_checkpoint = 0;
        }
        Some(Step {
            closed,
            last,
            checkpoint,
        })
    }
}

/// Replay the arrival order through a `ReorderBuffer` of the workload's
/// slack and step the executor's [`Cadence`] by the released watermark.
pub fn schedule(arrival: &[EventRef], slack: u64, w: WindowSpec, every_windows: u64) -> Schedule {
    let mut rb = ReorderBuffer::new(slack);
    let mut cadence = Cadence::new(w, every_windows);
    let mut out = Vec::new();
    let mut closer = Vec::new();
    let mut closing_pushes = Vec::new();
    let mut checkpoint_pushes = Vec::new();
    for (i, e) in arrival.iter().enumerate() {
        out.clear();
        // Displacement stays within the slack, so this never fails; a late
        // event would show in `late`.
        let _ = rb.push_into(e.clone(), &mut out);
        let Some(step) = out.last().and_then(|e| cadence.step(e.time.ticks())) else {
            continue;
        };
        closer.resize(step.last as usize + 1, Some(closing_pushes.len() as u32));
        closing_pushes.push(i as u32);
        if step.checkpoint {
            checkpoint_pushes.push(i as u32);
        }
    }
    Schedule {
        closer,
        closing_pushes,
        checkpoint_pushes,
        late: rb.late_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_stay_within_slack_and_keep_every_event() {
        let spec = spec("q1_stock_durable").unwrap();
        let w = generate(
            Spec {
                events: 3_000,
                ..spec
            },
            7,
        )
        .unwrap();
        assert_eq!(w.arrival.len(), w.sorted.len());
        let moved = w
            .arrival
            .iter()
            .zip(&w.sorted)
            .filter(|(a, s)| a.time != s.time)
            .count();
        assert!(moved > 0, "displacement moved nothing");
        let s = schedule(&w.arrival, spec.slack, w.compiled[0].window, 4);
        assert_eq!(s.late, 0);
        assert!(!s.checkpoint_pushes.is_empty());
    }

    #[test]
    fn same_seed_same_stream() {
        let spec = Spec {
            events: 500,
            ..spec("q3_lr_server").unwrap()
        };
        let a = generate(spec, 3).unwrap();
        let b = generate(spec, 3).unwrap();
        assert_eq!(a.sorted, b.sorted);
        let c = generate(spec, 4).unwrap();
        assert_ne!(a.sorted, c.sorted);
    }
}
