//! Layer unit-cost probes: isolated public calls into one layer each, timed
//! from outside the program.
//!
//! Every probe takes [`SAMPLES`] samples of a batch of calls and reports
//! nanoseconds (or microseconds) per call as a median with its 10th–90th
//! percentile spread, next to the noise floor: the cost per iteration of
//! the same timing loop around no call at all.

use crate::stats;
use apgas::{Config, MsgClass, PlaceId, Runtime};
use std::hint::black_box;
use std::time::Instant;
use x10rt::{Coalescer, Envelope, LocalTransport, SpscRing, Transport};

/// Samples per probe.
const SAMPLES: usize = 21;

/// Calls per sample for the in-process layer probes.
const BATCH: usize = 4_096;

/// Blocking round trips per sample for the `at` probe.
const AT_BATCH: usize = 200;

/// A probe's result.
pub struct Probe {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `median` and `spread`.
    pub unit: &'static str,
    /// Median cost per call.
    pub median: f64,
    /// 10th and 90th percentile cost per call.
    pub spread: (f64, f64),
}

fn probe(name: &'static str, unit: &'static str, mut sample: impl FnMut() -> f64) -> Probe {
    sample(); // warm caches and lazy allocations
    let xs: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    Probe {
        name,
        unit,
        median: stats::median(&xs),
        spread: stats::p10_p90(&xs),
    }
}

fn per_call_ns(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// The timing loop alone: the floor under every per-call figure.
pub fn noise_floor() -> Probe {
    probe("probe.noise_floor_ns", "ns", || {
        let t = Instant::now();
        for i in 0..BATCH {
            black_box(i);
        }
        per_call_ns(t, BATCH)
    })
}

/// One `SpscRing` push followed by one pop.
pub fn ring_push_pop() -> Probe {
    let ring = SpscRing::<u64>::new(x10rt::DEFAULT_RING_CAPACITY);
    probe("x10rt.ring.push_pop_ns", "ns", || {
        let t = Instant::now();
        for i in 0..BATCH {
            ring.push(black_box(i as u64))
                .expect("ring drained every call");
            black_box(ring.pop());
        }
        per_call_ns(t, BATCH)
    })
}

fn envelope(i: usize) -> Envelope {
    Envelope::new(PlaceId(0), PlaceId(1), MsgClass::Task, 16, Box::new(i))
}

/// One `Coalescer::send` of a small message, amortising the threshold
/// flushes it triggers; the receiver drains outside the timed part.
pub fn coalescer_send() -> Probe {
    let transport = LocalTransport::new(2);
    let mut co = Coalescer::new(
        PlaceId(0),
        2,
        x10rt::coalesce::DEFAULT_MAX_MSGS,
        x10rt::coalesce::DEFAULT_MAX_BYTES,
        true,
    );
    probe("x10rt.coalescer.send_ns", "ns", || {
        let t = Instant::now();
        for i in 0..BATCH {
            co.send(&transport, envelope(i)).expect("live destination");
        }
        let ns = per_call_ns(t, BATCH);
        co.flush(&transport).expect("live destination");
        while let Some(env) = transport.try_recv(PlaceId(1)) {
            if let Ok(batch) = env.unbatch_boxed() {
                co.recycle_batch(batch);
            }
        }
        ns
    })
}

/// One `LocalTransport::send` of a single envelope and its `try_recv`.
pub fn transport_send_recv() -> Probe {
    let transport = LocalTransport::new(2);
    probe("x10rt.transport.send_recv_ns", "ns", || {
        let t = Instant::now();
        for i in 0..BATCH {
            transport.send(envelope(i)).expect("live destination");
            black_box(transport.try_recv(PlaceId(1)));
        }
        per_call_ns(t, BATCH)
    })
}

/// One blocking `Ctx::at` round trip from place 0 to place 1 of an
/// otherwise idle 2-place runtime.
pub fn at_round_trip() -> Probe {
    let rt = Runtime::new(Config::new(2).executor_threads(crate::host::nproc()));
    let xs = rt.run(|ctx| {
        ctx.at(PlaceId(1), |_| ()); // lazy lanes and context stacks
        (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..AT_BATCH {
                    ctx.at(PlaceId(1), |_| ());
                }
                per_call_ns(t, AT_BATCH) / 1e3
            })
            .collect::<Vec<f64>>()
    });
    Probe {
        name: "apgas.at_rtt_us_p50",
        unit: "us",
        median: stats::median(&xs),
        spread: stats::p10_p90(&xs),
    }
}

/// Sequential `uts::traverse` rate on `tree`, with no runtime alive.
pub fn seq_traverse(tree: &uts::GeoTree) -> Probe {
    let xs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let nodes = black_box(uts::traverse(black_box(tree))).nodes;
            nodes as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    Probe {
        name: "uts.seq_nodes_per_s",
        unit: "1/s",
        median: stats::median(&xs),
        spread: stats::p10_p90(&xs),
    }
}
