//! `perfbench` — the repository's benchmark for the APGAS runtime.
//!
//! One command runs one workload (`uts`, `uts-wide`, `storm`, `fanout`; see
//! `perfbench/README.md`) for a fixed time, checks every round's result,
//! prints every metric by name with its unit, and ends with one JSON line:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload uts --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all tracing off.
//! `--trace 1` is the separate traced run: it reports the per-layer
//! metrics, from the runtime's own counters, its causal critical paths, the
//! benchmark's spans around each call into the runtime, and isolated
//! unit-cost probes of single layers.
//!
//! The benchmark touches the runtime only through its public API and runs
//! every place M:N on one executor thread per core.

mod host;
mod probes;
mod stats;
mod workload;

use serde_json::{Map, Value};
use stats::Span;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Bench, Inputs, Kind, Round};

/// Runtimes built per run to measure `setup_s`, each warming up on
/// different inputs; the last one then runs the timed rounds.
const SETUP_REPS: usize = 7;

/// Timed rounds a `--trace 0` run makes at least, whatever `--seconds`
/// says: the round-time p90 needs ten samples beyond it.
const MIN_ROUNDS: usize = 100;

/// Rounds each phase of a traced run makes at least.
const MIN_TRACED_ROUNDS: usize = 10;

/// A run still going after this long is abandoned with a non-zero exit and
/// no result (a hung round cannot be interrupted from outside).
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: perfbench --workload uts|uts-wide|storm|fanout \
                     --seed N --seconds S --trace 0|1";

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Rounds attempted and failed over the whole run, warm-up rounds included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, r: &Round) {
        self.attempted += 1;
        if let Some(e) = &r.error {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: round failed: {e}");
            }
        }
    }
}

/// The benchmark's own spans, kept in memory and written once at the end.
struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span and return its index (for children).
    fn push(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        round: u64,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// A round span with its inner spans as children.
    fn round(&mut self, r: &Round, parent: Option<usize>, id: u64) {
        let me = self.push("round", (r.start, r.end), parent, id);
        for &(name, a, b) in &r.inner {
            self.push(name, (a, b), Some(me), id);
        }
    }

    /// Median duration, in ms, of the spans called `name`.
    fn median_ms(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect();
        stats::median(&xs)
    }
}

/// Build a runtime and run one untimed, checked warm-up round: the span
/// `setup_s` measures, covering lazy lanes, first touches of context stacks
/// and place-local initialisation. `skip` selects the warm-up round's
/// inputs (see [`Bench::new`]).
fn setup(
    inputs: &Arc<Inputs>,
    traced: bool,
    skip: u64,
    tally: &mut Tally,
    log: Option<&mut SpanLog>,
) -> (Bench, f64) {
    let t0 = Instant::now();
    let mut bench = Bench::new(inputs.clone(), traced, skip);
    let warm = bench.round();
    let t1 = Instant::now();
    tally.record(&warm);
    if let Some(log) = log {
        let s = log.push("setup", (t0, t1), None, 0);
        log.round(&warm, Some(s), 0);
    }
    (bench, (t1 - t0).as_secs_f64())
}

/// The timed rounds of one phase, kept compact (8 bytes per round) so the
/// benchmark's own bookkeeping does not show in `peak_rss_mb`.
#[derive(Default)]
struct Phase {
    round_ms: Vec<f64>,
    units: u64,
    glb: glb::GlbStatsSummary,
    imbalances: Vec<f64>,
    cpu_s: f64,
}

impl Phase {
    fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    /// Figure-of-merit units per second of round time.
    fn throughput(&self) -> f64 {
        self.units as f64 / (self.round_ms.iter().sum::<f64>() / 1e3)
    }

    fn per_round(&self, total: f64) -> f64 {
        total / self.rounds() as f64
    }
}

/// Run closed-loop rounds for `seconds` (and at least `min_rounds`).
fn measure(
    bench: &mut Bench,
    seconds: f64,
    min_rounds: usize,
    tally: &mut Tally,
    mut log: Option<&mut SpanLog>,
) -> Phase {
    let mut phase = Phase::default();
    let cpu0 = host::usage().cpu_s;
    let t0 = Instant::now();
    while phase.rounds() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        let r = bench.round();
        tally.record(&r);
        if let Some(log) = log.as_deref_mut() {
            log.round(&r, None, phase.rounds() as u64 + 1);
        }
        phase.round_ms.push(r.secs() * 1e3);
        phase.units += r.units;
        if let Some(g) = &r.glb {
            phase.glb.add(g);
        }
        phase.imbalances.extend(r.imbalance);
    }
    phase.cpu_s = host::usage().cpu_s - cpu0;
    phase
}

/// The `--trace 0` run: end-to-end metrics with tracing off.
fn end_to_end(args: &Args, inputs: &Arc<Inputs>, tally: &mut Tally) -> (Vec<Metric>, usize) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for i in 0..SETUP_REPS {
        drop(bench.take()); // one runtime alive at a time
        let (b, secs) = setup(inputs, false, i as u64, tally, None);
        setups.push(secs);
        bench = Some(b);
    }
    let mut bench = bench.expect("SETUP_REPS > 0");
    let phase = measure(&mut bench, args.seconds, MIN_ROUNDS, tally, None);
    drop(bench);
    let round_ms = stats::summarize(&phase.round_ms);
    let p90 = round_ms
        .p90
        .expect("MIN_ROUNDS leaves ten samples beyond the p90");
    let metrics = vec![
        metric("throughput", phase.throughput(), "1/s"),
        metric("round_ms_p50", round_ms.p50, "ms"),
        metric("round_ms_p90", p90, "ms"),
        metric("setup_s", stats::median(&setups), "s"),
        metric("cpu_ms_per_round", phase.per_round(phase.cpu_s * 1e3), "ms"),
        metric("peak_rss_mb", host::usage().peak_rss_mb, "MiB"),
    ];
    (metrics, phase.rounds())
}

/// Counter and histogram values parsed from `Runtime::metrics_json`.
struct Counters(Value);

impl Counters {
    fn read(bench: &Bench) -> Counters {
        let json = bench
            .runtime()
            .metrics_json()
            .expect("observability is on by default");
        Counters(serde_json::from_str(&json).expect("metrics_json is valid JSON"))
    }

    fn counter(&self, name: &str) -> f64 {
        self.0
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    /// `(total, sum)` of a histogram.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let h = self.0.get("histograms").and_then(|h| h.get(name));
        let field = |k| {
            h.and_then(|h| h.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        (field("total"), field("sum"))
    }
}

/// Medians of the transport / queue / execution split over the hops of
/// every critical path in `Runtime::critical_path_json`. A hop whose send,
/// receive or execution stamp was overwritten in the rings reads 0 for
/// that part and is left out of that median.
fn critical_path_split(bench: &Bench) -> (f64, f64, f64) {
    let json = bench
        .runtime()
        .critical_path_json()
        .expect("observability is on by default");
    let v: Value = serde_json::from_str(&json).expect("critical_path_json is valid JSON");
    let mut split: [Vec<f64>; 3] = Default::default();
    let hops = v
        .get("roots")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|r| r.get("hops").and_then(Value::as_array))
        .flatten();
    for hop in hops {
        for (xs, key) in split
            .iter_mut()
            .zip(["transport_ns", "queue_ns", "exec_ns"])
        {
            match hop.get(key).and_then(Value::as_f64) {
                Some(ns) if ns > 0.0 => xs.push(ns),
                _ => {}
            }
        }
    }
    let [t, q, e] = split.map(|xs| stats::median(&xs));
    (t, q, e)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What the traced run leaves besides its metrics.
struct TraceReport {
    rounds: usize,
    log: SpanLog,
    probes: Vec<probes::Probe>,
}

/// The `--trace 1` run. Phase A repeats the untraced measurement and reads
/// the runtime's counters (NetStats, metrics registry, parks, GLB stats);
/// phase B runs with the runtime's event and causal tracing on and the
/// benchmark's spans recorded, for the critical-path split and the tracing
/// overhead. Then the layer probes run, each alone.
fn traced(args: &Args, inputs: &Arc<Inputs>, tally: &mut Tally) -> (Vec<Metric>, TraceReport) {
    let half = args.seconds / 2.0;

    let (mut bench, _) = setup(inputs, false, 0, tally, None);
    let rt = bench.runtime();
    let (c0, parks0) = (Counters::read(&bench), rt.total_parks());
    rt.reset_net_stats();
    let a = measure(&mut bench, half, MIN_TRACED_ROUNDS, tally, None);
    let rt = bench.runtime();
    let (c1, parks1) = (Counters::read(&bench), rt.total_parks());
    let net = rt.net_stats();
    let class = |c| a.per_round(net.class(c).messages as f64);
    let msgs = a.per_round(net.total_messages() as f64);
    let envelopes = a.per_round(net.total_envelopes() as f64);
    let bytes = a.per_round(net.total_bytes() as f64);
    let overflows = a.per_round(net.total_ring_overflows() as f64);
    let (task, ctl, steal) = (
        class(apgas::MsgClass::Task),
        class(apgas::MsgClass::FinishCtl),
        class(apgas::MsgClass::Steal),
    );
    let delta = |name| c1.counter(name) - c0.counter(name);
    let activities = a.per_round(delta("worker.activities"));
    let (h0, h1) = (
        c0.histogram("mailbox.drain_depth"),
        c1.histogram("mailbox.drain_depth"),
    );
    let drain_mean = ratio(h1.1 - h0.1, h1.0 - h0.0);
    let parks = a.per_round((parks1 - parks0) as f64);
    drop(bench);

    let (glb, imbalances) = (&a.glb, &a.imbalances);

    let mut log = SpanLog {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let (mut bench, _) = setup(inputs, true, 0, tally, Some(&mut log));
    let b = measure(&mut bench, half, MIN_TRACED_ROUNDS, tally, Some(&mut log));
    let t = Instant::now();
    let (transport_ns, queue_ns, exec_ns) = critical_path_split(&bench);
    let critical_path_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(bench);

    // Layer probes, one layer at a time, with no benchmark runtime alive.
    let probes = vec![
        probes::noise_floor(),
        probes::ring_push_pop(),
        probes::coalescer_send(),
        probes::transport_send_recv(),
        probes::at_round_trip(),
        probes::seq_traverse(&inputs.trees[0].tree),
    ];
    let probe = |name: &str| {
        probes
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.median)
    };
    // Σ (messages × unit cost): every logical message pays a coalescer
    // send, every physical envelope a transport send and receive.
    let ledger_ns =
        msgs * probe("x10rt.coalescer.send_ns") + envelopes * probe("x10rt.transport.send_recv_ns");
    let is_uts = !imbalances.is_empty();

    let metrics = vec![
        metric(
            "x10rt.ring.push_pop_ns",
            probe("x10rt.ring.push_pop_ns"),
            "ns",
        ),
        metric(
            "x10rt.coalescer.send_ns",
            probe("x10rt.coalescer.send_ns"),
            "ns",
        ),
        metric(
            "x10rt.transport.send_recv_ns",
            probe("x10rt.transport.send_recv_ns"),
            "ns",
        ),
        metric("x10rt.msgs_per_round", msgs, "count"),
        metric("x10rt.task_msgs_per_round", task, "count"),
        metric("x10rt.finish_ctl_msgs_per_round", ctl, "count"),
        metric("x10rt.steal_msgs_per_round", steal, "count"),
        metric("x10rt.envelopes_per_msg", ratio(envelopes, msgs), "ratio"),
        metric("x10rt.bytes_per_round", bytes, "B"),
        metric("x10rt.ring_overflows_per_round", overflows, "count"),
        metric("apgas.at_rtt_us_p50", probe("apgas.at_rtt_us_p50"), "us"),
        metric("apgas.parks_per_round", parks, "count"),
        metric("apgas.activities_per_round", activities, "count"),
        metric("apgas.drain_depth_mean", drain_mean, "count"),
        metric("apgas.queue_ns_p50", queue_ns, "ns"),
        metric("apgas.finish_wait_ms", log.median_ms("finish_wait"), "ms"),
        metric("apgas.transport_ns_p50", transport_ns, "ns"),
        metric("apgas.exec_ns_p50", exec_ns, "ns"),
        metric(
            "glb.steal_attempts_per_round",
            a.per_round(glb.random_attempts as f64),
            "count",
        ),
        metric(
            "glb.steal_hit_ratio",
            ratio(glb.random_hits as f64, glb.random_attempts as f64),
            "ratio",
        ),
        metric(
            "glb.lifeline_gifts_per_round",
            a.per_round(glb.lifeline_gifts as f64),
            "count",
        ),
        metric(
            "glb.deaths_per_round",
            a.per_round(glb.deaths as f64),
            "count",
        ),
        metric("uts.seq_nodes_per_s", probe("uts.seq_nodes_per_s"), "1/s"),
        metric(
            "uts.imbalance",
            if is_uts {
                stats::median(imbalances)
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "obs.traced_throughput_ratio",
            ratio(b.throughput(), a.throughput()),
            "ratio",
        ),
        metric("obs.critical_path_ms", critical_path_ms, "ms"),
        metric(
            "ledger.explained_ratio",
            ratio(ledger_ns, stats::median(&a.round_ms) * 1e6),
            "ratio",
        ),
        metric("probe.noise_floor_ns", probe("probe.noise_floor_ns"), "ns"),
    ];
    let report = TraceReport {
        rounds: a.rounds() + b.rounds(),
        log,
        probes,
    };
    (metrics, report)
}

/// Run shape and host fingerprint, recorded with every result.
fn shape(args: &Args, rounds: usize) -> Value {
    let mut m = Map::new();
    let mut put = |k: &str, v: Value| {
        m.insert(k.to_string(), v);
    };
    put("workload", Value::String(args.kind.name().into()));
    put("seed", Value::Number(args.seed as f64));
    put("seconds", Value::Number(args.seconds));
    put("trace", Value::Bool(args.trace));
    put("places", Value::Number(args.kind.places() as f64));
    put("executor_threads", Value::Number(host::nproc() as f64));
    put("nproc", Value::Number(host::nproc() as f64));
    put("rounds", Value::Number(rounds as f64));
    put("setup_reps", Value::Number(SETUP_REPS as f64));
    put("unit", Value::String(args.kind.unit().into()));
    put("build_profile", Value::String(host::build_profile().into()));
    put("git_revision", Value::String(host::git_revision()));
    put("source_digest", Value::String(host::source_digest()));
    put("os", Value::String(std::env::consts::OS.into()));
    put("arch", Value::String(std::env::consts::ARCH.into()));
    Value::Object(m)
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut o = Map::new();
                o.insert("value".into(), Value::Number(m.value));
                o.insert("unit".into(), Value::String(m.unit.into()));
                (m.name.to_string(), Value::Object(o))
            })
            .collect(),
    )
}

/// The traced run's spans, per-name self time and probes, as JSON.
fn trace_value(report: &TraceReport) -> Value {
    let spans = &report.log.spans;
    let selfs = stats::self_times(spans);
    let mut by_name: Map = Map::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name
            .entry(s.name.to_string())
            .or_insert(Value::Array(vec![Value::Number(0.0), Value::Number(0.0)]));
        if let Value::Array(v) = e {
            v[0] = Value::Number(v[0].as_f64().unwrap_or(0.0) + 1.0);
            v[1] = Value::Number(v[1].as_f64().unwrap_or(0.0) + *own as f64 / 1e6);
        }
    }
    let span_rows = spans
        .iter()
        .zip(&selfs)
        .map(|(s, own)| {
            let mut o = Map::new();
            o.insert("name".into(), Value::String(s.name.into()));
            o.insert("start_ns".into(), Value::Number(s.start as f64));
            o.insert("end_ns".into(), Value::Number(s.end as f64));
            o.insert(
                "parent".into(),
                s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
            );
            o.insert("round".into(), Value::Number(s.round as f64));
            o.insert("self_ns".into(), Value::Number(*own as f64));
            Value::Object(o)
        })
        .collect();
    let probe_rows = report
        .probes
        .iter()
        .map(|p| {
            let mut o = Map::new();
            o.insert("name".into(), Value::String(p.name.into()));
            o.insert("unit".into(), Value::String(p.unit.into()));
            o.insert("median".into(), Value::Number(p.median));
            o.insert("p10".into(), Value::Number(p.spread.0));
            o.insert("p90".into(), Value::Number(p.spread.1));
            Value::Object(o)
        })
        .collect();
    let mut m = Map::new();
    m.insert("self_time_ms_by_name".into(), Value::Object(by_name));
    m.insert("probes".into(), Value::Array(probe_rows));
    m.insert("spans".into(), Value::Array(span_rows));
    Value::Object(m)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Detached on purpose: it either fires and ends the process, or the
    // process ends first.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: run exceeded {RUN_LIMIT:?}; abandoning it");
        std::process::exit(3);
    });

    let inputs = Arc::new(Inputs::generate(args.kind, args.seed));
    let mut tally = Tally::default();
    let (metrics, rounds, trace) = if args.trace {
        let (m, report) = traced(&args, &inputs, &mut tally);
        (m, report.rounds, Some(report))
    } else {
        let (m, rounds) = end_to_end(&args, &inputs, &mut tally);
        (m, rounds, None)
    };

    let shape = shape(&args, rounds);
    println!(
        "shape {}",
        serde_json::to_string(&shape).expect("serializable")
    );
    for m in &metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<34} {:>16.4} ratio ({} of {} rounds failed)",
        "error_rate",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    if let Some(report) = &trace {
        let selfs = stats::self_times(&report.log.spans);
        let total: u64 = selfs.iter().sum();
        for name in ["setup", "round", "send_loop", "finish_wait", "glb.run"] {
            let own: u64 = report
                .log
                .spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, t)| t)
                .sum();
            if own > 0 {
                println!(
                    "  self time {name:<24} {:>10.2} ms ({:.1}%)",
                    own as f64 / 1e6,
                    100.0 * own as f64 / total as f64
                );
            }
        }
        for p in &report.probes {
            println!(
                "  probe {:<30} median {:.2} {} (p10 {:.2}, p90 {:.2})",
                p.name, p.median, p.unit, p.spread.0, p.spread.1
            );
        }
    }

    let mut record = Map::new();
    record.insert("shape".into(), shape);
    record.insert("metrics".into(), metrics_value(&metrics));
    record.insert("attempted".into(), Value::Number(tally.attempted as f64));
    record.insert("failed".into(), Value::Number(tally.failed as f64));
    if let Some(report) = &trace {
        record.insert("trace".into(), trace_value(report));
    }
    let out = std::path::Path::new("perfbench/out");
    let file = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| {
        std::fs::write(
            &file,
            serde_json::to_string(&Value::Object(record)).expect("serializable"),
        )
    }) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }

    let mut result = Map::new();
    result.insert("correct".into(), Value::Bool(tally.failed == 0));
    result.insert("attempted".into(), Value::Number(tally.attempted as f64));
    result.insert("failed".into(), Value::Number(tally.failed as f64));
    result.insert("metrics".into(), metrics_value(&metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("serializable")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_oracle_raises_error_rate_and_the_run_goes_on() {
        let inputs = Arc::new(Inputs::generate(Kind::Fanout, 5));
        let mut tally = Tally::default();
        let (mut bench, _) = setup(&inputs, false, 0, &mut tally, None);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        bench.corrupt_oracle();
        let phase = measure(&mut bench, 0.0, 3, &mut tally, None);
        assert_eq!(phase.rounds(), 3);
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert_eq!(phase.throughput(), 0.0);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload uts-wide --seed 9 --seconds 20 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::UtsWide, 9, 20.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 9 --seconds 20 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload uts --seed 9 --seconds 20 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload uts --seed 9 --trace 0")).is_err());
    }
}
