//! The four workloads, their seeded inputs and their result oracles.
//!
//! Every workload is closed-loop: [`Bench::round`] starts a round only
//! when called, and returns after the round has completed and its result
//! has been checked. A wrong result, a typed [`apgas::ApgasError`], a panic
//! or a missed deadline marks the round failed; none of them aborts the run.

use apgas::{Config, Ctx, PlaceId, Runtime};
use glb::{GlbConfig, GlbStatsSummary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use uts::GeoTree;

/// UTS tree depth (GEO, `b0 = 4`).
const TREE_DEPTH: u32 = 9;

/// GLB probe interval: small, so work spreads and the steal and lifeline
/// paths carry real traffic.
const GLB_CHUNK: usize = 64;

/// Trees each UTS run cycles through.
const TREES_PER_RUN: usize = 32;

/// `at_async` updates each place sends per `storm` round.
const STORM_PER_PLACE: usize = 2_000;

/// Root seeds of GEO depth-9 trees whose sequential size lies in
/// `TREE_BAND` (checked by a self-test). A run's seed picks its trees from this catalogue, so
/// `throughput` and round times compare across seeds; the reference node
/// count of each tree is still computed by [`uts::traverse`] in every run.
const TREE_CATALOGUE: &[u32] = &[
    52, 199, 244, 308, 331, 366, 438, 439, 505, 549, 555, 562, 685, 696, 852, 871, 964, 996, 1151,
    1233, 1348, 1392, 1437, 1445, 1534, 1573, 1644, 1863, 1910, 1941, 1947, 1957, 1999, 2017, 2043,
    2061, 2115, 2125, 2183, 2216, 2247, 2286, 2306, 2316, 2362, 2376, 2382, 2407, 2485, 2490, 2621,
    2823, 2859, 2949, 2984, 3016, 3020, 3057, 3311, 3384, 3425, 3445, 3506, 3540, 3568, 3613, 3683,
    3749, 3761, 3772, 3809, 3849, 3916, 3934, 4013, 4144, 4165, 4253, 4270, 4447,
];

/// A benchmark workload. The names are the `--workload` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Distributed UTS under lifeline GLB at 8 places.
    Uts,
    /// The same trees at 1,024 places.
    UtsWide,
    /// All-to-all tiny `at_async` updates at 32 places under one finish.
    Storm,
    /// One `at_async` to each of 256 places under the default finish.
    Fanout,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 4] = [Kind::Uts, Kind::UtsWide, Kind::Storm, Kind::Fanout];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Uts => "uts",
            Kind::UtsWide => "uts-wide",
            Kind::Storm => "storm",
            Kind::Fanout => "fanout",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Places of the runtime the workload drives.
    pub fn places(self) -> usize {
        match self {
            Kind::Uts => 8,
            Kind::UtsWide => 1024,
            Kind::Storm => 32,
            Kind::Fanout => 256,
        }
    }

    /// What one unit of `throughput` is.
    pub fn unit(self) -> &'static str {
        match self {
            Kind::Uts | Kind::UtsWide => "nodes",
            Kind::Storm => "updates",
            Kind::Fanout => "activities",
        }
    }

    /// A round slower than this counts as failed (it still completes).
    fn deadline(self) -> Duration {
        match self {
            Kind::Uts => Duration::from_secs(5),
            Kind::UtsWide | Kind::Storm => Duration::from_secs(10),
            Kind::Fanout => Duration::from_secs(1),
        }
    }

    /// Per-place capacity of the runtime's trace and causal rings in a
    /// traced run. Rings keep the latest events, so the critical paths
    /// cover the last rounds. The rings stay small because building the
    /// critical paths scans every recorded message once per finish root: a
    /// traced 1,024-place run with 1,024 events per place took minutes to
    /// export. `fanout` needs room for one round's 256 sends at place 0.
    fn trace_ring_events(self) -> usize {
        match self {
            Kind::Uts => 8192,
            Kind::UtsWide => 64,
            Kind::Storm => 2048,
            Kind::Fanout => 1024,
        }
    }

    fn is_uts(self) -> bool {
        matches!(self, Kind::Uts | Kind::UtsWide)
    }
}

/// SplitMix64: the benchmark's seeded stream for every input it draws.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream keyed by `parts` (seed, round, place, ...).
    pub fn keyed(parts: &[u64]) -> Self {
        let mut s = SplitMix(0x243f_6a88_85a3_08d3);
        for &p in parts {
            s.0 ^= p;
            s.0 = s.next();
        }
        s
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A UTS tree with its sequential reference node count.
#[derive(Clone, Copy, Debug)]
pub struct Tree {
    /// The tree.
    pub tree: GeoTree,
    /// `uts::traverse(&tree).nodes`.
    pub nodes: u64,
}

/// The inputs of one run, all drawn from the seed.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// The run's seed.
    pub seed: u64,
    /// The trees UTS rounds cycle through; also the tree the sequential
    /// probe traverses on every workload.
    pub trees: Vec<Tree>,
}

/// The GEO depth-9 tree with root seed `root`.
fn geo_tree(root: u32) -> GeoTree {
    GeoTree {
        seed: root,
        ..GeoTree::paper(TREE_DEPTH)
    }
}

impl Inputs {
    /// Draw the run's inputs from `seed`. Tree references come from
    /// [`uts::traverse`], run before any runtime exists.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = SplitMix::keyed(&[seed, 0x7472_6565]);
        let n = if kind.is_uts() { TREES_PER_RUN } else { 1 };
        // Distinct catalogue entries: the first `n` of a partial shuffle.
        let mut picks: Vec<usize> = (0..TREE_CATALOGUE.len()).collect();
        for i in 0..n {
            let j = i + (rng.next() % (picks.len() - i) as u64) as usize;
            picks.swap(i, j);
        }
        let trees = picks[..n]
            .iter()
            .map(|&i| {
                let tree = geo_tree(TREE_CATALOGUE[i]);
                Tree {
                    tree,
                    nodes: uts::traverse(&tree).nodes,
                }
            })
            .collect();
        Inputs { kind, seed, trees }
    }
}

/// The runtime configuration of `kind`: M:N on one executor per core.
/// `traced` turns on the runtime's event and causal tracing.
pub fn config(kind: Kind, traced: bool) -> Config {
    let cfg = Config::new(kind.places()).executor_threads(crate::host::nproc());
    if traced {
        cfg.trace_enable(true)
            .causal_enable(true)
            .trace_buffer_events(kind.trace_ring_events())
    } else {
        cfg
    }
}

/// A receive counter at one place, padded so places never share a line.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    count: AtomicU64,
    xor: AtomicU64,
}

/// What one round measured.
pub struct Round {
    /// Round start and end, as seen by the client that waits for it.
    pub start: Instant,
    /// See `start`.
    pub end: Instant,
    /// Figure-of-merit units completed (0 when the round failed).
    pub units: u64,
    /// Why the round failed, if it did.
    pub error: Option<String>,
    /// Sub-spans recorded inside the round: `glb.run` for UTS, otherwise
    /// `send_loop` and `finish_wait`.
    pub inner: Vec<(&'static str, Instant, Instant)>,
    /// GLB balancer totals (UTS only).
    pub glb: Option<GlbStatsSummary>,
    /// Max / mean of per-place node counts (UTS only).
    pub imbalance: Option<f64>,
}

impl Round {
    /// Wall time of the round, in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A round's main activity.
type Body = Box<dyn FnOnce(&Ctx) -> Output + Send>;

/// What the main activity hands back: the workload's own result plus the
/// instants bounding its inner spans.
enum Output {
    Uts {
        run: uts::DistributedRun,
        started: Instant,
        done: Instant,
    },
    Sends {
        started: Instant,
        sent: Instant,
        done: Instant,
    },
}

/// A live runtime driving one workload.
pub struct Bench {
    rt: Runtime,
    inputs: std::sync::Arc<Inputs>,
    /// Rounds started so far.
    rounds: u64,
    /// One receive counter per place. Leaked so that update closures
    /// capture a plain `&'static` reference: no reference-count traffic and
    /// no lock on the measured path. A few KiB per runtime.
    slots: &'static [Slot],
    /// Self-test hook: perturb every expected result.
    corrupt_oracle: bool,
}

impl Bench {
    /// Build the runtime for `inputs.kind`. Its first round is round
    /// `skip + 1` of the run's input streams (and tree cycle), so that
    /// successive set-ups warm up on different inputs.
    pub fn new(inputs: std::sync::Arc<Inputs>, traced: bool, skip: u64) -> Bench {
        let places = inputs.kind.places();
        let rt = Runtime::new(config(inputs.kind, traced));
        let slots: Vec<Slot> = (0..places).map(|_| Slot::default()).collect();
        Bench {
            rt,
            inputs,
            rounds: skip,
            slots: Box::leak(slots.into_boxed_slice()),
            corrupt_oracle: false,
        }
    }

    /// The runtime, for its public counters and exporters.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Make every later round's expected result wrong (self-test only).
    #[cfg(test)]
    pub fn corrupt_oracle(&mut self) {
        self.corrupt_oracle = true;
    }

    /// Run one round and check its result.
    pub fn round(&mut self) -> Round {
        self.rounds += 1;
        let kind = self.inputs.kind;
        let before: Vec<(u64, u64)> = self.slot_values();
        let (expected, body) = self.prepare();
        let start = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| self.rt.run_checked(body)));
        let end = Instant::now();
        let mut round = Round {
            start,
            end,
            units: 0,
            error: None,
            inner: Vec::new(),
            glb: None,
            imbalance: None,
        };
        let out = match res {
            Err(panic) => {
                round.error = Some(format!("panic: {}", apgas::panic_message(panic)));
                return round;
            }
            Ok(Err(e)) => {
                round.error = Some(format!("runtime error: {e}"));
                return round;
            }
            Ok(Ok(out)) => out,
        };
        let check = match out {
            Output::Uts { run, started, done } => {
                round.inner.push(("glb.run", started, done));
                let mean = run.stats.nodes as f64 / run.per_place_nodes.len() as f64;
                let max = run.per_place_nodes.iter().copied().max().unwrap_or(0);
                round.imbalance = Some(max as f64 / mean.max(1.0));
                round.glb = Some(run.balancer);
                Expected::Nodes(run.stats.nodes)
            }
            Output::Sends {
                started,
                sent,
                done,
            } => {
                round.inner.push(("send_loop", started, sent));
                round.inner.push(("finish_wait", sent, done));
                let after = self.slot_values();
                Expected::PerPlace(
                    before
                        .iter()
                        .zip(&after)
                        .map(|(b, a)| (a.0 - b.0, a.1 ^ b.1))
                        .collect(),
                )
            }
        };
        if check != expected {
            round.error = Some(format!(
                "wrong result in round {}: got {}, expected {}",
                self.rounds,
                check.describe(),
                expected.describe()
            ));
        } else if round.secs() > kind.deadline().as_secs_f64() {
            round.error = Some(format!(
                "round {} missed its {:?} deadline ({:.3}s)",
                self.rounds,
                kind.deadline(),
                round.secs()
            ));
        } else {
            round.units = expected.units();
        }
        round
    }

    fn slot_values(&self) -> Vec<(u64, u64)> {
        self.slots
            .iter()
            .map(|s| {
                (
                    s.count.load(Ordering::Acquire),
                    s.xor.load(Ordering::Acquire),
                )
            })
            .collect()
    }

    /// The expected result of the next round and its main activity.
    fn prepare(&self) -> (Expected, Body) {
        let inputs = &self.inputs;
        let (seed, round, slots) = (inputs.seed, self.rounds, self.slots);
        let places = inputs.kind.places();
        let (mut expected, body): (Expected, Body) = match inputs.kind {
            Kind::Uts | Kind::UtsWide => {
                let t = inputs.trees[(round as usize - 1) % inputs.trees.len()];
                // One victim-shuffle seed per run, as one program would
                // use. A fresh seed per round reaches new (thief,
                // victim) pairs every round, and the transport keeps
                // every lane it ever materialised: at 1,024 places that
                // grows memory and round times with the round count.
                let cfg = GlbConfig {
                    chunk: GLB_CHUNK,
                    seed: SplitMix::keyed(&[seed, 0x0067_6c62]).next(),
                    ..GlbConfig::default()
                };
                let body = move |ctx: &Ctx| {
                    let started = Instant::now();
                    let run = uts::run_distributed(ctx, t.tree, cfg);
                    Output::Uts {
                        run,
                        started,
                        done: Instant::now(),
                    }
                };
                (Expected::Nodes(t.nodes), Box::new(body))
            }
            Kind::Storm => {
                let body = move |ctx: &Ctx| {
                    sends(ctx, |c| {
                        for p in c.places() {
                            c.at_async(p, move |cc| storm_sender(cc, slots, seed, round));
                        }
                    })
                };
                (storm_expectation(seed, round, places), Box::new(body))
            }
            Kind::Fanout => {
                let order = fanout_order(seed, round, places);
                let body = move |ctx: &Ctx| {
                    sends(ctx, |c| {
                        for p in order {
                            c.at_async(PlaceId(p), move |cc| {
                                slots[cc.here().index()]
                                    .count
                                    .fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                };
                (Expected::PerPlace(vec![(1, 0); places]), Box::new(body))
            }
        };
        if self.corrupt_oracle {
            expected.corrupt();
        }
        (expected, body)
    }
}

/// Run `send_loop` under one default finish, timing the loop and the wait.
fn sends(ctx: &Ctx, send_loop: impl FnOnce(&Ctx)) -> Output {
    let started = Instant::now();
    let sent = ctx.finish(|c| {
        send_loop(c);
        Instant::now()
    });
    Output::Sends {
        started,
        sent,
        done: Instant::now(),
    }
}

/// A round's correct result.
#[derive(Debug, PartialEq)]
enum Expected {
    /// Total UTS nodes.
    Nodes(u64),
    /// Per place: updates received and the XOR of their payloads.
    PerPlace(Vec<(u64, u64)>),
}

impl Expected {
    fn units(&self) -> u64 {
        match self {
            Expected::Nodes(n) => *n,
            Expected::PerPlace(v) => v.iter().map(|c| c.0).sum(),
        }
    }

    fn corrupt(&mut self) {
        match self {
            Expected::Nodes(n) => *n += 1,
            Expected::PerPlace(v) => v[0].1 ^= 1,
        }
    }

    fn describe(&self) -> String {
        match self {
            Expected::Nodes(n) => format!("{n} nodes"),
            Expected::PerPlace(v) => {
                let x = v.iter().fold(0, |acc, c| acc ^ c.1);
                format!("{} updates, xor {x:016x}", self.units())
            }
        }
    }
}

/// The `i`-th storm destination and payload of `src`'s stream: any place
/// but `src`.
fn storm_draw(rng: &mut SplitMix, src: usize, places: usize) -> (usize, u64) {
    let r = rng.next();
    ((src + 1 + (r % (places as u64 - 1)) as usize) % places, r)
}

/// Place `here`'s share of a storm round: a seeded stream of tiny updates.
fn storm_sender(ctx: &Ctx, slots: &'static [Slot], seed: u64, round: u64) {
    let (me, places) = (ctx.here().index(), ctx.num_places());
    let mut rng = SplitMix::keyed(&[seed, round, me as u64]);
    for _ in 0..STORM_PER_PLACE {
        let (dest, val) = storm_draw(&mut rng, me, places);
        ctx.at_async(PlaceId(dest as u32), move |c| {
            let s = &slots[c.here().index()];
            s.count.fetch_add(1, Ordering::Relaxed);
            s.xor.fetch_xor(val, Ordering::Relaxed);
        });
    }
}

/// Replay every place's storm stream: per-place counts and XORs.
fn storm_expectation(seed: u64, round: u64, places: usize) -> Expected {
    let mut exp = vec![(0u64, 0u64); places];
    for src in 0..places {
        let mut rng = SplitMix::keyed(&[seed, round, src as u64]);
        for _ in 0..STORM_PER_PLACE {
            let (dest, val) = storm_draw(&mut rng, src, places);
            exp[dest].0 += 1;
            exp[dest].1 ^= val;
        }
    }
    Expected::PerPlace(exp)
}

/// A seeded permutation of the places (Fisher-Yates).
fn fanout_order(seed: u64, round: u64, places: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..places as u32).collect();
    let mut rng = SplitMix::keyed(&[seed, round, 0x6661_6e6f]);
    for i in (1..places).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Sequential node counts every catalogue tree falls within.
    const TREE_BAND: (u64, u64) = (165_000, 175_000);

    #[test]
    fn catalogue_trees_lie_in_the_band() {
        for &root in TREE_CATALOGUE {
            let n = uts::traverse(&geo_tree(root)).nodes;
            assert!(
                (TREE_BAND.0..=TREE_BAND.1).contains(&n),
                "catalogue tree {root} has {n} nodes"
            );
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let a = Inputs::generate(Kind::Uts, 7);
        let b = Inputs::generate(Kind::Uts, 7);
        let seeds = |i: &Inputs| i.trees.iter().map(|t| t.tree.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_eq!(fanout_order(7, 3, 256), fanout_order(7, 3, 256));
        assert_ne!(fanout_order(7, 3, 256), fanout_order(8, 3, 256));
        let mut sorted = fanout_order(7, 3, 256);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<u32>>());
    }

    #[test]
    fn storm_never_sends_to_itself() {
        let mut rng = SplitMix::keyed(&[1]);
        for src in 0..32 {
            for _ in 0..100 {
                assert_ne!(storm_draw(&mut rng, src, 32).0, src);
            }
        }
    }

    /// Rounds pass; with a corrupted expected result the same rounds fail
    /// and are counted, and the run goes on.
    fn corrupted_oracle_fails_rounds(kind: Kind) {
        let inputs = Arc::new(Inputs::generate(kind, 3));
        let mut bench = Bench::new(inputs, false, 0);
        for _ in 0..2 {
            let r = bench.round();
            assert!(r.error.is_none(), "{:?}", r.error);
            assert!(r.units > 0);
        }
        bench.corrupt_oracle();
        for _ in 0..2 {
            let r = bench.round();
            assert!(
                r.error.as_deref().unwrap_or("").contains("wrong result"),
                "{:?}",
                r.error
            );
            assert_eq!(r.units, 0);
        }
    }

    #[test]
    fn corrupted_oracle_fails_uts_rounds() {
        corrupted_oracle_fails_rounds(Kind::Uts);
    }

    #[test]
    fn corrupted_oracle_fails_storm_rounds() {
        corrupted_oracle_fails_rounds(Kind::Storm);
    }

    #[test]
    fn corrupted_oracle_fails_fanout_rounds() {
        corrupted_oracle_fails_rounds(Kind::Fanout);
    }
}
