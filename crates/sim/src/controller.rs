//! The schedule controller: single-steps a deterministic runtime.
//!
//! Every place of a deterministic runtime is a context that only the
//! controller resumes, on the controller's own thread, one scheduling
//! quantum per [`Runtime::step`]. Between controller actions *nothing* in
//! the runtime moves. Each iteration the controller enumerates the
//! **enabled actions** —
//!
//! * `Deliver(channel)` for every nonempty in-flight channel of the
//!   [`SimTransport`], and
//! * `Step(place)` for every place with a nonempty mailbox or activity
//!   queue —
//!
//! asks the [`Chooser`] to pick one, and performs it. When no action is
//! enabled the run has either quiesced (the main activity ended) or
//! deadlocked; deadlock converts into a clean shutdown, not a hang.
//!
//! Determinism argument: the controller's thread is the only one that runs
//! places, the main activity included, so the runtime's state changes only
//! inside the actions it performs. The enabled set is computed from that
//! state; its enumeration order is sorted; and whether the main activity
//! has ended is only consulted when no actions remain. Hence the whole run
//! is a pure function of `(workload, chooser)` — which is the record/replay
//! property.

use crate::schedule::Chooser;
use crate::transport::{ChannelKey, SimTransport};
use apgas::runtime::FinishResidue;
use apgas::{ApgasError, Config, Ctx, Runtime};
use std::sync::Arc;
use x10rt::{MsgClass, PlaceId, Transport};

/// Tunables for one simulated run.
#[derive(Clone, Copy, Debug)]
pub struct SimOpts {
    /// Schedule budget: total actions (steps + deliveries) before the run
    /// is abandoned with [`RunVerdict::Budget`].
    pub max_steps: u64,
    /// Adversarial-kill budget: how many `Kill(place)` actions the
    /// controller may offer the chooser. While budget remains, a kill of
    /// every still-alive non-zero place is enabled at *every* decision
    /// point — so the chooser can strike between any two protocol messages
    /// (e.g. between a DenseHop and its CreditReturn). Place 0 (workload
    /// home) is never a victim. Zero (the default) disables kills.
    pub kill_budget: u32,
}

impl Default for SimOpts {
    fn default() -> Self {
        SimOpts {
            max_steps: 100_000,
            kill_budget: 0,
        }
    }
}

/// How a simulated run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunVerdict {
    /// The workload completed and every remaining message drained.
    Completed,
    /// No enabled actions, workload still waiting: termination detection
    /// (or the workload itself) is stuck.
    Deadlock,
    /// The schedule budget ran out first.
    Budget,
    /// The runtime began shutting down under the controller — a worker
    /// died (protocol-bug panic) or shutdown was requested externally.
    Aborted,
}

/// What one driven schedule did.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// How the run ended.
    pub verdict: RunVerdict,
    /// Total schedule actions performed.
    pub steps: u64,
    /// How many of those were deliveries.
    pub deliveries: u64,
    /// How many were place kills (kill-schedule runs; see
    /// [`SimOpts::kill_budget`]).
    pub kills: u32,
    /// Every choice the controller resolved, in order — replaying this log
    /// reproduces the run exactly.
    pub choices: Vec<u32>,
    /// The causal trace hash at the end of the run.
    pub trace_hash: u64,
}

#[derive(Clone, Copy, Debug)]
enum Action {
    Deliver(ChannelKey),
    Step(u32),
    /// Kill this place right here, between two schedule actions — the
    /// adversarial fault: the chooser decides not just *whether* a place
    /// dies but *at which protocol point*.
    Kill(u32),
}
fn enabled(rt: &Runtime, sim: &SimTransport, kills_left: u32) -> Vec<Action> {
    let mut acts: Vec<Action> = sim.deliverable().into_iter().map(Action::Deliver).collect();
    for p in 0..rt.places() as u32 {
        // A dead place is frozen: its queued work never runs again, so a
        // quantum there would be a wasted (and misleading) choice. Pending
        // resilient recovery counts as work: adoption runs inside the
        // waiting worker's quantum, invisible to queue/mailbox checks.
        if (rt.place_has_work(PlaceId(p)) || rt.place_needs_recovery(PlaceId(p)))
            && !sim.is_dead(PlaceId(p))
        {
            acts.push(Action::Step(p));
        }
    }
    // Kills ride alongside real work, never alone: offering Kill as the
    // only enabled action would keep the run from ever quiescing (the
    // empty-action set is the completion/deadlock signal).
    if kills_left > 0 && !acts.is_empty() {
        for p in 1..rt.places() as u32 {
            if !sim.is_dead(PlaceId(p)) {
                acts.push(Action::Kill(p));
            }
        }
    }
    acts
}

/// Drive `rt` (built deterministic over `sim`) until the main activity is
/// `done`, deadlock, budget exhaustion, or abort. See the module docs for
/// the determinism argument.
fn drive(
    rt: &Runtime,
    sim: &SimTransport,
    chooser: &mut Chooser,
    opts: &SimOpts,
    done: &dyn Fn() -> bool,
) -> ScheduleReport {
    let mut steps = 0u64;
    let mut deliveries = 0u64;
    let mut kills = 0u32;
    let mut kills_left = opts.kill_budget;
    let verdict = loop {
        let acts = enabled(rt, sim, kills_left);
        if acts.is_empty() {
            // A fault layer may be holding delayed envelopes (or unfired
            // scripted events) that nothing visible accounts for; its clock
            // only advances on traffic, so with the network quiet we must
            // advance it by hand until something becomes enabled again.
            // The poke policy depends only on controller-visible state, so
            // replay determinism survives.
            if rt.fault_backlog() > 0 {
                let mut pokes = 0u32;
                while rt.fault_backlog() > 0
                    && enabled(rt, sim, kills_left).is_empty()
                    && pokes < 1_000_000
                {
                    rt.fault_poke();
                    pokes += 1;
                }
                if !enabled(rt, sim, kills_left).is_empty() {
                    continue;
                }
            }
            // Nothing can move: the main activity ended, or it waits for
            // something no action can bring.
            break if done() {
                RunVerdict::Completed
            } else {
                RunVerdict::Deadlock
            };
        }
        if steps >= opts.max_steps {
            break RunVerdict::Budget;
        }
        match acts[chooser.choose(acts.len())] {
            Action::Deliver(key) => {
                sim.deliver(key);
                deliveries += 1;
            }
            Action::Step(p) => {
                sim.record_step(p);
                if !rt.step(PlaceId(p)) {
                    break RunVerdict::Aborted;
                }
            }
            Action::Kill(p) => {
                sim.record_kill(p);
                rt.kill_place(PlaceId(p));
                kills_left -= 1;
                kills += 1;
            }
        }
        steps += 1;
    };
    if verdict != RunVerdict::Completed {
        // Convert the stuck run into a clean teardown: blocked waits abort
        // with the shutdown panic instead of hanging the harness.
        rt.request_shutdown();
    }
    ScheduleReport {
        verdict,
        steps,
        deliveries,
        kills,
        choices: chooser.log().to_vec(),
        trace_hash: sim.trace_hash(),
    }
}

/// Everything one simulated run produced: the workload's result, every
/// panic, the schedule report, and the post-run oracle inputs.
pub struct SimRun<R> {
    /// The workload result, typed as `run_checked` would return it: `None`
    /// when the main activity panicked with something other than a runtime
    /// error (message in [`SimRun::panics`]) or never ran.
    pub result: Option<Result<R, ApgasError>>,
    /// Main-activity and worker panic messages, in capture order.
    pub panics: Vec<String>,
    /// What the schedule did.
    pub report: ScheduleReport,
    /// Residual finish-protocol state after the run.
    pub residue: FinishResidue,
    /// [`SimRun::residue`] restricted to places still alive — the
    /// quiescence oracle for kill schedules (a dead place legitimately
    /// strands frozen proxies and dense buffers).
    pub residue_alive: FinishResidue,
    /// FinishCtl envelopes still in channels or mailboxes after the run.
    pub residual_ctl: usize,
    /// The envelope ledger at the end of the run.
    pub ledger: crate::transport::Ledger,
    /// The full delivery log (route-legality oracles).
    pub log: Vec<crate::transport::DeliveryRecord>,
    /// Chrome-trace JSON, when the config had tracing enabled (failure
    /// artifacts).
    pub trace_json: Option<String>,
}

/// Run `body` as the main activity of a deterministic runtime over `sim`,
/// driving the schedule with `chooser`. The configuration is forced
/// deterministic; a fault plan in `cfg` wraps `sim` in a `FaultTransport`,
/// composing fault injection with schedule control.
pub fn run_sim<R: Send + 'static>(
    cfg: Config,
    opts: &SimOpts,
    chooser: &mut Chooser,
    sim: Arc<SimTransport>,
    body: impl FnOnce(&Ctx) -> R + Send + 'static,
) -> SimRun<R> {
    let want_trace = cfg.trace_enable;
    let rt = Runtime::with_transport(cfg.deterministic(true), sim.clone());
    // The main activity is enqueued before the first choice and runs on
    // place 0's context like any other activity, so its end is visible the
    // moment the quantum that ends it returns.
    let outcome = rt.start(body);
    let report = drive(&rt, &sim, chooser, opts, &|| !outcome.is_empty());
    // A run that did not complete was shut down, which unwound the main
    // activity out of its waits; it has no outcome only if it never ran.
    let (result, workload_panic) = match outcome.try_recv() {
        Ok(Ok(r)) => (Some(Ok(r)), None),
        Ok(Err(e)) => match ApgasError::from_panic(&*e) {
            Some(err) => (Some(Err(err)), None),
            None => (None, Some(apgas::panic_message(e))),
        },
        Err(_) => (None, None),
    };
    let mut panics: Vec<String> = workload_panic.into_iter().collect();
    panics.extend(rt.take_uncounted_panics());
    SimRun {
        result,
        panics,
        residue: rt.finish_residue(),
        residue_alive: rt.finish_residue_alive(),
        residual_ctl: sim.residual(MsgClass::FinishCtl),
        ledger: sim.ledger(),
        log: sim.delivery_log(),
        trace_json: if want_trace {
            rt.chrome_trace_json()
        } else {
            None
        },
        report,
    }
}
