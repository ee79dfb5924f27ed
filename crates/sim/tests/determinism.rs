//! Record/replay determinism: a simulated run is a pure function of
//! `(workload seed, schedule seed)` (the fixed corpus in `fuzz_corpus.rs`
//! pins 84 of them to golden fingerprints), and replaying its recorded
//! choice log reproduces the causal trace hash bit-for-bit — including when
//! a seeded `FaultTransport` sits between the runtime and the simulated
//! network.

use apgas::{ClassFaults, Config, FaultPlan, FinishKind, PlaceId};
use sim::controller::{run_sim, RunVerdict, SimOpts};
use sim::fuzz::{run_case, run_case_replay, CaseSpec};
use sim::schedule::Chooser;
use sim::transport::SimTransport;
use sim::workload::{run_tree, TreeSpec};
use std::sync::Arc;

/// One deterministic FINISH_DEFAULT run of a seeded `nodes`-node tree over
/// `places` (`pph` per host), optionally with `executors` executor threads
/// configured; returns the schedule fingerprint.
fn tree_run(
    (places, pph, nodes): (usize, usize, usize),
    executors: Option<usize>,
    wseed: u64,
    sseed: u64,
) -> (RunVerdict, u64, u64, Option<u64>) {
    let tree = TreeSpec::generate(wseed, places, nodes).legalize(FinishKind::Default);
    // Individual envelopes, as everywhere in the sim harness: the controller
    // cannot see coalescer-buffered messages, so batching reads as deadlock.
    let mut cfg = Config::new(places).places_per_host(pph).batch_disable(true);
    if let Some(n) = executors {
        cfg = cfg.executor_threads(n);
    }
    let sim = Arc::new(SimTransport::new(places));
    let mut chooser = Chooser::seeded(sseed);
    let run = run_sim(cfg, &SimOpts::default(), &mut chooser, sim, move |ctx| {
        run_tree(ctx, FinishKind::Default, &tree)
    });
    let result = match run.result {
        Some(Ok(v)) => Some(v),
        _ => None,
    };
    (
        run.report.verdict,
        run.report.trace_hash,
        run.report.deliveries,
        result,
    )
}

#[test]
fn wide_run_matches_its_golden_fingerprint() {
    // 256 place contexts, with `executor_threads` set (deterministic mode
    // ignores it): the run must reproduce its golden `(verdict, trace
    // hash, deliveries)` — pinned like the corpus in `fuzz_corpus.rs` —
    // and the model's sum.
    let model = TreeSpec::generate(0xD57, 256, 48)
        .legalize(FinishKind::Default)
        .model();
    assert_eq!(
        tree_run((256, 8, 48), Some(2), 0xD57, 0x256),
        (
            RunVerdict::Completed,
            0x3714_8b1e_edf4_2afd,
            88,
            Some(model.sum)
        )
    );
}

#[test]
fn executor_threads_leave_deterministic_runs_unchanged() {
    // The corpus case FINISH_DEFAULT / 4 places, 2 per host / wseed 0 /
    // sseed 0 once crashed or hung in 4 of 10 runs on two executor
    // threads. The controller resumes every place context itself, so the
    // setting must change nothing: 20 runs, each with the plain run's
    // fingerprint and its golden trace hash (see `fuzz_corpus.rs`).
    let corpus_shape = (4, 2, 16);
    let plain = tree_run(corpus_shape, None, 0, 0);
    assert_eq!(
        (plain.0, plain.1),
        (RunVerdict::Completed, 0x5c5c_cefc_5cf1_6a07)
    );
    for i in 0..20 {
        assert_eq!(
            tree_run(corpus_shape, Some(2), 0, 0),
            plain,
            "run {i} diverged"
        );
    }
}

#[test]
fn replaying_the_choice_log_reproduces_the_run() {
    let spec = CaseSpec::new(FinishKind::Dense, 4, 7, 3);
    let opts = SimOpts::default();
    let rec = run_case(&spec, &opts);
    assert_eq!(rec.failure, None, "{:?}", rec.failure);
    let rep = run_case_replay(&spec, &rec.report.choices, &opts, false);
    assert_eq!(rep.failure, None, "{:?}", rep.failure);
    assert_eq!(
        rec.report.trace_hash, rep.report.trace_hash,
        "replay must reproduce the recorded causal trace exactly"
    );
    assert_eq!(rec.report.deliveries, rep.report.deliveries);
    assert_eq!(rec.class_messages, rep.class_messages);
}

/// Run one workload under a fault plan over the sim transport and return
/// (verdict, trace hash, result).
fn faulted_run(plan: FaultPlan, sseed: u64) -> (RunVerdict, u64, Option<u64>) {
    let tree = TreeSpec::generate(11, 4, 12).legalize(FinishKind::Default);
    let cfg = Config::new(4)
        .places_per_host(2)
        .batch_disable(true)
        .fault_plan(plan);
    let sim = Arc::new(SimTransport::new(4));
    let mut chooser = Chooser::seeded(sseed);
    let run = run_sim(cfg, &SimOpts::default(), &mut chooser, sim, move |ctx| {
        run_tree(ctx, FinishKind::Default, &tree)
    });
    let result = match run.result {
        Some(Ok(v)) => Some(v),
        _ => None,
    };
    (run.report.verdict, run.report.trace_hash, result)
}

#[test]
fn composes_with_delay_and_duplicate_faults() {
    // Delays and duplicates preserve delivery semantics, so the run must
    // still complete with the model's sum — and stay deterministic.
    let plan = || {
        FaultPlan::new(0xFA17)
            .all_classes(ClassFaults {
                delay: 0.4,
                duplicate: 0.2,
                ..Default::default()
            })
            .delay_steps(1, 8)
    };
    let model = TreeSpec::generate(11, 4, 12)
        .legalize(FinishKind::Default)
        .model();
    let (va, ha, ra) = faulted_run(plan(), 21);
    let (vb, hb, rb) = faulted_run(plan(), 21);
    assert_eq!(va, RunVerdict::Completed);
    assert_eq!(ra, Some(model.sum), "faults must not change the result");
    assert_eq!((va, ha, ra), (vb, hb, rb), "faulted runs must replay");
}

#[test]
fn arena_toggle_is_invisible_to_the_simulated_schedule() {
    // The envelope arena only recycles allocations — it must not change a
    // single scheduling decision or message. Replaying the same seeds with
    // recycling on and off has to produce bit-identical causal traces.
    // Coalescing runs with `max_msgs = 1` — every send takes the buffer-swap
    // flush path through the arena immediately, which both exercises the
    // machinery under test and keeps buffers empty between quanta (the sim
    // controller cannot see coalescer-buffered messages, so lingering
    // buffers would read as deadlock).
    let run = |arena_off: bool| {
        let tree = TreeSpec::generate(13, 4, 10).legalize(FinishKind::Default);
        let cfg = Config::new(4)
            .places_per_host(2)
            .batch_max_msgs(1)
            .arena_disable(arena_off);
        let sim = Arc::new(SimTransport::new(4));
        let mut chooser = Chooser::seeded(9);
        let run = run_sim(cfg, &SimOpts::default(), &mut chooser, sim, move |ctx| {
            run_tree(ctx, FinishKind::Default, &tree)
        });
        (
            run.report.verdict,
            run.report.trace_hash,
            run.report.deliveries,
            run.report.choices.clone(),
        )
    };
    let on = run(false);
    let off = run(true);
    assert_eq!(on.0, RunVerdict::Completed);
    assert_eq!(on, off, "arena recycling changed the simulated schedule");
}

#[test]
fn codec_mode_is_invisible_to_the_simulated_schedule() {
    // `CodecMode::Bytes` serializes every protocol message at the send site
    // (PROTOCOL.md) instead of shipping typed inline payloads — but it must
    // produce the same envelope stream: same modeled bytes, same message
    // count, same scheduling decisions. Replaying the same seeds under both
    // codecs has to yield bit-identical causal traces and results.
    let run = |codec: apgas::CodecMode| {
        let tree = TreeSpec::generate(12, 4, 11).legalize(FinishKind::Default);
        let cfg = Config::new(4).places_per_host(2).codec(codec);
        let sim = Arc::new(SimTransport::new(4));
        let mut chooser = Chooser::seeded(17);
        let run = run_sim(cfg, &SimOpts::default(), &mut chooser, sim, move |ctx| {
            run_tree(ctx, FinishKind::Default, &tree)
        });
        (
            run.report.verdict,
            run.report.trace_hash,
            run.report.deliveries,
            run.report.choices.clone(),
            match run.result {
                Some(Ok(v)) => Some(v),
                _ => None,
            },
        )
    };
    let inline = run(apgas::CodecMode::Inline);
    let bytes = run(apgas::CodecMode::Bytes);
    assert_eq!(inline.0, RunVerdict::Completed);
    assert_eq!(inline, bytes, "serializing changed the simulated schedule");
}

#[test]
fn scripted_kill_fails_gracefully_and_deterministically() {
    chaos::install_quiet_panic_hook();
    // Killing a place mid-run generally wedges termination detection; the
    // controller must convert that into a verdict, not a hang, and two
    // identical runs must agree on everything.
    let plan = || FaultPlan::new(1).kill_place(PlaceId(2), 25);
    let (va, ha, ra) = faulted_run(plan(), 4);
    let (vb, hb, rb) = faulted_run(plan(), 4);
    assert_eq!((va, ha, ra), (vb, hb, rb), "kill runs must replay");
    assert_ne!(va, RunVerdict::Budget, "kill must not burn the budget");
}
