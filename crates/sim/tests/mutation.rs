//! Mutation smoke test: prove the fuzzer has teeth. We install a known
//! protocol bug at the transport (silently drop the first FinishCtl
//! envelope — a lost termination-detection delta) and require that
//!
//! 1. the schedule sweep catches it within a bounded budget of cases,
//! 2. delta-debug shrinking yields a *smaller* failing schedule, and
//! 3. the shrunk repro still replays to a failure (and the same schedule
//!    passes once the bug is removed).

use apgas::{FinishKind, MsgClass};
use sim::controller::SimOpts;
use sim::fuzz::{parse_repro, run_case_with, shrink, CaseSpec};
use sim::schedule::Chooser;
use sim::transport::Mutation;

const BUG: Mutation = Mutation::DropNth {
    class: MsgClass::FinishCtl,
    nth: 0,
};

#[test]
fn dropped_finish_ctl_is_caught_shrunk_and_replayed() {
    chaos::install_quiet_panic_hook();
    let opts = SimOpts::default();
    const CASE_BUDGET: u64 = 8;

    // 1. The sweep must catch the bug within the case budget.
    let mut caught: Option<(CaseSpec, Vec<u32>, String)> = None;
    for sseed in 0..CASE_BUDGET {
        let spec = CaseSpec::new(FinishKind::Dense, 4, 0, sseed);
        let res = run_case_with(&spec, Chooser::seeded(sseed), Some(BUG), &opts, false);
        if let Some(f) = res.failure {
            caught = Some((spec, res.report.choices, f));
            break;
        }
    }
    let (spec, choices, failure) = caught.expect("a dropped FinishCtl delta must be caught");
    assert!(
        failure.contains("Deadlock") || failure.contains("residual") || failure.contains("ledger"),
        "the failure should implicate termination detection: {failure}"
    );

    // 2. Shrinking must not grow the schedule, and the result must be the
    // canonical short form.
    let small = shrink(&spec, &choices, Some(BUG), &opts, 40);
    assert!(
        small.len() <= choices.len(),
        "shrink grew the schedule: {} -> {}",
        choices.len(),
        small.len()
    );

    // 3. The shrunk repro line round-trips and still fails under the bug...
    let line = spec.repro_line(&small);
    let (spec2, small2) = parse_repro(&line).expect("repro line parses");
    let replay = run_case_with(
        &spec2,
        Chooser::replay(small2.clone()),
        Some(BUG),
        &opts,
        false,
    );
    assert!(
        replay.failure.is_some(),
        "shrunk repro no longer reproduces: {line}"
    );
    // ... and passes with the bug removed — the failure is the mutation's.
    let clean = run_case_with(&spec2, Chooser::replay(small2), None, &opts, false);
    assert_eq!(
        clean.failure, None,
        "the shrunk schedule must be legal without the mutation"
    );
}

#[test]
fn dropped_task_message_is_caught_too() {
    chaos::install_quiet_panic_hook();
    // Losing a Task envelope (a spawned activity that never arrives) must
    // also fail: either the finish wedges or the sum comes up short.
    let bug = Mutation::DropNth {
        class: MsgClass::Task,
        nth: 0,
    };
    let opts = SimOpts::default();
    let found = (0..8u64).any(|sseed| {
        let spec = CaseSpec::new(FinishKind::Default, 4, 1, sseed);
        run_case_with(&spec, Chooser::seeded(sseed), Some(bug), &opts, false)
            .failure
            .is_some()
    });
    assert!(found, "a dropped Task envelope must be caught");
}
