//! Adversarial kill schedules for FINISH_RESILIENT: the chooser may kill
//! any non-zero place *between any two schedule actions* — including
//! between a protocol message and its follow-up (a DenseHop and its
//! CreditReturn, a delta flush and its receipt) — and the run must still
//! complete, return `Ok`, and leave no finish state on surviving places.
//!
//! The mutation-smoke half proves the corpus has teeth: with the adoption
//! path deliberately disabled (`Config::resilient_finish(false)`, spelled
//! `mutation=broken-adoption` on repro lines), the same corpus must catch
//! the kill as a failure, shrink it, and replay the shrunk schedule
//! deterministically.

use apgas::FinishKind;
use sim::controller::SimOpts;
use sim::fuzz::{parse_repro, run_case, run_case_with, shrink, CaseSpec};
use sim::schedule::Chooser;

fn kill_spec(wseed: u64, sseed: u64) -> CaseSpec {
    CaseSpec {
        kills: 1,
        ..CaseSpec::new(FinishKind::Resilient, 4, wseed, sseed)
    }
}

#[test]
fn resilient_survives_the_seeded_kill_corpus() {
    chaos::install_quiet_panic_hook();
    let opts = SimOpts::default();
    let mut killed_runs = 0;
    let mut mid_protocol_kills = 0;
    for wseed in 0..3u64 {
        for sseed in 0..6u64 {
            let spec = kill_spec(wseed, sseed);
            let res = run_case(&spec, &opts);
            assert_eq!(
                res.failure,
                None,
                "kill schedule not survived: {:?}\nrepro: {}",
                res.failure,
                spec.repro_line(&res.report.choices)
            );
            if res.report.kills > 0 {
                killed_runs += 1;
                // A kill after deliveries have started struck between two
                // protocol messages — the adversarial point the tentpole
                // demands survives.
                if res.report.deliveries > 0 {
                    mid_protocol_kills += 1;
                }
            }
        }
    }
    assert!(
        killed_runs >= 6,
        "corpus exercised too few kills ({killed_runs}/18 runs): the chooser should strike often"
    );
    assert!(
        mid_protocol_kills >= 3,
        "no kills landed mid-protocol ({mid_protocol_kills}); the corpus must cover kills between protocol messages"
    );
}

#[test]
fn resilient_survives_kills_on_wide_runtimes() {
    chaos::install_quiet_panic_hook();
    // 8 places / 2 per host with a 2-kill budget: multiple hosts can lose
    // a place, including the backup place (place 1) itself.
    let opts = SimOpts::default();
    for sseed in 0..4u64 {
        let spec = CaseSpec {
            kills: 2,
            max_nodes: 20,
            ..CaseSpec::new(FinishKind::Resilient, 8, 3, sseed)
        };
        let res = run_case(&spec, &opts);
        assert_eq!(
            res.failure,
            None,
            "wide kill schedule not survived: {:?}\nrepro: {}",
            res.failure,
            spec.repro_line(&res.report.choices)
        );
    }
}

#[test]
fn broken_adoption_is_caught_shrunk_and_replayed() {
    chaos::install_quiet_panic_hook();
    let opts = SimOpts::default();
    const CASE_BUDGET: u64 = 16;

    // 1. With adoption disabled, the kill corpus must catch the wedge
    // within a bounded case budget.
    let mut caught: Option<(CaseSpec, Vec<u32>, String)> = None;
    for sseed in 0..CASE_BUDGET {
        let spec = CaseSpec {
            break_adoption: true,
            ..kill_spec(0, sseed)
        };
        let res = run_case(&spec, &opts);
        if let Some(f) = res.failure {
            assert!(
                res.report.kills > 0,
                "broken adoption can only fail via a kill, but none happened: {f}"
            );
            caught = Some((spec, res.report.choices, f));
            break;
        }
    }
    let (spec, choices, failure) =
        caught.expect("a kill under broken adoption must be caught within the corpus");
    assert!(
        failure.contains("Deadlock") || failure.contains("kill not survived"),
        "the failure should implicate the missing adoption path: {failure}"
    );

    // 2. Shrinking must not grow the schedule.
    let small = shrink(&spec, &choices, None, &opts, 40);
    assert!(
        small.len() <= choices.len(),
        "shrink grew the schedule: {} -> {}",
        choices.len(),
        small.len()
    );

    // 3. The repro line carries the kill-schedule fields and round-trips.
    let line = spec.repro_line(&small);
    assert!(line.contains("kills=1") && line.contains("mutation=broken-adoption"));
    let (spec2, small2) = parse_repro(&line).expect("repro line parses");
    assert!(spec2.break_adoption && spec2.kills == 1);

    // 4. The shrunk repro replays deterministically: same failure, twice.
    let a = run_case_with(&spec2, Chooser::replay(small2.clone()), None, &opts, false);
    let b = run_case_with(&spec2, Chooser::replay(small2.clone()), None, &opts, false);
    let fa = a.failure.expect("shrunk repro no longer reproduces");
    let fb = b.failure.expect("second replay diverged to a pass");
    assert_eq!(fa, fb, "replay is not deterministic");

    // 5. The identical schedule with adoption restored passes — the
    // failure is the mutation's, not the schedule's.
    let fixed = CaseSpec {
        break_adoption: false,
        ..spec2
    };
    let clean = run_case_with(&fixed, Chooser::replay(small2), None, &opts, false);
    assert_eq!(
        clean.failure, None,
        "the shrunk kill schedule must be survived once adoption is back"
    );
}
