//! The fixed seed corpus CI runs on every push: every finish protocol ×
//! workload seeds 0..4 × schedule seeds 0..3, each pinned to a golden
//! fingerprint. A failure here prints the one-line repro to paste into
//! `simfuzz --replay`.
//!
//! Conventions (see TESTING.md): the per-push corpus is small and *fixed*
//! — same seeds every run, so a red build is always reproducible; the
//! nightly `simfuzz` sweep walks fresh seed ranges for discovery.
//!
//! The fingerprints `(steps, deliveries, trace hash)` were recorded when
//! places were stepped as OS threads behind a condvar baton; every case
//! completed. Stepping place contexts reproduces them bit for bit, which is
//! what keeps old `SIM-REPRO` lines replaying across scheduler changes.

use apgas::FinishKind as K;
use sim::controller::{RunVerdict, SimOpts};
use sim::fuzz::{run_case, CaseSpec, ALL_KINDS};

/// `(kind, wseed, sseed, steps, deliveries, trace_hash)`.
const GOLDEN: [(K, u64, u64, u64, u64, u64); 84] = [
    (K::Default, 0, 0, 43, 22, 0x5c5ccefc5cf16a07),
    (K::Default, 0, 1, 40, 23, 0xcf1964275c831eab),
    (K::Default, 0, 2, 37, 20, 0xaa3bf1777b0cd905),
    (K::Default, 1, 0, 5, 2, 0x75ed3a7cccfb61b2),
    (K::Default, 1, 1, 5, 2, 0x75ed3a7cccfb61b2),
    (K::Default, 1, 2, 5, 2, 0x75ed3a7cccfb61b2),
    (K::Default, 2, 0, 37, 18, 0x1a702f7ba7c4af66),
    (K::Default, 2, 1, 33, 16, 0xdd4083fffb734696),
    (K::Default, 2, 2, 33, 16, 0x97d826ddee9575d6),
    (K::Default, 3, 0, 36, 19, 0x28afa658c831fa0a),
    (K::Default, 3, 1, 31, 16, 0x9806f892a7ac24c4),
    (K::Default, 3, 2, 35, 18, 0x82e300438ccdd807),
    (K::Local, 0, 0, 16, 0, 0xfacdc5acaceef525),
    (K::Local, 0, 1, 16, 0, 0xfacdc5acaceef525),
    (K::Local, 0, 2, 16, 0, 0xfacdc5acaceef525),
    (K::Local, 1, 0, 2, 0, 0x56277359bda9cd65),
    (K::Local, 1, 1, 2, 0, 0x56277359bda9cd65),
    (K::Local, 1, 2, 2, 0, 0x56277359bda9cd65),
    (K::Local, 2, 0, 15, 0, 0x0679b5c3ade783e4),
    (K::Local, 2, 1, 15, 0, 0x0679b5c3ade783e4),
    (K::Local, 2, 2, 15, 0, 0x0679b5c3ade783e4),
    (K::Local, 3, 0, 14, 0, 0xe8320bdf96536ae5),
    (K::Local, 3, 1, 14, 0, 0xe8320bdf96536ae5),
    (K::Local, 3, 2, 14, 0, 0xe8320bdf96536ae5),
    (K::Async, 0, 0, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 0, 1, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 0, 2, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 1, 0, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 1, 1, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 1, 2, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 2, 0, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 2, 1, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 2, 2, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 3, 0, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 3, 1, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Async, 3, 2, 5, 2, 0x25bf4a5640f4fb8c),
    (K::Here, 0, 0, 46, 25, 0xdb8a339517d31795),
    (K::Here, 0, 1, 45, 25, 0x749359d53ddfca34),
    (K::Here, 0, 2, 45, 25, 0xfcdf5ee1fb680a54),
    (K::Here, 1, 0, 5, 2, 0x06596e162a166c0e),
    (K::Here, 1, 1, 5, 2, 0x06596e162a166c0e),
    (K::Here, 1, 2, 5, 2, 0x06596e162a166c0e),
    (K::Here, 2, 0, 37, 18, 0xb60bd0faa88ad066),
    (K::Here, 2, 1, 35, 18, 0x5b147a8465a4b086),
    (K::Here, 2, 2, 35, 18, 0x4f0dcc1c84ec2f46),
    (K::Here, 3, 0, 36, 19, 0x6c4bc88614879fb6),
    (K::Here, 3, 1, 34, 19, 0x79fee8c4e9c50c56),
    (K::Here, 3, 2, 36, 19, 0xfd688eabf20cb5f6),
    (K::Spmd, 0, 0, 19, 2, 0x173015ab378dea4c),
    (K::Spmd, 0, 1, 19, 2, 0x0905944074a22a2c),
    (K::Spmd, 0, 2, 19, 2, 0x95012c66f789664c),
    (K::Spmd, 1, 0, 5, 2, 0x06596e162a166c0e),
    (K::Spmd, 1, 1, 5, 2, 0x06596e162a166c0e),
    (K::Spmd, 1, 2, 5, 2, 0x06596e162a166c0e),
    (K::Spmd, 2, 0, 19, 4, 0x2a32580e4e1dd025),
    (K::Spmd, 2, 1, 20, 4, 0xa4e35ba32f8aa4c4),
    (K::Spmd, 2, 2, 19, 4, 0xcfb6113708e4a745),
    (K::Spmd, 3, 0, 20, 4, 0x5b591ea131f9aa27),
    (K::Spmd, 3, 1, 20, 4, 0x3181d07dbfb828a7),
    (K::Spmd, 3, 2, 20, 4, 0x8b406da773ab2b27),
    (K::Dense, 0, 0, 46, 25, 0xb6bd4553d8f27dda),
    (K::Dense, 0, 1, 47, 24, 0x92e9b304245beac5),
    (K::Dense, 0, 2, 47, 25, 0xf964196f08e368db),
    (K::Dense, 1, 0, 7, 3, 0x8c3a9880e9ace93e),
    (K::Dense, 1, 1, 7, 3, 0x8c3a9880e9ace93e),
    (K::Dense, 1, 2, 7, 3, 0x8c3a9880e9ace93e),
    (K::Dense, 2, 0, 39, 19, 0xe5bddd33a24af8ea),
    (K::Dense, 2, 1, 35, 17, 0x4799c77ea354ba1a),
    (K::Dense, 2, 2, 35, 17, 0x45c7c1c65c31f1da),
    (K::Dense, 3, 0, 38, 20, 0x721c53093ca6de36),
    (K::Dense, 3, 1, 35, 20, 0xbaceaf51b07d8995),
    (K::Dense, 3, 2, 42, 21, 0xa97bdecef5319858),
    (K::Resilient, 0, 0, 45, 25, 0x40a256234d604a39),
    (K::Resilient, 0, 1, 42, 23, 0x96f1627117249ba8),
    (K::Resilient, 0, 2, 47, 26, 0x76c4abd1547ab0c6),
    (K::Resilient, 1, 0, 9, 4, 0x3e9238438a8ca442),
    (K::Resilient, 1, 1, 9, 4, 0x92055f21512303c2),
    (K::Resilient, 1, 2, 9, 4, 0x3e9238438a8ca442),
    (K::Resilient, 2, 0, 37, 18, 0xe070e33a889a5b06),
    (K::Resilient, 2, 1, 37, 18, 0x0d80d999771b4fb4),
    (K::Resilient, 2, 2, 37, 18, 0x1202d3bb00a71bc6),
    (K::Resilient, 3, 0, 40, 21, 0x5ccafce27159813a),
    (K::Resilient, 3, 1, 37, 20, 0xdea95d90c01c1fb7),
    (K::Resilient, 3, 2, 37, 20, 0xcd785813014c52f7),
];

#[test]
fn fixed_corpus_matches_golden_fingerprints() {
    let opts = SimOpts::default();
    let mut diverged = Vec::new();
    for (kind, wseed, sseed, steps, deliveries, hash) in GOLDEN {
        let spec = CaseSpec::new(kind, 4, wseed, sseed);
        let res = run_case(&spec, &opts);
        let got = (
            res.report.verdict,
            res.report.steps,
            res.report.deliveries,
            res.report.trace_hash,
        );
        if res.failure.is_some() || got != (RunVerdict::Completed, steps, deliveries, hash) {
            diverged.push(format!(
                "got {got:x?}, want ({steps}, {deliveries}, {hash:#x}); failure {:?}\nrepro: {}",
                res.failure,
                spec.repro_line(&res.report.choices)
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "corpus diverged:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn corpus_covers_single_place_runtimes() {
    // places=1 degenerates every protocol to local accounting; the sim
    // must handle a network with no cross-place traffic at all.
    for kind in ALL_KINDS {
        let spec = CaseSpec::new(kind, 1, 2, 0);
        let res = run_case(&spec, &SimOpts::default());
        assert_eq!(res.failure, None, "{}: {:?}", kind.label(), res.failure);
    }
}

#[test]
fn corpus_covers_wide_runtimes() {
    // 8 places / 2 per host: four hosts, so FINISH_DENSE routes through
    // real intermediate masters.
    for kind in ALL_KINDS {
        let spec = CaseSpec {
            max_nodes: 20,
            ..CaseSpec::new(kind, 8, 3, 1)
        };
        let res = run_case(&spec, &SimOpts::default());
        assert_eq!(res.failure, None, "{}: {:?}", kind.label(), res.failure);
    }
}
