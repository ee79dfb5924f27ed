//! `sim` — deterministic-schedule simulation (DST) for the APGAS runtime.
//!
//! The threaded runtime interleaves work however the OS pleases; a
//! termination-detection bug that needs one specific reordering of control
//! messages may survive thousands of stress runs. This crate removes the OS
//! from the picture: a [`SimTransport`] holds every
//! sent envelope **in flight** until a central controller delivers it, and
//! the runtime's places (built with `Config::deterministic`) only execute
//! inside quanta the controller steps. Every interleaving decision is one
//! integer drawn from a seeded stream — so a whole distributed execution is
//! a pure function of `(workload seed, schedule seed)`, replayable
//! bit-for-bit and *shrinkable* when it fails.
//!
//! Layers, bottom-up:
//!
//! * [`rng`] — SplitMix64, the only entropy source;
//! * [`transport`] — the simulated network: in-flight channels, virtual
//!   time, the causal trace hash, the envelope ledger, mutations;
//! * [`schedule`] — the [`Chooser`]: seeded / replayed
//!   decision streams and the recorded choice log;
//! * [`controller`] — [`run_sim`]: single-stepping of the place
//!   contexts, quiescence / deadlock verdicts;
//! * [`workload`] — random spawn trees, per-protocol legalization, and the
//!   sequential reference model;
//! * [`fuzz`] — cases, oracles, delta-debug shrinking, one-line repros.
//!
//! Composition with fault injection: put a `FaultPlan` in the `Config` and
//! the runtime wraps the sim transport in a `FaultTransport`, so seeded
//! faults and seeded schedules explore together (see
//! `tests/determinism.rs`).
//!
//! The `simfuzz` binary sweeps a seed corpus in CI; see `TESTING.md` at the
//! repo root for tier conventions and replay instructions.

pub mod controller;
pub mod fuzz;
pub mod rng;
pub mod schedule;
pub mod transport;
pub mod workload;

pub use controller::{run_sim, RunVerdict, ScheduleReport, SimOpts, SimRun};
pub use fuzz::{
    ctl_expectation, parse_repro, run_case, run_case_replay, run_case_with, shrink, CaseResult,
    CaseSpec, ALL_KINDS,
};
pub use rng::SplitMix64;
pub use schedule::{fmt_choices, parse_choices, Chooser};
pub use transport::{ChannelKey, DeliveryRecord, Ledger, Mutation, SimTransport};
pub use workload::{run_tree, ModelExpect, TreeNode, TreeSpec};
