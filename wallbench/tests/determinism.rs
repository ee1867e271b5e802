//! The benchmark's own self-tests: its simulated numbers are a behaviour
//! guard, so they must repeat exactly for a seed, move with the seed, and
//! not depend on whether the agents are wrapped for tracing.

use tacoma_wallbench::run::{run_pass, Outcome, Pass};
use tacoma_wallbench::{workload, Size, WORKLOADS};

fn pass(name: &str, seed: u64, traced: bool) -> Pass {
    let w = workload(name, seed, 0, Size::Small).expect("known workload");
    run_pass(w.as_ref(), traced).unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"))
}

/// What a run reports from simulated time: the kernel's counters, the waits
/// and the failure share.
fn simulated(o: &Outcome) -> impl PartialEq + std::fmt::Debug {
    (
        o.stats,
        o.events,
        o.checked.clone(),
        o.fail_ratio().to_bits(),
    )
}

#[test]
fn same_seed_repeats_every_simulated_number() {
    for name in WORKLOADS {
        let a = pass(name, 7, false).outcome;
        let b = pass(name, 7, false).outcome;
        assert_eq!(a, b, "{name}: two passes over seed 7 differ");
        assert!(a.stats.meets_requested > 0, "{name}: nothing was requested");
    }
}

#[test]
fn another_seed_changes_the_simulated_numbers() {
    for name in WORKLOADS {
        let a = pass(name, 7, false).outcome;
        let b = pass(name, 8, false).outcome;
        assert_ne!(simulated(&a), simulated(&b), "{name}: seeds 7 and 8 agree");
    }
}

#[test]
fn input_sets_of_one_seed_differ() {
    for name in WORKLOADS {
        let w0 = workload(name, 7, 0, Size::Small).expect("known workload");
        let w1 = workload(name, 7, 1, Size::Small).expect("known workload");
        let a = run_pass(w0.as_ref(), false).expect("set 0 passes its checks");
        let b = run_pass(w1.as_ref(), false).expect("set 1 passes its checks");
        assert_ne!(simulated(&a.outcome), simulated(&b.outcome), "{name}");
    }
}

#[test]
fn tracing_does_not_change_behaviour() {
    for name in WORKLOADS {
        let plain = pass(name, 11, false);
        let traced = pass(name, 11, true);
        assert_eq!(
            plain.outcome, traced.outcome,
            "{name}: wrappers changed the run"
        );
        let tracer = traced.tracer.expect("traced pass keeps its tracer");
        let tracer = tracer.borrow();
        assert!(!tracer.agents().is_empty(), "{name}: no agent was timed");
        let calls: u64 = tracer.agents().values().map(|a| a.calls()).sum();
        assert!(
            calls >= plain.outcome.executed(),
            "{name}: {calls} timed calls for {} executed meets",
            plain.outcome.executed()
        );
        assert!(
            traced.timings.agent_busy_s <= traced.timings.run_s,
            "{name}: agents busier than the event loop"
        );
    }
}

#[test]
fn untraced_pass_has_no_tracer() {
    assert!(pass("mail_overload", 3, false).tracer.is_none());
}
