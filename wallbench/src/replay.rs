//! Layer timings measured by replaying what the benchmark fed: every request
//! through the codec, and every CODE text through the parser, the three
//! install-time analyses and the interpreter.  The replay runs after the
//! traced pass, with the pass's timer stopped.

use crate::run::Workload;
use crate::script_fleet::{DEPTH_BUDGET, STEP_BUDGET};
use std::hint::black_box;
use std::time::Instant;
use tacoma_core::{codec, wellknown};
use tacoma_script::{AnalysisConfig, CostGate, Interp, InterpConfig, NullHost};
use tacoma_util::AgentId;

/// Accumulated replay timings.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Encoded bytes.
    pub bytes: u64,
    /// Time in `encode_meet_request`, ns.
    pub encode_ns: u128,
    /// Time in `decode_meet_request`, ns.
    pub decode_ns: u128,
    /// CODE texts replayed.
    pub texts: u64,
    /// Time in `parse_script`, ns.
    pub parse_ns: u128,
    /// Time in `vet`, ns.
    pub vet_ns: u128,
    /// Time in `cost_bound`, ns.
    pub cost_ns: u128,
    /// Time in `summarize`, ns.
    pub summarize_ns: u128,
    /// Time in `Interp::run` over the texts the gates admit, ns.
    pub run_ns: u128,
    /// Interpreter steps.
    pub steps: u64,
}

fn per(total_ns: u128, n: u64, scale: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64 / scale
    }
}

impl Replay {
    /// Encode time per KiB of encoded request.
    pub fn encode_ns_per_kib(&self) -> f64 {
        per(self.encode_ns, self.bytes, 1.0) * 1024.0
    }

    /// Decode time per KiB of encoded request.
    pub fn decode_ns_per_kib(&self) -> f64 {
        per(self.decode_ns, self.bytes, 1.0) * 1024.0
    }

    /// Mean `parse_script` time per text, µs.
    pub fn parse_us(&self) -> f64 {
        per(self.parse_ns, self.texts, 1e3)
    }

    /// Mean `vet` time per text, µs.
    pub fn vet_us(&self) -> f64 {
        per(self.vet_ns, self.texts, 1e3)
    }

    /// Mean `cost_bound` time per text, µs.
    pub fn cost_us(&self) -> f64 {
        per(self.cost_ns, self.texts, 1e3)
    }

    /// Mean `summarize` time per text, µs.
    pub fn summarize_us(&self) -> f64 {
        per(self.summarize_ns, self.texts, 1e3)
    }

    /// Total interpreter time, s.
    pub fn run_s(&self) -> f64 {
        self.run_ns as f64 / 1e9
    }

    /// Interpreter time per step, ns.
    pub fn ns_per_step(&self) -> f64 {
        per(self.run_ns, self.steps, 1.0)
    }
}

fn timed<T>(acc: &mut u128, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    *acc += start.elapsed().as_nanos();
    out
}

/// Replays every arrival of `workload`.  Fails when the codec does not round
/// trip, or when a script the gates admit breaks its proven bound.
pub fn replay(workload: &dyn Workload) -> Result<Replay, String> {
    let mut r = Replay::default();
    let vet_config = AnalysisConfig::new()
        .known_agents(wellknown::AGENTS.iter().copied())
        .source_name("CODE");
    let gate = CostGate::strict(STEP_BUDGET, DEPTH_BUDGET);
    for i in 0..workload.len() {
        let a = workload.arrival(i);
        let code = a.briefcase.peek_string(wellknown::CODE);
        let req = codec::MeetRequest {
            contact: a.contact,
            sender: AgentId::SYSTEM,
            origin: a.site,
            briefcase: a.briefcase,
        };
        let wire = timed(&mut r.encode_ns, || codec::encode_meet_request(&req));
        let back = timed(&mut r.decode_ns, || codec::decode_meet_request(&wire));
        if back.as_ref() != Ok(&req) {
            return Err(format!("request {i} does not round-trip through the codec"));
        }
        r.bytes += wire.len() as u64;

        let Some(src) = code else { continue };
        r.texts += 1;
        let parsed = timed(&mut r.parse_ns, || tacoma_script::parse_script(&src));
        let vetted = timed(&mut r.vet_ns, || tacoma_script::vet(&src, &vet_config));
        let bound = timed(&mut r.cost_ns, || tacoma_script::cost_bound(&src));
        timed(&mut r.summarize_ns, || {
            tacoma_script::summarize(&src).is_ok()
        });
        let admitted =
            parsed.is_ok() && vetted.is_ok() && bound.as_ref().is_ok_and(|b| gate.check(b).is_ok());
        if !admitted {
            continue;
        }
        let hi = bound
            .ok()
            .and_then(|b| b.steps.hi)
            .ok_or_else(|| format!("text {i} admitted without a proven bound"))?;
        let mut host = NullHost;
        let mut interp = Interp::with_config(
            &mut host,
            InterpConfig {
                max_steps: STEP_BUDGET,
                max_depth: DEPTH_BUDGET as u32,
            },
        );
        let outcome = timed(&mut r.run_ns, || interp.run(&src))
            .map_err(|e| format!("text {i} failed in the interpreter: {e}"))?;
        if outcome.steps > hi {
            return Err(format!(
                "text {i} ran {} steps over its proven bound {hi}",
                outcome.steps
            ));
        }
        r.steps += outcome.steps;
    }
    Ok(r)
}
