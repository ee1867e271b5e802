//! Agent-level tracing from outside the program.
//!
//! [`Traced`] implements [`Agent`] by delegating to the real agent and timing
//! the call.  Agents meet each other synchronously (`meet_local`), so a call
//! can run inside another; the tracer keeps a stack of child time so every
//! call is charged its *self* time only, and the per-agent busy times sum to
//! the host time spent inside agents.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use tacoma_core::{Agent, Briefcase, MeetCtx, MeetOutcome};
use tacoma_util::AgentName;

/// Per-agent-name accumulator.
#[derive(Debug, Default, Clone)]
pub struct AgentTrace {
    /// Self time of every call, in nanoseconds.
    pub self_ns: Vec<u64>,
}

impl AgentTrace {
    /// Number of calls (meets and install hooks).
    pub fn calls(&self) -> u64 {
        self.self_ns.len() as u64
    }

    /// Total self time, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Shared state of all wrappers in one system.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Inclusive time of finished child calls, one slot per open call.
    stack: Vec<Duration>,
    agents: BTreeMap<String, AgentTrace>,
}

/// The handle every wrapper holds (the simulation is single-threaded).
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh shared tracer.
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer::default()))
    }

    /// Forgets everything recorded so far (set-up work is not measured).
    pub fn reset(&mut self) {
        self.agents.clear();
    }

    /// Per-agent records, by agent name.
    pub fn agents(&self) -> &BTreeMap<String, AgentTrace> {
        &self.agents
    }

    /// Total self time of all agents, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.agents.values().map(AgentTrace::busy_s).sum()
    }

    fn enter(&mut self) {
        self.stack.push(Duration::ZERO);
    }

    fn exit(&mut self, name: &str, inclusive: Duration) {
        let children = self.stack.pop().unwrap_or_default();
        if let Some(parent) = self.stack.last_mut() {
            *parent += inclusive;
        }
        let own = inclusive.saturating_sub(children);
        self.agents
            .entry(name.to_string())
            .or_default()
            .self_ns
            .push(own.as_nanos() as u64);
    }
}

/// A thin timing wrapper around a real agent.
pub struct Traced {
    inner: Box<dyn Agent>,
    name: String,
    tracer: SharedTracer,
}

impl Traced {
    fn timed<T>(&mut self, call: impl FnOnce(&mut dyn Agent) -> T) -> T {
        self.tracer.borrow_mut().enter();
        let start = Instant::now();
        let out = call(self.inner.as_mut());
        let took = start.elapsed();
        self.tracer.borrow_mut().exit(&self.name, took);
        out
    }
}

impl Agent for Traced {
    fn name(&self) -> AgentName {
        self.inner.name()
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, briefcase: Briefcase) -> MeetOutcome {
        self.timed(|agent| agent.meet(ctx, briefcase))
    }

    fn on_install(&mut self, ctx: &mut MeetCtx<'_>) {
        self.timed(|agent| agent.on_install(ctx));
    }
}

/// Wraps `inner` in a [`Traced`] charging `tracer` when tracing is on;
/// returns it unchanged otherwise.
pub fn maybe_wrap(inner: Box<dyn Agent>, tracer: Option<&SharedTracer>) -> Box<dyn Agent> {
    let Some(tracer) = tracer else {
        return inner;
    };
    let name = inner.name().as_str().to_string();
    Box::new(Traced {
        inner,
        name,
        tracer: Rc::clone(tracer),
    })
}
