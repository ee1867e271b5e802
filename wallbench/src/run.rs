//! One measured pass over a workload: build, feed in sim-time windows, drain,
//! then collect and check the simulated outcome with the timer stopped.

use crate::trace::{SharedTracer, Tracer};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration as HostDuration, Instant};
use tacoma_core::{Briefcase, SystemStats, TacomaSystem};
use tacoma_net::{Duration, SimTime};
use tacoma_util::{AgentName, SiteId, Summary};

/// Each pass builds its system again and again until the builds have taken
/// this much on-CPU time (and at least [`SETUP_MIN_BUILDS`] times), then
/// runs on the last.  A single build of a small system takes microseconds,
/// so set-up time is the batch's total divided by its builds.
const SETUP_BATCH: HostDuration = HostDuration::from_millis(20);
/// Fewest builds per pass.
const SETUP_MIN_BUILDS: u32 = 3;

/// On-CPU time between two samples of the reference kernel.
const REFERENCE_EVERY: HostDuration = HostDuration::from_millis(2);
/// Rounds of the reference kernel's loop (about 20 us on a quiet 2 GHz Xeon).
const REFERENCE_ROUNDS: u64 = 200;
/// The reference kernel's time that normalized seconds are scaled to: a
/// normalized second is a second on a host where the kernel takes this long.
const REFERENCE_NOMINAL_S: f64 = 20e-6;

/// Timer key no kernel timer uses (the kernel numbers its own timers upward
/// from 1 and flags service and janitor timers in the two top bits).
const CLOCK_TICK: u64 = 1 << 61;

/// How a workload hands its arrivals to the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedMode {
    /// `inject_meet` at the arrival's due time: the request goes through the
    /// install gates (vet, cost) and the codec as it arrives.
    Inject,
    /// `schedule_meet` with the exact arrival time as its delay.
    Schedule,
}

/// How the event loop ends once the last window has been fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drain {
    /// Until no event is left.
    Quiescent,
    /// Until this simulated time (the system never quiesces by itself).
    Until(SimTime),
}

/// One meet request the benchmark feeds.
pub struct Arrival {
    /// Site the request is made at.
    pub site: SiteId,
    /// Agent to meet.
    pub contact: AgentName,
    /// Briefcase handed over.
    pub briefcase: Briefcase,
}

/// Simulated waits and workload-level counts a workload reports after its
/// output checks pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checked {
    /// Median simulated queueing wait, in milliseconds.
    pub wait_p50_ms: f64,
    /// 99th-percentile simulated queueing wait, in milliseconds.
    pub wait_p99_ms: f64,
    /// Wait samples behind the two percentiles.
    pub wait_samples: u64,
    /// Federation jobs finished (0 elsewhere).
    pub jobs_done: u64,
    /// Jobs forwarded between brokers (0 elsewhere).
    pub forwarded: u64,
    /// Broker digests sent (0 elsewhere).
    pub digests: u64,
}

impl Checked {
    /// Fills the wait fields from the kernel's percentile definition.
    pub fn with_waits(waits: &Summary) -> Self {
        Checked {
            wait_p50_ms: waits.percentile(50.0),
            wait_p99_ms: waits.percentile(99.0),
            wait_samples: waits.count() as u64,
            ..Checked::default()
        }
    }
}

/// A generated workload: its inputs are fixed at construction from a seed,
/// and every method is a pure function of them.
pub trait Workload {
    /// Builds the system and warms it up.  Agents are wrapped in
    /// [`crate::trace::Traced`] when `tracer` is set.
    fn build(&self, tracer: Option<&SharedTracer>) -> TacomaSystem;
    /// How arrivals enter the system.
    fn feed_mode(&self) -> FeedMode;
    /// Width of one feeding window.
    fn window(&self) -> Duration;
    /// Number of arrivals.
    fn len(&self) -> usize;
    /// Whether the workload has no arrivals.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Due time of arrival `i` (non-decreasing in `i`).
    fn due(&self, i: usize) -> SimTime;
    /// Materializes arrival `i`.
    fn arrival(&self, i: usize) -> Arrival;
    /// How the run ends after the last window.
    fn drain(&self) -> Drain;
    /// Checks the system's outputs against the generated inputs.
    fn check(&self, sys: &TacomaSystem) -> Result<Checked, String>;
}

/// Everything deterministic one pass produced.  Two passes over the same
/// inputs must produce equal outcomes, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The kernel's whole-run counters.
    pub stats: SystemStats,
    /// Meet requests still on the wire when the run was cut.
    pub in_flight: u64,
    /// Events the event loop processed.
    pub events: u64,
    /// Messages sent.
    pub net_messages: u64,
    /// Link traversals.
    pub net_hops: u64,
    /// Bytes moved over links.
    pub net_bytes: u64,
    /// Route lookups.
    pub route_queries: u64,
    /// Route lookups that ran a BFS.
    pub bfs_runs: u64,
    /// Meets admitted through admission queues.
    pub admitted: u64,
    /// Janitor sweeps.
    pub janitor_sweeps: u64,
    /// Deepest admission queue seen.
    pub queue_peak: u64,
    /// Formatted trace lines the kernel and agents kept.
    pub trace_entries: u64,
    /// Workload-level results.
    pub checked: Checked,
}

impl Outcome {
    /// Meets that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        let s = &self.stats;
        s.meets_completed + s.meets_failed + s.send_failures + s.meets_expired + s.meets_shed
    }

    /// Meets that ended in anything but completion.
    pub fn not_completed(&self) -> u64 {
        self.terminal() - self.stats.meets_completed
    }

    /// Meets that ended in an error: failed at the contact, never sent, or
    /// expired.  A shed meet is the admission policy's answer to overload,
    /// not an error.
    pub fn errored(&self) -> u64 {
        let s = &self.stats;
        s.meets_failed + s.send_failures + s.meets_expired
    }

    /// `(failed + send_failures + expired + shed) / requested`.
    pub fn fail_ratio(&self) -> f64 {
        self.not_completed() as f64 / self.stats.meets_requested.max(1) as f64
    }

    /// Meets the kernel executed (completed or failed at the contact).
    pub fn executed(&self) -> u64 {
        self.stats.meets_completed + self.stats.meets_failed
    }
}

/// Host timings of one pass.  `setup_norm_s`, `setup_cpu_s`, `norm_s` and
/// `cpu_s` are on-CPU time of the benchmark's thread ([`thread_cpu_time`]),
/// the `norm` ones normalized by `RefClock`; the others are wall time.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Normalized on-CPU time of the pass's builds (system build, agent
    /// install and warm-up), summed.
    pub setup_norm_s: f64,
    /// The same, not normalized.
    pub setup_cpu_s: f64,
    /// Builds the pass made.
    pub builds: u32,
    /// Normalized on-CPU time of the feeding calls plus the event loop.
    pub norm_s: f64,
    /// The same, not normalized.
    pub cpu_s: f64,
    /// Time inside the feeding calls.
    pub feed_s: f64,
    /// Feeding calls made.
    pub feed_calls: u64,
    /// Time inside the event loop.
    pub run_s: f64,
    /// Agent self time inside the event loop (traced passes only).
    pub agent_busy_s: f64,
}

impl Timings {
    /// Meets requested per normalized second of feeding plus event loop.
    pub fn meets_per_s(&self, outcome: &Outcome) -> f64 {
        outcome.stats.meets_requested as f64 / self.norm_s
    }

    /// Normalized time of one build.
    pub fn setup_s(&self) -> f64 {
        self.setup_norm_s / f64::from(self.builds)
    }
}

/// On-CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`): time the
/// thread spends waiting for a CPU does not count.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
pub fn thread_cpu_time() -> HostDuration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the layout the 64-bit
    // Linux C library expects, and it outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    HostDuration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A fixed kernel of hashing, string formatting and small allocations, the
/// kind of work the interpreter and the kernel do.
fn reference_kernel() {
    let mut map: HashMap<String, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..REFERENCE_ROUNDS {
        *map.entry(format!("k{}", i % 61)).or_default() += i;
        let v: Vec<u64> = (0..8).map(|j| j ^ i).collect();
        acc = acc.wrapping_add(black_box(v).iter().sum::<u64>());
    }
    black_box((acc, map.len()));
}

/// On-CPU time of one warm run of [`reference_kernel`].  The untimed run
/// before it fills the caches, so the sample does not depend on what the
/// program left in them.
fn reference_s() -> f64 {
    reference_kernel();
    let start = thread_cpu_time();
    reference_kernel();
    (thread_cpu_time() - start).as_secs_f64()
}

/// Accumulates on-CPU time of timed sections, raw and normalized.
///
/// Other tenants of a shared host slow the benchmark's own instructions
/// down, not only take its CPU away: on a 2-vCPU guest the same pass has run
/// 1.5-2x slower for seconds to minutes at a time, on-CPU time included.  So
/// a fixed reference kernel is sampled, outside the timed sections, every
/// [`REFERENCE_EVERY`] of timed CPU time, and each stretch of timed time is
/// scaled by `REFERENCE_NOMINAL_S / reference time` sampled just before it.
/// A change to the program moves the timed sections and not the reference.
struct RefClock {
    cpu: HostDuration,
    norm_s: f64,
    stretch: HostDuration,
    reference_s: f64,
}

impl RefClock {
    /// Starts with a fresh reference sample.
    fn new() -> Self {
        RefClock {
            cpu: HostDuration::ZERO,
            norm_s: 0.0,
            stretch: HostDuration::ZERO,
            reference_s: reference_s(),
        }
    }

    /// Times `f`, sampling the reference first if the current stretch is
    /// full.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.stretch >= REFERENCE_EVERY {
            self.close_stretch();
            self.reference_s = reference_s();
        }
        let start = thread_cpu_time();
        let out = f();
        let took = thread_cpu_time() - start;
        self.cpu += took;
        self.stretch += took;
        out
    }

    fn close_stretch(&mut self) {
        self.norm_s += self.stretch.as_secs_f64() * REFERENCE_NOMINAL_S / self.reference_s;
        self.stretch = HostDuration::ZERO;
    }

    /// Raw on-CPU time so far.
    fn cpu(&self) -> HostDuration {
        self.cpu
    }

    /// Normalized and raw on-CPU seconds in total.
    fn finish(mut self) -> (f64, f64) {
        self.close_stretch();
        (self.norm_s, self.cpu.as_secs_f64())
    }
}

/// One pass: its timings, its outcome, and the tracer when traced.
pub struct Pass {
    /// Host timings.
    pub timings: Timings,
    /// Deterministic outcome.
    pub outcome: Outcome,
    /// Agent records (traced passes only).
    pub tracer: Option<SharedTracer>,
}

/// Runs one pass over `workload`.  Only the builds, the feeding calls and
/// the event loop are timed; materializing each window's arrivals, dropping
/// systems, checking outputs and collecting counters happen with the timers
/// stopped.
pub fn run_pass(workload: &dyn Workload, traced: bool) -> Result<Pass, String> {
    let tracer = traced.then(Tracer::shared);
    let mut setup = RefClock::new();
    let mut builds = 0;
    let mut sys = loop {
        let sys = setup.time(|| workload.build(tracer.as_ref()));
        builds += 1;
        if builds >= SETUP_MIN_BUILDS && setup.cpu() >= SETUP_BATCH {
            break sys;
        }
    };
    let (setup_norm_s, setup_cpu_s) = setup.finish();
    let mut timings = Timings {
        setup_norm_s,
        setup_cpu_s,
        builds,
        ..Timings::default()
    };
    if let Some(t) = &tracer {
        t.borrow_mut().reset();
    }

    let window = workload.window();
    let mut events = 0u64;
    let mut feed = HostDuration::ZERO;
    let mut run = HostDuration::ZERO;
    let mut clock = RefClock::new();
    let mut next = 0usize;
    let mut window_start = SimTime(sys.now().micros() / window.micros() * window.micros());
    while next < workload.len() {
        let window_end = window_start + window;
        let mut batch = Vec::new();
        while next < workload.len() && workload.due(next) < window_end {
            batch.push((workload.due(next), workload.arrival(next)));
            next += 1;
        }
        let mode = workload.feed_mode();
        clock.time(|| {
            for (due, a) in batch {
                if mode == FeedMode::Inject && sys.now() < due {
                    // `inject_meet` requests the meet at the current
                    // simulated time, which only moves with events: a timer
                    // with no meet behind it (the kernel ignores it) brings
                    // the clock to the due time first.
                    let delay = due.since(sys.now());
                    sys.net_mut().schedule_timer(a.site, delay, CLOCK_TICK);
                    let t = Instant::now();
                    events += sys.run_until(due);
                    run += t.elapsed();
                }
                let t = Instant::now();
                match mode {
                    FeedMode::Inject => sys.inject_meet(a.site, a.contact, a.briefcase),
                    FeedMode::Schedule => {
                        let delay = due.since(sys.now());
                        sys.schedule_meet(a.site, a.contact, a.briefcase, delay);
                    }
                }
                feed += t.elapsed();
                timings.feed_calls += 1;
            }
            let t = Instant::now();
            events += sys.run_until(window_end);
            run += t.elapsed();
        });
        window_start = window_end;
    }
    // The drain runs in windows of the same width, so that the reference is
    // sampled through it as through the feeding.  Stepping `run_until`
    // across window ends processes the same events as one call would.
    let drain = workload.drain();
    loop {
        let window_end = match drain {
            Drain::Quiescent => match sys.net().peek_time() {
                None => break,
                Some(next) => {
                    SimTime(next.micros() / window.micros() * window.micros()).max(window_start)
                        + window
                }
            },
            Drain::Until(at) if window_start >= at => break,
            Drain::Until(at) => (window_start + window).min(at),
        };
        clock.time(|| {
            let t = Instant::now();
            events += sys.run_until(window_end);
            run += t.elapsed();
        });
        window_start = window_end;
    }
    (timings.norm_s, timings.cpu_s) = clock.finish();
    timings.feed_s = feed.as_secs_f64();
    timings.run_s = run.as_secs_f64();
    if let Some(t) = &tracer {
        timings.agent_busy_s = t.borrow().busy_s();
    }

    let outcome = collect(&sys, events, workload.check(&sys)?);
    check_conservation(&outcome)?;
    Ok(Pass {
        timings,
        outcome,
        tracer,
    })
}

fn collect(sys: &TacomaSystem, events: u64, checked: Checked) -> Outcome {
    let m = sys.net_metrics();
    let (route_queries, bfs_runs) = sys.net().routing_work();
    Outcome {
        stats: sys.stats(),
        in_flight: m.total_messages() - m.delivered_messages() - m.dropped_messages(),
        events,
        net_messages: m.total_messages(),
        net_hops: m.total_hops(),
        net_bytes: m.total_bytes().get(),
        route_queries,
        bfs_runs,
        admitted: m.admitted_meets(),
        janitor_sweeps: m.janitor_sweeps(),
        queue_peak: m.admission_queue_peak(),
        trace_entries: sys.trace().len() as u64,
        checked,
    }
}

/// Meet conservation: every requested meet is terminal, or — on a run cut
/// before quiescence — still on the wire.
fn check_conservation(o: &Outcome) -> Result<(), String> {
    let s = &o.stats;
    if s.meets_requested != o.terminal() + o.in_flight {
        return Err(format!(
            "meet conservation violated: requested {} != completed {} + failed {} + \
             send_failures {} + expired {} + shed {} + in flight {}",
            s.meets_requested,
            s.meets_completed,
            s.meets_failed,
            s.send_failures,
            s.meets_expired,
            s.meets_shed,
            o.in_flight
        ));
    }
    Ok(())
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
