//! Turning passes into named metrics, and the one-line JSON result.

use crate::replay::Replay;
use crate::run::{median, Outcome, Pass};
use crate::trace::AgentTrace;
use tacoma_util::Summary;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Every agent name any workload installs; each gets the same four metrics
/// on every workload (zero where the agent is absent).
pub const AGENT_NAMES: [&str; 7] = [
    "ag_tac",
    "broker",
    "ticket",
    "worker",
    "monitor",
    "job_source",
    "mailroom",
];

/// One pass over every input set, in set order.
#[derive(Default)]
pub struct Cycle {
    /// Untraced passes.
    pub untraced: Vec<Pass>,
    /// Traced passes (`--trace 1` only).
    pub traced: Vec<Pass>,
}

/// Meets requested per normalized second, pooled over the input sets, each
/// set's time being the median over its passes that `pick` selects.
pub fn meets_per_s(cycles: &[Cycle], pick: fn(&Cycle) -> &[Pass]) -> f64 {
    let mut meets = 0;
    let mut seconds = 0.0;
    for set in 0..pick(&cycles[0]).len() {
        let passes: Vec<&Pass> = cycles.iter().map(|c| &pick(c)[set]).collect();
        meets += passes[0].outcome.stats.meets_requested;
        seconds += median(&passes.iter().map(|p| p.timings.norm_s).collect::<Vec<_>>());
    }
    meets as f64 / seconds
}

/// Median over the untraced passes of the normalized time of one build.
pub fn setup_s(cycles: &[Cycle]) -> f64 {
    let builds: Vec<f64> = cycles
        .iter()
        .flat_map(|c| &c.untraced)
        .map(|p| p.timings.setup_s())
        .collect();
    median(&builds)
}

/// The end-to-end metrics of an untraced run.  Host times are medians over
/// the passes, normalized by the reference kernel; simulated waits are means
/// over the input sets' percentiles, and `ok_ratio` pools the input sets.
pub fn end_to_end(outcomes: &[Outcome], cycles: &[Cycle], peak_rss_mib: f64) -> Vec<Metric> {
    let mean = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64;
    let completed: u64 = outcomes.iter().map(|o| o.stats.meets_completed).sum();
    let terminal: u64 = outcomes.iter().map(Outcome::terminal).sum();
    vec![
        metric("meets_per_s", "1/s", meets_per_s(cycles, |c| &c.untraced)),
        metric("setup_s", "s", setup_s(cycles)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("wait_p50_ms", "ms", mean(|o| o.checked.wait_p50_ms)),
        metric("wait_p99_ms", "ms", mean(|o| o.checked.wait_p99_ms)),
        metric(
            "ok_ratio",
            "ratio",
            completed as f64 / terminal.max(1) as f64,
        ),
    ]
}

fn agent_metrics(trace: Option<&AgentTrace>) -> [f64; 4] {
    let Some(t) = trace else {
        return [0.0; 4];
    };
    let mut us = Summary::new();
    us.extend(t.self_ns.iter().map(|ns| *ns as f64 / 1e3));
    [
        t.calls() as f64,
        t.busy_s(),
        us.percentile(50.0),
        us.percentile(99.0),
    ]
}

/// The per-layer metrics of a traced run.  They describe the first input
/// set: counts are its outcome `o`, host times are medians over its traced
/// passes (one per cycle).
pub fn per_layer(o: &Outcome, cycles: &[Cycle], replay: &Replay) -> Vec<Metric> {
    let s = &o.stats;
    let set0: Vec<&Pass> = cycles.iter().map(|c| &c.traced[0]).collect();
    let median_of =
        |f: &dyn Fn(&Pass) -> f64| median(&set0.iter().map(|p| f(p)).collect::<Vec<_>>());
    let kernel_s = |p: &Pass| p.timings.run_s - p.timings.agent_busy_s;
    let mut out = vec![
        metric("core.feed_s", "s", median_of(&|p| p.timings.feed_s)),
        metric(
            "core.feed_calls",
            "count",
            median_of(&|p| p.timings.feed_calls as f64),
        ),
        metric("core.run_s", "s", median_of(&|p| p.timings.run_s)),
        metric("core.kernel_s", "s", median_of(&kernel_s)),
        metric(
            "core.kernel_ns_per_meet",
            "ns",
            median_of(&|p| kernel_s(p) * 1e9 / o.executed().max(1) as f64),
        ),
        metric("core.meets_requested", "count", s.meets_requested as f64),
        metric("core.meets_completed", "count", s.meets_completed as f64),
        metric("core.meets_failed", "count", s.meets_failed as f64),
        metric("core.meets_shed", "count", s.meets_shed as f64),
        metric("core.meets_remote", "count", s.remote_meets as f64),
        metric("core.meets_timer", "count", s.timer_meets as f64),
        metric(
            "core.gate_rejected",
            "count",
            (s.scripts_rejected + s.audits_rejected + s.costs_rejected) as f64,
        ),
        metric("core.trace_entries", "count", o.trace_entries as f64),
        metric("core.fail_ratio", "ratio", o.fail_ratio()),
        metric("net.events", "count", o.events as f64),
        metric("net.messages", "count", o.net_messages as f64),
        metric("net.hops", "count", o.net_hops as f64),
        metric("net.bytes", "B", o.net_bytes as f64),
        metric("net.route_queries", "count", o.route_queries as f64),
        metric("net.bfs_runs", "count", o.bfs_runs as f64),
        metric(
            "net.route_hit_ratio",
            "ratio",
            if o.route_queries == 0 {
                0.0
            } else {
                1.0 - o.bfs_runs as f64 / o.route_queries as f64
            },
        ),
        metric("admission.admitted", "count", o.admitted as f64),
        metric("admission.shed", "count", s.meets_shed as f64),
        metric("admission.janitor_sweeps", "count", o.janitor_sweeps as f64),
        metric("admission.queue_peak", "count", o.queue_peak as f64),
    ];
    for name in AGENT_NAMES {
        let per_pass: Vec<[f64; 4]> = set0
            .iter()
            .map(|p| {
                let tracer = p.tracer.as_ref().expect("traced passes carry a tracer");
                agent_metrics(tracer.borrow().agents().get(name))
            })
            .collect();
        for (i, (field, unit)) in [
            ("calls", "count"),
            ("busy_s", "s"),
            ("p50_us", "us"),
            ("p99_us", "us"),
        ]
        .into_iter()
        .enumerate()
        {
            let values: Vec<f64> = per_pass.iter().map(|v| v[i]).collect();
            out.push(metric(
                format!("agents.{name}.{field}"),
                unit,
                median(&values),
            ));
        }
    }
    out.extend([
        metric(
            "codec.encode_ns_per_kib",
            "ns/KiB",
            replay.encode_ns_per_kib(),
        ),
        metric(
            "codec.decode_ns_per_kib",
            "ns/KiB",
            replay.decode_ns_per_kib(),
        ),
        metric("script.texts", "count", replay.texts as f64),
        metric("script.parse_us", "us", replay.parse_us()),
        metric("script.run_s", "s", replay.run_s()),
        metric("script.steps", "count", replay.steps as f64),
        metric("script.ns_per_step", "ns", replay.ns_per_step()),
        metric("gates.vet_us", "us", replay.vet_us()),
        metric("gates.cost_us", "us", replay.cost_us()),
        metric("gates.summarize_us", "us", replay.summarize_us()),
        metric("sched.jobs_done", "count", o.checked.jobs_done as f64),
        metric("sched.forwarded", "count", o.checked.forwarded as f64),
        metric("sched.digests", "count", o.checked.digests as f64),
        metric(
            "trace.untraced_meets_per_s",
            "1/s",
            meets_per_s(cycles, |c| &c.untraced),
        ),
        metric(
            "trace.traced_meets_per_s",
            "1/s",
            meets_per_s(cycles, |c| &c.traced),
        ),
    ]);
    out
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
