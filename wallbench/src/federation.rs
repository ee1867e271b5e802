//! `federation_1024`: the shape of experiment E15.  A ring of 128 cliques of
//! 8 sites carries 16 federated brokers, a worker and a load monitor at every
//! other site reporting every 200 ms, and digest gossip between brokers.
//! Jobs arrive open-loop at one source site per shard, which relays each job
//! to its broker over the network.  Only native agents run and briefcases
//! are small, so per-meet kernel and network cost dominate.
//!
//! The system is composed here from the public `tacoma_sched` constructors,
//! not with `build_federation`, so that every agent can be wrapped for the
//! traced pass.

use crate::run::{Arrival, Checked, Drain, FeedMode, Workload};
use crate::trace::{maybe_wrap, SharedTracer};
use std::collections::BTreeMap;
use tacoma_core::{wellknown, Agent, Briefcase, Folder, MeetCtx, MeetOutcome, TacomaSystem};
use tacoma_net::{Duration, LinkSpec, SimTime, Topology, TransportKind};
use tacoma_sched::agents::{DONE, JOB, JOBS_CABINET, JOB_SIZE, REQUEST};
use tacoma_sched::federation::{BROKER_CABINET, DIG_TX, FWD};
use tacoma_sched::{FederatedBrokerAgent, MonitorAgent, PlacementPolicy, TicketAgent, WorkerAgent};
use tacoma_util::{AgentName, DetRng, SiteId, Summary};

const CLIQUES: u32 = 128;
const CLIQUE_SIZE: u32 = 8;
const SHARDS: u32 = 16;
const REPORT_PERIOD_MS: u64 = 200;
const DIGEST_PERIOD_MS: u64 = 250;
const REPORT_TTL_MS: u64 = 4_000;
const CAPACITIES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// Warm-up before the first job: every monitor's first report lands.
const WARMUP_MS: u64 = 20;
/// Job sizes are uniform over this range (ms of work at capacity 1), so the
/// drain allowance below covers the slowest job.
const JOB_MS: (u64, u64) = (500, 2_500);
/// Each job carries a parameter payload of this many bytes (uniform).
const ARGS_BYTES: (u64, u64) = (64, 1_024);
/// Simulated time after the last arrival before the run is cut: the slowest
/// job needs 2.5 s of service, and the longest queueing wait seen over many
/// seeds is about 6 s.
const DRAIN_MS: u64 = 15_000;
/// Name of the benchmark's job relay at each shard's source site.
const SOURCE: &str = "job_source";

/// Relays a scheduled job to its shard's broker over the network.  Scheduled
/// meets carry a `TIMER` folder the broker would take for its digest tick,
/// so the relay strips it.
struct JobSource {
    broker: SiteId,
}

impl Agent for JobSource {
    fn name(&self) -> AgentName {
        AgentName::new(SOURCE)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        bc.take(wellknown::TIMER);
        ctx.remote_meet(
            self.broker,
            AgentName::new(wellknown::BROKER),
            bc,
            TransportKind::Tcp,
        );
        Ok(Briefcase::new())
    }
}

/// One generated job.
#[derive(Debug, Clone, Copy)]
struct Job {
    at: SimTime,
    shard: u32,
    size_ms: u64,
    args_bytes: u64,
}

/// The generated workload.
pub struct Federation {
    seed: u64,
    jobs: Vec<Job>,
}

fn broker_site(shard: u32) -> SiteId {
    SiteId(shard * (CLIQUES / SHARDS) * CLIQUE_SIZE)
}

fn source_site(shard: u32) -> SiteId {
    SiteId(broker_site(shard).0 + 1)
}

fn shard_of(site: SiteId) -> u32 {
    site.0 / CLIQUE_SIZE / (CLIQUES / SHARDS)
}

impl Federation {
    /// Generates `jobs` jobs arriving at `rate_hz` (Poisson, uniform over
    /// shards).
    pub fn new(seed: u64, jobs: usize, rate_hz: f64) -> Self {
        let mut rng = DetRng::new(seed).derive(0xFED);
        let mut t_us = (WARMUP_MS * 1_000) as f64;
        let jobs = (0..jobs)
            .map(|_| {
                t_us += rng.exponential(1e6 / rate_hz);
                Job {
                    at: SimTime(t_us as u64),
                    shard: rng.next_below(u64::from(SHARDS)) as u32,
                    size_ms: rng.range_u64(JOB_MS.0, JOB_MS.1),
                    args_bytes: rng.range_u64(ARGS_BYTES.0, ARGS_BYTES.1),
                }
            })
            .collect();
        Federation { seed, jobs }
    }

    fn providers() -> impl Iterator<Item = SiteId> {
        (0..CLIQUES * CLIQUE_SIZE)
            .map(SiteId)
            .filter(|s| broker_site(shard_of(*s)) != *s)
    }

    fn cabinet_folder_len(sys: &TacomaSystem, site: SiteId, cabinet: &str, folder: &str) -> u64 {
        sys.place(site)
            .cabinets()
            .get(cabinet)
            .and_then(|c| c.folder_ref(folder))
            .map_or(0, |f| f.len() as u64)
    }
}

impl Workload for Federation {
    fn build(&self, tracer: Option<&SharedTracer>) -> TacomaSystem {
        let brokers: Vec<SiteId> = (0..SHARDS).map(broker_site).collect();
        let factory_tracer = tracer.cloned();
        let peers_of = brokers.clone();
        let mut sys = TacomaSystem::builder()
            .topology(Topology::ring_of_cliques(
                CLIQUES,
                CLIQUE_SIZE,
                LinkSpec::lan(),
                LinkSpec::wan(),
            ))
            .seed(self.seed)
            .with_agents_at(brokers, move |site| {
                let shard = shard_of(site);
                let peers = peers_of
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| *b as u32 != shard)
                    .map(|(b, s)| (b as u32, *s))
                    .collect();
                let broker: Box<dyn Agent> = Box::new(FederatedBrokerAgent::new(
                    shard,
                    peers,
                    PlacementPolicy::PowerOfTwo,
                    Duration::from_millis(REPORT_TTL_MS),
                    Duration::from_millis(REPORT_PERIOD_MS),
                    Duration::from_millis(DIGEST_PERIOD_MS),
                ));
                let ticket: Box<dyn Agent> = Box::new(TicketAgent::new());
                vec![
                    maybe_wrap(broker, factory_tracer.as_ref()),
                    maybe_wrap(ticket, factory_tracer.as_ref()),
                ]
            })
            .build();
        for (i, site) in Self::providers().enumerate() {
            let capacity = CAPACITIES[i % CAPACITIES.len()];
            let broker = broker_site(shard_of(site));
            let worker: Box<dyn Agent> = Box::new(WorkerAgent::new(capacity));
            let monitor: Box<dyn Agent> = Box::new(MonitorAgent::new(
                broker,
                Duration::from_millis(REPORT_PERIOD_MS),
                capacity,
            ));
            sys.register_agent(site, maybe_wrap(worker, tracer));
            sys.register_agent(site, maybe_wrap(monitor, tracer));
        }
        for shard in 0..SHARDS {
            let source: Box<dyn Agent> = Box::new(JobSource {
                broker: broker_site(shard),
            });
            sys.register_agent(source_site(shard), maybe_wrap(source, tracer));
        }
        sys.run_for(Duration::from_millis(WARMUP_MS));
        sys
    }

    fn feed_mode(&self) -> FeedMode {
        FeedMode::Schedule
    }

    fn window(&self) -> Duration {
        Duration::from_millis(10)
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn due(&self, i: usize) -> SimTime {
        self.jobs[i].at
    }

    fn arrival(&self, i: usize) -> Arrival {
        let job = self.jobs[i];
        let mut briefcase = Briefcase::new();
        briefcase.put_string(REQUEST, "submit");
        briefcase.put_string(JOB, format!("j{i}"));
        briefcase.put_string(JOB_SIZE, job.size_ms.to_string());
        briefcase.put("ARGS", Folder::single(vec![b'a'; job.args_bytes as usize]));
        Arrival {
            site: source_site(job.shard),
            contact: AgentName::new(SOURCE),
            briefcase,
        }
    }

    fn drain(&self) -> Drain {
        let last = self.jobs.last().map_or(SimTime::ZERO, |j| j.at);
        Drain::Until(last + Duration::from_millis(DRAIN_MS))
    }

    fn check(&self, sys: &TacomaSystem) -> Result<Checked, String> {
        let mut done: BTreeMap<usize, u32> = BTreeMap::new();
        let mut waits = Summary::new();
        for (i, site) in Self::providers().enumerate() {
            let Some(records) = sys
                .place(site)
                .cabinets()
                .get(JOBS_CABINET)
                .and_then(|c| c.folder_ref(DONE))
            else {
                continue;
            };
            let capacity = CAPACITIES[i % CAPACITIES.len()];
            for record in records.strings() {
                let malformed = || format!("malformed DONE record '{record}' at {site}");
                let fields: Vec<&str> = record.split(':').collect();
                let [id, _queue_wait, finish] = fields[..] else {
                    return Err(malformed());
                };
                let id = id
                    .strip_prefix('j')
                    .and_then(|id| id.parse::<usize>().ok())
                    .filter(|id| *id < self.jobs.len())
                    .ok_or_else(malformed)?;
                let finish: u64 = finish.parse().map_err(|_| malformed())?;
                // The worker's own service time: size over capacity.
                let job = self.jobs[id];
                let service_us = (job.size_ms as f64 * 1_000.0 / capacity) as u64;
                let start = finish
                    .checked_sub(service_us)
                    .filter(|s| *s >= job.at.micros());
                let start = start.ok_or_else(|| {
                    format!("job j{id} finished at {finish} us, before its arrival plus service")
                })?;
                *done.entry(id).or_default() += 1;
                waits.add((start - job.at.micros()) as f64 / 1_000.0);
            }
        }
        if let Some((id, n)) = done.iter().find(|(_, n)| **n != 1) {
            return Err(format!("job j{id} finished {n} times"));
        }
        if done.len() != self.jobs.len() {
            return Err(format!(
                "{} of {} jobs finished before the cut",
                done.len(),
                self.jobs.len()
            ));
        }
        let s = sys.stats();
        if s.meets_failed + s.send_failures + s.meets_expired + s.meets_shed != 0 {
            return Err(format!(
                "federation meets must all complete: {} failed, {} send failures, \
                 {} expired, {} shed",
                s.meets_failed, s.send_failures, s.meets_expired, s.meets_shed
            ));
        }
        let brokers = |folder| -> u64 {
            (0..SHARDS)
                .map(|b| Self::cabinet_folder_len(sys, broker_site(b), BROKER_CABINET, folder))
                .sum()
        };
        Ok(Checked {
            jobs_done: done.len() as u64,
            forwarded: brokers(FWD),
            digests: brokers(DIG_TX),
            ..Checked::with_waits(&waits)
        })
    }
}
