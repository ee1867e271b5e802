//! `mail_overload`: the open-arrival mail ingest of experiment E18 at its
//! saturated point.  An 8-site mesh receives a diurnal stream at 4x the base
//! rate with bounded-Pareto bodies of 256 B to 64 KiB.  Admission queues are
//! bounded (32 entries, 400 ms deadline, janitor sweep), so a large share of
//! the meets is shed and every shed leaves a formatted trace line.

use crate::run::{Arrival, Checked, Drain, FeedMode, Workload};
use crate::trace::{maybe_wrap, SharedTracer};
use tacoma_apps::UserDirectory;
use tacoma_core::{AdmissionConfig, Agent, Briefcase, Folder, MeetCtx, MeetOutcome, TacomaSystem};
use tacoma_net::{Duration, LinkSpec, OpenWorkload, RateCurve, SimTime, SizeDist, Topology};
use tacoma_util::AgentName;

const SITES: u32 = 8;
const USERS: u64 = 2_000_000;
const MAILROOM: &str = "mailroom";

/// Terminal contact for mail meets: the admission server already charged the
/// body's bytes, so delivery itself only checks the body is intact.
struct Mailroom;

impl Agent for Mailroom {
    fn name(&self) -> AgentName {
        AgentName::new(MAILROOM)
    }

    fn meet(&mut self, _ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let declared = bc.peek_u64("SIZE").unwrap_or(u64::MAX);
        let body = bc.folder("BODY").map(Folder::payload_bytes).unwrap_or(0) as u64;
        if declared != body {
            return Err(tacoma_core::TacomaError::bad_folder(
                "BODY",
                format!("{body} bytes, {declared} declared"),
            ));
        }
        Ok(Briefcase::new())
    }
}

/// The generated workload.
pub struct MailOverload {
    seed: u64,
    directory: UserDirectory,
    arrivals: Vec<tacoma_net::Arrival>,
}

impl MailOverload {
    /// Generates `horizon` of arrivals at `multiplier` times the base rate.
    pub fn new(seed: u64, horizon: Duration, multiplier: f64) -> Self {
        let directory = UserDirectory::new(USERS, SITES);
        let spec = OpenWorkload {
            sites: SITES,
            horizon,
            curve: RateCurve::diurnal(
                100.0 * multiplier,
                vec![0.6, 1.0, 1.4, 1.0],
                Duration::from_secs(2),
            ),
            crowds: Vec::new(),
            sizes: SizeDist::default(),
            users: directory.users(),
            seed,
        };
        MailOverload {
            seed,
            directory,
            arrivals: spec.generate(),
        }
    }
}

impl Workload for MailOverload {
    fn build(&self, tracer: Option<&SharedTracer>) -> TacomaSystem {
        let tracer = tracer.cloned();
        TacomaSystem::builder()
            .topology(Topology::full_mesh(SITES, LinkSpec::default()))
            .seed(self.seed)
            .admission(AdmissionConfig {
                capacity: 32,
                service_floor: Duration::from_millis(2),
                service_per_kib: Duration::from_millis(1),
                service_per_kilostep: Duration::from_micros(0),
                deadline: Some(Duration::from_millis(400)),
                janitor_period: Duration::from_millis(50),
            })
            .with_agents(move |_| vec![maybe_wrap(Box::new(Mailroom), tracer.as_ref())])
            .build()
    }

    fn feed_mode(&self) -> FeedMode {
        FeedMode::Schedule
    }

    fn window(&self) -> Duration {
        Duration::from_millis(10)
    }

    fn len(&self) -> usize {
        self.arrivals.len()
    }

    fn due(&self, i: usize) -> SimTime {
        self.arrivals[i].at
    }

    fn arrival(&self, i: usize) -> Arrival {
        let a = self.arrivals[i];
        let mut briefcase = Briefcase::new();
        briefcase.put_string("TO", UserDirectory::mailbox_folder(a.user));
        briefcase.put_u64("SIZE", a.bytes);
        let mut body = Folder::new();
        body.push(vec![b'm'; a.bytes as usize]);
        briefcase.put("BODY", body);
        Arrival {
            site: self.directory.home(a.user),
            contact: AgentName::new(MAILROOM),
            briefcase,
        }
    }

    fn drain(&self) -> Drain {
        Drain::Quiescent
    }

    fn check(&self, sys: &TacomaSystem) -> Result<Checked, String> {
        let s = sys.stats();
        let fed = self.arrivals.len() as u64;
        if s.meets_requested != fed {
            return Err(format!("{fed} mails fed, {} requested", s.meets_requested));
        }
        if s.meets_failed + s.send_failures + s.meets_expired != 0 {
            return Err(format!(
                "mail meets must complete or be shed: {} failed, {} send failures, {} expired",
                s.meets_failed, s.send_failures, s.meets_expired
            ));
        }
        if sys.net_metrics().admitted_meets() != s.meets_completed {
            return Err(format!(
                "{} meets admitted but {} completed",
                sys.net_metrics().admitted_meets(),
                s.meets_completed
            ));
        }
        Ok(Checked::with_waits(sys.net_metrics().admission_waits()))
    }
}
