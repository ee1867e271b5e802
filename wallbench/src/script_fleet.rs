//! `script_fleet`: TacoScript agents on an 8-site mesh, every site running
//! `ag_tac`, with the vet gate and a strict cost gate armed and admission
//! charging service time in proportion to each script's proven step bound.
//!
//! Three light readers arrive per heavy counted loop.  Light readers
//! sum seed-drawn literals, so most of their texts are distinct; heavy loops
//! come in three sizes, so their texts repeat.  A few scripts are generated
//! to be refused: divergent loops and loops whose proven minimum exceeds the
//! step budget (the cost gate), and misspelled commands (the vet gate).

use crate::run::{Arrival, Checked, Drain, FeedMode, Workload};
use crate::trace::{maybe_wrap, SharedTracer};
use tacoma_agents::AgTacAgent;
use tacoma_core::{wellknown, AdmissionConfig, Agent, Briefcase, TacomaSystem};
use tacoma_net::{Duration, LinkSpec, SimTime, Topology};
use tacoma_script::CostGate;
use tacoma_util::{AgentName, DetRng, SiteId};

/// Interpreter step budget on every site, and the cost gate's budget.
pub const STEP_BUDGET: u64 = 50_000;
/// Call-depth budget of the cost gate.
pub const DEPTH_BUDGET: u64 = 64;
/// Cabinet and folder each admitted script records its result in.
const RESULT_CABINET: &str = "bench";
const RESULT_FOLDER: &str = "RESULTS";
const SITES: u32 = 8;
/// Loop counts of the heavy scripts: 3k, 6k and 9k interpreter steps.
const HEAVY_LOOPS: [u64; 3] = [1_000, 2_000, 3_000];
/// Loop count whose proven minimum is over the step budget.
const OVER_BUDGET_LOOPS: u64 = 20_000;
/// One arrival in this many is generated to be refused.
const REFUSED_EVERY: u64 = 100;

/// What one generated script does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Sums four literals.
    Light([u64; 4]),
    /// A counted loop adding 2 per iteration.
    Heavy(u64),
    /// `while {1}` with no exit; no finite bound, so the strict cost gate
    /// refuses it.
    Divergent,
    /// A counted loop whose proven minimum is over the budget; the cost gate
    /// refuses it.
    OverBudget,
    /// A misspelled command; the vet gate refuses it.
    Typo,
}

impl Kind {
    /// The script text.
    fn source(self) -> String {
        match self {
            Kind::Light([a, b, c, d]) => format!(
                "set sum 0\nforeach x {{{a} {b} {c} {d}}} {{ incr sum $x }}\n\
                 cab_append {RESULT_CABINET} {RESULT_FOLDER} \"L $sum\""
            ),
            Kind::Heavy(k) => heavy(k),
            Kind::Divergent => "set spin 0\nwhile {1} {\nincr spin\n}".to_string(),
            Kind::OverBudget => heavy(OVER_BUDGET_LOOPS),
            Kind::Typo => "set sum 0\nincr_by sum 2".to_string(),
        }
    }

    /// Service weight in kilosteps, as the cost gate's stamp charges it.
    fn weight(self) -> u64 {
        match self {
            Kind::Heavy(k) => 1 + k / 1_000 * 3,
            _ => 1,
        }
    }

    /// The result record an admitted script must leave behind.
    fn expected(self) -> Option<String> {
        match self {
            Kind::Light(v) => Some(format!("L {}", v.iter().sum::<u64>())),
            Kind::Heavy(k) => Some(format!("H {k} {}", 2 * k)),
            Kind::Divergent | Kind::OverBudget | Kind::Typo => None,
        }
    }
}

fn heavy(k: u64) -> String {
    format!(
        "set i 0\nset acc 0\nwhile {{$i < {k}}} {{\nincr acc 2\nincr i\n}}\n\
         cab_append {RESULT_CABINET} {RESULT_FOLDER} \"H {k} $acc\""
    )
}

/// One generated arrival.
#[derive(Debug, Clone, Copy)]
struct Spec {
    at: SimTime,
    site: SiteId,
    kind: Kind,
}

/// The generated workload.
pub struct ScriptFleet {
    seed: u64,
    specs: Vec<Spec>,
}

impl ScriptFleet {
    /// Generates `scripts` arrivals at `rate_hz` (Poisson).
    ///
    /// The mix is stratified: every twelve admitted scripts hold exactly nine
    /// light readers and one heavy loop of each size, in seed-shuffled order,
    /// and the stream spans exactly `scripts / rate_hz`.  Seeds then differ
    /// in timing, order, placement and literals but offer the same work,
    /// which keeps the simulated waits comparable across seeds.
    pub fn new(seed: u64, scripts: usize, rate_hz: f64) -> Self {
        let mut rng = DetRng::new(seed).derive(0x5C21);
        let gaps: Vec<f64> = (0..scripts).map(|_| rng.exponential(1.0)).collect();
        let scale = 1e6 / rate_hz * scripts as f64 / gaps.iter().sum::<f64>();
        let mut t_us = 1_000.0;
        let mut mix: Vec<Kind> = Vec::new();
        let mut assigned = [0u64; SITES as usize];
        let refused = [Kind::Divergent, Kind::OverBudget, Kind::Typo];
        let specs = (0..scripts as u64)
            .map(|n| {
                t_us += gaps[n as usize] * scale;
                let kind = if n % REFUSED_EVERY == REFUSED_EVERY - 1 {
                    refused[(n / REFUSED_EVERY % 3) as usize]
                } else {
                    if mix.is_empty() {
                        mix = vec![Kind::Light([0; 4]); 9];
                        mix.extend(HEAVY_LOOPS.map(Kind::Heavy));
                        rng.shuffle(&mut mix);
                    }
                    match mix.pop().expect("refilled above") {
                        Kind::Light(_) => Kind::Light([0; 4].map(|_| rng.next_below(1_000))),
                        heavy => heavy,
                    }
                };
                // Power of two choices on the work already assigned, the
                // placement a cost-aware broker makes.
                let (a, b) = (rng.index(SITES as usize), rng.index(SITES as usize));
                let site = if assigned[b] < assigned[a] { b } else { a };
                assigned[site] += kind.weight();
                Spec {
                    at: SimTime(t_us as u64),
                    site: SiteId(site as u32),
                    kind,
                }
            })
            .collect();
        ScriptFleet { seed, specs }
    }

    fn count(&self, kind: fn(&Kind) -> bool) -> u64 {
        self.specs.iter().filter(|s| kind(&s.kind)).count() as u64
    }
}

impl Workload for ScriptFleet {
    fn build(&self, tracer: Option<&SharedTracer>) -> TacomaSystem {
        let tracer = tracer.cloned();
        TacomaSystem::builder()
            .topology(Topology::full_mesh(SITES, LinkSpec::default()))
            .seed(self.seed)
            .admission(AdmissionConfig {
                capacity: usize::MAX,
                service_floor: Duration::from_micros(200),
                service_per_kib: Duration::from_micros(100),
                service_per_kilostep: Duration::from_micros(500),
                deadline: None,
                janitor_period: Duration::from_millis(50),
            })
            .cost_gate(CostGate::strict(STEP_BUDGET, DEPTH_BUDGET))
            .with_agents(move |_| {
                let agent: Box<dyn Agent> = Box::new(AgTacAgent::with_step_budget(STEP_BUDGET));
                vec![maybe_wrap(agent, tracer.as_ref())]
            })
            .build()
    }

    fn feed_mode(&self) -> FeedMode {
        FeedMode::Inject
    }

    fn window(&self) -> Duration {
        Duration::from_millis(1)
    }

    fn len(&self) -> usize {
        self.specs.len()
    }

    fn due(&self, i: usize) -> SimTime {
        self.specs[i].at
    }

    fn arrival(&self, i: usize) -> Arrival {
        let spec = self.specs[i];
        let mut briefcase = Briefcase::new();
        briefcase.put_string(wellknown::CODE, spec.kind.source());
        Arrival {
            site: spec.site,
            contact: AgentName::new(wellknown::AG_TAC),
            briefcase,
        }
    }

    fn drain(&self) -> Drain {
        Drain::Quiescent
    }

    fn check(&self, sys: &TacomaSystem) -> Result<Checked, String> {
        let s = sys.stats();
        let vet_refused = self.count(|k| *k == Kind::Typo);
        let cost_refused = self.count(|k| matches!(k, Kind::Divergent | Kind::OverBudget));
        let admitted = self.specs.len() as u64 - vet_refused - cost_refused;
        if s.scripts_rejected != vet_refused || s.costs_rejected != cost_refused {
            return Err(format!(
                "gates refused {} (vet) + {} (cost), generated {vet_refused} + {cost_refused} \
                 to be refused",
                s.scripts_rejected, s.costs_rejected
            ));
        }
        if s.meets_failed != 0 {
            return Err(format!(
                "{} admitted scripts failed at run time (step budget or error)",
                s.meets_failed
            ));
        }
        if s.meets_requested != admitted || s.meets_completed != admitted {
            return Err(format!(
                "{admitted} scripts admitted, {} requested, {} completed",
                s.meets_requested, s.meets_completed
            ));
        }
        let mut got: Vec<String> = (0..SITES)
            .filter_map(|site| sys.place(SiteId(site)).cabinets().get(RESULT_CABINET))
            .filter_map(|cab| cab.folder_ref(RESULT_FOLDER))
            .flat_map(|folder| folder.strings())
            .collect();
        let mut want: Vec<String> = self
            .specs
            .iter()
            .filter_map(|s| s.kind.expected())
            .collect();
        got.sort();
        want.sort();
        if got != want {
            let wrong = got.iter().zip(&want).find(|(g, w)| g != w);
            return Err(format!(
                "script results differ from the generated parameters: {} results for {} \
                 scripts, first mismatch {wrong:?}",
                got.len(),
                want.len()
            ));
        }
        Ok(Checked::with_waits(sys.net_metrics().admission_waits()))
    }
}
