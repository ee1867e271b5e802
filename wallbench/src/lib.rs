//! Wall-clock benchmark for the TACOMA workspace.
//!
//! Three open-loop workloads, each generated from a seed and fed into the
//! system in simulated-time windows; see [`workload`] for why each exists.
//! A run times the feeding calls and the event loop (host throughput) and
//! reads the simulated outcome (queueing waits, failures), which a change
//! that only speeds the simulator up must leave identical.  A traced run
//! wraps every agent in a timer and replays the fed inputs through the codec,
//! the script parser, the install gates and the interpreter to split host
//! time by layer.

#![warn(missing_docs)]

pub mod federation;
pub mod mail_overload;
pub mod replay;
pub mod report;
pub mod run;
pub mod script_fleet;
pub mod trace;

use run::Workload;
use tacoma_net::Duration;
use tacoma_util::DetRng;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["script_fleet", "federation_1024", "mail_overload"];

/// How much input one pass gets.  `Full` is what the benchmark measures;
/// `Small` keeps the self-tests quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A reduced size for tests.
    Small,
}

/// Independent input sets one run draws from its seed and cycles through.
/// The simulated waits a run reports are means over the sets' percentiles:
/// four draws keep them comparable across seeds where one draw would let a
/// few unlucky bursts (`script_fleet`) or the hop-count mode the median job
/// lands in (`federation_1024`) move them.
pub const INPUT_SETS: usize = 4;

/// Generates input set `set` of the named workload from `seed`.
///
/// * `script_fleet` — the script layer (parse, interpret, vet and cost
///   gates) does nearly all the work; repeated heavy texts and mostly
///   distinct light texts expose a parse cache's hits and misses alike.
/// * `federation_1024` — per-meet kernel and network cost at 1024 sites:
///   liveness inputs per meet, multi-hop routes, the route cache.  No scripts.
/// * `mail_overload` — the same kernel with few sites but large payloads:
///   encoding on admission, bounded queues shedding about a quarter of the
///   meets, janitor sweeps, one formatted trace line per shed.
pub fn workload(name: &str, seed: u64, set: usize, size: Size) -> Option<Box<dyn Workload>> {
    let small = size == Size::Small;
    let seed = DetRng::new(seed).derive(set as u64).next_u64();
    Some(match name {
        "script_fleet" => Box::new(script_fleet::ScriptFleet::new(
            seed,
            if small { 120 } else { 1_200 },
            4_600.0,
        )),
        "federation_1024" => Box::new(federation::Federation::new(
            seed,
            if small { 200 } else { 6_000 },
            1_000.0,
        )),
        "mail_overload" => Box::new(mail_overload::MailOverload::new(
            seed,
            Duration::from_millis(if small { 300 } else { 60_000 }),
            4.0,
        )),
        _ => return None,
    })
}
