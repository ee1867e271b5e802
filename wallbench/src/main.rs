//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats whole cycles of passes over the workload's generated input sets
//! while they fit in `--seconds` of host time (at least one cycle), checks
//! every pass's outputs and that passes over one input set agree, and prints
//! a header followed by one JSON result line.  `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes,
//! replays the fed inputs layer by layer, and reports the per-layer metrics.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use tacoma_wallbench::report::{self, Cycle, Metric};
use tacoma_wallbench::run::{run_pass, Outcome, Pass};
use tacoma_wallbench::{replay, workload, Size, INPUT_SETS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, asked of git only inside a git checkout so that
/// nothing above the working directory is read.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# wallbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# machine nproc={nproc} rustc=\"{}\" profile={} commit={}",
        env!("WALLBENCH_RUSTC"),
        env!("WALLBENCH_PROFILE"),
        commit()
    );
}

/// Cycles of one run and the simulated outcome of each input set.
struct Run {
    outcomes: Vec<Outcome>,
    cycles: Vec<Cycle>,
}

/// Runs whole cycles over the input sets: at least one, and another only
/// while the last cycle's length still fits in `--seconds`, so every input
/// set weighs the same in every run.  Every pass over an input set must
/// reproduce that set's first outcome exactly, traced or not.
fn measure(args: &Args) -> Result<Run, String> {
    let sets: Vec<_> = (0..INPUT_SETS)
        .map(|set| workload(&args.workload, args.seed, set, Size::Full).expect("name checked"))
        .collect();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut run = Run {
        outcomes: Vec::new(),
        cycles: Vec::new(),
    };
    loop {
        let cycle_start = Instant::now();
        let mut cycle = Cycle::default();
        for (set, inputs) in sets.iter().enumerate() {
            let untraced = run_pass(inputs.as_ref(), false)?;
            let traced = if args.trace {
                Some(run_pass(inputs.as_ref(), true)?)
            } else {
                None
            };
            for pass in std::iter::once(&untraced).chain(&traced) {
                match run.outcomes.get(set) {
                    None => run.outcomes.push(pass.outcome.clone()),
                    Some(first) if *first != pass.outcome => {
                        return Err(format!(
                            "a pass over input set {set} simulated a different outcome:\n{:?}\n\
                             vs\n{first:?}",
                            pass.outcome
                        ))
                    }
                    Some(_) => {}
                }
            }
            cycle.untraced.push(untraced);
            cycle.traced.extend(traced);
        }
        run.cycles.push(cycle);
        if start.elapsed() + cycle_start.elapsed() > budget {
            return Ok(run);
        }
    }
}

fn print_passes(label: &str, cycles: &[Cycle], passes: fn(&Cycle) -> &[Pass]) {
    for (c, cycle) in cycles.iter().enumerate() {
        for (set, p) in passes(cycle).iter().enumerate() {
            let t = &p.timings;
            println!(
                "# {label} cycle {c} set {set}: setup {:.3} us ({:.3} us on-CPU, {} builds), \
                 {:.4} s ({:.4} s on-CPU, feed {:.4} s, run {:.4} s), {:.0} meets/s",
                t.setup_s() * 1e6,
                t.setup_cpu_s * 1e6 / f64::from(t.builds),
                t.builds,
                t.norm_s,
                t.cpu_s,
                t.feed_s,
                t.run_s,
                t.meets_per_s(&p.outcome)
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    header(&args);
    let run = match measure(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("wallbench: check failed: {e}");
            println!("{}", report::result_json(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    for (set, o) in run.outcomes.iter().enumerate() {
        println!(
            "# input set {set}: requested {} completed {} failed {} send_failures {} expired {} \
             shed {} in_flight {} gate_rejected {} wait samples {} p50 {} ms p99 {} ms",
            o.stats.meets_requested,
            o.stats.meets_completed,
            o.stats.meets_failed,
            o.stats.send_failures,
            o.stats.meets_expired,
            o.stats.meets_shed,
            o.in_flight,
            o.stats.scripts_rejected + o.stats.costs_rejected + o.stats.audits_rejected,
            o.checked.wait_samples,
            o.checked.wait_p50_ms,
            o.checked.wait_p99_ms
        );
    }
    print_passes("untraced", &run.cycles, |c| &c.untraced);
    println!(
        "# {} cycles; host times are normalized to the reference kernel (README)",
        run.cycles.len()
    );
    let metrics: Vec<Metric> = if args.trace {
        print_passes("traced", &run.cycles, |c| &c.traced);
        let first = workload(&args.workload, args.seed, 0, Size::Full).expect("name checked");
        let replayed = match replay::replay(first.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("wallbench: replay check failed: {e}");
                println!("{}", report::result_json(false, 1, 1, &[]));
                return ExitCode::FAILURE;
            }
        };
        let untraced = report::meets_per_s(&run.cycles, |c| &c.untraced);
        let traced = report::meets_per_s(&run.cycles, |c| &c.traced);
        println!(
            "# tracing overhead: meets_per_s untraced {untraced:.0} traced {traced:.0} ({:+.1}%), \
             medians of {} passes per input set",
            (traced / untraced - 1.0) * 100.0,
            run.cycles.len()
        );
        report::per_layer(&run.outcomes[0], &run.cycles, &replayed)
    } else {
        report::end_to_end(&run.outcomes, &run.cycles, peak_rss_mib())
    };
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    // One cycle's meets, so that the counts depend on the seed alone and
    // not on how many cycles fit in `--seconds`.
    let attempted: u64 = run.outcomes.iter().map(|o| o.stats.meets_requested).sum();
    let failed: u64 = run.outcomes.iter().map(Outcome::errored).sum();
    println!(
        "{}",
        report::result_json(true, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
