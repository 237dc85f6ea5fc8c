//! The PolySI benchmark: the accept, solve, reject and live paths through
//! the public API, from one process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--threads1]
//! ```
//!
//! `--trace 0` sets the workload up, then runs the timed, untraced closed
//! loop, repeating the set-up between verdicts every few seconds
//! (`setup_s` is the median repetition), and reports the end-to-end
//! metrics. `--trace 1` sets up and runs the traced
//! per-layer pass instead, writing its spans to
//! `perfbench/out/<workload>-seed<n>.trace.json`. `--threads1` pins every
//! engine thread knob to one thread, for reference figures only.
//!
//! Lines starting with `#` are for people; the last line of standard
//! output is the JSON result. See `perfbench/README.md`.

mod inputs;
mod refs;
mod timed;
mod traced;

use inputs::{Inputs, References, Workload};
use polysi_bench::CountingAllocator;
use polysi_checker::engine::{CheckpointThreads, EngineOptions, PruneThreads};
use polysi_checker::SolveThreads;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timed::Tally;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A set-up burst repeats the set-up until it has lasted this long, so a
/// cheap set-up still gives many samples.
const SETUP_BURST_S: f64 = 0.05;
/// Set-up repetitions per run at most; their times are kept in a vector
/// reserved for this many before the timed part, so it never grows there.
const MAX_SETUPS: usize = 4096;

/// The set-up repetitions of one run and what they measured.
struct Setups {
    workload: Workload,
    seed: u64,
    refs: References,
    /// Seconds per repetition, the reference search left out.
    times: Vec<f64>,
    first_digest: Option<u64>,
    /// Whether every repetition made byte-identical inputs.
    deterministic: bool,
}

impl Setups {
    fn new(workload: Workload, seed: u64) -> Setups {
        Setups {
            workload,
            seed,
            refs: References::default(),
            times: Vec::with_capacity(MAX_SETUPS),
            first_digest: None,
            deterministic: true,
        }
    }

    /// Make the inputs once, timed.
    fn once(&mut self) -> Inputs {
        self.refs.elapsed = Duration::ZERO;
        let t = Instant::now();
        let inputs = Inputs::generate(self.workload, self.seed, &mut self.refs);
        self.times.push((t.elapsed() - self.refs.elapsed).as_secs_f64());
        let digest = inputs.digest();
        self.deterministic &= *self.first_digest.get_or_insert(digest) == digest;
        inputs
    }

    /// Repeat the set-up, dropping what it makes, until the burst has
    /// lasted [`SETUP_BURST_S`] (at least once).
    fn burst(&mut self) {
        let t = Instant::now();
        let before = self.times.len();
        while self.times.len() < MAX_SETUPS
            && (self.times.len() == before || t.elapsed().as_secs_f64() < SETUP_BURST_S)
        {
            drop(self.once());
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads1: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut threads1) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--threads1" {
            threads1 = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads1,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut opts = EngineOptions::default();
    if args.threads1 {
        opts.prune_threads = PruneThreads::Fixed(1);
        opts.solve_threads = SolveThreads::Fixed(1);
        opts.checkpoint_threads = CheckpointThreads::Fixed(1);
    }
    let w = args.workload;
    println!(
        "# perfbench {} seed {} ({} s, trace {})",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    // Set-up: a burst, then one more repetition whose inputs are the ones
    // checked; a `--trace 0` run repeats the burst between verdicts.
    let mut setups = Setups::new(w, args.seed);
    setups.burst();
    let inputs = setups.once();
    let unfilled = inputs.unfilled(w);
    println!(
        "# set-up: {} verdicts per round, inputs digest {:016x}, make-up {}",
        inputs.verdicts_per_round(),
        setups.first_digest.unwrap_or_default(),
        inputs.makeup(),
    );
    for (level, kept, asked) in &unfilled {
        println!("# set-up: only {kept} of {asked} confirmed-anomalous {level} histories");
    }

    let (tally, rounds, measured, metrics, trace_path) = if args.trace {
        let t = Instant::now();
        let r = traced::run(&inputs, &opts, args.seconds);
        let path = format!("perfbench/out/{}-seed{}.trace.json", w.name(), args.seed);
        let measured = t.elapsed().as_secs_f64();
        (r.tally, r.rounds, measured, r.metrics, Some((path, r.spans)))
    } else {
        let r = timed::run(&inputs, &opts, args.seconds, &mut || setups.burst());
        let metrics = vec![
            ("setup_s", "s", median(&setups.times)),
            ("txns_per_s", "1/s", median(&r.round_rates)),
            ("verdict_p50_ms", "ms", median(&r.round_p50) * 1e3),
            ("verdict_p90_ms", "ms", median(&r.round_p90) * 1e3),
            ("peak_heap_mib", "MiB", median(&r.round_peak) / (1024.0 * 1024.0)),
        ];
        (r.tally, r.rounds, r.wall, metrics, None)
    };

    println!(
        "# set-up: {} repetitions, median {:.4} s{}",
        setups.times.len(),
        median(&setups.times),
        if setups.deterministic { "" } else { " (REPETITIONS DISAGREE)" }
    );
    let provenance = provenance(&args, &opts, rounds, measured, tally, setups.times.len());
    println!("# provenance {provenance}");
    if let Some((path, spans)) = trace_path {
        match traced::write_trace(Path::new(&path), &spans, &provenance) {
            Ok(()) => println!("# spans: {} written to {path}", spans.len()),
            Err(e) => println!("# spans: could not write {path}: {e}"),
        }
    }
    for (name, unit, value) in &metrics {
        println!("# {name:<32} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", finite(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        setups.deterministic && unfilled.is_empty() && tally.unexpected == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity; an undefined figure prints as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// What every result records beside its numbers: the code, the machine's
/// parallelism and what the thread knobs resolved to, the run's length
/// and its verdict counts.
fn provenance(
    args: &Args,
    opts: &EngineOptions,
    rounds: usize,
    measured: f64,
    tally: Tally,
    setups: usize,
) -> String {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    // The engine resolves `Auto` to every core for one unsharded unit (and
    // caps checkpoint workers at the dirty component count).
    let prune = match opts.prune_threads {
        PruneThreads::Fixed(n) => n,
        PruneThreads::Auto => cores,
    };
    let checkpoint = match opts.checkpoint_threads {
        CheckpointThreads::Fixed(n) => n,
        CheckpointThreads::Auto => cores,
    };
    format!(
        "{{\"schema\": \"polysi.perfbench.v1\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"available_parallelism\": {cores}, \"threads\": {{\"prune\": {prune}, \
         \"solve\": {}, \"checkpoint_max\": {checkpoint}, \"pinned\": {}}}, \"run_seconds\": {}, \
         \"measured_seconds\": {measured:.3}, \"rounds\": {rounds}, \"setups\": {setups}, \
         \"attempted\": {}, \"failed\": {}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        git_rev(),
        opts.solve_threads.resolve(1),
        args.threads1,
        args.seconds,
        tally.attempted,
        tally.failed,
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
