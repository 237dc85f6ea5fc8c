//! The untraced, timed run: closed loop, one caller, whole rounds.
//!
//! A round checks every input of the workload once. Rounds repeat until
//! the run has lasted `--seconds` and attempted at least
//! [`MIN_VERDICTS`] verdicts, so every run attempts a whole number of
//! rounds of the same operations. Only the calls into the program are
//! timed: a verdict's latency and allocator peak are read as its call
//! returns, and judging against the references comes after.

use crate::inputs::{BatchInput, Inputs, LivePlan, SLOTS};
use crate::refs::{judge_batch, judge_checkpoint, judge_live_counts, observed_classes};
use polysi_bench::CountingAllocator;
use polysi_checker::engine::{check, EngineOptions, IsolationLevel};
use polysi_checker::{LiveChecker, LiveConfig};
use polysi_history::SessionId;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Lower bound on verdicts per run, so every run has at least ten verdicts
/// beyond its 90th percentile.
pub const MIN_VERDICTS: usize = 100;

/// Verdicts attempted and failed.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Failed verdicts on inputs other than the known-fault one.
    pub unexpected: usize,
}

impl Tally {
    pub fn add(&mut self, ok: bool, known_fault: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
        self.unexpected += usize::from(!ok && !known_fault);
    }
}

/// What the timed part measured.
///
/// Per-verdict samples are kept for the current round only, in buffers
/// reserved before the run's allocator baseline is taken; per-round
/// figures go to vectors reserved for [`MAX_ROUNDS`] rounds. Nothing the
/// harness keeps therefore grows while a verdict is measured.
pub struct Timed {
    /// Per round: transactions per second of timed wall, the median and
    /// 90th-percentile verdict latency in seconds, and the 90th-percentile
    /// verdict peak in bytes above the baseline.
    pub round_rates: Vec<f64>,
    pub round_p50: Vec<f64>,
    pub round_p90: Vec<f64>,
    pub round_peak: Vec<f64>,
    pub tally: Tally,
    pub rounds: usize,
    /// Timed-part wall, judging included and set-up repetitions left out.
    pub wall: f64,
    /// Latency of each verdict of the current round, in seconds.
    pub latencies: Vec<f64>,
    /// Peak allocator bytes of each verdict of the current round.
    peaks: Vec<f64>,
    sorted: Vec<f64>,
    baseline: usize,
    round_txns: usize,
    round_busy: f64,
}

/// Rounds a run may make at most (the per-round vectors are reserved for
/// this many, so they never grow during a run).
pub const MAX_ROUNDS: usize = 1 << 14;

/// One verdict's measurement, read as soon as its call returns.
pub struct Sample {
    latency: f64,
    peak: usize,
}

impl Timed {
    /// Buffers for rounds of `verdicts` verdicts; the allocator baseline is
    /// taken after they are reserved.
    pub fn new(verdicts: usize) -> Timed {
        let mut out = Timed {
            round_rates: Vec::with_capacity(MAX_ROUNDS),
            round_p50: Vec::with_capacity(MAX_ROUNDS),
            round_p90: Vec::with_capacity(MAX_ROUNDS),
            round_peak: Vec::with_capacity(MAX_ROUNDS),
            tally: Tally::default(),
            rounds: 0,
            wall: 0.0,
            latencies: Vec::with_capacity(verdicts),
            peaks: Vec::with_capacity(verdicts),
            sorted: Vec::with_capacity(verdicts),
            baseline: 0,
            round_txns: 0,
            round_busy: 0.0,
        };
        out.baseline = CountingAllocator::current();
        out
    }

    /// Start a verdict: its allocator peak is measured from here.
    fn start(&self) -> Instant {
        CountingAllocator::reset_peak();
        Instant::now()
    }

    /// End a verdict: read its latency and peak before anything else runs.
    fn stop(&self, t: Instant) -> Sample {
        let latency = t.elapsed().as_secs_f64();
        Sample { latency, peak: CountingAllocator::peak().saturating_sub(self.baseline) }
    }

    fn record(&mut self, sample: Sample, txns: usize, ok: bool, known_fault: bool) {
        self.latencies.push(sample.latency);
        self.peaks.push(sample.peak as f64);
        self.round_txns += txns;
        self.round_busy += sample.latency;
        self.tally.add(ok, known_fault);
    }

    fn end_round(&mut self) {
        self.round_rates.push(self.round_txns as f64 / self.round_busy);
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.latencies);
        self.sorted.sort_by(f64::total_cmp);
        self.round_p50.push(percentile(&self.sorted, 0.5));
        self.round_p90.push(percentile(&self.sorted, 0.9));
        self.peaks.sort_by(f64::total_cmp);
        self.round_peak.push(percentile(&self.peaks, 0.9));
        self.latencies.clear();
        self.peaks.clear();
        self.round_txns = 0;
        self.round_busy = 0.0;
        self.rounds += 1;
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The live hub configuration: checkpoints only where the workload asks
/// for them (one per wave), everything else at its default.
pub fn live_config() -> LiveConfig {
    LiveConfig { checkpoint_every: 0, ..LiveConfig::default() }
}

/// Timed work, in seconds, between two repetitions of the set-up.
pub const SETUP_EVERY_S: f64 = 1.0;

/// Run whole rounds of `inputs` for at least `seconds` of timed work.
///
/// Every [`SETUP_EVERY_S`] seconds of it, between two verdicts, `resetup`
/// repeats the workload's set-up, so that set-up is sampled across the
/// run as the verdicts are. Its time is left out of the run's clock.
pub fn run(
    inputs: &Inputs,
    opts: &EngineOptions,
    seconds: f64,
    resetup: &mut dyn FnMut(),
) -> Timed {
    let mut out = Timed::new(inputs.verdicts_per_round());
    let t0 = Instant::now();
    let paused = Cell::new(Duration::ZERO);
    let clock = || (t0.elapsed() - paused.get()).as_secs_f64();
    let mut next_setup = SETUP_EVERY_S;
    let mut between = || {
        if clock() >= next_setup {
            let t = Instant::now();
            resetup();
            paused.set(paused.get() + t.elapsed());
            next_setup += SETUP_EVERY_S;
        }
    };
    while out.rounds == 0
        || ((clock() < seconds || out.tally.attempted < MIN_VERDICTS) && out.rounds < MAX_ROUNDS)
    {
        match inputs {
            Inputs::Batch(pool) => batch_round(pool, opts, &mut out, &mut between),
            Inputs::Live(plan) => live_round(plan, opts, &mut out, &mut between),
        }
        out.end_round();
    }
    out.wall = clock();
    out
}

/// One batch verdict: decode the encoded history, then `engine::check`.
/// The history and the report but its outcome are dropped inside the
/// timed call, as a user's check drops them; judging comes after.
fn batch_round(
    pool: &[BatchInput],
    opts: &EngineOptions,
    out: &mut Timed,
    between: &mut dyn FnMut(),
) {
    for input in pool {
        let t = out.start();
        let result = catch_unwind(AssertUnwindSafe(|| {
            input.encoded.decode().map(|h| check(&h, IsolationLevel::Si, opts).outcome)
        }));
        let sample = out.stop(t);
        let ok = matches!(&result, Ok(Ok(outcome)) if judge_batch(input.expect, outcome));
        out.record(sample, input.txns, ok, input.known_fault);
        if !ok && !input.known_fault {
            let got = match &result {
                Ok(Ok(outcome)) => format!("{:?}", observed_classes(outcome)),
                Ok(Err(e)) => format!("decode error {e}"),
                Err(_) => "panic".to_string(),
            };
            eprintln!(
                "perfbench: failed verdict on {}: expected {:?}, got {got}",
                input.label, input.expect
            );
        }
        drop(result);
        between();
    }
}

/// One live stream: per wave, open its sessions, deliver its messages and
/// take a checkpoint; then `finish`, whose final checkpoint is one more
/// verdict. A panic loses the rest of the round, counted as failed.
pub fn live_round(
    plan: &LivePlan,
    opts: &EngineOptions,
    out: &mut Timed,
    between: &mut dyn FnMut(),
) {
    let mut hub = LiveChecker::new(IsolationLevel::Si, *opts, live_config());
    let mut after_plant = false;
    for (i, wave) in plan.waves.iter().enumerate() {
        let deliveries = wave.deliveries.clone();
        let t = out.start();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let delivered = deliver(&mut hub, deliveries);
            (delivered, hub.checkpoint_now().report.verdict.clone())
        }));
        let sample = out.stop(t);
        after_plant |= wave.planted;
        let Ok((delivered, verdict)) = result else {
            out.record(sample, wave.txns, false, false);
            for _ in i + 1..=plan.waves.len() {
                let t = out.start();
                let sample = out.stop(t);
                out.record(sample, 0, false, false);
            }
            return;
        };
        let ok = delivered && judge_checkpoint(after_plant, &verdict);
        out.record(sample, wave.txns, ok, false);
        if !ok {
            let canonical = hub.checker().rejection().map(|r| match &r.report.outcome {
                polysi_checker::Outcome::AxiomViolations(v) => format!("{v:?}"),
                o => format!("{:?}", observed_classes(o)),
            });
            eprintln!(
                "perfbench: failed checkpoint at wave {i} (delivered {delivered}): {verdict:?}, canonical report {canonical:?}"
            );
        }
        between();
    }
    let t = out.start();
    let result = catch_unwind(AssertUnwindSafe(|| hub.finish()));
    let sample = out.stop(t);
    let ok = matches!(&result, Ok(report)
        if report.faults.is_empty()
            && judge_checkpoint(after_plant, report.verdict())
            && judge_live_counts(plan.duplicates, plan.swaps, report.stats.duplicates, report.stats.healed));
    out.record(sample, 0, ok, false);
    drop(result);
    between();
}

/// Open a wave's sessions and deliver its messages; whether every
/// delivery was accepted.
pub fn deliver(hub: &mut LiveChecker, deliveries: Vec<(usize, polysi_history::Delivery)>) -> bool {
    let sessions: Vec<SessionId> = (0..SLOTS).map(|_| hub.session()).collect();
    let mut ok = true;
    for (slot, msg) in deliveries {
        ok &= hub.deliver(sessions[slot], msg).is_ok();
    }
    ok
}
