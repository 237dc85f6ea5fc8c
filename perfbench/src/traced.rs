//! The traced run: every layer's public entry point called from outside,
//! one span per call, the counting allocator bracketing the calls whose
//! peak is reported.
//!
//! Spans stay in memory (name, start, end, parent, plus the counts read
//! from the structs the call returned) and are written out as a Chrome
//! trace when the run ends. Every per-layer metric is derived from them,
//! per round (one pass over the workload's inputs), and reported as the
//! median over the run's rounds.
//!
//! Each input is first checked untraced (decode plus `engine::check`, or a
//! live wave plus its checkpoint) and then again through the layer calls
//! under a `verdict` root span; the difference is the tracing overhead.
//! Calls that the untraced verdict does not make (the other on-disk
//! format, `HistoryStream` replay, the live hub on batch inputs, the batch
//! layers on live snapshots) run under a separate root, outside that
//! comparison.

use crate::inputs::{Encoded, Inputs, LivePlan, SLOTS};
use crate::refs::{judge_batch, Expect};
use crate::timed::{self, deliver, live_config, Tally, Timed};
use polysi_bench::CountingAllocator;
use polysi_checker::engine::{check, EngineOptions, IsolationLevel};
use polysi_checker::interpret::interpret;
use polysi_checker::solve::{encode_polygraph, run_solve, SolvePlan};
use polysi_checker::{CheckpointReport, LiveChecker, Outcome};
use polysi_history::{
    binfmt, codec, Delivery, Facts, History, HistoryStream, Op, ShardPlan, TxnId, TxnStatus,
};
use polysi_polygraph::{ConstraintMode, Polygraph, PruneOptions, PruneResult, Semantics};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// The root span of one traced verdict (compared with its untraced twin).
const VERDICT: &str = "verdict";
/// The root span of layer calls outside the verdict comparison.
const COMPANION: &str = "companion";

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub round: usize,
    /// Seconds since the recorder started.
    pub start: f64,
    pub end: f64,
    /// Peak allocator bytes above the call's starting point, for calls
    /// opened with [`Recorder::open_peak`].
    pub peak_bytes: Option<usize>,
    /// Counts read from what the call returned.
    pub args: Vec<(&'static str, f64)>,
    base_bytes: Option<usize>,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// In-memory span recorder.
pub struct Recorder {
    t0: Instant,
    round: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { t0: Instant::now(), round: 0, spans: Vec::new(), stack: Vec::new() }
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            round: self.round,
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            peak_bytes: None,
            args: Vec::new(),
            base_bytes: None,
        });
        self.stack.push(id);
        id
    }

    /// Open a leaf span whose allocator peak is recorded. Resets the
    /// allocator's high-water mark, so it must not enclose another
    /// peak-recording span.
    fn open_peak(&mut self, name: &'static str) -> usize {
        let id = self.open(name);
        self.spans[id].base_bytes = Some(CountingAllocator::current());
        CountingAllocator::reset_peak();
        id
    }

    fn close(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in nesting order");
        let end = self.t0.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end = end;
        span.peak_bytes =
            span.base_bytes.map(|base| CountingAllocator::peak().saturating_sub(base));
    }

    fn arg(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].args.push((key, value));
    }

    /// Run `f` inside a span named `name`.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    fn last_ms(&self, name: &'static str) -> f64 {
        self.spans.iter().rev().find(|s| s.name == name).map_or(0.0, Span::ms)
    }
}

/// What the traced run produced.
pub struct Traced {
    /// Per-layer metrics: name, unit, value (median over rounds).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub tally: Tally,
    pub rounds: usize,
    pub spans: Vec<Span>,
}

/// Run whole traced rounds of `inputs` for at least `seconds`.
pub fn run(inputs: &Inputs, opts: &EngineOptions, seconds: f64) -> Traced {
    // The other on-disk format of each batch input, made once up front.
    let secondary: Vec<Encoded> = match inputs {
        Inputs::Batch(pool) => pool
            .iter()
            .map(|input| {
                let h = input.encoded.decode().expect("set-up inputs decode");
                match input.encoded {
                    Encoded::Text(_) => Encoded::Binary(binfmt::encode(&h)),
                    Encoded::Binary(_) => Encoded::Text(codec::encode(&h)),
                }
            })
            .collect(),
        Inputs::Live(_) => Vec::new(),
    };
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let mut per_round: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
    let t0 = Instant::now();
    while per_round.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let first = rec.spans.len();
        match inputs {
            Inputs::Batch(pool) => {
                for (input, other) in pool.iter().zip(&secondary) {
                    let ok =
                        trace_history(&mut rec, &input.encoded, other, Some(input.expect), opts);
                    tally.add(ok, input.known_fault);
                }
            }
            Inputs::Live(plan) => live_round(&mut rec, plan, opts, &mut tally),
        }
        per_round.push(round_metrics(&rec.spans[first..], first));
        rec.round += 1;
    }
    let metrics = per_round[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let values: Vec<f64> = per_round.iter().map(|r| r[i].2).collect();
            (name, unit, median(values))
        })
        .collect();
    Traced { metrics, tally, rounds: per_round.len(), spans: rec.spans }
}

/// Prune options as the engine derives them for one unsharded unit: the
/// thread knob resolved against the machine, the sweep chunk from the
/// mean transaction degree.
fn prune_options(opts: &EngineOptions, facts: &Facts) -> PruneOptions {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let threads = match opts.prune_threads {
        polysi_checker::PruneThreads::Auto => cores,
        polysi_checker::PruneThreads::Fixed(n) => n.max(1),
    };
    let chunk = (512.0 / (1.0 + facts.mean_txn_degree())).round() as usize;
    PruneOptions {
        threads,
        chunk_size: chunk.clamp(16, 512),
        oracle: opts.reach_oracle,
        ..PruneOptions::default()
    }
}

fn decode_span(encoded: &Encoded) -> &'static str {
    match encoded {
        Encoded::Text(_) => "history.codec.decode",
        Encoded::Binary(_) => "history.binfmt.decode",
    }
}

/// One batch input: the untraced verdict, the traced layer calls under a
/// `verdict` root, then the companion calls. Returns whether the untraced
/// verdict met `expect` (always `true` without one).
fn trace_history(
    rec: &mut Recorder,
    primary: &Encoded,
    secondary: &Encoded,
    expect: Option<Expect>,
    opts: &EngineOptions,
) -> bool {
    let t = Instant::now();
    let Ok(h) = primary.decode() else { return false };
    let tc = Instant::now();
    let report = check(&h, IsolationLevel::Si, opts);
    let check_wall = tc.elapsed();
    let untraced = t.elapsed();
    drop(h);
    let ok = expect.is_none_or(|e| judge_batch(e, &report.outcome));
    let engine_cycle = match &report.outcome {
        Outcome::CyclicViolation(v) => Some(v.cycle.clone()),
        _ => None,
    };

    let root = rec.open(VERDICT);
    rec.arg(root, "untraced_ms", untraced.as_secs_f64() * 1e3);
    let h = rec.call(decode_span(primary), || primary.decode()).expect("decoded untraced");
    let facts = rec.call("history.facts.analyze", || Facts::analyze(&h));
    let plan = rec.call("history.shard.plan", || ShardPlan::analyze(&h));
    let id = rec.spans.len() - 1;
    rec.arg(id, "components", plan.components.len() as f64);
    let mut interpret_ms = 0.0;
    if !facts.axioms_ok() {
        rec.arg(root, "rejects_at_axioms", 1.0);
    } else {
        let id = rec.open_peak("polygraph.construct");
        let mut g =
            Polygraph::from_history_with(&h, &facts, ConstraintMode::Generalized, Semantics::Si);
        rec.close(id);
        rec.arg(id, "constraints", g.constraints.len() as f64);

        let prune_opts = prune_options(opts, &facts);
        let id = rec.open_peak("polygraph.prune");
        let (pruned, oracle) = g.prune_with_oracle(&prune_opts);
        rec.close(id);
        match pruned {
            PruneResult::Violation(_) => rec.arg(root, "rejects_at_prune", 1.0),
            PruneResult::Pruned(stats) => {
                rec.arg(id, "before", stats.constraints_before as f64);
                rec.arg(id, "after", stats.constraints_after as f64);
                let bytes = oracle.as_ref().map_or(0, |o| o.oracle_bytes());
                rec.arg(id, "oracle_bytes", bytes as f64);
                drop(oracle);

                let solver = rec.call("core.encode", || encode_polygraph(&g, opts.phase_seeding));
                let id = rec.spans.len() - 1;
                rec.arg(id, "vars", solver.num_vars() as f64);
                rec.arg(id, "clauses", solver.num_clauses() as f64);
                rec.arg(id, "theory_edges", theory_edges(&g) as f64);

                let degrees: Vec<u32> =
                    (0..h.len() as u32).map(|i| facts.txn_degree(TxnId(i)) as u32).collect();
                let plan =
                    SolvePlan { mode: opts.solve_mode, threads: opts.solve_threads.resolve(1) };
                let id = rec.open_peak("solver.solve");
                let (sat, stats) = run_solve(&g, solver, Some(&degrees), &plan);
                rec.close(id);
                rec.arg(id, "conflicts", stats.solver.conflicts as f64);
                rec.arg(id, "decisions", stats.solver.decisions as f64);
                rec.arg(id, "propagations", stats.solver.propagations as f64);
                if !sat {
                    rec.arg(root, "rejects_at_solve", 1.0);
                }
            }
        }
        drop(g);
        if let Some(cycle) = &engine_cycle {
            rec.call("core.interpret", || interpret(&h, &facts, cycle));
            interpret_ms = rec.last_ms("core.interpret");
        }
    }
    let stages = report.timings.total().as_secs_f64() * 1e3;
    let overhead = check_wall.as_secs_f64() * 1e3 - stages - interpret_ms;
    rec.arg(root, "engine_overhead_ms", overhead);
    rec.close(root);

    let companion = rec.open(COMPANION);
    rec.call(decode_span(secondary), || secondary.decode()).expect("secondary format decodes");
    let sessions = session_txns(&h);
    rec.call("history.stream.push", || replay_stream(&sessions));
    let lanes = lanes_of(sessions);
    let mut hub = LiveChecker::new(IsolationLevel::Si, *opts, live_config());
    rec.call("core.live.deliver", || {
        for lane in lanes {
            let sid = hub.session();
            for msg in lane {
                let _ = hub.deliver(sid, msg);
            }
        }
    });
    let cp = rec.call("core.stream.checkpoint", || hub.checkpoint_now().report.clone());
    record_checkpoint(rec, &cp);
    rec.close(companion);
    ok
}

/// One live stream, traced. Runs the stream untraced first for the per-wave
/// baseline, then again with a `verdict` root per wave (deliveries, then
/// checkpoint) followed by the batch layer calls on the checker's
/// snapshot, and finally replays the stream's transactions alone into a
/// `HistoryStream`. The untraced pass's judged checkpoints go to `tally`.
fn live_round(rec: &mut Recorder, plan: &LivePlan, opts: &EngineOptions, tally: &mut Tally) {
    let mut base = Timed::new(plan.waves.len() + 1);
    timed::live_round(plan, opts, &mut base, &mut || {});
    let untraced = base.latencies;
    tally.attempted += base.tally.attempted;
    tally.failed += base.tally.failed;
    tally.unexpected += base.tally.unexpected;

    let mut hub = LiveChecker::new(IsolationLevel::Si, *opts, live_config());
    for (wave, base) in plan.waves.iter().zip(&untraced) {
        let deliveries = wave.deliveries.clone();
        let root = rec.open(VERDICT);
        rec.arg(root, "untraced_ms", base * 1e3);
        rec.call("core.live.deliver", || deliver(&mut hub, deliveries));
        let cp = rec.call("core.stream.checkpoint", || hub.checkpoint_now().report.clone());
        record_checkpoint(rec, &cp);
        rec.close(root);

        let (snapshot, _) = hub.checker().stream().snapshot();
        let text = Encoded::Text(codec::encode(&snapshot));
        let bytes = Encoded::Binary(binfmt::encode(&snapshot));
        drop(snapshot);
        let companion = rec.open(COMPANION);
        trace_snapshot(rec, &text, &bytes, opts);
        rec.close(companion);
    }
    let root = rec.open(VERDICT);
    rec.arg(root, "untraced_ms", untraced[plan.waves.len()] * 1e3);
    let report = rec.call("core.stream.checkpoint", || hub.finish());
    let id = rec.spans.len() - 1;
    rec.arg(id, "duplicates", report.stats.duplicates as f64);
    rec.arg(id, "healed", report.stats.healed as f64);
    if let Some(last) = report.checkpoints.last() {
        record_checkpoint(rec, &last.report);
    }
    rec.close(root);

    let sessions = plan_sessions(plan);
    let companion = rec.open(COMPANION);
    rec.call("history.stream.push", || {
        let mut stream = HistoryStream::new();
        for wave in &sessions {
            for session in wave {
                let sid = stream.session();
                for (ops, status) in session {
                    let _ = stream.try_push_transaction(sid, ops.clone(), *status);
                }
                let _ = stream.try_seal_session(sid);
            }
        }
        stream
    });
    rec.close(companion);
}

/// The batch layer calls on a live snapshot: same as a batch input, under
/// the companion root, with no reference to judge against.
fn trace_snapshot(rec: &mut Recorder, text: &Encoded, bytes: &Encoded, opts: &EngineOptions) {
    // Nested verdict roots would mix into the live verdict comparison, so
    // rename them once the call returns.
    let first = rec.spans.len();
    trace_history(rec, text, bytes, None, opts);
    for span in &mut rec.spans[first..] {
        if span.name == VERDICT || span.name == COMPANION {
            span.name = "snapshot";
        }
    }
}

/// Guarded theory edges the encoding adds for the surviving constraints:
/// one per edge, two per dependency edge under SI's layered graph. The
/// encoding puts every constraint in the acyclicity theory and adds no
/// CNF clauses, so this, not `num_clauses`, is its size.
fn theory_edges(g: &Polygraph) -> usize {
    g.constraints
        .iter()
        .flat_map(|c| c.either.iter().chain(&c.or))
        .map(|e| if e.label.is_dep() { 2 } else { 1 })
        .sum()
}

/// Attach a checkpoint's counters to the span that produced it.
fn record_checkpoint(rec: &mut Recorder, cp: &CheckpointReport) {
    let id = rec.spans.iter().rposition(|s| s.name == "core.stream.checkpoint").expect("span");
    rec.arg(id, "dirty", cp.dirty as f64);
    rec.arg(id, "rebuilt", cp.rebuilt as f64);
    rec.arg(id, "compacted", cp.compacted as f64);
    rec.arg(id, "live_txns", cp.live_txns as f64);
}

type SessionTxns = Vec<Vec<(Vec<Op>, TxnStatus)>>;

fn session_txns(h: &History) -> SessionTxns {
    h.sessions().map(|s| s.txns.iter().map(|t| (t.ops.clone(), t.status)).collect()).collect()
}

/// Clean per-session delivery scripts of a batch history.
fn lanes_of(sessions: SessionTxns) -> Vec<Vec<Delivery>> {
    sessions
        .into_iter()
        .map(|txns| {
            let count = txns.len() as u64;
            let mut lane: Vec<Delivery> = txns
                .into_iter()
                .enumerate()
                .map(|(seq, (ops, status))| Delivery::Txn { seq: seq as u64, ops, status })
                .collect();
            lane.push(Delivery::Seal { count });
            lane
        })
        .collect()
}

fn replay_stream(sessions: &SessionTxns) -> HistoryStream {
    let mut stream = HistoryStream::new();
    for session in sessions {
        let sid = stream.session();
        for (ops, status) in session {
            let _ = stream.try_push_transaction(sid, ops.clone(), *status);
        }
    }
    stream
}

/// Each wave's clean per-session transactions (duplicates dropped,
/// swaps undone), for the `HistoryStream` replay.
fn plan_sessions(plan: &LivePlan) -> Vec<SessionTxns> {
    plan.waves
        .iter()
        .map(|wave| {
            let mut sessions: Vec<BTreeMap<u64, (Vec<Op>, TxnStatus)>> =
                vec![BTreeMap::new(); SLOTS];
            for (slot, msg) in &wave.deliveries {
                if let Delivery::Txn { seq, ops, status } = msg {
                    sessions[*slot].insert(*seq, (ops.clone(), *status));
                }
            }
            sessions.into_iter().map(|s| s.into_values().collect()).collect()
        })
        .collect()
}

/// The per-layer metrics of one round's spans.
fn round_metrics(spans: &[Span], offset: usize) -> Vec<(&'static str, &'static str, f64)> {
    let ms =
        |name: &str| spans.iter().filter(|s| s.name == name).map(Span::ms).fold(0.0, |a, b| a + b);
    let peak = |name: &str| {
        spans.iter().filter(|s| s.name == name).filter_map(|s| s.peak_bytes).max().unwrap_or(0)
            as f64
            / MIB
    };
    let args = |key: &'static str| {
        spans.iter().flat_map(|s| &s.args).filter(move |(k, _)| *k == key).map(|a| a.1)
    };
    let sum = |key: &'static str| args(key).fold(0.0, |a, b| a + b);
    let max = |key: &'static str| args(key).fold(0.0, f64::max);

    let is_root = |s: &Span| s.name == VERDICT;
    let untraced = sum("untraced_ms");
    let traced: f64 = spans.iter().filter(|s| is_root(s)).map(Span::ms).sum();
    // Time the layer calls directly under a verdict root account for
    // (parent ids are positions in the whole recording).
    let covered: f64 = spans
        .iter()
        .filter(|s| {
            s.parent.and_then(|p| p.checked_sub(offset)).is_some_and(|p| is_root(&spans[p]))
        })
        .map(Span::ms)
        .sum();
    let prune_args = spans.iter().filter(|s| s.name == "polygraph.prune").flat_map(|s| &s.args);
    let (b, a) = prune_args.fold((0.0, 0.0), |(b, a), &(k, v)| match k {
        "before" => (b + v, a),
        "after" => (b, a + v),
        _ => (b, a),
    });

    vec![
        ("history.codec.decode_ms", "ms", ms("history.codec.decode")),
        ("history.binfmt.decode_ms", "ms", ms("history.binfmt.decode")),
        ("history.facts.analyze_ms", "ms", ms("history.facts.analyze")),
        ("history.shard.plan_ms", "ms", ms("history.shard.plan")),
        ("history.stream.push_ms", "ms", ms("history.stream.push")),
        ("polygraph.construct_ms", "ms", ms("polygraph.construct")),
        ("polygraph.construct_peak_mib", "MiB", peak("polygraph.construct")),
        ("polygraph.constraints", "count", sum("constraints")),
        ("polygraph.prune_ms", "ms", ms("polygraph.prune")),
        ("polygraph.prune_peak_mib", "MiB", peak("polygraph.prune")),
        ("polygraph.prune_resolved_ratio", "ratio", if b > 0.0 { 1.0 - a / b } else { 0.0 }),
        ("polygraph.oracle_bytes", "bytes", sum("oracle_bytes")),
        ("core.encode_ms", "ms", ms("core.encode")),
        ("core.encode_vars", "count", sum("vars")),
        ("core.encode_clauses", "count", sum("clauses")),
        ("core.encode_theory_edges", "count", sum("theory_edges")),
        ("solver.solve_ms", "ms", ms("solver.solve")),
        ("solver.solve_peak_mib", "MiB", peak("solver.solve")),
        ("solver.conflicts", "count", sum("conflicts")),
        ("solver.decisions", "count", sum("decisions")),
        ("solver.propagations", "count", sum("propagations")),
        ("core.interpret_ms", "ms", ms("core.interpret")),
        ("core.rejects_at_axioms", "count", sum("rejects_at_axioms")),
        ("core.rejects_at_prune", "count", sum("rejects_at_prune")),
        ("core.rejects_at_solve", "count", sum("rejects_at_solve")),
        ("core.engine_overhead_ms", "ms", sum("engine_overhead_ms")),
        ("core.stream.checkpoint_ms", "ms", ms("core.stream.checkpoint")),
        ("core.stream.dirty", "count", sum("dirty")),
        ("core.stream.rebuilt", "count", sum("rebuilt")),
        ("core.stream.compacted", "count", sum("compacted")),
        ("core.stream.live_txns_max", "count", max("live_txns")),
        ("core.live.deliver_ms", "ms", ms("core.live.deliver")),
        ("core.live.duplicates", "count", sum("duplicates")),
        ("core.live.healed", "count", sum("healed")),
        ("trace.untraced_ms", "ms", untraced),
        ("trace.overhead_ms", "ms", traced - untraced),
        ("trace.coverage_pct", "%", if untraced > 0.0 { 100.0 * covered / untraced } else { 0.0 }),
    ]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Write the spans as Chrome trace-event JSON (loadable in Perfetto), with
/// the run's provenance alongside.
pub fn write_trace(path: &Path, spans: &[Span], provenance: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"provenance\":{provenance},\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"round\":{}",
            s.name,
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.parent.map_or(-1, |p| p as i64),
            s.round
        )?;
        if let Some(p) = s.peak_bytes {
            write!(out, ",\"peak_bytes\":{p}")?;
        }
        for (k, v) in &s.args {
            write!(out, ",\"{k}\":{v}")?;
        }
        out.write_all(b"}}")?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}
