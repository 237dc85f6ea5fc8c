//! Workloads and the inputs each one generates from `--seed`.
//!
//! Every input is made before the timed part (it is what `setup_s`
//! measures): dbsim runs encoded to their on-disk format for the batch
//! workloads, a wave stream with its delivery plan for `live_waves`. The
//! same seed gives byte-identical inputs; [`Inputs::digest`] checks that
//! across the repeated set-ups of one run.

use crate::refs::{confirmed_anomalous, Expect};
use polysi_dbsim::{run, IsolationLevel as DbLevel, SimConfig};
use polysi_history::{binfmt, codec, Delivery, History, Key, Op, TxnStatus, Value};
use polysi_workloads::{generate, GeneralParams, KeyDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hot-key SI histories as text: construction and pruning dominate.
    BatchHotSi,
    /// Write-heavy SI histories as `.pbh`: most constraints reach the solver.
    BatchBlindWrites,
    /// The hot shape under the five faulty dbsim levels: the rejection path.
    FaultyDb,
    /// A wave stream through the live hub: delta construction, prune
    /// resumption, compaction and lane healing.
    LiveWaves,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BatchHotSi, Workload::BatchBlindWrites, Workload::FaultyDb, Workload::LiveWaves];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchHotSi => "batch_hot_si",
            Workload::BatchBlindWrites => "batch_blind_writes",
            Workload::FaultyDb => "faulty_db",
            Workload::LiveWaves => "live_waves",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Histories per round of `batch_hot_si`.
pub const HOT_POOL: usize = 60;
/// Histories per round of `batch_blind_writes`.
pub const BLIND_POOL: usize = 180;
/// The seeded `faulty_db` mix: per faulty level, the confirmed-anomalous
/// hot-shape histories kept in one round and the candidates drawn for
/// them. The counts put the median inside the stale-snapshot group and
/// the 90th percentile inside the lost-update group, away from the jumps
/// between groups. Every candidate is generated, kept or not, so set-up
/// does the same work on every seed; the draws leave room for the levels'
/// confirmation rates (lost-update candidates are confirmed least often:
/// 6 kept took 6 to 12 draws on seeds 1 to 16).
pub const FAULTY_MIX: [(DbLevel, usize, usize); 4] = [
    (DbLevel::NoWriteConflictDetection, 6, 24),
    (DbLevel::StaleSnapshot, 30, 40),
    (DbLevel::ReadCommitted, 6, 10),
    (DbLevel::ReadUncommitted, 6, 10),
];
/// A fixed, seed-independent `PerKeySnapshot` history that the engine
/// rejects but classifies as a write-read cycle, outside the level's
/// class set. Every round checks it once and it fails every time; seeded
/// `PerKeySnapshot` histories are left out because that misclassification
/// hits only some of them.
pub const KNOWN_FAULT_SEED: u64 = 101;

/// Waves per live stream (one stream is one round).
pub const WAVES: usize = 100;
/// Sessions opened per wave; each owns a fixed slice of the key set.
pub const SLOTS: usize = 8;
/// Keys owned by each slot (32 keys in all, reused by every wave).
pub const KEYS_PER_SLOT: usize = 4;
/// Transactions per session per wave.
pub const TXNS_PER_SESSION: usize = 32;
/// Per-transaction chance that a session's delivery swaps it with its
/// successor (healed by the hub's reorder buffer).
pub const SWAP_RATE: f64 = 1.0 / 16.0;
/// Per-transaction chance that its delivery is duplicated.
pub const DUP_RATE: f64 = 1.0 / 32.0;
/// Per-transaction chance of an extra read of a random key's latest value.
pub const EXTRA_READ_RATE: f64 = 1.0 / 8.0;

/// The hot-key shape: 8 sessions × 200 txns × 8 ops, 40 zipfian keys,
/// 50% reads (shared by `batch_hot_si` and `faulty_db`).
fn hot_params(seed: u64) -> GeneralParams {
    GeneralParams {
        sessions: 8,
        txns_per_session: 200,
        ops_per_txn: 8,
        read_pct: 50,
        keys: 40,
        dist: KeyDistribution::Zipfian,
        seed,
    }
}

/// The blind-write shape: 20 sessions × 50 txns × 8 ops, 50 zipfian
/// keys, 10% reads.
fn blind_params(seed: u64) -> GeneralParams {
    GeneralParams {
        sessions: 20,
        txns_per_session: 50,
        ops_per_txn: 8,
        read_pct: 10,
        keys: 50,
        dist: KeyDistribution::Zipfian,
        seed,
    }
}

/// A history in the on-disk format its workload reads.
#[derive(Clone)]
pub enum Encoded {
    Text(String),
    Binary(Vec<u8>),
}

impl Encoded {
    /// Decode with the format's public decoder.
    pub fn decode(&self) -> Result<History, String> {
        match self {
            Encoded::Text(s) => codec::decode(s).map_err(|e| e.to_string()),
            Encoded::Binary(b) => binfmt::decode(b).map_err(|e| e.to_string()),
        }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Encoded::Text(s) => s.as_bytes(),
            Encoded::Binary(b) => b,
        }
    }
}

/// One batch input: an encoded history and what its verdict must be.
pub struct BatchInput {
    pub encoded: Encoded,
    pub txns: usize,
    pub expect: Expect,
    /// The dbsim level that produced the history.
    pub level: DbLevel,
    /// Where the history came from (dbsim level and sub-seed), for
    /// failure reports.
    pub label: String,
    /// The known-fault input: its verdict fails every time.
    pub known_fault: bool,
}

/// One wave of the live stream: its deliveries in arrival order, as
/// `(slot, message)` pairs.
#[derive(Clone)]
pub struct Wave {
    pub deliveries: Vec<(usize, Delivery)>,
    /// Distinct transactions the wave carries.
    pub txns: usize,
    /// Whether this wave carries the planted lost update.
    pub planted: bool,
}

/// The live stream and the faults its delivery plan injects.
pub struct LivePlan {
    pub waves: Vec<Wave>,
    pub duplicates: usize,
    pub swaps: usize,
}

/// Everything one workload checks in a round.
pub enum Inputs {
    Batch(Vec<BatchInput>),
    Live(LivePlan),
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, refs: &mut References) -> Inputs {
        match workload {
            Workload::BatchHotSi => Inputs::Batch(
                (0..HOT_POOL)
                    .map(|i| {
                        let s = mix(seed, 1, i as u64);
                        let h = simulate(&hot_params(s), DbLevel::SnapshotIsolation, s);
                        batch_input(
                            &h,
                            DbLevel::SnapshotIsolation,
                            s,
                            Encoded::Text(codec::encode(&h)),
                        )
                    })
                    .collect(),
            ),
            Workload::BatchBlindWrites => Inputs::Batch(
                (0..BLIND_POOL)
                    .map(|i| {
                        let s = mix(seed, 2, i as u64);
                        let h = simulate(&blind_params(s), DbLevel::SnapshotIsolation, s);
                        batch_input(
                            &h,
                            DbLevel::SnapshotIsolation,
                            s,
                            Encoded::Binary(binfmt::encode(&h)),
                        )
                    })
                    .collect(),
            ),
            Workload::FaultyDb => Inputs::Batch(faulty_pool(seed, refs)),
            Workload::LiveWaves => Inputs::Live(live_plan(seed)),
        }
    }

    /// Verdicts one round attempts.
    pub fn verdicts_per_round(&self) -> usize {
        match self {
            Inputs::Batch(pool) => pool.len(),
            // One checkpoint per wave, plus the final checkpoint of `finish`.
            Inputs::Live(plan) => plan.waves.len() + 1,
        }
    }

    /// The levels of [`FAULTY_MIX`] that a `faulty_db` pool holds fewer
    /// histories of than the mix asks for, as (level, kept, asked); empty
    /// on the other workloads.
    pub fn unfilled(&self, workload: Workload) -> Vec<(&'static str, usize, usize)> {
        let Inputs::Batch(pool) = self else { return Vec::new() };
        if workload != Workload::FaultyDb {
            return Vec::new();
        }
        FAULTY_MIX
            .iter()
            .filter_map(|&(level, count, _)| {
                let kept = pool.iter().filter(|i| !i.known_fault && i.level == level).count();
                (kept < count).then_some((level.name(), kept, count))
            })
            .collect()
    }

    /// The make-up of a round: histories per dbsim level (the known-fault
    /// one apart), or the waves and injected faults of a live stream.
    pub fn makeup(&self) -> String {
        match self {
            Inputs::Batch(pool) => {
                let mut counts: Vec<(String, usize)> = Vec::new();
                for input in pool {
                    let name = if input.known_fault {
                        format!("known-fault {}", input.level.name())
                    } else {
                        input.level.name().to_string()
                    };
                    match counts.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((name, 1)),
                    }
                }
                let parts: Vec<String> = counts.iter().map(|(n, c)| format!("{c} {n}")).collect();
                parts.join(", ")
            }
            Inputs::Live(plan) => format!(
                "{} waves, {} duplicates, {} swaps",
                plan.waves.len(),
                plan.duplicates,
                plan.swaps
            ),
        }
    }

    /// FNV-1a digest of the inputs, to check that repeated set-ups agree.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::default();
        match self {
            Inputs::Batch(pool) => {
                for input in pool {
                    d.bytes(input.encoded.bytes());
                }
            }
            Inputs::Live(plan) => {
                for wave in &plan.waves {
                    for (slot, msg) in &wave.deliveries {
                        d.word(*slot as u64);
                        match msg {
                            Delivery::Txn { seq, ops, .. } => {
                                d.word(*seq);
                                for op in ops {
                                    d.word(op.key().0);
                                    d.word(op.value().0 << 1 | op.is_read() as u64);
                                }
                            }
                            Delivery::Seal { count } => d.word(u64::MAX - count),
                            Delivery::Torn { seq, .. } => d.word(*seq),
                        }
                    }
                }
            }
        }
        d.0
    }
}

fn simulate(params: &GeneralParams, level: DbLevel, seed: u64) -> History {
    run(&generate(params), &SimConfig::new(level, seed)).history
}

fn batch_input(h: &History, level: DbLevel, seed: u64, encoded: Encoded) -> BatchInput {
    let label = format!("{}/seed{seed:016x}", level.name());
    BatchInput {
        encoded,
        txns: h.len(),
        expect: Expect::for_level(level),
        level,
        label,
        known_fault: false,
    }
}

/// The `FAULTY_MIX` of confirmed-anomalous histories, interleaved level
/// by level, then the known-fault history. A level whose draws hold fewer
/// confirmed histories than it asks for stays short; see
/// [`Inputs::unfilled`].
fn faulty_pool(seed: u64, refs: &mut References) -> Vec<BatchInput> {
    let mut per_level: Vec<Vec<BatchInput>> = Vec::new();
    for (li, &(level, count, draws)) in FAULTY_MIX.iter().enumerate() {
        let candidates: Vec<(u64, History)> = (0..draws)
            .map(|draw| {
                let s = mix(seed, 3 + li as u64, draw as u64);
                (s, simulate(&hot_params(s), level, s))
            })
            .collect();
        let kept = candidates
            .iter()
            .filter(|(s, h)| refs.confirmed_anomalous(*s, h))
            .take(count)
            .map(|(s, h)| batch_input(h, level, *s, Encoded::Text(codec::encode(h))))
            .collect();
        per_level.push(kept);
    }
    let mut pool: Vec<BatchInput> =
        round_robin(per_level).into_iter().map(|(_, input)| input).collect();
    let level = DbLevel::PerKeySnapshot;
    let h = simulate(&hot_params(KNOWN_FAULT_SEED), level, KNOWN_FAULT_SEED);
    let mut known = batch_input(&h, level, KNOWN_FAULT_SEED, Encoded::Text(codec::encode(&h)));
    known.known_fault = true;
    pool.push(known);
    pool
}

/// The operational reference's verdicts, kept across the repeated set-ups
/// of a run: the search runs once per candidate history, and its time is
/// left out of `setup_s` (it checks the inputs; it does not make them).
#[derive(Default)]
pub struct References {
    confirmed: HashMap<u64, bool>,
    /// Time spent in the reference search during the current set-up.
    pub elapsed: Duration,
}

impl References {
    fn confirmed_anomalous(&mut self, seed: u64, h: &History) -> bool {
        let t = Instant::now();
        let confirmed = *self.confirmed.entry(seed).or_insert_with(|| confirmed_anomalous(h));
        self.elapsed += t.elapsed();
        confirmed
    }
}

/// Interleave lanes one item at a time, tagging each item with its lane.
fn round_robin<T>(lanes: Vec<Vec<T>>) -> Vec<(usize, T)> {
    let total = lanes.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
    while out.len() < total {
        for (lane, it) in iters.iter_mut().enumerate() {
            if let Some(item) = it.next() {
                out.push((lane, item));
            }
        }
    }
    out
}

fn key_of(slot: usize, i: usize) -> Key {
    Key(1 + (slot * KEYS_PER_SLOT + i) as u64)
}

/// The wave stream (after `bench/src/bin/soak.rs`): each wave opens
/// `SLOTS` sessions of `TXNS_PER_SESSION` txns over the fixed key set. A
/// session's first `KEYS_PER_SLOT` txns read the previous wave's final
/// version of the key they overwrite, so the older wave settles; every
/// eighth txn reads a neighbour slot's key, keeping one component; seeded
/// extra reads touch random keys' latest versions. Transactions are
/// generated in one serial order (each read returns the latest committed
/// value), so the stream is SI. The last wave plants a lost update: two
/// sessions read the same version of one key and both overwrite it.
///
/// Each session's deliveries then get seeded adjacent swaps and
/// duplicates, and the sessions' messages interleave round-robin.
fn live_plan(seed: u64) -> LivePlan {
    let mut rng = StdRng::seed_from_u64(mix(seed, 9, 0));
    let mut last_val: HashMap<Key, Value> = HashMap::new();
    let mut next_val = 1u64;
    let mut fresh = || {
        let v = Value(next_val);
        next_val += 1;
        v
    };
    let (mut duplicates, mut swaps) = (0, 0);
    let mut waves = Vec::with_capacity(WAVES);
    for wave in 0..WAVES {
        let planted = wave == WAVES - 1;
        let mut sessions: Vec<Vec<Vec<Op>>> =
            (0..SLOTS).map(|_| Vec::with_capacity(TXNS_PER_SESSION)).collect();
        let plant_key = key_of(0, 2);
        let plant_t = KEYS_PER_SLOT + 2;
        for t in 0..TXNS_PER_SESSION {
            let plant_read = (planted && t == plant_t).then(|| last_val[&plant_key]);
            for (slot, session) in sessions.iter_mut().enumerate() {
                let key = key_of(slot, t % KEYS_PER_SLOT);
                let plant = plant_read.filter(|_| slot == 1 || slot == 2);
                let mut ops = Vec::with_capacity(4);
                if t < KEYS_PER_SLOT {
                    if let Some(&v) = last_val.get(&key) {
                        ops.push(Op::Read { key, value: v });
                    }
                } else {
                    if t % 8 == 3 {
                        let other = key_of((slot + 1) % SLOTS, t % KEYS_PER_SLOT);
                        ops.push(Op::Read { key: other, value: last_val[&other] });
                    }
                    if rng.gen_bool(EXTRA_READ_RATE) {
                        let other =
                            key_of(rng.gen_range(0..SLOTS), rng.gen_range(0..KEYS_PER_SLOT));
                        // A planting txn reads the planted key once, at its
                        // planted version; a second read would break `Int`.
                        if other != key && !(plant.is_some() && other == plant_key) {
                            ops.push(Op::Read { key: other, value: last_val[&other] });
                        }
                    }
                }
                if let Some(v) = plant {
                    let w = fresh();
                    ops.push(Op::Read { key: plant_key, value: v });
                    ops.push(Op::Write { key: plant_key, value: w });
                    last_val.insert(plant_key, w);
                }
                let value = fresh();
                ops.push(Op::Write { key, value });
                last_val.insert(key, value);
                session.push(ops);
            }
        }

        let mut lanes: Vec<Vec<Delivery>> = Vec::with_capacity(SLOTS);
        for session in sessions {
            let count = session.len() as u64;
            let mut msgs: Vec<Delivery> = session
                .into_iter()
                .enumerate()
                .map(|(seq, ops)| Delivery::Txn {
                    seq: seq as u64,
                    ops,
                    status: TxnStatus::Committed,
                })
                .collect();
            let mut i = 0;
            while i + 1 < msgs.len() {
                if rng.gen_bool(SWAP_RATE) {
                    msgs.swap(i, i + 1);
                    swaps += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let mut lane = Vec::with_capacity(msgs.len() + 4);
            for msg in msgs {
                let dup = rng.gen_bool(DUP_RATE);
                if dup {
                    lane.push(msg.clone());
                    duplicates += 1;
                }
                lane.push(msg);
            }
            lane.push(Delivery::Seal { count });
            lanes.push(lane);
        }
        let deliveries = round_robin(lanes);
        waves.push(Wave { deliveries, txns: SLOTS * TXNS_PER_SESSION, planted });
    }
    LivePlan { waves, duplicates, swaps }
}

/// SplitMix64 over the run seed, a workload tag and an index: distinct,
/// well-spread sub-seeds.
pub fn mix(seed: u64, tag: u64, i: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_live_plan_and_counts() {
        let mut refs = References::default();
        let a = Inputs::generate(Workload::LiveWaves, 7, &mut refs);
        let b = Inputs::generate(Workload::LiveWaves, 7, &mut refs);
        assert_eq!(a.digest(), b.digest());
        let c = live_plan(8);
        assert!(c.duplicates > 0 && c.swaps > 0);
        assert!(c.waves.last().expect("waves").planted);
        assert_eq!(c.waves.iter().filter(|w| w.planted).count(), 1);
    }

    #[test]
    fn known_fault_history_is_confirmed_anomalous() {
        let level = DbLevel::PerKeySnapshot;
        let h = simulate(&hot_params(KNOWN_FAULT_SEED), level, KNOWN_FAULT_SEED);
        assert!(confirmed_anomalous(&h));
    }

    #[test]
    fn a_short_faulty_level_is_reported() {
        let input = |level: DbLevel, known_fault: bool| BatchInput {
            encoded: Encoded::Text(String::new()),
            txns: 0,
            expect: Expect::for_level(level),
            level,
            label: String::new(),
            known_fault,
        };
        let mut pool: Vec<BatchInput> = FAULTY_MIX
            .iter()
            .flat_map(|&(level, count, _)| (0..count).map(move |_| input(level, false)))
            .collect();
        pool.push(input(DbLevel::PerKeySnapshot, true));
        let full = Inputs::Batch(pool);
        assert!(full.unfilled(Workload::FaultyDb).is_empty());
        assert!(full.makeup().contains("30 stale-snapshot"), "{}", full.makeup());
        let Inputs::Batch(mut pool) = full else { unreachable!() };
        let stale = pool.iter().position(|i| i.level == DbLevel::StaleSnapshot).unwrap();
        pool.remove(stale);
        let short = Inputs::Batch(pool);
        assert_eq!(short.unfilled(Workload::FaultyDb), vec![("stale-snapshot", 29, 30)]);
        assert!(short.unfilled(Workload::BatchHotSi).is_empty());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
