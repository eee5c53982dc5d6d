//! Microbenchmarks of single layers, with inputs taken from the
//! workload: the event queue at the workload's pending-event count, the
//! HTM state at its CPU count and detection mode, and the Bloom algebra
//! at its managers' filter sizes.

use crate::stats::{median, ns_since};
use bfgts_bench::{ManagerSpec, Scenario};
use bfgts_bloomsig::BloomFilter;
use bfgts_htm::{AccessResult, DTxId, Detection, LineAddr, STxId, TmState, TxSource};
use bfgts_scenario::ResolvedWorkload;
use bfgts_sim::equeue::EventQueue;
use bfgts_sim::{Cycle, EventQueueKind, SimRng, ThreadId};
use bfgts_workloads::BenchmarkSpec;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each microbenchmark; the median is reported.
const REPS: usize = 5;

/// Results in nanoseconds per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// Calendar queue, one pop plus one push.
    pub equeue_calendar_ns: f64,
    /// Binary heap, one pop plus one push.
    pub equeue_heap_ns: f64,
    /// `TmState::begin_tx` plus `commit_tx` with every other CPU busy.
    pub begin_commit_ns: f64,
    /// One replayed `read`/`write`, including the replay's share of
    /// begin, commit and abort.
    pub access_ns: f64,
    /// One `BloomFilter::insert`.
    pub bloom_insert_ns: f64,
    /// One `BloomFilter::intersection_estimate`.
    pub bloom_estimate_ns: f64,
}

/// One distinct HTM platform of a workload.
#[derive(Debug, Clone)]
struct HtmShape {
    spec: BenchmarkSpec,
    cpus: usize,
    threads: usize,
    shards: u32,
    detection: Detection,
}

/// Runs every microbenchmark on inputs drawn from `scenarios`.
pub fn run(scenarios: &[Scenario], seed: u64, scale: f64) -> Micro {
    let shapes = htm_shapes(scenarios);
    let pending = scenarios
        .iter()
        .map(|s| s.platform.threads)
        .max()
        .unwrap_or(1);
    let ops = |n: f64| ((n * scale).round() as usize).max(64);
    let queue_ops = ops(400_000.0);
    let first = &shapes[0];
    let access_ops = ops(300_000.0) / shapes.len();
    let blooms = bloom_sizes(scenarios);
    let bloom_samples: Vec<(f64, f64)> = (0..REPS)
        .map(|_| {
            let runs: Vec<(f64, f64)> = blooms
                .iter()
                .map(|b| bloom(b, ops(50_000.0), seed))
                .collect();
            (mean_over(&runs, |r| r.0), mean_over(&runs, |r| r.1))
        })
        .collect();
    Micro {
        equeue_calendar_ns: rep(|| equeue(EventQueueKind::Calendar, pending, queue_ops, seed)),
        equeue_heap_ns: rep(|| equeue(EventQueueKind::Heap, pending, queue_ops, seed)),
        begin_commit_ns: rep(|| begin_commit(first, ops(200_000.0))),
        access_ns: rep(|| {
            shapes
                .iter()
                .map(|shape| access(shape, access_ops, seed))
                .sum::<f64>()
                / shapes.len() as f64
        }),
        bloom_insert_ns: median(&bloom_samples.iter().map(|s| s.0).collect::<Vec<_>>()),
        bloom_estimate_ns: median(&bloom_samples.iter().map(|s| s.1).collect::<Vec<_>>()),
    }
}

fn rep(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&samples)
}

fn mean_over<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(f).sum::<f64>() / items.len() as f64
}

/// The distinct non-serial HTM platforms of the workload.
fn htm_shapes(scenarios: &[Scenario]) -> Vec<HtmShape> {
    let mut out: Vec<HtmShape> = Vec::new();
    for s in scenarios {
        if matches!(s.manager, ManagerSpec::Serial) {
            continue;
        }
        let Ok(ResolvedWorkload::Benchmark(spec)) = s.workload.resolve() else {
            continue;
        };
        let shape = HtmShape {
            spec,
            cpus: s.platform.cpus,
            threads: s.platform.threads,
            shards: s.platform.shards,
            detection: s.platform.detection,
        };
        let seen = out.iter().any(|o| {
            o.spec.name == shape.spec.name
                && o.cpus == shape.cpus
                && o.threads == shape.threads
                && o.shards == shape.shards
                && o.detection == shape.detection
        });
        if !seen {
            out.push(shape);
        }
    }
    out
}

/// The distinct `(preset, Bloom bits)` pairs of the workload's
/// Bloom-signature managers.
fn bloom_sizes(scenarios: &[Scenario]) -> Vec<(BenchmarkSpec, u32)> {
    let mut out: Vec<(BenchmarkSpec, u32)> = Vec::new();
    for s in scenarios {
        let ManagerSpec::Kind { kind, bloom_bits } = &s.manager else {
            continue;
        };
        if !kind.uses_bloom() {
            continue;
        }
        let Ok(ResolvedWorkload::Benchmark(spec)) = s.workload.resolve() else {
            continue;
        };
        let bits = bloom_bits.unwrap_or_else(|| kind.optimal_bloom_bits(spec.name));
        if !out.iter().any(|(o, b)| o.name == spec.name && *b == bits) {
            out.push((spec, bits));
        }
    }
    out
}

/// Pops the earliest of `pending` events and re-arms it a short,
/// seeded distance later, as the engine does per simulated step.
fn equeue(kind: EventQueueKind, pending: usize, ops: usize, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed);
    let mut queue = EventQueue::new(kind);
    let mut seq = 0u64;
    for cpu in 0..pending {
        queue.push(Cycle::new(rng.gen_range(4096)), seq, cpu);
        seq += 1;
    }
    let start = Instant::now();
    for _ in 0..ops {
        let (time, _, cpu) = queue.pop().expect("the queue never drains");
        queue.push(
            Cycle::new(time.as_u64() + 1 + rng.gen_range(4000)),
            seq,
            cpu,
        );
        seq += 1;
    }
    black_box(&queue);
    ns_since(start) as f64 / ops as f64
}

fn tm_state(shape: &HtmShape) -> TmState {
    let mut tm = TmState::new(shape.cpus, shape.threads);
    tm.configure_shards(shape.shards);
    tm.configure_detection(shape.detection);
    tm
}

/// Begins and commits one transaction on the last CPU while every other
/// CPU holds an open transaction.
fn begin_commit(shape: &HtmShape, ops: usize) -> f64 {
    let mut tm = tm_state(shape);
    let busy = shape.cpus.min(shape.threads) - 1;
    for t in 0..busy {
        tm.begin_tx(
            ThreadId(t),
            t,
            DTxId::new(ThreadId(t), STxId(0)),
            Cycle::new(0),
        );
    }
    let thread = ThreadId(busy);
    let dtx = DTxId::new(thread, STxId(1));
    let start = Instant::now();
    for i in 0..ops {
        tm.begin_tx(thread, busy, dtx, Cycle::new(i as u64));
        black_box(tm.commit_tx(thread));
    }
    ns_since(start) as f64 / ops as f64
}

/// Replays the workload's transactions on every CPU at once, one access
/// per thread in turn. A denied access aborts its transaction and the
/// thread moves on to its next one.
fn access(shape: &HtmShape, ops: usize, seed: u64) -> f64 {
    let mut tm = tm_state(shape);
    let active = shape.cpus.min(shape.threads);
    let mut spec = shape.spec.clone();
    spec.total_txs = (active as u64) * 100_000;
    let mut sources = spec.sources(active);
    let mut rng = SimRng::seed_from(seed);
    let mut txs: Vec<Option<(bfgts_htm::TxInstance, usize)>> = vec![None; active];
    let mut done = 0usize;
    let start = Instant::now();
    'replay: while done < ops {
        for t in 0..active {
            let thread = ThreadId(t);
            if txs[t].is_none() {
                let Some(tx) = sources[t].next_tx(&mut rng) else {
                    break 'replay;
                };
                tm.begin_tx(
                    thread,
                    t,
                    DTxId::new(thread, tx.stx),
                    Cycle::new(done as u64),
                );
                txs[t] = Some((tx, 0));
            }
            let (tx, cursor) = txs[t].as_mut().expect("filled above");
            let Some(acc) = tx.accesses.get(*cursor) else {
                tm.commit_tx(thread);
                txs[t] = None;
                continue;
            };
            let result = if acc.is_write {
                tm.write(thread, LineAddr(acc.addr.0))
            } else {
                tm.read(thread, LineAddr(acc.addr.0))
            };
            done += 1;
            if result == AccessResult::Granted {
                *cursor += 1;
            } else {
                tm.abort_tx(thread);
                txs[t] = None;
            }
        }
    }
    ns_since(start) as f64 / done.max(1) as f64
}

/// Builds a filter per transaction read/write set (timing the inserts),
/// then estimates the intersection of consecutive filters. Returns
/// `(ns per insert, ns per estimate)`.
fn bloom((spec, bits): &(BenchmarkSpec, u32), ops: usize, seed: u64) -> (f64, f64) {
    let mut spec = spec.clone();
    spec.total_txs = 1 << 20;
    let mut source = spec.sources(1).remove(0);
    let mut rng = SimRng::seed_from(seed);
    let sets: Vec<Vec<u64>> = (0..256)
        .filter_map(|_| source.next_tx(&mut rng))
        .map(|tx| tx.accesses.iter().map(|a| a.addr.0).collect())
        .collect();
    let mut filters: Vec<BloomFilter> = Vec::with_capacity(sets.len());
    let mut inserts = 0usize;
    let start = Instant::now();
    while inserts < ops {
        filters.clear();
        for set in &sets {
            let mut filter = BloomFilter::new(*bits, 4);
            for &line in set {
                filter.insert(line);
            }
            inserts += set.len();
            filters.push(filter);
        }
    }
    let insert_ns = ns_since(start) as f64 / inserts.max(1) as f64;
    let mut estimates = 0usize;
    let mut sum = 0.0;
    let start = Instant::now();
    while estimates < ops {
        for pair in filters.windows(2) {
            sum += pair[0].intersection_estimate(&pair[1]);
            estimates += 1;
        }
    }
    black_box(sum);
    (insert_ns, ns_since(start) as f64 / estimates.max(1) as f64)
}
