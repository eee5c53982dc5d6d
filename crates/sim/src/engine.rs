//! The discrete-event execution engine: CPUs, run queues, the OS scheduler
//! model and the main event loop.

use crate::accounting::{Bucket, TimeBuckets};
use crate::cost::CostModel;
use crate::equeue::CalendarQueue;
use crate::ids::{CpuId, ThreadId};
use crate::rng::SimRng;
use crate::time::Cycle;
use bfgts_trace::{TraceEvent, TraceMode, TraceRecording, TraceSink};
use std::collections::VecDeque;

/// What a thread does next when the engine schedules it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Consume CPU for `cycles`, accounted to `bucket`.
    Work {
        /// Number of cycles the action takes.
        cycles: u64,
        /// Accounting category for these cycles.
        bucket: Bucket,
    },
    /// Give up the CPU voluntarily (`pthread_yield`): the thread stays
    /// runnable but moves to the back of its CPU's run queue. The yield
    /// syscall cost is charged to the kernel bucket.
    Yield,
    /// Sleep until another thread calls [`ThreadCtx::wake`] for this
    /// thread. The futex block cost is charged to the kernel bucket.
    Block,
    /// Sleep until the simulated clock reaches `deadline` (a timed wait
    /// on an empty work queue, e.g. an open-system thread parked until
    /// the next transaction arrival). The thread leaves the CPU without
    /// charging anything — parked time is CPU idle time — and is
    /// re-queued, Ready, once `deadline` passes. A deadline at or before
    /// the current time degenerates to a re-queue.
    SleepUntil {
        /// Absolute simulated cycle at which the thread becomes runnable.
        deadline: u64,
    },
    /// The thread has finished its program.
    Finish,
}

impl Action {
    /// Convenience constructor for [`Action::Work`].
    pub fn work(cycles: u64, bucket: Bucket) -> Action {
        Action::Work { cycles, bucket }
    }
}

/// Behaviour of one simulated thread, generic over the shared `World`
/// (e.g. a transactional-memory model).
///
/// `step` is called whenever the thread holds a CPU and its previous
/// action has completed; it returns the next action. Implementations keep
/// their own program state (what to run next) internally.
pub trait ThreadLogic<W> {
    /// Advance the thread's program by one action.
    fn step(&mut self, world: &mut W, ctx: &mut ThreadCtx) -> Action;
}

/// Per-step context handed to [`ThreadLogic::step`].
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    /// The thread being stepped.
    pub thread: ThreadId,
    /// The CPU it is running on.
    pub cpu: CpuId,
    /// Current simulated time.
    pub now: Cycle,
    /// The thread's private deterministic RNG stream.
    pub rng: &'a mut SimRng,
    /// The thread's cycle accounting. Logics normally only *read* this;
    /// the one sanctioned mutation is [`TimeBuckets::transfer`], used to
    /// re-file optimistically-charged transactional work as aborted work.
    pub buckets: &'a mut TimeBuckets,
    /// The run's trace sink, for thread logics that emit their own typed
    /// events (transaction lifecycle, scheduler decisions). Disabled
    /// unless [`EngineConfig::trace`] says otherwise. A public field
    /// (like `rng` and `buckets`) so callers can borrow it alongside the
    /// other context pieces.
    pub trace: &'a mut TraceSink,
    costs: &'a CostModel,
    wakes: Vec<ThreadId>,
}

impl ThreadCtx<'_> {
    /// The machine's latency parameters.
    pub fn costs(&self) -> &CostModel {
        self.costs
    }

    /// Requests that `target` be woken (if blocked) when this step's
    /// action is committed. The futex wake cost is charged to the calling
    /// thread's kernel bucket.
    pub fn wake(&mut self, target: ThreadId) {
        self.wakes.push(target);
    }

    /// Re-files `cycles` from one bucket to another through
    /// [`TimeBuckets::transfer`], recording the move in the trace so the
    /// audit can prove conservation. Returns the cycles actually moved
    /// (always `cycles` for correct accounting; the audit flags anything
    /// less). Prefer this over calling `transfer` directly.
    pub fn refile(&mut self, from: Bucket, to: Bucket, cycles: u64) -> u64 {
        let moved = self.buckets.transfer(from, to, cycles);
        let thread = self.thread.index() as u32;
        self.trace.emit(self.now.as_u64(), || TraceEvent::Refile {
            thread,
            from: from.trace_kind(),
            to: to.trace_kind(),
            requested: cycles,
            moved,
        });
        moved
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of CPUs (the paper uses 16).
    pub num_cpus: usize,
    /// Machine latency parameters.
    pub costs: CostModel,
    /// Master seed; per-thread RNG streams derive from it.
    pub seed: u64,
    /// Hard cap on simulated time; exceeding it panics (guards against
    /// live-lock in a buggy scheduler under test).
    pub max_cycles: u64,
    /// Event recording mode (off by default; tracing-disabled runs pay
    /// one branch per would-be event).
    pub trace: TraceMode,
}

impl EngineConfig {
    /// A configuration with `num_cpus` CPUs and default costs and seed.
    pub fn with_cpus(num_cpus: usize) -> Self {
        Self {
            num_cpus,
            costs: CostModel::default(),
            seed: 0xBF67_5000,
            max_cycles: u64::MAX,
            trace: TraceMode::Off,
        }
    }

    /// Replaces the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Replaces the trace mode.
    pub fn trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Ready,
    Running,
    Blocked,
    /// Parked on a timed wait ([`Action::SleepUntil`]); the engine's
    /// sleeper set holds the deadline.
    Sleeping,
    Finished,
}

struct ThreadSlot<W> {
    logic: Box<dyn ThreadLogic<W>>,
    state: ThreadState,
    cpu: CpuId,
    buckets: TimeBuckets,
    rng: SimRng,
    finish_time: Option<Cycle>,
    /// A wake that arrived while the thread was not blocked; consumed by
    /// the next `Block` (futex/semaphore semantics, so wakes delivered
    /// between a block *decision* and the block itself are not lost).
    pending_wake: bool,
}

#[derive(Debug, Default)]
struct Cpu {
    run_queue: VecDeque<ThreadId>,
    current: Option<ThreadId>,
    /// Last thread that held this CPU; a re-pickup of the same thread
    /// (yield with an empty queue) skips the context-switch charge.
    last: Option<ThreadId>,
    ran_since_switch: u64,
    /// True when a pickup/step event for this CPU is already in the
    /// event queue — the per-CPU armed-event index that keeps the queue
    /// at one *live* pending event per CPU, maximum.
    armed: bool,
    /// Time of the live pending event, valid while `armed`.
    armed_at: Cycle,
    /// Sequence number of the live pending event. A preemptible armed
    /// event re-armed *earlier* (a wake racing an idle CPU parked on a
    /// sleeper deadline) is superseded: the new seq is recorded here and
    /// the stale event is discarded on pop by seq mismatch.
    armed_seq: u64,
    /// Whether the live pending event is a pure idle timer (a sleeper
    /// deadline) that an earlier arm may supersede. Events marking the
    /// end of a charged interval ("CPU busy until T") must never be
    /// pulled earlier — servicing mid-charge would overlap charges and
    /// break audit invariant I2.
    armed_preemptible: bool,
}

/// Outcome of a completed simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Time at which the last thread finished (the parallel makespan).
    pub makespan: Cycle,
    /// Per-thread cycle accounting, indexed by [`ThreadId`].
    pub per_thread: Vec<TimeBuckets>,
    /// Number of CPUs the run used (needed to audit the trace).
    pub num_cpus: usize,
    /// Everything recorded by the trace sink (empty for untraced runs).
    pub trace: TraceRecording,
}

impl RunReport {
    /// Sum of all threads' buckets.
    pub fn total(&self) -> TimeBuckets {
        self.per_thread.iter().copied().sum()
    }

    /// The ground truth `bfgts_trace::audit` checks this run's trace
    /// against: makespan, CPU count and the per-thread bucket totals in
    /// the trace crate's index order.
    pub fn audit_inputs(&self) -> bfgts_trace::AuditInputs {
        bfgts_trace::AuditInputs {
            makespan: self.makespan.as_u64(),
            num_cpus: self.num_cpus,
            per_thread: self
                .per_thread
                .iter()
                .map(|t| {
                    let mut row = [0u64; bfgts_trace::BucketKind::COUNT];
                    for b in Bucket::ALL {
                        row[b.trace_kind().index()] = t.get(b);
                    }
                    row
                })
                .collect(),
            // The engine knows nothing about window-based managers; the
            // TM harness overrides this for runs that declared a seed.
            window_seed: None,
        }
    }
}

/// The discrete-event simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Engine<W> {
    config: EngineConfig,
    world: W,
    threads: Vec<ThreadSlot<W>>,
    cpus: Vec<Cpu>,
    queue: CalendarQueue,
    seq: u64,
    now: Cycle,
    finished: usize,
    trace: TraceSink,
    /// Threads parked on [`Action::SleepUntil`], ordered by
    /// `(deadline, thread)` so promotion back to Ready is deterministic.
    sleepers: std::collections::BTreeSet<(Cycle, ThreadId)>,
}

impl<W> Engine<W> {
    /// Creates an engine over `world` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_cpus == 0`.
    pub fn new(config: EngineConfig, world: W) -> Self {
        assert!(config.num_cpus > 0, "engine needs at least one CPU");
        let cpus = (0..config.num_cpus).map(|_| Cpu::default()).collect();
        let trace = TraceSink::new(config.trace);
        Self {
            config,
            world,
            threads: Vec::new(),
            cpus,
            queue: CalendarQueue::new(),
            seq: 0,
            now: Cycle::ZERO,
            finished: 0,
            trace,
            sleepers: std::collections::BTreeSet::new(),
        }
    }

    /// Adds a thread with round-robin CPU affinity (thread `i` runs on CPU
    /// `i % num_cpus`, giving the paper's four-threads-per-core layout for
    /// 64 threads on 16 CPUs). Returns the new thread's id.
    pub fn spawn(&mut self, logic: Box<dyn ThreadLogic<W>>) -> ThreadId {
        let cpu = CpuId(self.threads.len() % self.config.num_cpus);
        self.spawn_on(cpu, logic)
    }

    /// Adds a thread pinned to `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn spawn_on(&mut self, cpu: CpuId, logic: Box<dyn ThreadLogic<W>>) -> ThreadId {
        assert!(cpu.index() < self.cpus.len(), "cpu {cpu} out of range");
        let id = ThreadId(self.threads.len());
        let rng = SimRng::seed_from(self.config.seed).derive(id.index() as u64 + 1);
        self.threads.push(ThreadSlot {
            logic,
            state: ThreadState::Ready,
            cpu,
            buckets: TimeBuckets::default(),
            rng,
            finish_time: None,
            pending_wake: false,
        });
        self.cpus[cpu.index()].run_queue.push_back(id);
        id
    }

    /// Slot for an engine-issued thread id. Ids come from `spawn*` and
    /// never leave the engine's range, so a miss is an internal
    /// invariant violation, not a caller error.
    fn thread_mut(&mut self, tid: ThreadId) -> &mut ThreadSlot<W> {
        self.threads
            .get_mut(tid.index())
            .expect("engine-issued ThreadId is in range")
    }

    /// Slot for an engine-issued CPU id (see [`Engine::thread_mut`]).
    fn cpu_mut(&mut self, cpu: CpuId) -> &mut Cpu {
        self.cpus
            .get_mut(cpu.index())
            .expect("engine-issued CpuId is in range")
    }

    /// Shared world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the shared world state (for pre-run setup).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the simulated program deadlocks (all remaining threads
    /// blocked with nothing to wake them) or exceeds
    /// [`EngineConfig::max_cycles`].
    pub fn run(self) -> RunReport {
        self.run_into().0
    }

    /// Like [`Engine::run`], but also returns the world so callers can
    /// extract statistics accumulated in shared state.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Engine::run`].
    #[warn(clippy::indexing_slicing)]
    pub fn run_into(mut self) -> (RunReport, W) {
        for cpu in 0..self.cpus.len() {
            self.arm(CpuId(cpu), Cycle::ZERO);
        }
        while let Some((time, seq, cpu_idx)) = self.queue.pop() {
            debug_assert!(time >= self.now, "event time went backwards");
            let live = {
                let slot = self.cpu_mut(CpuId(cpu_idx));
                slot.armed && slot.armed_seq == seq
            };
            if !live {
                // Superseded by an earlier re-arm; already serviced.
                continue;
            }
            self.now = time;
            assert!(
                self.now.as_u64() <= self.config.max_cycles,
                "simulation exceeded max_cycles={} (live-lock?)",
                self.config.max_cycles
            );
            self.cpu_mut(CpuId(cpu_idx)).armed = false;
            self.service_cpu(CpuId(cpu_idx));
        }
        #[expect(
            clippy::panic,
            reason = "documented panic contract of run(): a deadlocked program under test is unrecoverable"
        )]
        if self.finished != self.threads.len() {
            let stuck: Vec<String> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state != ThreadState::Finished)
                .map(|(i, t)| format!("{}:{:?}", ThreadId(i), t.state))
                .collect();
            panic!(
                "simulated deadlock at {}: stuck threads {stuck:?}",
                self.now
            );
        }
        let report = RunReport {
            makespan: self
                .threads
                .iter()
                .filter_map(|t| t.finish_time)
                .max()
                .unwrap_or(Cycle::ZERO),
            per_thread: self.threads.iter().map(|t| t.buckets).collect(),
            num_cpus: self.config.num_cpus,
            trace: self.trace.take(),
        };
        (report, self.world)
    }

    /// Schedules a service event for `cpu` at `time` unless one is armed.
    /// The one exception: a *preemptible* armed event (an idle timer from
    /// [`Engine::arm_timer`]) pending later than `time` is pulled earlier,
    /// and the superseded event is ignored on pop via its stale sequence
    /// number.
    #[warn(clippy::indexing_slicing)]
    fn arm(&mut self, cpu: CpuId, time: Cycle) {
        self.arm_inner(cpu, time, false);
    }

    /// Arms an idle-timer event (a sleeper deadline on an otherwise idle
    /// CPU). Unlike regular armed events — which mark the end of a
    /// charged interval and must not be serviced early — a timer may be
    /// superseded by an earlier [`Engine::arm`] (e.g. a wake arriving
    /// before the deadline).
    fn arm_timer(&mut self, cpu: CpuId, time: Cycle) {
        self.arm_inner(cpu, time, true);
    }

    fn arm_inner(&mut self, cpu: CpuId, time: Cycle, preemptible: bool) {
        let needs_push = {
            let slot = self.cpu_mut(cpu);
            !slot.armed || (slot.armed_preemptible && time < slot.armed_at)
        };
        if needs_push {
            self.seq += 1;
            let seq = self.seq;
            let slot = self.cpu_mut(cpu);
            slot.armed = true;
            slot.armed_at = time;
            slot.armed_seq = seq;
            slot.armed_preemptible = preemptible;
            self.queue.push(time, seq, cpu.index());
        }
    }

    #[warn(clippy::indexing_slicing)]
    fn service_cpu(&mut self, cpu: CpuId) {
        let costs = self.config.costs.clone();
        // Promote due timed sleepers pinned to this CPU back into its run
        // queue, in (deadline, thread) order, before any pickup decision.
        if !self.sleepers.is_empty() {
            let due: Vec<(Cycle, ThreadId)> = self
                .sleepers
                .iter()
                .take_while(|&&(deadline, _)| deadline <= self.now)
                .filter(|&&(_, tid)| self.threads.get(tid.index()).is_some_and(|t| t.cpu == cpu))
                .copied()
                .collect();
            for entry in due {
                self.sleepers.remove(&entry);
                let tid = entry.1;
                self.thread_mut(tid).state = ThreadState::Ready;
                self.cpu_mut(cpu).run_queue.push_back(tid);
            }
        }
        // Pick up a thread if the CPU is free.
        if self.cpu_mut(cpu).current.is_none() {
            let Some(next) = self.cpu_mut(cpu).run_queue.pop_front() else {
                // Idle. If a timed sleeper is pinned here, re-arm for its
                // deadline so the wake is never lost; otherwise a future
                // wake will re-arm us.
                let wake_at = self
                    .sleepers
                    .iter()
                    .find(|&&(_, tid)| self.threads.get(tid.index()).is_some_and(|t| t.cpu == cpu))
                    .map(|&(deadline, _)| deadline);
                if let Some(deadline) = wake_at {
                    self.arm_timer(cpu, deadline.max(self.now));
                }
                return;
            };
            let slot = self.cpu_mut(cpu);
            let switched = slot.last != Some(next);
            let switch = if switched { costs.context_switch } else { 0 };
            slot.current = Some(next);
            slot.last = Some(next);
            slot.ran_since_switch = 0;
            self.thread_mut(next).state = ThreadState::Running;
            if switch > 0 {
                self.thread_mut(next).buckets.charge(Bucket::Kernel, switch);
            }
            if switched {
                let at = self.now.as_u64();
                let (cpu_u, thread_u) = (cpu.index() as u32, next.index() as u32);
                self.trace.emit(at, || TraceEvent::ContextSwitch {
                    cpu: cpu_u,
                    thread: thread_u,
                    cost: switch,
                });
                if switch > 0 {
                    self.trace.emit(at, || TraceEvent::Charge {
                        cpu: cpu_u,
                        thread: thread_u,
                        bucket: Bucket::Kernel.trace_kind(),
                        cycles: switch,
                    });
                }
            }
            self.arm(cpu, self.now + Cycle::new(switch));
            return;
        }

        let tid = self.cpu_mut(cpu).current.expect("current checked above");

        // Quantum preemption: only if someone else is waiting.
        {
            let slot = self.cpu_mut(cpu);
            if slot.ran_since_switch >= costs.quantum && !slot.run_queue.is_empty() {
                slot.current = None;
                slot.run_queue.push_back(tid);
                self.thread_mut(tid).state = ThreadState::Ready;
                self.arm(cpu, self.now);
                return;
            }
        }

        // Step the thread. Direct field access (not `thread_mut`) so the
        // context can borrow `rng`/`buckets` alongside `trace` and `world`.
        let thread = self
            .threads
            .get_mut(tid.index())
            .expect("engine-issued ThreadId is in range");
        let mut ctx = ThreadCtx {
            thread: tid,
            cpu,
            now: self.now,
            rng: &mut thread.rng,
            buckets: &mut thread.buckets,
            trace: &mut self.trace,
            costs: &costs,
            wakes: Vec::new(),
        };
        let action = thread.logic.step(&mut self.world, &mut ctx);
        let wakes = std::mem::take(&mut ctx.wakes);

        // Charge wake costs to the waker and apply the wakes.
        let mut extra = 0u64;
        for target in wakes {
            extra = extra
                .checked_add(costs.futex_wake)
                .expect("wake-cost accounting overflowed u64");
            self.wake_internal(target);
        }
        // Charges within this step are serialised on the trace timeline:
        // wake costs occupy [now, now+extra), the action's cycles follow
        // at now+extra. That is what lets the audit check that charge
        // intervals on one CPU never overlap (invariant I2).
        let at = self.now.as_u64();
        let at_after = at
            .checked_add(extra)
            .expect("trace timestamp overflowed u64");
        let (cpu_u, thread_u) = (cpu.index() as u32, tid.index() as u32);
        let kernel = Bucket::Kernel.trace_kind();
        if extra > 0 {
            self.thread_mut(tid).buckets.charge(Bucket::Kernel, extra);
            self.trace.emit(at, || TraceEvent::Charge {
                cpu: cpu_u,
                thread: thread_u,
                bucket: kernel,
                cycles: extra,
            });
        }

        match action {
            Action::Work { cycles, bucket } => {
                self.thread_mut(tid).buckets.charge(bucket, cycles);
                if cycles > 0 {
                    self.trace.emit(at_after, || TraceEvent::Charge {
                        cpu: cpu_u,
                        thread: thread_u,
                        bucket: bucket.trace_kind(),
                        cycles,
                    });
                }
                let ran = cycles
                    .checked_add(extra)
                    .expect("step-cycle accounting overflowed u64");
                let slot = self.cpu_mut(cpu);
                slot.ran_since_switch = slot
                    .ran_since_switch
                    .checked_add(ran)
                    .expect("quantum accounting overflowed u64");
                // Clamp to >=1 so a degenerate zero-cost action stream
                // (possible under all-zero cost models) cannot pin the
                // event heap to one timestamp and starve other CPUs.
                self.arm(cpu, self.now + Cycle::new(ran.max(1)));
            }
            Action::Yield => {
                self.thread_mut(tid)
                    .buckets
                    .charge(Bucket::Kernel, costs.yield_syscall);
                if costs.yield_syscall > 0 {
                    self.trace.emit(at_after, || TraceEvent::Charge {
                        cpu: cpu_u,
                        thread: thread_u,
                        bucket: kernel,
                        cycles: costs.yield_syscall,
                    });
                }
                self.thread_mut(tid).state = ThreadState::Ready;
                let slot = self.cpu_mut(cpu);
                slot.current = None;
                slot.run_queue.push_back(tid);
                let pause = costs
                    .yield_syscall
                    .checked_add(extra)
                    .expect("yield-charge accounting overflowed u64");
                // A yield must advance time even with a zero-cost OS
                // model, or a lone yielding thread would re-arm at the
                // same timestamp forever and starve other CPUs' events.
                self.arm(cpu, self.now + Cycle::new(pause.max(1)));
            }
            Action::Block => {
                self.thread_mut(tid)
                    .buckets
                    .charge(Bucket::Kernel, costs.futex_block);
                if costs.futex_block > 0 {
                    self.trace.emit(at_after, || TraceEvent::Charge {
                        cpu: cpu_u,
                        thread: thread_u,
                        bucket: kernel,
                        cycles: costs.futex_block,
                    });
                }
                let slot = self.thread_mut(tid);
                if slot.pending_wake {
                    // A wake raced ahead of the block: consume it and
                    // stay runnable (futex semantics).
                    slot.pending_wake = false;
                    slot.state = ThreadState::Ready;
                    self.cpu_mut(cpu).run_queue.push_back(tid);
                } else {
                    slot.state = ThreadState::Blocked;
                }
                self.cpu_mut(cpu).current = None;
                let pause = costs
                    .futex_block
                    .checked_add(extra)
                    .expect("block-charge accounting overflowed u64");
                self.arm(cpu, self.now + Cycle::new(pause.max(1)));
            }
            Action::SleepUntil { deadline } => {
                let deadline = Cycle::new(deadline);
                if deadline <= self.now {
                    // Already due: stay runnable at the back of the queue.
                    self.thread_mut(tid).state = ThreadState::Ready;
                    self.cpu_mut(cpu).run_queue.push_back(tid);
                } else {
                    self.thread_mut(tid).state = ThreadState::Sleeping;
                    self.sleepers.insert((deadline, tid));
                }
                self.cpu_mut(cpu).current = None;
                // Parked time is idle time: nothing is charged. Advance
                // at least one cycle so a lone zero-cost sleeper cannot
                // pin the event heap to one timestamp.
                self.arm(cpu, self.now + Cycle::new(extra.max(1)));
            }
            Action::Finish => {
                let now = self.now;
                let slot = self.thread_mut(tid);
                slot.state = ThreadState::Finished;
                slot.finish_time = Some(now);
                self.finished += 1;
                self.cpu_mut(cpu).current = None;
                self.arm(cpu, self.now + Cycle::new(extra));
            }
        }
    }

    #[warn(clippy::indexing_slicing)]
    fn wake_internal(&mut self, target: ThreadId) {
        let slot = self.thread_mut(target);
        match slot.state {
            ThreadState::Blocked => {
                slot.state = ThreadState::Ready;
                let cpu = slot.cpu;
                let cpu_slot = self.cpu_mut(cpu);
                cpu_slot.run_queue.push_back(target);
                if cpu_slot.current.is_none() {
                    self.arm(cpu, self.now);
                }
            }
            ThreadState::Finished => {}
            // The target has not blocked yet: remember the wake so the
            // upcoming Block consumes it instead of sleeping forever.
            // Timed sleepers keep their deadline — a wake aimed at a
            // thread parked on the clock is a protocol error upstream,
            // so it is remembered, not honoured early.
            ThreadState::Ready | ThreadState::Running | ThreadState::Sleeping => {
                slot.pending_wake = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `n` work slices of `cycles` each, then finishes.
    struct Looper {
        slices: u32,
        cycles: u64,
        bucket: Bucket,
    }

    impl<W> ThreadLogic<W> for Looper {
        fn step(&mut self, _world: &mut W, _ctx: &mut ThreadCtx) -> Action {
            if self.slices == 0 {
                return Action::Finish;
            }
            self.slices -= 1;
            Action::work(self.cycles, self.bucket)
        }
    }

    fn quiet_costs() -> CostModel {
        // Zero OS costs make arithmetic exact in tests.
        CostModel {
            context_switch: 0,
            yield_syscall: 0,
            futex_block: 0,
            futex_wake: 0,
            ..CostModel::default()
        }
    }

    #[test]
    fn single_thread_accounting() {
        let cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Looper {
            slices: 4,
            cycles: 25,
            bucket: Bucket::Tx,
        }));
        let report = e.run();
        assert_eq!(report.total().get(Bucket::Tx), 100);
        assert_eq!(report.makespan, Cycle::new(100));
    }

    #[test]
    fn two_cpus_run_in_parallel() {
        let cfg = EngineConfig::with_cpus(2).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        for _ in 0..2 {
            e.spawn(Box::new(Looper {
                slices: 1,
                cycles: 1000,
                bucket: Bucket::NonTx,
            }));
        }
        let report = e.run();
        // Both threads work 1000 cycles but on different CPUs: the
        // makespan is 1000, not 2000.
        assert_eq!(report.makespan, Cycle::new(1000));
        assert_eq!(report.total().get(Bucket::NonTx), 2000);
    }

    #[test]
    fn two_threads_one_cpu_serialize() {
        let cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        for _ in 0..2 {
            e.spawn(Box::new(Looper {
                slices: 1,
                cycles: 1000,
                bucket: Bucket::NonTx,
            }));
        }
        let report = e.run();
        assert_eq!(report.makespan, Cycle::new(2000));
    }

    #[test]
    fn context_switch_cost_is_charged() {
        let costs = CostModel {
            context_switch: 100,
            yield_syscall: 0,
            futex_block: 0,
            futex_wake: 0,
            ..CostModel::default()
        };
        let cfg = EngineConfig::with_cpus(1).costs(costs);
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Looper {
            slices: 1,
            cycles: 10,
            bucket: Bucket::NonTx,
        }));
        e.spawn(Box::new(Looper {
            slices: 1,
            cycles: 10,
            bucket: Bucket::NonTx,
        }));
        let report = e.run();
        // Each thread pays one context switch when first scheduled.
        assert_eq!(report.total().get(Bucket::Kernel), 200);
        assert_eq!(report.makespan, Cycle::new(220));
    }

    /// Yields between each work slice.
    struct Yielder {
        slices: u32,
        yielded: bool,
    }

    impl<W> ThreadLogic<W> for Yielder {
        fn step(&mut self, _world: &mut W, _ctx: &mut ThreadCtx) -> Action {
            if self.slices == 0 {
                return Action::Finish;
            }
            if self.yielded {
                self.yielded = false;
                self.slices -= 1;
                Action::work(10, Bucket::NonTx)
            } else {
                self.yielded = true;
                Action::Yield
            }
        }
    }

    #[test]
    fn yield_rotates_threads() {
        let cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Yielder {
            slices: 3,
            yielded: false,
        }));
        e.spawn(Box::new(Yielder {
            slices: 3,
            yielded: false,
        }));
        let report = e.run();
        assert_eq!(report.total().get(Bucket::NonTx), 60);
    }

    /// Blocks once; expects a waker to release it.
    struct Sleeper {
        slept: bool,
    }

    impl ThreadLogic<()> for Sleeper {
        fn step(&mut self, _world: &mut (), _ctx: &mut ThreadCtx) -> Action {
            if self.slept {
                Action::Finish
            } else {
                self.slept = true;
                Action::Block
            }
        }
    }

    /// Works, then wakes thread 0.
    struct Waker {
        woke: bool,
    }

    impl ThreadLogic<()> for Waker {
        fn step(&mut self, _world: &mut (), ctx: &mut ThreadCtx) -> Action {
            if self.woke {
                Action::Finish
            } else {
                self.woke = true;
                ctx.wake(ThreadId(0));
                Action::work(500, Bucket::NonTx)
            }
        }
    }

    #[test]
    fn block_and_wake() {
        let cfg = EngineConfig::with_cpus(2).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Sleeper { slept: false })); // t0 on cpu0
        e.spawn(Box::new(Waker { woke: false })); // t1 on cpu1
        let report = e.run();
        assert_eq!(report.total().get(Bucket::NonTx), 500);
    }

    #[test]
    fn wake_cost_charged_to_waker() {
        let costs = CostModel {
            context_switch: 0,
            yield_syscall: 0,
            futex_block: 30,
            futex_wake: 70,
            ..CostModel::default()
        };
        let cfg = EngineConfig::with_cpus(2).costs(costs);
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Sleeper { slept: false }));
        e.spawn(Box::new(Waker { woke: false }));
        let report = e.run();
        // Sleeper pays futex_block, waker pays futex_wake.
        assert_eq!(report.per_thread[0].get(Bucket::Kernel), 30);
        assert_eq!(report.per_thread[1].get(Bucket::Kernel), 70);
    }

    #[test]
    #[should_panic(expected = "simulated deadlock")]
    fn deadlock_is_detected() {
        let cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Sleeper { slept: false })); // nobody wakes it
        let _ = e.run();
    }

    #[test]
    fn quantum_preempts_long_runner() {
        let costs = CostModel {
            context_switch: 0,
            yield_syscall: 0,
            futex_block: 0,
            futex_wake: 0,
            quantum: 50,
            ..CostModel::default()
        };
        let cfg = EngineConfig::with_cpus(1).costs(costs);
        let mut e = Engine::new(cfg, ());
        // Thread 0 wants 10 slices of 20 cycles; thread 1 only one slice.
        e.spawn(Box::new(Looper {
            slices: 10,
            cycles: 20,
            bucket: Bucket::NonTx,
        }));
        e.spawn(Box::new(Looper {
            slices: 1,
            cycles: 20,
            bucket: Bucket::Tx,
        }));
        let report = e.run();
        // Thread 1 must have been let in before thread 0 finished its full
        // 200 cycles: t1 finishes well before the makespan.
        assert_eq!(report.total().get(Bucket::NonTx), 200);
        assert_eq!(report.total().get(Bucket::Tx), 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let cfg = EngineConfig::with_cpus(4).seed(99);
            let mut e = Engine::new(cfg, ());
            for i in 0..8u32 {
                e.spawn(Box::new(Looper {
                    slices: 3 + i,
                    cycles: 17,
                    bucket: Bucket::NonTx,
                }));
            }
            e.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.per_thread.len(), b.per_thread.len());
        for (x, y) in a.per_thread.iter().zip(&b.per_thread) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn spawn_round_robin_affinity() {
        let cfg = EngineConfig::with_cpus(4);
        let mut e = Engine::new(cfg, ());
        for _ in 0..8 {
            e.spawn(Box::new(Looper {
                slices: 0,
                cycles: 0,
                bucket: Bucket::NonTx,
            }));
        }
        assert_eq!(e.threads[0].cpu, CpuId(0));
        assert_eq!(e.threads[4].cpu, CpuId(0));
        assert_eq!(e.threads[5].cpu, CpuId(1));
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_rejected() {
        let _ = Engine::new(EngineConfig::with_cpus(0), ());
    }

    #[test]
    #[should_panic(expected = "max_cycles")]
    fn max_cycles_guard() {
        let mut cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        cfg.max_cycles = 100;
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Looper {
            slices: 100,
            cycles: 50,
            bucket: Bucket::NonTx,
        }));
        let _ = e.run();
    }

    #[test]
    fn traced_run_passes_the_audit_with_real_os_costs() {
        // Default costs: context switches, quantum preemption, yields and
        // futex traffic all appear in the trace and must reconcile.
        let cfg = EngineConfig::with_cpus(2).trace(TraceMode::Full);
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Sleeper { slept: false }));
        e.spawn(Box::new(Waker { woke: false }));
        for i in 0..4u32 {
            e.spawn(Box::new(Looper {
                slices: 5 + i,
                cycles: 40,
                bucket: Bucket::NonTx,
            }));
            e.spawn(Box::new(Yielder {
                slices: 3,
                yielded: false,
            }));
        }
        let report = e.run();
        assert!(!report.trace.is_empty());
        let summary = bfgts_trace::audit(&report.trace, &report.audit_inputs())
            .unwrap_or_else(|v| panic!("audit violations: {v:#?}"));
        // Bucket conservation doubles as a spot check on the summary.
        assert_eq!(
            summary.charged.iter().sum::<u64>(),
            report.total().total_cycles()
        );
        assert!(summary.context_switches > 0);
        // I2 + I7: per-CPU busy + idle closes exactly to the makespan.
        for c in 0..2 {
            assert_eq!(
                summary.per_cpu_busy[c] + summary.per_cpu_idle[c],
                report.makespan.as_u64()
            );
        }
    }

    /// Sleeps until a fixed deadline, works one slice, then finishes.
    struct TimedSleeper {
        phase: u32,
        deadline: u64,
    }

    impl ThreadLogic<()> for TimedSleeper {
        fn step(&mut self, _world: &mut (), ctx: &mut ThreadCtx) -> Action {
            self.phase += 1;
            match self.phase {
                1 => Action::SleepUntil {
                    deadline: self.deadline,
                },
                2 => {
                    assert!(
                        ctx.now.as_u64() >= self.deadline,
                        "woke at {} before deadline {}",
                        ctx.now,
                        self.deadline
                    );
                    Action::work(10, Bucket::NonTx)
                }
                _ => Action::Finish,
            }
        }
    }

    #[test]
    fn sleep_until_wakes_at_deadline() {
        let cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(TimedSleeper {
            phase: 0,
            deadline: 500,
        }));
        let report = e.run();
        // Parked 0..500, then one 10-cycle slice.
        assert_eq!(report.makespan, Cycle::new(510));
        assert_eq!(report.total().get(Bucket::NonTx), 10);
    }

    #[test]
    fn past_deadline_sleep_degenerates_to_requeue() {
        let cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(TimedSleeper {
            phase: 0,
            deadline: 0,
        }));
        let report = e.run();
        assert_eq!(report.total().get(Bucket::NonTx), 10);
    }

    #[test]
    fn timed_sleep_counts_as_idle_and_audits_clean() {
        let cfg = EngineConfig::with_cpus(2)
            .costs(quiet_costs())
            .trace(TraceMode::Full);
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(TimedSleeper {
            phase: 0,
            deadline: 300,
        }));
        e.spawn(Box::new(Looper {
            slices: 2,
            cycles: 40,
            bucket: Bucket::NonTx,
        }));
        let report = e.run();
        let summary = bfgts_trace::audit(&report.trace, &report.audit_inputs())
            .unwrap_or_else(|v| panic!("audit violations: {v:#?}"));
        // I7 must still close: the parked interval is CPU idle time.
        for c in 0..2 {
            assert_eq!(
                summary.per_cpu_busy[c] + summary.per_cpu_idle[c],
                report.makespan.as_u64()
            );
        }
        assert_eq!(report.makespan, Cycle::new(310));
    }

    /// Blocks once, then works one slice after being woken.
    struct BlockThenWork {
        phase: u32,
    }

    impl ThreadLogic<()> for BlockThenWork {
        fn step(&mut self, _world: &mut (), _ctx: &mut ThreadCtx) -> Action {
            self.phase += 1;
            match self.phase {
                1 => Action::Block,
                2 => Action::work(10, Bucket::NonTx),
                _ => Action::Finish,
            }
        }
    }

    /// Works `cycles`, then wakes `target` and finishes.
    struct WorkThenWake {
        phase: u32,
        cycles: u64,
        target: ThreadId,
    }

    impl ThreadLogic<()> for WorkThenWake {
        fn step(&mut self, _world: &mut (), ctx: &mut ThreadCtx) -> Action {
            self.phase += 1;
            match self.phase {
                1 => Action::work(self.cycles, Bucket::NonTx),
                _ => {
                    if self.phase == 2 {
                        ctx.wake(self.target);
                    }
                    Action::Finish
                }
            }
        }
    }

    #[test]
    fn wake_pulls_a_cpu_armed_on_a_sleeper_deadline_earlier() {
        // cpu0 holds a far-future sleeper (t0) and a blocked thread (t2);
        // cpu1's t1 wakes t2 at 500. The wake must supersede cpu0's
        // pending 10_000-cycle service event, not wait for it.
        let cfg = EngineConfig::with_cpus(2)
            .costs(quiet_costs())
            .trace(TraceMode::Full);
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(TimedSleeper {
            phase: 0,
            deadline: 10_000,
        })); // t0 on cpu0
        e.spawn(Box::new(WorkThenWake {
            phase: 0,
            cycles: 500,
            target: ThreadId(2),
        })); // t1 on cpu1
        e.spawn(Box::new(BlockThenWork { phase: 0 })); // t2 on cpu0
        let report = e.run();
        bfgts_trace::audit(&report.trace, &report.audit_inputs())
            .unwrap_or_else(|v| panic!("audit violations: {v:#?}"));
        // t2's post-wake slice is charged at 500, not after the sleeper.
        assert!(
            report
                .trace
                .events
                .iter()
                .any(|r| { r.at == 500 && matches!(r.ev, TraceEvent::Charge { thread: 2, .. }) }),
            "woken thread should run at 500"
        );
        // The sleeper still wakes on time afterwards.
        assert_eq!(report.makespan, Cycle::new(10_010));
    }

    #[test]
    fn untraced_run_records_nothing() {
        let cfg = EngineConfig::with_cpus(1).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Looper {
            slices: 2,
            cycles: 10,
            bucket: Bucket::NonTx,
        }));
        let report = e.run();
        assert!(report.trace.is_empty());
    }

    #[test]
    fn refile_is_traced() {
        struct Refiler {
            phase: u32,
        }
        impl ThreadLogic<()> for Refiler {
            fn step(&mut self, _w: &mut (), ctx: &mut ThreadCtx) -> Action {
                self.phase += 1;
                match self.phase {
                    1 => Action::work(100, Bucket::Tx),
                    2 => {
                        assert_eq!(ctx.refile(Bucket::Tx, Bucket::Abort, 60), 60);
                        Action::work(10, Bucket::Abort)
                    }
                    _ => Action::Finish,
                }
            }
        }
        let cfg = EngineConfig::with_cpus(1)
            .costs(quiet_costs())
            .trace(TraceMode::Full);
        let mut e = Engine::new(cfg, ());
        e.spawn(Box::new(Refiler { phase: 0 }));
        let report = e.run();
        assert_eq!(report.total().get(Bucket::Tx), 40);
        assert_eq!(report.total().get(Bucket::Abort), 70);
        bfgts_trace::audit(&report.trace, &report.audit_inputs())
            .unwrap_or_else(|v| panic!("audit violations: {v:#?}"));
        assert!(report
            .trace
            .events
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::Refile { moved: 60, .. })));
    }

    #[test]
    fn rng_streams_differ_per_thread() {
        struct RngProbe {
            out: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
            done: bool,
        }
        impl ThreadLogic<()> for RngProbe {
            fn step(&mut self, _w: &mut (), ctx: &mut ThreadCtx) -> Action {
                if self.done {
                    return Action::Finish;
                }
                self.done = true;
                self.out.borrow_mut().push(ctx.rng.next_u64());
                Action::work(1, Bucket::NonTx)
            }
        }
        let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let cfg = EngineConfig::with_cpus(2).costs(quiet_costs());
        let mut e = Engine::new(cfg, ());
        for _ in 0..2 {
            e.spawn(Box::new(RngProbe {
                out: out.clone(),
                done: false,
            }));
        }
        let _ = e.run();
        let v = out.borrow();
        assert_eq!(v.len(), 2);
        assert_ne!(v[0], v[1]);
    }
}
