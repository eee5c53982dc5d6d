//! Regression tests pinning the engine's event tie-break contract.
//!
//! Pending events order by `(time, seq)` — the arming sequence number,
//! not the CPU index, breaks same-cycle ties, and the engine's calendar
//! queue must agree exactly with the binary-heap oracle on that order.
//! The starvation clamps are part of the same contract: a zero-cost
//! action stream must still advance time by at least one cycle per
//! step, or one CPU could pin the queue to a single timestamp forever.

use bfgts_sim::equeue::{EventQueue, EventQueueKind};
use bfgts_sim::{Action, Bucket, Cycle, Engine, EngineConfig, ThreadCtx, ThreadLogic};

fn drain(q: &mut EventQueue) -> Vec<(Cycle, u64, usize)> {
    std::iter::from_fn(|| q.pop()).collect()
}

#[test]
fn same_cycle_ties_break_by_seq_never_by_cpu() {
    // CPU indices deliberately run *against* seq order: if either
    // structure consulted the cpu field, the drain order would flip.
    for kind in [EventQueueKind::Heap, EventQueueKind::Calendar] {
        let mut q = EventQueue::new(kind);
        q.push(Cycle::new(40), 1, 9);
        q.push(Cycle::new(40), 2, 5);
        q.push(Cycle::new(40), 3, 0);
        q.push(Cycle::new(7), 4, 8);
        q.push(Cycle::new(7), 5, 2);
        assert_eq!(
            drain(&mut q),
            vec![
                (Cycle::new(7), 4, 8),
                (Cycle::new(7), 5, 2),
                (Cycle::new(40), 1, 9),
                (Cycle::new(40), 2, 5),
                (Cycle::new(40), 3, 0),
            ],
            "{kind:?}"
        );
    }
}

/// A thread that runs a fixed schedule of actions, then finishes.
struct Script {
    actions: Vec<Action>,
    next: usize,
}

impl Script {
    fn new(actions: Vec<Action>) -> Self {
        Self { actions, next: 0 }
    }
}

impl ThreadLogic<()> for Script {
    fn step(&mut self, _world: &mut (), _ctx: &mut ThreadCtx) -> Action {
        let action = self.actions.get(self.next).cloned();
        self.next += 1;
        action.unwrap_or(Action::Finish)
    }
}

#[test]
fn zero_cost_work_still_advances_time() {
    // engine.rs clamps a Work arm to >= 1 cycle. Without it, 1000
    // zero-cost steps would re-arm at one timestamp and the run would
    // finish with a makespan no larger than the setup costs.
    let mut engine = Engine::new(EngineConfig::with_cpus(1), ());
    engine.spawn(Box::new(Script::new(vec![
        Action::work(0, Bucket::NonTx);
        1000
    ])));
    let report = engine.run();
    assert!(
        report.makespan.as_u64() >= 1000,
        "zero-cost work steps must each advance >= 1 cycle, makespan {}",
        report.makespan.as_u64()
    );
}

#[test]
fn zero_cost_yield_cannot_starve_the_run_queue() {
    // engine.rs clamps a Yield arm to >= 1 cycle. With a free yield
    // syscall a lone yielder would otherwise monopolise the timestamp;
    // the worker sharing its CPU must still finish its real work.
    let mut cfg = EngineConfig::with_cpus(1);
    cfg.costs.yield_syscall = 0;
    cfg.costs.context_switch = 0;
    let mut engine = Engine::new(cfg, ());
    engine.spawn(Box::new(Script::new(vec![Action::Yield; 500])));
    engine.spawn(Box::new(Script::new(vec![
        Action::work(10, Bucket::NonTx);
        20
    ])));
    let report = engine.run();
    assert_eq!(report.total().get(Bucket::NonTx), 200, "worker ran dry");
    assert!(
        report.makespan.as_u64() >= 500,
        "zero-cost yields must each advance >= 1 cycle, makespan {}",
        report.makespan.as_u64()
    );
}
