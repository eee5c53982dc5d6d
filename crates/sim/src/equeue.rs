//! Pending-event storage for the engine.
//!
//! The engine keeps at most one armed service event per CPU, ordered by
//! `(time, seq)` (the arming sequence number is unique, so the CPU index
//! never participates in ordering — it is payload). Two interchangeable
//! structures implement that order:
//!
//! * [`EventQueueKind::Heap`] — the original global
//!   `BinaryHeap<Reverse<(Cycle, u64, usize)>>`: `O(log n)` per push/pop,
//!   where `n` is the number of armed CPUs.
//! * [`EventQueueKind::Calendar`] — an indexed calendar queue: a ring of
//!   `WINDOW` (8192) cycle-granularity buckets with a two-level occupancy
//!   bitmap, plus a sorted overflow tier for events beyond the window.
//!   Push and pop are `O(1)` amortized, independent of the number of
//!   armed CPUs, which is what lets the engine scale from the paper's
//!   16 CPUs to 1024 (DESIGN.md §11).
//!
//! Both produce the exact same pop sequence (proven by the differential
//! tests below and `tests/tie_break.rs`), so simulation results are
//! byte-identical regardless of the structure chosen.

use crate::time::Cycle;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One pending service event: `(time, seq, cpu)`.
pub type Event = (Cycle, u64, usize);

/// Which pending-event structure the engine uses. Not part of a
/// scenario's identity: results are byte-identical either way, so the
/// choice is a pure wall-clock knob (`bench_scale` measures both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventQueueKind {
    /// Indexed calendar queue, `O(1)` amortized per event (the default).
    #[default]
    Calendar,
    /// Global binary heap, `O(log n)` per event. Kept as the
    /// differential-testing oracle and the benchmark baseline.
    Heap,
}

/// Number of cycle-granularity buckets in the calendar ring. Must be a
/// power of two. Events at most `WINDOW - 1` cycles ahead of the cursor
/// land in the ring; later ones wait in the sorted overflow tier. 8192
/// covers every per-step latency of the default cost model (the largest,
/// a context switch plus a long transaction body, is a few thousand
/// cycles), so overflow traffic is rare in practice.
const WINDOW: u64 = 8192;
const MASK: u64 = WINDOW - 1;
/// `u64` words in the first-level occupancy bitmap.
const WORDS: usize = (WINDOW / 64) as usize;
/// `u64` words in the second-level (summary) bitmap: bit `w` of the
/// summary is set iff first-level word `w` is non-zero.
const SUMMARY_WORDS: usize = WORDS.div_ceil(64);

/// One ring bucket: every entry shares the same event time, so only the
/// `(seq, cpu)` payload is stored. Entries are appended in arming order,
/// which is seq order (the engine's sequence counter is monotonic), and
/// drained through `head` so same-cycle arm-during-drain keeps FIFO
/// order without shifting the vector.
#[derive(Debug, Default, Clone)]
struct Slot {
    items: Vec<(u64, usize)>,
    head: usize,
}

impl Slot {
    fn is_drained(&self) -> bool {
        self.head == self.items.len()
    }

    #[warn(clippy::indexing_slicing)]
    fn push(&mut self, seq: u64, cpu: usize) {
        if self.is_drained() && self.head != 0 {
            self.items.clear();
            self.head = 0;
        }
        self.items.push((seq, cpu));
    }
}

/// The indexed calendar queue.
///
/// Invariants, maintained by migrating overflow entries eagerly on every
/// cursor advance:
///
/// * every ring entry's time is in `[cursor, cursor + WINDOW)`;
/// * every overflow key is `>= cursor + WINDOW`;
///
/// so the ring always holds the global minimum, bucket index `time &
/// MASK` identifies a unique time within the window, and a bucket's
/// append order is seq order even across the overflow migration (all
/// same-time pushes before the time enters the window queue up in the
/// overflow vector, in seq order; all later ones append to the ring
/// bucket after the migration).
#[derive(Debug)]
pub struct CalendarQueue {
    /// Lower bound on every stored event time (the last popped time).
    cursor: u64,
    /// Total stored events, ring + overflow.
    len: usize,
    buckets: Vec<Slot>,
    words: [u64; WORDS],
    summary: [u64; SUMMARY_WORDS],
    overflow: BTreeMap<u64, Vec<(u64, usize)>>,
    overflow_len: usize,
    /// Smallest overflow key, `u64::MAX` when the overflow is empty.
    overflow_min: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with its cursor at cycle zero.
    pub fn new() -> Self {
        Self {
            cursor: 0,
            len: 0,
            buckets: vec![Slot::default(); WINDOW as usize],
            words: [0; WORDS],
            summary: [0; SUMMARY_WORDS],
            overflow: BTreeMap::new(),
            overflow_len: 0,
            overflow_min: u64::MAX,
        }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an event. `time` must not precede the last popped time
    /// (the engine only arms at or after `now`), and successive pushes
    /// must carry increasing `seq` values (the engine's arming counter
    /// is monotonic) — same-time entries are kept in arrival order,
    /// which equals seq order exactly under that contract.
    #[warn(clippy::indexing_slicing)]
    pub fn push(&mut self, time: Cycle, seq: u64, cpu: usize) {
        let t = time.as_u64();
        let ahead = t
            .checked_sub(self.cursor)
            .expect("event time precedes the cursor");
        self.len += 1;
        if ahead >= WINDOW {
            self.overflow_len += 1;
            self.overflow_min = self.overflow_min.min(t);
            self.overflow.entry(t).or_default().push((seq, cpu));
        } else {
            self.ring_insert(t, seq, cpu);
        }
    }

    /// Removes and returns the earliest event (smallest `(time, seq)`).
    #[warn(clippy::indexing_slicing)]
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        if self.len == self.overflow_len {
            // Ring exhausted: jump the window to the overflow front.
            self.cursor = self.overflow_min;
            self.migrate();
        }
        let start = (self.cursor & MASK) as usize;
        let idx = self.find_next(start);
        let dist = (idx as u64).wrapping_sub(self.cursor) & MASK;
        let t = self
            .cursor
            .checked_add(dist)
            .expect("ring distance keeps event times in u64 range");
        let slot = self
            .buckets
            .get_mut(idx)
            .expect("find_next is a ring index");
        let &(seq, cpu) = slot
            .items
            .get(slot.head)
            .expect("occupied bucket has an undrained entry");
        slot.head += 1;
        if slot.is_drained() {
            self.clear_bit(idx);
        }
        self.len -= 1;
        if t != self.cursor {
            self.cursor = t;
            self.migrate();
        }
        Some((Cycle::new(t), seq, cpu))
    }

    #[warn(clippy::indexing_slicing)]
    fn ring_insert(&mut self, t: u64, seq: u64, cpu: usize) {
        let idx = (t & MASK) as usize;
        self.buckets
            .get_mut(idx)
            .expect("masked time is a ring index")
            .push(seq, cpu);
        *self
            .words
            .get_mut(idx >> 6)
            .expect("ring index maps into the bitmap") |= 1 << (idx & 63);
        *self
            .summary
            .get_mut(idx >> 12)
            .expect("ring index maps into the summary") |= 1 << ((idx >> 6) & 63);
    }

    #[warn(clippy::indexing_slicing)]
    fn clear_bit(&mut self, idx: usize) {
        let word = self
            .words
            .get_mut(idx >> 6)
            .expect("ring index maps into the bitmap");
        *word &= !(1 << (idx & 63));
        if *word == 0 {
            *self
                .summary
                .get_mut(idx >> 12)
                .expect("ring index maps into the summary") &= !(1 << ((idx >> 6) & 63));
        }
    }

    /// Moves every overflow entry that the advanced cursor brought into
    /// the window onto the ring. Called on every cursor advance, which
    /// is what keeps the two invariants above true.
    #[warn(clippy::indexing_slicing)]
    fn migrate(&mut self) {
        while self
            .overflow_min
            .checked_sub(self.cursor)
            .expect("overflow keys never precede the cursor")
            < WINDOW
        {
            let (t, items) = self
                .overflow
                .pop_first()
                .expect("overflow_min tracks a live key");
            debug_assert_eq!(t, self.overflow_min);
            self.overflow_len -= items.len();
            for (seq, cpu) in items {
                self.ring_insert(t, seq, cpu);
            }
            self.overflow_min = match self.overflow.keys().next() {
                Some(&k) => k,
                None => u64::MAX,
            };
        }
    }

    /// Index of the first occupied bucket at circular distance `>= 0`
    /// from `start`. Two bitmap levels make this a handful of word
    /// operations regardless of where the next event sits.
    #[warn(clippy::indexing_slicing)]
    fn find_next(&self, start: usize) -> usize {
        debug_assert!(self.len > self.overflow_len, "ring is empty");
        let w0 = start >> 6;
        let masked =
            self.words.get(w0).copied().expect("start is a ring index") & (!0u64 << (start & 63));
        if masked != 0 {
            return (w0 << 6) | masked.trailing_zeros() as usize;
        }
        let w = self
            .next_word(w0 + 1)
            .or_else(|| self.next_word(0))
            .expect("occupancy bitmap has a set bit");
        let word = self
            .words
            .get(w)
            .copied()
            .expect("next_word returns a bitmap index");
        (w << 6) | word.trailing_zeros() as usize
    }

    /// First non-zero first-level word at index `>= from`, via the
    /// summary bitmap (no wrap-around).
    #[warn(clippy::indexing_slicing)]
    fn next_word(&self, from: usize) -> Option<usize> {
        if from >= WORDS {
            return None;
        }
        let s0 = from >> 6;
        let masked = self
            .summary
            .get(s0)
            .copied()
            .expect("summary index derives from a ring index")
            & (!0u64 << (from & 63));
        if masked != 0 {
            return Some((s0 << 6) | masked.trailing_zeros() as usize);
        }
        self.summary
            .iter()
            .enumerate()
            .skip(s0 + 1)
            .find(|&(_, &word)| word != 0)
            .map(|(s, &word)| (s << 6) | word.trailing_zeros() as usize)
    }
}

/// The engine's pending-event set, behind the [`EventQueueKind`] switch.
#[derive(Debug)]
pub enum EventQueue {
    /// The original binary heap.
    Heap(BinaryHeap<Reverse<Event>>),
    /// The indexed calendar queue.
    Calendar(Box<CalendarQueue>),
}

impl EventQueue {
    /// An empty queue of the given kind.
    pub fn new(kind: EventQueueKind) -> Self {
        match kind {
            EventQueueKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            EventQueueKind::Calendar => EventQueue::Calendar(Box::default()),
        }
    }

    /// Inserts an event.
    #[warn(clippy::indexing_slicing)]
    pub fn push(&mut self, time: Cycle, seq: u64, cpu: usize) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse((time, seq, cpu))),
            EventQueue::Calendar(c) => c.push(time, seq, cpu),
        }
    }

    /// Removes and returns the earliest event.
    #[warn(clippy::indexing_slicing)]
    pub fn pop(&mut self) -> Option<Event> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Calendar(c) => c.pop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn drain(q: &mut EventQueue) -> Vec<Event> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn empty_queues_pop_none() {
        for kind in [EventQueueKind::Heap, EventQueueKind::Calendar] {
            assert_eq!(EventQueue::new(kind).pop(), None);
        }
    }

    #[test]
    fn orders_by_time_then_seq() {
        // Seqs grow with push order (the engine's arming counter is
        // monotonic — the contract both structures order under).
        for kind in [EventQueueKind::Heap, EventQueueKind::Calendar] {
            let mut q = EventQueue::new(kind);
            q.push(Cycle::new(10), 1, 2);
            q.push(Cycle::new(5), 2, 3);
            q.push(Cycle::new(10), 3, 0);
            q.push(Cycle::new(5), 4, 1);
            let order = drain(&mut q);
            assert_eq!(
                order,
                vec![
                    (Cycle::new(5), 2, 3),
                    (Cycle::new(5), 4, 1),
                    (Cycle::new(10), 1, 2),
                    (Cycle::new(10), 3, 0),
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(0), 1, 0);
        q.push(Cycle::new(WINDOW * 5 + 7), 2, 1);
        q.push(Cycle::new(3), 3, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle::new(0), 1, 0)));
        assert_eq!(q.pop(), Some((Cycle::new(3), 3, 2)));
        assert_eq!(q.pop(), Some((Cycle::new(WINDOW * 5 + 7), 2, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_migration_preserves_seq_order_at_one_time() {
        // Two events at the same far-future time queue in overflow; a
        // third arrives at that time only once it is inside the window.
        // All three must drain in seq order.
        let t = WINDOW + 100;
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(t), 1, 0);
        q.push(Cycle::new(t), 2, 1);
        q.push(Cycle::new(200), 3, 2);
        assert_eq!(q.pop(), Some((Cycle::new(200), 3, 2)));
        // Cursor is now 200: time t entered the window and migrated.
        q.push(Cycle::new(t), 4, 3);
        assert_eq!(q.pop(), Some((Cycle::new(t), 1, 0)));
        assert_eq!(q.pop(), Some((Cycle::new(t), 2, 1)));
        assert_eq!(q.pop(), Some((Cycle::new(t), 4, 3)));
    }

    #[test]
    fn same_cycle_push_during_drain_keeps_fifo() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(7), 1, 0);
        q.push(Cycle::new(7), 2, 1);
        assert_eq!(q.pop(), Some((Cycle::new(7), 1, 0)));
        // Re-arm at the popped time mid-drain, as the engine does for
        // quantum preemption and same-cycle wakes.
        q.push(Cycle::new(7), 3, 2);
        assert_eq!(q.pop(), Some((Cycle::new(7), 2, 1)));
        assert_eq!(q.pop(), Some((Cycle::new(7), 3, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_matches_heap_on_random_interleaved_traffic() {
        // Differential test: random pushes (with engine-like monotonic
        // times and seqs, including far-future overflow jumps) mixed
        // with pops must produce identical sequences from both kinds.
        let mut rng = SimRng::seed_from(0xCAFE);
        let mut heap = EventQueue::new(EventQueueKind::Heap);
        let mut cal = EventQueue::new(EventQueueKind::Calendar);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut live = 0usize;
        for _ in 0..50_000 {
            let push = live == 0 || !rng.next_u64().is_multiple_of(3);
            if push {
                let gap = match rng.next_u64() % 10 {
                    0 => 0,
                    g @ 1..=7 => g * 37,
                    8 => WINDOW / 2,
                    _ => WINDOW * 3 + rng.next_u64() % 1000,
                };
                seq += 1;
                let cpu = (rng.next_u64() % 1024) as usize;
                let t = Cycle::new(now + gap);
                heap.push(t, seq, cpu);
                cal.push(t, seq, cpu);
                live += 1;
            } else {
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b);
                now = a.expect("live > 0").0.as_u64();
                live -= 1;
            }
        }
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
