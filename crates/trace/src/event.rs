//! The typed event vocabulary.
//!
//! Events carry only primitives (`u32` ids, `u64` cycle counts, `u64`
//! IEEE-754 bit patterns) so the crate stays a leaf: the simulator, HTM
//! model and scheduler convert their own id types at the emission site.

/// Sentinel for "no target thread/transaction" in events whose target is
/// optional (e.g. a [`TraceEvent::SchedDecision`] that proceeds).
pub const NO_TARGET: u32 = u32::MAX;

/// The five cycle buckets of the paper's Figure 5, mirroring
/// `bfgts_sim::Bucket` (which converts via `Bucket::trace_kind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BucketKind {
    /// Useful work outside any transaction.
    NonTx,
    /// Kernel/OS time: context switches, futex traffic, syscalls.
    Kernel,
    /// Useful work inside transactions that eventually commit.
    Tx,
    /// Work inside transactions that aborted, plus rollback costs.
    Abort,
    /// Contention-manager decision overhead.
    Scheduling,
}

impl BucketKind {
    /// All buckets, in the fixed order used for array indexing and the
    /// per-thread totals in [`crate::AuditInputs`].
    pub const ALL: [BucketKind; 5] = [
        BucketKind::NonTx,
        BucketKind::Kernel,
        BucketKind::Tx,
        BucketKind::Abort,
        BucketKind::Scheduling,
    ];

    /// Number of buckets.
    pub const COUNT: usize = 5;

    /// Position of this bucket in [`BucketKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            BucketKind::NonTx => 0,
            BucketKind::Kernel => 1,
            BucketKind::Tx => 2,
            BucketKind::Abort => 3,
            BucketKind::Scheduling => 4,
        }
    }

    /// Inverse of [`BucketKind::index`].
    pub fn from_index(i: usize) -> Option<BucketKind> {
        BucketKind::ALL.get(i).copied()
    }

    /// Stable lowercase label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            BucketKind::NonTx => "non_tx",
            BucketKind::Kernel => "kernel",
            BucketKind::Tx => "tx",
            BucketKind::Abort => "abort",
            BucketKind::Scheduling => "scheduling",
        }
    }

    /// Inverse of [`BucketKind::label`].
    pub fn from_label(s: &str) -> Option<BucketKind> {
        BucketKind::ALL.into_iter().find(|b| b.label() == s)
    }
}

/// What a contention manager told a transaction to do at begin time
/// (mirrors `bfgts_htm::BeginDecision` without its payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Start immediately.
    Proceed,
    /// Suspend by spinning until a predicted enemy finishes.
    Spin,
    /// Suspend by yielding the CPU until a predicted enemy finishes.
    Yield,
    /// Block on a futex.
    Block,
    /// Back off for a fixed delay.
    Delay,
}

impl DecisionKind {
    /// Stable lowercase label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::Proceed => "proceed",
            DecisionKind::Spin => "spin",
            DecisionKind::Yield => "yield",
            DecisionKind::Block => "block",
            DecisionKind::Delay => "delay",
        }
    }

    /// Inverse of [`DecisionKind::label`].
    pub fn from_label(s: &str) -> Option<DecisionKind> {
        [
            DecisionKind::Proceed,
            DecisionKind::Spin,
            DecisionKind::Yield,
            DecisionKind::Block,
            DecisionKind::Delay,
        ]
        .into_iter()
        .find(|d| d.label() == s)
    }
}

/// Which confidence-table update rule produced a [`TraceEvent::ConfUpdate`].
///
/// The four rules are the paper's Examples 2–4 weightings; the audit
/// recomputes each from the recorded similarity inputs and requires
/// bit-exact agreement with the applied delta:
///
/// * `ConflictInc` — `txConflict`: `+inc_val · sim` (Example 3).
/// * `SuspendDecay` — `suspendTx`: `−decay_val · (1 − sim)` (Example 2).
/// * `WaitJustified` — `commitTx`, the suspended enemy *would* have
///   conflicted: `+inc_val · sim` (Example 4).
/// * `WaitUnjustified` — `commitTx`, the wait was for nothing:
///   `−dec_val · (1 − sim)` (Example 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfKind {
    /// Conflict-driven increase, weighted by pairwise similarity.
    ConflictInc,
    /// Suspension-driven decay, weighted by dissimilarity.
    SuspendDecay,
    /// Commit-time reinforcement of a justified wait.
    WaitJustified,
    /// Commit-time decay of an unjustified wait.
    WaitUnjustified,
}

impl ConfKind {
    /// Stable lowercase label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            ConfKind::ConflictInc => "conflict_inc",
            ConfKind::SuspendDecay => "suspend_decay",
            ConfKind::WaitJustified => "wait_justified",
            ConfKind::WaitUnjustified => "wait_unjustified",
        }
    }

    /// Inverse of [`ConfKind::label`].
    pub fn from_label(s: &str) -> Option<ConfKind> {
        [
            ConfKind::ConflictInc,
            ConfKind::SuspendDecay,
            ConfKind::WaitJustified,
            ConfKind::WaitUnjustified,
        ]
        .into_iter()
        .find(|k| k.label() == s)
    }
}

/// The closed set of types an event field may have: what
/// [`TraceEvent::from_fields`] asks its source for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A `u32` id or count.
    U32,
    /// A `u64` cycle count, count or IEEE-754 bit pattern.
    U64,
    /// A flag.
    Bool,
    /// A [`BucketKind`].
    Bucket,
    /// A [`DecisionKind`].
    Decision,
    /// A [`ConfKind`].
    Conf,
}

/// One event field's value, tagged with its type (see [`FieldKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// A `u32` field.
    U32(u32),
    /// A `u64` field.
    U64(u64),
    /// A `bool` field.
    Bool(bool),
    /// A [`BucketKind`] field.
    Bucket(BucketKind),
    /// A [`DecisionKind`] field.
    Decision(DecisionKind),
    /// A [`ConfKind`] field.
    Conf(ConfKind),
}

/// A Rust type that may appear as an event field.
trait Field: Sized {
    const KIND: FieldKind;
    fn into_value(self) -> FieldValue;
    fn from_value(value: FieldValue) -> Option<Self>;
}

macro_rules! field_types {
    ($($ty:ty => $kind:ident),* $(,)?) => {$(
        impl Field for $ty {
            const KIND: FieldKind = FieldKind::$kind;
            fn into_value(self) -> FieldValue {
                FieldValue::$kind(self)
            }
            fn from_value(value: FieldValue) -> Option<Self> {
                match value {
                    FieldValue::$kind(x) => Some(x),
                    _ => None,
                }
            }
        }
    )*};
}

field_types! {
    u32 => U32,
    u64 => U64,
    bool => Bool,
    BucketKind => Bucket,
    DecisionKind => Decision,
    ConfKind => Conf,
}

/// Declares the event vocabulary once. Each row is a variant, its
/// canonical snake_case name and its typed fields; the table generates
/// the enum, [`TraceEvent::name`], [`TraceEvent::NAMES`], the field
/// visitor [`TraceEvent::visit_fields`] and the field-driven constructor
/// [`TraceEvent::from_fields`]. The JSONL codec in `bfgts-bench` is
/// written once over the last two, so a new event is one row here plus
/// its arms in the exhaustive matches of the audit and the Chrome
/// exporter, which the compiler demands.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal {
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl TraceEvent {
            /// The canonical name of every variant, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// Stable snake_case name of the variant, used as the JSONL
            /// `ev` key.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $name, )*
                }
            }

            /// Calls `f` with the name and value of every field, in
            /// declaration order.
            pub fn visit_fields(&self, mut f: impl FnMut(&'static str, FieldValue)) {
                match *self {
                    $(
                        TraceEvent::$variant { $($field),* } => {
                            $( f(stringify!($field), Field::into_value($field)); )*
                        }
                    )*
                }
            }

            /// Builds the variant whose canonical name is `name`, asking
            /// `field` for each field by name and kind. `None` if the name
            /// is unknown or a field is missing or of another kind.
            pub fn from_fields(
                name: &str,
                mut field: impl FnMut(&'static str, FieldKind) -> Option<FieldValue>,
            ) -> Option<TraceEvent> {
                Some(match name {
                    $(
                        $name => TraceEvent::$variant {
                            $(
                                $field: <$ty as Field>::from_value(
                                    field(stringify!($field), <$ty as Field>::KIND)?,
                                )?,
                            )*
                        },
                    )*
                    _ => return None,
                })
            }
        }
    };
}

trace_events! {
    /// One trace event. The timestamp lives on the enclosing
    /// [`crate::TraceRec`].
    ///
    /// `Charge` timestamps are *interval starts*: the engine serialises the
    /// charges of one scheduling step so that on any single CPU charge
    /// intervals `[at, at + cycles)` never overlap — that is invariant I2 of
    /// the audit. All other events are instants.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum TraceEvent {
        /// `cycles` charged to `bucket` for `thread` executing on `cpu`.
        Charge = "charge" {
            /// Executing CPU.
            cpu: u32,
            /// Charged thread.
            thread: u32,
            /// Destination bucket.
            bucket: BucketKind,
            /// Interval length in cycles (never zero; zero-cost operations
            /// emit nothing).
            cycles: u64,
        },
        /// Cycles moved between buckets after the fact (abort rollback
        /// refiling Tx work into Abort). `moved < requested` means the source
        /// bucket saturated — the audit flags it, because a correct
        /// accounting never asks for more than it previously charged.
        Refile = "refile" {
            /// Thread whose buckets were adjusted.
            thread: u32,
            /// Source bucket.
            from: BucketKind,
            /// Destination bucket.
            to: BucketKind,
            /// Cycles the caller asked to move.
            requested: u64,
            /// Cycles actually moved.
            moved: u64,
        },
        /// The OS scheduler put a different thread on a CPU (same-thread
        /// re-arms emit nothing).
        ContextSwitch = "context_switch" {
            /// The CPU switching.
            cpu: u32,
            /// Incoming thread.
            thread: u32,
            /// Switch cost in cycles, charged to the incoming thread's
            /// kernel bucket.
            cost: u64,
        },
        /// A transaction attempt entered the HTM (`XBEGIN` equivalent).
        TxBegin = "tx_begin" {
            /// Executing thread.
            thread: u32,
            /// Static transaction id.
            stx: u32,
            /// Abort count of this dynamic transaction so far.
            retries: u32,
        },
        /// A transactional access was NACKed by an enemy transaction.
        TxConflict = "tx_conflict" {
            /// The requesting (losing) thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// The owning (winning) thread, or [`NO_TARGET`].
            enemy_thread: u32,
            /// The owner's static transaction id, or [`NO_TARGET`].
            enemy_stx: u32,
            /// `true` if the requester stalls and retries, `false` if this
            /// conflict aborts it.
            stalled: bool,
        },
        /// First NACK of a stall episode (counted once per episode, matching
        /// `TmStats::stalls`).
        TxStall = "tx_stall" {
            /// Stalling thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
        },
        /// The scheduler suspended a transaction before it began, predicting
        /// a conflict with a running enemy (the paper's `suspendTx`).
        TxSuspend = "tx_suspend" {
            /// Suspended thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// The predicted enemy's thread.
            target_thread: u32,
            /// The predicted enemy's static transaction id.
            target_stx: u32,
            /// `true` for yield-wait, `false` for spin-wait.
            yielding: bool,
        },
        /// A transaction attempt rolled back.
        TxAbort = "tx_abort" {
            /// Aborting thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// Log entries undone (drives the rollback cost).
            undo_lines: u32,
        },
        /// A transaction attempt committed.
        TxCommit = "tx_commit" {
            /// Committing thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// Aborts this dynamic transaction survived before committing.
            retries: u32,
            /// Size of its read/write set in cache lines.
            rw_lines: u32,
        },
        /// A contention manager's begin-time verdict, with its inputs.
        SchedDecision = "sched_decision" {
            /// Asking thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// The verdict.
            kind: DecisionKind,
            /// Predicted enemy thread ([`NO_TARGET`] when not applicable).
            target_thread: u32,
            /// Predicted enemy static transaction id ([`NO_TARGET`] when not
            /// applicable).
            target_stx: u32,
            /// Decision overhead in cycles (charged to Scheduling).
            cost: u64,
        },
        /// A confidence-table delta, with the inputs needed to recompute it.
        ConfUpdate = "conf_update" {
            /// Update rule (determines the recomputation formula).
            kind: ConfKind,
            /// Row transaction (the one whose entry `conf[a][b]` moved).
            a_stx: u32,
            /// Column transaction.
            b_stx: u32,
            /// Similarity of `a` as an `f64` bit pattern.
            sim_a_bits: u64,
            /// Similarity of `b` as an `f64` bit pattern.
            sim_b_bits: u64,
            /// The rule's rate parameter (`inc_val` / `dec_val` /
            /// `decay_val`) as an `f64` bit pattern.
            param_bits: u64,
            /// The delta actually added to the table, as an `f64` bit
            /// pattern.
            applied_bits: u64,
        },
        /// A Bloom intersection-size estimate feeding eq. 4, before and
        /// after the clamp contract.
        BloomSample = "bloom_sample" {
            /// Sampling thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// Raw estimate (may be slightly negative for disjoint sets) as
            /// an `f64` bit pattern.
            raw_bits: u64,
            /// Estimate after clamping at zero, as an `f64` bit pattern.
            clamped_bits: u64,
        },
        /// A fault-injection layer forced false-positive bits into a freshly
        /// built commit signature (Bloom corruption fault, DESIGN.md §9).
        /// Recorded so audited traces stay exact under injection: the
        /// corruption happens *before* the [`TraceEvent::BloomSample`] it
        /// perturbs, so I5/I6 recomputation still agrees bit for bit.
        FaultBloomCorrupt = "fault_bloom_corrupt" {
            /// Committing thread whose new signature was corrupted.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// Bit positions forced high (overlapping positions are
            /// idempotent, so fewer *new* bits may have appeared).
            bits: u32,
        },
        /// A transaction touched a conflict-detection shard for the first
        /// time in this attempt (sharded platforms only, `shards > 1`).
        /// Emitted at most once per shard per attempt; the set of shards
        /// named between a [`TraceEvent::TxBegin`] and its commit is exactly
        /// the set the transaction accessed, which invariant I8 checks
        /// against the matching [`TraceEvent::CrossShardCommit`].
        ShardTouch = "shard_touch" {
            /// Accessing thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// The shard first touched by this access.
            shard: u32,
        },
        /// A committing transaction spanned multiple conflict-detection
        /// shards and paid the cross-shard coordination cost (sharded
        /// platforms only). Emitted before the matching
        /// [`TraceEvent::TxCommit`], while the attempt is still open.
        CrossShardCommit = "cross_shard_commit" {
            /// Committing thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// Distinct shards the attempt touched (always ≥ 2).
            shards: u32,
            /// Extra commit cycles charged: `cross_shard_hop · (shards − 1)`,
            /// folded into the commit's Tx-bucket charge.
            cost: u64,
        },
        /// An open-system transaction was fetched from its thread's arrival
        /// queue (open-system runs only; batch runs never emit this).
        /// `arrival` is the cycle the transaction *entered* the queue — the
        /// anchor of invariant I9: the next [`TraceEvent::TxBegin`] on this
        /// thread must not precede it, and the sojourn (commit − arrival) is
        /// non-negative.
        TxArrival = "tx_arrival" {
            /// Fetching thread.
            thread: u32,
            /// Static transaction id of the fetched instance.
            stx: u32,
            /// Cycle the transaction arrived (entered the queue). Never
            /// after the fetch instant on the enclosing record.
            arrival: u64,
        },
        /// Arrival-queue depth observed at a fetch: transactions already due
        /// but still queued behind the one just fetched (open-system runs
        /// only). Emitted immediately after the matching
        /// [`TraceEvent::TxArrival`].
        QueueDepth = "queue_depth" {
            /// Observing thread.
            thread: u32,
            /// Due-but-queued arrivals behind the fetched transaction.
            depth: u64,
        },
        /// A fault-injection layer rewrote the confidence table mid-run
        /// (poisoning fault, DESIGN.md §9).
        FaultConfPoison = "fault_conf_poison" {
            /// Thread whose commit triggered the poisoning.
            thread: u32,
            /// `true` saturates every allocated entry to a large constant,
            /// `false` resets them all to zero.
            saturate: bool,
            /// Table entries rewritten.
            entries: u64,
        },
        /// A bounded-signature access was denied by a Bloom intersection that
        /// the exact line table *dis*confirms (capacity-limited detection,
        /// DESIGN.md §13): the signatures overlapped, the real sets did not.
        /// The false positive is a real abort — the requester rolls back —
        /// which is exactly the noisy-oracle regime the scheduler must
        /// survive. Invariant I10 recomputes `true_conflicts` from the
        /// ground-truth sets and requires it to be zero.
        FalsePositiveConflict = "false_positive_conflict" {
            /// The requesting (aborting) thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// The thread whose signature collided with the access.
            enemy_thread: u32,
            /// The signature owner's static transaction id.
            enemy_stx: u32,
            /// Genuinely conflicting lines for the denied access, recomputed
            /// from the exact line table at emission. Always 0 — a non-zero
            /// value means a real conflict was mislabeled, and I10 rejects
            /// the trace.
            true_conflicts: u32,
        },
        /// A bounded-signature transaction tried to track one address more
        /// than its hardware `capacity` allows and aborted on overflow
        /// (capacity-limited detection, DESIGN.md §13). Invariant I10
        /// requires `tracked > capacity`: the recorded set size must actually
        /// exceed the configured bound. The retry runs in the software
        /// fallback with exact tracking, so the instance still commits.
        CapacityAbort = "capacity_abort" {
            /// The overflowing thread.
            thread: u32,
            /// Its static transaction id.
            stx: u32,
            /// Distinct addresses the attempt would have had to track,
            /// including the one that overflowed (always `capacity + 1`).
            tracked: u32,
            /// The configured hardware tracking bound (always ≥ 1).
            capacity: u32,
        },
        /// A window-based greedy contention manager moved a thread into its
        /// next execution window and drew the window's randomized priority
        /// (DESIGN.md §14). Invariant I11 requires the run header to declare
        /// a window seed and recomputes `priority` as
        /// `window_priority(seed, thread, window)` bit-for-bit; per-thread
        /// windows are strictly increasing, and no advance happens while
        /// that thread's transaction attempt is open.
        WindowAdvance = "window_advance" {
            /// The advancing thread.
            thread: u32,
            /// The window just entered (threads start in window 0, so the
            /// first advance announces window 1).
            window: u64,
            /// The priority drawn for this window, higher wins conflicts.
            priority: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_roundtrip() {
        for (i, b) in BucketKind::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(BucketKind::from_index(i), Some(b));
            assert_eq!(BucketKind::from_label(b.label()), Some(b));
        }
        assert_eq!(BucketKind::from_index(5), None);
        assert_eq!(BucketKind::from_label("bogus"), None);
    }

    #[test]
    fn fields_rebuild_the_event() {
        let ev = TraceEvent::SchedDecision {
            thread: 1,
            stx: 2,
            kind: DecisionKind::Spin,
            target_thread: NO_TARGET,
            target_stx: 3,
            cost: 250,
        };
        let mut fields = Vec::new();
        ev.visit_fields(|key, value| fields.push((key, value)));
        let lookup = |key: &str, _: FieldKind| fields.iter().find(|f| f.0 == key).map(|f| f.1);
        assert_eq!(TraceEvent::from_fields(ev.name(), lookup), Some(ev));
        // A value of the wrong kind is refused, not coerced.
        let wrong = |key: &str, kind: FieldKind| match key {
            "cost" => Some(FieldValue::U32(250)),
            _ => lookup(key, kind),
        };
        assert_eq!(TraceEvent::from_fields(ev.name(), wrong), None);
    }

    #[test]
    fn decision_and_conf_labels_roundtrip() {
        for d in [
            DecisionKind::Proceed,
            DecisionKind::Spin,
            DecisionKind::Yield,
            DecisionKind::Block,
            DecisionKind::Delay,
        ] {
            assert_eq!(DecisionKind::from_label(d.label()), Some(d));
        }
        for k in [
            ConfKind::ConflictInc,
            ConfKind::SuspendDecay,
            ConfKind::WaitJustified,
            ConfKind::WaitUnjustified,
        ] {
            assert_eq!(ConfKind::from_label(k.label()), Some(k));
        }
    }
}
