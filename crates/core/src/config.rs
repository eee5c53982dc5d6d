//! BFGTS configuration.

use bfgts_bloomsig::SignatureKind;

/// Largest Bloom filter size a scenario may request, in bits: the top
/// of the paper's Figure 6 sweep (512–8192).
pub const MAX_BLOOM_BITS: u32 = 8192;

/// Largest aliased confidence table a scenario may request, in slots per
/// side. The table holds slots² `f64` entries, so 1024 slots bound it at
/// 8 MiB; the aliasing ablation sweeps 1, 2 and 4.
pub const MAX_ALIAS_SLOTS: u32 = 1024;

/// Which of the paper's four evaluated BFGTS flavours to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BfgtsVariant {
    /// All scheduling operations in software, including the begin-time
    /// CPU-table scan.
    Sw,
    /// The begin-time scan runs on the per-CPU hardware predictor with
    /// its dedicated confidence cache (§4.1); commit bookkeeping stays in
    /// software.
    Hw,
    /// `Hw` gated by ATS-style conflict pressure (§4.3): below the
    /// pressure threshold neither prediction nor commit bookkeeping runs.
    HwBackoff,
    /// Idealised best case (§5.1): every scheduling operation completes
    /// in one cycle and similarity is computed from perfect (exact-set)
    /// signatures.
    NoOverhead,
}

impl BfgtsVariant {
    /// Report label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            BfgtsVariant::Sw => "BFGTS-SW",
            BfgtsVariant::Hw => "BFGTS-HW",
            BfgtsVariant::HwBackoff => "BFGTS-HW/Backoff",
            BfgtsVariant::NoOverhead => "BFGTS-NoOverhead",
        }
    }
}

/// Full parameter set of a BFGTS manager.
///
/// Defaults reflect the paper's evaluation: 2048-bit Bloom filters with
/// 4 hash functions, similarity updates for small transactions every 20
/// commits, small transactions defined as ≤10 cache lines, a pressure
/// threshold of 0.25 with heavily past-biased smoothing.
#[derive(Debug, Clone, PartialEq)]
pub struct BfgtsConfig {
    /// Which flavour to run.
    pub variant: BfgtsVariant,
    /// Signature representation used for similarity estimation.
    pub signature: SignatureKind,
    /// Bloom hash-function count (`k`).
    pub bloom_hashes: u32,
    /// Confidence above which a predicted conflict serialises.
    pub conf_threshold: f64,
    /// Base confidence increment; scaled by similarity on every conflict
    /// (paper Example 3: `inc = incVal·sim`).
    pub inc_val: f64,
    /// Base confidence decay at suspend; scaled by dissimilarity (paper
    /// Example 2: `decay = decayVal·(1−sim)`).
    pub decay_val: f64,
    /// Base confidence decrement for unjustified waits at commit (paper
    /// Example 4: `dec = decVal·(1−sim)`).
    pub dec_val: f64,
    /// Transactions whose average read/write set is at most this many
    /// lines are "small" (paper: 10 lines). Controls commit-time
    /// similarity-update batching.
    pub small_tx_size: f64,
    /// Predicted-conflict waits *yield* (switch threads) when the target
    /// transaction's average size exceeds this many lines, and *spin*
    /// otherwise (the paper's `suspendTx` stall-vs-yield choice). The
    /// paper reuses its 10-line small-transaction bound; on this
    /// simulator's cost model (3-cycle transactional accesses vs a
    /// 2000-cycle context switch) the economic crossover sits far
    /// higher, so the default keeps short waits spinning.
    pub yield_wait_threshold: f64,
    /// Small transactions update similarity once every this many commits
    /// (paper: 20).
    pub small_tx_interval: u32,
    /// Past-history weight of the conflict-pressure moving average
    /// (HwBackoff only; paper: "heavily biases past history").
    pub pressure_alpha: f64,
    /// Pressure above which BFGTS engages (HwBackoff only; paper: 0.25).
    pub pressure_threshold: f64,
    /// Post-abort backoff window in cycles (jittered, doubled per retry).
    pub backoff_window: u64,
    /// Similarity assumed for a transaction before any measurement.
    pub initial_sim: f64,
    /// When false, confidence updates ignore similarity and use the raw
    /// `inc_val`/`decay_val`/`dec_val` constants (ablation of the paper's
    /// central idea; PTS-style updates).
    pub similarity_weighting: bool,
    /// Bound the confidence table to `n`×`n` slots with sTxID hashing
    /// (the paper's §4.2.1 future-work *aliasing* scheme for programs
    /// with very many static transactions). `None` (the default) grows
    /// the exact table as the paper evaluates it.
    pub alias_slots: Option<u32>,
}

impl BfgtsConfig {
    fn base(variant: BfgtsVariant) -> Self {
        Self {
            variant,
            signature: match variant {
                BfgtsVariant::NoOverhead => SignatureKind::Perfect,
                _ => SignatureKind::Bloom { bits: 2048 },
            },
            bloom_hashes: 4,
            conf_threshold: 100.0,
            inc_val: 80.0,
            decay_val: 30.0,
            dec_val: 40.0,
            small_tx_size: 10.0,
            yield_wait_threshold: 600.0,
            small_tx_interval: 20,
            pressure_alpha: 0.9,
            pressure_threshold: 0.25,
            backoff_window: 300,
            initial_sim: 0.5,
            similarity_weighting: true,
            alias_slots: None,
        }
    }

    /// The all-software variant.
    pub fn sw() -> Self {
        Self::base(BfgtsVariant::Sw)
    }

    /// The hardware-accelerated variant.
    pub fn hw() -> Self {
        Self::base(BfgtsVariant::Hw)
    }

    /// The pressure-gated hybrid.
    pub fn hw_backoff() -> Self {
        Self::base(BfgtsVariant::HwBackoff)
    }

    /// The idealised zero-overhead variant (perfect signatures).
    pub fn no_overhead() -> Self {
        Self::base(BfgtsVariant::NoOverhead)
    }

    /// Sets the Bloom filter size in bits (the paper sweeps 512–8192).
    /// Ignored by `NoOverhead`, which uses perfect signatures.
    pub fn bloom_bits(mut self, bits: u32) -> Self {
        if self.variant != BfgtsVariant::NoOverhead {
            self.signature = SignatureKind::Bloom { bits };
        }
        self
    }

    /// Sets the small-transaction similarity update interval (§5.3.2).
    pub fn small_tx_interval(mut self, every: u32) -> Self {
        self.small_tx_interval = every;
        self
    }

    /// Disables similarity weighting (ablation).
    pub fn without_similarity_weighting(mut self) -> Self {
        self.similarity_weighting = false;
        self
    }

    /// Bounds the confidence table with sTxID aliasing (§4.2.1 future
    /// work).
    pub fn with_alias_slots(mut self, slots: u32) -> Self {
        self.alias_slots = Some(slots);
        self
    }

    /// Bloom filter size in bits, if the configuration uses Bloom
    /// signatures.
    pub fn bloom_bits_get(&self) -> Option<u32> {
        match self.signature {
            SignatureKind::Bloom { bits } => Some(bits),
            SignatureKind::Perfect => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_match_paper() {
        assert_eq!(BfgtsVariant::Sw.label(), "BFGTS-SW");
        assert_eq!(BfgtsVariant::Hw.label(), "BFGTS-HW");
        assert_eq!(BfgtsVariant::HwBackoff.label(), "BFGTS-HW/Backoff");
        assert_eq!(BfgtsVariant::NoOverhead.label(), "BFGTS-NoOverhead");
    }

    #[test]
    fn no_overhead_uses_perfect_signatures() {
        let cfg = BfgtsConfig::no_overhead();
        assert_eq!(cfg.signature, SignatureKind::Perfect);
        // bloom_bits is a no-op for NoOverhead
        let cfg = cfg.bloom_bits(512);
        assert_eq!(cfg.signature, SignatureKind::Perfect);
        assert_eq!(cfg.bloom_bits_get(), None);
    }

    #[test]
    fn bloom_bits_builder() {
        let cfg = BfgtsConfig::hw().bloom_bits(8192);
        assert_eq!(cfg.bloom_bits_get(), Some(8192));
    }

    #[test]
    fn defaults_match_paper_parameters() {
        let cfg = BfgtsConfig::hw_backoff();
        assert_eq!(cfg.small_tx_interval, 20);
        assert_eq!(cfg.small_tx_size, 10.0);
        assert_eq!(cfg.pressure_threshold, 0.25);
        assert!(cfg.pressure_alpha >= 0.75, "past history heavily biased");
        assert!(cfg.similarity_weighting);
    }

    #[test]
    fn ablation_builder() {
        let cfg = BfgtsConfig::hw().without_similarity_weighting();
        assert!(!cfg.similarity_weighting);
    }

    #[test]
    fn alias_builder() {
        assert_eq!(BfgtsConfig::hw().alias_slots, None);
        assert_eq!(BfgtsConfig::hw().with_alias_slots(8).alias_slots, Some(8));
    }
}
