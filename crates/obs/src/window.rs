//! Rolling-window metrics: a sliding-window histogram and a quantile-drift
//! tracker, both built on a fixed ring of time slots.
//!
//! The cumulative [`crate::metrics::Histogram`] answers "what happened
//! since the process started"; serving wants "what happened in the last
//! minute". [`WindowHistogram`] keeps a fixed ring of time buckets (default
//! 12 slots x 5 s = a 60 s window): an observation lands in the slot for
//! its timestamp's epoch, and a slot is lazily cleared the first time a new
//! epoch touches it, so expiry costs nothing on the read path. Reads merge
//! every slot whose epoch still falls inside the window.
//!
//! Each slot sits behind its own mutex. That keeps slot reset atomic with
//! the observation that triggers it (a CAS design can interleave a reset
//! with a concurrent add and lose counts) and the hot serving path already
//! serializes on the engine's recommender lock, so the per-observation lock
//! is never contended in practice. Everything is deterministic given the
//! observation timestamps: the explicit `*_at` entry points take the
//! timestamp as an argument (tests pass fixed clocks; production uses
//! [`crate::now_ns`]), and nothing here touches the model's RNG or floats,
//! preserving the bit-identical-when-obs-off contract.
//!
//! [`QuantileDrift`] is the live half of the drift-fingerprint check: the
//! exported artifact carries the training-time score quantiles (the
//! fingerprint), and the tracker bins serve-time scores against those
//! frozen thresholds per window. The drift statistic is the
//! Kolmogorov–Smirnov-style sup-distance between the windowed empirical
//! CDF evaluated at the fingerprint's quantile points and the fingerprint's
//! own probabilities — 0 when serving reproduces the training distribution,
//! approaching 1 when it has drifted entirely past the training range.

use std::sync::Mutex;

use crate::metrics::{bucket_index, bucket_midpoint, N_BUCKETS};

/// Default number of ring slots.
pub const DEFAULT_SLOTS: usize = 12;

/// Default slot width: 5 seconds (so the default window is one minute).
pub const DEFAULT_SLOT_WIDTH_NS: u64 = 5_000_000_000;

/// Epoch value marking a slot that has never been written.
const EMPTY_EPOCH: u64 = u64::MAX;

struct HistSlot {
    /// Which window epoch (`t_ns / slot_width_ns`) this slot holds data
    /// for; [`EMPTY_EPOCH`] when untouched.
    epoch: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u32>,
}

impl HistSlot {
    fn new() -> Self {
        Self { epoch: EMPTY_EPOCH, count: 0, sum: 0, min: u64::MAX, max: 0, buckets: Vec::new() }
    }

    fn clear_for(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.buckets.iter_mut().for_each(|b| *b = 0);
    }
}

/// Point-in-time digest of one [`WindowHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowSnapshot {
    /// Window length in seconds.
    pub window_s: f64,
    /// Observations inside the window.
    pub count: u64,
    /// Arithmetic mean over the window (0.0 when empty).
    pub mean: f64,
    /// Windowed median (bucket-midpoint accuracy, clamped to min/max).
    pub p50: u64,
    /// Windowed 90th percentile.
    pub p90: u64,
    /// Windowed 99th percentile.
    pub p99: u64,
    /// Smallest observation in the window (0 when empty).
    pub min: u64,
    /// Largest observation in the window.
    pub max: u64,
}

/// Sliding-window histogram over `u64` observations: a fixed ring of time
/// slots, each a fixed-bucket histogram sharing the cumulative histogram's
/// bucket layout (≤ 12.5% relative quantile error).
pub struct WindowHistogram {
    slot_width_ns: u64,
    slots: Vec<Mutex<HistSlot>>,
}

impl Default for WindowHistogram {
    fn default() -> Self {
        Self::new(DEFAULT_SLOTS, DEFAULT_SLOT_WIDTH_NS)
    }
}

impl WindowHistogram {
    /// A ring of `n_slots` slots of `slot_width_ns` each; the window spans
    /// `n_slots * slot_width_ns`.
    pub fn new(n_slots: usize, slot_width_ns: u64) -> Self {
        let n_slots = n_slots.max(1);
        Self {
            slot_width_ns: slot_width_ns.max(1),
            slots: (0..n_slots).map(|_| Mutex::new(HistSlot::new())).collect(),
        }
    }

    /// Window length in seconds.
    pub fn window_s(&self) -> f64 {
        (self.slots.len() as u64 * self.slot_width_ns) as f64 / 1e9
    }

    fn lock_slot(&self, idx: usize) -> std::sync::MutexGuard<'_, HistSlot> {
        match self.slots[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records `v` at explicit timestamp `t_ns` (nanoseconds since the obs
    /// epoch). The slot the timestamp maps to is cleared first if it still
    /// holds an older epoch's data.
    pub fn observe_at(&self, t_ns: u64, v: u64) {
        let epoch = t_ns / self.slot_width_ns;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let mut slot = self.lock_slot(idx);
        if slot.epoch != epoch {
            slot.clear_for(epoch);
        }
        if slot.buckets.is_empty() {
            slot.buckets = vec![0u32; N_BUCKETS];
        }
        slot.buckets[bucket_index(v)] = slot.buckets[bucket_index(v)].saturating_add(1);
        slot.count += 1;
        slot.sum = slot.sum.saturating_add(v);
        slot.min = slot.min.min(v);
        slot.max = slot.max.max(v);
    }

    /// Records `v` now.
    pub fn observe(&self, v: u64) {
        self.observe_at(crate::now_ns(), v);
    }

    /// Digest of every observation whose slot is still inside the window
    /// ending at `t_ns`.
    pub fn snapshot_at(&self, t_ns: u64) -> WindowSnapshot {
        let now_epoch = t_ns / self.slot_width_ns;
        let n = self.slots.len() as u64;
        let oldest = now_epoch.saturating_sub(n - 1);
        let mut merged = vec![0u64; N_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for idx in 0..self.slots.len() {
            let slot = self.lock_slot(idx);
            if slot.epoch == EMPTY_EPOCH || slot.epoch < oldest || slot.epoch > now_epoch {
                continue;
            }
            count += slot.count;
            sum = sum.saturating_add(slot.sum);
            min = min.min(slot.min);
            max = max.max(slot.max);
            for (m, b) in merged.iter_mut().zip(&slot.buckets) {
                *m += *b as u64;
            }
        }
        if count == 0 {
            return WindowSnapshot { window_s: self.window_s(), ..WindowSnapshot::default() };
        }
        let quantile = |q: f64| -> u64 {
            let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (idx, b) in merged.iter().enumerate() {
                seen += b;
                if seen >= target {
                    return bucket_midpoint(idx).clamp(min, max);
                }
            }
            max
        };
        WindowSnapshot {
            window_s: self.window_s(),
            count,
            mean: sum as f64 / count as f64,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            min,
            max,
        }
    }

    /// Digest of the window ending now.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(crate::now_ns())
    }

    /// Clears every slot (the in-place zero [`crate::metrics::reset`]
    /// performs on cached handles).
    pub fn reset(&self) {
        for idx in 0..self.slots.len() {
            let mut slot = self.lock_slot(idx);
            slot.epoch = EMPTY_EPOCH;
        }
    }
}

struct DriftSlot {
    epoch: u64,
    /// `counts[i]` = observations in `(threshold[i-1], threshold[i]]`;
    /// the final bin holds everything above the last threshold.
    counts: Vec<u64>,
}

/// Windowed quantile-drift tracker: bins live observations against the
/// frozen quantile thresholds of a training-time fingerprint and reports
/// the sup-distance between the windowed empirical CDF and the
/// fingerprint's probabilities at those thresholds.
pub struct QuantileDrift {
    /// Cumulative probabilities of the fingerprint (e.g. 0.01 .. 0.99).
    probs: Vec<f64>,
    /// The fingerprint's quantile values at those probabilities, ascending.
    thresholds: Vec<f64>,
    slot_width_ns: u64,
    slots: Vec<Mutex<DriftSlot>>,
}

impl QuantileDrift {
    /// A tracker over `probs`/`thresholds` (parallel, `probs` in (0, 1),
    /// `thresholds` ascending) with the given ring shape. Returns `None`
    /// for an empty or mismatched fingerprint.
    pub fn new(
        probs: &[f64],
        thresholds: &[f64],
        n_slots: usize,
        slot_width_ns: u64,
    ) -> Option<Self> {
        if probs.is_empty() || probs.len() != thresholds.len() {
            return None;
        }
        if thresholds.iter().any(|t| !t.is_finite()) {
            return None;
        }
        let n_slots = n_slots.max(1);
        let bins = thresholds.len() + 1;
        Some(Self {
            probs: probs.to_vec(),
            thresholds: thresholds.to_vec(),
            slot_width_ns: slot_width_ns.max(1),
            slots: (0..n_slots)
                .map(|_| Mutex::new(DriftSlot { epoch: EMPTY_EPOCH, counts: vec![0; bins] }))
                .collect(),
        })
    }

    /// Tracker with the default ring shape (60 s window).
    pub fn with_defaults(probs: &[f64], thresholds: &[f64]) -> Option<Self> {
        Self::new(probs, thresholds, DEFAULT_SLOTS, DEFAULT_SLOT_WIDTH_NS)
    }

    fn lock_slot(&self, idx: usize) -> std::sync::MutexGuard<'_, DriftSlot> {
        match self.slots[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records a batch of live scores at explicit timestamp `t_ns`, under
    /// one slot lock: concurrent requests each feed a whole ranking's
    /// sample, so one lock per request keeps them from trading the slot
    /// back and forth per score. Non-finite scores are ignored (the serving
    /// path rejects them before ranking anyway).
    pub fn observe_at(&self, t_ns: u64, scores: impl IntoIterator<Item = f64>) {
        let epoch = t_ns / self.slot_width_ns;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let mut slot = self.lock_slot(idx);
        if slot.epoch != epoch {
            slot.epoch = epoch;
            slot.counts.iter_mut().for_each(|c| *c = 0);
        }
        for score in scores.into_iter().filter(|s| s.is_finite()) {
            slot.counts[self.thresholds.partition_point(|&th| score > th)] += 1;
        }
    }

    /// Records a batch of live scores now.
    pub fn observe(&self, scores: impl IntoIterator<Item = f64>) {
        self.observe_at(crate::now_ns(), scores);
    }

    /// `(drift statistic, windowed observation count)` for the window
    /// ending at `t_ns`; `None` when the window is empty. The statistic is
    /// `max_i |ecdf(threshold_i) - prob_i|` over the fingerprint's quantile
    /// points — in `[0, 1]`, 0 meaning the windowed scores sit exactly on
    /// the training distribution.
    pub fn stat_at(&self, t_ns: u64) -> Option<(f64, u64)> {
        let now_epoch = t_ns / self.slot_width_ns;
        let n = self.slots.len() as u64;
        let oldest = now_epoch.saturating_sub(n - 1);
        let mut merged = vec![0u64; self.thresholds.len() + 1];
        for idx in 0..self.slots.len() {
            let slot = self.lock_slot(idx);
            if slot.epoch == EMPTY_EPOCH || slot.epoch < oldest || slot.epoch > now_epoch {
                continue;
            }
            for (m, c) in merged.iter_mut().zip(&slot.counts) {
                *m += *c;
            }
        }
        let total: u64 = merged.iter().sum();
        if total == 0 {
            return None;
        }
        let mut cum = 0u64;
        let mut stat = 0.0f64;
        for (i, prob) in self.probs.iter().enumerate() {
            cum += merged[i];
            let ecdf = cum as f64 / total as f64;
            stat = stat.max((ecdf - prob).abs());
        }
        Some((stat, total))
    }

    /// Drift over the window ending now.
    pub fn stat(&self) -> Option<(f64, u64)> {
        self.stat_at(crate::now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000; // 1 µs slots for fast, deterministic tests

    #[test]
    fn observations_expire_once_the_window_has_passed() {
        let h = WindowHistogram::new(4, W);
        h.observe_at(0, 10);
        h.observe_at(W, 20);
        let snap = h.snapshot_at(W);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, 10);
        assert_eq!(snap.max, 20);

        // Four slots: at t = 4W the epoch-0 slot has fallen out.
        let snap = h.snapshot_at(4 * W);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.min, 20);

        // And at t = 5W everything has expired.
        let snap = h.snapshot_at(5 * W);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p99, 0);
    }

    #[test]
    fn slot_reuse_clears_stale_data() {
        let h = WindowHistogram::new(2, W);
        h.observe_at(0, 100);
        // Epoch 2 maps onto epoch 0's slot and must wipe it first.
        h.observe_at(2 * W, 7);
        let snap = h.snapshot_at(2 * W);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.max, 7, "stale slot data must not leak into the new epoch");
    }

    #[test]
    fn a_scrape_after_a_long_idle_reports_only_fresh_data() {
        // Fill every slot in the ring, go idle for longer than the whole
        // window, then resume. The resumed epochs wrap onto the same slot
        // indices as the stale data; the first write must lazily clear its
        // slot and the first scrape must see only post-idle observations.
        let h = WindowHistogram::new(4, W);
        for epoch in 0..4u64 {
            h.observe_at(epoch * W, 1_000);
        }
        assert_eq!(h.snapshot_at(3 * W).count, 4, "ring fully populated before the idle");

        // > one full window of silence (e.g. >60 s on the default shape).
        let resume = 100 * W;

        // A read-only scrape during the idle: every slot still physically
        // holds stale data, but none of it is in-window any more.
        let idle = h.snapshot_at(resume);
        assert_eq!(idle.count, 0, "stale epochs must not leak into a post-idle scrape");
        assert_eq!(idle.p99, 0);

        // First post-idle write lands on a slot holding epoch-0 data and
        // must wipe it rather than merge with it.
        h.observe_at(resume, 7);
        let snap = h.snapshot_at(resume);
        assert_eq!(snap.count, 1, "only the fresh observation is visible");
        assert_eq!(snap.max, 7, "stale pre-idle values must not survive the wraparound");
        assert_eq!(snap.min, 7);
    }

    #[test]
    fn windowed_quantiles_match_the_bucket_error_band() {
        let h = WindowHistogram::new(8, W);
        for v in 1..=1000u64 {
            h.observe_at(v % (8 * W), v);
        }
        let snap = h.snapshot_at(8 * W - 1);
        assert_eq!(snap.count, 1000);
        assert!((snap.mean - 500.5).abs() < 1e-9);
        assert!((snap.p50 as f64 - 500.0).abs() / 500.0 <= 0.15, "p50 = {}", snap.p50);
        assert!((snap.p90 as f64 - 900.0).abs() / 900.0 <= 0.15, "p90 = {}", snap.p90);
        assert!((snap.p99 as f64 - 990.0).abs() / 990.0 <= 0.15, "p99 = {}", snap.p99);
    }

    #[test]
    fn single_observation_collapses_quantiles_to_it() {
        let h = WindowHistogram::new(4, W);
        h.observe_at(10, 1_000_000);
        let snap = h.snapshot_at(10);
        assert_eq!(snap.p50, 1_000_000);
        assert_eq!(snap.p99, 1_000_000);
    }

    #[test]
    fn drift_is_zero_on_the_training_distribution_and_large_off_it() {
        // Fingerprint of Uniform(0, 1): quantile q at value q.
        let probs = [0.1, 0.25, 0.5, 0.75, 0.9];
        let d = QuantileDrift::new(&probs, &probs, 4, W).unwrap();
        assert_eq!(d.stat_at(0), None, "empty window has no statistic");

        // Scores drawn exactly on the fingerprint's quantile grid.
        d.observe_at(0, (0..1000).map(|i| (i as f64 + 0.5) / 1000.0));
        let (stat, n) = d.stat_at(0).unwrap();
        assert_eq!(n, 1000);
        assert!(stat < 0.01, "on-distribution drift should be ~0, got {stat}");

        // A fresh window where every score sits above the last threshold.
        d.observe_at(4 * W, [5.0; 100]);
        let (stat, n) = d.stat_at(4 * W).unwrap();
        assert_eq!(n, 100, "the on-distribution scores expired with their window");
        assert!(stat > 0.85, "fully shifted scores must max out the statistic, got {stat}");
    }

    #[test]
    fn drift_rejects_degenerate_fingerprints() {
        assert!(QuantileDrift::new(&[], &[], 4, W).is_none());
        assert!(QuantileDrift::new(&[0.5], &[0.1, 0.2], 4, W).is_none());
        assert!(QuantileDrift::new(&[0.5], &[f64::NAN], 4, W).is_none());
        // Non-finite observations are dropped, not binned.
        let d = QuantileDrift::new(&[0.5], &[0.0], 1, W).unwrap();
        d.observe_at(0, [f64::NAN]);
        assert_eq!(d.stat_at(0), None);
        d.observe_at(0, [f64::INFINITY, 1.0, f64::NAN]);
        assert_eq!(d.stat_at(0).map(|(_, n)| n), Some(1));
    }

    #[test]
    fn reset_empties_every_slot() {
        let h = WindowHistogram::new(4, W);
        h.observe_at(0, 5);
        h.reset();
        assert_eq!(h.snapshot_at(0).count, 0);
    }
}
