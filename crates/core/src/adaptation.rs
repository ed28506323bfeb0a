//! Multi-source domain adaptation: k Dual-CVAEs trained independently,
//! one per (source, target) pair (paper §IV-A / §IV-B).
//!
//! The paper trains the k Dual-CVAEs "in parallel", and so does this
//! module: they share no parameters, so each pair is one
//! [`Pool::map_tasks`] task that owns its Dual-CVAE, its Adam state and
//! its `seed + idx·7919` RNG. Matmuls inside a task run serially (pool
//! workers never nest), reports come back in pair order, and every pair's
//! parameters are bit-identical at any `METADPA_THREADS` setting — the
//! same bits the one-thread, pair-after-pair loop produces.

use std::sync::Mutex;

use metadpa_data::adaptation::AdaptationPair;
use metadpa_nn::module::{restore, snapshot_into, zero_grad};
use metadpa_nn::optim::{global_grad_norm, Adam, Optimizer};
use metadpa_tensor::{Matrix, Pool, SeededRng};

use crate::dual_cvae::{DualCvae, DualCvaeConfig, DualCvaeLosses};
use crate::maml::{EpochRate, SentinelConfig, SentinelState, TrainAbort};

/// Training hyper-parameters for the adaptation phase.
#[derive(Clone, Copy, Debug)]
pub struct AdapterTrainConfig {
    /// Epochs over each pair's shared-user training rows.
    pub epochs: usize,
    /// Minibatch size (the paper uses B = 32).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for batching and reparameterization noise.
    pub seed: u64,
}

impl Default for AdapterTrainConfig {
    fn default() -> Self {
        Self { epochs: 40, batch_size: 32, lr: 1e-3, seed: 0xDA7A }
    }
}

/// Per-source training history.
#[derive(Clone, Debug)]
pub struct AdaptationReport {
    /// Source domain name.
    pub source_name: String,
    /// Mean training losses per epoch.
    pub train_losses: Vec<DualCvaeLosses>,
    /// Held-out losses after training.
    pub eval_losses: DualCvaeLosses,
}

/// k Dual-CVAEs plus their optimizers.
pub struct MultiSourceAdapter {
    duals: Vec<DualCvae>,
    optimizers: Vec<Adam>,
    train_config: AdapterTrainConfig,
}

impl MultiSourceAdapter {
    /// Builds one Dual-CVAE per adaptation pair.
    ///
    /// # Panics
    /// Panics if `pairs` is empty or any pair has no shared users.
    pub fn new(
        pairs: &[AdaptationPair],
        content_dim: usize,
        dual_config: DualCvaeConfig,
        train_config: AdapterTrainConfig,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(!pairs.is_empty(), "MultiSourceAdapter: need at least one source pair");
        let mut duals = Vec::with_capacity(pairs.len());
        let mut optimizers = Vec::with_capacity(pairs.len());
        for pair in pairs {
            assert!(
                pair.n_shared() >= 4,
                "MultiSourceAdapter: pair {} has only {} shared users after filtering",
                pair.source_name,
                pair.n_shared()
            );
            duals.push(DualCvae::new(
                pair.source_ratings.cols(),
                pair.target_ratings.cols(),
                content_dim,
                dual_config,
                rng,
            ));
            optimizers.push(Adam::new(train_config.lr));
        }
        Self { duals, optimizers, train_config }
    }

    /// Number of source domains (k).
    pub fn n_sources(&self) -> usize {
        self.duals.len()
    }

    /// Immutable access to the k Dual-CVAEs.
    pub fn duals(&self) -> &[DualCvae] {
        &self.duals
    }

    /// Trains every Dual-CVAE on its pair's training rows.
    ///
    /// # Panics
    /// Panics if `pairs` does not match the construction-time pair list.
    pub fn train(&mut self, pairs: &[AdaptationPair]) -> Vec<AdaptationReport> {
        self.train_checked(pairs, &SentinelConfig::default())
            .expect("train without fail_fast never aborts")
    }

    /// [`MultiSourceAdapter::train`] with anomaly sentinels: each epoch's
    /// total loss and post-step gradient norm run through `sentinels`
    /// (fresh loss window per source pair), typed `train_anomaly` events
    /// are emitted while observability is on, and with
    /// `sentinels.fail_fast` a fatal anomaly stops that pair's training
    /// with a [`TrainAbort`] — the affected Dual-CVAE is rewound to its
    /// state at the start of the aborted epoch.
    ///
    /// The k pairs train concurrently, one [`Pool::map_tasks`] task each
    /// (see the module doc). A pair that aborts does not stop the others;
    /// when several abort, the error carries the lowest-index pair's
    /// anomaly, so the result is the same at any thread count.
    ///
    /// While observability is on, every epoch emits one structured
    /// `train_epoch` record (phase `"cvae"`, per-term losses, grad norm,
    /// wall time, rolling-rate ETA over the pair's remaining epochs).
    /// Parameter updates are identical whether observability is on or off.
    ///
    /// # Panics
    /// Panics if `pairs` does not match the construction-time pair list.
    pub fn train_checked(
        &mut self,
        pairs: &[AdaptationPair],
        sentinels: &SentinelConfig,
    ) -> Result<Vec<AdaptationReport>, TrainAbort> {
        assert_eq!(pairs.len(), self.duals.len(), "MultiSourceAdapter::train: pair count changed");
        let cfg = self.train_config;
        // Each task locks only its own slot, so the locks never contend;
        // they hand the task exclusive access to its pair's model state.
        let slots: Vec<Mutex<(&mut DualCvae, &mut Adam)>> =
            self.duals.iter_mut().zip(self.optimizers.iter_mut()).map(Mutex::new).collect();
        Pool::current()
            .map_tasks(pairs.len(), |idx| {
                let mut slot = slots[idx].lock().expect("adaptation pair slot poisoned");
                let (dual, opt) = &mut *slot;
                train_pair(idx, &pairs[idx], dual, opt, &cfg, sentinels)
            })
            .into_iter()
            .collect()
    }

    /// Runs the augmentation path of every Dual-CVAE over the full
    /// target-domain user content, returning k generated rating matrices
    /// (`n_users x n_target_items`, values in `[0, 1]`).
    pub fn generate_diverse_ratings(&mut self, target_user_content: &Matrix) -> Vec<Matrix> {
        self.duals.iter_mut().map(|d| d.generate_target_ratings(target_user_content)).collect()
    }
}

/// Trains pair `idx`'s Dual-CVAE on its training rows: one pool task of
/// [`MultiSourceAdapter::train_checked`]. Everything it touches is owned
/// by the pair — model, optimizer, the `seed + idx·7919` RNG, sentinel
/// window and epoch-entry snapshot — so its result does not depend on
/// which thread runs it or on what the other pairs do.
fn train_pair(
    idx: usize,
    pair: &AdaptationPair,
    dual: &mut DualCvae,
    opt: &mut Adam,
    cfg: &AdapterTrainConfig,
    sentinels: &SentinelConfig,
) -> Result<AdaptationReport, TrainAbort> {
    let _pair_span = metadpa_obs::span!("adaptation.pair.{}", pair.source_name);
    let mut rng = SeededRng::new(cfg.seed.wrapping_add(idx as u64 * 7919));
    // Content is small (`n_shared x content_dim`) and gathered once; the
    // rating rows stay in the pair's CSR storage and densify only into the
    // per-batch workspaces below — no dense `n_shared x n_items` matrix
    // ever exists on this path.
    let x_s = pair.source_content.gather_rows(&pair.train_rows);
    let x_t = pair.target_content.gather_rows(&pair.train_rows);
    let n = pair.train_rows.len();
    let mut order: Vec<usize> = (0..n).collect();
    let (mut br_s, mut br_t) = (Matrix::default(), Matrix::default());
    let (mut bx_s, mut bx_t) = (Matrix::default(), Matrix::default());
    let mut batch_rows: Vec<usize> = Vec::with_capacity(cfg.batch_size.max(2));
    let mut train_losses = Vec::with_capacity(cfg.epochs);
    let mut theta_entry: Vec<Matrix> = Vec::new();
    let mut rate = EpochRate::new();
    // Each pair is an independent model: its loss series gets a fresh
    // sentinel window.
    let mut sentinel = SentinelState::new("cvae");
    for epoch in 0..cfg.epochs {
        let _epoch_span = metadpa_obs::span!("adaptation.epoch");
        let telemetry = metadpa_obs::enabled();
        let sentinel_active = sentinels.fail_fast || telemetry;
        let epoch_start = telemetry.then(std::time::Instant::now);
        if sentinels.fail_fast {
            snapshot_into(dual, &mut theta_entry);
        }
        rng.shuffle(&mut order);
        let mut batch_losses = Vec::new();
        for chunk in order.chunks(cfg.batch_size.max(2)) {
            if chunk.len() < 2 {
                continue; // InfoNCE terms need in-batch negatives.
            }
            // Map shuffled positions back to pair rows, then scatter the
            // sparse rating rows into the reused workspaces.
            batch_rows.clear();
            batch_rows.extend(chunk.iter().map(|&c| pair.train_rows[c]));
            pair.gather_ratings_into(&batch_rows, &mut br_s, &mut br_t);
            x_s.gather_rows_into(chunk, &mut bx_s);
            x_t.gather_rows_into(chunk, &mut bx_t);
            zero_grad(dual);
            batch_losses.push(dual.train_step(&br_s, &br_t, &bx_s, &bx_t, &mut rng));
            opt.step(dual);
        }
        let mean = DualCvaeLosses::mean(&batch_losses);
        let total = mean.total(dual.config().beta1, dual.config().beta2);
        // Read-only tap on the last batch's accumulated gradients.
        let grad_norm = if sentinel_active { global_grad_norm(dual) } else { 0.0 };
        metadpa_obs::event!(
            "dual_cvae.epoch",
            "source" => pair.source_name.as_str(),
            "epoch" => epoch,
            "reconstruction" => mean.reconstruction,
            "kl" => mean.kl,
            "mse_align" => mean.mse_align,
            "cross_reconstruction" => mean.cross_reconstruction,
            "mdi" => mean.mdi,
            "me" => mean.me,
            "total" => total,
        );
        if let Some(start) = epoch_start {
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let eta_ms = rate.eta_ms(wall_ms, cfg.epochs - epoch - 1);
            let mut ev = metadpa_obs::Event::new("train_epoch", "train_epoch");
            ev.push("phase", "cvae");
            ev.push("source", pair.source_name.as_str());
            ev.push("epoch", epoch);
            ev.push("epochs", cfg.epochs);
            ev.push("loss", total as f64);
            ev.push("reconstruction", mean.reconstruction as f64);
            ev.push("kl", mean.kl as f64);
            ev.push("mse_align", mean.mse_align as f64);
            ev.push("cross_reconstruction", mean.cross_reconstruction as f64);
            ev.push("mdi", mean.mdi as f64);
            ev.push("me", mean.me as f64);
            ev.push("grad_norm", grad_norm);
            ev.push("wall_ms", wall_ms);
            ev.push("eta_ms", eta_ms);
            metadpa_obs::emit(ev);
        }
        train_losses.push(mean);
        if sentinel_active {
            if let Some(anomaly) = sentinel.check(sentinels, epoch, total as f64, grad_norm) {
                if sentinels.fail_fast {
                    restore(dual, &theta_entry);
                    return Err(TrainAbort { anomaly });
                }
            }
        }
    }
    let eval_losses = if pair.eval_rows.is_empty() {
        DualCvaeLosses::default()
    } else {
        let (er_s, er_t, ex_s, ex_t) = pair.eval_batch();
        dual.eval_losses(&er_s, &er_t, &ex_s, &ex_t)
    };
    Ok(AdaptationReport { source_name: pair.source_name.clone(), train_losses, eval_losses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_data::adaptation::{build_adaptation_pairs, AdaptationConfig};
    use metadpa_data::generator::generate_world;
    use metadpa_data::presets::tiny_world;
    use metadpa_nn::module::{snapshot, Module};
    use metadpa_tensor::pool::with_threads;

    use crate::maml::TrainAnomaly;

    fn small_dual_config() -> DualCvaeConfig {
        DualCvaeConfig { hidden_dim: 24, latent_dim: 6, critic_dim: 8, ..DualCvaeConfig::default() }
    }

    fn quick_train_config() -> AdapterTrainConfig {
        AdapterTrainConfig { epochs: 4, batch_size: 16, lr: 2e-3, seed: 1 }
    }

    #[test]
    fn trains_one_dual_per_source_and_losses_drop() {
        let w = generate_world(&tiny_world(21));
        let pairs = build_adaptation_pairs(&w, &AdaptationConfig::default());
        let mut rng = SeededRng::new(2);
        let mut adapter = MultiSourceAdapter::new(
            &pairs,
            w.target.user_content.cols(),
            small_dual_config(),
            quick_train_config(),
            &mut rng,
        );
        assert_eq!(adapter.n_sources(), 2);
        let reports = adapter.train(&pairs);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            let first = r.train_losses.first().unwrap().reconstruction;
            let last = r.train_losses.last().unwrap().reconstruction;
            assert!(
                last < first,
                "{}: reconstruction should drop over epochs ({first} -> {last})",
                r.source_name
            );
            assert!(r.eval_losses.reconstruction.is_finite());
        }
    }

    #[test]
    fn generated_ratings_have_k_diverse_variants() {
        let w = generate_world(&tiny_world(22));
        let pairs = build_adaptation_pairs(&w, &AdaptationConfig::default());
        let mut rng = SeededRng::new(3);
        let mut adapter = MultiSourceAdapter::new(
            &pairs,
            w.target.user_content.cols(),
            small_dual_config(),
            quick_train_config(),
            &mut rng,
        );
        let _ = adapter.train(&pairs);
        let generated = adapter.generate_diverse_ratings(&w.target.user_content);
        assert_eq!(generated.len(), 2);
        for g in &generated {
            assert_eq!(g.shape(), (w.target.n_users(), w.target.n_items()));
            assert!(g.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        // The two sources' generations should not be identical (diversity).
        assert_ne!(generated[0], generated[1]);
    }

    fn loss_bits(reports: &[AdaptationReport]) -> Vec<u32> {
        let terms = |l: &DualCvaeLosses| {
            [l.reconstruction, l.kl, l.mse_align, l.cross_reconstruction, l.mdi, l.me]
        };
        reports
            .iter()
            .flat_map(|r| r.train_losses.iter().chain([&r.eval_losses]).flat_map(terms))
            .map(f32::to_bits)
            .collect()
    }

    #[test]
    fn training_is_deterministic() {
        // Pairs train as concurrent pool tasks; losses and generations must
        // not depend on the thread count (1 = the serial pair-by-pair loop).
        let w = generate_world(&tiny_world(23));
        let pairs = build_adaptation_pairs(&w, &AdaptationConfig::default());
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut rng = SeededRng::new(5);
                let mut adapter = MultiSourceAdapter::new(
                    &pairs,
                    w.target.user_content.cols(),
                    small_dual_config(),
                    quick_train_config(),
                    &mut rng,
                );
                let reports = adapter.train(&pairs);
                (loss_bits(&reports), adapter.generate_diverse_ratings(&w.target.user_content))
            })
        };
        let (want_losses, want_ratings) = run(1);
        assert_eq!(want_losses.len(), 2 * (4 + 1) * 6, "2 pairs x (4 epochs + eval) x 6 terms");
        for threads in [1, 2, 7] {
            let (losses, ratings) = run(threads);
            assert_eq!(losses, want_losses, "loss bits drift at {threads} threads");
            assert_eq!(ratings.len(), want_ratings.len());
            for (g, want) in ratings.iter().zip(&want_ratings) {
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g), bits(want), "generated ratings drift at {threads} threads");
            }
        }
    }

    #[test]
    fn fail_fast_reports_the_lowest_index_pair_and_rewinds_its_dual() {
        // Pair 1 is poisoned with NaN and fails at epoch 0. A negative
        // divergence ratio makes every finite epoch after the first count
        // as diverging, so healthy pair 0 fails later, at epoch 1. The
        // error must still be pair 0's — the one the serial pair-by-pair
        // loop would hit first — and each failed pair must be rewound to
        // its own epoch-entry θ.
        let w = generate_world(&tiny_world(24));
        let pairs = build_adaptation_pairs(&w, &AdaptationConfig::default());
        let adapter = |epochs: usize| {
            MultiSourceAdapter::new(
                &pairs,
                w.target.user_content.cols(),
                small_dual_config(),
                AdapterTrainConfig { epochs, ..quick_train_config() },
                &mut SeededRng::new(6),
            )
        };
        let bits = |theta: &[Matrix]| -> Vec<u32> {
            theta.iter().flat_map(|m| m.as_slice().iter().map(|v| v.to_bits())).collect()
        };
        // Reference: one healthy epoch — pair 0's epoch-0 loss and its θ at
        // the entry of epoch 1.
        let mut reference = adapter(1);
        let reference_reports = reference.train(&pairs);
        let cfg = reference.duals[0].config();
        let epoch0_total = reference_reports[0].train_losses[0].total(cfg.beta1, cfg.beta2);
        let pair0_epoch1_entry = bits(&snapshot(&mut reference.duals[0]));

        let sentinels = SentinelConfig {
            window: 1,
            divergence_ratio: -1.0,
            fail_fast: true,
            ..SentinelConfig::default()
        };
        for threads in [1, 2, 7] {
            let mut poisoned = adapter(quick_train_config().epochs);
            poisoned.duals[1].visit_params(&mut |p| p.value.as_mut_slice()[0] = f32::NAN);
            let pair1_before = bits(&snapshot(&mut poisoned.duals[1]));
            let err = with_threads(threads, || poisoned.train_checked(&pairs, &sentinels))
                .expect_err("a poisoned pair must abort fail-fast training");
            match err.anomaly {
                TrainAnomaly::Divergence { phase, epoch, from, .. } => {
                    assert_eq!((phase, epoch), ("cvae", 1), "threads={threads}");
                    assert_eq!(from.to_bits(), f64::from(epoch0_total).to_bits());
                }
                other => panic!("expected pair 0's divergence, got {other:?} (threads={threads})"),
            }
            assert_eq!(
                bits(&snapshot(&mut poisoned.duals[0])),
                pair0_epoch1_entry,
                "pair 0 must be rewound to its epoch-1 entry θ (threads={threads})"
            );
            assert_eq!(
                bits(&snapshot(&mut poisoned.duals[1])),
                pair1_before,
                "poisoned pair 1 must be rewound to its epoch-0 entry θ (threads={threads})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "need at least one source")]
    fn rejects_empty_pair_list() {
        let mut rng = SeededRng::new(1);
        let _ =
            MultiSourceAdapter::new(&[], 8, small_dual_config(), quick_train_config(), &mut rng);
    }
}
