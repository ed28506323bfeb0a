//! The thread-safe inference engine: scoring plus the adaptation cache.
//!
//! [`Engine`] serves one reloaded artifact to any number of concurrent
//! callers without a global lock. The artifact's read-only part (θ, content,
//! the item embedding table) is one [`SharedArtifact`] behind an `Arc`;
//! what scoring mutates (a model whose layers cache activations, and a
//! score buffer) lives in per-caller [`ArtifactRecommender`] handles kept
//! on a free list. A call pops a handle, ranks or adapts on it with no lock
//! held, and pushes it back; the free-list mutex guards only the pop and
//! the push. A handle is built from the shared part only when the list is
//! empty, so the number of handles never exceeds the peak number of
//! concurrent calls. Handles score bit-identically to each other, and a
//! catalogue ranks in fixed 256-row blocks whose products stay below the
//! matmul kernels' parallel threshold, so each request runs on the thread
//! that accepted it: requests, not matmul rows, are the unit of parallelism
//! here. A call that panics drops its handle rather than return one in an
//! unknown state.
//!
//! The engine also keeps a per-user cache of serve-time-adapted parameter
//! sets, LRU-bounded at a configurable capacity so online graduation at
//! scale cannot grow memory without limit. Adaptation is deterministic —
//! the same support set always produces the same parameters — so cache
//! entries never go stale until replaced by a newer adaptation for the same
//! user, evicted under capacity pressure (`serve.adapt_cache.evictions`),
//! or invalidated wholesale by a drift reaction
//! ([`Engine::invalidate_adapted`]). Every engine mutex is locked through
//! `lock`, which recovers a poisoned guard: the state behind each one is
//! valid between any two statements, so a panic elsewhere never takes the
//! engine down with it.
//!
//! The engine is also the serving side of the streaming feedback loop: it
//! implements [`metadpa_feedback::FeedbackSink`], so the background
//! `FeedbackAdapter` graduates users cold→warm by calling straight into
//! [`Engine::adapt_user`] and reacts to the drift alert through
//! [`Engine::invalidate_adapted`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use metadpa_core::artifact::{ArtifactError, ArtifactMeta, ArtifactRecommender, SharedArtifact};
use metadpa_feedback::FeedbackSink;
use metadpa_obs::window::QuantileDrift;
use metadpa_tensor::Matrix;

/// Windowed KS distance beyond which `serve.drift.alert` flips to 1: a
/// sup-distance of 0.25 means some training quantile's live hit rate is off
/// by 25 percentage points — far outside fingerprint sketch error.
pub const DRIFT_ALERT_THRESHOLD: f64 = 0.25;

/// Default LRU capacity of the adapted-parameter cache.
pub const DEFAULT_ADAPT_CACHE_CAPACITY: usize = 4096;

/// How many live ranking scores (at most) feed the drift tracker per
/// request; larger catalogues are stride-sampled down to this.
const DRIFT_SAMPLE_CAP: usize = 256;

/// One cached adaptation: the parameters plus its LRU recency tick.
struct CacheEntry {
    params: Arc<Vec<Matrix>>,
    tick: u64,
}

/// LRU-bounded map from user id to adapted parameters. A plain HashMap
/// with recency ticks and a linear min-scan on eviction: adaptation costs
/// milliseconds of matmuls per insert, so an O(capacity) scan on the
/// (rare) over-capacity insert is noise next to an intrusive-list LRU.
struct AdaptedCache {
    map: HashMap<usize, CacheEntry>,
    capacity: usize,
    clock: u64,
    evictions: u64,
}

impl AdaptedCache {
    fn new(capacity: usize) -> Self {
        Self { map: HashMap::new(), capacity: capacity.max(1), clock: 0, evictions: 0 }
    }

    /// Cache hit: refreshes the entry's recency and hands back the params.
    fn touch(&mut self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        self.clock += 1;
        let tick = self.clock;
        self.map.get_mut(&user).map(|e| {
            e.tick = tick;
            Arc::clone(&e.params)
        })
    }

    /// Read without touching recency (tests compare cached tensors).
    fn peek(&self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        self.map.get(&user).map(|e| Arc::clone(&e.params))
    }

    /// Inserts (or replaces) a user's adaptation, evicting the least
    /// recently used entry when a *new* user would exceed capacity.
    fn insert(&mut self, user: usize, params: Arc<Vec<Matrix>>) {
        if !self.map.contains_key(&user) && self.map.len() >= self.capacity {
            // Tie-break equal ticks on the user id: `min_by_key` over bare
            // HashMap iteration picks whichever equal-tick entry the hash
            // order yields first, which varies per process and would break
            // the bit-exact feedback-replay contract.
            if let Some(&lru) = self.map.iter().min_by_key(|(u, e)| (e.tick, **u)).map(|(u, _)| u) {
                self.map.remove(&lru);
                self.evictions += 1;
                metadpa_obs::counter_add!("serve.adapt_cache.evictions", 1);
            }
        }
        self.clock += 1;
        self.map.insert(user, CacheEntry { params, tick: self.clock });
    }

    fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        n
    }
}

/// Where a recommendation's parameters came from; reported in responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeSource {
    /// Meta-parameters θ, user known from training.
    Warm,
    /// A cached serve-time-adapted parameter set for this user.
    AdaptedCache,
    /// θ applied to request-supplied (or default) content — a user the
    /// model has never seen.
    Cold,
    /// One-shot adaptation on request-supplied content and support.
    Adapted,
}

impl ServeSource {
    /// Wire label used in response JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeSource::Warm => "warm",
            ServeSource::AdaptedCache => "adapted-cache",
            ServeSource::Cold => "cold",
            ServeSource::Adapted => "adapted",
        }
    }
}

/// Locks `m`, recovering the guard if a panicking thread poisoned it. Every
/// engine mutex guards state that is consistent between statements (a free
/// list of handles, an LRU map), so a panic in some other caller leaves
/// nothing half-written to refuse.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared inference state: the reloaded artifact, the free list of scoring
/// handles onto it, and the per-user adaptation cache.
pub struct Engine {
    shared: Arc<SharedArtifact>,
    /// Idle scoring handles; see [`Engine::with_handle`].
    handles: Mutex<Vec<ArtifactRecommender>>,
    adapted: Mutex<AdaptedCache>,
    /// Live drift tracker seeded from the artifact's training-score
    /// fingerprint; `None` for pre-fingerprint checkpoints.
    drift: Option<QuantileDrift>,
}

impl Engine {
    /// Wraps a reloaded recommender with the default adapted-cache bound.
    pub fn new(rec: ArtifactRecommender) -> Self {
        Self::with_adapt_capacity(rec, DEFAULT_ADAPT_CACHE_CAPACITY)
    }

    /// Wraps a reloaded recommender, bounding the adapted-parameter cache
    /// at `capacity` users (LRU eviction beyond that; min 1). `rec` becomes
    /// the first handle on the free list.
    pub fn with_adapt_capacity(rec: ArtifactRecommender, capacity: usize) -> Self {
        let shared = Arc::clone(rec.shared());
        let fp = &shared.meta().score_fingerprint;
        let probs: Vec<f64> = fp.probs.iter().map(|&p| p as f64).collect();
        let thresholds: Vec<f64> = fp.quantiles.iter().map(|&q| q as f64).collect();
        let drift = QuantileDrift::with_defaults(&probs, &thresholds);
        Self {
            shared,
            handles: Mutex::new(vec![rec]),
            adapted: Mutex::new(AdaptedCache::new(capacity)),
            drift,
        }
    }

    /// Runs `f` on a scoring handle of its own: an idle one from the free
    /// list, or a new one built from the shared artifact when every handle
    /// is busy. The free-list lock is held only to pop and to push. If `f`
    /// panics, the handle unwinds with it instead of going back on the
    /// list, since the panic may have struck between an adapted restore
    /// and the rewind to θ.
    fn with_handle<R>(&self, f: impl FnOnce(&mut ArtifactRecommender) -> R) -> R {
        let idle = lock(&self.handles).pop();
        let mut rec =
            idle.unwrap_or_else(|| ArtifactRecommender::from_shared(Arc::clone(&self.shared)));
        let out = f(&mut rec);
        lock(&self.handles).push(rec);
        out
    }

    /// Ranks on a handle and feeds its fresh scores into the drift window.
    fn rank(
        &self,
        f: impl FnOnce(&mut ArtifactRecommender) -> Result<Vec<(usize, f32)>, ArtifactError>,
    ) -> Result<Vec<(usize, f32)>, ArtifactError> {
        self.with_handle(|rec| {
            let list = f(rec)?;
            self.observe_drift(rec.last_scores());
            Ok(list)
        })
    }

    /// Number of idle handles on the free list — after every caller has
    /// returned, the number of handles this engine ever built.
    #[cfg(test)]
    fn idle_handles(&self) -> usize {
        lock(&self.handles).len()
    }

    /// Whether the artifact carried a training-score fingerprint to track
    /// drift against.
    pub fn tracks_drift(&self) -> bool {
        self.drift.is_some()
    }

    /// `(drift statistic, windowed sample count)` over the trailing window;
    /// `None` without a fingerprint or before the first scored request.
    pub fn drift_stat(&self) -> Option<(f64, u64)> {
        self.drift.as_ref().and_then(QuantileDrift::stat)
    }

    /// Feeds the freshest full-catalogue ranking scores into the drift
    /// window and refreshes the `serve.drift.*` gauges. Fully gated on
    /// [`metadpa_obs::enabled`]: with observability off this is one relaxed
    /// atomic load, keeping the zero-allocation serve contract intact.
    fn observe_drift(&self, scores: &[f32]) {
        if !metadpa_obs::enabled() {
            return;
        }
        let Some(drift) = &self.drift else { return };
        if scores.is_empty() {
            return;
        }
        let stride = scores.len().div_ceil(DRIFT_SAMPLE_CAP).max(1);
        drift.observe(scores.iter().step_by(stride).map(|&s| s as f64));
        if let Some((stat, _)) = drift.stat() {
            metadpa_obs::gauge_set!("serve.drift.stat", stat);
            metadpa_obs::gauge_set!(
                "serve.drift.alert",
                if stat > DRIFT_ALERT_THRESHOLD { 1.0 } else { 0.0 }
            );
        }
    }

    /// The artifact's metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        self.shared.meta()
    }

    /// Number of users the artifact knows.
    pub fn n_users(&self) -> usize {
        self.shared.n_users()
    }

    /// Catalogue size.
    pub fn n_items(&self) -> usize {
        self.shared.n_items()
    }

    /// Content vector width requests must match.
    pub fn content_dim(&self) -> usize {
        self.shared.content_dim()
    }

    /// Number of users with a cached adaptation.
    pub fn cached_adaptations(&self) -> usize {
        lock(&self.adapted).map.len()
    }

    /// How many cache entries LRU pressure has evicted so far.
    pub fn adapt_cache_evictions(&self) -> u64 {
        lock(&self.adapted).evictions
    }

    /// A user's cached adapted parameters, without touching LRU recency —
    /// the hook replay tests use to compare cache tensors bit-for-bit.
    pub fn adapted_params(&self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        lock(&self.adapted).peek(user)
    }

    /// Drops every cached adaptation (the drift reaction); returns how
    /// many entries were invalidated. Warm serving from θ is untouched.
    pub fn invalidate_adapted(&self) -> usize {
        lock(&self.adapted).clear()
    }

    /// Whether the live drift statistic is currently over
    /// [`DRIFT_ALERT_THRESHOLD`].
    pub fn drift_alerting(&self) -> bool {
        self.drift_stat().is_some_and(|(stat, _)| stat > DRIFT_ALERT_THRESHOLD)
    }

    /// Validates one implicit-feedback event against the artifact (known
    /// user, in-catalogue item, finite label) without touching any state.
    pub fn validate_feedback(
        &self,
        user: usize,
        item: usize,
        label: f32,
    ) -> Result<(), ArtifactError> {
        self.shared.validate_event(user, item, label)
    }

    fn cached(&self, user: usize) -> Option<Arc<Vec<Matrix>>> {
        lock(&self.adapted).touch(user)
    }

    /// Top-`k` for a known user id. Uses the user's cached adapted
    /// parameters when present, θ otherwise; the source says which.
    pub fn recommend_user(
        &self,
        user: usize,
        k: usize,
    ) -> Result<(Vec<(usize, f32)>, ServeSource), ArtifactError> {
        let _s = metadpa_obs::span!("engine.recommend_user");
        let params = self.cached(user);
        let source = if params.is_some() {
            metadpa_obs::counter_add!("serve.adapt_cache.hit", 1);
            ServeSource::AdaptedCache
        } else {
            metadpa_obs::counter_add!("serve.adapt_cache.miss", 1);
            ServeSource::Warm
        };
        let list = self.rank(|rec| rec.recommend(user, k, params.as_deref().map(Vec::as_slice)))?;
        Ok((list, source))
    }

    /// Top-`k` for a raw content vector (cold user, no support set).
    pub fn recommend_content(
        &self,
        content: &[f32],
        k: usize,
    ) -> Result<Vec<(usize, f32)>, ArtifactError> {
        let _s = metadpa_obs::span!("engine.recommend_content");
        self.rank(|rec| rec.recommend_content(content, k, None))
    }

    /// Top-`k` for a cold request carrying no content at all: scores the
    /// "average user" vector (column mean of the training user content,
    /// computed once at reload).
    pub fn recommend_cold_default(&self, k: usize) -> Result<Vec<(usize, f32)>, ArtifactError> {
        let _s = metadpa_obs::span!("engine.recommend_cold");
        self.rank(|rec| rec.recommend_content(self.shared.mean_user_content(), k, None))
    }

    /// Runs the serve-time MAML inner loop on a known user's support set
    /// and caches the adapted parameters; subsequent
    /// [`Engine::recommend_user`] calls for this user serve from the cache.
    /// Returns the cache size after insertion.
    pub fn adapt_user(
        &self,
        user: usize,
        support: &[(usize, f32)],
    ) -> Result<usize, ArtifactError> {
        let _s = metadpa_obs::span!("engine.adapt_user");
        let adapted = self.with_handle(|rec| rec.adapt_user(user, support))?;
        metadpa_obs::counter_add!("serve.adaptations", 1);
        let mut cache = lock(&self.adapted);
        cache.insert(user, Arc::new(adapted));
        Ok(cache.map.len())
    }

    /// One-shot adaptation for a brand-new user: adapts on the supplied
    /// content + support and immediately returns the adapted top-`k`
    /// (nothing is cached — there is no user id to key on).
    pub fn adapt_and_recommend_content(
        &self,
        content: &[f32],
        support: &[(usize, f32)],
        k: usize,
    ) -> Result<Vec<(usize, f32)>, ArtifactError> {
        let _s = metadpa_obs::span!("engine.adapt_content");
        self.rank(|rec| {
            let adapted = rec.adapt_content(content, support)?;
            metadpa_obs::counter_add!("serve.adaptations", 1);
            rec.recommend_content(content, k, Some(&adapted))
        })
    }

    /// Drops a user's cached adaptation; returns whether one existed.
    pub fn evict(&self, user: usize) -> bool {
        lock(&self.adapted).map.remove(&user).is_some()
    }
}

/// The serving side of the streaming feedback loop: the background
/// `FeedbackAdapter` graduates users by re-running the trained MAML inner
/// loop through [`Engine::adapt_user`] (installing into the same LRU cache
/// `/v1/adapt` uses) and reacts to the drift alert by invalidating it.
impl FeedbackSink for Engine {
    fn graduate(&self, user: usize, support: &[(usize, f32)], _first: bool) -> Result<(), String> {
        self.adapt_user(user, support).map(|_| ()).map_err(|e| e.to_string())
    }

    fn drift_alert(&self) -> bool {
        self.drift_alerting()
    }

    fn invalidate_adapted(&self) -> usize {
        Engine::invalidate_adapted(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadpa_core::artifact::artifact_from_learner;
    use metadpa_core::augmentation::DiversityReport;
    use metadpa_core::{MamlConfig, MetaLearner, PreferenceConfig};
    use metadpa_tensor::SeededRng;

    fn tiny_rec(seed: u64) -> ArtifactRecommender {
        rec_with(seed, 4, 9)
    }

    fn rec_with(seed: u64, n_users: usize, n_items: usize) -> ArtifactRecommender {
        let pref = PreferenceConfig { content_dim: 6, embed_dim: 5, hidden: [8, 4] };
        let maml = MamlConfig { finetune_steps: 2, ..MamlConfig::default() };
        let mut rng = SeededRng::new(seed);
        let mut learner = MetaLearner::new(pref, maml, &mut rng);
        let user_content = rng.uniform_matrix(n_users, 6, -1.0, 1.0);
        let item_content = rng.uniform_matrix(n_items, 6, -1.0, 1.0);
        let artifact = artifact_from_learner(
            &mut learner,
            "unit",
            "rev".into(),
            "fp".into(),
            DiversityReport::default(),
            user_content,
            item_content,
            String::new(),
        );
        artifact.into_recommender().expect("valid artifact")
    }

    fn tiny_engine(seed: u64) -> Engine {
        Engine::new(tiny_rec(seed))
    }

    #[test]
    fn warm_then_adapted_cache_switches_source() {
        let engine = tiny_engine(21);
        let (warm, source) = engine.recommend_user(2, 4).expect("warm");
        assert_eq!(source, ServeSource::Warm);
        assert_eq!(warm.len(), 4);
        assert_eq!(engine.cached_adaptations(), 0);

        let cached = engine.adapt_user(2, &[(0, 1.0), (5, 0.0)]).expect("adapt");
        assert_eq!(cached, 1);
        let (adapted, source) = engine.recommend_user(2, 4).expect("adapted");
        assert_eq!(source, ServeSource::AdaptedCache);
        assert_ne!(adapted, warm, "adaptation must change the scores");

        // Other users still serve warm; eviction restores warm serving.
        let (_, source) = engine.recommend_user(0, 4).expect("other user");
        assert_eq!(source, ServeSource::Warm);
        assert!(engine.evict(2));
        let (back, source) = engine.recommend_user(2, 4).expect("after evict");
        assert_eq!(source, ServeSource::Warm);
        assert_eq!(back, warm, "θ was never touched");
    }

    #[test]
    fn cold_paths_score_without_a_user_id() {
        let engine = tiny_engine(22);
        let by_mean = engine.recommend_cold_default(3).expect("default cold");
        assert_eq!(by_mean.len(), 3);
        let content = vec![0.25f32; 6];
        let cold = engine.recommend_content(&content, 3).expect("content cold");
        let adapted = engine
            .adapt_and_recommend_content(&content, &[(1, 1.0), (2, 0.0)], 3)
            .expect("one-shot adapt");
        assert_ne!(cold, adapted, "support must influence the adapted list");
        assert_eq!(engine.cached_adaptations(), 0, "content adaptation is not cached");
    }

    #[test]
    fn serving_is_bit_identical_across_thread_counts() {
        // The serve scoring path inherits the pool's determinism contract:
        // the same request must produce bit-identical scores no matter how
        // many threads the matmul kernels fan out across.
        let serial = {
            let engine = tiny_engine(24);
            metadpa_tensor::pool::with_threads(1, || engine.recommend_user(1, 5).expect("serial").0)
        };
        for threads in [2, 7] {
            let engine = tiny_engine(24);
            let par = metadpa_tensor::pool::with_threads(threads, || {
                engine.recommend_user(1, 5).expect("parallel").0
            });
            assert_eq!(par.len(), serial.len());
            for ((i_s, s), (i_p, p)) in serial.iter().zip(&par) {
                assert_eq!(i_s, i_p, "item order drift at threads={threads}");
                assert_eq!(s.to_bits(), p.to_bits(), "score drift at threads={threads}");
            }
        }
    }

    #[test]
    fn drift_tracker_follows_the_fingerprint_and_stays_quiet_on_distribution() {
        let engine = tiny_engine(25);
        assert!(engine.tracks_drift(), "export stamps a fingerprint");
        assert!(engine.drift_stat().is_none(), "no scores observed yet");

        // With observability off, scoring must not feed the tracker.
        engine.recommend_user(0, 3).expect("obs-off recommend");
        assert!(engine.drift_stat().is_none(), "drift is obs-gated");

        let _obs = metadpa_obs::test_lock();
        metadpa_obs::enable(Arc::new(metadpa_obs::NullRecorder));
        metadpa_obs::metrics::reset();
        // Score every training user: the live window then holds the same
        // score population the export-time fingerprint sketched.
        for user in 0..engine.n_users() {
            engine.recommend_user(user, 3).expect("warm recommend");
        }
        let (stat, n) = engine.drift_stat().expect("windowed scores present");
        assert_eq!(n as usize, engine.n_users() * engine.n_items(), "one score per pair");
        assert!((0.0..=1.0).contains(&stat), "KS distance in [0,1], got {stat}");
        // Live warm scores come from the distribution the fingerprint
        // sketched, so the alert gauge must stay down.
        assert!(stat < DRIFT_ALERT_THRESHOLD, "on-distribution scores, got {stat}");
        metadpa_obs::disable();
    }

    #[test]
    fn adapted_cache_is_lru_bounded_and_bulk_invalidatable() {
        let engine = Engine::with_adapt_capacity(tiny_rec(26), 2);
        let support = [(0usize, 1.0f32), (5, 0.0)];
        engine.adapt_user(0, &support).expect("adapt 0");
        engine.adapt_user(1, &support).expect("adapt 1");
        assert_eq!(engine.cached_adaptations(), 2);
        assert_eq!(engine.adapt_cache_evictions(), 0);

        // Touch user 0 so user 1 becomes least-recently-used, then overflow.
        engine.recommend_user(0, 3).expect("touch 0");
        engine.adapt_user(2, &support).expect("adapt 2 evicts 1");
        assert_eq!(engine.cached_adaptations(), 2, "capacity is a hard bound");
        assert_eq!(engine.adapt_cache_evictions(), 1);
        assert!(engine.adapted_params(1).is_none(), "LRU entry evicted");
        assert!(engine.adapted_params(0).is_some(), "recently used entry survives");
        assert!(engine.adapted_params(2).is_some(), "new entry installed");

        // Re-adapting a resident user must not evict anyone.
        engine.adapt_user(0, &support).expect("refresh 0");
        assert_eq!(engine.adapt_cache_evictions(), 1, "refresh is not an eviction");

        assert_eq!(engine.invalidate_adapted(), 2);
        assert_eq!(engine.cached_adaptations(), 0);
        let (_, source) = engine.recommend_user(0, 3).expect("after invalidate");
        assert_eq!(source, ServeSource::Warm);
    }

    #[test]
    fn adapted_cache_evicts_equal_ticks_deterministically() {
        // Regression: the eviction scan used `min_by_key` on tick alone, so
        // equal-tick entries were evicted in HashMap iteration order —
        // different per process, breaking bit-exact feedback replay. The
        // tie now breaks on the smaller user id, every time.
        for _ in 0..8 {
            let mut cache = AdaptedCache::new(3);
            let params = Arc::new(Vec::new());
            for user in [7usize, 2, 9] {
                cache.insert(user, Arc::clone(&params));
            }
            // Force the degenerate equal-tick state directly (the public
            // API hands out unique ticks; replay of a truncated log or a
            // clock reset can still collide).
            for e in cache.map.values_mut() {
                e.tick = 5;
            }
            cache.insert(11, Arc::clone(&params));
            assert!(cache.peek(2).is_none(), "smallest equal-tick user is the victim");
            assert!(cache.peek(7).is_some());
            assert!(cache.peek(9).is_some());
            assert!(cache.peek(11).is_some());
            assert_eq!(cache.evictions, 1);
        }

        // With distinct ticks the tie-break never engages: plain LRU.
        let mut cache = AdaptedCache::new(2);
        let params = Arc::new(Vec::new());
        cache.insert(5, Arc::clone(&params));
        cache.insert(1, Arc::clone(&params));
        cache.touch(5);
        cache.insert(3, params);
        assert!(cache.peek(1).is_none(), "oldest tick evicted even with a larger-id peer");
        assert!(cache.peek(5).is_some());
    }

    #[test]
    fn feedback_sink_graduation_installs_adapted_params() {
        // Drift is only observed while observability is on; hold the obs
        // lock so another test enabling it cannot feed this engine's
        // drift window mid-test.
        let _obs = metadpa_obs::test_lock();
        let engine = tiny_engine(27);
        let sink: &dyn FeedbackSink = &engine;
        sink.graduate(1, &[(0, 1.0), (3, 0.0), (4, 1.0)], true).expect("graduate");
        assert_eq!(engine.cached_adaptations(), 1);
        let (_, source) = engine.recommend_user(1, 3).expect("serve graduated user");
        assert_eq!(source, ServeSource::AdaptedCache);
        assert!(!sink.drift_alert(), "no drift observed yet");
        assert_eq!(sink.invalidate_adapted(), 1);
        assert_eq!(engine.cached_adaptations(), 0);

        let err = sink.graduate(99, &[(0, 1.0)], true).expect_err("bad user");
        assert!(err.contains("99"), "error carries the offending user: {err}");
    }

    fn list_bits(list: &[(usize, f32)]) -> Vec<(usize, u32)> {
        list.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn concurrent_callers_match_a_serial_single_handle_reference() {
        // 300 items: every ranking spans a 256-row block boundary. Users
        // 0..4 are adapted before the threads start (adapted-cache reads),
        // users 4..8 are adapted by the threads themselves, and users 8..12
        // only ever read θ, so every call has one correct answer however the
        // threads interleave.
        const K: usize = 7;
        const THREADS: usize = 4;
        let support = |u: usize| vec![(u * 3 % 300, 1.0f32), ((u * 7 + 11) % 300, 0.0)];
        let content = |c: usize| (0..6).map(|j| 0.1 * (c + j) as f32 - 0.4).collect::<Vec<f32>>();

        let mut reference = rec_with(41, 12, 300);
        let adapted: Vec<Vec<Matrix>> = (0..8)
            .map(|u| reference.adapt_user(u, &support(u)).expect("reference adapt"))
            .collect();
        let warm: Vec<_> =
            (0..12).map(|u| reference.recommend(u, K, None).expect("warm")).collect();
        let from_cache: Vec<_> = (0..4)
            .map(|u| reference.recommend(u, K, Some(&adapted[u])).expect("adapted"))
            .collect();
        let cold: Vec<_> = (0..3)
            .map(|c| reference.recommend_content(&content(c), K, None).expect("cold"))
            .collect();
        let one_shot: Vec<_> = (0..3)
            .map(|c| {
                let p = reference.adapt_content(&content(c), &support(c)).expect("adapt content");
                reference.recommend_content(&content(c), K, Some(&p)).expect("one-shot")
            })
            .collect();

        let engine = Engine::new(rec_with(41, 12, 300));
        for u in 0..4 {
            engine.adapt_user(u, &support(u)).expect("pre-adapt");
        }
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (engine, barrier) = (&engine, &barrier);
                let (warm, from_cache, cold, one_shot) = (&warm, &from_cache, &cold, &one_shot);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..24 {
                        let c = (t + i) % 3;
                        match (t + i) % 5 {
                            0 => {
                                let u = (t + i) % 4;
                                let (list, source) = engine.recommend_user(u, K).expect("cached");
                                assert_eq!(source, ServeSource::AdaptedCache);
                                assert_eq!(list_bits(&list), list_bits(&from_cache[u]), "user {u}");
                            }
                            1 => {
                                let u = 8 + (t + i) % 4;
                                let (list, source) = engine.recommend_user(u, K).expect("warm");
                                assert_eq!(source, ServeSource::Warm);
                                assert_eq!(list_bits(&list), list_bits(&warm[u]), "user {u}");
                            }
                            2 => {
                                let list = engine.recommend_content(&content(c), K).expect("cold");
                                assert_eq!(list_bits(&list), list_bits(&cold[c]), "content {c}");
                            }
                            3 => {
                                let list = engine
                                    .adapt_and_recommend_content(&content(c), &support(c), K)
                                    .expect("one-shot");
                                assert_eq!(
                                    list_bits(&list),
                                    list_bits(&one_shot[c]),
                                    "content {c}"
                                );
                            }
                            _ => {
                                let u = 4 + (t + i) % 4;
                                engine.adapt_user(u, &support(u)).expect("adapt");
                            }
                        }
                    }
                });
            }
        });
        for (u, want) in adapted.iter().enumerate().skip(4) {
            let got = engine.adapted_params(u).expect("adapted by a thread");
            assert_eq!(*got, *want, "user {u}'s cached parameters");
        }
        let handles = engine.idle_handles();
        assert!((1..=THREADS).contains(&handles), "{handles} handles for {THREADS} callers");
    }

    #[test]
    fn a_panicking_caller_drops_its_handle() {
        let engine = tiny_engine(29);
        let want = engine.recommend_user(1, 4).expect("before").0;
        assert_eq!(engine.idle_handles(), 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.with_handle(|_| panic!("caller panics mid-request"))
        }));
        assert!(caught.is_err());
        assert_eq!(engine.idle_handles(), 0, "the panicking caller's handle is not reused");
        assert_eq!(engine.recommend_user(1, 4).expect("after").0, want, "a fresh handle serves");
        assert_eq!(engine.idle_handles(), 1);
    }

    #[test]
    fn poisoned_locks_do_not_take_the_engine_down() {
        let engine = tiny_engine(28);
        let want = engine.recommend_user(1, 4).expect("before").0;
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _cache = engine.adapted.lock().unwrap();
                let _handles = engine.handles.lock().unwrap();
                panic!("poison both engine locks");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(engine.adapted.is_poisoned() && engine.handles.is_poisoned());

        let (list, source) = engine.recommend_user(1, 4).expect("recommend after poisoning");
        assert_eq!((list, source), (want, ServeSource::Warm));
        assert_eq!(engine.adapt_user(1, &[(0, 1.0), (5, 0.0)]).expect("adapt"), 1);
        assert_eq!(engine.cached_adaptations(), 1);
        let (_, source) = engine.recommend_user(1, 4).expect("adapted after poisoning");
        assert_eq!(source, ServeSource::AdaptedCache);
    }

    #[test]
    fn request_errors_pass_through_typed() {
        let engine = tiny_engine(23);
        assert!(matches!(
            engine.recommend_user(99, 3),
            Err(ArtifactError::UserOutOfRange { user: 99, n_users: 4 })
        ));
        assert!(matches!(engine.adapt_user(0, &[]), Err(ArtifactError::EmptySupport)));
    }
}
