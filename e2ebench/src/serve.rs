//! The serving half of a workload: an in-process server with its default
//! `ServerConfig` on an ephemeral port, driven by a closed loop of
//! [`CLIENTS`] clients; plus direct-call probes of the layers below the
//! transport.
//!
//! Closed loop, because the callers of a recommender are app servers that
//! wait for each reply; a two-thread open-loop generator on a two-CPU host
//! cannot absorb a stall, so its tail measures the generator.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use metadpa_core::{Artifact, ArtifactRecommender};
use metadpa_feedback::{
    expected_outcome, read_log, AdapterConfig, FeedbackAdapter, FeedbackLog, GraduationConfig,
};
use metadpa_obs::json::{self, JsonValue};
use metadpa_obs::recorder::RotatingFileRecorder;
use metadpa_serve::http::{serve, Handler, Request, ServerConfig};
use metadpa_serve::{router_with_feedback, Engine};

use crate::checks::{check_ranking, parse_ranking, same_ranking, Ranked};
use crate::host::{host_jiffies, least_stolen, steal_share, QUIET_STEAL};
use crate::stats::{bucket, mean, median, quantile};
use crate::trace::Tracer;
use crate::train::K;
use crate::MAX_STRETCH;

/// Concurrent closed-loop clients (one per CPU of the reference host).
const CLIENTS: usize = 2;
/// Share of recommend requests that name a known user; the rest are cold
/// content requests.
const WARM_SHARE: f64 = 0.8;
/// Users that send feedback in serve-feedback.
const HOT_USERS: usize = 16;
/// Share of warm reads aimed at the hot set, so adapted-cache hits occur.
const HOT_READ_SHARE: f64 = 0.25;
/// Feedback events after which a user graduates.
const GRADUATION_THRESHOLD: usize = 3;
/// One request in this many is kept for the direct-ranking comparison.
const SAMPLE_EVERY: u64 = 31;
/// Cap on kept samples per client.
const MAX_SAMPLES: usize = 200;
/// Direct calls per probe.
const PROBE_CALLS: usize = 400;
/// Direct `Engine::adapt_user` calls in the adapt probe.
const ADAPT_CALLS: usize = 24;
/// Target length of the slices a window is measured in. Throughput and
/// latency quantiles are medians over the least-stolen slices (see
/// [`crate::host::QUIET_STEAL`]), so a host stall does not move them.
const SLICE_S: f64 = 1.0;
/// How long the feedback adapter may take to drain the log.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// SplitMix64: a small seeded stream for traffic, independent of the
/// program's own RNG.
struct Mix(u64);

impl Mix {
    /// A stream from `seed`.
    fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One generated request.
#[derive(Clone, Debug)]
enum Req {
    Warm { user: usize, hot: bool },
    Cold { content: String },
    Feedback { user: usize, item: usize, label: f32 },
}

/// The request mix of one workload against one artifact.
struct Traffic {
    n_users: usize,
    n_items: usize,
    content_dim: usize,
    feedback_frac: f64,
    hot: Vec<usize>,
}

impl Traffic {
    /// The mix against an engine's catalogue; the hot set is drawn from
    /// `seed`.
    fn new(engine: &Engine, feedback_frac: f64, seed: u64) -> Traffic {
        let n_users = engine.n_users();
        let mut rng = Mix::new(seed ^ 0x407);
        let mut hot = Vec::new();
        while hot.len() < HOT_USERS.min(n_users) {
            let u = rng.below(n_users);
            if !hot.contains(&u) {
                hot.push(u);
            }
        }
        Traffic {
            n_users,
            n_items: engine.n_items(),
            content_dim: engine.content_dim(),
            feedback_frac,
            hot,
        }
    }

    fn next(&self, rng: &mut Mix) -> Req {
        let feedback = self.feedback_frac > 0.0;
        if feedback && rng.unit() < self.feedback_frac {
            let user = self.hot[rng.below(self.hot.len())];
            let item = rng.below(self.n_items);
            let label = (rng.next() % 2) as f32;
            return Req::Feedback { user, item, label };
        }
        if rng.unit() < WARM_SHARE {
            if feedback && rng.unit() < HOT_READ_SHARE {
                return Req::Warm { user: self.hot[rng.below(self.hot.len())], hot: true };
            }
            return Req::Warm { user: rng.below(self.n_users), hot: false };
        }
        let content: Vec<String> =
            (0..self.content_dim).map(|_| format!("{:.4}", rng.unit() * 2.0 - 1.0)).collect();
        Req::Cold { content: format!("[{}]", content.join(",")) }
    }
}

fn request(req: &Req, rid: u64) -> (&'static str, String) {
    match req {
        Req::Warm { user, .. } => {
            ("/v1/recommend", format!(r#"{{"rid":{rid},"user_id":{user},"k":{K}}}"#))
        }
        Req::Cold { content } => {
            ("/v1/recommend", format!(r#"{{"rid":{rid},"content":{content},"k":{K}}}"#))
        }
        Req::Feedback { user, item, label } => (
            "/v1/feedback",
            format!(r#"{{"rid":{rid},"user_id":{user},"item_id":{item},"label":{label:.1}}}"#),
        ),
    }
}

/// The request id a benchmark request body carries (0 when absent).
fn rid_of(body: &[u8]) -> u64 {
    const KEY: &[u8] = b"\"rid\":";
    body.windows(KEY.len())
        .position(|w| w == KEY)
        .map(|at| {
            body[at + KEY.len()..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
        })
        .unwrap_or(0)
}

/// One request over a fresh connection; `(status, body)` or a transport
/// error.
fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: e2ebench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes())?;
    let mut out = String::new();
    s.read_to_string(&mut out)?;
    let status = out.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
    let body = out.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

/// Requests sent, succeeded and failed in one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Requests sent.
    pub sent: u64,
    /// 200 responses.
    pub ok: u64,
    /// Non-200 responses and transport errors.
    pub failed: u64,
}

#[derive(Default)]
struct ClientOut {
    /// `(completion second within the window, client latency in ms)`;
    /// failed requests count as infinitely slow. Kept as f32 so the
    /// benchmark's own log adds little to the process's peak RSS.
    lat: Vec<(f32, f32)>,
    counts: Counts,
    feedback_ok: u64,
    hot_reads: u64,
    hot_hits: u64,
    errors: Vec<String>,
    samples: Vec<(String, Ranked)>,
}

fn run_client(
    addr: SocketAddr,
    traffic: &Traffic,
    seed: u64,
    client: u64,
    start: Instant,
    stop: &AtomicBool,
    trace: Option<(&Tracer, u64)>,
) -> ClientOut {
    let mut rng = Mix::new(seed);
    let mut out = ClientOut::default();
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let req = traffic.next(&mut rng);
        n += 1;
        let rid = n * CLIENTS as u64 + client;
        let (path, body) = request(&req, rid);
        let sent = Instant::now();
        let result = post(addr, path, &body);
        let end = Instant::now();
        if let Some((tr, parent)) = trace {
            tr.record("http.request", parent, rid, sent, end);
        }
        out.counts.sent += 1;
        let done_s = (end - start).as_secs_f64();
        let resp = match result {
            Ok((200, resp)) => resp,
            Ok((status, resp)) => {
                out.fail(done_s, format!("{path} returned {status}: {}", resp.trim()));
                continue;
            }
            Err(e) => {
                out.fail(done_s, format!("{path}: transport error: {e}"));
                continue;
            }
        };
        out.counts.ok += 1;
        out.lat.push((done_s as f32, (end - sent).as_secs_f32() * 1e3));
        match req {
            Req::Feedback { .. } => out.feedback_ok += 1,
            Req::Warm { hot, .. } => {
                let Some(r) = out.check(&resp, traffic.n_items, &["warm", "adapted-cache"]) else {
                    continue;
                };
                if hot {
                    out.hot_reads += 1;
                    out.hot_hits += u64::from(r.source == "adapted-cache");
                }
                out.keep(rid, body, r);
            }
            Req::Cold { .. } => {
                if let Some(r) = out.check(&resp, traffic.n_items, &["cold"]) {
                    out.keep(rid, body, r);
                }
            }
        }
    }
    out
}

impl ClientOut {
    fn fail(&mut self, done_s: f64, why: String) {
        self.counts.failed += 1;
        self.lat.push((done_s as f32, f32::INFINITY));
        if self.errors.len() < 4 {
            self.errors.push(why);
        }
    }

    fn check(&mut self, resp: &str, n_items: usize, sources: &[&str]) -> Option<Ranked> {
        let checked = parse_ranking(resp).and_then(|r| {
            check_ranking(&r, K, n_items)?;
            if !sources.contains(&r.source.as_str()) {
                return Err(format!("unexpected source {:?}", r.source));
            }
            Ok(r)
        });
        match checked {
            Ok(r) => Some(r),
            Err(e) => {
                if self.errors.len() < 4 {
                    self.errors.push(format!("bad ranking: {e}"));
                }
                None
            }
        }
    }

    fn keep(&mut self, rid: u64, body: String, r: Ranked) {
        if rid.is_multiple_of(SAMPLE_EVERY) && self.samples.len() < MAX_SAMPLES {
            self.samples.push((body, r));
        }
    }
}

/// What the feedback side of a window did.
#[derive(Debug, Default)]
pub struct FeedbackOut {
    /// Appended minus processed when the load stopped.
    pub backlog: u64,
    /// Time `wait_for_seq` took to drain the rest.
    pub drain_ms: f64,
    /// First-time graduations the adapter performed.
    pub graduations: u64,
    /// Post-graduation refreshes the adapter performed.
    pub refreshes: u64,
}

/// One measurement slice of a window.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// End of the slice, seconds from the window start.
    pub end_s: f64,
    /// Host steal share during the slice.
    pub steal: f64,
}

/// One measured load window.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time from the first request to the last reply.
    pub elapsed_s: f64,
    /// Consecutive measurement slices from the window start.
    pub slices: Vec<Slice>,
    /// How many slices the figures are taken over: `--seconds` worth.
    pub quota: usize,
    /// `(completion second, client latency in ms)` of every request;
    /// failed requests count as infinitely slow.
    pub lat: Vec<(f32, f32)>,
    /// Request counts.
    pub counts: Counts,
    /// Warm reads aimed at the hot set, and how many hit the adapted cache.
    pub hot: (u64, u64),
    /// Sampled responses compared bit for bit with a direct ranking.
    pub verified: usize,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Feedback side, when the workload writes feedback.
    pub feedback: Option<FeedbackOut>,
    /// Allocations made during the load (only counted when profiling).
    pub allocs: u64,
}

impl Window {
    /// Latencies of the slices the figures are taken over, the `quota`
    /// least-stolen ones. Each entry is `(seconds, ms)`.
    fn measured(&self) -> Vec<(f64, Vec<f64>)> {
        let steal: Vec<f64> = self.slices.iter().map(|s| s.steal).collect();
        let keep = least_stolen(&steal, self.quota);
        let per_slice = self.per_slice();
        keep.into_iter()
            .map(|i| {
                let start = if i == 0 { 0.0 } else { self.slices[i - 1].end_s };
                (self.slices[i].end_s - start, per_slice[i].clone())
            })
            .collect()
    }

    /// Latencies of every slice, in order.
    pub fn per_slice(&self) -> Vec<Vec<f64>> {
        let ends: Vec<f64> = self.slices.iter().map(|s| s.end_s).collect();
        bucket(&self.lat, &ends)
    }

    /// Median over measured slices of successful requests per second.
    pub fn throughput(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .measured()
            .iter()
            .map(|(len, lat)| lat.iter().filter(|v| v.is_finite()).count() as f64 / len)
            .collect();
        median(&per_slice)
    }

    /// Median over measured slices of each slice's latency quantile `q`, ms.
    pub fn latency(&self, q: f64) -> f64 {
        let per_slice: Vec<f64> = self.measured().iter().map(|(_, lat)| quantile(lat, q)).collect();
        median(&per_slice)
    }

    /// Slices left out for host steal.
    pub fn noisy_slices(&self) -> usize {
        self.slices.len().saturating_sub(self.quota)
    }
}

/// Samples host steal at each slice boundary until the window holds
/// `secs` of quiet slices or has run `MAX_STRETCH × secs`, then raises
/// `stop`. Returns the slices and how many of them make `secs`.
fn sample_slices(start: Instant, secs: f64, stop: &AtomicBool) -> (Vec<Slice>, usize) {
    let target = ((secs / SLICE_S).round() as usize).max(1);
    let len = secs / target as f64;
    let cap = MAX_STRETCH * target;
    let mut prev = host_jiffies();
    let mut out: Vec<Slice> = Vec::new();
    loop {
        let due = start + Duration::from_secs_f64(len * (out.len() + 1) as f64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let now = host_jiffies();
        // The real boundary, so per-slice rates use the time actually spent.
        let end_s = start.elapsed().as_secs_f64();
        out.push(Slice { end_s, steal: steal_share(prev, now) });
        prev = now;
        if out.iter().filter(|s| s.steal <= QUIET_STEAL).count() >= target || out.len() >= cap {
            stop.store(true, Ordering::Relaxed);
            return (out, target);
        }
    }
}

/// Everything a window needs besides its length.
pub struct ServeCtx<'a> {
    /// The loaded artifact each window's engine is built from.
    pub artifact: &'a Artifact,
    /// Share of feedback writes.
    pub feedback_frac: f64,
    /// Workload seed.
    pub seed: u64,
    /// Scratch directory for feedback logs.
    pub dir: &'a Path,
}

impl ServeCtx<'_> {
    fn recommender(&self) -> Result<ArtifactRecommender, String> {
        self.artifact.clone().into_recommender().map_err(|e| format!("into_recommender: {e}"))
    }
}

/// Wraps the router so each call records a `router.handler` span.
fn traced_handler(inner: Handler, tracer: Arc<Tracer>) -> Handler {
    Arc::new(move |req: &Request| {
        let start = Instant::now();
        let resp = inner(req);
        tracer.record("router.handler", 0, rid_of(&req.body), start, Instant::now());
        resp
    })
}

/// Runs one closed-loop window of `secs` seconds, stretched while the host
/// steals (see [`sample_slices`]), against a fresh engine (and, for feedback
/// workloads, a fresh log and adapter). `index` keeps
/// the traffic of successive windows distinct. With a tracer, every
/// request and handler call becomes a span under `parent`.
pub fn run_window(
    ctx: &ServeCtx,
    secs: f64,
    index: u64,
    trace: Option<(&Arc<Tracer>, u64)>,
) -> Result<Window, String> {
    let engine = Arc::new(Engine::new(ctx.recommender()?));
    let traffic = Traffic::new(&engine, ctx.feedback_frac, ctx.seed);
    let log = if ctx.feedback_frac > 0.0 {
        let log = FeedbackLog::create(
            ctx.dir.join(format!("feedback-{index}.jsonl")),
            &engine.meta().run_id,
            RotatingFileRecorder::DEFAULT_MAX_BYTES,
        )
        .map_err(|e| format!("feedback log: {e}"))?;
        Some(Arc::new(log))
    } else {
        None
    };
    let mut handler = router_with_feedback(Arc::clone(&engine), log.clone());
    if let Some((tr, _)) = trace {
        handler = traced_handler(handler, Arc::clone(tr));
    }
    let server = serve(ServerConfig::default(), handler).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let graduation = GraduationConfig::with_threshold(GRADUATION_THRESHOLD);
    let adapter = log.as_ref().map(|log| {
        let cfg = AdapterConfig { graduation, poll_interval: Duration::from_millis(5) };
        FeedbackAdapter::spawn(log.path(), cfg, Arc::clone(&engine) as _)
    });

    let alloc_before = metadpa_obs::alloc::snapshot();
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let client_trace = trace.map(|(tr, parent)| (tr.as_ref(), parent));
    let (outs, (slices, quota)): (Vec<ClientOut>, _) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let seed = ctx.seed.wrapping_mul(0x9E37_79B9).wrapping_add(index * 16 + c);
                let (traffic, stop) = (&traffic, &stop);
                s.spawn(move || run_client(addr, traffic, seed, c, start, stop, client_trace))
            })
            .collect();
        let slices = sample_slices(start, secs, &stop);
        (joins.into_iter().map(|j| j.join().expect("client thread panicked")).collect(), slices)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let allocs = metadpa_obs::alloc::snapshot().alloc_count - alloc_before.alloc_count;

    let mut w = Window { elapsed_s, slices, quota, allocs, ..Window::default() };
    let mut samples = Vec::new();
    let mut feedback_ok = 0;
    for mut o in outs {
        w.lat.append(&mut o.lat);
        w.counts.sent += o.counts.sent;
        w.counts.ok += o.counts.ok;
        w.counts.failed += o.counts.failed;
        w.hot.0 += o.hot_reads;
        w.hot.1 += o.hot_hits;
        w.errors.extend(o.errors);
        samples.extend(o.samples);
        feedback_ok += o.feedback_ok;
    }

    if let (Some(log), Some(adapter)) = (&log, adapter) {
        let appended = log.appended();
        let backlog = appended.saturating_sub(adapter.stats().processed());
        log.flush();
        let t = Instant::now();
        let drained = adapter.wait_for_seq(appended, DRAIN_TIMEOUT);
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        server.shutdown();
        let stats = adapter.stop();
        if !drained {
            w.errors.push(format!("adapter did not drain {appended} events in {DRAIN_TIMEOUT:?}"));
        }
        if stats.adapt_errors() > 0 {
            w.errors.push(format!("{} adaptations failed", stats.adapt_errors()));
        }
        let read = read_log(log.path())?;
        if !read.interior_errors.is_empty() {
            w.errors.push(format!("feedback log corrupt: {:?}", read.interior_errors));
        }
        if read.events.len() as u64 != feedback_ok {
            w.errors.push(format!(
                "{feedback_ok} feedback writes succeeded but the log holds {}",
                read.events.len()
            ));
        }
        let expected = expected_outcome(&read.events, graduation);
        if (stats.graduations(), stats.refreshes()) != (expected.graduations, expected.refreshes) {
            w.errors.push(format!(
                "adapter made {} graduations and {} refreshes; the log implies {} and {}",
                stats.graduations(),
                stats.refreshes(),
                expected.graduations,
                expected.refreshes
            ));
        }
        w.feedback = Some(FeedbackOut {
            backlog,
            drain_ms,
            graduations: stats.graduations(),
            refreshes: stats.refreshes(),
        });
    } else {
        server.shutdown();
    }

    let mut direct = ctx.recommender()?;
    let comparable = samples.iter().filter(|(_, r)| r.source != "adapted-cache").count();
    if comparable == 0 {
        w.errors.push("no served ranking was sampled for the direct comparison".into());
    }
    for (body, served) in &samples {
        if served.source == "adapted-cache" {
            continue; // served from per-user adapted parameters, not θ
        }
        let result = direct_rank(&mut direct, body).and_then(|d| same_ranking(served, &d));
        match result {
            Ok(()) => w.verified += 1,
            Err(e) => w.errors.push(format!("served ranking differs from direct: {e}")),
        }
    }
    Ok(w)
}

/// Decodes a request body the way the server does and ranks it directly.
fn direct_rank(rec: &mut ArtifactRecommender, body: &str) -> Result<Vec<(usize, f32)>, String> {
    let v = json::parse(body).map_err(|e| format!("request body: {e:?}"))?;
    let ranked = if let Some(user) = v.get("user_id").and_then(JsonValue::as_u64) {
        rec.recommend(user as usize, K, None)
    } else {
        let content = v.get("content").ok_or("request has neither user_id nor content")?;
        rec.recommend_content(&content_values(content)?, K, None)
    };
    ranked.map_err(|e| format!("direct ranking: {e}"))
}

/// Medians of the direct-call probes, µs.
#[derive(Debug, Default)]
pub struct Probes {
    /// `ArtifactRecommender::recommend`/`recommend_content`.
    pub rank_us: f64,
    /// `Engine::recommend_user`/`recommend_content`, one caller.
    pub call_us: f64,
    /// Mean latency of the same call from two concurrent callers, minus
    /// the one-caller mean.
    pub lock_wait_us: f64,
    /// `Engine::adapt_user` on a three-event support set.
    pub adapt_us: f64,
    /// `FeedbackLog::append`.
    pub append_us: f64,
}

enum Direct {
    User(usize),
    Content(Vec<f32>),
}

fn timed_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

fn engine_call(engine: &Engine, req: &Direct) -> f64 {
    timed_us(|| {
        let ok = match req {
            Direct::User(u) => engine.recommend_user(*u, K).is_ok(),
            Direct::Content(c) => engine.recommend_content(c, K).is_ok(),
        };
        assert!(ok, "probe request rejected by the engine");
    })
}

/// Times direct calls into the layers under the transport, each on its own
/// engine so the served engine's caches are untouched.
pub fn run_probes(ctx: &ServeCtx, tracer: &Tracer, parent: u64) -> Result<Probes, String> {
    let mut rec = ctx.recommender()?;
    let engine = Engine::new(ctx.recommender()?);
    let traffic = Traffic::new(&engine, 0.0, ctx.seed);
    let mut rng = Mix::new(ctx.seed ^ 0x9A0B);
    let reqs: Vec<Direct> = (0..PROBE_CALLS)
        .map(|_| match traffic.next(&mut rng) {
            Req::Warm { user, .. } => Ok(Direct::User(user)),
            Req::Cold { content } => json::parse(&content)
                .map_err(|e| format!("content: {e:?}"))
                .and_then(|v| content_values(&v))
                .map(Direct::Content),
            Req::Feedback { .. } => unreachable!("probe traffic has no feedback"),
        })
        .collect::<Result<_, _>>()?;

    let mut p = Probes::default();
    let t = Instant::now();
    let rank: Vec<f64> = reqs
        .iter()
        .map(|r| {
            timed_us(|| {
                let ok = match r {
                    Direct::User(u) => rec.recommend(*u, K, None).is_ok(),
                    Direct::Content(c) => rec.recommend_content(c, K, None).is_ok(),
                };
                assert!(ok, "probe request rejected by the recommender");
            })
        })
        .collect();
    tracer.record("probe.artifact.rank", parent, 0, t, Instant::now());
    p.rank_us = median(&rank);

    let t = Instant::now();
    let one: Vec<f64> = reqs.iter().map(|r| engine_call(&engine, r)).collect();
    tracer.record("probe.engine.call", parent, 0, t, Instant::now());
    p.call_us = median(&one);

    let t = Instant::now();
    let two: Vec<f64> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| reqs.iter().map(|r| engine_call(&engine, r)).collect::<Vec<_>>()))
            .collect();
        joins.into_iter().flat_map(|j| j.join().expect("probe thread panicked")).collect()
    });
    tracer.record("probe.engine.contended", parent, 0, t, Instant::now());
    // Means, not medians: an unfair lock lets one caller run ahead while
    // the other waits through several calls, which only the mean sees.
    p.lock_wait_us = mean(&two) - mean(&one);

    let n_items = engine.n_items();
    let t = Instant::now();
    let adapt: Vec<f64> = (0..ADAPT_CALLS)
        .map(|i| {
            let user = traffic.hot[i % traffic.hot.len()];
            let support: Vec<(usize, f32)> = (0..GRADUATION_THRESHOLD)
                .map(|j| ((i * 7 + j * 13) % n_items, (j % 2) as f32))
                .collect();
            timed_us(|| {
                engine.adapt_user(user, &support).expect("probe adaptation rejected");
            })
        })
        .collect();
    tracer.record("probe.engine.adapt", parent, 0, t, Instant::now());
    p.adapt_us = median(&adapt);

    let log = FeedbackLog::create(
        ctx.dir.join("probe-feedback.jsonl"),
        "probe",
        RotatingFileRecorder::DEFAULT_MAX_BYTES,
    )
    .map_err(|e| format!("probe feedback log: {e}"))?;
    let t = Instant::now();
    let append: Vec<f64> = (0..PROBE_CALLS)
        .map(|i| {
            timed_us(|| {
                log.append(i % traffic.n_users, i % n_items, 1.0);
            })
        })
        .collect();
    log.flush();
    tracer.record("probe.feedback.append", parent, 0, t, Instant::now());
    p.append_us = median(&append);
    Ok(p)
}

/// Decodes a content array the way the server does: each number as f64,
/// then narrowed to f32.
fn content_values(v: &JsonValue) -> Result<Vec<f32>, String> {
    v.as_arr()
        .ok_or("content is not an array")?
        .iter()
        .map(|x| x.as_f64().map(|f| f as f32).ok_or_else(|| "content value is not a number".into()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_read_back_from_bodies() {
        let (_, body) = request(&Req::Warm { user: 3, hot: false }, 4711);
        assert_eq!(rid_of(body.as_bytes()), 4711);
        let (_, body) = request(&Req::Feedback { user: 1, item: 2, label: 1.0 }, 9);
        assert_eq!(rid_of(body.as_bytes()), 9);
        assert_eq!(rid_of(b"{\"user_id\":3}"), 0);
    }

    #[test]
    fn traffic_is_seeded() {
        let t = Traffic {
            n_users: 50,
            n_items: 40,
            content_dim: 3,
            feedback_frac: 0.1,
            hot: vec![1, 2, 3],
        };
        let draw = |seed| {
            let mut rng = Mix::new(seed);
            (0..64).map(|i| request(&t.next(&mut rng), i).1).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let bodies = draw(5);
        assert!(bodies.iter().any(|b| b.contains("content")));
        assert!(bodies.iter().any(|b| b.contains("item_id")));
    }
}
