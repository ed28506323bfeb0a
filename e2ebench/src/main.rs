//! `e2ebench` — same-host end-to-end benchmark of MetaDPA.
//!
//! ```text
//! e2ebench --workload <fit-cds|serve-tiny|serve-books|serve-feedback>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed`, runs the workload's whole
//! lifecycle (see `workload.rs`), checks every output, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones; BENCHMARK.json lists both. Exits 1 when
//! a check fails, 2 on bad arguments.

mod checks;
mod host;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use metadpa_metrics::MetricSummary;
use metadpa_obs::recorder::NullRecorder;

use crate::checks::{check_quality, same_quality};
use crate::serve::{run_probes, run_window, Counts, ServeCtx, Window};
use crate::stats::{gap_share, median, quantile};
use crate::trace::{self_times, write_jsonl, Tracer};
use crate::train::{build_artifact, build_data, train, Trained, COUNTERS, STATES};
use crate::workload::{by_name, Workload, WORKLOADS};

/// The allocator `serve.allocs_per_req` counts through; it costs one
/// relaxed load per call until profiling is switched on.
#[global_allocator]
static GLOBAL: metadpa_obs::alloc::CountingAlloc = metadpa_obs::alloc::CountingAlloc::new();

/// Serve windows run on until they have their quota of quiet slices, but
/// never past this multiple of the quota.
const MAX_STRETCH: usize = 2;
/// Each set-up stage runs this many times; `setup_s` sums their medians.
const SETUP_REPS: usize = 5;
/// Largest share of `train_s` that block 1 + block 2 + block 3 + eval may
/// miss by in a traced run.
const TRAIN_TOLERANCE: f64 = 0.05;
/// Largest share of the traced client p50 that transport + router self +
/// engine call may miss by (medians of parts do not add exactly).
const SERVE_TOLERANCE: f64 = 0.20;
/// Where runs keep scratch files and traced runs write their spans.
const OUT_DIR: &str = ".e2ebench";

/// Scratch directory of one run; removed with everything in it on drop.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(by_name(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// What one run prints.
#[derive(Default)]
struct Report {
    errors: Vec<String>,
    phases: Vec<(&'static str, Counts)>,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    fn phase(&mut self, name: &'static str, w: &Window) {
        eprintln!("phase {name}: {} sampled rankings matched a direct ranking", w.verified);
        let steal: Vec<String> = w.slices.iter().map(|s| format!("{:.3}", s.steal)).collect();
        eprintln!(
            "phase {name}: host steal per slice {} ({} set aside)",
            steal.join(" "),
            w.noisy_slices()
        );
        let done: Vec<String> = w.per_slice().iter().map(|s| s.len().to_string()).collect();
        eprintln!("phase {name}: requests per slice {}", done.join(" "));
        self.phases.push((name, w.counts));
        self.errors.extend(w.errors.iter().cloned());
    }

    fn to_json(&self) -> String {
        let attempted: u64 = self.phases.iter().map(|(_, c)| c.sent).sum();
        let failed: u64 = self.phases.iter().map(|(_, c)| c.failed).sum();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, metadpa_obs::json::number(*v))
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
            self.errors.is_empty(),
            metrics.join(",")
        )
    }
}

fn host_record(a: &Args) -> String {
    use metadpa_obs::json::escape;
    format!(
        r#"{{"host":{{"cpu_model":{},"nproc":{},"simd":{},"metadpa_threads":{},"git_rev":{},"workload":{},"seed":{},"seconds":{},"trace":{}}}}}"#,
        escape(&host::cpu_model()),
        host::nproc(),
        escape(metadpa_tensor::simd::feature_string()),
        metadpa_tensor::pool::current_threads(),
        escape(&metadpa_obs::report::git_rev()),
        escape(a.workload.name),
        a.seed,
        a.seconds,
        u8::from(a.trace),
    )
}

/// Checks a fit's quality, and that it evaluates bit for bit like the
/// first fit on the same inputs.
fn check_fit(
    w: &Workload,
    reference: &[MetricSummary],
    fit: &Trained,
    label: &str,
    errors: &mut Vec<String>,
) {
    for ((state, _, _), q) in STATES.iter().zip(&fit.quality) {
        if let Err(e) = check_quality(state, q, w.require_all_states) {
            errors.push(format!("{label}: {e}"));
        }
    }
    if !same_quality(reference, &fit.quality) {
        errors.push(format!("{label} evaluates differently from the first fit on the same inputs"));
    }
}

fn run(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let jiffies0 = host::host_jiffies();
    let cpu0 = host::process_cpu_s();
    let dir = ScratchDir(PathBuf::from(OUT_DIR).join(format!("{}-{}", w.name, std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let tracer = Arc::new(Tracer::new());
    let root = tracer.reserve();
    let run_start = Instant::now();
    let tr = a.trace.then_some(tracer.as_ref());
    let mut report = Report::default();
    println!("{}", host_record(a));

    // Set-up, stage 1: world and splits.
    let (mut world_s, mut splits_s, mut data) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (d, ws, ss) = build_data(w, a.seed);
        if let Some(tr) = tr {
            tr.record("setup.data", root, 0, t, Instant::now());
        }
        world_s.push(ws);
        splits_s.push(ss);
        data = Some(d);
    }
    let data = data.expect("at least one set-up repetition");
    let data_s: Vec<f64> = world_s.iter().zip(&splits_s).map(|(a, b)| a + b).collect();

    // Training with the program's observability off; `train_s` is the
    // median over `fits` fits. One model is alive at a time; the first
    // fit's quality is the bit-identity reference.
    let (mut fitted, mut reference, mut train_s) = (None, Vec::new(), Vec::new());
    for i in 0..if a.trace { 1 } else { w.fits } {
        drop(fitted.take());
        let fit = train(w, &data, tr.filter(|_| i == 0).map(|t| (t, root)));
        if i == 0 {
            reference = fit.quality.clone();
        }
        check_fit(w, &reference, &fit, &format!("fit {i}"), &mut report.errors);
        train_s.push(fit.train_s());
        fitted = Some(fit);
    }
    let mut fitted = fitted.expect("at least one fit");
    eprintln!("train_s per fit: {train_s:?}");

    // Set-up, stage 2: the artifact chain.
    let ckpt = dir.0.join("model.ckpt");
    let (mut chain, mut artifact) = (Vec::new(), None);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (art, times) = build_artifact(&mut fitted.model, &data.world, &ckpt)?;
        if let Some(tr) = tr {
            tr.record("setup.artifact", root, 0, t, Instant::now());
        }
        chain.push(times);
        artifact = Some(art);
    }
    let artifact = artifact.expect("at least one set-up repetition");
    let chain_s: Vec<f64> = chain.iter().map(|c| c.total_s()).collect();
    let setup_s = median(&data_s) + median(&chain_s);
    let ctx =
        ServeCtx { artifact: &artifact, feedback_frac: w.feedback_frac, seed: a.seed, dir: &dir.0 };

    if !a.trace {
        let win = run_window(&ctx, a.seconds, 0, None)?;
        report.phase("serve", &win);
        eprintln!(
            "p99 {} ms (stderr only: it does not repeat on a shared host)",
            win.latency(0.99)
        );
        report.metric("setup_s", "s", setup_s);
        report.metric("train_s", "s", median(&train_s));
        report.metric("peak_rss_mb", "MiB", host::peak_rss_mb());
        report.metric("throughput_rps", "1/s", win.throughput());
        report.metric("p50_ms", "ms", win.latency(0.5));
        report.metric("p90_ms", "ms", win.latency(0.9));
        return Ok(report);
    }

    // Traced run: an untraced window first, then the same lifecycle with
    // the program's observability on and the benchmark's spans recorded.
    let t = Instant::now();
    let plain = run_window(&ctx, a.seconds / 2.0, 0, None)?;
    tracer.record("serve.window.untraced", root, 0, t, Instant::now());
    report.phase("serve.untraced", &plain);

    metadpa_obs::enable(Arc::new(NullRecorder));
    let traced_fit = train(w, &data, Some((&tracer, root)));
    check_fit(w, &reference, &traced_fit, "traced fit", &mut report.errors);
    let probes = run_probes(&ctx, &tracer, root)?;
    metadpa_obs::alloc::enable_profiling();
    let window_id = tracer.reserve();
    let t = Instant::now();
    let traced = run_window(&ctx, a.seconds / 2.0, 1, Some((&tracer, window_id)))?;
    tracer.record_as(window_id, "serve.window.traced", root, 0, t, Instant::now());
    metadpa_obs::alloc::disable_profiling();
    metadpa_obs::disable();
    report.phase("serve.traced", &traced);
    tracer.record_as(root, "run", 0, 0, run_start, Instant::now());

    let r = &mut report;
    r.metric("data.world_s", "s", median(&world_s));
    r.metric("data.splits_s", "s", median(&splits_s));
    let tm = traced_fit.timings;
    let blocks = [tm.adaptation, tm.augmentation, tm.meta_learning].map(|d| d.as_secs_f64());
    for (i, b) in blocks.iter().enumerate() {
        r.metric(format!("core.block{}_s", i + 1), "s", *b);
    }
    for ((state, _, _), s) in STATES.iter().zip(traced_fit.eval_s) {
        r.metric(format!("core.eval_s.{state}"), "s", s);
    }
    for ((state, _, _), q) in STATES.iter().zip(&traced_fit.quality) {
        r.metric(format!("ndcg10.{state}"), "1", f64::from(q.ndcg));
        r.metric(format!("hr10.{state}"), "1", f64::from(q.hr));
    }

    let (fit_c, eval_c) = traced_fit.counts;
    let count = |name: &str| {
        let i = COUNTERS.iter().position(|c| *c == name).expect("known counter");
        (fit_c[i], eval_c[i])
    };
    let eval_total_s: f64 = traced_fit.eval_s.iter().sum();
    let (calls_fit, calls_eval) = count("tensor.matmul.calls");
    let (flops_fit, flops_eval) = count("tensor.matmul.flops");
    r.metric("tensor.matmul_calls", "count", (calls_fit + calls_eval) as f64);
    r.metric("tensor.matmul_gflop", "GFLOP", (flops_fit + flops_eval) as f64 / 1e9);
    r.metric("tensor.gflops.fit", "GFLOP/s", flops_fit as f64 / 1e9 / traced_fit.fit_s);
    r.metric("tensor.gflops.eval", "GFLOP/s", flops_eval as f64 / 1e9 / eval_total_s);
    for (metric, counter) in [
        ("tensor.dispatch.simd", "tensor.matmul.dispatch.simd"),
        ("tensor.dispatch.blocked", "tensor.matmul.dispatch.blocked"),
        ("tensor.dispatch.serial", "tensor.matmul.dispatch.serial"),
        ("pool.tasks", "pool.tasks"),
        ("pool.steal", "pool.steal"),
    ] {
        let (f, e) = count(counter);
        r.metric(metric, "count", (f + e) as f64);
    }

    // Serve layers, from the traced window's spans matched by request id.
    let spans = tracer.spans();
    let handler: std::collections::HashMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == "router.handler")
        .map(|s| (s.rid, (s.end_ns - s.start_ns) as f64 / 1e3))
        .collect();
    let (mut client_us, mut transport_us) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "http.request" && s.parent == window_id) {
        let us = (s.end_ns - s.start_ns) as f64 / 1e3;
        client_us.push(us);
        if let Some(h) = handler.get(&s.rid) {
            transport_us.push(us - h);
        }
    }
    let handler_us: Vec<f64> = handler.values().copied().collect();
    let handler_p50 = quantile(&handler_us, 0.5);
    let router_self = handler_p50 - probes.call_us;
    let transport_p50 = quantile(&transport_us, 0.5);
    r.metric("artifact.rank_us", "us", probes.rank_us);
    r.metric("engine.call_us", "us", probes.call_us);
    r.metric("engine.lock_wait_us", "us", probes.lock_wait_us);
    r.metric("engine.adapt_us", "us", probes.adapt_us);
    let fb = traced.feedback.as_ref();
    let adaptations = fb.map_or(0, |f| f.graduations + f.refreshes);
    r.metric(
        "engine.adapt_busy_share",
        "1",
        adaptations as f64 * probes.adapt_us / (traced.elapsed_s * 1e6),
    );
    let (hot_reads, hot_hits) = traced.hot;
    r.metric(
        "engine.adapt_cache_hit_share",
        "1",
        if hot_reads == 0 { 0.0 } else { hot_hits as f64 / hot_reads as f64 },
    );
    r.metric("router.handler_us.p50", "us", handler_p50);
    r.metric("router.handler_us.p99", "us", quantile(&handler_us, 0.99));
    r.metric("router.self_us", "us", router_self);
    r.metric(
        "serve.allocs_per_req",
        "count",
        traced.allocs as f64 / traced.counts.sent.max(1) as f64,
    );
    r.metric("http.transport_us", "us", transport_p50);
    r.metric(
        "ckpt.save_ms",
        "ms",
        median(&chain.iter().map(|c| c.save_s * 1e3).collect::<Vec<_>>()),
    );
    r.metric(
        "ckpt.load_ms",
        "ms",
        median(&chain.iter().map(|c| c.load_s * 1e3).collect::<Vec<_>>()),
    );
    r.metric("ckpt.bytes", "B", chain.last().map_or(0, |c| c.bytes) as f64);
    r.metric("feedback.append_us", "us", probes.append_us);
    r.metric("feedback.graduations", "count", fb.map_or(0, |f| f.graduations) as f64);
    r.metric("feedback.refreshes", "count", fb.map_or(0, |f| f.refreshes) as f64);
    r.metric("feedback.backlog_events", "count", fb.map_or(0, |f| f.backlog) as f64);
    r.metric("feedback.drain_ms", "ms", fb.map_or(0.0, |f| f.drain_ms));
    r.metric("obs.traced_over_untraced", "1", traced.throughput() / plain.throughput());
    r.metric("obs.fit_traced_over_untraced", "1", fitted.train_s() / traced_fit.train_s());
    r.metric("host.steal_share", "1", host::steal_share(jiffies0, host::host_jiffies()));
    r.metric("host.cpu_s", "s", host::process_cpu_s() - cpu0);
    r.metric("host.noisy_slices", "count", (plain.noisy_slices() + traced.noisy_slices()) as f64);

    // Reconciliation: the layers must add back up to the end-to-end figure.
    let train_parts = [blocks[0], blocks[1], blocks[2], eval_total_s];
    let train_gap = gap_share(traced_fit.train_s(), &train_parts);
    let client_p50 = quantile(&client_us, 0.5);
    let serve_gap = gap_share(client_p50, &[transport_p50, router_self, probes.call_us]);
    r.metric("trace.train_gap_share", "1", train_gap);
    r.metric("trace.serve_gap_share", "1", serve_gap);
    if train_gap > TRAIN_TOLERANCE {
        r.errors.push(format!(
            "blocks + eval miss train_s by {:.1}% (tolerance {:.0}%)",
            train_gap * 100.0,
            TRAIN_TOLERANCE * 100.0
        ));
    }
    if serve_gap > SERVE_TOLERANCE {
        r.errors.push(format!(
            "transport + router + engine miss the traced p50 by {:.1}% (tolerance {:.0}%)",
            serve_gap * 100.0,
            SERVE_TOLERANCE * 100.0
        ));
    }

    eprintln!("layer self times (traced run):");
    eprintln!("  {:<28} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for (name, n, total, own) in self_times(&spans) {
        eprintln!("  {name:<28} {n:>8} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
    eprintln!(
        "  train_s {:.3} s = block1 {:.3} + block2 {:.3} + block3 {:.3} + eval {:.3} (gap {:.2}%)",
        traced_fit.train_s(),
        blocks[0],
        blocks[1],
        blocks[2],
        eval_total_s,
        train_gap * 100.0
    );
    eprintln!(
        "  traced p50 {client_p50:.1} us = transport {transport_p50:.1} + router {router_self:.1} \
         + engine {:.1} (gap {:.2}%)",
        probes.call_us,
        serve_gap * 100.0
    );
    let spans_path = PathBuf::from(OUT_DIR).join(format!("spans-{}.jsonl", w.name));
    write_jsonl(&spans_path, &spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!("  {} spans written to {}", spans.len(), spans_path.display());
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (phase, c) in &report.phases {
        eprintln!("phase {phase}: sent {} succeeded {} failed {}", c.sent, c.ok, c.failed);
    }
    for (name, unit, v) in &report.metrics {
        eprintln!("  {name:<32} {v:>16.6} {unit}");
    }
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", report.to_json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
