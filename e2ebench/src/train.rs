//! The training half of a workload: data set-up, `Recommender::fit`,
//! evaluation in the four cold-start states, and the artifact chain
//! (export, save, load, `into_recommender`).

use std::path::Path;
use std::time::Instant;

use metadpa_core::eval::{evaluate_scenario, Recommender};
use metadpa_core::pipeline::BlockTimings;
use metadpa_core::{Artifact, MetaDpa};
use metadpa_data::domain::World;
use metadpa_data::generator::generate_world;
use metadpa_data::splits::{Scenario, ScenarioKind, SplitConfig, Splitter};
use metadpa_metrics::MetricSummary;
use metadpa_serve::{load_artifact, save_artifact};

use crate::trace::Tracer;
use crate::workload::Workload;

/// Ranking cutoff of every quality metric (the paper's Table III uses 10).
pub const K: usize = 10;

/// Metric-name suffix, span name and scenario of each cold-start state, in
/// the paper's order. The first (Warm) supplies the training tasks.
pub const STATES: [(&str, &str, ScenarioKind); 4] = [
    ("warm", "eval.warm", ScenarioKind::Warm),
    ("cold_user", "eval.cold_user", ScenarioKind::ColdUser),
    ("cold_item", "eval.cold_item", ScenarioKind::ColdItem),
    ("cold_user_item", "eval.cold_user_item", ScenarioKind::ColdUserItem),
];

/// Split seeds are derived from the workload seed, kept apart from the
/// world seed so the two streams never coincide.
const SPLIT_SALT: u64 = 0x05EE_D0F5_B117;

/// The program's matmul and pool counters, read around each timed call.
/// They advance only while the program's observability is enabled.
pub const COUNTERS: [&str; 7] = [
    "tensor.matmul.calls",
    "tensor.matmul.flops",
    "tensor.matmul.dispatch.simd",
    "tensor.matmul.dispatch.blocked",
    "tensor.matmul.dispatch.serial",
    "pool.tasks",
    "pool.steal",
];

/// Counter values, in [`COUNTERS`] order.
pub type CounterValues = [u64; COUNTERS.len()];

fn read_counters() -> CounterValues {
    COUNTERS.map(|name| metadpa_obs::metrics::counter(name).get())
}

fn delta(after: CounterValues, before: CounterValues) -> CounterValues {
    std::array::from_fn(|i| after[i].saturating_sub(before[i]))
}

/// A generated world and its four scenarios, in [`STATES`] order.
pub struct Data {
    /// The generated world (target plus source domains).
    pub world: World,
    /// One scenario per state.
    pub scenarios: Vec<Scenario>,
}

/// Generates the workload's world and splits; returns the data with the
/// seconds each step took.
pub fn build_data(w: &Workload, seed: u64) -> (Data, f64, f64) {
    let t = Instant::now();
    let world = generate_world(&(w.world)(seed));
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let splitter = Splitter::new(
        &world.target,
        SplitConfig { seed: seed ^ SPLIT_SALT, ..SplitConfig::default() },
    );
    let scenarios = STATES.iter().map(|&(_, _, kind)| splitter.scenario(kind)).collect();
    let splits_s = t.elapsed().as_secs_f64();
    (Data { world, scenarios }, world_s, splits_s)
}

/// One fitted and evaluated model.
pub struct Trained {
    /// The fitted pipeline.
    pub model: MetaDpa,
    /// Seconds in `Recommender::fit`.
    pub fit_s: f64,
    /// Seconds in `evaluate_scenario`, per state.
    pub eval_s: [f64; 4],
    /// HR/NDCG at [`K`], per state.
    pub quality: Vec<MetricSummary>,
    /// The program's own per-block wall clock of the fit.
    pub timings: BlockTimings,
    /// Counter deltas over the fit and over the evaluation.
    pub counts: (CounterValues, CounterValues),
}

impl Trained {
    /// `train_s`: fit plus evaluation in all four states.
    pub fn train_s(&self) -> f64 {
        self.fit_s + self.eval_s.iter().sum::<f64>()
    }
}

/// Fits a fresh model on the Warm training tasks, then evaluates it in
/// every state. With a tracer, each call is recorded as a span under
/// `parent`.
pub fn train(w: &Workload, data: &Data, tracer: Option<(&Tracer, u64)>) -> Trained {
    // Fit and evaluations nest under one `train` span, recorded last.
    let traced = tracer.map(|(tr, parent)| (tr, parent, tr.reserve()));
    let mut model = MetaDpa::new((w.config)());
    let c0 = read_counters();
    let t = Instant::now();
    model.fit(&data.world, &data.scenarios[0]);
    let fit_end = Instant::now();
    let c1 = read_counters();
    if let Some((tr, _, id)) = traced {
        tr.record("core.fit", id, 0, t, fit_end);
    }
    let mut eval_s = [0.0; 4];
    let mut quality = Vec::with_capacity(STATES.len());
    for (i, scenario) in data.scenarios.iter().enumerate() {
        let start = Instant::now();
        quality.push(evaluate_scenario(&mut model, &data.world, scenario, K));
        let end = Instant::now();
        eval_s[i] = (end - start).as_secs_f64();
        if let Some((tr, _, id)) = traced {
            tr.record(STATES[i].1, id, 0, start, end);
        }
    }
    if let Some((tr, parent, id)) = traced {
        tr.record_as(id, "train", parent, 0, t, Instant::now());
    }
    let c2 = read_counters();
    Trained {
        fit_s: (fit_end - t).as_secs_f64(),
        timings: model.timings(),
        model,
        eval_s,
        quality,
        counts: (delta(c1, c0), delta(c2, c1)),
    }
}

/// Seconds and size of one pass through the artifact chain.
pub struct ArtifactTimes {
    /// `MetaDpa::export_artifact`.
    pub export_s: f64,
    /// `save_artifact`.
    pub save_s: f64,
    /// `load_artifact`.
    pub load_s: f64,
    /// `Artifact::into_recommender`.
    pub into_s: f64,
    /// Checkpoint file size.
    pub bytes: u64,
}

impl ArtifactTimes {
    /// The whole chain.
    pub fn total_s(&self) -> f64 {
        self.export_s + self.save_s + self.load_s + self.into_s
    }
}

/// Exports the fitted model, saves it to `path`, loads it back and turns a
/// copy into a recommender; returns the loaded artifact.
pub fn build_artifact(
    model: &mut MetaDpa,
    world: &World,
    path: &Path,
) -> Result<(Artifact, ArtifactTimes), String> {
    let path_str = path.to_str().ok_or("artifact path is not UTF-8")?;
    let t = Instant::now();
    let exported = model.export_artifact(world);
    let export_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    save_artifact(path_str, &exported).map_err(|e| format!("save_artifact: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = load_artifact(path_str).map_err(|e| format!("load_artifact: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    let copy = loaded.clone();
    let t = Instant::now();
    let rec = copy.into_recommender().map_err(|e| format!("into_recommender: {e}"))?;
    let into_s = t.elapsed().as_secs_f64();
    drop(rec);
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok((loaded, ArtifactTimes { export_s, save_s, load_s, into_s, bytes }))
}
