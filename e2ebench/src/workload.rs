//! The named workloads. Every workload runs MetaDPA's whole lifecycle —
//! generate, split, fit, evaluate in four states, export, save/load, serve
//! a closed loop — at one operating point, so every end-to-end metric is
//! measured on every workload; the operating point decides which layer
//! carries the load. BENCHMARK.json records why each one was chosen.

use metadpa_core::MetaDpaConfig;
use metadpa_data::config::WorldConfig;
use metadpa_data::presets;

/// One operating point of the lifecycle.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// World preset, from the workload seed.
    pub world: fn(u64) -> WorldConfig,
    /// Pipeline configuration (architecture and schedule).
    pub config: fn() -> MetaDpaConfig,
    /// Fits in an untraced run; `train_s` is their median.
    pub fits: usize,
    /// Share of serve requests that are `POST /v1/feedback` writes.
    pub feedback_frac: f64,
    /// Whether every cold-start state must have evaluation instances. The
    /// tiny world's C-UI population is empty for some seeds.
    pub require_all_states: bool,
}

/// The fast schedule with the default preference model, so the served
/// artifact ranks with the default network widths while the fit stays a
/// few seconds.
fn fast_schedule_default_model() -> MetaDpaConfig {
    MetaDpaConfig { preference: MetaDpaConfig::default().preference, ..MetaDpaConfig::fast() }
}

/// Every workload, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fit-cds",
        world: presets::cds_world,
        config: MetaDpaConfig::default,
        fits: 3,
        feedback_frac: 0.0,
        require_all_states: true,
    },
    Workload {
        name: "serve-tiny",
        world: presets::tiny_world,
        config: MetaDpaConfig::fast,
        fits: 15,
        feedback_frac: 0.0,
        require_all_states: false,
    },
    Workload {
        name: "serve-books",
        world: presets::books_world,
        config: fast_schedule_default_model,
        fits: 1,
        feedback_frac: 0.0,
        require_all_states: true,
    },
    Workload {
        name: "serve-feedback",
        world: presets::books_world,
        config: fast_schedule_default_model,
        fits: 1,
        feedback_frac: 0.10,
        require_all_states: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
