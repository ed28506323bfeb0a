//! # metadpa-core
//!
//! The MetaDPA system (ICDE 2022): multi-source domain adaptation with
//! Dual-CVAEs, diverse preference augmentation, and preference
//! meta-learning for cold-start recommendation.
//!
//! The three blocks of the paper's Fig. 2 map to modules here:
//!
//! 1. **Multi-source domain adaptation** (§IV-A): [`cvae::Cvae`] is one
//!    conditional VAE; [`dual_cvae::DualCvae`] pairs a source and a target
//!    CVAE and trains them under the five-term objective of Eq. 8 —
//!    ELBO reconstruction (Eq. 2), the content-anchored KL (Eq. 3), the
//!    latent alignment MSE (Eq. 4), cross-domain reconstruction (Eq. 5),
//!    the MDI constraint (Eq. 6) and the ME constraint (Eq. 7), the last
//!    two realized with InfoNCE ([`critic::CriticInfoNce`]).
//!    [`adaptation::MultiSourceAdapter`] trains one Dual-CVAE per source.
//! 2. **Diverse preference augmentation** (§IV-B): [`augmentation`] runs
//!    each learned content-encoder/decoder pair (the red path of Fig. 1)
//!    over target-domain content to generate k diverse rating vectors per
//!    user, and measures their diversity.
//! 3. **Preference meta-learning** (§IV-C): [`preference::PreferenceModel`]
//!    is the embedding + multi-layer scorer of Eq. 11;
//!    [`maml::MetaLearner`] trains it with first-order MAML over original
//!    and augmented tasks and fine-tunes it for the cold-start settings.
//!
//! [`pipeline::MetaDpa`] wires the blocks into the end-to-end system, with
//! [`pipeline::Variant`] selecting the ablations of §V-E (MetaDPA-ME,
//! MetaDPA-MDI). [`eval`] defines the [`eval::Recommender`] trait shared
//! with the baselines crate and the leave-one-out evaluation harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptation;
pub mod artifact;
pub mod augmentation;
pub mod critic;
pub mod cvae;
pub mod dual_cvae;
pub mod eval;
pub mod maml;
pub mod noise_aug;
pub mod pipeline;
pub mod preference;

pub use adaptation::MultiSourceAdapter;
pub use artifact::{
    Artifact, ArtifactError, ArtifactMeta, ArtifactRecommender, SharedArtifact, ARTIFACT_SCHEMA,
};
pub use dual_cvae::{DualCvae, DualCvaeConfig, DualCvaeLosses};
pub use eval::{evaluate_scenario, Recommender};
pub use maml::{MamlConfig, MetaLearner, SentinelConfig, TrainAbort, TrainAnomaly};
pub use pipeline::{MetaDpa, MetaDpaConfig, Variant};
pub use preference::{PreferenceConfig, PreferenceModel};
