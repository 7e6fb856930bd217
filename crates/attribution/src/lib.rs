//! Variance attribution over DSA response surfaces — the Table 3 engine,
//! generalized.
//!
//! The PRA cube (and the attack and evolution surfaces layered on it in
//! later PRs) tells you *what* each protocol scores; the paper's
//! analytic payoff is Table 3, which tells you *why* — a multiple linear
//! regression attributing the variance of each measure to the design
//! dimensions, "turning a 10k-point sweep into actionable design
//! guidance". This crate writes that analysis once, against any
//! registered domain and any measured response surface:
//!
//! 1. [`design`] dummy-codes a [`dsa_core::space::DesignSpace`] (or any
//!    row subset of one) into a regression design matrix, in parallel
//!    and bit-identically across thread counts.
//! 2. [`response`] adapts the workspace's three cached surfaces — the
//!    PRA sweep, the robustness-under-budget attack sweeps, and the
//!    evolutionary candidate outcomes — into one [`response::ResponseSurface`]
//!    shape, loaded through their own stamped caches.
//! 3. [`fit`] runs the per-axis attribution: the main-effects OLS fit
//!    (via [`dsa_stats::ols`]), per-dimension one-way η² and partial η²
//!    effect sizes with nested-model F-tests, and the pairwise
//!    interaction scan ranked by incremental R².
//! 4. [`navigate`](mod@navigate) is the dimension-flip navigator: which single
//!    actualization change most improves axis X without degrading axis
//!    Y — predicted from the fitted model's cached estimates, then
//!    *verified* against the true sweep values.
//! 5. [`sweep`] stamps the derived tables at
//!    `results/attrib-<domain>-<response>-<scale>.csv` with an `attrib=`
//!    fingerprint over the source sweeps' stamps and the model spec, so
//!    changed sweeps or model changes self-invalidate without touching
//!    PRA/attack/evo caches. A table holds every axis' effect sizes,
//!    main-effects estimates and interaction scan, so only a cache miss
//!    fits anything.
//!
//! Surfaced as `dsa <domain> attribute {fit,interactions,navigate}` and
//! `experiments attribution [--response pra|attack|evolution]`.

pub mod design;
pub mod fit;
pub mod navigate;
pub mod response;
pub mod sweep;

pub use design::{DesignMatrix, DesignView, DimCode};
pub use fit::{attribute_axis, interaction_scan, AxisAttribution, DimEffect, InteractionEffect};
pub use navigate::{navigate, FlipSuggestion};
pub use response::{attack_surface, evolution_surface, pra_surface, ResponseKind, ResponseSurface};
pub use sweep::{fingerprint, AttribTable, AxisSummary, LevelEstimate, SPEC_VERSION};
