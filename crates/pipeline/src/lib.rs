//! IYP graph construction pipeline.
//!
//! Drives the three stages of §2.3 of the paper:
//!
//! 1. **Knowledge extraction** — every dataset is rendered by the
//!    synthetic Internet (`iyp-simnet`) and parsed by its crawler
//!    (`iyp-crawlers`); dataset texts are produced concurrently on
//!    `std::thread::scope` threads, imports are applied in deterministic
//!    Table 8 order.
//! 2. **Fusion** — happens implicitly through canonical identifiers and
//!    `MERGE` semantics in the graph store.
//! 3. **Refinement** — the post-processing passes that add the implicit
//!    common knowledge: address families, longest-prefix-match
//!    `IP→Prefix` links, covering-prefix links, `URL→HostName` links,
//!    and country-code completion.
//!
//! The result is a [`BuildReport`] plus the graph itself, ready for the
//! Cypher studies in `iyp-studies`.

pub mod build;
pub mod postprocess;
pub mod report;

pub use build::{build_graph, BuildOptions};
pub use report::BuildReport;
