//! Full-graph construction.

use crate::postprocess;
use crate::report::{BuildReport, DatasetFailure, QuarantineEntry};
use iyp_crawlers::{import_dataset_with, CrawlError, ImportPolicy};
use iyp_graph::{Graph, GraphStats};
use iyp_ontology::validate_graph;
use iyp_simnet::datasets::ALL_DATASETS;
use iyp_simnet::{DatasetId, FaultPlan, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Options for a build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Datasets to import; defaults to all 46.
    pub datasets: Vec<DatasetId>,
    /// Run the refinement passes (IP→Prefix LPM, covering prefixes,
    /// URL→HostName, `af` props, country completion).
    pub refine: bool,
    /// Run the final ontology validation.
    pub validate: bool,
    /// Fault-injection plan applied to simulated fetches and rendered
    /// texts (chaos testing). `None` builds cleanly.
    pub chaos: Option<FaultPlan>,
    /// Fetch retries after a transient failure (attempts = retries + 1).
    pub max_retries: u32,
    /// Base backoff slept between fetch attempts; doubles per retry.
    /// Tests set this to zero.
    pub retry_backoff: Duration,
    /// Record-quarantine policy handed to every importer.
    pub import_policy: ImportPolicy,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            datasets: ALL_DATASETS.to_vec(),
            refine: true,
            validate: true,
            chaos: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            import_policy: ImportPolicy::default(),
        }
    }
}

impl BuildOptions {
    /// Build with only the named datasets (plus refinement).
    pub fn only(datasets: &[DatasetId]) -> Self {
        BuildOptions {
            datasets: datasets.to_vec(),
            ..Default::default()
        }
    }

    /// Disable refinement (used by the refinement ablation bench).
    pub fn without_refinement(mut self) -> Self {
        self.refine = false;
        self
    }

    /// Inject faults from a [`FaultPlan`] (chaos testing).
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }
}

/// Renders a panic payload as a short message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Simulated fetch with bounded retries. Returns the retries spent on
/// success, or `(final cause, retries spent)` when the dataset could
/// not be fetched within the retry budget.
fn simulate_fetch(
    plan: &FaultPlan,
    id: DatasetId,
    max_retries: u32,
    backoff: Duration,
) -> Result<u32, (String, u32)> {
    let mut retries = 0;
    loop {
        let attempt = retries + 1;
        match plan.fetch_outcome(id, attempt) {
            Ok(()) => return Ok(retries),
            Err(cause) if retries >= max_retries => return Err((cause, retries)),
            Err(_) => {
                retries += 1;
                if iyp_telemetry::enabled() {
                    iyp_telemetry::counter(iyp_telemetry::names::BUILD_RETRIES_TOTAL).incr();
                }
                if !backoff.is_zero() {
                    // Exponential backoff, capped at 16× the base.
                    std::thread::sleep(backoff * 1u32.wrapping_shl(retries.min(4) - 1));
                }
            }
        }
    }
}

/// Builds the IYP knowledge graph from a synthetic world.
///
/// Dataset texts are rendered concurrently (they are independent pure
/// functions of the world); imports run serially in Table 8 order so
/// the build is deterministic.
///
/// Each dataset is isolated: a renderer or importer that panics or
/// returns an error fails only its own dataset, which is recorded in
/// the report's `failed`/`skipped` sections while the build continues.
/// Links a failing importer created before its error stay in the graph
/// (imports are best-effort, matching the production IYP's "import
/// as-is" stance). Only refinement and validation errors abort the
/// build — those indicate bugs, not bad data.
pub fn build_graph(
    world: &World,
    options: &BuildOptions,
) -> Result<(Graph, BuildReport), CrawlError> {
    let build_start = Instant::now();
    let _span = iyp_telemetry::span(iyp_telemetry::names::BUILD_SECONDS);
    // Render all dataset texts in parallel; a panicking renderer is
    // caught on its own thread and fails only its dataset.
    let mut texts: Vec<(DatasetId, Result<String, String>)> =
        Vec::with_capacity(options.datasets.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = options
            .datasets
            .iter()
            .map(|&id| {
                (
                    id,
                    s.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| world.render_dataset(id)))
                            .map_err(|p| format!("render panicked: {}", panic_message(p)))
                    }),
                )
            })
            .collect();
        for (id, h) in handles {
            let rendered = h
                .join()
                .unwrap_or_else(|p| Err(format!("render thread died: {}", panic_message(p))));
            texts.push((id, rendered));
        }
    });

    // Deterministic import order.
    texts.sort_by_key(|(id, _)| *id);

    let mut graph = Graph::new();
    let mut datasets = Vec::with_capacity(texts.len());
    let mut dataset_timings = Vec::with_capacity(texts.len());
    let mut failed: Vec<DatasetFailure> = Vec::new();
    let mut skipped: Vec<DatasetFailure> = Vec::new();
    let mut quarantine: Vec<QuarantineEntry> = Vec::new();
    for (id, rendered) in &texts {
        let name = id.name().to_string();
        let started = Instant::now();

        // Simulated fetch: transient chaos failures are retried with
        // bounded backoff; a dataset that never fetches is skipped.
        let mut retries = 0;
        if let Some(plan) = &options.chaos {
            match simulate_fetch(plan, *id, options.max_retries, options.retry_backoff) {
                Ok(r) => retries = r,
                Err((cause, retries)) => {
                    skipped.push(DatasetFailure {
                        dataset: name,
                        cause,
                        retries,
                    });
                    continue;
                }
            }
        }

        let text = match rendered {
            Ok(t) => t,
            Err(cause) => {
                failed.push(DatasetFailure {
                    dataset: name,
                    cause: cause.clone(),
                    retries,
                });
                continue;
            }
        };
        // Chaos corruption of the fetched text, when planned.
        let corrupted;
        let text: &str = match &options.chaos {
            Some(plan) if plan.is_corrupted(*id) => {
                corrupted = plan.corrupt(*id, text);
                &corrupted
            }
            _ => text,
        };

        // Isolated import: a panicking or failing importer loses only
        // its own dataset.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            import_dataset_with(
                &mut graph,
                *id,
                text,
                world.fetch_time,
                options.import_policy,
            )
        }));
        let elapsed = started.elapsed();
        let links = match outcome {
            Ok(Ok(out)) => {
                if out.quarantined > 0 {
                    quarantine.push(QuarantineEntry {
                        dataset: name.clone(),
                        records: out.records,
                        quarantined: out.quarantined,
                        samples: out.samples,
                    });
                    if iyp_telemetry::enabled() {
                        iyp_telemetry::counter(
                            iyp_telemetry::names::BUILD_QUARANTINED_RECORDS_TOTAL,
                        )
                        .add(out.quarantined as u64);
                    }
                }
                out.links
            }
            Ok(Err(e)) => {
                failed.push(DatasetFailure {
                    dataset: name,
                    cause: e.to_string(),
                    retries,
                });
                continue;
            }
            Err(p) => {
                failed.push(DatasetFailure {
                    dataset: name,
                    cause: format!("importer panicked: {}", panic_message(p)),
                    retries,
                });
                continue;
            }
        };
        datasets.push((name.clone(), links));
        dataset_timings.push((name.clone(), elapsed));
        if iyp_telemetry::enabled() {
            let metric = iyp_telemetry::labeled(
                iyp_telemetry::names::BUILD_IMPORT_SECONDS,
                &[("dataset", id.name())],
            );
            iyp_telemetry::histogram(&metric).record(elapsed);
            iyp_telemetry::counter(iyp_telemetry::names::BUILD_LINKS_TOTAL).add(links as u64);
        }
    }
    if iyp_telemetry::enabled() && (!failed.is_empty() || !skipped.is_empty()) {
        iyp_telemetry::counter(iyp_telemetry::names::BUILD_FAILED_DATASETS_TOTAL)
            .add((failed.len() + skipped.len()) as u64);
    }

    let mut refinement = Vec::new();
    let mut refinement_timings = Vec::new();
    if options.refine {
        let pass = |name: &'static str,
                    links: usize,
                    started: Instant,
                    refinement: &mut Vec<(&'static str, usize)>,
                    timings: &mut Vec<(&'static str, std::time::Duration)>| {
            let elapsed = started.elapsed();
            refinement.push((name, links));
            timings.push((name, elapsed));
            if iyp_telemetry::enabled() {
                let labeled = iyp_telemetry::labeled(
                    iyp_telemetry::names::BUILD_REFINE_SECONDS,
                    &[("pass", name)],
                );
                iyp_telemetry::histogram(&labeled).record(elapsed);
            }
        };
        let t = Instant::now();
        let n = postprocess::add_address_families(&mut graph);
        pass(
            "address families (af)",
            n,
            t,
            &mut refinement,
            &mut refinement_timings,
        );
        let t = Instant::now();
        let n = postprocess::link_ips_to_prefixes(&mut graph, world.fetch_time)?;
        pass(
            "IP -> Prefix (longest match)",
            n,
            t,
            &mut refinement,
            &mut refinement_timings,
        );
        let t = Instant::now();
        let n = postprocess::link_covering_prefixes(&mut graph, world.fetch_time)?;
        pass(
            "Prefix -> covering Prefix",
            n,
            t,
            &mut refinement,
            &mut refinement_timings,
        );
        let t = Instant::now();
        let n = postprocess::link_urls_to_hostnames(&mut graph, world.fetch_time)?;
        pass(
            "URL -> HostName",
            n,
            t,
            &mut refinement,
            &mut refinement_timings,
        );
        let t = Instant::now();
        let n = postprocess::complete_countries(&mut graph);
        pass(
            "country completion",
            n,
            t,
            &mut refinement,
            &mut refinement_timings,
        );
    }

    let violations = if options.validate {
        validate_graph(&graph).len()
    } else {
        0
    };
    let stats = GraphStats::compute(&graph);
    if iyp_telemetry::enabled() {
        iyp_telemetry::gauge(iyp_telemetry::names::GRAPH_NODES).set(graph.node_count() as i64);
        iyp_telemetry::gauge(iyp_telemetry::names::GRAPH_RELS).set(graph.rel_count() as i64);
    }
    Ok((
        graph,
        BuildReport {
            datasets,
            failed,
            skipped,
            quarantine,
            refinement,
            stats,
            violations,
            dataset_timings,
            refinement_timings,
            total_time: build_start.elapsed(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_simnet::SimConfig;

    #[test]
    fn full_build_is_ontology_clean() {
        let world = World::generate(&SimConfig::tiny(), 42);
        let (graph, report) = build_graph(&world, &BuildOptions::default()).unwrap();
        assert_eq!(report.violations, 0, "ontology violations in full build");
        assert_eq!(report.datasets.len(), 46);
        // Every dataset contributed at least one link.
        for (name, links) in &report.datasets {
            assert!(*links > 0, "{name} created no links");
        }
        assert!(report.refinement_links() > 0);
        assert!(graph.node_count() > 500);
        assert!(graph.rel_count() > graph.node_count());
        // The report renders.
        let text = report.to_string();
        assert!(text.contains("bgpkit.pfx2as"));
        assert!(text.contains("refinement"));
    }

    #[test]
    fn dataset_subset_build() {
        let world = World::generate(&SimConfig::tiny(), 42);
        let opts = BuildOptions::only(&[DatasetId::TrancoList, DatasetId::BgpkitPfx2as]);
        let (graph, report) = build_graph(&world, &opts).unwrap();
        assert_eq!(report.datasets.len(), 2);
        assert_eq!(report.violations, 0);
        assert!(graph.label_count("DomainName") > 0);
        assert!(graph.label_count("Prefix") > 0);
    }

    #[test]
    fn refinement_can_be_disabled() {
        let world = World::generate(&SimConfig::tiny(), 42);
        let opts = BuildOptions::only(&[DatasetId::OpenintelTranco1m, DatasetId::BgpkitPfx2as])
            .without_refinement();
        let (_, report) = build_graph(&world, &opts).unwrap();
        assert!(report.refinement.is_empty());
        assert_eq!(report.refinement_links(), 0);
    }

    #[test]
    fn builds_are_deterministic() {
        let world = World::generate(&SimConfig::tiny(), 42);
        let (g1, r1) = build_graph(&world, &BuildOptions::default()).unwrap();
        let (g2, r2) = build_graph(&world, &BuildOptions::default()).unwrap();
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.rel_count(), g2.rel_count());
        assert_eq!(r1.datasets, r2.datasets);
    }
}
