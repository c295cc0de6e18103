//! Telemetry integration: PROFILE ground truth, build-report timings,
//! and the metrics exposition format.

use iyp::{Iyp, SimConfig};
use std::sync::OnceLock;
use std::time::Duration;

fn built() -> &'static Iyp {
    static CELL: OnceLock<Iyp> = OnceLock::new();
    CELL.get_or_init(|| Iyp::build(&SimConfig::tiny(), 42).expect("build"))
}

/// PROFILE's Match operator must report exactly the rows the pattern
/// produced — cross-checked against `RETURN count(*)` ground truth.
#[test]
fn profile_rowcounts_match_count_star_ground_truth() {
    let iyp = built();
    // `count(*)` counts the rows flowing into RETURN, i.e. the output
    // of the operator feeding ProduceResults: the Match itself for a
    // bare pattern, the Filter once a WHERE is attached.
    for (pattern, feeding_op) in [
        // Listing 1's pattern.
        ("MATCH (x:AS)-[:ORIGINATE]-(:Prefix)", "Match"),
        // Listing 2's pattern.
        (
            "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) WHERE x.asn <> y.asn",
            "Filter",
        ),
    ] {
        let text = format!("{pattern} RETURN count(*)");
        let ground = iyp.query(&text).unwrap().single_int().unwrap() as u64;
        assert!(ground > 0, "no rows for {pattern}");

        let (rs, plan) = iyp.profile(&text).unwrap();
        assert_eq!(rs.single_int(), Some(ground as i64));
        let feeding = plan.children.last().expect("ProduceResults has an input");
        assert_eq!(feeding.op, feeding_op, "plan:\n{}", plan.render());
        assert_eq!(feeding.rows, Some(ground), "plan:\n{}", plan.render());
        // The Match operator's count is internally consistent too: a
        // Filter can only shrink its input.
        let match_op = plan.find("Match").expect("plan has a Match operator");
        assert!(match_op.rows.unwrap() >= ground, "plan:\n{}", plan.render());
        // The final operator produced exactly the one aggregate row.
        assert_eq!(plan.rows, Some(1));
        assert!(plan.time.is_some());

        // The same numbers flow through the PROFILE keyword as a
        // plain result set (the shell / server path).
        let rendered = iyp.query(&format!("PROFILE {text}")).unwrap();
        assert_eq!(rendered.columns, vec!["plan"]);
        let lines: Vec<String> = rendered
            .rows
            .iter()
            .map(|r| r[0].as_scalar().unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(
            lines
                .iter()
                .any(|l| l.contains(feeding_op) && l.contains(&format!("rows={ground}"))),
            "no {feeding_op} rows={ground} in {lines:?}"
        );
    }
}

/// EXPLAIN returns a plan without executing, for all three paper
/// listings verbatim.
#[test]
fn explain_covers_the_paper_listings() {
    let iyp = built();
    let listings = [
        "MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn",
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
         WHERE x.asn <> y.asn RETURN DISTINCT p.prefix",
        "MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)-[:CATEGORIZED]-(:Tag {label:'RPKI Valid'})
         WHERE org.name = 'CERN'
         MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName)
         RETURN distinct h.name",
    ];
    for listing in listings {
        let rs = iyp.query(&format!("EXPLAIN {listing}")).unwrap();
        assert_eq!(rs.columns, vec!["plan"]);
        let text: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r[0].as_scalar().unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(text[0].starts_with("ProduceResults"), "{text:?}");
        assert!(text.iter().any(|l| l.contains("Match")), "{text:?}");
        // EXPLAIN never carries measurements.
        assert!(text.iter().all(|l| !l.contains("rows=")), "{text:?}");

        let plan = iyp.explain(listing).unwrap();
        assert_eq!(plan.render_lines(), text);
    }
}

/// The build report carries a wall-time measurement for every one of
/// the 46 registered datasets, plus every refinement pass.
#[test]
fn build_report_times_every_dataset() {
    let report = built().report();
    assert_eq!(report.dataset_timings.len(), 46);
    // Timings cover exactly the imported datasets, in import order.
    let timed: Vec<&str> = report
        .dataset_timings
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let imported: Vec<&str> = report.datasets.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(timed, imported);
    for (name, d) in &report.dataset_timings {
        assert!(*d > Duration::ZERO, "{name} has no recorded duration");
        assert_eq!(report.dataset_time(name), Some(*d));
    }
    assert_eq!(report.refinement_timings.len(), report.refinement.len());
    assert!(report.total_time >= report.dataset_timings.iter().map(|(_, d)| *d).sum());

    // The --metrics view renders one line per dataset.
    let view = report.render_timings();
    for (name, _) in &report.datasets {
        assert!(
            view.contains(name.as_str()),
            "{name} missing from timings view"
        );
    }
    assert!(view.contains("total build"));
}

/// The Prometheus-style exposition parses line by line: every line is
/// either a `# TYPE` comment or `name[{labels}] value`.
#[test]
fn metrics_exposition_parses_line_by_line() {
    let iyp = built();
    iyp_telemetry::enable();
    // Generate traffic across metric kinds: counters + histograms from
    // the query path, a gauge directly.
    for _ in 0..3 {
        iyp.query("MATCH (a:AS) RETURN count(a)").unwrap();
    }
    iyp_telemetry::gauge("iyp_test_sessions").set(2);
    let text = iyp_telemetry::render();
    iyp_telemetry::disable();

    assert!(text.contains("# TYPE iyp_cypher_queries_total counter"));
    assert!(text.contains("# TYPE iyp_cypher_query_seconds histogram"));
    assert!(text.contains("# TYPE iyp_test_sessions gauge"));

    let mut samples = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("metric name");
            let kind = parts.next().expect("metric kind");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{line}"
            );
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
            assert_eq!(parts.next(), None, "{line}");
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let base = series.split('{').next().unwrap();
        assert!(!base.is_empty(), "{line}");
        assert!(
            base.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "{line}"
        );
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "{line}");
            assert!(series[open..].contains('='), "{line}");
        }
        assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        samples += 1;
    }
    assert!(
        samples >= 4,
        "expected counter, histogram buckets, and gauge samples"
    );

    // At least 3 queries were counted while enabled.
    let snap = iyp_telemetry::snapshot();
    let queries = snap
        .iter()
        .find(|(n, _)| n == "iyp_cypher_queries_total")
        .expect("query counter registered");
    match queries.1 {
        iyp_telemetry::MetricValue::Counter(n) => assert!(n >= 3),
        ref other => panic!("unexpected metric type: {other:?}"),
    }
}

/// The exposition format allows one `# TYPE` line per metric family,
/// with all of the family's series below it. Labelled series of one
/// family (one per dataset, say) must share that line, also when
/// another family's name sorts between them.
#[test]
fn metrics_exposition_types_each_family_once() {
    for dataset in ["a", "b", "c"] {
        iyp_telemetry::histogram(&format!("iyp_test_family_seconds{{dataset=\"{dataset}\"}}"));
    }
    iyp_telemetry::histogram("iyp_test_family_seconds");
    iyp_telemetry::counter("iyp_test_family_seconds_total");
    iyp_telemetry::counter("iyp_test_family_seconds_total{dataset=\"a\"}");
    let text = iyp_telemetry::render();

    let mut families: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("name and kind");
            assert!(
                families.iter().all(|(seen, _)| seen != name),
                "second # TYPE for {name}"
            );
            families.push((name.to_string(), kind.to_string()));
            continue;
        }
        let (family, kind) = families.last().expect("sample before any # TYPE");
        let base = line.split(['{', ' ']).next().unwrap();
        let suffix = base.strip_prefix(family.as_str()).unwrap_or_else(|| {
            panic!("{line:?} sits under the # TYPE of {family}");
        });
        let allowed: &[&str] = if kind == "histogram" {
            &["_bucket", "_sum", "_count"]
        } else {
            &[""]
        };
        assert!(
            allowed.contains(&suffix),
            "{line:?} sits under the # TYPE of {family}"
        );
    }
    for family in ["iyp_test_family_seconds", "iyp_test_family_seconds_total"] {
        assert!(families.iter().any(|(name, _)| name == family), "{family}");
    }
}
