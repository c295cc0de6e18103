//! Shared helpers for the studies.

use iyp_cypher::{Params, ResultSet, RtVal, Statement};
use iyp_graph::Graph;

/// Runs a query, panicking with the query text on error (studies are
/// library code over a graph we built; a failure is a programming bug).
pub fn run(graph: &Graph, q: &str) -> ResultSet {
    run_with(graph, q, &Params::new())
}

/// Runs a query with parameters.
pub fn run_with(graph: &Graph, q: &str, params: &Params) -> ResultSet {
    Statement::prepare(q)
        .and_then(|s| s.params(params).run(graph))
        .unwrap_or_else(|e| panic!("query failed: {e}\n{q}"))
}

/// Extracts a string column value.
pub fn get_str(v: &RtVal) -> Option<String> {
    v.as_scalar()?.as_str().map(String::from)
}

/// Extracts an integer column value.
pub fn get_int(v: &RtVal) -> Option<i64> {
    v.as_scalar()?.as_int()
}

/// Extracts a list-of-strings column value (from `collect(...)`).
pub fn get_str_list(v: &RtVal) -> Vec<String> {
    v.as_list()
        .map(|items| items.iter().filter_map(get_str).collect())
        .unwrap_or_default()
}

/// Percentage helper.
pub fn pct(part: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Median of a slice of counts (0 for empty input).
pub fn median(values: &mut [usize]) -> usize {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

/// The TLD (last label) of a domain name.
pub fn tld_of(domain: &str) -> &str {
    domain.rsplit('.').next().unwrap_or(domain)
}

/// The registered (second-level) domain of a hostname.
pub fn registered_domain(host: &str) -> Option<String> {
    let labels: Vec<&str> = host.split('.').filter(|l| !l.is_empty()).collect();
    if labels.len() < 2 {
        return None;
    }
    Some(labels[labels.len() - 2..].join("."))
}

/// The /24 (or /64 for IPv6) aggregate of an IP address, as text — the
/// grouping unit of the original DNS robustness study.
pub fn slash24_of(ip: &str) -> Option<String> {
    let addr: std::net::IpAddr = ip.parse().ok()?;
    let p = match addr {
        std::net::IpAddr::V4(_) => iyp_netdata::Prefix::new(addr, 24).ok()?,
        std::net::IpAddr::V6(_) => iyp_netdata::Prefix::new(addr, 64).ok()?,
    };
    Some(p.canonical())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_median() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
        assert_eq!(median(&mut []), 0);
        assert_eq!(median(&mut [5]), 5);
        assert_eq!(median(&mut [3, 1, 2]), 2);
        assert_eq!(median(&mut [4, 1, 2, 3]), 3);
    }

    #[test]
    fn name_helpers() {
        assert_eq!(tld_of("a.b.com"), "com");
        assert_eq!(
            registered_domain("ns1.example.org"),
            Some("example.org".into())
        );
        assert_eq!(registered_domain("org"), None);
        assert_eq!(slash24_of("192.0.2.77"), Some("192.0.2.0/24".into()));
        assert_eq!(slash24_of("2001:db8::1"), Some("2001:db8::/64".into()));
        assert_eq!(slash24_of("garbage"), None);
    }
}
