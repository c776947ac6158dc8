//! The benchmark's own checks: seeded inputs repeat, counters repeat,
//! and the metric catalogue fits the limits and matches
//! `BENCHMARK.json`. (A wrong reply counted as a failed operation is
//! checked beside the reference in `src/svc.rs`.)

use gsim_perfbench::report::{END_TO_END, PER_LAYER};
use gsim_perfbench::{svc, xs, WORKLOADS};

#[test]
fn the_same_seed_gives_the_same_inputs() {
    assert_eq!(xs::inputs(7, 6), xs::inputs(7, 6));
    assert_eq!(svc::steps(7), svc::steps(7));
}

#[test]
fn another_seed_gives_other_stimulus() {
    let (a, b) = (xs::inputs(1, 6), xs::inputs(2, 6));
    assert_ne!(a.frames, b.frames);
    assert_ne!(a.steps, b.steps);
    assert_ne!(svc::steps(1), svc::steps(2));
}

#[test]
fn the_same_seed_gives_the_same_counters() {
    let (first, ops) = svc::prefix_counters(5);
    let (second, _) = svc::prefix_counters(5);
    assert_eq!(first.len(), 4);
    assert_eq!(first, second);
    assert_eq!(ops.failed, 0);
    assert!(ops.attempted > 4 * 2048, "every prefix reply was checked");
    assert!(first
        .iter()
        .all(|c| c.cycles == first[0].cycles && c.node_evals > 0));
    let (other, _) = svc::prefix_counters(6);
    assert_ne!(first[0], other[0], "another seed drives other cycles");
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_fit_the_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = std::collections::BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name), "{name} is listed twice");
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

/// `(name, unit)` pairs of the metric objects in one section of
/// `BENCHMARK.json`, which lists one metric per line.
fn listed(section: &str) -> Vec<(String, String)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    section
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer = text.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e < layer, "end_to_end is listed before per_layer");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&text[e2e..layer]), own(END_TO_END));
    assert_eq!(listed(&text[layer..]), own(PER_LAYER));
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
            "{w} is listed"
        );
    }
}
