//! The epoch-barrier arbiter only ever touches state the symbol-graph
//! lint already classifies as `shared` — nothing the lint believes is
//! per-SM is reachable from the barrier. This pins the honesty of the
//! S1 partition report: [`latte_gpusim::ARBITER_SHARED_FIELDS`]
//! enumerates every (owner, field) the arbiter drains at the barrier,
//! and each one must appear in `results/lint_partition.json` with
//! `class: "shared"`. Regenerate the report with `cargo run -p
//! latte-lint` if this fails after a refactor.

use std::path::Path;

/// Extracts the `class` value of the partition entry for `(owner,
/// field)`. The report is written by our own lint with a fixed key
/// order (`owner`, `field`, ..., `class`, ...) and no nested objects
/// inside an entry, so a plain substring scan is reliable and keeps
/// this crate free of a JSON dependency.
fn class_of(report: &str, owner: &str, field: &str) -> Option<String> {
    let needle = format!("\"owner\":\"{owner}\",\"field\":\"{field}\"");
    let start = report.find(&needle)?;
    let entry = &report[start..start + report[start..].find('}')?];
    let class = entry.split("\"class\":\"").nth(1)?;
    Some(class[..class.find('"')?].to_owned())
}

#[test]
fn every_arbiter_touched_field_is_classified_shared_by_the_lint() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/lint_partition.json");
    let report = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate it with `cargo run -p latte-lint`",
            path.display()
        )
    });
    assert!(
        report.contains("\"clean\":true"),
        "the partition report records lint violations; fix them first"
    );
    assert!(
        !latte_gpusim::ARBITER_SHARED_FIELDS.is_empty(),
        "the arbiter's shared-field manifest must not be empty"
    );
    for &(owner, field) in latte_gpusim::ARBITER_SHARED_FIELDS {
        let class = class_of(&report, owner, field)
            .unwrap_or_else(|| panic!("{owner}.{field} is missing from the partition report"));
        assert_eq!(
            class, "shared",
            "{owner}.{field} is drained by the epoch-barrier arbiter but the \
             lint classifies it as `{class}` — the partition report and \
             ARBITER_SHARED_FIELDS have drifted apart"
        );
    }
}
