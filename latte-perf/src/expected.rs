//! `expected.txt`: the seed-0 output digests every run is checked against.
//!
//! One line per digest: `<workload> <key...> <32 hex digits>`, where the
//! key is `<policy> <benchmark>` for a simulation and `csv:<name>` for a
//! CSV the sweep writes. `latte-perf bless` regenerates the file.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Digests by `"<workload> <key>"`.
pub type Expected = BTreeMap<String, u128>;

pub fn path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt"))
}

pub fn parse(text: &str) -> Result<Expected, String> {
    let mut out = Expected::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, hex) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("expected.txt:{}: no digest", n + 1))?;
        let digest = u128::from_str_radix(hex, 16)
            .map_err(|e| format!("expected.txt:{}: bad digest {hex}: {e}", n + 1))?;
        out.insert(key.to_owned(), digest);
    }
    Ok(out)
}

/// Reads the committed expectations.
pub fn load() -> Result<Expected, String> {
    let file = path();
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    parse(&text)
}

pub fn render(expected: &Expected) -> String {
    let mut out = String::from(
        "# latte-perf output digests at --seed 0; regenerate with `latte-perf bless`.\n",
    );
    for (key, digest) in expected {
        out.push_str(&format!("{key} {digest:032x}\n"));
    }
    out
}

/// Writes the expectations next to the manifest, through a temp file
/// renamed over the old one.
pub fn store(expected: &Expected) -> Result<PathBuf, String> {
    let file = path();
    crate::run::write_atomic(&file, &render(expected))?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let mut e = Expected::new();
        e.insert("csens-adaptive LATTE-CC SS".to_owned(), 0xabc);
        e.insert(
            "sweep-fig17 csv:fig17_adaptive_comparison".to_owned(),
            u128::MAX,
        );
        assert_eq!(parse(&render(&e)), Ok(e));
        assert!(parse("w p b zz").is_err());
    }

    #[test]
    fn committed_file_parses() {
        let expected = load().unwrap_or_default();
        for w in &crate::workload::WORKLOADS {
            let prefix = format!("{} ", w.name);
            assert!(
                expected.keys().any(|k| k.starts_with(&prefix)),
                "expected.txt has no digests for {}",
                w.name
            );
        }
    }
}
