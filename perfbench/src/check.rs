//! Output checks: per-cell digests, the Figure 6 oracle and the
//! checked-in goldens.

use snoc_common::fingerprint::{fnv1a_64, Fingerprint};
use snoc_core::cellcache::encode_metrics;
use snoc_core::RunMetrics;
use std::collections::BTreeMap;

/// Per-cell digests of the Quick Figure 6 grid at the default seed, as
/// `label digest` lines in grid order.
const QUICK_GOLDENS: &str = include_str!("../goldens/fig6_quick.txt");

/// The digest of one cell's metrics: FNV-1a-64 of the cell codec's
/// value lines. The header, key and checksum lines are left out, so
/// the digest pins every simulated value bit for bit but not the
/// codec's schema or version tags.
pub fn cell_digest(m: &RunMetrics, key: Fingerprint) -> String {
    let text = encode_metrics(m, key);
    let body: Vec<&str> = text
        .lines()
        .skip(2)
        .filter(|l| !l.starts_with("checksum "))
        .collect();
    format!("{:016x}", fnv1a_64(body.join("\n").as_bytes()))
}

/// The checked-in Quick grid goldens, label → digest.
pub fn quick_goldens() -> BTreeMap<String, String> {
    QUICK_GOLDENS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (label, digest) = l.split_once(' ')?;
            Some((label.to_string(), digest.trim().to_string()))
        })
        .collect()
}

/// The `tpcc` row of the checked-in `results/fig6.csv`, as the six
/// printed values.
///
/// # Errors
///
/// Returns a message when the file is missing or has no `tpcc` row.
pub fn fig6_tpcc_oracle() -> Result<Vec<String>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig6.csv");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("tpcc,"))
        .map(|row| row.split(',').map(str::to_string).collect())
        .ok_or_else(|| format!("{path} has no tpcc row"))
}

/// What each unit of work is checked against.
///
/// At the default seed a unit is held to the checked-in reference; at
/// any seed every unit must also reproduce the first unit's digests
/// exactly.
#[derive(Debug, Default)]
pub struct Expect {
    /// Reference digests by cell label (empty: none apply).
    pub golden: BTreeMap<String, String>,
    /// The first unit's digests, by cell label.
    pub first: BTreeMap<String, String>,
}

impl Expect {
    /// Checks one cell's digest; returns a description of every
    /// disagreement. The first time a label is seen its digest becomes
    /// the reference for later units.
    pub fn check(&mut self, label: &str, digest: &str) -> Vec<String> {
        let mut bad = Vec::new();
        if let Some(g) = self.golden.get(label) {
            if g != digest {
                bad.push(format!("{label}: digest {digest} != golden {g}"));
            }
        }
        match self.first.get(label) {
            Some(f) if f != digest => bad.push(format!(
                "{label}: digest {digest} != first run's {f} (nondeterministic)"
            )),
            Some(_) => {}
            None => {
                self.first.insert(label.to_string(), digest.to_string());
            }
        }
        bad
    }

    /// Corrupts one expected digest so the self-test can show that a
    /// disagreement is caught.
    pub fn perturb(&mut self) {
        if let Some(v) = self.golden.values_mut().next() {
            v.replace_range(0..1, if v.starts_with('0') { "1" } else { "0" });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_cover_the_quick_grid() {
        assert_eq!(quick_goldens().len(), 54);
    }

    #[test]
    fn oracle_row_has_six_values() {
        let row = fig6_tpcc_oracle().expect("results/fig6.csv is checked in");
        assert_eq!(row.len(), 6);
        assert_eq!(row[0], "1.000000");
    }

    #[test]
    fn perturbed_golden_is_caught() {
        let mut e = Expect {
            golden: [("a".to_string(), "0123".to_string())].into(),
            first: BTreeMap::new(),
        };
        assert!(e.check("a", "0123").is_empty());
        e.perturb();
        assert_eq!(e.check("a", "0123").len(), 1);
        // A later unit disagreeing with the first is caught too.
        assert_eq!(e.check("b", "x").len(), 0);
        assert_eq!(e.check("b", "y").len(), 1);
    }
}
