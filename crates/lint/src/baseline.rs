//! The ratcheting baseline: pre-existing debt, committed and only shrinking.
//!
//! A baseline is a JSON file mapping `(rule, file)` to a violation count.
//! Keying on counts rather than line numbers keeps the file stable under
//! unrelated edits (adding a line above an old unwrap must not fail CI)
//! while still catching every *new* violation: a check fails as soon as any
//! `(rule, file)` count exceeds its baselined value, or a violation appears
//! in a file with no baseline entry. [`compare`] implements the CI ratchet:
//! the committed baseline may never grow between revisions.

use crate::rules::Violation;
use spacea_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Format marker written into every baseline file.
pub const SCHEMA: &str = "spacea-lint-baseline-v1";

/// A committed (or freshly scanned) violation census.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(rule name, file)` → violation count. Sorted, so serialization is
    /// byte-stable.
    pub entries: BTreeMap<(String, String), u64>,
}

impl Baseline {
    /// Builds a baseline from a scan's violations.
    pub fn from_violations(violations: &[Violation]) -> Self {
        let mut entries: BTreeMap<(String, String), u64> = BTreeMap::new();
        for v in violations {
            *entries.entry((v.rule.name().to_string(), v.file.clone())).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Total violation count across all entries.
    pub fn total(&self) -> u64 {
        self.entries.values().sum()
    }

    /// The baselined count for `(rule, file)`.
    pub fn count(&self, rule: &str, file: &str) -> u64 {
        self.entries.get(&(rule.to_string(), file.to_string())).copied().unwrap_or(0)
    }

    /// Serializes to the committed JSON format (sorted entries, trailing
    /// newline, byte-stable for identical censuses).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"total\": {},", self.total());
        let _ = writeln!(out, "  \"entries\": [");
        let n = self.entries.len();
        for (i, ((rule, file), count)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"count\": {}}}{}",
                json::escape(rule),
                json::escape(file),
                count,
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a baseline document produced by [`Baseline::to_json`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        match root.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unknown baseline schema {other:?}")),
            None => return Err("missing \"schema\" field".into()),
        }
        let list = root.get("entries").and_then(Json::as_arr).ok_or("missing \"entries\"")?;
        let mut entries = BTreeMap::new();
        for (i, e) in list.iter().enumerate() {
            let rule = e
                .get("rule")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("entry {i}: missing \"rule\""))?;
            let file = e
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("entry {i}: missing \"file\""))?;
            let count = e
                .get("count")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("entry {i}: missing \"count\""))?;
            if count < 1.0 || count != count.trunc() {
                return Err(format!("entry {i}: count must be a positive integer"));
            }
            if entries.insert((rule.to_string(), file.to_string()), count as u64).is_some() {
                return Err(format!("entry {i}: duplicate key ({rule}, {file})"));
            }
        }
        let parsed = Baseline { entries };
        if let Some(total) = root.get("total").and_then(Json::as_num) {
            if total as u64 != parsed.total() {
                return Err(format!(
                    "total {} does not match the sum of entries ({})",
                    total,
                    parsed.total()
                ));
            }
        }
        Ok(parsed)
    }
}

/// The verdict of checking a scan against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Violations beyond the baselined count, grouped per `(rule, file)`:
    /// `(rule, file, current, baselined)`. Any entry fails the check.
    pub regressions: Vec<(String, String, u64, u64)>,
    /// Baseline entries whose current count shrank (or vanished):
    /// `(rule, file, current, baselined)`. Informational — run
    /// `--update-baseline` to ratchet them down.
    pub stale: Vec<(String, String, u64, u64)>,
}

impl CheckReport {
    /// True when no `(rule, file)` count grew past its baseline.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Checks `current` violations against `baseline`.
pub fn check_against(current: &[Violation], baseline: &Baseline) -> CheckReport {
    let now = Baseline::from_violations(current);
    let mut report = CheckReport::default();
    for (key, &count) in &now.entries {
        let base = baseline.entries.get(key).copied().unwrap_or(0);
        if count > base {
            report.regressions.push((key.0.clone(), key.1.clone(), count, base));
        }
    }
    for (key, &base) in &baseline.entries {
        let count = now.entries.get(key).copied().unwrap_or(0);
        if count < base {
            report.stale.push((key.0.clone(), key.1.clone(), count, base));
        }
    }
    report
}

/// The CI ratchet: `new` may not grow relative to `old` — no new `(rule,
/// file)` keys, no per-key count increases, no total increase. Returns the
/// violated constraints.
pub fn compare(old: &Baseline, new: &Baseline) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, &count) in &new.entries {
        match old.entries.get(key) {
            None => problems
                .push(format!("new baseline entry ({}, {}) with count {count}", key.0, key.1)),
            Some(&base) if count > base => problems
                .push(format!("baseline entry ({}, {}) grew {base} -> {count}", key.0, key.1)),
            Some(_) => {}
        }
    }
    if new.total() > old.total() {
        problems.push(format!("baseline total grew {} -> {}", old.total(), new.total()));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn v(rule: RuleId, file: &str, line: u32) -> Violation {
        Violation { rule, file: file.into(), line, what: "x".into() }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let vs = vec![
            v(RuleId::R1, "crates/a/src/lib.rs", 3),
            v(RuleId::R1, "crates/a/src/lib.rs", 9),
            v(RuleId::D1, "crates/b/src/lib.rs", 1),
        ];
        let b = Baseline::from_violations(&vs);
        assert_eq!(b.total(), 3);
        assert_eq!(b.count("R1", "crates/a/src/lib.rs"), 2);
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        // Byte-stable: same census, same serialization.
        assert_eq!(parsed.to_json(), b.to_json());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"schema\": \"wrong\", \"entries\": []}").is_err());
        let bad_total = format!(
            "{{\"schema\": \"{SCHEMA}\", \"total\": 9, \"entries\": [{{\"rule\": \"R1\", \"file\": \"f\", \"count\": 1}}]}}"
        );
        assert!(Baseline::parse(&bad_total).is_err());
        let dup = format!(
            "{{\"schema\": \"{SCHEMA}\", \"entries\": [{{\"rule\": \"R1\", \"file\": \"f\", \"count\": 1}}, {{\"rule\": \"R1\", \"file\": \"f\", \"count\": 2}}]}}"
        );
        assert!(Baseline::parse(&dup).is_err());
    }

    #[test]
    fn check_flags_only_counts_beyond_baseline() {
        let base = Baseline::from_violations(&[v(RuleId::R1, "f.rs", 1), v(RuleId::R1, "f.rs", 2)]);
        // Same count, different lines: still covered (line churn tolerated).
        let moved = [v(RuleId::R1, "f.rs", 10), v(RuleId::R1, "f.rs", 20)];
        assert!(check_against(&moved, &base).ok());
        // One extra in the same file: regression.
        let extra = [v(RuleId::R1, "f.rs", 1), v(RuleId::R1, "f.rs", 2), v(RuleId::R1, "f.rs", 3)];
        let report = check_against(&extra, &base);
        assert!(!report.ok());
        assert_eq!(report.regressions, vec![("R1".into(), "f.rs".into(), 3, 2)]);
        // A new file is a regression even with an empty current file list.
        let fresh = [v(RuleId::D1, "g.rs", 1)];
        assert!(!check_against(&fresh, &base).ok());
    }

    #[test]
    fn check_reports_shrunk_entries_as_stale() {
        let base = Baseline::from_violations(&[v(RuleId::R1, "f.rs", 1), v(RuleId::R1, "f.rs", 2)]);
        let report = check_against(&[v(RuleId::R1, "f.rs", 1)], &base);
        assert!(report.ok());
        assert_eq!(report.stale, vec![("R1".into(), "f.rs".into(), 1, 2)]);
    }

    #[test]
    fn ratchet_rejects_growth() {
        let old = Baseline::from_violations(&[v(RuleId::R1, "f.rs", 1), v(RuleId::R1, "f.rs", 2)]);
        let shrunk = Baseline::from_violations(&[v(RuleId::R1, "f.rs", 1)]);
        assert!(compare(&old, &shrunk).is_empty());
        assert!(compare(&old, &old).is_empty());
        let grown = Baseline::from_violations(&[
            v(RuleId::R1, "f.rs", 1),
            v(RuleId::R1, "f.rs", 2),
            v(RuleId::R1, "f.rs", 3),
        ]);
        assert!(!compare(&old, &grown).is_empty());
        let new_file =
            Baseline::from_violations(&[v(RuleId::R1, "f.rs", 1), v(RuleId::D1, "g.rs", 1)]);
        assert!(!compare(&old, &new_file).is_empty());
    }
}
