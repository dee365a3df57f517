//! `all_experiments --only` contracts: each selected registry entry prints
//! exactly its section of the full run, several entries print in registry
//! order whatever the order given, and an unknown id is a usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cache_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spacea-bench-only-{tag}-{}", std::process::id()))
}

/// Runs `all_experiments --quick --no-cache --csv` plus `extra`, with the
/// run manifest kept out of the source tree.
fn run(tag: &str, extra: &[&str]) -> Output {
    let dir = cache_dir(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(["--quick", "--no-cache", "--csv", "--jobs", "2", "--cache-dir"])
        .arg(&dir)
        .args(extra)
        .output()
        .expect("all_experiments runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn stdout_of(tag: &str, extra: &[&str]) -> String {
    let out = run(tag, extra);
    assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn only_prints_each_registry_section_of_the_full_run_in_registry_order() {
    let full = stdout_of("full", &[]);
    let mut offset = 0;
    let mut sections = std::collections::HashMap::new();
    for e in spacea_core::experiments::registry() {
        let section = stdout_of(e.id, &["--only", e.id]);
        assert!(!section.is_empty(), "--only {} printed nothing", e.id);
        assert!(
            full[offset..].starts_with(&section),
            "--only {} differs from its section of the full run",
            e.id
        );
        offset += section.len();
        sections.insert(e.id, section);
    }
    assert_eq!(offset, full.len(), "the full run prints more than its sections");

    let pair = stdout_of("pair", &["--only", "fig5,table1"]);
    assert_eq!(pair, format!("{}{}", sections["table1"], sections["fig5"]));
}

#[test]
fn an_unknown_only_id_exits_2_listing_the_valid_ids() {
    let out = run("bogus", &["--only", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id 'bogus'"), "{stderr}");
    assert!(stderr.contains("table1, fig2, fig5"), "{stderr}");
}
