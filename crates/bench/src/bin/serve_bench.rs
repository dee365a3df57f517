//! Service throughput benchmark: cycles/request and requests/sec as a
//! function of fused batch width.
//!
//! Drives the [`spacea_serve::ServeEngine`] directly (no TCP, no queue
//! jitter) so the cycle numbers are exactly the simulator's and therefore
//! deterministic: the snapshot in `BENCH_serve.json` is a ratchet the same
//! way `lint-baseline.json` is. Run:
//!
//! * `serve_bench` — print the table and assert batching amortizes
//!   (cycles/request at batch 16 below batch 1).
//! * `serve_bench --write` — refresh `BENCH_serve.json`.
//! * `serve_bench --check BENCH_serve.json` — fail on any cycle regression
//!   against the snapshot; improvements also fail, with a "refresh with
//!   --write" hint, so the snapshot always matches HEAD (CI runs this).

use spacea_obs::json::{parse, Json};
use spacea_serve::{seeded_vector, ServeConfig, ServeEngine};
use std::time::Instant;

const MATRICES: [(u8, usize); 2] = [(1, 256), (3, 256)];
const BATCHES: [usize; 3] = [1, 4, 16];

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    matrix: String,
    batch: usize,
    cycles: u64,
}

fn main() {
    let mut write = false;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => write = true,
            "--check" => {
                check = Some(args.next().unwrap_or_else(|| {
                    eprintln!("serve_bench: --check needs a snapshot file");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("serve_bench: unknown flag '{other}' (flags: --write | --check FILE)");
                std::process::exit(2);
            }
        }
    }

    let entries = measure();
    if let Some(path) = check {
        check_snapshot(&entries, &path);
        println!("serve_bench: snapshot {path} matches");
        return;
    }
    if write {
        std::fs::write("BENCH_serve.json", snapshot_json(&entries)).unwrap_or_else(|e| {
            eprintln!("serve_bench: cannot write BENCH_serve.json: {e}");
            std::process::exit(1);
        });
        println!("serve_bench: BENCH_serve.json refreshed");
    }
}

/// Runs the grid and prints the table; asserts batching amortizes.
fn measure() -> Vec<Entry> {
    let cache_dir = std::path::PathBuf::from("target/spacea-serve-bench");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let engine = ServeEngine::new(ServeConfig::quick(&cache_dir));
    let mut entries = Vec::new();
    println!(
        "{:<8} {:>6} {:>12} {:>14} {:>12}",
        "matrix", "batch", "cycles", "cycles/req", "req/s"
    );
    for (id, scale) in MATRICES {
        let info = engine.register_suite(id, scale).unwrap_or_else(|e| {
            eprintln!("serve_bench: register m{id}/{scale} failed: {e}");
            std::process::exit(1);
        });
        let label = format!("m{id}/{scale}");
        let mut cpr_first = f64::NAN;
        let mut cpr_last = f64::NAN;
        for batch in BATCHES {
            let xs: Vec<Vec<f64>> =
                (0..batch as u64).map(|s| seeded_vector(info.cols, s)).collect();
            let wall = Instant::now();
            let rep = engine.run_batch(info.key, &xs).unwrap_or_else(|e| {
                eprintln!("serve_bench: {label} batch {batch} failed: {e}");
                std::process::exit(1);
            });
            let elapsed = wall.elapsed().as_secs_f64();
            let cycles = rep.report.cycles;
            let cpr = cycles as f64 / batch as f64;
            // requests/sec is host wall clock — informational only, never
            // part of the deterministic snapshot.
            let rps = batch as f64 / elapsed.max(1e-9);
            println!("{label:<8} {batch:>6} {cycles:>12} {cpr:>14.1} {rps:>12.1}");
            if batch == BATCHES[0] {
                cpr_first = cpr;
            }
            cpr_last = cpr;
            entries.push(Entry { matrix: label.clone(), batch, cycles });
        }
        if cpr_last >= cpr_first {
            eprintln!(
                "serve_bench: {label}: batching failed to amortize \
                 ({cpr_last:.1} cycles/req fused vs {cpr_first:.1} solo)"
            );
            std::process::exit(1);
        }
    }
    entries
}

fn snapshot_json(entries: &[Entry]) -> String {
    let arr = entries
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("matrix", Json::Str(e.matrix.clone())),
                ("batch", Json::U64(e.batch as u64)),
                ("cycles", Json::U64(e.cycles)),
            ])
        })
        .collect();
    let mut text =
        Json::obj(vec![("version", Json::U64(1)), ("entries", Json::Arr(arr))]).to_text();
    text.push('\n');
    text
}

fn load_snapshot(path: &str) -> Vec<Entry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("serve_bench: cannot read {path}: {e} (generate it with --write)");
        std::process::exit(1);
    });
    let v = parse(&text).unwrap_or_else(|e| {
        eprintln!("serve_bench: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let Some(arr) = v.get("entries").and_then(Json::as_arr) else {
        eprintln!("serve_bench: {path} has no \"entries\" array");
        std::process::exit(1);
    };
    arr.iter()
        .filter_map(|e| {
            Some(Entry {
                matrix: e.get("matrix")?.as_str()?.to_string(),
                batch: e.get("batch")?.as_u64()? as usize,
                cycles: e.get("cycles")?.as_u64()?,
            })
        })
        .collect()
}

/// The ratchet: HEAD must match the snapshot exactly. Regressions fail
/// outright; improvements fail too, with a refresh hint, so the committed
/// snapshot always documents the current cost.
fn check_snapshot(entries: &[Entry], path: &str) {
    let old = load_snapshot(path);
    let mut failures = 0usize;
    for e in entries {
        let Some(prev) = old.iter().find(|o| o.matrix == e.matrix && o.batch == e.batch) else {
            eprintln!(
                "serve_bench: {path} lacks {}/batch {} — refresh with --write",
                e.matrix, e.batch
            );
            failures += 1;
            continue;
        };
        if e.cycles > prev.cycles {
            eprintln!(
                "serve_bench: REGRESSION {} batch {}: {} cycles, snapshot {}",
                e.matrix, e.batch, e.cycles, prev.cycles
            );
            failures += 1;
        } else if e.cycles < prev.cycles {
            eprintln!(
                "serve_bench: improvement {} batch {}: {} cycles, snapshot {} — refresh with --write",
                e.matrix, e.batch, e.cycles, prev.cycles
            );
            failures += 1;
        }
    }
    if entries.len() != old.len() {
        eprintln!(
            "serve_bench: entry count changed ({} vs {}) — refresh with --write",
            entries.len(),
            old.len()
        );
        failures += 1;
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
