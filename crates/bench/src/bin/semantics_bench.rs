//! Simulator-semantics snapshot: cycles, events, an activity-ledger hash and
//! an output-vector hash for every sim and scenario job of the `--quick`
//! experiment registry, ratcheted like `BENCH_engine.json`.
//!
//! Every number is deterministic, so the snapshot in `BENCH_semantics.json`
//! is an exact-match safety net for hot-path work: a change to the CAM,
//! the load queues or the event handlers that alters any simulated outcome
//! (a cycle, an event, a counter, an output bit) fails `--check`. The fig7
//! CAM-geometry jobs cover the CAM across set and way counts.
//!
//! Per job:
//!
//! * `cycles` — the simulated (or modelled) cycle count.
//! * `events` — events processed by the SpaceA machine (0 for the
//!   analytic GPU/CPU/HBM scenario backends, which have no event loop).
//! * `ledger` — FNV-1a of the machine's activity summary (every counter the
//!   energy model reads; 0 where there is no machine).
//! * `y` — FNV-1a of the output vector's bit patterns.
//!
//! Run:
//!
//! * `semantics_bench` — print the summary.
//! * `semantics_bench --write` — refresh `BENCH_semantics.json`.
//! * `semantics_bench --check BENCH_semantics.json` — fail on any drift from
//!   the snapshot, with a "refresh with --write" hint (CI runs this).

use spacea_arch::{Machine, RunSpec, SimReport};
use spacea_backend::BackendKind;
use spacea_core::experiments::{registry, ExpConfig};
use spacea_harness::exec::execute;
use spacea_harness::job::Fnv;
use spacea_harness::{dedup_jobs, input_vector, JobCtx, JobResult, JobSpec};
use spacea_obs::json::{parse, Json};
use std::time::Instant;

const SNAPSHOT: &str = "BENCH_semantics.json";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    job: String,
    key: String,
    cycles: u64,
    events: u64,
    ledger: u64,
    y: u64,
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
                    eprintln!("semantics_bench: --check needs a snapshot file");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!(
                    "semantics_bench: unknown flag '{other}' (flags: --write | --check FILE)"
                );
                std::process::exit(2);
            }
        }
    }

    let started = Instant::now();
    let entries = measure();
    let events: u64 = entries.iter().map(|e| e.events).sum();
    println!(
        "semantics_bench: {} jobs, {events} events in {:.2}s",
        entries.len(),
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = check {
        check_snapshot(&entries, &path);
        println!("semantics_bench: snapshot {path} matches");
        return;
    }
    if write {
        std::fs::write(SNAPSHOT, snapshot_json(&entries))
            .unwrap_or_else(|e| fail(format!("cannot write {SNAPSHOT}: {e}")));
        println!("semantics_bench: {SNAPSHOT} refreshed");
    }
}

fn fail(msg: String) -> ! {
    eprintln!("semantics_bench: {msg}");
    std::process::exit(1);
}

fn hash_output(y: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for v in y {
        h.f64(*v);
    }
    h.finish()
}

/// The ledger hash folds the activity summary's `Debug` text, so a counter
/// added to the summary joins the snapshot without touching this file.
fn hash_ledger(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.str(&format!("{:?}", r.activity));
    h.finish()
}

fn machine_entry(spec: &JobSpec, r: &SimReport, y: &[f64]) -> Entry {
    Entry {
        job: spec.label(),
        key: spec.key().to_string(),
        cycles: r.cycles,
        events: r.events_processed,
        ledger: hash_ledger(r),
        y: hash_output(y),
    }
}

/// Runs every sim and scenario job of the quick registry, in registry order.
fn measure() -> Vec<Entry> {
    let cfg = ExpConfig::quick();
    let jobs = dedup_jobs(registry().iter().flat_map(|e| (e.jobs)(&cfg)).collect());
    let ctx = JobCtx::new();
    let mut entries = Vec::new();
    for spec in &jobs {
        match spec {
            JobSpec::Gpu { .. } => {}
            JobSpec::Sim { .. } => match execute(spec, &ctx, None) {
                Ok((JobResult::Sim(r), _)) => entries.push(machine_entry(spec, &r, &r.output)),
                Ok(_) => fail(format!("{}: sim job returned a non-sim result", spec.label())),
                Err(e) => fail(format!("{}: {e}", spec.label())),
            },
            // The SpaceA backend is `Machine::run` over the format-aware
            // mapping; run it directly so the cell's events and ledger are
            // pinned too, not just the cycles the backend reports.
            JobSpec::Scenario {
                source, backend: BackendKind::Spacea, format, kind, hw, ..
            } => {
                let a = ctx.matrix(source);
                let mapping = ctx.format_mapping(source, *format, *kind, hw.shape);
                let x = input_vector(a.cols());
                let out = Machine::new(hw.clone())
                    .run(RunSpec::spmv(&a, &x, &mapping))
                    .unwrap_or_else(|e| fail(format!("{}: {e}", spec.label())));
                let y = out.outputs.first().map(Vec::as_slice).unwrap_or_default();
                entries.push(machine_entry(spec, &out.report, y));
            }
            JobSpec::Scenario { .. } => match execute(spec, &ctx, None) {
                Ok((JobResult::Scenario(r), _)) => entries.push(Entry {
                    job: spec.label(),
                    key: spec.key().to_string(),
                    cycles: r.cycles,
                    events: 0,
                    ledger: 0,
                    y: r.y_hash,
                }),
                Ok(_) => {
                    fail(format!("{}: scenario job returned a non-scenario result", spec.label()))
                }
                Err(e) => fail(format!("{}: {e}", spec.label())),
            },
        }
    }
    entries
}

/// One entry per line, so a drift shows up as a readable diff.
fn snapshot_json(entries: &[Entry]) -> String {
    let lines: Vec<String> = entries
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("job", Json::Str(e.job.clone())),
                ("key", Json::Str(e.key.clone())),
                ("cycles", Json::U64(e.cycles)),
                ("events", Json::U64(e.events)),
                ("ledger", Json::U64(e.ledger)),
                ("y", Json::U64(e.y)),
            ])
            .to_text()
        })
        .collect();
    format!("{{\"version\":1,\"entries\":[\n{}\n]}}\n", lines.join(",\n"))
}

fn load_snapshot(path: &str) -> Vec<Entry> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read {path}: {e} (generate it with --write)")));
    let v = parse(&text).unwrap_or_else(|e| fail(format!("{path} is not valid JSON: {e}")));
    let Some(arr) = v.get("entries").and_then(Json::as_arr) else {
        fail(format!("{path} has no \"entries\" array"));
    };
    arr.iter()
        .filter_map(|e| {
            Some(Entry {
                job: e.get("job")?.as_str()?.to_string(),
                key: e.get("key")?.as_str()?.to_string(),
                cycles: e.get("cycles")?.as_u64()?,
                events: e.get("events")?.as_u64()?,
                ledger: e.get("ledger")?.as_u64()?,
                y: e.get("y")?.as_u64()?,
            })
        })
        .collect()
}

/// The ratchet: every job must match its snapshot entry (looked up by job
/// key) exactly; drift in either direction fails with a refresh hint.
fn check_snapshot(entries: &[Entry], path: &str) {
    let old = load_snapshot(path);
    let mut failures = 0usize;
    for e in entries {
        let Some(prev) = old.iter().find(|o| o.key == e.key) else {
            eprintln!(
                "semantics_bench: {path} lacks job {} ({}) — refresh with --write",
                e.job, e.key
            );
            failures += 1;
            continue;
        };
        if e != prev {
            eprintln!(
                "semantics_bench: DRIFT {} ({}): cycles {} events {} ledger {:016x} y {:016x}; \
                 snapshot {} / {} / {:016x} / {:016x} — refresh with --write if intended",
                e.job,
                e.key,
                e.cycles,
                e.events,
                e.ledger,
                e.y,
                prev.cycles,
                prev.events,
                prev.ledger,
                prev.y
            );
            failures += 1;
        }
    }
    if entries.len() != old.len() {
        eprintln!(
            "semantics_bench: job count changed ({} vs {}) — refresh with --write",
            entries.len(),
            old.len()
        );
        failures += 1;
    }
    if failures > 0 {
        fail(format!("{failures} mismatches against {path}"));
    }
}
