//! Wall-clock benchmark of the SpaceA reproduction: the job harness and the
//! serve daemon, driven from outside through their public APIs.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-cold --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! `{"info": ...}` with the host, the sample counts and the raw passes.
//! Any wrong output, failed operation or short sample exits non-zero.
//!
//! # Workloads
//!
//! Each workload repeats a fixed list of operations (a *pass*) until
//! `--seconds` have elapsed and at least 100 operations were timed.
//!
//! * `sweep-cold` — `run_jobs` with 2 workers over fresh result and mapping
//!   caches: the 15 Table I matrices at down-scale 16 × {naive, proposed}
//!   on `HwConfig::scaled()`, 30 simulation jobs per pass. Why: the paper's
//!   core evaluation and the harness in miniature. Stresses the arch event
//!   loop (most of the time), Phase I/II mapping, matrix generation and
//!   the result-cache write. Bypasses TCP transport, the wire codec and the
//!   serve batcher. An operation is one job; `--seed` does not change it.
//! * `serve-submit` — a closed loop of 2 client connections against an
//!   in-process `run_daemon` holding m1, m6 and m13 at down-scale 256.
//!   Both clients walk the same matrix order with seeded request vectors,
//!   so concurrent requests can fuse. Why: a simulation takes milliseconds
//!   here, so the serve layers — transport, line/JSON codec, batcher,
//!   journal append, manifest and timeline writes — are the main cost.
//!   Bypasses upload decoding and Phase I/II (mappings warm at set-up).
//! * `serve-register` — one client uploads MatrixMarket text through
//!   `register-mtx`: m1, m6 and m13 at down-scale 512 (58–91 KB), each
//!   upload under a new seeded symmetric permutation, so every upload is
//!   new content and pays decoding, `Csr::from_mtx` and Phase I/II with a
//!   mapping-store write cold. Why: the write path of the same serve layer
//!   whose read path `serve-submit` measures. Bypasses the simulator.
//!   Each pass uploads to a fresh daemon. Uploads stay this small because
//!   today's wire decoder is quadratic in the upload size.
//!
//!   `BENCHMARK.json` does not list `serve-register`. Its time is mostly
//!   that decoder, which rescans the rest of the upload for every byte,
//!   and that scan is the part of the program most sensitive to busy
//!   co-tenants on a shared host: on a 2-vCPU Xeon VM it ran at half speed
//!   (150 against 77 ms per upload) while the sweep's event loop lost a
//!   sixth (338 against 282 ns per event). Ten runs then spread by about
//!   half their median, more than any bound the benchmark may set. Run it
//!   by hand; its layers are in every traced run.
//!
//! # Metrics
//!
//! With `--trace 0` every workload reports the same end-to-end metrics,
//! tracing off: `setup_s` (median of three set-ups: daemon start,
//! registrations and input generation up to the first pass), `wall_s`
//! (median wall time of one pass), `ops_per_s`, `p50_ms` and `p90_ms`
//! (per-operation latency) and `peak_rss_mb` (VmHWM of this process, which
//! hosts the daemon too). The info line before the result also gives the
//! hypervisor's steal share of CPU time over the run.
//!
//! With `--trace 1` the run covers all three workloads once each, records
//! spans around every layer call from outside the layer, and reports the
//! per-layer split as span self time; see [`layers`]. The same steps also
//! run with the tracer off, so the tracing overhead is reported with them.

mod layers;
mod serve;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Hard stop for a measured phase that cannot reach its minimum sample:
/// the run must end well inside the three-minute limit.
pub const MAX_MEASURE: Duration = Duration::from_secs(120);

/// Where runtime files go, relative to the repository root the benchmark
/// runs from. It is git-ignored and shared with the build output.
pub const OUT_DIR: &str = ".bench_build/perfbench";

/// One metric as printed.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The untraced measurement of one workload.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each set-up, s.
    pub setups: Vec<f64>,
    /// Wall time of each pass, s.
    pub passes: Vec<f64>,
    /// Operations in one pass.
    pub ops_per_pass: usize,
    /// Latency of every timed operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were rejected with a code.
    pub failed: u64,
    /// Output checks that failed, described.
    pub mismatches: Vec<String>,
}

/// What the checked run of a workload found, for the result line.
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks that failed.
    pub mismatches: Vec<String>,
    /// Extra JSON fields for the info line.
    pub info: Vec<(String, String)>,
}

/// Keeps going while the pass loop is short of time or of samples.
pub fn keep_measuring(started: Instant, seconds: f64, samples: usize) -> bool {
    let elapsed = started.elapsed();
    elapsed < MAX_MEASURE && (elapsed.as_secs_f64() < seconds || samples < stats::MIN_SAMPLES)
}

/// splitmix64: the benchmark's one source of seeded inputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed derived from the workload seed and a path of indices.
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(mix(seed), |acc, &p| mix(acc ^ mix(p)))
}

/// Peak resident set of this process, MB (VmHWM).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Ticks the hypervisor gave to other guests (steal) and all ticks, from
/// the first line of `/proc/stat`. Their share over a run shows when the
/// host, not the code, made the run slow.
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON array of numbers.
pub fn num_array(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(","))
}

/// The end-to-end metrics of an untraced measurement.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    if m.passes.is_empty() {
        return Err("no pass completed".into());
    }
    let total: f64 = m.passes.iter().sum();
    let ops = (m.passes.len() * m.ops_per_pass) as f64;
    Ok(vec![
        Metric::new("setup_s", stats::median(&m.setups), "s"),
        Metric::new("wall_s", stats::median(&m.passes), "s"),
        Metric::new("ops_per_s", ops / total, "1/s"),
        Metric::new("p50_ms", stats::percentile(&m.latencies_ms, 0.5)?, "ms"),
        Metric::new("p90_ms", stats::percentile(&m.latencies_ms, stats::TAIL_Q)?, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Removes the run's working directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload sweep-cold|serve-submit|serve-register \
    --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 35.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !["sweep-cold", "serve-submit", "serve-register"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    if args.trace {
        return layers::run(args.seed, work);
    }
    let m = match args.workload.as_str() {
        "sweep-cold" => sweep::measure(args.seconds, work)?,
        "serve-submit" => serve::measure_submit(args.seed, args.seconds, work)?,
        _ => serve::measure_register(args.seed, args.seconds, work)?,
    };
    let info = vec![
        ("passes".to_string(), num_array(&m.passes)),
        ("setups".to_string(), num_array(&m.setups)),
        ("samples".to_string(), m.latencies_ms.len().to_string()),
    ];
    Ok(Outcome {
        metrics: end_to_end(&m)?,
        attempted: m.attempted,
        failed: m.failed,
        mismatches: m.mismatches,
        info,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let ticks_before = steal_ticks();
    let outcome = match run(&args, &work.0) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.mismatches {
        eprintln!("perfbench: output check failed: {m}");
    }
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", bad.name);
        return ExitCode::FAILURE;
    }

    let steal_share = match (ticks_before, steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    let mut info = vec![
        ("workload".to_string(), quote(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        (
            "available_parallelism".to_string(),
            std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
        ),
        ("cpu".to_string(), quote(&cpu_model())),
        ("rustc".to_string(), quote(env!("PERFBENCH_RUSTC"))),
        ("steal_share".to_string(), steal_share),
    ];
    info.extend(outcome.info);
    let info: Vec<String> = info.iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect();
    println!("{{\"info\":{{{}}}}}", info.join(","));

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("{}:{{\"value\":{},\"unit\":{}}}", quote(&m.name), m.value, quote(m.unit)))
        .collect();
    let correct = outcome.mismatches.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
