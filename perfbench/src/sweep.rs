//! The `sweep-cold` workload: cold 30-job harness sweeps, checked bitwise
//! against `Csr::spmv` and against the pinned simulator semantics.

use crate::stats::{Span, Tracer};
use crate::{keep_measuring, Measured};
use spacea_arch::{HwConfig, Machine, RunSpec, SimReport};
use spacea_harness::{
    input_vector, run_jobs, JobCtx, JobRecord, JobResult, JobSpec, JobStatus, MatrixSource,
    ResultStore,
};
use spacea_mapping::MapKind;
use spacea_matrix::{suite, Csr};
use spacea_model::EnergyParams;
use spacea_serve::vec_hash;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Down-scale factor of every suite matrix in the sweep.
pub const SCALE: usize = 16;

/// Harness worker threads.
pub const WORKERS: usize = 2;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Pinned per-job cycles and output hashes. A change that is meant only to
/// speed the simulator up must leave every line identical. When a pass
/// disagrees, its own values are written to [`observed_path`]; a
/// deliberate change of modelled semantics copies that file over this one.
const PINS: &str = include_str!("../pins/sweep-cold.txt");

fn observed_path() -> std::path::PathBuf {
    Path::new(crate::OUT_DIR).join("sweep-cold.observed.txt")
}

/// The 30 jobs: every Table I matrix × {naive, proposed}.
pub fn jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for entry in suite::entries() {
        for kind in [MapKind::Naive, MapKind::Proposed] {
            jobs.push(JobSpec::Sim {
                source: MatrixSource::Suite { id: entry.id, scale: SCALE },
                kind,
                hw: HwConfig::scaled(),
                energy: EnergyParams::default(),
            });
        }
    }
    jobs
}

fn suite_id(spec: &JobSpec) -> u8 {
    match spec.source() {
        MatrixSource::Suite { id, .. } => *id,
        MatrixSource::Graph { .. } => unreachable!("the sweep holds suite matrices only"),
    }
}

/// Generated inputs and reference outputs, by suite id.
pub struct Inputs {
    refs: BTreeMap<u8, Vec<f64>>,
    nnz: BTreeMap<u8, usize>,
    pins: Pins,
}

/// Generates every matrix and its reference output `count` times, timing
/// each.
pub fn setup(setups: &mut Vec<f64>, count: usize) -> Result<Inputs, String> {
    let pins = Pins::parse(PINS)?;
    let mut inputs = None;
    for _ in 0..count {
        let t = Instant::now();
        let mut refs = BTreeMap::new();
        let mut nnz = BTreeMap::new();
        for entry in suite::entries() {
            let a = entry.generate(SCALE);
            refs.insert(entry.id, a.spmv(&input_vector(a.cols())));
            nnz.insert(entry.id, a.nnz());
        }
        setups.push(t.elapsed().as_secs_f64());
        inputs = Some(Inputs { refs, nnz, pins: pins.clone() });
    }
    inputs.ok_or_else(|| "no set-up ran".into())
}

/// The pinned semantics: per-job `(cycles, output hash)` plus Σcycles.
#[derive(Clone, Default)]
struct Pins {
    jobs: BTreeMap<String, (u64, u64)>,
    total_cycles: u64,
}

impl Pins {
    fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Pins::default();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["total_cycles", n] => {
                    pins.total_cycles = n.parse().map_err(|e| format!("pins: {line}: {e}"))?;
                }
                [label, cycles, hash] => {
                    let cycles = cycles.parse().map_err(|e| format!("pins: {line}: {e}"))?;
                    let hash =
                        u64::from_str_radix(hash, 16).map_err(|e| format!("pins: {line}: {e}"))?;
                    pins.jobs.insert((*label).to_string(), (cycles, hash));
                }
                _ => return Err(format!("pins: malformed line {line:?}")),
            }
        }
        Ok(pins)
    }

    fn render(reports: &[(String, u64, u64)]) -> String {
        let mut out = String::from(
            "# sweep-cold semantics: job label, simulated cycles, FNV hash of the output bits.\n",
        );
        for (label, cycles, hash) in reports {
            out.push_str(&format!("{label} {cycles} {hash:016x}\n"));
        }
        let total: u64 = reports.iter().map(|r| r.1).sum();
        out.push_str(&format!("total_cycles {total}\n"));
        out
    }
}

/// Checks one job's report against the reference SpMV and returns
/// `(label, cycles, output hash)` for the pin check.
fn check_report(
    spec: &JobSpec,
    report: &SimReport,
    inputs: &Inputs,
    mismatches: &mut Vec<String>,
) -> (String, u64, u64) {
    let label = spec.label();
    let want = &inputs.refs[&suite_id(spec)];
    let same = report.output.len() == want.len()
        && report.output.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        mismatches.push(format!("{label}: output differs bitwise from Csr::spmv"));
    }
    (label, report.cycles, vec_hash(&report.output))
}

/// Checks a whole pass against the pins: every job's cycles and output
/// hash, and Σcycles. On any difference the pass's own values are written
/// out beside the run's other files.
fn check_pins(rows: &[(String, u64, u64)], pins: &Pins, mismatches: &mut Vec<String>) {
    let before = mismatches.len();
    for (label, cycles, hash) in rows {
        match pins.jobs.get(label) {
            Some(&(c, h)) if c == *cycles && h == *hash => {}
            Some(&(c, h)) => mismatches
                .push(format!("{label}: cycles {cycles} hash {hash:016x}, pinned {c} {h:016x}")),
            None => mismatches.push(format!("{label}: no pinned semantics")),
        }
    }
    let total: u64 = rows.iter().map(|r| r.1).sum();
    if total != pins.total_cycles {
        mismatches.push(format!("Σcycles {total}, pinned {}", pins.total_cycles));
    }
    if mismatches.len() > before {
        let path = observed_path();
        match std::fs::write(&path, Pins::render(rows)) {
            Ok(()) => eprintln!("perfbench: the failing pass's values are in {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}

/// One cold pass through `run_jobs`: wall time and job records.
pub struct Pass {
    /// Sweep wall time, s.
    pub wall: f64,
    /// One record per job.
    pub records: Vec<JobRecord>,
}

/// Runs the sweep once over fresh caches under `dir` and checks it.
pub fn untraced_pass(
    jobs: &[JobSpec],
    inputs: &Inputs,
    dir: &Path,
    mismatches: &mut Vec<String>,
) -> Result<Pass, String> {
    let store = ResultStore::with_disk(dir.join("results"))
        .map_err(|e| format!("result store under {}: {e}", dir.display()))?;
    let ctx = Arc::new(JobCtx::with_mapping_dir(dir.join("mappings")));
    let t = Instant::now();
    let records = run_jobs(jobs, &store, &ctx, WORKERS);
    let wall = t.elapsed().as_secs_f64();
    let mut rows = Vec::new();
    for (spec, r) in jobs.iter().zip(&records) {
        if r.status != JobStatus::Ok {
            mismatches.push(format!("{}: status {}", r.label, r.status.tag()));
            continue;
        }
        match store.lookup(spec.key()) {
            Some((JobResult::Sim(report), _)) => {
                rows.push(check_report(spec, &report, inputs, mismatches));
            }
            _ => mismatches.push(format!("{}: no simulation result in the store", r.label)),
        }
    }
    if rows.len() == jobs.len() {
        check_pins(&rows, &inputs.pins, mismatches);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Pass { wall, records })
}

/// The untraced `sweep-cold` measurement.
pub fn measure(seconds: f64, work: &Path) -> Result<Measured, String> {
    let jobs = jobs();
    let mut m = Measured { ops_per_pass: jobs.len(), ..Measured::default() };
    let inputs = setup(&mut m.setups, SETUPS)?;
    let started = Instant::now();
    let mut pass_no = 0;
    while keep_measuring(started, seconds, m.latencies_ms.len()) {
        let pass = untraced_pass(
            &jobs,
            &inputs,
            &work.join(format!("sweep-{pass_no}")),
            &mut m.mismatches,
        )?;
        pass_no += 1;
        m.passes.push(pass.wall);
        m.attempted += pass.records.len() as u64;
        m.failed += pass.records.iter().filter(|r| r.status != JobStatus::Ok).count() as u64;
        m.latencies_ms.extend(pass.records.iter().map(|r| r.wall_ms));
    }
    Ok(m)
}

/// The traced decomposition of one sweep: the same 30 jobs on the same
/// number of workers, calling each layer directly with a span around it.
/// Matrices are generated once and shared between the two jobs that need
/// them, as the harness does. The mapping-store write of the harness path
/// is left out.
pub struct Traced {
    /// Sweep wall time, s.
    pub wall: f64,
    /// Spans of every worker, merged.
    pub spans: Vec<Span>,
    /// The simulation reports, in job order.
    pub reports: Vec<Arc<SimReport>>,
    /// Non-zeros per job, in job order.
    pub nnz: Vec<usize>,
}

/// A traced job's checked report, or why it has none.
type JobOutcome = Result<Arc<SimReport>, String>;

/// Runs the decomposition once, recording spans only if `record`, and
/// checks it.
pub fn traced_pass(
    jobs: &[JobSpec],
    inputs: &Inputs,
    dir: &Path,
    epoch: Instant,
    record: bool,
    mismatches: &mut Vec<String>,
) -> Result<Traced, String> {
    let store = ResultStore::with_disk(dir.join("results"))
        .map_err(|e| format!("result store under {}: {e}", dir.display()))?;
    let matrices: BTreeMap<u8, OnceLock<Arc<Csr>>> =
        suite::entries().iter().map(|e| (e.id, OnceLock::new())).collect();
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let results: Vec<(Tracer, Vec<(usize, JobOutcome)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = Tracer::new(epoch, record);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = jobs.get(i) else { break };
                        done.push((i, traced_job(spec, i as u64, &matrices, &store, &mut tr)));
                    }
                    (tr, done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced sweep worker panicked")).collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    let mut by_job: BTreeMap<usize, JobOutcome> = BTreeMap::new();
    for (tr, done) in results {
        // Parent indices are per tracer; shift them into the merged list.
        let base = spans.len();
        spans.extend(tr.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        by_job.extend(done);
    }
    let mut reports = Vec::new();
    let mut nnz = Vec::new();
    let mut rows = Vec::new();
    for (i, spec) in jobs.iter().enumerate() {
        match by_job.remove(&i) {
            Some(Ok(report)) => {
                rows.push(check_report(spec, &report, inputs, mismatches));
                nnz.push(inputs.nnz[&suite_id(spec)]);
                reports.push(report);
            }
            Some(Err(e)) => mismatches.push(format!("{}: {e}", spec.label())),
            None => mismatches.push(format!("{}: never ran", spec.label())),
        }
    }
    if rows.len() == jobs.len() {
        check_pins(&rows, &inputs.pins, mismatches);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Traced { wall, spans, reports, nnz })
}

fn traced_job(
    spec: &JobSpec,
    op: u64,
    matrices: &BTreeMap<u8, OnceLock<Arc<Csr>>>,
    store: &ResultStore,
    tr: &mut Tracer,
) -> JobOutcome {
    let JobSpec::Sim { source, kind, hw, .. } = spec else {
        return Err("not a simulation job".into());
    };
    let id = suite_id(spec);
    let job = tr.open("harness.job", None, op);
    let a = Arc::clone(matrices[&id].get_or_init(|| {
        let entry = suite::entry_by_id(id).expect("suite ids come from the suite");
        Arc::new(tr.time("matrix.gen", Some(job), op, || entry.generate(SCALE)))
    }));
    let span = match kind {
        MapKind::Naive => "mapping.naive",
        MapKind::Proposed => "mapping.proposed",
    };
    let mapping = tr.time(span, Some(job), op, || kind.strategy().map(&a, &hw.shape));
    let x = input_vector(a.cols());
    let machine = Machine::new(hw.clone());
    let out = tr.time("arch.run", Some(job), op, || machine.run(RunSpec::spmv(&a, &x, &mapping)));
    let report = Arc::new(out.map_err(|e| format!("{}: {e}", source.label()))?.into_report());
    let reference = tr.time("verify.spmv", Some(job), op, || a.spmv(&x));
    let same = reference.len() == report.output.len()
        && reference.iter().zip(&report.output).all(|(r, y)| r.to_bits() == y.to_bits());
    let cached = JobResult::Sim(Arc::clone(&report));
    tr.time("harness.store_insert", Some(job), op, || store.insert(spec.key(), cached));
    tr.close(job);
    if same {
        Ok(report)
    } else {
        Err("output differs bitwise from Csr::spmv".into())
    }
}
