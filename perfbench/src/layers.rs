//! The traced run: the per-layer split of all three workloads.
//!
//! Spans are recorded from the benchmark's side of each public call, kept
//! in memory and written to `.bench_build/perfbench/trace-seed<N>.json`
//! when the run ends. A layer's time is the self time of its spans. Metric
//! names ending in `_s` sum one pass; those ending in `_ms` or `_us` are
//! medians per call, except `trace.*_overhead_*`, which compare the wall
//! times of whole splits.
//!
//! Every traced run, whatever its `--workload`, reports the split of all
//! three workloads: each traced run must report every per-layer metric,
//! and a layer a workload never calls would read the same zero on every
//! run. The split of the named workload is not measured apart from the
//! other two.
//!
//! The in-process steps of each split run four times on the same inputs,
//! with a tracer that records nothing, recording, recording and not
//! recording; `trace.*_overhead_*` is the mean traced minus untraced wall
//! time of those steps, and a negative value means the overhead is below
//! the noise of one pass. The TCP passes carry no tracer: their spans are
//! the start and end stamps the untraced measurement takes as well.
//! Transport has no span of its own: `serve.transport_ms` is the submit
//! round trip minus `Service::submit`, codec and manifest write, and
//! `serve.upload_transport_ms` is each upload's round trip minus the
//! daemon's steps for the same text, called in process.
//!
//! Which end-to-end metric each layer should move, and where:
//!
//! | layer metric | call timed | moves |
//! |---|---|---|
//! | `matrix.gen_s` | `SuiteEntry::generate` | `wall_s` on sweep-cold, `setup_s` on serve-submit |
//! | `matrix.from_mtx_ms` | `Csr::from_mtx` | `p50_ms` on serve-register |
//! | `mapping.proposed_s`, `mapping.naive_s` | `MapKind::strategy().map` | `wall_s` on sweep-cold |
//! | `mapping.register_ms` | `ServeEngine::register` | `p50_ms` on serve-register |
//! | `arch.run_s`, `arch.events*`, `arch.ns_per_event` | `Machine::run` | `wall_s` on sweep-cold |
//! | `serve.run_batch1_ms`, `serve.run_batch2_ms` | `ServeEngine::run_batch` | `p50_ms` on serve-submit |
//! | `verify.spmv_s` | `Csr::spmv` | `wall_s` on sweep-cold |
//! | `harness.store_insert_ms`, `harness.worker_busy_share` | `ResultStore::insert`, `run_jobs` | `wall_s` on sweep-cold |
//! | `serve.round_trip_ms`, `serve.service_submit_ms`, `serve.codec_ms`, `serve.transport_ms` | `Client::submit`, `Service::submit`, `Request::parse` + `y_bits` + reply text | `p50_ms`, `ops_per_s` on serve-submit |
//! | `serve.journal_append_ms`, `serve.manifest_write_ms`, `serve.queue_wait_us`, `serve.fused_share` | `AckJournal::append`, `write_manifest`, `SubmitOutcome` | `p50_ms`, `ops_per_s` on serve-submit |
//! | `serve.timeline_write_ms` | `write_timeline` (every 8th request) | `p90_ms` on serve-submit |
//! | `serve.upload_codec_ms`, `serve.upload_transport_ms` | `register-mtx` request and reply codec, `Client::register_mtx` | `p50_ms` on serve-register |
//! | `serve.shed`, `serve.deadline_miss`, `serve.retries`, `failed_share` | `stat` | `failed` on serve-submit |
//!
//! `arch.cycles`, `arch.l1_hit_rate`, `arch.l2_hit_rate` and
//! `arch.pe_busy_fraction` are modelled statistics of the sweep: a change
//! meant only to speed the simulator up must leave them identical.

use crate::serve::{self, Timed, CLIENTS, MATRICES, STEPS};
use crate::stats::{median, self_secs, self_times, Span, Tracer};
use crate::sweep;
use crate::{num_array, quote, Metric, Outcome};
use spacea_harness::json::{self, Json};
use spacea_harness::JobStatus;
use spacea_matrix::Csr;
use spacea_serve::protocol::{self, y_bits, y_from_bits};
use spacea_serve::{
    seeded_vector, vec_hash, AckRecord, Request, ServeConfig, ServeEngine, Service,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Collects spans, metrics and check results across the three workloads.
struct Run {
    epoch: Instant,
    spans: Vec<Span>,
    selfs: Vec<u64>,
    metrics: Vec<Metric>,
    info: Vec<(String, String)>,
    mismatches: Vec<String>,
    attempted: u64,
    failed: u64,
    next_op: u64,
}

impl Run {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Appends a span list whose parent indices and operation numbers are
    /// local to it, with the self times of its spans.
    fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.selfs.extend(self_times(&spans));
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op += self.next_op;
            s
        }));
        self.next_op = self.spans.iter().map(|s| s.op + 1).max().unwrap_or(0);
    }

    /// Median self time, ms, of the spans named `name` absorbed so far.
    fn median_ms(&self, name: &str) -> f64 {
        median(&self_secs(&self.spans, &self.selfs, name)) * 1e3
    }

    /// Median over operations of the summed self time, ms, of the spans
    /// named `name` in each operation.
    fn per_op_ms(&self, name: &str) -> f64 {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, &t) in self.spans.iter().zip(&self.selfs) {
            if s.name == name {
                *by_op.entry(s.op).or_default() += t as f64 / 1e6;
            }
        }
        median(&by_op.into_values().collect::<Vec<_>>())
    }

    fn total_s(&self, name: &str) -> f64 {
        self_secs(&self.spans, &self.selfs, name).iter().sum()
    }
}

/// Runs the traced split of every workload.
pub fn run(seed: u64, work: &Path) -> Result<Outcome, String> {
    let mut run = Run {
        epoch: Instant::now(),
        spans: Vec::new(),
        selfs: Vec::new(),
        metrics: Vec::new(),
        info: Vec::new(),
        mismatches: Vec::new(),
        attempted: 0,
        failed: 0,
        next_op: 0,
    };
    sweep_layers(&mut run, work)?;
    submit_layers(&mut run, seed, work)?;
    register_layers(&mut run, seed, work)?;
    let share = run.failed as f64 / run.attempted.max(1) as f64;
    run.metric("failed_share", share, "ratio");
    write_spans(&run, seed)?;
    Ok(Outcome {
        metrics: run.metrics,
        attempted: run.attempted,
        failed: run.failed,
        mismatches: run.mismatches,
        info: run.info,
    })
}

fn sweep_layers(run: &mut Run, work: &Path) -> Result<(), String> {
    let jobs = sweep::jobs();
    let inputs = sweep::setup(&mut Vec::new(), 1)?;
    let harness =
        sweep::untraced_pass(&jobs, &inputs, &work.join("sweep-harness"), &mut run.mismatches)?;
    run.attempted += jobs.len() as u64;
    run.failed += harness.records.iter().filter(|r| r.status != JobStatus::Ok).count() as u64;
    let (overhead_s, traced, walls) = overhead(|record| {
        let dir = work.join("sweep-decomposed");
        let pass =
            sweep::traced_pass(&jobs, &inputs, &dir, run.epoch, record, &mut run.mismatches)?;
        run.attempted += jobs.len() as u64;
        run.failed += (jobs.len() - pass.reports.len()) as u64;
        Ok((pass.wall, pass))
    })?;
    run.absorb(traced.spans);

    let events: u64 = traced.reports.iter().map(|r| r.events_processed).sum();
    let nnz: usize = traced.nnz.iter().sum();
    let arch_s = run.total_s("arch.run");
    let busy_ms: f64 = harness.records.iter().map(|r| r.wall_ms).sum();
    let n = traced.reports.len().max(1) as f64;
    let mean = |f: fn(&spacea_arch::SimReport) -> f64| {
        traced.reports.iter().map(|r| f(r)).sum::<f64>() / n
    };
    run.metric("matrix.gen_s", run.total_s("matrix.gen"), "s");
    run.metric("mapping.proposed_s", run.total_s("mapping.proposed"), "s");
    run.metric("mapping.naive_s", run.total_s("mapping.naive"), "s");
    run.metric("arch.run_s", arch_s, "s");
    run.metric("arch.events", events as f64, "count");
    run.metric("arch.events_per_nnz", events as f64 / nnz.max(1) as f64, "ratio");
    run.metric("arch.ns_per_event", arch_s * 1e9 / events.max(1) as f64, "ns");
    run.metric("arch.cycles", traced.reports.iter().map(|r| r.cycles).sum::<u64>() as f64, "count");
    run.metric("arch.l1_hit_rate", mean(|r| r.l1_hit_rate), "ratio");
    run.metric("arch.l2_hit_rate", mean(|r| r.l2_hit_rate), "ratio");
    run.metric("arch.pe_busy_fraction", mean(|r| r.pe_busy_fraction), "ratio");
    run.metric("verify.spmv_s", run.total_s("verify.spmv"), "s");
    run.metric("harness.store_insert_ms", run.median_ms("harness.store_insert"), "ms");
    run.metric(
        "harness.worker_busy_share",
        busy_ms / (sweep::WORKERS as f64 * harness.wall * 1e3),
        "ratio",
    );
    run.metric("trace.sweep_cold_overhead_s", overhead_s, "s");
    run.info.push(("sweep_harness_wall".into(), harness.wall.to_string()));
    run.info.push(("sweep_off_on_on_off_walls".into(), num_array(&walls)));
    Ok(())
}

/// Runs `step` with the tracer off, on, on and off, an order that cancels
/// a steady drift of host speed. Each call returns its wall time, s, and
/// a value. Returns the mean traced minus untraced wall time, s, the first
/// traced call's value, and the four wall times.
fn overhead<T>(
    mut step: impl FnMut(bool) -> Result<(f64, T), String>,
) -> Result<(f64, T, [f64; 4]), String> {
    let (off1, _) = step(false)?;
    let (on1, kept) = step(true)?;
    let (on2, _) = step(true)?;
    let (off2, _) = step(false)?;
    Ok(((on1 + on2 - off1 - off2) / 2.0, kept, [off1, on1, on2, off2]))
}

fn count(stat: &Json, field: &str) -> Result<f64, String> {
    stat.get(field).and_then(Json::as_u64).map(|v| v as f64).ok_or(format!("stat lacks {field}"))
}

/// Request seeds of the traced split's submit pass.
const PASS: u64 = 1;

fn submit_layers(run: &mut Run, seed: u64, work: &Path) -> Result<(), String> {
    // Over TCP: one pass, timed as the untraced measurement times it.
    let (mut daemon, served) = serve::submit_setup(&work.join("submit"), &mut run.mismatches)?;
    let mut clients = (0..CLIENTS).map(|_| daemon.connect()).collect::<Result<Vec<_>, _>>()?;
    let (_, timed) = serve::submit_pass(&mut clients, &served, seed, PASS, run.epoch);
    let (attempted, failed) = serve::check_submits(&served, &timed, &mut run.mismatches);
    run.attempted += attempted;
    run.failed += failed;
    let stat = daemon.admin.stat().map_err(|e| format!("stat: {e}"))?;
    drop(clients);
    daemon.stop()?;
    let round_trip_ms = median(&timed.iter().flatten().map(Timed::ms).collect::<Vec<_>>());
    let outcomes: Vec<_> = timed.iter().flatten().filter_map(|t| t.result.as_ref().ok()).collect();
    let waits: Vec<f64> = outcomes.iter().map(|o| o.queue_wait_us as f64).collect();
    let fused =
        outcomes.iter().filter(|o| o.batch > 1).count() as f64 / outcomes.len().max(1) as f64;
    run.absorb(serve::call_spans("serve.round_trip", &timed));

    // In process, on fresh engines each time.
    let mut k = 0;
    let (overhead_s, tracers, walls) = overhead(|record| {
        k += 1;
        Ok(in_process_submit(run, &served, seed, &work.join(format!("submit-{k}")), record))
    })?;
    for tr in tracers {
        run.absorb(tr.spans);
    }

    let service_ms = run.median_ms("serve.service_submit");
    let codec_ms = run.per_op_ms("serve.codec");
    let manifest_ms = run.median_ms("serve.manifest_write");
    run.metric("serve.round_trip_ms", round_trip_ms, "ms");
    run.metric("serve.service_submit_ms", service_ms, "ms");
    run.metric("serve.codec_ms", codec_ms, "ms");
    run.metric("serve.transport_ms", round_trip_ms - service_ms - codec_ms - manifest_ms, "ms");
    run.metric("serve.run_batch1_ms", run.median_ms("serve.run_batch1"), "ms");
    run.metric("serve.run_batch2_ms", run.median_ms("serve.run_batch2"), "ms");
    run.metric("serve.journal_append_ms", run.median_ms("serve.journal_append"), "ms");
    run.metric("serve.manifest_write_ms", manifest_ms, "ms");
    run.metric("serve.timeline_write_ms", run.median_ms("serve.timeline_write"), "ms");
    run.metric("serve.queue_wait_us", median(&waits), "us");
    run.metric("serve.fused_share", fused, "ratio");
    run.metric("serve.shed", count(&stat, "shed")?, "count");
    run.metric("serve.deadline_miss", count(&stat, "deadline_miss")?, "count");
    run.metric("serve.retries", count(&stat, "retries")?, "count");
    run.metric("trace.serve_submit_overhead_ms", overhead_s * 1e3, "ms");
    run.info.push(("submit_off_on_on_off_walls".into(), num_array(&walls)));
    Ok(())
}

/// The in-process part of the submit split, on fresh engines under `dir`:
/// the pass's load on a service without transport or codec, then the
/// daemon's per-request steps one call at a time. Returns the wall time
/// of both, s, and the tracers, which record only if `record`.
fn in_process_submit(
    run: &mut Run,
    served: &[serve::Served],
    seed: u64,
    dir: &Path,
    record: bool,
) -> (f64, Vec<Tracer>) {
    let t = Instant::now();
    let engine = Arc::new(ServeEngine::new(ServeConfig::new(dir.join("service"))));
    let keys = register_local(&engine, served, &mut run.mismatches);
    let service = Service::over(Arc::clone(&engine));
    let barrier = Barrier::new(CLIENTS);
    let epoch = run.epoch;
    let per_client: Vec<(Tracer, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (service, keys, barrier) = (&service, &keys, &barrier);
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, record);
                    let mut bad = Vec::new();
                    barrier.wait();
                    for step in 0..STEPS {
                        let m = step % served.len();
                        let seed = serve::request_seed(seed, PASS, c, step);
                        let x = seeded_vector(served[m].a.cols(), seed);
                        let op = (c * STEPS + step) as u64;
                        match tr
                            .time("serve.service_submit", None, op, || service.submit(keys[m], x))
                        {
                            Ok(reply) if serve::spmv_matches(&served[m].a, seed, &reply.y) => {}
                            Ok(_) => bad.push(format!(
                                "service submit m{} seed {seed}: wrong reply",
                                MATRICES[m]
                            )),
                            Err(e) => bad
                                .push(format!("service submit m{} seed {seed}: {e}", MATRICES[m])),
                        }
                    }
                    (tr, bad)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("service client panicked")).collect()
    });
    service.stop();
    let mut tracers = Vec::new();
    for (tr, bad) in per_client {
        run.attempted += STEPS as u64;
        run.failed += bad.len() as u64;
        run.mismatches.extend(bad);
        tracers.push(tr);
    }
    tracers.push(submit_steps(run, served, seed, &dir.join("steps"), record));
    (t.elapsed().as_secs_f64(), tracers)
}

/// The daemon's per-request steps, one call at a time. The engine flushes
/// no timeline on its own here; the loop does, as often as the daemon
/// would.
fn submit_steps(
    run: &mut Run,
    served: &[serve::Served],
    seed: u64,
    dir: &Path,
    record: bool,
) -> Tracer {
    let daemon_cfg = ServeConfig::new(dir);
    let flush_every = daemon_cfg.flush_every.max(1) as usize;
    let engine = ServeEngine::new(ServeConfig { flush_every: 0, ..daemon_cfg });
    let keys = register_local(&engine, served, &mut run.mismatches);
    let mut tr = Tracer::new(run.epoch, record);
    for step in 0..STEPS {
        let m = step % served.len();
        let a = &served[m].a;
        let seeds =
            [serve::request_seed(seed, PASS, 0, step), serve::request_seed(seed, PASS, 1, step)];
        let op = step as u64;
        run.attempted += 1;
        let root = tr.open("serve.request", None, op);
        let line = tr.time("serve.codec", Some(root), op, || {
            Request::Submit { matrix: keys[m], seed: seeds[0], deadline_ms: None }.to_line()
        });
        let parsed = tr.time("serve.codec", Some(root), op, || Request::parse(&line));
        if !matches!(parsed, Ok(Request::Submit { seed: s, .. }) if s == seeds[0]) {
            run.mismatches.push(format!("request codec lost seed {}", seeds[0]));
        }
        let xs: Vec<Vec<f64>> = seeds.iter().map(|&s| seeded_vector(a.cols(), s)).collect();
        let one =
            tr.time("serve.run_batch1", Some(root), op, || engine.run_batch(keys[m], &xs[..1]));
        let two = tr.time("serve.run_batch2", Some(root), op, || engine.run_batch(keys[m], &xs));
        let (one, two) = match (one, two) {
            (Ok(one), Ok(two)) => (one, two),
            (Err(e), _) | (_, Err(e)) => {
                run.failed += 1;
                run.mismatches.push(format!("run_batch m{}: {e}", MATRICES[m]));
                tr.close(root);
                continue;
            }
        };
        let outputs = [&one.outputs[0], &two.outputs[0], &two.outputs[1]];
        for (y, s) in outputs.into_iter().zip([seeds[0], seeds[0], seeds[1]]) {
            if !serve::spmv_matches(a, s, y) {
                run.mismatches.push(format!("run_batch m{} seed {s}: wrong output", MATRICES[m]));
            }
        }
        let records: Vec<AckRecord> = xs
            .iter()
            .zip(&two.outputs)
            .map(|(x, y)| AckRecord {
                matrix: keys[m],
                x_hash: vec_hash(x),
                y_hash: vec_hash(y),
                batch: xs.len(),
                cycles: two.report.cycles,
            })
            .collect();
        let appended =
            tr.time("serve.journal_append", Some(root), op, || engine.journal().append(&records));
        let manifest = tr.time("serve.manifest_write", Some(root), op, || engine.write_manifest());
        engine.note_request(0.0, xs.len(), two.report.cycles, 0);
        let timeline = if (step + 1) % flush_every == 0 {
            tr.time("serve.timeline_write", Some(root), op, || engine.write_timeline()).map(|_| ())
        } else {
            Ok(())
        };
        if let Err(e) = appended.and(manifest).and(timeline) {
            run.failed += 1;
            run.mismatches.push(format!("serve bookkeeping write failed: {e}"));
        }
        let y = &one.outputs[0];
        let decoded = tr.time("serve.codec", Some(root), op, || {
            let reply = protocol::ok(vec![
                ("y", y_bits(y)),
                ("batch", Json::U64(1)),
                ("cycles", Json::U64(one.report.cycles)),
                ("queue_wait_us", Json::U64(0)),
            ]);
            json::parse(&reply.to_text()).ok().and_then(|v| v.get("y").and_then(y_from_bits))
        });
        if decoded.as_deref().map(|d| bits(d) != bits(y)).unwrap_or(true) {
            run.mismatches.push(format!("reply codec changed the output of m{}", MATRICES[m]));
        }
        tr.close(root);
    }
    tr
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Registers the served matrices on an in-process engine; the keys must
/// be the daemon's.
fn register_local(
    engine: &ServeEngine,
    served: &[serve::Served],
    mismatches: &mut Vec<String>,
) -> Vec<u64> {
    served
        .iter()
        .map(|s| {
            let key = engine.register(s.a.clone()).key;
            if key != s.key {
                mismatches.push(format!(
                    "in-process key {key:016x} differs from the daemon's {:016x}",
                    s.key
                ));
            }
            key
        })
        .collect()
}

fn register_layers(run: &mut Run, seed: u64, work: &Path) -> Result<(), String> {
    // Over TCP: one pass of uploads, timed as the untraced measurement
    // times it.
    let (mut daemon, _, texts) = serve::register_setup(&work.join("register"), seed)?;
    let (_, timed) = serve::register_pass(&mut daemon.admin, &texts, run.epoch);
    daemon.stop()?;
    let (attempted, failed) = serve::check_uploads(&texts, &timed, &mut run.mismatches);
    run.attempted += attempted;
    run.failed += failed;
    run.absorb(serve::call_spans("serve.upload", std::slice::from_ref(&timed)));

    // The daemon's steps for the same texts, on fresh engines each time.
    let mut k = 0;
    let (overhead_s, tr, walls) = overhead(|record| {
        k += 1;
        let t = Instant::now();
        let tr = register_steps(run, &texts, &work.join(format!("register-{k}")), record);
        Ok((t.elapsed().as_secs_f64(), tr))
    })?;

    // Transport is what an upload's round trip spent outside the daemon's
    // steps for the same text; uploads differ in size, so pair them.
    let mut steps_ms = vec![0.0; timed.len()];
    for s in tr.spans.iter().filter(|s| s.parent.is_some()) {
        steps_ms[s.op as usize] += s.dur() as f64 / 1e6;
    }
    let transport: Vec<f64> = timed.iter().zip(&steps_ms).map(|(t, s)| t.ms() - s).collect();
    run.absorb(tr.spans);

    run.metric("matrix.from_mtx_ms", run.median_ms("matrix.from_mtx"), "ms");
    run.metric("mapping.register_ms", run.median_ms("mapping.register"), "ms");
    run.metric("serve.upload_codec_ms", run.per_op_ms("serve.upload_codec"), "ms");
    run.metric("serve.upload_transport_ms", median(&transport), "ms");
    run.metric("trace.serve_register_overhead_ms", overhead_s * 1e3, "ms");
    run.info.push(("register_off_on_on_off_walls".into(), num_array(&walls)));
    Ok(())
}

/// The daemon's steps for each upload, one call at a time, on a fresh
/// mapping store under `dir`; the tracer records only if `record`.
fn register_steps(run: &mut Run, texts: &[String], dir: &Path, record: bool) -> Tracer {
    let engine = ServeEngine::new(ServeConfig::new(dir));
    let mut tr = Tracer::new(run.epoch, record);
    for (i, text) in texts.iter().enumerate() {
        let op = i as u64;
        run.attempted += 1;
        let root = tr.open("serve.upload_steps", None, op);
        let body = tr.time("serve.upload_codec", Some(root), op, || {
            match Request::parse(&Request::RegisterMtx { text: text.clone() }.to_line()) {
                Ok(Request::RegisterMtx { text }) => Some(text),
                _ => None,
            }
        });
        let Some(body) = body.filter(|b| b == text) else {
            run.failed += 1;
            run.mismatches.push(format!("upload {i}: request codec changed the text"));
            tr.close(root);
            continue;
        };
        let decoded = tr.time("matrix.from_mtx", Some(root), op, || Csr::from_mtx(&body));
        let a = match decoded {
            Ok(a) => a,
            Err(e) => {
                run.failed += 1;
                run.mismatches.push(format!("upload {i}: {e}"));
                tr.close(root);
                continue;
            }
        };
        let want = (spacea_harness::mapstore::matrix_key(&a), a.rows(), a.cols(), a.nnz());
        let info = tr.time("mapping.register", Some(root), op, || engine.register(a));
        if let Err(e) =
            tr.time("serve.upload_manifest_write", Some(root), op, || engine.write_manifest())
        {
            run.failed += 1;
            run.mismatches.push(format!("upload {i}: manifest write failed: {e}"));
        }
        let back = tr.time("serve.upload_codec", Some(root), op, || {
            let reply = protocol::ok(vec![
                ("matrix", Json::U64(info.key)),
                ("rows", Json::U64(info.rows as u64)),
                ("cols", Json::U64(info.cols as u64)),
                ("nnz", Json::U64(info.nnz as u64)),
            ]);
            json::parse(&reply.to_text()).ok().and_then(|v| v.get("matrix").and_then(Json::as_u64))
        });
        if back != Some(want.0) || (info.key, info.rows, info.cols, info.nnz) != want {
            run.mismatches
                .push(format!("upload {i}: in-process registration disagrees with the decode"));
        }
        tr.close(root);
    }
    tr
}

/// Writes every span with its self time.
fn write_spans(run: &Run, seed: u64) -> Result<(), String> {
    let mut out = String::from("{\"spans\":[");
    for (i, (s, t)) in run.spans.iter().zip(&run.selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t},\"parent\":{parent},\"op\":{}}}",
            quote(s.name),
            s.start,
            s.end,
            s.op
        );
    }
    out.push_str("]}\n");
    let path = Path::new(crate::OUT_DIR).join(format!("trace-seed{seed}.json"));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(())
}
