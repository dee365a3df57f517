//! End-to-end acceptance test of the daemon: concurrent mixed-matrix
//! requests over real localhost TCP match the offline reference SpMV
//! bitwise, and a restarted daemon performs zero Phase I/II mapping
//! computations for previously registered matrices. A hostile request
//! line earns a coded error and leaves the daemon serving, a line that
//! arrives in pieces is answered whole, a line past `MAX_LINE_BYTES` is
//! rejected as `too-large`, as is a MatrixMarket header declaring more
//! than `mmio::MAX_DIM` rows, and sequential round trips on one connection
//! do not stall on delayed ACKs.

use spacea_obs::json::{self, Json};
use spacea_serve::client::read_port;
use spacea_serve::{
    run_daemon, seeded_vector, AckJournal, Client, Request, ServeConfig, ServeEngine, Service,
    MAX_LINE_BYTES, PORT_FILE,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spacea-serve-restart-{tag}-{}", std::process::id()))
}

/// Starts a daemon thread over `dir` and waits for its port file.
fn start_daemon(dir: &Path) -> std::thread::JoinHandle<()> {
    let cfg = ServeConfig::quick(dir);
    let handle = std::thread::spawn(move || run_daemon(cfg, 0).expect("daemon runs"));
    let port_path = dir.join(PORT_FILE);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !port_path.exists() {
        assert!(Instant::now() < deadline, "daemon never published its port");
        assert!(!handle.is_finished(), "daemon died before publishing its port");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle
}

fn manifest_counts(dir: &Path) -> (u64, u64) {
    let text = std::fs::read_to_string(dir.join("serve-manifest.json")).expect("manifest exists");
    let v = json::parse(&text).expect("manifest parses");
    let maps = v.get("mappings").expect("mappings field");
    (
        maps.get("computed").and_then(|j| j.as_u64()).expect("computed"),
        maps.get("disk_hits").and_then(|j| j.as_u64()).expect("disk_hits"),
    )
}

#[test]
fn a_megabyte_of_open_brackets_is_a_bad_request_not_a_crash() {
    let dir = tmp_dir("hostile");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = start_daemon(&dir);

    let stream = TcpStream::connect(("127.0.0.1", read_port(&dir).unwrap())).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut reply = String::new();
    for line in ["[".repeat(1 << 20), Request::Ping.to_line()] {
        writeln!(writer, "{line}").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        let v = json::parse(reply.trim()).expect("the daemon answers every line");
        if line.starts_with('[') {
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(v.get("code").and_then(Json::as_str), Some("bad-request"));
        } else {
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "ping on the same connection");
        }
    }
    // A line that is not UTF-8 is a coded error too, not a hangup.
    writer.write_all(b"{\"cmd\":\"\xff\"}\n").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    let v = json::parse(reply.trim()).expect("the daemon answers a non-UTF-8 line");
    assert_eq!(v.get("code").and_then(Json::as_str), Some("bad-request"));
    let mut client = Client::connect_dir(&dir).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_pings_on_one_connection_do_not_wait_for_delayed_acks() {
    let dir = tmp_dir("pings");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = start_daemon(&dir);

    let mut client = Client::connect_dir(&dir).unwrap();
    client.ping().unwrap();
    // A line framed as two writes with Nagle on waits ~40 ms for a delayed
    // ACK in each direction: ~4.5 s for 50 round trips instead of a few ms.
    let start = Instant::now();
    for _ in 0..50 {
        client.ping().unwrap();
    }
    let took = start.elapsed();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(took < Duration::from_secs(1), "50 pings took {took:?}");
}

#[test]
fn a_line_past_the_length_cap_is_too_large_and_the_daemon_serves_on() {
    let dir = tmp_dir("too-large");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = start_daemon(&dir);

    // Lines with no newline that overrun the cap by one byte, then by twice
    // the cap: the daemon must read and discard the whole overrun so that
    // it closes cleanly instead of resetting the connection under the
    // client's feet.
    let chunk = vec![b'a'; 1 << 20];
    for extra in [1, 2 * MAX_LINE_BYTES] {
        let stream = TcpStream::connect(("127.0.0.1", read_port(&dir).unwrap())).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut left = MAX_LINE_BYTES + extra;
        while left > 0 {
            let n = left.min(chunk.len());
            writer.write_all(&chunk[..n]).unwrap();
            left -= n;
        }
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let v = json::parse(reply.trim()).expect("the daemon answers the over-long line");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("too-large"), "{}", v.to_text());
        reply.clear();
        let n = reader.read_line(&mut reply).unwrap();
        assert_eq!(n, 0, "the connection closes after too-large");
    }

    // The client refuses an upload whose line would pass the cap without
    // sending it, so the same connection serves on. Newlines travel
    // escaped, two bytes each, so half the cap in newlines overruns it.
    let mut client = Client::connect_dir(&dir).unwrap();
    let err = client.register_mtx(&"\n".repeat(MAX_LINE_BYTES / 2)).unwrap_err();
    assert_eq!(err.code, "too-large", "{err}");
    assert!(err.message.contains("64 MiB"), "the message names the limit: {err}");
    client.ping().unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_mtx_header_past_the_dimension_cap_is_too_large_and_the_connection_serves_on() {
    let dir = tmp_dir("mtx-dims");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = start_daemon(&dir);
    let mut client = Client::connect_dir(&dir).unwrap();

    // 60 bytes that would ask for a gigabyte of row offsets.
    let text = "%%MatrixMarket matrix coordinate real general\n134217727 1 0\n";
    let started = Instant::now();
    let err = client.register_mtx(text).unwrap_err();
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
    assert_eq!(err.code, "too-large", "{err}");
    assert!(err.message.contains(&spacea_matrix::mmio::MAX_DIM.to_string()), "{err}");
    client.ping().unwrap();

    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one request line in two writes with a pause longer than the
/// daemon's 200 ms read timeout between them, and returns the parsed reply.
fn reply_to_split_line(tag: &str, line: &[u8], split: usize) -> Json {
    let dir = tmp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = start_daemon(&dir);

    let stream = TcpStream::connect(("127.0.0.1", read_port(&dir).unwrap())).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(&line[..split]).unwrap();
    writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    writer.write_all(&line[split..]).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();

    let mut client = Client::connect_dir(&dir).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    json::parse(reply.trim()).unwrap_or_else(|e| panic!("reply {reply:?} does not parse: {e}"))
}

#[test]
fn a_request_line_split_by_a_pause_is_answered_whole() {
    let line = b"{\"cmd\":\"ping\"}\n";
    let v = reply_to_split_line("split-ascii", line, "{\"cmd\":\"pi".len());
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{}", v.to_text());
}

#[test]
fn a_request_line_split_inside_a_utf8_character_is_answered_whole() {
    let line = "{\"cmd\":\"ping\",\"note\":\"é\"}\n".as_bytes();
    let split = line.iter().position(|b| *b == 0xC3).unwrap() + 1;
    let v = reply_to_split_line("split-utf8", line, split);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{}", v.to_text());
}

#[test]
fn mtx_registration_and_journal_compaction_over_the_wire() {
    let dir = tmp_dir("compact");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = start_daemon(&dir);
    let mut client = Client::connect_dir(&dir).unwrap();

    // A MatrixMarket body registers like a suite matrix and answers
    // bitwise-correct submits against the offline parse.
    let text = include_str!("../../matrix/tests/fixtures/bar5.mtx");
    let reply = client.register_mtx(text).unwrap();
    let a = spacea_matrix::Csr::from_mtx(text).unwrap();
    assert_eq!((reply.rows, reply.cols, reply.nnz), (a.rows(), a.cols(), a.nnz()));
    let e = client.register_mtx("not a matrix").unwrap_err();
    assert_eq!(e.code, "bad-request");

    for seed in 0..3u64 {
        let out = client.submit(reply.matrix, seed).unwrap();
        let want = a.spmv(&seeded_vector(a.cols(), seed));
        let got: Vec<u64> = out.y.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "seed {seed}: mtx-registered reply diverged");
    }

    // Three sequential submits journal three single-record files; stat
    // reports the live footprint and compact trims it to the budget.
    let stat = client.stat().unwrap();
    assert_eq!(stat.get("journal_records").and_then(|j| j.as_u64()), Some(3));
    assert_eq!(stat.get("journal_files").and_then(|j| j.as_u64()), Some(3));
    let c = client.compact(1).unwrap();
    assert_eq!((c.dropped_files, c.dropped_records, c.retained_files), (2, 2, 1));
    let stat = client.stat().unwrap();
    assert_eq!(stat.get("journal_records").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(stat.get("journal_files").and_then(|j| j.as_u64()), Some(1));
    let load = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!((load.records.len(), load.dropped, load.corrupt_files), (1, 2, 0));

    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_compaction_bounds_the_journal_and_its_watermark_survives_restart() {
    let dir = tmp_dir("autocompact");
    let _ = std::fs::remove_dir_all(&dir);

    // --- First life: compact every 2 acknowledged batches. ---
    let cfg = ServeConfig { compact_every: 2, ..ServeConfig::quick(&dir) };
    let engine = Arc::new(ServeEngine::new(cfg));
    let info = engine.register_suite(1, 256).unwrap();
    let service = Service::over(Arc::clone(&engine));
    // Sequential submits: each is its own single-request batch, so each
    // acknowledgment is one journal file. Five batches trigger the
    // auto-compaction pass twice (after batch 2: nothing beyond the
    // 2-file budget yet; after batch 4: files 1-2 dropped).
    for seed in 0..5u64 {
        service.submit(info.key, seeded_vector(info.cols, seed)).unwrap();
    }
    service.stop();
    assert_eq!(engine.journal_counts(), (3, 3), "budget 2 + the post-compaction batch");
    let load = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!(load.records.len(), 3);
    assert_eq!(load.dropped, 2, "the watermark carries the auto-dropped records");
    assert_eq!(load.corrupt_files, 0);
    drop(engine);

    // --- Restarted engine over the same cache dir: the watermark holds
    // (dropped records stay counted, sequence numbers never reused). ---
    let cfg = ServeConfig { compact_every: 2, ..ServeConfig::quick(&dir) };
    let engine = Arc::new(ServeEngine::new(cfg));
    let info = engine.register_suite(1, 256).unwrap();
    let service = Service::over(Arc::clone(&engine));
    service.submit(info.key, seeded_vector(info.cols, 9)).unwrap();
    service.stop();
    let load = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!(load.dropped, 2, "restart must not lose the compaction watermark");
    assert_eq!(load.records.len(), 4, "the new acknowledgment lands past the watermark");
    assert_eq!(load.corrupt_files, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_requests_match_reference_and_restart_is_warm() {
    let dir = tmp_dir("e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // --- Cold daemon: registration pays Phase I/II. ---
    let daemon = start_daemon(&dir);
    let mut admin = Client::connect_dir(&dir).unwrap();
    admin.ping().unwrap();
    let m1 = admin.register(1, 256).unwrap();
    let m2 = admin.register(2, 256).unwrap();
    assert_ne!(m1.matrix, m2.matrix);

    // Offline references, computed without the daemon.
    let a1 = spacea_matrix::suite::entry_by_id(1).unwrap().generate(256);
    let a2 = spacea_matrix::suite::entry_by_id(2).unwrap().generate(256);

    // 8 concurrent clients, mixed matrices: every reply must be bitwise
    // the offline SpMV regardless of how the batcher fused them.
    let mut workers = Vec::new();
    for t in 0..8u64 {
        let dir = dir.clone();
        let (key, reference) = if t % 2 == 0 {
            (m1.matrix, a1.spmv(&seeded_vector(a1.cols(), t)))
        } else {
            (m2.matrix, a2.spmv(&seeded_vector(a2.cols(), t)))
        };
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_dir(&dir).unwrap();
            let out = client.submit(key, t).unwrap();
            let got: Vec<u64> = out.y.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "client {t}: daemon reply diverged from offline SpMV");
            assert!(out.batch >= 1);
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    let stat = admin.stat().unwrap();
    assert_eq!(stat.get("requests").and_then(|j| j.as_u64()), Some(8));
    assert_eq!(stat.get("registered").and_then(|j| j.as_u64()), Some(2));
    admin.shutdown().unwrap();
    daemon.join().unwrap();

    let (computed, _) = manifest_counts(&dir);
    assert_eq!(computed, 2, "cold run computes each mapping exactly once");
    assert!(!dir.join(PORT_FILE).exists(), "port file removed on shutdown");
    assert!(dir.join("serve-timeline.json").exists(), "telemetry flushed on shutdown");

    // Every acknowledged request left a journal record proving its answer.
    let journal = AckJournal::load(&dir.join(AckJournal::DIR));
    assert_eq!(journal.corrupt_files, 0, "graceful shutdown leaves no torn journal files");
    assert_eq!(journal.records.len(), 8, "one acknowledgment record per answered request");

    // --- Restarted daemon over the same cache dir: zero computations. ---
    let daemon = start_daemon(&dir);
    let mut client = Client::connect_dir(&dir).unwrap();
    let m1b = client.register(1, 256).unwrap();
    client.register(2, 256).unwrap();
    assert_eq!(m1b.matrix, m1.matrix, "content addressing is stable across restarts");
    let out = client.submit(m1b.matrix, 99).unwrap();
    let want = a1.spmv(&seeded_vector(a1.cols(), 99));
    assert_eq!(out.y, want);
    client.shutdown().unwrap();
    daemon.join().unwrap();

    let (computed, disk_hits) = manifest_counts(&dir);
    assert_eq!(computed, 0, "a warm restart must not re-run Phase I/II mapping");
    assert_eq!(disk_hits, 2, "both mappings loaded from the persistent cache");

    let _ = std::fs::remove_dir_all(&dir);
}
