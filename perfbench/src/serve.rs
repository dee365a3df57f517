//! The `serve-submit` and `serve-register` workloads: closed-loop clients
//! against an in-process daemon over its TCP protocol.

use crate::stats::Span;
use crate::{derive, keep_measuring, mix, Measured};
use spacea_harness::mapstore::matrix_key;
use spacea_matrix::{mmio, suite, Csr, Permutation};
use spacea_serve::client::{RegisterReply, SubmitOutcome};
use spacea_serve::{run_daemon, seeded_vector, CallError, Client, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The served matrices, in the order every client walks them.
pub const MATRICES: [u8; 3] = [1, 6, 13];

/// Down-scale of the matrices `serve-submit` registers.
pub const SUBMIT_SCALE: usize = 256;

/// Down-scale of the matrices `serve-register` uploads.
pub const UPLOAD_SCALE: usize = 512;

/// Concurrent client connections of `serve-submit`.
pub const CLIENTS: usize = 2;

/// Walks of the matrix order per client per `serve-submit` pass.
pub const ROUNDS: usize = 10;

/// Permutations of each matrix per `serve-register` pass.
pub const PERMS: usize = 4;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// How long a client waits for a freshly started daemon to publish its
/// port.
const CONNECT_PATIENCE: Duration = Duration::from_secs(30);

/// A daemon running on a thread of this process, with an admin
/// connection.
pub struct Daemon {
    dir: PathBuf,
    /// The admin connection (registrations, stat, shutdown).
    pub admin: Client,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts a daemon over a fresh cache directory and connects to it.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = ServeConfig::new(dir);
        let handle = std::thread::spawn(move || run_daemon(cfg, 0));
        match Client::connect_dir_within(dir, CONNECT_PATIENCE) {
            Ok(admin) => Ok(Daemon { dir: dir.to_path_buf(), admin, handle }),
            Err(e) => {
                let _ = handle.join();
                Err(format!("daemon under {} did not come up: {e}", dir.display()))
            }
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_dir_within(&self.dir, CONNECT_PATIENCE).map_err(|e| e.to_string())
    }

    /// Shuts the daemon down, waits for its thread and removes its
    /// directory.
    pub fn stop(mut self) -> Result<(), String> {
        // A broken admin connection must not leave the daemon running:
        // ask once more on a fresh one before waiting for the thread.
        let asked = self
            .admin
            .shutdown()
            .map_err(|e| e.to_string())
            .or_else(|_| self.connect()?.shutdown().map_err(|e| e.to_string()));
        drop(self.admin);
        let joined = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        asked.map_err(|e| format!("shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One served matrix: its local copy and the daemon's handle.
pub struct Served {
    /// The matrix, generated locally.
    pub a: Csr,
    /// The daemon's content key.
    pub key: u64,
}

/// Checks a registration reply against the local decode of the same
/// matrix.
fn check_register(what: &str, reply: &RegisterReply, a: &Csr, mismatches: &mut Vec<String>) {
    let want = (matrix_key(a), a.rows(), a.cols(), a.nnz());
    let got = (reply.matrix, reply.rows, reply.cols, reply.nnz);
    if got != want {
        mismatches.push(format!("{what}: daemon answered {got:?}, local decode gives {want:?}"));
    }
}

/// Starts a daemon and registers the `serve-submit` matrices, checking
/// each reply against a local copy.
pub fn submit_setup(
    dir: &Path,
    mismatches: &mut Vec<String>,
) -> Result<(Daemon, Vec<Served>), String> {
    let mut daemon = Daemon::start(dir)?;
    let mut served = Vec::new();
    for id in MATRICES {
        let reply =
            daemon.admin.register(id, SUBMIT_SCALE).map_err(|e| format!("register m{id}: {e}"))?;
        let a = suite::entry_by_id(id).ok_or("suite id")?.generate(SUBMIT_SCALE);
        check_register(&format!("register m{id}/{SUBMIT_SCALE}"), &reply, &a, mismatches);
        served.push(Served { a, key: reply.matrix });
    }
    Ok((daemon, served))
}

/// Seed of request `step` of `client` in pass `pass`.
pub fn request_seed(seed: u64, pass: u64, client: usize, step: usize) -> u64 {
    derive(seed, &[1, pass, client as u64, step as u64])
}

/// Steps each client takes in one `serve-submit` pass.
pub const STEPS: usize = ROUNDS * MATRICES.len();

/// One timed request of a pass.
pub struct Timed<T> {
    /// Index into the served matrices.
    pub matrix: usize,
    /// The request's vector seed, or the upload's index in its pass.
    pub id: u64,
    /// Start and end, ns since the run's epoch.
    pub span: (u64, u64),
    /// What the call returned.
    pub result: Result<T, CallError>,
}

impl<T> Timed<T> {
    /// Latency, ms.
    pub fn ms(&self) -> f64 {
        (self.span.1 - self.span.0) as f64 / 1e6
    }
}

/// Runs one `serve-submit` pass: every client walks the matrix order
/// [`ROUNDS`] times, each request sent after the previous reply.
/// Returns the pass wall time and every client's requests.
pub fn submit_pass(
    clients: &mut [Client],
    served: &[Served],
    seed: u64,
    pass: u64,
    epoch: Instant,
) -> (f64, Vec<Vec<Timed<SubmitOutcome>>>) {
    let barrier = Barrier::new(clients.len());
    let t = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    (0..STEPS)
                        .map(|step| {
                            let matrix = step % served.len();
                            let seed = request_seed(seed, pass, c, step);
                            let start = epoch.elapsed().as_nanos() as u64;
                            let result = client.submit(served[matrix].key, seed);
                            let end = epoch.elapsed().as_nanos() as u64;
                            Timed { matrix, id: seed, span: (start, end), result }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submit client panicked")).collect::<Vec<_>>()
    });
    (t.elapsed().as_secs_f64(), per_client)
}

/// Whether `y` is bitwise `a · seeded_vector(seed)`.
pub fn spmv_matches(a: &Csr, seed: u64, y: &[f64]) -> bool {
    let want = a.spmv(&seeded_vector(a.cols(), seed));
    want.len() == y.len() && want.iter().zip(y).all(|(w, g)| w.to_bits() == g.to_bits())
}

/// Checks every reply of a pass; returns `(attempted, failed)`.
pub fn check_submits(
    served: &[Served],
    pass: &[Vec<Timed<SubmitOutcome>>],
    mismatches: &mut Vec<String>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for t in pass.iter().flatten() {
        attempted += 1;
        match &t.result {
            Ok(out) if spmv_matches(&served[t.matrix].a, t.id, &out.y) => {}
            Ok(_) => mismatches.push(format!(
                "submit m{} seed {}: reply differs bitwise from Csr::spmv",
                MATRICES[t.matrix], t.id
            )),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: submit m{} seed {} failed: {e}", MATRICES[t.matrix], t.id);
            }
        }
    }
    (attempted, failed)
}

/// The untraced `serve-submit` measurement.
pub fn measure_submit(seed: u64, seconds: f64, work: &Path) -> Result<Measured, String> {
    let mut m = Measured { ops_per_pass: CLIENTS * STEPS, ..Measured::default() };
    let mut ready = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let up = submit_setup(&work.join(format!("submit-{k}")), &mut m.mismatches)?;
        m.setups.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = ready.replace(up) {
            Daemon::stop(old)?;
        }
    }
    let (daemon, served) = ready.ok_or("no set-up ran")?;
    let mut clients = (0..CLIENTS).map(|_| daemon.connect()).collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let mut pass = 0;
    while keep_measuring(started, seconds, m.latencies_ms.len()) {
        let (wall, timed) = submit_pass(&mut clients, &served, seed, pass, started);
        pass += 1;
        m.passes.push(wall);
        m.latencies_ms.extend(timed.iter().flatten().map(Timed::ms));
        let (attempted, failed) = check_submits(&served, &timed, &mut m.mismatches);
        m.attempted += attempted;
        m.failed += failed;
    }
    drop(clients);
    daemon.stop()?;
    Ok(m)
}

/// The base matrices `serve-register` permutes, in upload order.
pub fn upload_bases() -> Vec<Csr> {
    MATRICES
        .iter()
        .map(|&id| suite::entry_by_id(id).expect("served ids are suite ids").generate(UPLOAD_SCALE))
        .collect()
}

/// A seeded uniform permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Permutation {
    let mut table: Vec<u32> = (0..n as u32).collect();
    let mut z = seed;
    for i in (1..n).rev() {
        z = mix(z);
        table.swap(i, (z % (i as u64 + 1)) as usize);
    }
    Permutation::new(table)
}

/// The MatrixMarket texts of one `serve-register` pass: every base matrix
/// under [`PERMS`] fresh seeded symmetric permutations.
pub fn upload_texts(bases: &[Csr], seed: u64, pass: u64) -> Vec<String> {
    let mut texts = Vec::new();
    for p in 0..PERMS {
        for (i, a) in bases.iter().enumerate() {
            let perm = permutation(a.rows(), derive(seed, &[2, pass, p as u64, i as u64]));
            texts.push(mmio::write_string(&perm.apply_symmetric(a)));
        }
    }
    texts
}

/// Uploads every text in order on one connection.
pub fn register_pass(
    client: &mut Client,
    texts: &[String],
    epoch: Instant,
) -> (f64, Vec<Timed<RegisterReply>>) {
    let t = Instant::now();
    let timed = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let start = epoch.elapsed().as_nanos() as u64;
            let result = client.register_mtx(text);
            let end = epoch.elapsed().as_nanos() as u64;
            Timed { matrix: i % MATRICES.len(), id: i as u64, span: (start, end), result }
        })
        .collect();
    (t.elapsed().as_secs_f64(), timed)
}

/// Checks every upload reply against a local decode of the same text;
/// returns `(attempted, failed)`.
pub fn check_uploads(
    texts: &[String],
    pass: &[Timed<RegisterReply>],
    mismatches: &mut Vec<String>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (text, t) in texts.iter().zip(pass) {
        attempted += 1;
        let what = format!("upload {} of m{}", t.id, MATRICES[t.matrix]);
        match (&t.result, Csr::from_mtx(text)) {
            (Ok(reply), Ok(local)) => check_register(&what, reply, &local, mismatches),
            (Ok(_), Err(e)) => mismatches.push(format!("{what}: local decode failed: {e}")),
            (Err(e), _) => {
                failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
            }
        }
    }
    (attempted, failed)
}

/// Starts a daemon for uploads, generates the base matrices and the
/// texts of the first pass.
pub fn register_setup(dir: &Path, seed: u64) -> Result<(Daemon, Vec<Csr>, Vec<String>), String> {
    let daemon = Daemon::start(dir)?;
    let bases = upload_bases();
    let first = upload_texts(&bases, seed, 0);
    Ok((daemon, bases, first))
}

/// The untraced `serve-register` measurement. Every pass uploads to a
/// fresh daemon, so each pass does the same work and the registry's
/// memory does not grow with the number of passes a run completes.
pub fn measure_register(seed: u64, seconds: f64, work: &Path) -> Result<Measured, String> {
    let mut m = Measured { ops_per_pass: PERMS * MATRICES.len(), ..Measured::default() };
    let mut ready = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let up = register_setup(&work.join(format!("register-{k}")), seed)?;
        m.setups.push(t.elapsed().as_secs_f64());
        if let Some((old, _, _)) = ready.replace(up) {
            Daemon::stop(old)?;
        }
    }
    let (mut daemon, bases, mut texts) = ready.ok_or("no set-up ran")?;
    let started = Instant::now();
    let mut pass = 0;
    loop {
        let (wall, timed) = register_pass(&mut daemon.admin, &texts, started);
        daemon.stop()?;
        pass += 1;
        m.passes.push(wall);
        m.latencies_ms.extend(timed.iter().map(Timed::ms));
        let (attempted, failed) = check_uploads(&texts, &timed, &mut m.mismatches);
        m.attempted += attempted;
        m.failed += failed;
        if !keep_measuring(started, seconds, m.latencies_ms.len()) {
            return Ok(m);
        }
        daemon = Daemon::start(&work.join(format!("register-pass-{pass}")))?;
        texts = upload_texts(&bases, seed, pass);
    }
}

/// Spans of a client pass, one per call, under `name`, numbered as
/// operations from 0.
pub fn call_spans<T>(name: &'static str, per_client: &[Vec<Timed<T>>]) -> Vec<Span> {
    (0..)
        .zip(per_client.iter().flatten())
        .map(|(op, t)| Span { name, start: t.span.0, end: t.span.1, parent: None, op })
        .collect()
}
