//! Runs every experiment in paper order and prints all tables plus a final
//! paper-vs-measured summary — the data behind EXPERIMENTS.md.
//!
//! All expensive work (GPU model runs, SpaceA simulations) is enumerated via
//! the experiment registry, computed in parallel on `--jobs` workers into
//! the persistent result cache, and rendered from cache afterwards — so the
//! tables are byte-identical for any worker count, and a second invocation
//! is answered almost entirely from `target/spacea-cache/`.
//!
//! `--only ID[,ID...]` selects registry entries (`table1`, `fig2`, `fig5`,
//! `table2`, `fig6`…`fig10`, `table3`, `graphs`, `formats`): only their jobs
//! are pre-warmed, and only their sections and summary lines are printed,
//! in registry order whatever the order given.
//!
//! Run: `cargo run --release -p spacea-bench --bin all_experiments
//! [--scale N] [--graph-scale N] [--cubes N] [--quick] [--jobs N]
//! [--no-cache] [--csv] [--only ID[,ID...]]`

use spacea_bench::{ArgError, HarnessOptions, HarnessSession};
use spacea_core::experiments::{registry, Experiment};
use std::time::Instant;

const USAGE: &str = "all_experiments: --only ID[,ID...] (registry ids, printed in registry order)";

/// The registry entries named by `--only` (all of them without it), in
/// registry order; an unknown id is an error listing the valid ones.
fn select(only: Option<&str>) -> Result<Vec<Experiment>, ArgError> {
    let all = registry();
    let Some(only) = only else { return Ok(all) };
    let ids: Vec<&str> = only.split(',').collect();
    if let Some(bad) = ids.iter().find(|id| all.iter().all(|e| e.id != **id)) {
        let valid: Vec<&str> = all.iter().map(|e| e.id).collect();
        return Err(ArgError::new(format!(
            "unknown experiment id '{bad}' (valid: {})",
            valid.join(", ")
        )));
    }
    Ok(all.into_iter().filter(|e| ids.contains(&e.id)).collect())
}

fn main() {
    let mut only = None;
    let opts = HarnessOptions::from_args_with(std::env::args().skip(1), |flag, args| {
        if flag != "--only" {
            return Ok(false);
        }
        only = Some(args.value("--only")?);
        Ok(true)
    })
    .unwrap_or_else(|e| e.exit_with_usage(USAGE));
    let experiments = select(only.as_deref()).unwrap_or_else(|e| e.exit_with_usage(USAGE));
    let mut session = HarnessSession::from_opts(opts);
    let started = Instant::now();

    let jobs = experiments.iter().flat_map(|e| (e.jobs)(&session.opts.cfg)).collect();
    let manifest = session.prewarm(jobs);

    let outputs: Vec<_> = experiments.iter().map(|e| (e.run)(&mut session.cache)).collect();
    for out in &outputs {
        session.emit(out);
        println!();
    }
    if !session.csv {
        println!("## Paper vs measured summary");
        for out in &outputs {
            for (name, paper, measured) in &out.headline {
                println!("  [{}] {name}: paper {paper:.3} | measured {measured:.3}", out.id);
            }
        }
    }
    eprint!("{}", manifest.summary());
    match session.write_manifest(&manifest) {
        Ok(path) => eprintln!("harness: run manifest written to {}", path.display()),
        Err(e) => eprintln!("harness: could not write run manifest: {e}"),
    }
    eprintln!("total harness time: {:.1}s", started.elapsed().as_secs_f64());
}
