//! Ablation study for the design choices DESIGN.md calls out.
//!
//! Reports *simulated* cycles (not wall time) of the proposed design against
//! four cripple-one-mechanism variants:
//!
//! * `no-l1-cam` — L1 CAM reduced to a single entry (no input-vector reuse
//!   at the bank group).
//! * `no-l2-cam` — L2 CAM reduced to a single entry (no reuse at the vault).
//! * `no-dedup` — load-queue request deduplication disabled: every miss
//!   sends its own packet downstream.
//! * `naive-mapping` — the proposed hardware with the random mapping
//!   (fig6's naive simulations).

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, Table};
use spacea_arch::HwConfig;
use spacea_harness::JobSpec;
use spacea_matrix::suite;

/// The study's rows: name, machine, mapping. The first row is the full
/// design every other row is normalized to. Both [`jobs`] and [`run`] read
/// this list, so what is pre-warmed is exactly what is rendered.
fn variants(base: &HwConfig) -> Vec<(&'static str, HwConfig, MapKind)> {
    let mut no_l1 = base.clone();
    no_l1.l1_cam.sets = 1;
    no_l1.l1_cam.ways = 1;
    let mut no_l2 = base.clone();
    no_l2.l2_cam.sets = 1;
    no_l2.l2_cam.ways = 1;
    let mut no_dedup = base.clone();
    no_dedup.ldq_dedup = false;
    vec![
        ("proposed", base.clone(), MapKind::Proposed),
        ("no-l1-cam", no_l1, MapKind::Proposed),
        ("no-l2-cam", no_l2, MapKind::Proposed),
        ("no-dedup", no_dedup, MapKind::Proposed),
        ("naive-mapping", base.clone(), MapKind::Naive),
    ]
}

/// The jobs this study consumes: every variant on every Table I matrix.
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (_, hw, kind) in variants(&cfg.hw) {
        for e in suite::entries() {
            jobs.push(cfg.sim_job_with(e.id, kind, &hw));
        }
    }
    jobs
}

/// Regenerates the geo-mean slowdown and TSV-traffic ratio of each variant.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let mut table = Table::new(
        "Ablations: simulated slowdown vs the full proposed design (geo-mean over Table I)",
        &["Variant", "Geo-mean slowdown", "Geo-mean TSV traffic ratio"],
    );
    let ids: Vec<u8> = cache.entries().iter().map(|e| e.id).collect();
    let mut base_cycles = Vec::new();
    let mut base_tsv = Vec::new();
    for &id in &ids {
        let r = cache.sim(id, MapKind::Proposed);
        base_cycles.push(r.cycles as f64);
        base_tsv.push(r.tsv_bytes.max(1) as f64);
    }
    let base_hw = cache.cfg.hw.clone();
    for (name, hw, kind) in variants(&base_hw) {
        let mut slowdowns = Vec::new();
        let mut tsv_ratios = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let r = cache.sim_with(id, kind, &hw);
            slowdowns.push(r.cycles as f64 / base_cycles[k]);
            tsv_ratios.push(r.tsv_bytes.max(1) as f64 / base_tsv[k]);
        }
        table.push_row(vec![
            name.to_string(),
            fmt(geo_mean(&slowdowns), 3),
            fmt(geo_mean(&tsv_ratios), 3),
        ]);
    }
    table.push_note("slowdown 1.0 = the full design; higher = that mechanism matters");
    ExpOutput { id: "ablations", table, extra_tables: vec![], headline: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_row_is_the_unit_and_render_needs_only_prewarmed_jobs() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let jobs = spacea_harness::dedup_jobs(jobs(&cache.cfg));
        assert_eq!(jobs.len(), variants(&cache.cfg.hw).len() * suite::entries().len());
        for job in &jobs {
            cache.run_job(job);
        }
        let computed = cache.store().stats().misses;
        let out = run(&mut cache);
        assert_eq!(cache.store().stats().misses, computed, "render ran an unlisted job");
        assert_eq!(out.table.rows.len(), 5);
        assert_eq!(out.table.rows[0], vec!["proposed", "1.000", "1.000"]);
        let names: Vec<&str> = out.table.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, ["proposed", "no-l1-cam", "no-l2-cam", "no-dedup", "naive-mapping"]);
    }
}
