//! Section VII check: SpaceA realized on HBM-like stacks vs the HMC-like
//! machine under test, under an equivalent configuration
//! ([`spacea_arch::HwConfig::on_hbm`]: same PE count, the memory organization changed).
//! The paper claims "similar performance and power"; this table quantifies
//! the similarity over the Table I suite.

use super::context::{ExpConfig, ExpOutput, MapKind, SuiteCache};
use crate::table::{fmt, geo_mean, Table};
use spacea_harness::JobSpec;
use spacea_matrix::suite;

/// The jobs this table consumes: every matrix on the configured (HMC-like)
/// machine and on its HBM realization, proposed mapping. At the default
/// scale that is [`spacea_arch::HwConfig::spacea_on_hbm`].
pub fn jobs(cfg: &ExpConfig) -> Vec<JobSpec> {
    let hbm = cfg.hw.on_hbm();
    suite::entries()
        .iter()
        .flat_map(|e| {
            [cfg.sim_job(e.id, MapKind::Proposed), cfg.sim_job_with(e.id, MapKind::Proposed, &hbm)]
        })
        .collect()
}

/// Regenerates the per-matrix HBM/HMC cycle ratios and their geo-mean.
pub fn run(cache: &mut SuiteCache) -> ExpOutput {
    let hbm = cache.cfg.hw.on_hbm();
    let mut table = Table::new(
        "Section VII: HMC-like vs HBM-like realization (equivalent configuration)",
        &["ID", "Matrix", "HMC cycles", "HBM cycles", "HBM/HMC"],
    );
    let mut ratios = Vec::new();
    for entry in cache.entries().to_vec() {
        let r_hmc = cache.sim(entry.id, MapKind::Proposed);
        let r_hbm = cache.sim_with(entry.id, MapKind::Proposed, &hbm);
        let ratio = r_hbm.cycles as f64 / r_hmc.cycles as f64;
        ratios.push(ratio);
        table.push_row(vec![
            entry.id.to_string(),
            entry.name.to_string(),
            r_hmc.cycles.to_string(),
            r_hbm.cycles.to_string(),
            fmt(ratio, 3),
        ]);
    }
    let mean = geo_mean(&ratios);
    table.push_row(vec!["-".into(), "Geo. Mean".into(), "-".into(), "-".into(), fmt(mean, 3)]);
    table.push_note(
        "the paper (Section VII) argues both memory technologies give similar performance; \
         a geo-mean ratio near 1.0 confirms it in this model",
    );
    ExpOutput {
        id: "hbm_comparison",
        table,
        extra_tables: vec![],
        headline: vec![("geo-mean HBM/HMC cycle ratio".into(), 1.0, mean)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_per_matrix_plus_the_geo_mean() {
        let mut cache = SuiteCache::new(ExpConfig::quick());
        let out = run(&mut cache);
        assert_eq!(out.table.rows.len(), suite::entries().len() + 1);
        assert_eq!(suite::entries().len(), 15);
        let last = out.table.rows.last().unwrap();
        assert_eq!(last[1], "Geo. Mean");
        let mean: f64 = last[4].parse().unwrap();
        assert!(mean > 0.0);
        assert_eq!(out.headline[0].1, 1.0);
    }

    #[test]
    fn the_hbm_machine_follows_the_shape_under_test() {
        for cfg in [ExpConfig::quick(), ExpConfig::default(), ExpConfig::default().with_cubes(4)] {
            let pes: Vec<usize> = jobs(&cfg)
                .iter()
                .filter_map(|j| match j {
                    JobSpec::Sim { hw, .. } => Some(hw.shape.product_pes()),
                    _ => None,
                })
                .collect();
            assert_eq!(pes.len(), 2 * suite::entries().len());
            assert!(pes.iter().all(|&n| n == cfg.hw.shape.product_pes()), "{pes:?}");
        }
        assert_eq!(ExpConfig::default().hw.on_hbm(), spacea_arch::HwConfig::spacea_on_hbm());
    }
}
