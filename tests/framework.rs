//! Data-collection framework integration: campaign -> CSV on disk ->
//! read-back -> dataset -> trained model.

use gpu_dvfs::prelude::*;
use gpu_dvfs::telemetry::{csv, CollectionCampaign, LaunchConfig};

#[test]
fn campaign_csv_round_trip_feeds_training() {
    let dir = std::env::temp_dir().join("gpu_dvfs_it_framework");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign.csv");

    let backend = SimulatorBackend::ga100();
    let workloads: Vec<PhasedWorkload> = gpu_dvfs::kernels::suite::training_suite()
        .iter()
        .take(6)
        .map(|k| k.workload(backend.spec()))
        .collect();

    // Sweep a coarse grid including the default clock, streaming to CSV.
    let freqs: Vec<f64> = backend
        .grid()
        .used()
        .into_iter()
        .step_by(10)
        .chain([1410.0])
        .collect();
    let cfg = LaunchConfig {
        frequencies: freqs,
        runs: 2,
        output: Some(path.clone()),
    };
    let samples = CollectionCampaign::new(&backend, cfg)
        .collect(&workloads)
        .unwrap();

    // Read back from disk and train from the persisted data.
    let restored = csv::read_samples(&path).unwrap();
    assert_eq!(restored.len(), samples.len());
    let ds = Dataset::from_samples(backend.spec(), &restored).unwrap();
    assert_eq!(ds.len(), 2 * restored.len());
    let models = PowerTimeModels::train(&ds);
    assert!(models.power_history.train_loss.last().unwrap() < &0.05);

    std::fs::remove_file(&path).ok();
}

#[test]
fn campaign_leaves_device_at_default_clock() {
    let backend = SimulatorBackend::ga100();
    let workloads = vec![PhasedWorkload::single(
        gpu_dvfs::gpu::SignatureBuilder::new("w")
            .flops(1e12)
            .bytes(1e11)
            .build(),
    )];
    let cfg = LaunchConfig {
        frequencies: vec![510.0, 750.0],
        runs: 1,
        output: None,
    };
    CollectionCampaign::new(&backend, cfg)
        .collect(&workloads)
        .unwrap();
    assert_eq!(backend.app_clock(), 1410.0);
}
