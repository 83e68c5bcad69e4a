//! End-to-end integration: offline campaign -> training -> online
//! prediction -> frequency selection, across crate boundaries.

use gpu_dvfs::core::models::PredictEngines;
use gpu_dvfs::nn::Precision;
use gpu_dvfs::prelude::*;

fn pipeline_and_backend() -> (SimulatorBackend, TrainedPipeline) {
    let backend = SimulatorBackend::ga100();
    // Stride 2 over the 61-state grid: ~half the campaign cost with enough
    // coverage that app accuracy stays in the paper band.
    let pipeline = TrainedPipeline::train_on(&backend, 2);
    (backend, pipeline)
}

#[test]
fn offline_online_flow_produces_actionable_selection() {
    let (backend, pipeline) = pipeline_and_backend();
    let app = gpu_dvfs::kernels::apps::bert();
    let predictor = pipeline.predictor(pipeline.train_spec.clone());
    let profile = predictor.predict_online(&backend, &app);

    // The predicted profile covers the full used grid even though the
    // training campaign was strided.
    assert_eq!(profile.frequencies.len(), 61);

    let sel = profile.select(Objective::Ed2p, None);
    assert!(sel.frequency_mhz >= 510.0 && sel.frequency_mhz <= 1410.0);

    // Deploying the choice on the ground truth must not be catastrophic:
    // energy does not increase and time loss stays far below the
    // no-guardrail worst case.
    let measured = measured_profile(&backend, &app);
    let idx = measured
        .frequencies
        .iter()
        .position(|&f| f == sel.frequency_mhz)
        .expect("on grid");
    assert!(measured.energy_saving_at(idx) > -0.02);
    assert!(measured.time_change_at(idx) < 0.25);
}

#[test]
fn prediction_accuracy_spans_the_paper_band_for_unseen_apps() {
    let (backend, pipeline) = pipeline_and_backend();
    let predictor = pipeline.predictor(pipeline.train_spec.clone());
    for app in gpu_dvfs::kernels::apps::evaluation_apps() {
        let measured = measured_profile(&backend, &app);
        let predicted = predictor.predict_online(&backend, &app);
        let p_acc =
            gpu_dvfs::nn::metrics::accuracy_from_mape(&predicted.power_w, &measured.power_w);
        assert!(p_acc > 88.0, "{}: power accuracy {p_acc:.1}%", app.name);
    }
}

#[test]
fn threshold_guardrail_is_respected_end_to_end() {
    let (backend, pipeline) = pipeline_and_backend();
    let app = gpu_dvfs::kernels::apps::resnet50();
    let predictor = pipeline.predictor(pipeline.train_spec.clone());
    let profile = predictor.predict_online(&backend, &app);
    let free = profile.select(Objective::EnergyOnly, None);
    let capped = profile.select(Objective::EnergyOnly, Some(0.02));
    assert!(capped.frequency_mhz >= free.frequency_mhz);
    assert!(capped.perf_degradation <= 0.02 + 1e-9);
}

#[test]
fn trained_models_round_trip_through_json() {
    let (backend, pipeline) = pipeline_and_backend();
    let json = pipeline.models.to_json();
    let restored = PowerTimeModels::from_json(&json).expect("valid JSON");
    let spec = backend.spec();
    let freqs = backend.grid().used();
    let sweep = |models: &PowerTimeModels| {
        PredictEngines::compile(models, Precision::F64)
            .predict_power_w_batch(spec, 0.6, 0.5, &freqs)
    };
    assert_eq!(sweep(&pipeline.models), sweep(&restored));
}
