//! Deployment-path integration: train → persist → reload → stream frames
//! online → relay. This is the path a real adopter takes, exercising
//! `model_io`, `streaming`, and `marshal` together.

use eventhit::core::experiment::{ExperimentConfig, TaskRun};
use eventhit::core::model_io;
use eventhit::core::pipeline::Strategy;
use eventhit::core::streaming::OnlinePredictor;
use eventhit::core::tasks::task;

#[test]
fn train_save_load_stream_round_trip() {
    let cfg = ExperimentConfig {
        scale: 0.15,
        ..ExperimentConfig::quick(91)
    };
    let run = TaskRun::execute(&task("TA10").unwrap(), &cfg);
    let strategy = Strategy::Ehcr { c: 0.9, alpha: 0.5 };

    // Persist the trained model to bytes and reload it.
    let mut blob = Vec::new();
    model_io::save(&run.model, &mut blob).expect("save");
    let restored = model_io::load(&mut blob.as_slice()).expect("load");

    // Drive both the original and the restored model through the online
    // predictor over the same frames; decisions must be identical.
    let features = run.features.clone();
    let mut original = OnlinePredictor::new(run.model, run.state.clone(), strategy);
    let mut reloaded = OnlinePredictor::new(restored, run.state.clone(), strategy);

    let start = (features.rows() * 3) / 4;
    let a = original.run_over(&features, start);
    let b = reloaded.run_over(&features, start);
    assert!(!a.is_empty(), "online predictor should emit decisions");
    assert_eq!(a, b, "persisted model must behave identically online");
}

#[test]
fn online_decisions_respect_conformal_knobs() {
    let cfg = ExperimentConfig {
        scale: 0.15,
        ..ExperimentConfig::quick(92)
    };
    let run = TaskRun::execute(&task("TA11").unwrap(), &cfg);
    let features = run.features.clone();
    let state = run.state.clone();

    // Conservative vs permissive configuration of the SAME model.
    let mut model_bytes = Vec::new();
    model_io::save(&run.model, &mut model_bytes).unwrap();
    let frames = |strategy: Strategy| -> u64 {
        let model = model_io::load(&mut model_bytes.as_slice()).unwrap();
        let mut online = OnlinePredictor::new(model, state.clone(), strategy);
        online
            .run_over(&features, 0)
            .iter()
            .flat_map(|d| d.predictions.iter().map(|p| p.frames()))
            .sum()
    };

    let conservative = frames(Strategy::Ehcr { c: 0.6, alpha: 0.2 });
    let permissive = frames(Strategy::Ehcr {
        c: 0.99,
        alpha: 0.9,
    });
    assert!(
        permissive >= conservative,
        "higher (c, alpha) must never relay fewer frames: {permissive} vs {conservative}"
    );
}
