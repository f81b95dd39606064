//! Cross-crate integration: invariants the paper states, checked against
//! the composed system.

use mercury_accel::config::Dataflow;
use mercury_accel::timing;
use mercury_bench::{simulate_model, ModelSimConfig};
use mercury_fpga::{baseline_power, baseline_resources, mercury_power, mercury_resources};
use mercury_mcache::MCacheConfig;
use mercury_models::{all_models, vgg13};

/// §III-B2 / Figure 8: pipelining takes per-bit cost from 2x to x.
#[test]
fn pipelined_signature_speedup_approaches_two() {
    for x in [3usize, 5, 7] {
        let n = 1000;
        let np = timing::signature_cycles(x, n, false) as f64;
        let p = timing::signature_cycles(x, n, true) as f64;
        let ratio = np / p;
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "x={x}: asymptotic pipeline speedup {ratio} should be ~2"
        );
    }
}

/// §VII-A: the twelve models all speed up; the geomean lands near the
/// paper's 1.97x.
#[test]
fn all_models_speed_up_with_papers_shape() {
    let cfg = ModelSimConfig::default();
    let mut log_sum = 0.0;
    let mut count = 0;
    for spec in all_models() {
        let s = simulate_model(&spec, &cfg).speedup();
        assert!(s > 1.0, "{} must speed up, got {s}", spec.name);
        log_sum += s.ln();
        count += 1;
    }
    let geomean = (log_sum / count as f64).exp();
    assert!(
        (1.6..2.3).contains(&geomean),
        "geomean {geomean} too far from the paper's 1.97"
    );
}

/// §VII-A: bigger networks save more (ResNet family ordering).
#[test]
fn bigger_resnets_save_more() {
    let cfg = ModelSimConfig::default();
    let models = all_models();
    let speedup = |name: &str| {
        let spec = models.iter().find(|m| m.name == name).unwrap();
        simulate_model(spec, &cfg).speedup()
    };
    let r50 = speedup("ResNet50");
    let r101 = speedup("ResNet101");
    let r152 = speedup("ResNet152");
    assert!(r152 > r101 && r101 > r50, "{r50} {r101} {r152}");
}

/// §VII-E / Figure 18: row stationary beats weight stationary beats input
/// stationary.
#[test]
fn dataflow_ordering_holds_at_model_level() {
    let spec = vgg13();
    let speedup = |flow: Dataflow| {
        let mut cfg = ModelSimConfig::default();
        cfg.accelerator.dataflow = flow;
        simulate_model(&spec, &cfg).speedup()
    };
    let rs = speedup(Dataflow::RowStationary);
    let ws = speedup(Dataflow::WeightStationary);
    let is = speedup(Dataflow::InputStationary);
    assert!(rs > ws && ws > is, "rs {rs} ws {ws} is {is}");
}

/// §VII-C / Figure 16: bigger caches never hurt, and 1024→2048 entries
/// gives only marginal gains.
#[test]
fn cache_size_saturates() {
    let spec = vgg13();
    let speedup = |entries: usize| {
        let cfg = ModelSimConfig {
            cache: MCacheConfig::new(entries / 16, 16).unwrap(),
            ..ModelSimConfig::default()
        };
        simulate_model(&spec, &cfg).speedup()
    };
    let s512 = speedup(512);
    let s1024 = speedup(1024);
    let s2048 = speedup(2048);
    assert!(s1024 >= s512 * 0.98, "{s512} -> {s1024}");
    assert!(s2048 >= s1024 * 0.98, "{s1024} -> {s2048}");
    let marginal = s2048 / s1024;
    assert!(
        marginal < 1.1,
        "doubling past 1024 entries should be marginal, got {marginal}"
    );
}

/// Table IV: MERCURY's resource and power overheads stay in the published
/// band while DSPs (the PEs) are untouched.
#[test]
fn fpga_overheads_match_table_four() {
    let br = baseline_resources();
    let mr = mercury_resources(64, 16);
    assert_eq!(br.dsp48e1, mr.dsp48e1);
    assert!(mr.slice_luts / br.slice_luts > 3.0); // comparator network
    assert!(mr.slice_registers / br.slice_registers < 2.0);
    let power_ratio = mercury_power(64, 16).total() / baseline_power().total();
    assert!(
        (1.10..1.16).contains(&power_ratio),
        "power ratio {power_ratio} vs paper's 1.135"
    );
}

/// §III-D: adaptive stoppage never makes a model slower.
#[test]
fn stoppage_is_monotone_improvement() {
    for spec in all_models() {
        let base = ModelSimConfig {
            adaptive: false,
            ..ModelSimConfig::default()
        };
        let adaptive = ModelSimConfig {
            adaptive: true,
            ..ModelSimConfig::default()
        };
        let plain = simulate_model(&spec, &base).total_cycles().total();
        let tuned = simulate_model(&spec, &adaptive).total_cycles().total();
        assert!(tuned <= plain, "{}: {tuned} > {plain}", spec.name);
    }
}
