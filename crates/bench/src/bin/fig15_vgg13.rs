//! **Figure 15**: VGG-13 case study — (a) MCACHE access mix per layer,
//! (b) cycles per layer for baseline and MERCURY, (c) unique vectors per
//! layer.
//!
//! Paper reference: HIT+MAU grow through the layers as vector counts and
//! cache pressure fall; early layers carry the most unique vectors
//! (hundreds, bounded by MCACHE capacity per channel).

use mercury_bench::{simulate_model, ModelSimConfig};
use mercury_models::vgg13;

fn main() {
    let cfg = ModelSimConfig::default();
    let spec = vgg13();
    let report = simulate_model(&spec, &cfg);
    let conv_stats: Vec<_> = spec
        .layers
        .iter()
        .zip(&report.layers)
        .filter(|(l, _)| matches!(l, mercury_models::LayerSpec::Conv { .. }))
        .collect();

    println!("# Figure 15a: MCACHE access mix per VGG-13 conv layer");
    println!("layer\thit_pct\tmau_pct\tmnu_pct");
    for (i, (_, s)) in conv_stats.iter().enumerate() {
        let (h, m, n) = s.access_mix();
        println!(
            "layer-{}\t{:.1}\t{:.1}\t{:.1}",
            i + 1,
            100.0 * h,
            100.0 * m,
            100.0 * n
        );
    }

    println!();
    println!("# Figure 15b: cycles per layer (signature + compute vs baseline)");
    println!("layer\tbaseline\tmercury_signature\tmercury_compute");
    for (i, (_, s)) in conv_stats.iter().enumerate() {
        println!(
            "layer-{}\t{}\t{}\t{}",
            i + 1,
            s.cycles.baseline,
            s.cycles.signature,
            s.cycles.compute
        );
    }

    println!();
    println!("# Figure 15c: unique vectors per layer (per sampled channel)");
    println!("layer\tunique_vectors_per_channel");
    for (i, ((layer, s), _)) in conv_stats.iter().zip(0..).enumerate() {
        let channels = layer.reuse_scopes() as u64;
        // Forward + two backward passes were accumulated; report the
        // forward-equivalent per-channel count.
        println!(
            "layer-{}\t{}",
            i + 1,
            s.unique_vectors / (channels * 3).max(1)
        );
    }
}
