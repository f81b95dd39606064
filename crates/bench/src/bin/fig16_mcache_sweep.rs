//! **Figure 16**: impact of MCACHE organization on MERCURY's speedup —
//! cache sizes {512, 1024, 2048} entries × associativity {8, 16, 32}.
//!
//! Paper reference: performance grows with size and associativity;
//! 1024-entry/16-way is the sweet spot (2048 entries add little). The
//! paper could not synthesize 32-way configurations (Vivado timeout); the
//! simulator has no such limit, so the 32-way column is filled in.

use mercury_bench::{simulate_model, ModelSimConfig};
use mercury_mcache::MCacheConfig;
use mercury_models::all_models;

fn main() {
    println!("# Figure 16: speedup vs MCACHE organization");
    println!("entries\tways\tmodel\tspeedup");
    for &entries in &[512usize, 1024, 2048] {
        for &ways in &[8usize, 16, 32] {
            let sets = entries / ways;
            let cfg = ModelSimConfig {
                cache: MCacheConfig::new(sets, ways).expect("valid cache geometry"),
                ..ModelSimConfig::default()
            };
            let mut log_sum = 0.0;
            let mut count = 0;
            for spec in all_models() {
                let s = simulate_model(&spec, &cfg).speedup();
                log_sum += s.ln();
                count += 1;
                println!("{entries}\t{ways}\t{}\t{s:.3}", spec.name);
            }
            println!(
                "{entries}\t{ways}\tGeomean\t{:.3}",
                (log_sum / count as f64).exp()
            );
        }
    }
}
