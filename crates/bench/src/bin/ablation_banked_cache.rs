//! **Ablation**: banked MCACHE (the ASIC variant sketched in §V — "banked
//! cache ... and PE set wise smaller cache") vs the shared FPGA design.
//!
//! Two effects trade off as the cache splits into PE-set-private banks at
//! equal total capacity:
//!
//! * *hit rate* — a shared cache captures similarity across all PE sets'
//!   vector streams; private banks only see their own slice, so reuse
//!   between vectors that land in different PE sets is lost;
//! * *insertion contention* — private banks never contend, while the
//!   shared cache serializes same-set inserts through its per-set queues.
//!
//! These banks are private slices per PE set, not the signature-homed banks
//! of [`MCache::banked`]: there a repeated signature always probes its home
//! bank, so that split loses no reuse.

use mercury_mcache::{HitKind, MCache, MCacheConfig};
use mercury_rpq::Signature;
use mercury_tensor::rng::Rng;
use mercury_workloads::stream::VectorStream;

fn main() {
    println!("# Ablation: shared MCACHE vs PE-set-private banks (1024 entries total)");
    println!("banks\thit_rate_pct\tinsert_conflicts\tnote");
    let stream = VectorStream::with_similarity(16_384, 0.7, 20);
    let mut rng = Rng::new(99);
    let ids = stream.cluster_ids(&mut rng);
    let max_id = ids.iter().copied().max().unwrap_or(0);
    let sigs: Vec<Signature> = (0..=max_id)
        .map(|_| {
            Signature::from_bits(
                ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128,
                20,
            )
        })
        .collect();

    for &banks in &[1usize, 2, 4, 8, 16] {
        // Each bank serves an equal slice of the PE sets' streams.
        let sets_per_bank = (64 / banks).max(1);
        let mut caches: Vec<MCache> = (0..banks)
            .map(|_| MCache::new(MCacheConfig::new(sets_per_bank, 16).expect("valid geometry")))
            .collect();
        for c in &mut caches {
            c.begin_insert_batch();
        }
        let mut hits = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            // Vector i belongs to PE set (i mod 56); PE sets partition
            // round-robin across banks.
            let bank = (i % 56) % banks;
            if caches[bank].probe_insert(sigs[id]).kind == HitKind::Hit {
                hits += 1;
            }
        }
        let conflicts: u64 = caches.iter().map(|c| c.stats().insert_conflicts).sum();
        let note = if banks == 1 {
            "shared (FPGA design)"
        } else {
            "private banks (ASIC sketch)"
        };
        println!(
            "{banks}\t{:.1}\t{conflicts}\t{note}",
            100.0 * hits as f64 / ids.len() as f64
        );
    }
}
