//! MCACHE — the memoization cache at the centre of MERCURY (§III-B3 and §V
//! of the paper).
//!
//! MCACHE is a set-associative cache that is *indexed and tagged by RPQ
//! signatures* and whose data portion holds previously computed dot-product
//! results. It differs from an ordinary cache in two ways the paper calls
//! out explicitly:
//!
//! 1. **Split valid bits.** A signature (tag) arrives before any result
//!    (data) exists, so each line carries a Valid-Tag (VT) bit and one
//!    Valid-Data (VD) bit *per data version*, one version per in-flight
//!    filter.
//! 2. **No replacement.** Once a set is full, new signatures are not
//!    inserted (the access is recorded as *miss-no-update*). Lines live
//!    until the whole cache is cleared at a channel boundary.
//!
//! The tag half decides every reuse: each probe classifies its input
//! vector as a [`HitKind`] (HIT / MAU / MNU) and names the line it maps
//! to. Within one pass a reuse engine hands a HIT the result its producer
//! just computed, which is the value the hardware would read back. Across
//! passes, the data half holds it: an [`MCache`] keeps the result row its
//! line's producer computed (one row per line, valid until the line's rows
//! are dropped), so a HIT in a later pass copies that row. Only the
//! persistent engines a session streams through store rows; a batch
//! engine's cache restarts with every scope, and its data half stays
//! empty. The `mercury-accel` cycle model charges the data traffic.
//!
//! [`MCache`] is the one cache type: the model simulations, the ablation
//! bins and every reuse engine hold it. [`MCache::new`] builds the FPGA
//! design, one bank of sets, which per-scope batch engines hold;
//! [`MCache::banked`] splits the sets across signature-homed banks (§V)
//! for the persistent engines a session streams through.
//!
//! # Examples
//!
//! ```
//! use mercury_mcache::{HitKind, MCache, MCacheConfig};
//! use mercury_rpq::Signature;
//!
//! # fn main() -> Result<(), mercury_mcache::McacheError> {
//! let mut cache = MCache::new(MCacheConfig::new(64, 16)?);
//! let sig = Signature::from_bits(0b1011, 20);
//!
//! // First access inserts the tag: miss-and-update. This vector's PE set
//! // computes the dot products.
//! let first = cache.probe_insert(sig);
//! assert_eq!(first.kind, HitKind::Mau);
//!
//! // A later vector with the same signature hits the same line and
//! // reuses the producer's results.
//! let second = cache.probe_insert(sig);
//! assert_eq!(second.kind, HitKind::Hit);
//! assert_eq!(second.entry, first.entry);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
mod error;
mod hitmap;

pub use cache::{AccessOutcome, EntryId, MCache, MCacheConfig, MCacheStats, StoredRow};
pub use error::McacheError;
pub use hitmap::{HitKind, OutcomeMix};
