use std::fmt;

/// Outcome of an MCACHE probe for one input vector (paper Figure 9) — one
/// entry of the paper's hit map, which every PE set consults before it
/// would begin a dot product. Reuse decisions are all made before the
/// convolution starts, so the accelerator's streaming pattern never
/// branches mid-flight (§III-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitKind {
    /// The signature was already cached: the PE set skips its dot products
    /// and reuses the stored results.
    Hit,
    /// Miss-And-Update: the signature was inserted; this vector's PE set
    /// computes the dot products and writes them into the cache.
    Mau,
    /// Miss-No-Update: the set was full, nothing was inserted; the PE set
    /// computes the dot products but discards them for reuse purposes.
    Mnu,
}

/// Counts of the three probe outcomes over a stream of input vectors. The
/// cycle model charges a vector by its outcome kind alone, so these counts
/// are all it needs of a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeMix {
    /// HIT count.
    pub hits: usize,
    /// MAU count.
    pub maus: usize,
    /// MNU count.
    pub mnus: usize,
}

impl OutcomeMix {
    /// Tallies a slice of outcomes.
    pub fn from_outcomes(outcomes: &[HitKind]) -> Self {
        let mut mix = OutcomeMix::default();
        for &o in outcomes {
            match o {
                HitKind::Hit => mix.hits += 1,
                HitKind::Mau => mix.maus += 1,
                HitKind::Mnu => mix.mnus += 1,
            }
        }
        mix
    }

    /// `n` vectors that all computed without a cache line — the mix of a
    /// pass with detection off.
    pub fn all_mnu(n: usize) -> Self {
        OutcomeMix {
            mnus: n,
            ..OutcomeMix::default()
        }
    }

    /// The number of vectors counted.
    pub fn total(&self) -> usize {
        self.hits + self.maus + self.mnus
    }

    /// Fraction of probes that hit.
    pub fn hit_rate(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        self.hits as f64 / n as f64
    }
}

impl fmt::Display for HitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitKind::Hit => write!(f, "HIT"),
            HitKind::Mau => write!(f, "MAU"),
            HitKind::Mnu => write!(f, "MNU"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_of_kinds() {
        assert_eq!(HitKind::Hit.to_string(), "HIT");
        assert_eq!(HitKind::Mau.to_string(), "MAU");
        assert_eq!(HitKind::Mnu.to_string(), "MNU");
    }
}
