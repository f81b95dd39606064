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
