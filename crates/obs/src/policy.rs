//! The observability knob: `Off` by default, and *zero-cost* when off.
//!
//! Mirrors the shape of `ExecPolicy` and `CachePolicy`: a plain enum the
//! engine carries. Every instrumentation site guards on one relaxed
//! atomic load (see [`crate::Tracer::start`]), so an `Off` engine
//! executes the exact same instruction stream as a build without the obs
//! crate wired in.

/// Whether the engine records traces and metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ObsPolicy {
    /// No tracing, no metrics: behavior and performance identical to an
    /// uninstrumented engine (the default).
    #[default]
    Off,
    /// Record per-query traces into a bounded ring and aggregate
    /// counters/histograms in the metrics registry.
    On,
}

impl ObsPolicy {
    /// Enabled.
    pub fn on() -> Self {
        ObsPolicy::On
    }

    /// Is observability enabled?
    pub fn is_on(&self) -> bool {
        matches!(self, ObsPolicy::On)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off() {
        assert!(!ObsPolicy::default().is_on());
        assert!(ObsPolicy::on().is_on());
    }
}
