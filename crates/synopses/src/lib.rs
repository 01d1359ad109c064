//! # explore-synopses
//!
//! Data synopses for approximate processing — the classic toolbox the
//! tutorial's Middleware section builds on (*Synopses for Massive Data:
//! Samples, Histograms, Wavelets, Sketches* \[16\], AQUA \[5\]):
//!
//! * [`histogram`] — equi-width and equi-depth bucket histograms with
//!   range-count and quantile estimation.
//! * [`sketch`] — count-min sketches for point-frequency estimates.
//! * [`hll`] — HyperLogLog distinct-count estimation.
//! * [`wavelet`] — truncated Haar wavelet synopses with O(k) range sums.
//!
//! Experiment E12 sweeps all four on the accuracy-vs-space axis. Uniform
//! and weighted samples live in `explore-sampling`.
//!
//! ```
//! use explore_synopses::{Histogram, CountMinSketch, HyperLogLog};
//!
//! let data: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
//! let hist = Histogram::equi_depth(&data, 20);
//! let est = hist.estimate_range(10.0, 20.0);
//! assert!((est - 1000.0).abs() / 1000.0 < 0.2);
//!
//! let mut cms = CountMinSketch::with_error(0.01, 0.01);
//! let mut hll = HyperLogLog::new(12);
//! for i in 0..10_000u64 {
//!     cms.insert(i % 100);
//!     hll.insert(i % 100);
//! }
//! assert!(cms.estimate(7) >= 100);
//! assert!((hll.estimate() - 100.0).abs() < 10.0);
//! ```

pub mod histogram;
pub mod hll;
pub mod sketch;
pub mod wavelet;

pub use histogram::Histogram;
pub use hll::HyperLogLog;
pub use sketch::{fnv1a, CountMinSketch};
pub use wavelet::WaveletSynopsis;
