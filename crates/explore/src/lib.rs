//! # explore-explore
//!
//! The User Interaction layer of the tutorial: interfaces that let
//! people who cannot (or will not) write SQL steer a database.
//!
//! * [`tree`] — the CART decision-tree learner underpinning
//!   explore-by-example (same model class as AIDE's \[18\]).
//! * [`aide`] — automatic query steering from relevance feedback
//!   (Explore-by-Example \[18\]; query steering vision \[14\]): label a few
//!   tuples, learn the interest region, sample near the boundary,
//!   repeat; extract a SQL predicate at the end.
//! * [`qbo`] — query discovery from example output tuples (Query by
//!   Output \[64\], example-tuple query discovery \[58\], spreadsheet-style
//!   search \[51\]).
//! * [`mod@segment`] — Charles-style query-space segmentation (assisted query
//!   formulation \[57\]).
//! * [`gesture`] / [`canvas`] — gestural query specification (dbtouch
//!   \[32, 44\], GestureDB \[45, 47\]) over simulated touch traces.
//! * [`suggest`] — YmalDB-style faceted "you may also like"
//!   recommendations \[20\].
//!
//! ```
//! use explore_explore::aide::{AideConfig, AideSession, LabelOracle};
//! use explore_storage::{gen, Predicate};
//!
//! let t = gen::feature_table(3000, 2, 7);
//! let hidden = Predicate::range("f0", 20.0, 60.0)
//!     .and(Predicate::range("f1", 30.0, 70.0));
//! let mut oracle = LabelOracle::new(&t, hidden);
//! let mut session = AideSession::new(&t, &["f0", "f1"], AideConfig::default()).unwrap();
//! let reports = session.run(&mut oracle, 6).unwrap();
//! assert!(reports.last().unwrap().f1 > 0.5);
//! ```

pub mod aide;
pub mod canvas;
pub mod gesture;
pub mod qbo;
pub mod segment;
pub mod suggest;
pub mod tree;

pub use aide::{AideConfig, AideSession, IterationReport, LabelOracle};
pub use canvas::{Canvas, CanvasResponse};
pub use gesture::{classify, synthetic_trace, to_intent, Gesture, QueryIntent, TouchPoint};
pub use qbo::{discover_query, DiscoveredQuery};
pub use segment::{advise, segment, Segment, Segmentation};
pub use suggest::{faceted_recommendations, Facet};
pub use tree::{TreeConfig, TreeNode};
