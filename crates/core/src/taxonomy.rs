//! The paper's Table 1 as a structured, regenerable artifact.
//!
//! *Overview of Data Exploration Techniques* contains exactly one table:
//! the clustering of surveyed papers into layers and sub-areas. This
//! module encodes that clustering as data, maps every cluster to the
//! workspace module implementing it, and regenerates the printed table —
//! experiment T1 of the reproduction.

/// The three layers of the tutorial's top-down organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    UserInteraction,
    Middleware,
    DatabaseLayer,
}

impl Layer {
    /// Display name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Layer::UserInteraction => "User Interaction",
            Layer::Middleware => "Middleware",
            Layer::DatabaseLayer => "Database Layer",
        }
    }
}

/// One cell of Table 1: a cluster of related papers.
#[derive(Debug, Clone)]
pub struct Cluster {
    pub layer: Layer,
    /// The paper's area grouping within the layer (e.g. "Visual
    /// Optimizations").
    pub area: &'static str,
    /// Citation numbers as printed in the paper.
    pub citations: &'static [u32],
    /// The workspace module reproducing this cluster, or `None` for
    /// vision-only clusters documented as out of scope in DESIGN.md.
    pub module: Option<&'static str>,
    /// Ids of the `reproduce` experiments that exercise this cluster
    /// (empty when nothing runs it).
    pub experiments: &'static [&'static str],
}

/// The full clustering of Table 1.
pub fn table1() -> Vec<Cluster> {
    use Layer::*;
    vec![
        Cluster {
            layer: UserInteraction,
            area: "Data Visualization",
            citations: &[38],
            module: Some("explore-viz"),
            experiments: &["e7", "e15"],
        },
        Cluster {
            layer: UserInteraction,
            area: "Visual Optimizations",
            citations: &[11, 12, 49, 66],
            module: Some("explore-viz::{reduce, ordered, seedb}"),
            experiments: &["e7", "e15"],
        },
        Cluster {
            layer: UserInteraction,
            area: "Visualization Tools",
            citations: &[40, 48, 61, 62],
            module: Some("explore-viz::vizdeck"),
            experiments: &[],
        },
        Cluster {
            layer: UserInteraction,
            area: "Automatic Exploration",
            citations: &[14, 18, 20],
            module: Some("explore-explore::{aide, suggest}"),
            experiments: &["e8"],
        },
        Cluster {
            layer: UserInteraction,
            area: "Assisted Query Formulation",
            citations: &[3, 4, 13, 21, 52, 57, 58, 64, 51],
            module: Some("explore-explore::{qbo, segment}"),
            experiments: &["e14"],
        },
        Cluster {
            layer: UserInteraction,
            area: "Novel Query Interfaces",
            citations: &[32, 44, 45, 47],
            module: Some("explore-explore::gesture"),
            experiments: &[],
        },
        Cluster {
            layer: Middleware,
            area: "Data Prefetching",
            citations: &[36, 37, 41, 63],
            module: Some("explore-prefetch (+speculative), explore-cube::dice, explore-diversify"),
            experiments: &["e9", "e10", "e13", "e18"],
        },
        Cluster {
            layer: Middleware,
            area: "Query Approximation",
            citations: &[16, 5, 6, 7, 24, 25],
            module: Some("explore-aqp, explore-synopses"),
            experiments: &["e5", "e6", "e12"],
        },
        Cluster {
            layer: DatabaseLayer,
            area: "Adaptive Indexing",
            citations: &[26, 29, 30, 31, 33, 22, 23, 50],
            module: Some("explore-cracking"),
            experiments: &["e1", "e2", "e3", "e16"],
        },
        Cluster {
            layer: DatabaseLayer,
            area: "Time Series Indexing",
            citations: &[68],
            module: Some("explore-series (ADS-style adaptive index)"),
            experiments: &["e17"],
        },
        Cluster {
            layer: DatabaseLayer,
            area: "Flexible Engines",
            citations: &[17, 42, 43, 34],
            module: None, // vision papers; see DESIGN.md out-of-scope note
            experiments: &[],
        },
        Cluster {
            layer: DatabaseLayer,
            area: "Adaptive Loading",
            citations: &[28, 8, 2, 15],
            module: Some("explore-loading"),
            experiments: &["e4"],
        },
        Cluster {
            layer: DatabaseLayer,
            area: "Adaptive Storage",
            citations: &[9, 19],
            module: Some("explore-layout"),
            experiments: &["e11"],
        },
        Cluster {
            layer: DatabaseLayer,
            area: "Sampling Architectures",
            citations: &[59, 60, 35],
            module: Some("explore-sampling::weighted, explore-cube::dice"),
            experiments: &["e13", "e18"],
        },
    ]
}

/// Render Table 1 as aligned text, optionally with the experiments and
/// implementing module columns (the reproduction's extension).
pub fn render_table1(with_modules: bool) -> String {
    let clusters = table1();
    let mut out = String::new();
    let header = if with_modules {
        format!(
            "{:<16} | {:<28} | {:<28} | {:<14} | {}\n",
            "Layer", "Area", "Papers", "Experiments", "Implemented by"
        )
    } else {
        format!("{:<16} | {:<28} | {}\n", "Layer", "Area", "Papers")
    };
    out.push_str(&header);
    out.push_str(&"-".repeat(header.len().min(110)));
    out.push('\n');
    for c in &clusters {
        let cites = c
            .citations
            .iter()
            .map(|n| format!("[{n}]"))
            .collect::<Vec<_>>()
            .join(" ");
        if with_modules {
            let experiments = match c.experiments {
                [] => "—".to_string(),
                ids => ids.join(" "),
            };
            out.push_str(&format!(
                "{:<16} | {:<28} | {:<28} | {:<14} | {}\n",
                c.layer.name(),
                c.area,
                cites,
                experiments,
                c.module.unwrap_or("(vision; out of scope)"),
            ));
        } else {
            out.push_str(&format!(
                "{:<16} | {:<28} | {}\n",
                c.layer.name(),
                c.area,
                cites
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_layers_present() {
        let t = table1();
        for layer in [
            Layer::UserInteraction,
            Layer::Middleware,
            Layer::DatabaseLayer,
        ] {
            assert!(t.iter().any(|c| c.layer == layer), "{layer:?}");
        }
        assert_eq!(t.len(), 14);
    }

    #[test]
    fn citations_are_unique_within_clusters() {
        for c in table1() {
            let mut v = c.citations.to_vec();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), c.citations.len(), "{}", c.area);
        }
    }

    #[test]
    fn core_clusters_are_implemented() {
        let t = table1();
        let must_have = [
            "Adaptive Indexing",
            "Adaptive Loading",
            "Adaptive Storage",
            "Query Approximation",
            "Data Prefetching",
            "Automatic Exploration",
            "Visual Optimizations",
        ];
        for area in must_have {
            let c = t.iter().find(|c| c.area == area).expect(area);
            assert!(c.module.is_some(), "{area} should map to a module");
        }
    }

    #[test]
    fn rendering_includes_every_area() {
        let text = render_table1(true);
        for c in table1() {
            assert!(text.contains(c.area), "{} missing", c.area);
        }
        assert!(text.contains("Implemented by"));
        assert!(text.contains("| e1 e2 e3 e16 "));
        let plain = render_table1(false);
        assert!(!plain.contains("Implemented by"));
    }

    /// Every `explore-<c>::<m>` and `explore-<c>::{m, …}` a cluster names
    /// is a file `crates/<c>/src/<m>.rs` of this workspace.
    #[test]
    fn named_modules_exist() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut checked = 0;
        for c in table1() {
            let Some(module) = c.module else { continue };
            for named in module.split("explore-").skip(1) {
                let krate: String = named
                    .chars()
                    .take_while(|ch| ch.is_ascii_lowercase())
                    .collect();
                let Some(path) = named[krate.len()..].strip_prefix("::") else {
                    continue;
                };
                let modules = match path.strip_prefix('{') {
                    Some(list) => &list[..list.find('}').expect("closing brace")],
                    None => {
                        let end = path
                            .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                            .unwrap_or(path.len());
                        &path[..end]
                    }
                };
                for m in modules.split(',').map(str::trim) {
                    let file = crates.join(&krate).join("src").join(format!("{m}.rs"));
                    assert!(file.is_file(), "{}: {} missing", c.area, file.display());
                    checked += 1;
                }
            }
        }
        assert!(checked >= 10, "only {checked} modules named");
    }

    #[test]
    fn paper_counts_match_the_published_table() {
        // The paper's Table 1 lists these cluster sizes.
        let t = table1();
        let size = |area: &str| t.iter().find(|c| c.area == area).unwrap().citations.len();
        assert_eq!(size("Adaptive Indexing"), 8);
        assert_eq!(size("Assisted Query Formulation"), 9);
        assert_eq!(size("Adaptive Loading"), 4);
        assert_eq!(size("Query Approximation"), 6);
    }
}
