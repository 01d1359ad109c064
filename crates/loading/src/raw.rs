//! Raw-file representation and the eager / external-scan baselines.
//!
//! A [`RawCsv`] stands in for a CSV file sitting on disk: an un-parsed
//! byte buffer plus a known schema. Three access strategies compete over
//! it in experiment E4:
//!
//! 1. **Eager load** ([`eager_load`]) — parse everything up front
//!    (classic `COPY INTO`), pay the full cost before the first answer.
//! 2. **External scan** ([`ExternalScanner`]) — re-tokenize and re-parse
//!    the needed fields on *every* query (what `EXTERNAL TABLE`s do).
//! 3. **Adaptive / NoDB** ([`crate::adaptive::AdaptiveLoader`]) —
//!    tokenize lazily, remember positions, cache parsed columns.

use explore_storage::csv::{push_parsed, read_csv};
use explore_storage::{Column, Result, Schema, StorageError, Table};

/// A raw CSV document with a known schema (header + data rows).
#[derive(Debug, Clone)]
pub struct RawCsv {
    text: String,
    schema: Schema,
    /// Byte offset of the start of each data line.
    line_starts: Vec<usize>,
    /// Byte offset just past the end of each data line (excluding the
    /// newline), so `line()` is O(1).
    line_ends: Vec<usize>,
}

impl RawCsv {
    /// Wrap a CSV document. Validates the header against the schema and
    /// indexes line starts (the one piece of work even NoDB does once).
    pub fn new(text: String, schema: Schema) -> Result<Self> {
        let header_end = text.find('\n').ok_or(StorageError::Csv {
            line: 1,
            message: "missing header line".into(),
        })?;
        let header = &text[..header_end];
        let names: Vec<&str> = header.split(',').collect();
        if names != schema.names() {
            return Err(StorageError::Csv {
                line: 1,
                message: format!("header {names:?} does not match schema"),
            });
        }
        let mut line_starts = Vec::new();
        let mut line_ends = Vec::new();
        let bytes = text.as_bytes();
        let mut pos = header_end + 1;
        while pos < bytes.len() {
            let end = text[pos..].find('\n').map_or(bytes.len(), |i| pos + i);
            if end > pos {
                line_starts.push(pos);
                line_ends.push(end);
            }
            pos = end + 1;
        }
        Ok(RawCsv {
            text,
            schema,
            line_starts,
            line_ends,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.line_starts.len()
    }

    /// Raw bytes of one data line. O(1).
    #[inline]
    pub fn line(&self, row: usize) -> &str {
        &self.text[self.line_starts[row]..self.line_ends[row]]
    }

    /// The whole document.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Eager baseline: parse the full document into a [`Table`].
pub fn eager_load(raw: &RawCsv) -> Result<Table> {
    read_csv(raw.text(), raw.schema())
}

/// External-scan baseline: nothing is ever cached; each query
/// re-tokenizes every row up to the deepest needed field and parses the
/// requested columns.
#[derive(Debug)]
pub struct ExternalScanner<'a> {
    raw: &'a RawCsv,
    /// Total fields tokenized across all queries (work metric).
    pub fields_tokenized: u64,
}

impl<'a> ExternalScanner<'a> {
    /// Create a scanner over a raw file.
    pub fn new(raw: &'a RawCsv) -> Self {
        ExternalScanner {
            raw,
            fields_tokenized: 0,
        }
    }

    /// Parse the named columns for all rows, from scratch.
    pub fn scan_columns(&mut self, names: &[&str]) -> Result<Vec<Column>> {
        let indices: Vec<usize> = names
            .iter()
            .map(|n| self.raw.schema.index_of(n))
            .collect::<Result<_>>()?;
        let deepest = indices.iter().copied().max().unwrap_or(0);
        let mut columns: Vec<Column> = indices
            .iter()
            .map(|&i| Column::empty(self.raw.schema.fields()[i].data_type()))
            .collect();
        for row in 0..self.raw.num_rows() {
            let line = self.raw.line(row);
            let mut fields = line.split(',');
            let mut buf: Vec<&str> = Vec::with_capacity(deepest + 1);
            for _ in 0..=deepest {
                match fields.next() {
                    Some(f) => buf.push(f),
                    None => {
                        return Err(StorageError::Csv {
                            line: row + 2,
                            message: "short row".into(),
                        })
                    }
                }
                self.fields_tokenized += 1;
            }
            for (slot, &fi) in indices.iter().enumerate() {
                push_parsed(&mut columns[slot], buf[fi], row + 2)?;
            }
        }
        Ok(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::csv::write_csv;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn raw() -> (Table, RawCsv) {
        let t = sales_table(&SalesConfig {
            rows: 200,
            ..SalesConfig::default()
        });
        let raw = RawCsv::new(write_csv(&t), t.schema().clone()).unwrap();
        (t, raw)
    }

    #[test]
    fn line_indexing() {
        let (t, raw) = raw();
        assert_eq!(raw.num_rows(), t.num_rows());
        assert!(raw.line(0).contains(','));
        assert!(!raw.line(199).ends_with('\n'));
    }

    #[test]
    fn eager_load_roundtrips() {
        let (t, raw) = raw();
        assert_eq!(eager_load(&raw).unwrap(), t);
    }

    #[test]
    fn header_mismatch_rejected() {
        let schema = Schema::of(&[("x", explore_storage::DataType::Int64)]);
        assert!(RawCsv::new("y\n1\n".into(), schema.clone()).is_err());
        assert!(RawCsv::new("".into(), schema).is_err());
    }

    #[test]
    fn external_scan_parses_correct_columns() {
        let (t, raw) = raw();
        let mut scanner = ExternalScanner::new(&raw);
        let cols = scanner.scan_columns(&["price", "region"]).unwrap();
        assert_eq!(&cols[0], t.column("price").unwrap());
        assert_eq!(&cols[1], t.column("region").unwrap());
        assert!(scanner.scan_columns(&["missing"]).is_err());
    }

    #[test]
    fn external_scan_work_grows_with_repetition() {
        let (_, raw) = raw();
        let mut scanner = ExternalScanner::new(&raw);
        scanner.scan_columns(&["region"]).unwrap();
        let once = scanner.fields_tokenized;
        scanner.scan_columns(&["region"]).unwrap();
        assert_eq!(scanner.fields_tokenized, 2 * once, "no caching");
    }

    #[test]
    fn tokenization_depth_depends_on_field_position() {
        let (_, raw) = raw();
        let mut early = ExternalScanner::new(&raw);
        early.scan_columns(&["region"]).unwrap(); // field 0
        let mut late = ExternalScanner::new(&raw);
        late.scan_columns(&["qty"]).unwrap(); // last field
        assert!(late.fields_tokenized > early.fields_tokenized);
    }
}
