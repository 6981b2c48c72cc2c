//! Hand-rolled CSV (RFC 4180) writer for campaign result tables.
//!
//! `rtsim-trace` exports *traces* as CSV; this writer exports *campaign
//! tables* — one row per job or per aggregate — and lives here so the
//! campaign crate stays dependent on the kernel alone. Both quote their
//! fields with [`escape`], so the workspace has one quoting rule.

use std::fmt::{self, Write as _};

/// A CSV table under construction: a header and appended rows.
///
/// # Examples
///
/// ```
/// use rtsim_campaign::csv::CsvTable;
///
/// let mut t = CsvTable::new(["job", "label", "latency_us"]);
/// t.row(["0", "plain", "12.5"]);
/// t.row(["1", "with, comma", "8"]);
/// assert_eq!(
///     t.to_string(),
///     "job,label,latency_us\r\n0,plain,12.5\r\n1,\"with, comma\",8\r\n"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    columns: usize,
    out: String,
}

impl CsvTable {
    /// Starts a table with the given header row.
    pub fn new<S: AsRef<str>, I: IntoIterator<Item = S>>(header: I) -> Self {
        let mut table = CsvTable {
            columns: 0,
            out: String::new(),
        };
        table.columns = table.push_row(header);
        table
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the field count differs from the header's.
    pub fn row<S: AsRef<str>, I: IntoIterator<Item = S>>(&mut self, fields: I) {
        let n = self.push_row(fields);
        assert_eq!(
            n, self.columns,
            "row has {n} fields, header has {}",
            self.columns
        );
    }

    fn push_row<S: AsRef<str>, I: IntoIterator<Item = S>>(&mut self, fields: I) -> usize {
        let mut n = 0;
        for field in fields {
            if n > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{}", escape(field.as_ref()));
            n += 1;
        }
        self.out.push_str("\r\n");
        n
    }
}

/// The rendered table (header + rows, CRLF line endings per RFC 4180).
/// `Display` rather than an inherent `to_string` (clippy
/// `inherent_to_string`): call sites keep using `.to_string()` via the
/// blanket `ToString`, and the table now also works with `format!` and
/// `write!` directly.
impl fmt::Display for CsvTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.out)
    }
}

/// Quotes a field when it contains a comma, quote, or line break (`\n`
/// or `\r`), doubling any quotes inside it (RFC 4180).
pub fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.to_string(), "a,b\r\n1,2\r\n");
    }

    #[test]
    fn quoting_commas_quotes_and_newlines() {
        assert_eq!(escape("x,y"), "\"x,y\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("two\nlines"), "\"two\nlines\"");
        assert_eq!(escape("carriage\rreturn"), "\"carriage\rreturn\"");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    #[should_panic(expected = "header has 2")]
    fn ragged_row_panics() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn display_renders_the_table() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(format!("{t}"), "a,b\r\n1,2\r\n");
    }
}
