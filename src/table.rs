//! Minimal aligned-text tables for the `repro` binaries (the paper's
//! tables and figure data are emitted as terminal text + CSV).

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for `&str` cells.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Render with padded columns (first column left-aligned, the rest
    /// right-aligned — the shape of the paper's Fig. 1 table).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<w$}", c, w = width[0]);
                } else {
                    let _ = write!(out, "  {:>w$}", c, w = width[i]);
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Render as CSV (RFC 4180): a field holding `,`, `"` or a line
    /// break is quoted, with its quotes doubled.
    pub fn to_csv(&self) -> String {
        fn field(c: &str) -> std::borrow::Cow<'_, str> {
            if c.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", c.replace('"', "\"\"")).into()
            } else {
                c.into()
            }
        }
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            let cells: Vec<_> = row.iter().map(|c| field(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["version", "time"]);
        t.row_str(&["plain", "2.75"]).row_str(&["steal", "2.3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("version"));
        assert!(lines[2].contains("plain"));
        assert!(lines[2].ends_with("2.75"));
    }

    #[test]
    fn csv_output() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row_str(&["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
        // Fields holding a separator, a quote or a line break are
        // quoted, embedded quotes doubled; the rest stay bare.
        let mut t = TextTable::new(&["speedup (1,2,4)", "note"]);
        t.row_str(&["1.0,1.9", "say \"hi\""])
            .row_str(&["a\nb", "plain"]);
        assert_eq!(
            t.to_csv(),
            "\"speedup (1,2,4)\",note\n\"1.0,1.9\",\"say \"\"hi\"\"\"\n\"a\nb\",plain\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bad_width_panics() {
        let mut t = TextTable::new(&["a"]);
        t.row_str(&["1", "2"]);
    }
}
