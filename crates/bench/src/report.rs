//! Plain-text table rendering for the figure binaries.
//!
//! Each binary prints the same rows/series the paper's figure shows, in a
//! fixed-width table that is easy to diff across runs and to paste into
//! EXPERIMENTS.md.

/// A simple fixed-width table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints a figure banner with scale information.
pub fn banner(figure: &str, description: &str, scale: &crate::scale::Scale) {
    println!("=== {figure}: {description} ===");
    println!(
        "scale={} epc={}MB keys={} ops={}",
        scale.name,
        scale.epc_bytes >> 20,
        scale.num_keys,
        scale.ops
    );
    println!();
}

/// Formats a Kop/s value.
pub fn kops(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a ratio like `12.3x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Fig. 3's knee, as [`verdict`] prints it.
pub const EPC_KNEE: &str = "Baseline EPC faults/op near zero below the EPC, risen at and above it";

/// The most EPC faults per op a DB below the EPC may take: none at all
/// were measured there, while the first size at the EPC took 0.232.
pub const KNEE_FLAT: f64 = 0.01;

/// The fewest EPC faults per op a DB at or above the EPC may take.
pub const KNEE_RISEN: f64 = 0.1;

/// Fig. 3's knee: over `(DB bytes, EPC faults per op)` rows, faults stay
/// at most [`KNEE_FLAT`] at every size below `epc_bytes` and are at least
/// [`KNEE_RISEN`] at every size at or above it. `Err` names the first row
/// that breaks it.
pub fn epc_knee(epc_bytes: u64, rows: &[(u64, f64)]) -> Result<(), String> {
    let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    for &(db, faults) in rows {
        if db < epc_bytes && faults > KNEE_FLAT {
            return Err(format!("{:.1} MB fits the EPC but takes {faults:.3} faults/op", mb(db)));
        }
        if db >= epc_bytes && faults < KNEE_RISEN {
            return Err(format!(
                "{:.1} MB outgrows the EPC but takes {faults:.3} faults/op",
                mb(db)
            ));
        }
    }
    Ok(())
}

/// Fig. 6's collapse, as [`verdict`] prints it.
pub const OCALL_COLLAPSE: &str =
    "OCALLs collapse with granularity: per-alloc takes >= 1000x every chunked row, 1 MB+ chunks <= 2";

/// How many times the OCALLs of every chunked granularity the per-alloc
/// heap must take: 14,693 against 2 were measured at quick scale.
pub const COLLAPSE_FACTOR: u64 = 1000;

/// The most OCALLs a granularity of 1 MB or more may take in Fig. 6's
/// measure phase: one or two chunks were measured at every such size.
pub const CHUNKED_OCALLS: u64 = 2;

/// Fig. 6's collapse: the per-alloc heap's `per_alloc` OCALLs are at least
/// [`COLLAPSE_FACTOR`] times those of every `(granularity bytes, OCALLs)`
/// row of `chunked`, and no granularity of 1 MB or more takes more than
/// [`CHUNKED_OCALLS`]. `Err` names the first row that breaks it.
pub fn ocall_collapse(per_alloc: u64, chunked: &[(usize, u64)]) -> Result<(), String> {
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    for &(granularity, ocalls) in chunked {
        if per_alloc < COLLAPSE_FACTOR * ocalls.max(1) {
            return Err(format!(
                "per-alloc takes {per_alloc} OCALLs, {:.0} MB chunks {ocalls}",
                mb(granularity)
            ));
        }
        if granularity >= 1 << 20 && ocalls > CHUNKED_OCALLS {
            return Err(format!("{:.0} MB chunks take {ocalls} OCALLs", mb(granularity)));
        }
    }
    Ok(())
}

/// Prints a figure's verdict on its shape `claim`; a failed one exits the
/// process with status 1.
pub fn verdict(claim: &str, outcome: Result<(), String>) {
    match outcome {
        Ok(()) => println!("verdict: pass: {claim}"),
        Err(why) => {
            println!("verdict: FAIL: {claim}: {why}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "kops"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["longer-name".into(), "123.4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer-name"));
        // All rows the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn the_knee_sits_at_the_epc() {
        const MB: u64 = 1 << 20;
        let flat_then_risen = [(MB, 0.0), (3 * MB, 0.0), (4 * MB, 0.4), (8 * MB, 2.1)];
        assert_eq!(epc_knee(4 * MB, &flat_then_risen), Ok(()));
        let early = [(MB, 0.0), (3 * MB, 0.9), (4 * MB, 1.4)];
        assert!(epc_knee(4 * MB, &early).unwrap_err().starts_with("3.0 MB fits the EPC"));
        let late = [(MB, 0.0), (4 * MB, 0.05), (8 * MB, 1.0)];
        assert!(epc_knee(4 * MB, &late).unwrap_err().starts_with("4.0 MB outgrows the EPC"));
    }

    #[test]
    fn ocalls_collapse_with_granularity() {
        const MB: usize = 1 << 20;
        let chunked = [(MB, 2), (2 * MB, 1), (32 * MB, 1)];
        assert_eq!(ocall_collapse(14_693, &chunked), Ok(()));
        assert!(ocall_collapse(1_999, &chunked).unwrap_err().starts_with("per-alloc takes 1999"));
        let per_alloc_too = [(MB, 14_000)];
        assert!(ocall_collapse(14_693, &per_alloc_too).is_err());
        let three = [(MB, 2), (4 * MB, 3)];
        assert_eq!(ocall_collapse(1 << 20, &three), Err("4 MB chunks take 3 OCALLs".into()));
    }

    #[test]
    fn formatters() {
        assert_eq!(kops(12.34), "12.3");
        assert_eq!(ratio(2.0), "2.00x");
    }
}
