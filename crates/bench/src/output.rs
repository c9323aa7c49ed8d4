//! Table rendering and CSV export for the `repro` binary.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use mssim::json::Value;

/// Renders a fixed-width text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Directory CSVs are written into (`results/` under the current
/// directory); created on demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV file; errors are reported, not fatal (the printed table
/// is the primary artefact).
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) {
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", header.join(","))?;
        for row in rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    };
    match write() {
        Ok(()) => eprintln!("  wrote {}", path.display()),
        Err(e) => eprintln!("  warning: could not write {}: {e}", path.display()),
    }
}

/// Writes `doc` in the pretty JSON layout; errors are reported, not
/// fatal, like [`write_csv`].
pub fn write_json(path: &Path, doc: &Value) {
    let text = doc.to_pretty();
    match fs::write(path, &text) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), text.len()),
        Err(e) => eprintln!("  warning: could not write {}: {e}", path.display()),
    }
}

/// Formats a float with the given number of decimals.
pub fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let rows = vec![
            vec!["1".into(), "2.50".into()],
            vec!["100".into(), "0.42".into()],
        ];
        let t = render_table("T", &["x", "vout"], &rows);
        assert!(t.contains("== T =="));
        assert!(t.contains("vout"));
        let lines: Vec<&str> = t.lines().filter(|l| !l.is_empty()).collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(2.0, 3), "2.000");
    }
}
