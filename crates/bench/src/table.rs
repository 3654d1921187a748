//! The one table renderer behind every figure: aligned text for reading,
//! CSV for plotting.

/// A figure or table of results. [`Table::text`] renders aligned
/// columns; [`Table::csv`] renders the same rows as CSV with
/// machine-friendly headers and more decimals.
#[derive(Debug, Clone, Default)]
pub struct Table {
    columns: Vec<Column>,
    /// Rows, each flagged with whether the CSV includes it.
    rows: Vec<(Vec<Value>, bool)>,
}

#[derive(Debug, Clone)]
struct Column {
    /// Header in the aligned text.
    text: String,
    /// Header in the CSV.
    csv: String,
    width: usize,
    /// Decimals for real values in text and in CSV; `None` marks a label
    /// column, whose header and text values are left-aligned (numbers
    /// are always right-aligned).
    digits: Option<(usize, usize)>,
}

/// One cell of a table row.
#[derive(Debug, Clone)]
pub(crate) enum Value {
    Text(String),
    Count(u64),
    Real(f64),
}

impl Table {
    /// Adds a column: a label column when `digits` is `None`, else a
    /// numeric one whose reals print `digits.0` decimals in text and
    /// `digits.1` in CSV.
    pub(crate) fn column(
        mut self,
        text: &str,
        csv: &str,
        width: usize,
        digits: Option<(usize, usize)>,
    ) -> Table {
        self.columns.push(Column {
            text: text.to_owned(),
            csv: csv.to_owned(),
            width,
            digits,
        });
        self
    }

    /// Appends a data row, one value per column.
    pub(crate) fn row(&mut self, values: Vec<Value>) {
        self.rows.push((values, true));
    }

    /// Appends a summary row (an average, say) that only the aligned text
    /// shows: CSV consumers derive their own.
    pub(crate) fn summary_row(&mut self, values: Vec<Value>) {
        self.rows.push((values, false));
    }

    /// The aligned-text rendering.
    pub fn text(&self) -> String {
        self.render(false)
    }

    /// The CSV rendering (data rows only).
    pub fn csv(&self) -> String {
        self.render(true)
    }

    /// Renders the header and the rows: padded to the column widths and
    /// space-separated, or unpadded and comma-separated for CSV.
    fn render(&self, csv: bool) -> String {
        let header: Vec<Value> = (self.columns.iter())
            .map(|c| Value::Text(if csv { &c.csv } else { &c.text }.clone()))
            .collect();
        let rows = self.rows.iter().filter(|(_, in_csv)| *in_csv || !csv);
        let mut out = String::new();
        for values in std::iter::once(&header).chain(rows.map(|(v, _)| v)) {
            let cells: Vec<String> = (self.columns.iter().zip(values))
                .map(|(c, v)| {
                    let w = if csv { 0 } else { c.width };
                    let p = c.digits.map_or(0, |d| if csv { d.1 } else { d.0 });
                    match v {
                        Value::Text(s) if c.digits.is_none() => format!("{s:<w$}"),
                        Value::Text(s) => format!("{s:>w$}"),
                        Value::Count(n) => format!("{n:>w$}"),
                        Value::Real(x) => format!("{x:>w$.p$}"),
                    }
                })
                .collect();
            out.push_str(&cells.join(if csv { "," } else { " " }));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout: CSV when `MP_FORMAT=csv`, aligned
    /// text otherwise.
    pub fn print(&self) {
        if std::env::var("MP_FORMAT").is_ok_and(|v| v == "csv") {
            print!("{}", self.csv());
        } else {
            print!("{}", self.text());
        }
    }
}
