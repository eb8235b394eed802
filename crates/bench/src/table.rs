//! The one report type of the harness: a [`Table`] of named, typed cells.
//!
//! A row type declares its columns once — JSON key, markdown header and
//! precision — with the [`table_row!`](crate::table_row) macro, which yields
//! the struct, its [`Column`]s and its [`Row::cells`] together. Markdown and
//! JSON are both rendered from those cells, so the two can never disagree,
//! and a test still reads the typed struct fields.

use crate::json::Json;

/// One typed value of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An exact unsigned integer.
    Int(u64),
    /// A floating-point number; JSON keeps every digit, markdown rounds to
    /// the column's precision.
    Num(f64),
    /// Text.
    Str(String),
    /// A boolean.
    Bool(bool),
}

macro_rules! cell_from {
    ($($t:ty => |$v:ident| $cell:expr;)*) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                $cell
            }
        }
    )*};
}
// The field types a row may hold, and the cell each one is.
cell_from! {
    u32 => |v| Cell::Int(u64::from(v));
    u64 => |v| Cell::Int(v);
    usize => |v| Cell::Int(v as u64);
    f64 => |v| Cell::Num(v);
    &'static str => |v| Cell::Str(v.to_string());
    bool => |v| Cell::Bool(v);
}

/// One column of a table, declared once per row type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// The cell's key in the JSON row object.
    pub key: &'static str,
    /// The markdown column header (units belong here).
    pub header: &'static str,
    /// Decimals a [`Cell::Num`] is rounded to in markdown.
    pub precision: usize,
}

/// A row type whose columns and cells were declared by
/// [`table_row!`](crate::table_row).
pub trait Row {
    /// The columns, in output order.
    const COLUMNS: &'static [Column];
    /// This row's cells, one per column.
    fn cells(&self) -> Vec<Cell>;
}

/// Declares a row struct whose fields, each marked
/// `=> col(key, header[, precision])`, are its table columns in declaration
/// order.
#[macro_export]
macro_rules! table_row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty
                    => col($key:literal, $header:literal $(, $precision:literal)?),
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::table::Row for $name {
            const COLUMNS: &'static [$crate::table::Column] = &[
                $($crate::table::Column {
                    key: $key,
                    header: $header,
                    precision: 0 $(+ $precision)?,
                },)*
            ];

            fn cells(&self) -> Vec<$crate::table::Cell> {
                vec![$($crate::table::Cell::from(self.$field),)*]
            }
        }
    };
}

/// Rows of one row type under the JSON key they are published as.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table's key in the `figures` object of the JSON document.
    pub key: &'static str,
    /// The columns, in output order.
    pub columns: &'static [Column],
    /// One cell per column for every row.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Builds the table of `rows`.
    pub fn of<R: Row>(key: &'static str, rows: &[R]) -> Table {
        Table {
            key,
            columns: R::COLUMNS,
            rows: rows.iter().map(Row::cells).collect(),
        }
    }

    /// Renders the table as markdown, one column per declared column.
    pub fn markdown(&self) -> String {
        let mut s = String::new();
        for c in self.columns {
            s.push_str(&format!("| {} ", c.header));
        }
        s.push_str("|\n");
        s.push_str(&"|---".repeat(self.columns.len()));
        s.push_str("|\n");
        for row in &self.rows {
            for (cell, col) in row.iter().zip(self.columns) {
                let text = match cell {
                    Cell::Int(n) => n.to_string(),
                    Cell::Num(f) => format!("{:.*}", col.precision, f),
                    Cell::Str(t) => t.clone(),
                    Cell::Bool(b) => b.to_string(),
                };
                s.push_str(&format!("| {text} "));
            }
            s.push_str("|\n");
        }
        s
    }

    /// Renders the rows as a JSON array of objects keyed by column.
    pub fn json(&self) -> Json {
        let row_json = |row: &Vec<Cell>| {
            Json::Obj(
                row.iter()
                    .zip(self.columns)
                    .map(|(cell, col)| {
                        let value = match cell {
                            Cell::Int(n) => Json::Int(*n),
                            Cell::Num(f) => Json::Num(*f),
                            Cell::Str(t) => Json::str(t.clone()),
                            Cell::Bool(b) => Json::Bool(*b),
                        };
                        (col.key.to_string(), value)
                    })
                    .collect(),
            )
        };
        Json::Arr(self.rows.iter().map(row_json).collect())
    }
}
