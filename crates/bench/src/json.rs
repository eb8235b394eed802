//! Minimal JSON rendering for the machine-readable experiment output.
//!
//! The workspace is offline and zero-dependency by design (see README.md),
//! so this hand-rolls the tiny subset the experiments bin needs — objects,
//! arrays, strings, numbers, booleans — instead of pulling in `serde_json`.
//! Output is deterministic: object fields render in insertion order.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (kept exact; not routed through f64).
    Int(u64),
    /// A floating-point number. Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(name, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_compactly() {
        let v = Json::obj([
            ("name", Json::str("routing")),
            ("rows", Json::Arr(vec![Json::Int(3), Json::Num(1.5)])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"routing","rows":[3,1.5],"ok":true,"none":null}"#
        );
    }

    #[test]
    fn escapes_strings_and_preserves_large_ints() {
        let v = Json::Arr(vec![
            Json::str("a\"b\\c\nd"),
            Json::Int(u64::MAX),
            Json::Num(f64::NAN),
        ]);
        assert_eq!(v.render(), format!(r#"["a\"b\\c\nd",{},null]"#, u64::MAX));
    }
}
