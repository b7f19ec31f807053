//! Minimal hand-rolled JSON emission.
//!
//! The workspace is offline and deliberately serde-free, so report
//! snapshots are built with this tiny writer instead. It only *emits*
//! (no parsing) and covers exactly what the telemetry report needs:
//! objects, arrays, strings with escaping, integers, floats, bools.

/// Escape a string for inclusion in a JSON document (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render a float as a JSON number. Non-finite values (which JSON cannot
/// represent) degrade to 0.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Join pre-rendered JSON values into an array literal.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Incremental JSON object builder producing compact output.
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    /// Add a field whose value is already valid JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(&json_string(key));
        self.buf.push(':');
        self.buf.push_str(value);
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let v = json_string(value);
        self.raw(key, &v)
    }

    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn builds_objects_and_arrays() {
        let obj = JsonObject::new()
            .str("name", "x")
            .u64("n", 3)
            .raw("f", &json_f64(0.25))
            .bool("ok", true)
            .raw("xs", &json_array(["1".into(), "2".into()]))
            .finish();
        assert_eq!(obj, r#"{"name":"x","n":3,"f":0.25,"ok":true,"xs":[1,2]}"#);
    }

    #[test]
    fn non_finite_floats_degrade() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
