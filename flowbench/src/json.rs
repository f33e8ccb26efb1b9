//! A one-line JSON object writer: the benchmark's only output format, kept
//! dependency-free.

use std::fmt::Write as _;

/// Builder for one flat-or-nested JSON object.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        push_str(&mut self.body, k);
        self.body.push(':');
    }

    /// A float with every digit Rust's shortest round-trip form gives;
    /// non-finite values become `null` so the reader sees them as missing.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v:?}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str(&mut self.body, v);
        self
    }

    pub fn opt_str(self, k: &str, v: Option<&str>) -> Self {
        match v {
            Some(s) => self.str(k, s),
            None => self.raw(k, "null"),
        }
    }

    /// An already-serialized JSON value (object or array).
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of already-serialized values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// A JSON array of floats.
pub fn num_array(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            }
        })
        .collect();
    array(&items)
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_object() {
        let inner = Obj::new().num("v", 1.5).finish();
        let s = Obj::new()
            .str("name", "a\"b")
            .int("n", 3)
            .bool("ok", true)
            .num("bad", f64::NAN)
            .raw("inner", &inner)
            .raw("xs", &num_array(&[0.25, f64::INFINITY]))
            .finish();
        assert_eq!(
            s,
            r#"{"name":"a\"b","n":3,"ok":true,"bad":null,"inner":{"v":1.5},"xs":[0.25,null]}"#
        );
    }
}
