//! A hand-written JSON object writer: the benchmark emits flat records and
//! needs no parser.

use std::fmt::Write;

/// An object under construction; fields keep insertion order.
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
        write!(self.body, "{}:", quote(k)).expect("writing to a String cannot fail");
    }

    /// A number; non-finite values become `null`, which no reader takes as a number.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            write!(self.body, "{v}").expect("writing to a String cannot fail");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        write!(self.body, "{v}").expect("writing to a String cannot fail");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.body.push_str(&quote(v));
        self
    }

    /// A nested value that is already JSON.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    pub fn obj(self, k: &str, v: Obj) -> Self {
        let json = v.finish();
        self.raw(k, &json)
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of already-serialised values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
