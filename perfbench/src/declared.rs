//! The metrics `BENCHMARK.json` declares, read from the file itself so
//! the benchmark's metric table and its manifest are one list.

/// `(name, unit)` of every metric of list `list` (`"end_to_end"` or
/// `"per_layer"`) in a `BENCHMARK.json` text, in file order. Expects the
/// file's own layout: `"name": "…"` before `"unit": "…"` in each entry,
/// and no `]` inside the list before its end.
pub fn metrics<'a>(json: &'a str, list: &str) -> Vec<(&'a str, &'a str)> {
    let Some(start) = json.find(&format!("\"{list}\"")) else {
        return Vec::new();
    };
    let end = json[start..].find(']').map_or(json.len(), |e| start + e);
    let mut rest = &json[start..end];
    let mut out = Vec::new();
    while let Some((name, after)) = field(rest, "name") {
        let Some((unit, after)) = field(after, "unit") else {
            break;
        };
        out.push((name, unit));
        rest = after;
    }
    out
}

/// The string value of the first `"key": "…"` in `s`, and the text after it.
fn field<'a>(s: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let pattern = format!("\"{key}\": \"");
    let at = s.find(&pattern)? + pattern.len();
    let len = s[at..].find('"')?;
    Some((&s[at..at + len], &s[at + len..]))
}
