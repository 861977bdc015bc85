//! The trace schema, checked: [`check_trace`] validates a JSONL trace the
//! [`Tracer`](crate::Tracer) wrote, enforcing what the determinism contract
//! promises:
//!
//! 1. every line parses as a flat JSON object of strings and finite
//!    numbers, with the required keys (`t`, `ev`, `kind`, and `span` on
//!    start/end events);
//! 2. span ids are non-negative integers an `f64` holds exactly, and unique;
//! 3. spans balance — every `end` closes the most recently opened span
//!    (emission is serial, so spans nest LIFO), and nothing is left open at
//!    EOF;
//! 4. timestamps are monotone non-decreasing (virtual time never runs
//!    backwards);
//! 5. the span ends the runtime's re-optimization passes emit carry their
//!    numeric attributes: what was evaluated and changed, the memo hits, and
//!    for the plan-replacing kinds the candidates pruned and the lists built.

use std::collections::BTreeSet;

/// The numeric attributes a span end of each listed kind must carry.
const END_FIELDS: [(&str, &[&str]); 3] = [
    ("reopt.local", &["evaluated", "migrations", "memo"]),
    ("reopt.rewrite", &["evaluated", "swaps", "memo", "pruned", "lists"]),
    ("reopt.full", &["evaluated", "swaps", "memo", "pruned", "lists"]),
];

/// The largest span id a trace may carry: from 2^53 on, distinct integers
/// parse to the same `f64`.
const MAX_EXACT_ID: f64 = 9_007_199_254_740_991.0; // 2^53 - 1

/// A parsed flat JSON value: only what the trace schema can contain.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    /// JSON number (always finite in a valid trace).
    Num(f64),
    /// JSON string.
    Str(String),
}

/// Parses one flat JSON object (`{"k":v,...}`, no nesting). Returns the
/// key-value pairs in document order or a description of the first syntax
/// error.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut chars = line.char_indices().peekable();
    let mut pairs = Vec::new();
    let expect =
        |chars: &mut std::iter::Peekable<std::str::CharIndices>, want: char| match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of line")),
        };
    expect(&mut chars, '{')?;
    if chars.peek().map(|&(_, c)| c) == Some('}') {
        chars.next();
    } else {
        loop {
            let key = parse_string(&mut chars, line)?;
            expect(&mut chars, ':')?;
            let val = match chars.peek() {
                Some(&(_, '"')) => Value::Str(parse_string(&mut chars, line)?),
                Some(&(i, _)) => {
                    let rest = &line[i..];
                    let end = rest
                        .find([',', '}'])
                        .ok_or_else(|| format!("unterminated number at byte {i}"))?;
                    let text = &rest[..end];
                    let n: f64 =
                        text.parse().map_err(|_| format!("invalid number {text:?} at byte {i}"))?;
                    if !n.is_finite() {
                        return Err(format!("non-finite number {text:?} at byte {i}"));
                    }
                    for _ in 0..end {
                        chars.next();
                    }
                    Value::Num(n)
                }
                None => return Err("truncated object".to_string()),
            };
            pairs.push((key, val));
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                Some((i, c)) => {
                    return Err(format!("expected ',' or '}}' at byte {i}, found '{c}'"))
                }
                None => return Err("truncated object".to_string()),
            }
        }
    }
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing content at byte {i}: '{c}'"));
    }
    Ok(pairs)
}

/// Parses a JSON string literal starting at the current position.
fn parse_string(
    chars: &mut std::iter::Peekable<std::str::CharIndices>,
    line: &str,
) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        Some((i, c)) => return Err(format!("expected string at byte {i}, found '{c}'")),
        None => return Err("expected string, found end of line".to_string()),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((i, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                _ => return Err(format!("unsupported escape at byte {i} in {line:?}")),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Validates a whole JSONL trace. Returns the number of events, or a
/// line-addressed description of the first violation.
pub fn check_trace(text: &str) -> Result<u64, String> {
    let mut last_t = 0.0;
    let mut open: Vec<u64> = Vec::new();
    let mut seen_spans = BTreeSet::new();
    let mut lines = 0u64;
    for (lineno, raw) in text.lines().enumerate() {
        let at = lineno + 1;
        let pairs = parse_flat_object(raw).map_err(|e| format!("line {at}: {e}\n  {raw}"))?;
        let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let num = |k: &str| -> Result<f64, String> {
            match get(k) {
                Some(Value::Num(n)) => Ok(*n),
                Some(_) => Err(format!("line {at}: key {k:?} must be a number")),
                None => Err(format!("line {at}: missing required key {k:?}")),
            }
        };
        let span_id = || -> Result<u64, String> {
            let n = num("span")?;
            if n.fract() != 0.0 || !(0.0..=MAX_EXACT_ID).contains(&n) {
                return Err(format!(
                    "line {at}: span id {n} is not a non-negative integer an f64 holds exactly"
                ));
            }
            Ok(n as u64)
        };
        let t = num("t")?;
        if t < 0.0 {
            return Err(format!("line {at}: negative timestamp {t}"));
        }
        let ev = match get("ev") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("line {at}: missing or non-string \"ev\"")),
        };
        let kind = match get("kind") {
            Some(Value::Str(s)) if !s.is_empty() => s.as_str(),
            _ => return Err(format!("line {at}: missing or empty \"kind\"")),
        };
        if ev == "end" {
            let required = END_FIELDS.iter().filter(|(k, _)| *k == kind).flat_map(|(_, f)| *f);
            for field in required {
                num(field).map_err(|e| format!("{e} (a {kind} span end)"))?;
            }
        }
        if t < last_t {
            return Err(format!("line {at}: timestamp {t} runs backwards (last {last_t})"));
        }
        last_t = t;
        match ev.as_str() {
            "start" => {
                let span = span_id()?;
                if !seen_spans.insert(span) {
                    return Err(format!("line {at}: span id {span} reused"));
                }
                open.push(span);
            }
            "end" => {
                let span = span_id()?;
                match open.pop() {
                    Some(innermost) if innermost == span => {}
                    Some(innermost) => {
                        return Err(format!(
                            "line {at}: end of span {span} but innermost open span is \
                             {innermost} (spans must nest LIFO)"
                        ))
                    }
                    None => return Err(format!("line {at}: end of span {span} with no span open")),
                }
            }
            "point" => {}
            other => return Err(format!("line {at}: unknown event type {other:?}")),
        }
        lines += 1;
    }
    if let Some(innermost) = open.last() {
        return Err(format!("EOF: span {innermost} still open"));
    }
    Ok(lines)
}
