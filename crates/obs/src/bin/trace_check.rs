//! `trace_check` — validates a JSONL trace emitted by `sbon_obs`.
//!
//! CI runs the planet-scale smoke with JSONL tracing enabled and feeds the
//! resulting file through this checker, which enforces the line schema the
//! determinism contract promises:
//!
//! 1. every line parses as a flat JSON object of strings and finite
//!    numbers, with the required keys (`t`, `lane`, `ev`, `kind`, and
//!    `span` on start/end events);
//! 2. spans balance — every `end` closes the most recently opened span on
//!    its lane (emission is serial per lane, so spans nest LIFO), span ids
//!    are unique, and nothing is left open at EOF;
//! 3. timestamps are monotone non-decreasing per lane (virtual time never
//!    runs backwards on an emission lane);
//! 4. the span ends the runtime's re-optimization passes emit carry their
//!    numeric attributes ([`END_FIELDS`]): what was evaluated and changed,
//!    the memo hits, and for the plan-replacing kinds the candidates pruned
//!    and the lists built.
//!
//! Usage: `trace_check <trace.jsonl>`; exits non-zero with a line-addressed
//! message on the first violation.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The numeric attributes a span end of each listed kind must carry.
const END_FIELDS: [(&str, &[&str]); 3] = [
    ("reopt.local", &["evaluated", "migrations", "memo"]),
    ("reopt.rewrite", &["evaluated", "swaps", "memo", "pruned", "lists"]),
    ("reopt.full", &["evaluated", "swaps", "memo", "pruned", "lists"]),
];

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

/// Per-lane validation state.
#[derive(Default)]
struct Lane {
    last_t: f64,
    /// Open span ids, innermost last.
    stack: Vec<u64>,
}

fn check(text: &str) -> Result<(u64, u64), String> {
    let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
    let mut seen_spans: BTreeMap<u64, ()> = BTreeMap::new();
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
        let t = num("t")?;
        if t < 0.0 {
            return Err(format!("line {at}: negative timestamp {t}"));
        }
        let lane_id = num("lane")? as u64;
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
        let lane = lanes.entry(lane_id).or_default();
        if t < lane.last_t {
            return Err(format!(
                "line {at}: timestamp {t} runs backwards on lane {lane_id} (last {})",
                lane.last_t
            ));
        }
        lane.last_t = t;
        match ev.as_str() {
            "start" => {
                let span = num("span")? as u64;
                if seen_spans.insert(span, ()).is_some() {
                    return Err(format!("line {at}: span id {span} reused"));
                }
                lane.stack.push(span);
            }
            "end" => {
                let span = num("span")? as u64;
                match lane.stack.pop() {
                    Some(open) if open == span => {}
                    Some(open) => {
                        return Err(format!(
                            "line {at}: end of span {span} but innermost open span on \
                             lane {lane_id} is {open} (spans must nest LIFO)"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {at}: end of span {span} with no span open on lane {lane_id}"
                        ))
                    }
                }
            }
            "point" => {}
            other => return Err(format!("line {at}: unknown event type {other:?}")),
        }
        lines += 1;
    }
    for (id, lane) in &lanes {
        if let Some(open) = lane.stack.last() {
            return Err(format!("EOF: span {open} still open on lane {id}"));
        }
    }
    Ok((lines, lanes.len() as u64))
}

fn main() -> ExitCode {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: trace_check <trace.jsonl>");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match check(&text) {
        Ok((lines, lanes)) => {
            println!(
                "trace_check: {path} ok — {lines} events on {lanes} lane(s); \
                 spans balanced, timestamps monotone"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {path} INVALID\n{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_balanced_trace() {
        let text = "{\"t\":0,\"lane\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":0.5,\"lane\":0,\"ev\":\"point\",\"kind\":\"p\",\"n\":3}\n\
                    {\"t\":1,\"lane\":0,\"ev\":\"start\",\"kind\":\"b\",\"span\":2}\n\
                    {\"t\":2,\"lane\":0,\"ev\":\"end\",\"kind\":\"b\",\"span\":2}\n\
                    {\"t\":3,\"lane\":0,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n";
        assert_eq!(check(text), Ok((5, 1)));
    }

    #[test]
    fn rejects_unbalanced_and_non_lifo_spans() {
        let open = "{\"t\":0,\"lane\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n";
        assert!(check(open).unwrap_err().contains("still open"));
        let crossed = "{\"t\":0,\"lane\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                       {\"t\":1,\"lane\":0,\"ev\":\"start\",\"kind\":\"b\",\"span\":2}\n\
                       {\"t\":2,\"lane\":0,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n";
        assert!(check(crossed).unwrap_err().contains("LIFO"));
    }

    #[test]
    fn rejects_backwards_time_per_lane_but_allows_it_across_lanes() {
        let back = "{\"t\":5,\"lane\":0,\"ev\":\"point\",\"kind\":\"p\"}\n\
                    {\"t\":4,\"lane\":0,\"ev\":\"point\",\"kind\":\"p\"}\n";
        assert!(check(back).unwrap_err().contains("runs backwards"));
        let lanes = "{\"t\":5,\"lane\":0,\"ev\":\"point\",\"kind\":\"p\"}\n\
                     {\"t\":4,\"lane\":1,\"ev\":\"point\",\"kind\":\"p\"}\n";
        assert_eq!(check(lanes), Ok((2, 2)));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(check("not json\n").is_err());
        assert!(check("{\"t\":1e999,\"lane\":0,\"ev\":\"point\",\"kind\":\"p\"}\n").is_err());
        assert!(check("{\"t\":1,\"lane\":0,\"ev\":\"point\"}\n").unwrap_err().contains("kind"));
        assert!(check("{\"t\":1,\"lane\":0,\"ev\":\"start\",\"kind\":\"p\"}\n")
            .unwrap_err()
            .contains("span"));
    }

    #[test]
    fn reopt_span_ends_must_carry_their_attributes() {
        let trace = |end_fields: &str| {
            format!(
                "{{\"t\":0,\"lane\":0,\"ev\":\"start\",\"kind\":\"reopt.full\",\"span\":1}}\n\
                 {{\"t\":0,\"lane\":0,\"ev\":\"end\",\"kind\":\"reopt.full\",\"span\":1{end_fields}}}\n"
            )
        };
        let complete = r#","evaluated":3,"swaps":0,"memo":12,"pruned":7,"lists":1"#;
        assert_eq!(check(&trace(complete)), Ok((2, 1)));
        let no_memo = r#","evaluated":3,"swaps":0,"pruned":7,"lists":1"#;
        let err = check(&trace(no_memo)).unwrap_err();
        assert!(err.contains("\"memo\"") && err.contains("reopt.full"), "{err}");
        let text_memo = r#","evaluated":3,"swaps":0,"memo":"12","pruned":7,"lists":1"#;
        assert!(check(&trace(text_memo)).unwrap_err().contains("must be a number"));
        // Start and point events carry what they like.
        let local_point = "{\"t\":0,\"lane\":0,\"ev\":\"point\",\"kind\":\"reopt.local\"}\n";
        assert_eq!(check(local_point), Ok((1, 1)));
    }

    #[test]
    fn rejects_span_id_reuse() {
        let text = "{\"t\":0,\"lane\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":1,\"lane\":0,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":2,\"lane\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":3,\"lane\":0,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n";
        assert!(check(text).unwrap_err().contains("reused"));
    }
}
