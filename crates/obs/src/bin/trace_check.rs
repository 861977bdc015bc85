//! `trace_check` — validates a JSONL trace emitted by `sbon_obs`.
//!
//! CI runs the planet-scale smoke with JSONL tracing enabled and feeds the
//! resulting file through this binary. The schema it enforces is
//! [`sbon_obs::check_trace`]'s; the binary reads the file and turns the
//! verdict into an exit code.
//!
//! Usage: `trace_check <trace.jsonl>`; exits 1 with a line-addressed message
//! on the first violation, 2 on a usage or read error.

use std::process::ExitCode;

use sbon_obs::check_trace;

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
    match check_trace(&text) {
        Ok(lines) => {
            println!(
                "trace_check: {path} ok — {lines} events; spans balanced, timestamps monotone"
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
        let text = "{\"t\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":0.5,\"ev\":\"point\",\"kind\":\"p\",\"n\":3}\n\
                    {\"t\":1,\"ev\":\"start\",\"kind\":\"b\",\"span\":2}\n\
                    {\"t\":2,\"ev\":\"end\",\"kind\":\"b\",\"span\":2}\n\
                    {\"t\":3,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n";
        assert_eq!(check_trace(text), Ok(5));
    }

    #[test]
    fn rejects_unbalanced_and_non_lifo_spans() {
        let open = "{\"t\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n";
        assert!(check_trace(open).unwrap_err().contains("still open"));
        let crossed = "{\"t\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                       {\"t\":1,\"ev\":\"start\",\"kind\":\"b\",\"span\":2}\n\
                       {\"t\":2,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n";
        assert!(check_trace(crossed).unwrap_err().contains("LIFO"));
    }

    #[test]
    fn rejects_backwards_time() {
        let back = "{\"t\":5,\"ev\":\"point\",\"kind\":\"p\"}\n\
                    {\"t\":4,\"ev\":\"point\",\"kind\":\"p\"}\n";
        assert!(check_trace(back).unwrap_err().starts_with("line 2: timestamp 4 runs backwards"));
        let level = "{\"t\":5,\"ev\":\"point\",\"kind\":\"p\"}\n\
                     {\"t\":5,\"ev\":\"point\",\"kind\":\"q\"}\n";
        assert_eq!(check_trace(level), Ok(2));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(check_trace("not json\n").is_err());
        assert!(check_trace("{\"t\":1e999,\"ev\":\"point\",\"kind\":\"p\"}\n").is_err());
        assert!(check_trace("{\"t\":1,\"ev\":\"point\"}\n").unwrap_err().contains("kind"));
        assert!(check_trace("{\"t\":1,\"ev\":\"start\",\"kind\":\"p\"}\n")
            .unwrap_err()
            .contains("span"));
    }

    #[test]
    fn reopt_span_ends_must_carry_their_attributes() {
        let trace = |end_fields: &str| {
            format!(
                "{{\"t\":0,\"ev\":\"start\",\"kind\":\"reopt.full\",\"span\":1}}\n\
                 {{\"t\":0,\"ev\":\"end\",\"kind\":\"reopt.full\",\"span\":1{end_fields}}}\n"
            )
        };
        let complete = r#","evaluated":3,"swaps":0,"memo":12,"pruned":7,"lists":1"#;
        assert_eq!(check_trace(&trace(complete)), Ok(2));
        let no_memo = r#","evaluated":3,"swaps":0,"pruned":7,"lists":1"#;
        let err = check_trace(&trace(no_memo)).unwrap_err();
        assert!(err.contains("\"memo\"") && err.contains("reopt.full"), "{err}");
        let text_memo = r#","evaluated":3,"swaps":0,"memo":"12","pruned":7,"lists":1"#;
        assert!(check_trace(&trace(text_memo)).unwrap_err().contains("must be a number"));
        // Start and point events carry what they like.
        let local_point = "{\"t\":0,\"ev\":\"point\",\"kind\":\"reopt.local\"}\n";
        assert_eq!(check_trace(local_point), Ok(1));
    }

    #[test]
    fn rejects_span_id_reuse() {
        let text = "{\"t\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":1,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":2,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}\n\
                    {\"t\":3,\"ev\":\"end\",\"kind\":\"a\",\"span\":1}\n";
        assert!(check_trace(text).unwrap_err().contains("reused"));
    }

    #[test]
    fn rejects_span_ids_that_are_not_ids() {
        // Cast to u64, 1.5 would collide with id 1 and -3 with id 0.
        let trace = |id: &str| {
            format!(
                "{{\"t\":0,\"ev\":\"start\",\"kind\":\"a\",\"span\":1}}\n\
                 {{\"t\":0,\"ev\":\"start\",\"kind\":\"b\",\"span\":{id}}}\n"
            )
        };
        for id in ["1.5", "-3", "9007199254740993"] {
            let err = check_trace(&trace(id)).unwrap_err();
            assert!(err.starts_with("line 2: span id"), "{id}: {err}");
        }
        let largest_exact = trace("9007199254740991");
        assert!(check_trace(&largest_exact).unwrap_err().contains("still open"));
    }
}
