//! The determinism & float-safety rule set.
//!
//! Every rule here exists because its bug class has either already broken a
//! determinism contract in this repository or sits one refactor away from
//! doing so. The rules are *token-pattern* rules over the hand-rolled lexer
//! (no type information), so each one is a deliberately sound
//! over-approximation of the semantic property it protects; the
//! justification-carrying allow directive ([`crate::directives`]) is the
//! pressure valve for the false-positive residue.
//!
//! # The rules
//!
//! * **`float-partial-cmp`** — any `.partial_cmp(` / `::partial_cmp(` call.
//!   Float comparators must use `f64::total_cmp`. Why: PR 2 fixed an event
//!   heap corrupted by a NaN reaching a `partial_cmp`-based `Ord` — ties
//!   silently became `Equal` and the heap's invariant broke. `total_cmp` is
//!   a true total order, and on the finite, non-NaN values these code paths
//!   guarantee, it agrees with `partial_cmp` (pinned by a regression test
//!   in `sbon_core::placement::mapping`). Defining `fn partial_cmp` (the
//!   `PartialOrd` impl itself) is fine; *calling* it in a comparator is not.
//!
//! * **`unordered-iteration`** — any `HashMap` / `HashSet` type mention
//!   outside a `use` declaration. Why: hash iteration order is
//!   process-random (`RandomState`), so a fold, sum, or report built by
//!   iterating one is nondeterministic — the float-accumulation cousin of
//!   the non-cancellative `+=` bug fixed in PR 5. Banning the *container*
//!   rather than the iteration is the sound token-level proxy: a map that
//!   is only ever point-looked-up earns a justified allow; anything
//!   iterated migrates to `BTreeMap`/`BTreeSet` or a sorted collect.
//!
//! * **`wall-clock`** — `Instant` / `SystemTime` outside the allowlisted
//!   stats-timing files ([`Policy::wall_clock_allowed`]). Why: simulation
//!   results must be a function of `(topology, seed, config)` only;
//!   wall-clock reads belong to *reporting* (tick timings in
//!   `overlay/runtime/`, the bench harness), never to control flow.
//!
//! * **`ambient-rng`** — `thread_rng` / `from_entropy` / `RandomState`
//!   anywhere, including imports. Why: all randomness is seed-threaded
//!   (`derive_rng` streams); ambient entropy destroys run-to-run
//!   reproducibility and there is no legitimate use in this workspace.
//!
//! * **`unsafe-forbidden`** — every crate root (`src/lib.rs`,
//!   `src/main.rs`) must carry `#![forbid(unsafe_code)]`. The workspace is
//!   unsafe-free (including the rayon shim); `forbid` pins that stronger
//!   than the workspace-level `deny`, which a module could re-`allow`.

use crate::directives::parse_directives;
use crate::lexer::{lex, line_col, line_starts, Token, TokenKind};

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// A rule violation or malformed allow directive; always fatal.
    Error,
    /// Hygiene finding (an unused allow); fatal under `--deny-warnings`.
    Warning,
}

/// One finding, addressed to a file/line/column.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Rule name (or `bad-allow` / `unused-allow` for directive hygiene).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Severity.
    pub level: Level,
}

impl Diagnostic {
    pub(crate) fn error(
        path: &str,
        line: u32,
        col: u32,
        rule: &'static str,
        message: String,
    ) -> Self {
        Diagnostic { path: path.to_string(), line, col, rule, message, level: Level::Error }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.level {
            Level::Error => "error",
            Level::Warning => "warning",
        };
        write!(
            f,
            "{}:{}:{}: {sev}[{}]: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Rule name constants (also the names the allow grammar accepts).
pub const FLOAT_PARTIAL_CMP: &str = "float-partial-cmp";
/// See [`FLOAT_PARTIAL_CMP`].
pub const UNORDERED_ITERATION: &str = "unordered-iteration";
/// See [`FLOAT_PARTIAL_CMP`].
pub const WALL_CLOCK: &str = "wall-clock";
/// See [`FLOAT_PARTIAL_CMP`].
pub const AMBIENT_RNG: &str = "ambient-rng";
/// See [`FLOAT_PARTIAL_CMP`].
pub const UNSAFE_FORBIDDEN: &str = "unsafe-forbidden";

/// All rule names, in reporting order.
pub const ALL_RULES: [&str; 5] =
    [FLOAT_PARTIAL_CMP, UNORDERED_ITERATION, WALL_CLOCK, AMBIENT_RNG, UNSAFE_FORBIDDEN];

/// Resolves a rule name from an allow directive to its canonical constant.
pub fn rule_by_name(name: &str) -> Option<&'static str> {
    ALL_RULES.iter().copied().find(|r| *r == name)
}

/// Per-run configuration: which paths are exempt from which rules.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Path prefixes where `wall-clock` does not apply: stats-timing and
    /// reporting code that measures real elapsed time *about* the run
    /// without feeding it back *into* the run.
    pub wall_clock_allowed: Vec<String>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            wall_clock_allowed: [
                // The one blessed wall-clock shim: `sbon_obs::WallTimer`
                // wraps `Instant` for phase-timing counters (observability
                // output, never an input to simulation state). Everything
                // else — the runtime included — must go through it.
                "crates/obs/src/walltime.rs",
                // The bench crate exists to measure wall time.
                "crates/bench/",
                // Examples print phase timings for humans.
                "examples/",
                // The criterion shim is a wall-clock harness by definition.
                "shims/criterion/",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

impl Policy {
    fn wall_clock_exempt(&self, path: &str) -> bool {
        self.wall_clock_allowed.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Crate roots that must carry `#![forbid(unsafe_code)]`. Non-root
    /// targets (bins, tests, examples, benches) are covered by the
    /// workspace-level `unsafe_code = "deny"` lint instead.
    fn is_crate_root(&self, path: &str) -> bool {
        path == "src/lib.rs" || path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")
    }
}

/// Lints one source file. `path` is workspace-relative with `/` separators
/// (it selects path-scoped policy such as the wall-clock allowlist and the
/// crate-root check).
pub fn lint_source(path: &str, src: &str, policy: &Policy) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let starts = line_starts(src);
    let (mut directives, mut diags) = parse_directives(path, src, &tokens, &starts);

    let mut allow = |rule: &'static str, line: u32| -> bool {
        let mut hit = false;
        for d in directives.iter_mut() {
            if d.rule == rule && (d.file_wide || d.target_line == Some(line)) {
                d.used = true;
                hit = true;
            }
        }
        hit
    };

    // --- Token-pattern rules over the significant (non-comment) stream. ---
    let significant: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();

    let mut in_use_decl = false;
    for (i, tok) in significant.iter().enumerate() {
        if let TokenKind::Punct(';') = tok.kind {
            in_use_decl = false;
            continue;
        }
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text(src);
        let (line, col) = line_col(&starts, tok.start);
        let prev = i.checked_sub(1).map(|j| significant[j]);
        if name == "use" {
            // A `use` declaration starts after `;`, a brace, an attribute's
            // `]`, or `pub`; `HashMap` in an import is dead weight, not
            // iteration, so `unordered-iteration` skips it.
            let at_stmt_start = matches!(
                prev.map(|t| (t.kind, t.text(src))),
                None | Some((TokenKind::Punct(';' | '{' | '}' | ']'), _))
                    | Some((TokenKind::Ident, "pub"))
            );
            if at_stmt_start {
                in_use_decl = true;
            }
            continue;
        }
        let violation: Option<(&'static str, String)> = match name {
            "partial_cmp" => {
                let called = matches!(prev.map(|t| t.kind), Some(TokenKind::Punct('.' | ':')));
                called.then(|| {
                    (
                        FLOAT_PARTIAL_CMP,
                        "float comparators must use `total_cmp`, not `partial_cmp` \
                         (NaN ties corrupt orderings; cf. the PR 2 event-heap bug)"
                            .to_string(),
                    )
                })
            }
            "HashMap" | "HashSet" if !in_use_decl => Some((
                UNORDERED_ITERATION,
                format!(
                    "`{name}` iteration order is process-random and can leak into results; \
                     use `BTreeMap`/`BTreeSet`, a sorted collect, or justify why order \
                     cannot be observed"
                ),
            )),
            "Instant" | "SystemTime" if !in_use_decl && !policy.wall_clock_exempt(path) => Some((
                WALL_CLOCK,
                format!(
                    "`{name}` outside allowlisted stats-timing modules; simulated time \
                     comes from `EventQueue`/`SimTime`, wall time is reporting-only"
                ),
            )),
            "thread_rng" | "from_entropy" | "RandomState" => Some((
                AMBIENT_RNG,
                format!("`{name}` is ambient entropy; all randomness must be seed-threaded"),
            )),
            _ => None,
        };
        if let Some((rule, message)) = violation {
            if !allow(rule, line) {
                diags.push(Diagnostic::error(path, line, col, rule, message));
            }
        }
    }

    // --- File-shape rule: crate roots must forbid unsafe code. ---
    if policy.is_crate_root(path)
        && !has_forbid_unsafe(&significant, src)
        && !allow(UNSAFE_FORBIDDEN, 1)
    {
        diags.push(Diagnostic::error(
            path,
            1,
            1,
            UNSAFE_FORBIDDEN,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }

    for d in directives.iter().filter(|d| !d.used) {
        diags.push(Diagnostic {
            path: path.to_string(),
            line: d.line,
            col: d.col,
            rule: "unused-allow",
            message: format!("allow({}) directive suppresses nothing; remove it", d.rule),
            level: Level::Warning,
        });
    }

    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

/// Looks for the token sequence `# ! [ forbid ( unsafe_code ) ]` anywhere in
/// the significant stream.
fn has_forbid_unsafe(significant: &[&Token], src: &str) -> bool {
    let pat: [(TokenKind, &str); 8] = [
        (TokenKind::Punct('#'), "#"),
        (TokenKind::Punct('!'), "!"),
        (TokenKind::Punct('['), "["),
        (TokenKind::Ident, "forbid"),
        (TokenKind::Punct('('), "("),
        (TokenKind::Ident, "unsafe_code"),
        (TokenKind::Punct(')'), ")"),
        (TokenKind::Punct(']'), "]"),
    ];
    significant.windows(pat.len()).any(|w| {
        w.iter().zip(pat.iter()).all(|(t, (k, text))| t.kind == *k && t.text(src) == *text)
    })
}

#[cfg(test)]
mod tests {
    //! Self-tests: every rule has at least one fixture proving it fires and
    //! one proving the allow directive (with justification) suppresses it.
    //! Fixtures live in raw strings so the lint pass, which lints its own
    //! crate as part of the workspace tier-1 test, does not see them as
    //! violations.

    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src, &Policy::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    // ---- float-partial-cmp ----

    #[test]
    fn float_partial_cmp_fires_on_method_call() {
        let src = r#"fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"#;
        let d = lint("crates/x/src/m.rs", src);
        assert_eq!(rules_of(&d), vec![FLOAT_PARTIAL_CMP]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn float_partial_cmp_fires_on_path_call() {
        let src = r#"let o = PartialOrd::partial_cmp(&a, &b);"#;
        assert_eq!(rules_of(&lint("crates/x/src/m.rs", src)), vec![FLOAT_PARTIAL_CMP]);
    }

    #[test]
    fn float_partial_cmp_ignores_trait_impl_definition() {
        let src = r#"
impl PartialOrd for T {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
"#;
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }

    #[test]
    fn float_partial_cmp_allow_suppresses() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap()); \
                   // sbon-lint: allow(float-partial-cmp): fixture justification\n";
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }

    // ---- unordered-iteration ----

    #[test]
    fn unordered_iteration_fires_on_type_use() {
        let src = "let m: HashMap<u32, f64> = HashMap::new();";
        let d = lint("crates/x/src/m.rs", src);
        assert_eq!(rules_of(&d), vec![UNORDERED_ITERATION, UNORDERED_ITERATION]);
    }

    #[test]
    fn unordered_iteration_skips_use_declarations() {
        let src = "use std::collections::{HashMap, HashSet};\npub use std::collections::HashMap;\n";
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }

    #[test]
    fn unordered_iteration_allow_suppresses_next_line() {
        let src = "// sbon-lint: allow(unordered-iteration): fixture — lookups only\n\
                   let m: HashMap<u32, f64> = HashMap::new();\n";
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }

    #[test]
    fn unordered_iteration_file_allow_suppresses_everywhere() {
        let src = "// sbon-lint: allow-file(unordered-iteration): fixture — membership only\n\
                   let a = HashSet::new();\nlet b: HashSet<u32> = HashSet::new();\n";
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }

    // ---- wall-clock ----

    #[test]
    fn wall_clock_fires_outside_allowlist() {
        let src = "use std::time::Instant;\nlet t = Instant::now();\nlet s = SystemTime::now();";
        let d = lint("crates/core/src/m.rs", src);
        assert_eq!(rules_of(&d), vec![WALL_CLOCK, WALL_CLOCK]);
        assert_eq!(d[0].line, 2, "the import line is exempt, the call is not");
    }

    #[test]
    fn wall_clock_exempt_in_allowlisted_paths() {
        let src = "let t = Instant::now();";
        assert!(lint("crates/bench/src/bin/fig9.rs", src).is_empty());
        assert!(lint("crates/obs/src/walltime.rs", src).is_empty());
        assert!(lint("examples/foo.rs", src).is_empty());
        // The runtime lost its blanket exemption when phase timing moved
        // onto `sbon_obs::WallTimer`; raw `Instant` there is a defect again.
        assert!(!lint("crates/overlay/src/runtime/mod.rs", src).is_empty());
        assert!(!lint("crates/overlay/src/traffic.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_allow_suppresses() {
        let src =
            "let t = Instant::now(); // sbon-lint: allow(wall-clock): fixture justification\n";
        assert!(lint("crates/core/src/m.rs", src).is_empty());
    }

    // ---- ambient-rng ----

    #[test]
    fn ambient_rng_fires_even_in_imports() {
        let src = "use rand::thread_rng;\nlet mut r = thread_rng();\nlet s = RandomState::new();\nlet g = SmallRng::from_entropy();";
        let d = lint("crates/x/src/m.rs", src);
        assert_eq!(rules_of(&d), vec![AMBIENT_RNG; 4]);
    }

    #[test]
    fn ambient_rng_allow_suppresses() {
        let src = "// sbon-lint: allow(ambient-rng): fixture justification\n\
                   let s = RandomState::new();\n";
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }

    // ---- unsafe-forbidden ----

    #[test]
    fn unsafe_forbidden_fires_on_bare_crate_root() {
        let src = "//! Crate docs.\npub fn f() {}\n";
        let d = lint("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&d), vec![UNSAFE_FORBIDDEN]);
        let d = lint("crates/x/src/main.rs", src);
        assert_eq!(rules_of(&d), vec![UNSAFE_FORBIDDEN]);
    }

    #[test]
    fn unsafe_forbidden_satisfied_by_attribute() {
        let src = "//! Crate docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_forbidden_not_required_off_root() {
        let src = "pub fn f() {}\n";
        assert!(lint("crates/x/src/module.rs", src).is_empty());
        assert!(lint("crates/x/tests/t.rs", src).is_empty());
    }

    #[test]
    fn unsafe_forbidden_allow_file_suppresses() {
        let src = "// sbon-lint: allow-file(unsafe-forbidden): fixture justification\n\
                   pub fn f() {}\n";
        assert!(lint("crates/x/src/lib.rs", src).is_empty());
    }

    // ---- directive hygiene ----

    #[test]
    fn unused_allow_is_a_warning() {
        let src = "// sbon-lint: allow(wall-clock): nothing here needs it\nlet x = 1;\n";
        let d = lint("crates/x/src/m.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-allow");
        assert_eq!(d[0].level, Level::Warning);
    }

    #[test]
    fn rule_text_inside_strings_and_comments_is_inert() {
        let src = "// HashMap Instant thread_rng partial_cmp\n\
                   let s = \"HashMap::new() Instant::now() .partial_cmp(x)\";\n\
                   let r = r#\"thread_rng() RandomState\"#;\n";
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }

    #[test]
    fn stacked_allows_apply_to_one_line() {
        let src = "// sbon-lint: allow(unordered-iteration): fixture a\n\
                   // sbon-lint: allow(wall-clock): fixture b\n\
                   let m: HashMap<u32, Instant> = HashMap::new();\n";
        assert!(lint("crates/x/src/m.rs", src).is_empty());
    }
}
