//! No source may call `partial_cmp`: a NaN silently corrupts an `Ord` built on
//! it, so floats compare with `total_cmp`. Clippy cannot ban it without firing in
//! every `#[derive(PartialOrd)]`. A call that must stay is justified on the line above.

use std::path::Path;

/// Appends each unjustified call under `dir` to `hits`; returns the files read.
fn scan(dir: &Path, hits: &mut Vec<String>) -> usize {
    let mut files = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.ends_with("target") {
            files += scan(&path, hits);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files += 1;
            let src = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = src.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let code = line.split("//").next().unwrap();
                let call = [".", "::"].iter().any(|p| code.contains(&format!("{p}partial_cmp(")));
                if call && !(i > 0 && lines[i - 1].trim_start().starts_with("//")) {
                    hits.push(format!("{}:{}", path.display(), i + 1));
                }
            }
        }
    }
    files
}

#[test]
fn no_source_calls_partial_cmp() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    let files: usize = ["crates", "shims", "src", "tests", "examples"]
        .iter()
        .map(|r| scan(&root.join(r), &mut hits))
        .sum();
    assert!(files > 100, "scanned only {files} files");
    assert!(hits.is_empty(), "use total_cmp, or justify the call on the line above: {hits:#?}");
}
