//! Source-text transformations that generate request traffic from a base
//! program, and the response normalization that maps answers back to the
//! base program's answer.

use crate::stats::Rng;
use chora_ir::Program;
use std::collections::BTreeSet;

/// A comment or whitespace edit: new source bytes, same program.  Comment
/// edits carry `marker`, so they are distinct from every other edit.
pub fn trivia(source: &str, rng: &mut Rng, marker: u64) -> String {
    let mut lines: Vec<String> = source.lines().map(String::from).collect();
    if rng.chance(0.5) {
        let at = rng.below(lines.len() + 1);
        lines.insert(at, format!("// edit {marker:x}"));
    } else {
        for _ in 0..1 + rng.below(3) {
            let i = rng.below(lines.len());
            lines[i].push_str([" ", "  ", "\t", " \t"][rng.below(4)]);
        }
        if rng.chance(0.5) {
            let at = rng.below(lines.len() + 1);
            lines.insert(at, String::new());
        }
    }
    lines.join("\n") + "\n"
}

/// Prepends the no-op `assume(k >= 0);` to the body of `procedure`: the
/// procedure's key (and so its cone) changes, its meaning does not.
pub fn body(source: &str, procedure: &str, k: u64) -> Option<String> {
    let header = format!("proc {procedure}(");
    let mut lines: Vec<&str> = source.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.trim_start().starts_with(&header) && l.trim_end().ends_with('{'))?;
    let stmt = format!("    assume({k} >= 0);");
    lines.insert(at + 1, &stmt);
    Some(lines.join("\n") + "\n")
}

/// The names a renaming may touch: procedures, parameters, and locals
/// (globals are shared with the caller's view and keep their names).
pub fn bound_names(program: &Program) -> BTreeSet<String> {
    let globals: BTreeSet<String> = program.globals.iter().map(|g| g.to_string()).collect();
    let mut names = BTreeSet::new();
    for p in &program.procedures {
        names.insert(p.name.clone());
        names.extend(p.params.iter().chain(&p.locals).map(|s| s.to_string()));
    }
    names.retain(|n| !globals.contains(n));
    names
}

/// Alpha-renames every identifier in `names` to `name + suffix`, leaving
/// comments and string literals (assertion labels) alone.
pub fn rename(source: &str, names: &BTreeSet<String>, suffix: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len() + 64);
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i = source[i + 2..]
                    .find("*/")
                    .map_or(bytes.len(), |end| i + 2 + end + 2);
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push_str(&source[start..i]);
                if names.contains(&source[start..i]) {
                    out.push_str(suffix);
                }
                continue;
            }
            _ => i += source[i..].chars().next().map_or(1, char::len_utf8),
        }
        out.push_str(&source[start..i]);
    }
    out
}

/// A response document without its one timing field, trailing space
/// trimmed: the form in which responses are compared.
pub fn without_timing(doc: &str) -> String {
    let kept: Vec<&str> = doc
        .lines()
        .filter(|l| !l.contains("\"analysis_ms\""))
        .collect();
    kept.join("\n").trim_end().to_string()
}

/// The `analysis_ms` field of a response document.
pub fn analysis_ms(doc: &str) -> Option<f64> {
    let line = doc.lines().find(|l| l.contains("\"analysis_ms\""))?;
    line.split(':')
        .nth(1)?
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

/// Splits a `/v1/batch` response into its element documents: elements are
/// pretty-printed objects whose closing brace is the only unindented `}`.
pub fn split_batch(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for line in body.lines() {
        if line == "[" || line == "]" || (current.is_empty() && line.is_empty()) {
            continue;
        }
        if line == "}" || line == "}," {
            current.push_str("}\n");
            out.push(std::mem::take(&mut current));
        } else if line.starts_with("{\"error\"") {
            out.push(line.trim_end_matches(',').to_string());
        } else {
            current.push_str(line);
            current.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_skips_labels_comments_and_globals() {
        let src = "global cost;\n// f(n)\nproc f(n) locals r {\n    r := f(n - 1);\n    assert(r >= 0, \"f-n\");\n}\n";
        let program = chora_cli::parse_program(src).expect("test source parses");
        let names = bound_names(&program);
        assert_eq!(
            names.iter().map(String::as_str).collect::<Vec<_>>(),
            ["f", "n", "r"]
        );
        let renamed = rename(src, &names, "_q1");
        assert!(renamed.contains("proc f_q1(n_q1) locals r_q1 {"));
        assert!(renamed.contains("r_q1 := f_q1(n_q1 - 1);"));
        assert!(renamed.contains("\"f-n\"") && renamed.contains("// f(n)"));
        assert!(renamed.starts_with("global cost;"));
        assert_eq!(renamed.replace("_q1", ""), src);
    }

    #[test]
    fn body_edit_lands_inside_the_named_procedure() {
        let src = "proc g(x) {\n    skip;\n}\n";
        assert_eq!(
            body(src, "g", 7).as_deref(),
            Some("proc g(x) {\n    assume(7 >= 0);\n    skip;\n}\n")
        );
        assert_eq!(body(src, "h", 7), None);
    }

    #[test]
    fn batch_bodies_split_into_elements() {
        let body = "[\n{\n  \"a\": {\n  },\n  \"analysis_ms\": 1.5\n},\n{\"error\": \"x\"},\n{\n  \"b\": 2\n}\n]\n";
        let parts = split_batch(body);
        assert_eq!(parts.len(), 3);
        assert_eq!(analysis_ms(&parts[0]), Some(1.5));
        assert_eq!(without_timing(&parts[0]), "{\n  \"a\": {\n  },\n}");
        assert_eq!(parts[1], "{\"error\": \"x\"}");
    }
}
