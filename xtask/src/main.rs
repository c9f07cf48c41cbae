//! Repo tooling. Subcommands:
//!
//! * `audit-unsafe` — the root `Cargo.toml` denies `unsafe_code` for every target of every
//!   workspace member, and rustc enforces that; a file can still lower the level for itself.
//!   So the audit fails unless the code of every `.rs` file in the repository (comments and
//!   literals blanked out) holds no `unsafe` and no `unsafe_code` lint level besides a
//!   `#![forbid(unsafe_code)]`, which only raises it, and [`UNSAFE_SITE`]'s one
//!   `#[allow(unsafe_code)]` directly above its one `unsafe` block — the ledger's single
//!   dispatch into its hardware kernels (SHA-NI for SHA-256, carry-less multiply for CRC-32).
//!
//! * `audit-pub` — fails on any `pub` fn, struct, enum, trait, type alias, const, static or
//!   module in the non-test code of a library crate under `crates/` (the third-party
//!   stand-ins in `crates/shims` aside) whose name appears in no file outside that crate's
//!   `src/` — other crates, the crate's own `tests/`, `benches/` and `src/bin/`, the facade,
//!   `examples/`, `tests/`, `perf/` and `xtask` — and in the `pub` signature of no other item
//!   of its crate; and on any `pub` struct field whose name appears in no file outside that
//!   crate's `src/`. rustc's `dead_code` lint never fires on an exported item, so every `pub`
//!   must have a user for the compiler to find the dead code behind it. The match is by name
//!   over code with comments and literals blanked out, so an item whose name a user elsewhere
//!   happens to share passes; there is no allowlist. The audit also fails on any
//!   `#[allow(…)]` or `#[expect(…)]` of `dead_code` or an `unused…` lint in the non-test code
//!   under `crates/*/src` (shims aside): the audit is only worth its keep while that lint
//!   stays on.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The file holding the one allowed `unsafe` block.
const UNSAFE_SITE: &str = "crates/ledger/src/sha256.rs";

/// Lines from the `#[allow(unsafe_code)]` down to the `unsafe` it covers, at most.
const UNSAFE_SITE_SPAN: usize = 3;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("audit-unsafe") => audit_unsafe(),
        Some("audit-pub") => audit_pub(),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- <audit-unsafe | audit-pub>\n\
                 (unknown subcommand {other:?})"
            );
            ExitCode::FAILURE
        }
    }
}

fn audit_unsafe() -> ExitCode {
    let root = repo_root();
    let relative = |path: &Path| relative(&root, path);
    let mut violations: Vec<String> = Vec::new();

    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root, &mut files);
    files.sort();
    let mut site: Option<usize> = None;
    for path in &files {
        let rel = relative(path);
        let code = code_only(&read(path));
        let mut allow_lines: Vec<usize> = Vec::new();
        let mut unsafe_lines: Vec<usize> = Vec::new();
        for (i, line) in code.lines().enumerate() {
            let line_no = i + 1;
            if word_count(line, "unsafe_code") > 0 {
                match line.trim() {
                    "#![forbid(unsafe_code)]" => {}
                    "#[allow(unsafe_code)]" if rel == UNSAFE_SITE => allow_lines.push(line_no),
                    other => violations.push(format!(
                        "{rel}:{line_no}: `unsafe_code` lint level outside the audited ones: \
                         {other}"
                    )),
                }
            }
            unsafe_lines.extend(std::iter::repeat_n(line_no, word_count(line, "unsafe")));
        }
        if rel != UNSAFE_SITE {
            for line_no in unsafe_lines {
                violations.push(format!("{rel}:{line_no}: `unsafe` outside {UNSAFE_SITE}"));
            }
            continue;
        }
        match (allow_lines.as_slice(), unsafe_lines.as_slice()) {
            ([allow], [line]) if line > allow && line - allow <= UNSAFE_SITE_SPAN => {
                site = Some(*line);
            }
            _ => violations.push(format!(
                "{rel}: expected one `#[allow(unsafe_code)]` directly above one `unsafe`, \
                 found the allow on lines {allow_lines:?} and `unsafe` on lines {unsafe_lines:?}"
            )),
        }
    }
    match site {
        Some(line) if violations.is_empty() => {
            println!(
                "audit-unsafe: OK ({} files scanned; the one `unsafe` is {UNSAFE_SITE}:{line})",
                files.len()
            );
            return ExitCode::SUCCESS;
        }
        None if violations.is_empty() => violations.push(format!("{UNSAFE_SITE}: not found")),
        _ => {}
    }
    eprintln!("audit-unsafe: unsafe code outside the audited site:\n");
    for v in &violations {
        eprintln!("  {v}");
    }
    eprintln!("\n{} violation(s).", violations.len());
    ExitCode::FAILURE
}

/// `path` relative to `root`, with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// How often `word` stands in `line` as a whole identifier.
fn word_count(line: &str, word: &str) -> usize {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word)
        .filter(|&(at, _)| {
            !line[..at].ends_with(is_ident) && !line[at + word.len()..].starts_with(is_ident)
        })
        .count()
}

/// `text` with every comment and every string, byte-string and character literal blanked
/// out, newlines kept so line numbers still hold: what is left is code.
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let starts_token = |i: usize| i == 0 || !is_ident(chars[i - 1]);
    let mut out = String::with_capacity(text.len());
    // Pushes the newlines of `chars[from..to]`, dropping everything else.
    let blank = |out: &mut String, from: usize, to: usize| {
        out.extend(
            chars[from..to.min(chars.len())]
                .iter()
                .filter(|&&c| c == '\n'),
        );
    };
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && at(i + 1) == '/' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            // Block comments nest.
            let (start, mut depth) = (i, 0usize);
            while i < chars.len() {
                if chars[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            blank(&mut out, start, i);
        } else if c == 'r'
            && (at(i + 1) == '"' || at(i + 1) == '#')
            && (starts_token(i) || (chars[i - 1] == 'b' && starts_token(i - 1)))
        {
            // Raw string `r#"…"#` (the `b` of `br"…"` is already out, harmlessly).
            let start = i;
            let mut hashes = 0;
            i += 1;
            while at(i) == '#' {
                hashes += 1;
                i += 1;
            }
            if at(i) != '"' {
                // `r#ident`, a raw identifier.
                out.push('r');
                i = start + 1;
                continue;
            }
            i += 1;
            while i < chars.len() {
                if chars[i] == '"' && (1..=hashes).all(|h| at(i + h) == '#') {
                    i += 1 + hashes;
                    break;
                }
                i += 1;
            }
            blank(&mut out, start, i);
        } else if c == '"' {
            let start = i;
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            blank(&mut out, start, i);
        } else if c == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A character literal; a `'` that opens neither is a lifetime or label.
            let mut end = i + 2;
            if at(i + 1) == '\\' {
                end = i + 3;
                while end < chars.len() && chars[end] != '\'' {
                    end += 1;
                }
            }
            i = end + 1;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// The item kinds `audit-pub` holds to having a user outside their crate.
const PUB_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// A `pub` item, or a `pub` struct field (kind `field`), of a crate's library code.
#[derive(Debug)]
struct PubItem {
    line: usize,
    kind: &'static str,
    name: String,
    /// The identifiers a user of the item sees (see [`pub_items`]).
    signature: BTreeSet<String>,
}

fn audit_pub() -> ExitCode {
    let root = repo_root();
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root, &mut files);
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|path| (relative(&root, path), read(path)))
        .collect();
    let (items, unused) = unused_pub_items(&sources);
    let mut violations: Vec<String> = unused
        .iter()
        .map(|(file, item)| format!("{file}:{}: pub {} {}", item.line, item.kind, item.name))
        .collect();
    violations.extend(
        dead_code_allows(&sources)
            .into_iter()
            .map(|(file, line)| format!("{file}:{line}: silences rustc's dead-code report")),
    );
    if violations.is_empty() {
        println!(
            "audit-pub: OK ({items} pub items and fields, each named outside its crate's src/; \
             no dead-code allow; {} files scanned)",
            sources.len()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "audit-pub: pub items and fields that nothing outside their crate names, and allows \
         that hide dead code:\n"
    );
    for v in &violations {
        eprintln!("  {v}");
    }
    eprintln!(
        "\n{} violation(s); {} of {items} pub item(s) unused. Make each unused item \
         `pub(crate)`, or delete it if nothing in its crate uses it either; delete the dead \
         code an allow hides.",
        violations.len(),
        unused.len()
    );
    ExitCode::FAILURE
}

/// The `(file, line)` of every `allow` or `expect` attribute that names `dead_code` or an
/// `unused…` lint in the non-test code under a non-shim crate's `src/` among `sources`.
fn dead_code_allows(sources: &[(String, String)]) -> Vec<(String, usize)> {
    let mut found = Vec::new();
    for (rel, text) in sources {
        let in_src = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(name, path)| name != "shims" && path.starts_with("src/"));
        if !in_src {
            continue;
        }
        let code = code_only(text);
        for (line_no, line) in non_test_lines(&code) {
            let attr = line.trim_start();
            let silences = (attr.starts_with("#[") || attr.starts_with("#!["))
                && (attr.contains("allow(") || attr.contains("expect("))
                && identifiers(attr)
                    .iter()
                    .any(|lint| lint == "dead_code" || lint.starts_with("unused"));
            if silences {
                found.push((rel.clone(), line_no));
            }
        }
    }
    found
}

/// The number of `pub` items and fields in the library code of the non-shim crates among
/// `sources` (repo-relative path, text), and those of them whose name appears in no file
/// outside their crate's `src/` — other crates, the crate's own `tests/`, `benches/` and
/// `src/bin/`, the facade, `examples/`, `tests/`, `perf/` and `xtask` — and, for an item, in
/// the `pub` signature of no other item of their crate nor in an associated type of its trait
/// impls. Comments, literals and `#[cfg(test)]` items are not users.
fn unused_pub_items(sources: &[(String, String)]) -> (usize, Vec<(String, PubItem)>) {
    // Every identifier in the code of each owner: a crate's library code, or (`None`) the rest.
    let mut idents: BTreeMap<Option<&str>, BTreeSet<String>> = BTreeMap::new();
    // Every `pub` item, with its crate and file.
    let mut declared: Vec<(&str, &str, PubItem)> = Vec::new();
    // Per crate, the names its trait impls' associated types use: public, though not `pub`.
    let mut associated: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (rel, text) in sources {
        let code = code_only(text);
        let owner = library_crate(rel);
        idents.entry(owner).or_default().extend(identifiers(&code));
        if let Some(krate) = owner {
            let code: Vec<(usize, &str)> = non_test_lines(&code).collect();
            declared.extend(
                pub_items(&code)
                    .into_iter()
                    .map(|item| (krate, rel.as_str(), item)),
            );
            let types = code.iter().filter(|(_, line)| {
                line.starts_with(char::is_whitespace) && line.trim_start().starts_with("type ")
            });
            let entry = associated.entry(krate).or_default();
            entry.extend(types.flat_map(|(_, line)| identifiers(line)));
        }
    }
    let used: Vec<bool> = declared
        .iter()
        .enumerate()
        .map(|(i, (krate, _, item))| {
            let named_outside = idents
                .iter()
                .any(|(owner, names)| *owner != Some(*krate) && names.contains(&item.name));
            if item.kind == "field" {
                return named_outside;
            }
            let in_signature = declared.iter().enumerate().any(|(j, (other, _, by))| {
                j != i && other == krate && by.signature.contains(&item.name)
            });
            named_outside || in_signature || associated[krate].contains(&item.name)
        })
        .collect();
    let total = declared.len();
    let unused = declared
        .into_iter()
        .zip(used)
        .filter(|(_, used)| !used)
        .map(|((_, rel, item), _)| (rel.to_string(), item))
        .collect();
    (total, unused)
}

/// The crate directory (`crates/<name>`) whose library code `rel` is: a file under a non-shim
/// crate's `src/`, other than its `src/bin/`.
fn library_crate(rel: &str) -> Option<&str> {
    let (name, path) = rel.strip_prefix("crates/")?.split_once('/')?;
    let library = name != "shims" && path.starts_with("src/") && !path.starts_with("src/bin/");
    library.then(|| &rel[.."crates/".len() + name.len()])
}

/// Every identifier in `code`.
fn identifiers(code: &str) -> BTreeSet<String> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| word.starts_with(|c: char| c.is_alphabetic() || c == '_'))
        .map(str::to_string)
        .collect()
}

/// The `pub` items and named struct fields declared at the start of a line of `lines`
/// (numbered code lines), each item with its signature: a function's or module's declaration
/// up to its body, the whole of any other item. A field's signature is empty: its struct's
/// signature already holds its type.
fn pub_items(lines: &[(usize, &str)]) -> Vec<PubItem> {
    let mut items = Vec::new();
    for (at, (line_no, line)) in lines.iter().enumerate() {
        let Some(decl) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        if let Some((kind, name)) = kind_and_name(decl) {
            items.push(pub_item(*line_no, kind, name, lines, at));
        } else if let Some(name) = field_name(decl) {
            items.push(PubItem {
                line: *line_no,
                kind: "field",
                name: name.to_string(),
                signature: BTreeSet::new(),
            });
        }
    }
    items
}

/// The name of the struct field `decl` declares (`decl` follows a `pub `): an identifier
/// followed by a single `:`.
fn field_name(decl: &str) -> Option<&str> {
    let name = leading_ident(decl)?;
    let rest = decl[name.len()..].trim_start();
    (rest.starts_with(':') && !rest.starts_with("::")).then_some(name)
}

/// The kind and name of the item `decl` declares (`decl` follows a `pub `), if it is one of
/// [`PUB_KINDS`]; qualifiers such as the `const` of `pub const fn` are skipped.
fn kind_and_name(decl: &str) -> Option<(&'static str, &str)> {
    const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];
    let mut words = decl
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty());
    let mut word = words.next()?;
    if word == "const" {
        let next = words.next()?;
        if !QUALIFIERS.contains(&next) && next != "fn" {
            return Some(("const", next));
        }
        word = next;
    }
    while QUALIFIERS.contains(&word) {
        word = words.next()?;
    }
    let kind = PUB_KINDS.iter().find(|kind| **kind == word)?;
    Some((kind, words.next()?))
}

/// The item of `kind` named `name` declared on `lines[at]`, with its signature.
fn pub_item(
    line: usize,
    kind: &'static str,
    name: &str,
    lines: &[(usize, &str)],
    at: usize,
) -> PubItem {
    let text: String = lines[at..]
        .iter()
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    // A function's or module's declaration up to its body; any other item whole.
    let end = match kind {
        "fn" | "mod" => header_len(&text),
        _ => item_len(&text),
    };
    PubItem {
        line,
        kind,
        name: name.to_string(),
        signature: identifiers(&text[..end]),
    }
}

/// The length of the declaration at the start of `text` up to its body: to the first `{` or
/// `;` outside `(…)` and `[…]`.
fn header_len(text: &str) -> usize {
    let mut depth = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            '{' | ';' if depth == 0 => return i,
            _ => {}
        }
    }
    text.len()
}

/// Walks up from the current directory to the workspace root (identified by `Cargo.toml` +
/// `crates/`), so the audits run from any subdirectory.
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("current dir");
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("workspace root (Cargo.toml + crates/) not found above current dir");
        }
    }
}

/// Every `.rs` file under `dir`, skipping build output (`target`) and hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("scan root {} unreadable: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "target" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The numbered lines of `text` outside its `#[cfg(test)]` items: the test modules at the end
/// of a file, and the test-only fields, methods and statements a few files carry. Test code
/// is no user of a `pub` item. A gated item runs from the
/// attribute to the end of the item (see [`item_len`]).
fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    const GATE: &str = "#[cfg(test)]";
    let code = code_only(text);
    let mut gated: BTreeSet<usize> = BTreeSet::new();
    let mut from = 0;
    while let Some(found) = code[from..].find(GATE) {
        let start = from + found;
        from = start + GATE.len() + item_len(&code[start + GATE.len()..]);
        let first = code[..start].matches('\n').count();
        gated.extend(first..=first + code[start..from].matches('\n').count());
    }
    text.lines()
        .enumerate()
        .filter(move |(i, _)| !gated.contains(i))
        .map(|(i, line)| (i + 1, line))
}

/// The length of the item (or field, or statement) at the start of `code`: through its first
/// `{…}` block, to the first `;` or `,` outside brackets and generic arguments, or to the `}`
/// that closes the block around it, whichever comes first.
fn item_len(code: &str) -> usize {
    let (mut depth, mut generics) = (0usize, 0usize);
    let mut prev = ' ';
    for (i, c) in code.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            '<' if prev.is_alphanumeric() || prev == '_' || prev == ':' => generics += 1,
            '>' if generics > 0 && prev != '-' && prev != '=' => generics -= 1,
            '}' if depth == 0 => return i,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            ';' | ',' if depth == 0 && generics == 0 => return i + 1,
            _ => {}
        }
        prev = c;
    }
    code.len()
}

/// The identifier at the start of `s`, if any.
fn leading_ident(s: &str) -> Option<&str> {
    let end = s
        .char_indices()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    (end > 0 && !s.as_bytes()[0].is_ascii_digit()).then(|| &s[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_only_blanks_comments_and_literals_but_keeps_lines() {
        let text = concat!(
            "let a = \"unsafe {\\\" }\"; // unsafe\n",
            "/* unsafe /* nested */ still\n comment */ let b = r#\"unsafe\"#;\n",
            "let c = '\"'; let d = '\\''; fn e<'a>(x: &'a str) {}\n",
            "let f = br\"unsafe\"; let r#g = 1; unsafe { f() }\n",
        );
        let code = code_only(text);
        assert_eq!(code.lines().count(), 5, "{code}");
        let found: Vec<usize> = code
            .lines()
            .enumerate()
            .filter(|(_, line)| word_count(line, "unsafe") > 0)
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(found, vec![5], "{code}");
        assert!(code.contains("fn e<'a>(x: &'a str)"), "{code}");
        assert!(code.contains("let r#g = 1;"), "{code}");
    }

    #[test]
    fn word_count_respects_identifier_boundaries() {
        assert_eq!(word_count("unsafe { a() }; unsafe { b() }", "unsafe"), 2);
        assert_eq!(word_count("#![forbid(unsafe_code)]", "unsafe"), 0);
        assert_eq!(word_count("#![forbid(unsafe_code)]", "unsafe_code"), 1);
        assert_eq!(word_count("not_unsafe()", "unsafe"), 0);
    }

    #[test]
    fn test_modules_are_excluded() {
        let text = "fn a() {}\n#[cfg(test)]\nmod tests { for v in map.values() {} }\n";
        assert_eq!(non_test_lines(text).count(), 1);
        let text = concat!(
            "struct S {\n",
            "    #[cfg(test)]\n",
            "    mask: HashMap<u8, u8>,\n",
            "    live: u8,\n",
            "}\n",
            "#[cfg(test)]\n",
            "fn helper(a: u8, b: u8) -> u8 {\n",
            "    a + b\n",
            "}\n",
            "pub fn after() {}\n",
        );
        let kept: Vec<usize> = non_test_lines(text).map(|(line, _)| line).collect();
        assert_eq!(kept, vec![1, 4, 5, 10]);
    }

    #[test]
    fn audit_pub_flags_only_items_nothing_outside_names() {
        let source = |rel: &str, text: &str| (rel.to_string(), text.to_string());
        let sources =
            vec![
            source(
                "crates/a/src/lib.rs",
                concat!(
                    "pub mod inner;\n",
                    "pub struct Assoc;\n",
                    "impl Iterator for Walk {\n",
                    "    type Item = Assoc;\n",
                    "}\n",
                    "pub fn used() {}\n",
                    "pub fn unused() {}\n",
                    "pub struct InSignature {\n",
                    "    pub read_outside: u8,\n",
                    "    pub unread: u8,\n",
                    "}\n",
                    "pub fn entry(x: u8) -> InSignature {\n",
                    "    InSignature { read_outside: x, unread: x }\n",
                    "}\n",
                    "#[cfg(test)]\n",
                    "mod tests { pub fn test_only() {} }\n",
                ),
            ),
            source("crates/a/src/inner.rs", "pub const fn also_unused() -> u8 { 0 }\n"),
            source(
                "crates/b/src/lib.rs",
                "// unused\npub fn b() -> &'static str { a::used(); a::inner::x(); \"unused\" }\n",
            ),
            source(
                "crates/a/tests/it.rs",
                "#[test]\nfn t() { a::entry(1).read_outside; b::b(); }\n",
            ),
        ];
        let (items, unused) = unused_pub_items(&sources);
        assert_eq!(items, 10);
        let flagged: Vec<(&str, usize, &str, &str)> = unused
            .iter()
            .map(|(file, item)| (file.as_str(), item.line, item.kind, item.name.as_str()))
            .collect();
        assert_eq!(
            flagged,
            vec![
                ("crates/a/src/lib.rs", 7, "fn", "unused"),
                ("crates/a/src/lib.rs", 10, "field", "unread"),
                ("crates/a/src/inner.rs", 1, "fn", "also_unused"),
            ]
        );
    }

    #[test]
    fn audit_pub_flags_dead_code_allows_in_library_code_only() {
        let source = |rel: &str, text: &str| (rel.to_string(), text.to_string());
        let sources = vec![
            source(
                "crates/a/src/lib.rs",
                concat!(
                    "#![allow(unused_imports)]\n",
                    "#[allow(dead_code)]\n",
                    "fn a() {}\n",
                    "#[allow(clippy::too_many_arguments, unused_variables)]\n",
                    "fn b() {}\n",
                    "#[allow(clippy::len_without_is_empty)]\n",
                    "// #[allow(dead_code)]\n",
                    "#[cfg(test)]\n",
                    "mod tests {\n",
                    "    #[allow(dead_code)]\n",
                    "    fn helper() {}\n",
                    "}\n",
                ),
            ),
            source(
                "crates/a/src/bin/tool.rs",
                "#[expect(dead_code)]\nfn c() {}\n",
            ),
            source(
                "crates/shims/rand/src/lib.rs",
                "#[allow(dead_code)]\nfn d() {}\n",
            ),
            source("crates/a/tests/it.rs", "#[allow(dead_code)]\nfn e() {}\n"),
            source("tests/it.rs", "#[allow(unused)]\nfn f() {}\n"),
        ];
        let allows = dead_code_allows(&sources);
        let found: Vec<(&str, usize)> = allows
            .iter()
            .map(|(file, line)| (file.as_str(), *line))
            .collect();
        assert_eq!(
            found,
            vec![
                ("crates/a/src/lib.rs", 1),
                ("crates/a/src/lib.rs", 2),
                ("crates/a/src/lib.rs", 4),
                ("crates/a/src/bin/tool.rs", 1),
            ]
        );
    }

    #[test]
    fn pub_items_read_kinds_names_and_signatures() {
        let text = concat!(
            "pub const LIMIT: Limit = Limit(3);\n",
            "pub struct Pair<A, B>(pub Left<A>, B);\n",
            "pub fn make(x: [u8; 4]) -> Made {\n",
            "    Inner::build(x)\n",
            "}\n",
            "pub(crate) fn narrow() {}\n",
            "pub use other::Thing;\n",
            "    pub field: path::Type,\n",
        );
        let lines: Vec<(usize, &str)> = non_test_lines(text).collect();
        let items: Vec<(usize, &str, String, String)> = pub_items(&lines)
            .into_iter()
            .map(|item| {
                let signature: Vec<String> = item.signature.into_iter().collect();
                (item.line, item.kind, item.name, signature.join(" "))
            })
            .collect();
        let item = |line, kind, name: &str, signature: &str| {
            (line, kind, name.to_string(), signature.to_string())
        };
        assert_eq!(
            items,
            vec![
                item(1, "const", "LIMIT", "LIMIT Limit const pub"),
                item(2, "struct", "Pair", "A B Left Pair pub struct"),
                item(3, "fn", "make", "Made fn make pub u8 x"),
                item(8, "field", "field", ""),
            ]
        );
    }
}
