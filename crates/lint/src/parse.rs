//! Item-level parsing on top of the masked lexer: modules, `use`
//! trees, `fn`/`impl` items, and approximate call sites.
//!
//! This is deliberately **not** a Rust parser. It runs on
//! [`MaskedFile`] output (comments and
//! literal contents blanked, positions preserved), tracks brace depth
//! and a scope stack (`mod` / `impl` / `fn`), and records, for every
//! function item, where its body starts and ends plus every
//! `path::to::callee(` / `.method(` shape inside it. That is enough to
//! build the approximate workspace call graph the reachability rules
//! R008–R010 run on (see [`crate::graph`] and [`crate::reach`]), while
//! staying zero-dependency and panic-free on arbitrary input — the
//! lint gate must survive any source the workspace can throw at it
//! (proven by the hostile-input proptests in `tests/parser_hostile.rs`).
//!
//! Known, accepted approximations: macro bodies are opaque (macro
//! invocations are never calls), nested functions attribute their
//! calls to the innermost `fn`, and trait-default bodies have no
//! `impl` owner.

use crate::lexer::{mask, MaskedFile};

/// One `name(`-shaped call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Last path segment — the callee name.
    pub name: String,
    /// Leading path segments (`cap_par::parallel_map` → `["cap_par"]`;
    /// empty for plain `helper(` calls). `Self` is already substituted
    /// with the enclosing `impl` type where known.
    pub qualifier: Vec<String>,
    /// Whether this is a `.method(` receiver call.
    pub method: bool,
    /// 1-based line of the callee name.
    pub line: usize,
    /// 1-based char column of the callee name.
    pub col: usize,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when directly inside one.
    pub owner: Option<String>,
    /// Inline `mod` path from the file root (not the file's own path).
    pub module: Vec<String>,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// 1-based char column of the `fn` name.
    pub col: usize,
    /// 1-based inclusive body line range, when the item has a body.
    pub body: Option<(usize, usize)>,
    /// Whether the item sits in a `#[cfg(test)]` / `#[test]` region.
    pub test: bool,
    /// Call sites found in the body.
    pub calls: Vec<CallSite>,
}

/// One leaf of an expanded `use` tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// The name the import binds locally (alias, last segment, or
    /// `"*"` for globs).
    pub leaf: String,
    /// The full path segments, e.g. `["cap_obs", "fsx", "atomic_write"]`.
    pub path: Vec<String>,
}

/// A parsed source file: items plus the masked views rule passes scan.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// Expanded `use` imports.
    pub uses: Vec<UseImport>,
    /// Masked per-line views (code / comments / test flags).
    pub masked: MaskedFile,
    /// Raw source lines, for violation snippets.
    pub raw: Vec<String>,
}

impl ParsedFile {
    /// Crate directory key: `crates/tensor/src/x.rs` → `"tensor"`;
    /// anything else (root `src/`, scratch fixtures) → `""` which the
    /// dependency filter treats permissively.
    pub fn crate_dir(&self) -> &str {
        crate_dir_of(&self.path)
    }

    /// Module stem the file answers to in qualified calls:
    /// `fsx.rs` → `fsx`, `lib.rs`/`mod.rs` → the parent directory name.
    pub fn file_stem(&self) -> &str {
        file_stem_of(&self.path)
    }
}

/// See [`ParsedFile::crate_dir`].
pub fn crate_dir_of(path: &str) -> &str {
    let mut segs = path.split('/');
    if segs.next() == Some("crates") {
        segs.next().unwrap_or("")
    } else {
        ""
    }
}

/// See [`ParsedFile::file_stem`].
pub fn file_stem_of(path: &str) -> &str {
    let file = path.rsplit('/').next().unwrap_or(path);
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    if stem == "lib" || stem == "mod" || stem == "main" {
        let mut segs: Vec<&str> = path.split('/').collect();
        segs.pop();
        segs.pop().unwrap_or("")
    } else {
        stem
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

/// Words that can never be callee names or path heads.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "mut", "ref", "move",
    "async", "await", "unsafe", "as", "in", "impl", "pub", "where", "break", "continue", "struct",
    "enum", "trait", "type", "use", "mod", "dyn", "box", "const", "static", "extern", "yield",
    "become", "do", "macro", "union", "true", "false",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Tokenises masked code lines into idents and single-char puncts with
/// 1-based positions.
fn tokenize(code: &[String]) -> Vec<Spanned> {
    let mut out = Vec::new();
    for (ln, line) in code.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Spanned {
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                    line: ln + 1,
                    col: start + 1,
                });
            } else {
                out.push(Spanned {
                    tok: Tok::Punct(c),
                    line: ln + 1,
                    col: i + 1,
                });
                i += 1;
            }
        }
    }
    out
}

#[derive(Debug)]
enum ScopeKind {
    Mod(String),
    Impl(Option<String>),
    Fn(usize),
    Block,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    depth: i64,
}

/// Parses one source file. Never panics, whatever the input: anything
/// the scanner cannot make sense of is skipped, not fatal — a lint
/// must degrade to "fewer items found", not take the gate down.
pub fn parse_file(path: &str, src: &str) -> ParsedFile {
    let masked = mask(src);
    let raw: Vec<String> = src.lines().map(str::to_string).collect();
    let toks = tokenize(&masked.code);
    let mut fns: Vec<FnItem> = Vec::new();
    let mut uses: Vec<UseImport> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth: i64 = 0;

    let ident_at = |i: usize| -> Option<&str> {
        match toks.get(i) {
            Some(Spanned {
                tok: Tok::Ident(s), ..
            }) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct_at = |i: usize| -> Option<char> {
        match toks.get(i) {
            Some(Spanned {
                tok: Tok::Punct(c), ..
            }) => Some(*c),
            _ => None,
        }
    };

    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                scopes.push(Scope {
                    kind: ScopeKind::Block,
                    depth,
                });
                i += 1;
            }
            Tok::Punct('}') => {
                while let Some(s) = scopes.last() {
                    if s.depth == depth {
                        if let Some(Scope {
                            kind: ScopeKind::Fn(idx),
                            ..
                        }) = scopes.pop()
                        {
                            if let Some(f) = fns.get_mut(idx) {
                                if let Some((start, _)) = f.body {
                                    f.body = Some((start, toks[i].line));
                                }
                            }
                        }
                    } else {
                        break;
                    }
                }
                depth -= 1;
                i += 1;
            }
            Tok::Punct(_) => i += 1,
            Tok::Ident(word) => match word.as_str() {
                "use" => {
                    let start = i + 1;
                    let mut j = start;
                    while j < toks.len() && punct_at(j) != Some(';') {
                        j += 1;
                    }
                    parse_use_tree(&toks[start..j], &mut uses);
                    i = j + 1;
                }
                "mod" => {
                    if let Some(name) = ident_at(i + 1) {
                        let name = name.to_string();
                        match punct_at(i + 2) {
                            Some('{') => {
                                depth += 1;
                                scopes.push(Scope {
                                    kind: ScopeKind::Mod(name),
                                    depth,
                                });
                                i += 3;
                            }
                            _ => i += 2,
                        }
                    } else {
                        i += 1;
                    }
                }
                "impl" => {
                    let (ty, next) = parse_impl_header(&toks, i + 1);
                    if punct_at(next) == Some('{') {
                        depth += 1;
                        scopes.push(Scope {
                            kind: ScopeKind::Impl(ty),
                            depth,
                        });
                        i = next + 1;
                    } else {
                        i = next.max(i + 1);
                    }
                }
                "fn" => {
                    let Some(name) = ident_at(i + 1) else {
                        i += 1;
                        continue;
                    };
                    let name_tok = &toks[i + 1];
                    let owner = scopes.iter().rev().find_map(|s| match &s.kind {
                        ScopeKind::Impl(t) => Some(t.clone()),
                        ScopeKind::Fn(_) => Some(None), // nested fn: no owner
                        _ => None,
                    });
                    let module: Vec<String> = scopes
                        .iter()
                        .filter_map(|s| match &s.kind {
                            ScopeKind::Mod(m) => Some(m.clone()),
                            _ => None,
                        })
                        .collect();
                    let test = masked
                        .test
                        .get(toks[i].line.saturating_sub(1))
                        .copied()
                        .unwrap_or(false);
                    let item = FnItem {
                        name: name.to_string(),
                        owner: owner.flatten(),
                        module,
                        line: name_tok.line,
                        col: name_tok.col,
                        body: None,
                        test,
                        calls: Vec::new(),
                    };
                    // Scan the signature for the body `{` (paren-depth
                    // 0) or a terminating `;` (trait/extern decl).
                    let mut j = i + 2;
                    let mut paren = 0i64;
                    let mut body_open = None;
                    while j < toks.len() {
                        match punct_at(j) {
                            Some('(') | Some('[') => paren += 1,
                            Some(')') | Some(']') => paren -= 1,
                            Some('{') if paren == 0 => {
                                body_open = Some(j);
                                break;
                            }
                            Some(';') if paren == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let idx = fns.len();
                    fns.push(item);
                    match body_open {
                        Some(open) => {
                            fns[idx].body = Some((toks[open].line, toks[open].line));
                            depth += 1;
                            scopes.push(Scope {
                                kind: ScopeKind::Fn(idx),
                                depth,
                            });
                            i = open + 1;
                        }
                        None => i = j + 1,
                    }
                }
                w if is_keyword(w) => i += 1,
                _ => {
                    // Possible call: collect the full `a::b::c` path.
                    let path_start = i;
                    let mut segs = vec![(word.clone(), toks[i].line, toks[i].col)];
                    let mut j = i + 1;
                    while punct_at(j) == Some(':')
                        && punct_at(j + 1) == Some(':')
                        && ident_at(j + 2).is_some()
                    {
                        // `::<` turbofish belongs to the final segment.
                        if punct_at(j + 2) == Some('<') {
                            break;
                        }
                        if let Some(s) = ident_at(j + 2) {
                            segs.push((s.to_string(), toks[j + 2].line, toks[j + 2].col));
                        }
                        j += 3;
                    }
                    // Optional turbofish between name and `(`.
                    let mut k = j;
                    if punct_at(k) == Some(':') && punct_at(k + 1) == Some(':') {
                        if punct_at(k + 2) == Some('<') {
                            k = skip_angles(&toks, k + 2);
                        } else {
                            // `path::` followed by non-ident (e.g. `*`):
                            // not a call.
                            i = j;
                            continue;
                        }
                    }
                    if punct_at(k) == Some('!') {
                        // Macro invocation: opaque.
                        i = k + 1;
                        continue;
                    }
                    if punct_at(k) == Some('(') {
                        let method = path_start > 0
                            && matches!(toks[path_start - 1].tok, Tok::Punct('.'))
                            && segs.len() == 1;
                        let last = segs.len() - 1;
                        let (name, line, col) = segs[last].clone();
                        if !is_keyword(&name) {
                            let mut qualifier: Vec<String> =
                                segs[..last].iter().map(|(s, _, _)| s.clone()).collect();
                            // Substitute `Self` with the impl type.
                            if qualifier.first().map(String::as_str) == Some("Self") {
                                let impl_ty = scopes.iter().rev().find_map(|s| match &s.kind {
                                    ScopeKind::Impl(t) => Some(t.clone()),
                                    _ => None,
                                });
                                if let Some(Some(t)) = impl_ty {
                                    qualifier[0] = t;
                                }
                            }
                            if let Some(fn_idx) = scopes.iter().rev().find_map(|s| match s.kind {
                                ScopeKind::Fn(idx) => Some(idx),
                                _ => None,
                            }) {
                                if let Some(f) = fns.get_mut(fn_idx) {
                                    f.calls.push(CallSite {
                                        name,
                                        qualifier,
                                        method,
                                        line,
                                        col,
                                    });
                                }
                            }
                        }
                        i = k + 1;
                    } else {
                        i = j.max(i + 1);
                    }
                }
            },
        }
    }

    // Close any fn bodies left open by truncated input.
    let last_line = masked.code.len();
    for f in &mut fns {
        if let Some((start, end)) = f.body {
            if end < start {
                f.body = Some((start, last_line.max(start)));
            }
        }
    }

    ParsedFile {
        path: path.to_string(),
        fns,
        uses,
        masked,
        raw,
    }
}

/// Skips a balanced `<...>` group starting at the `<` token index;
/// returns the index just past the matching `>`. `->` arrows inside do
/// not close the group.
fn punct(toks: &[Spanned], i: usize) -> Option<char> {
    match toks.get(i) {
        Some(Spanned {
            tok: Tok::Punct(c), ..
        }) => Some(*c),
        _ => None,
    }
}

fn skip_angles(toks: &[Spanned], open: usize) -> usize {
    let mut j = open;
    let mut angle = 0i64;
    while j < toks.len() {
        match punct(toks, j) {
            Some('<') => angle += 1,
            Some('>') if punct(toks, j.wrapping_sub(1)) != Some('-') => {
                angle -= 1;
                if angle <= 0 {
                    return j + 1;
                }
            }
            Some(';') | Some('{') => return j, // malformed: bail out
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parses an `impl` header from just after the `impl` keyword; returns
/// the self-type's last path segment (when found) and the index of the
/// body `{` (or wherever scanning stopped).
fn parse_impl_header(toks: &[Spanned], mut i: usize) -> (Option<String>, usize) {
    // Skip `impl<...>` generics.
    if punct(toks, i) == Some('<') {
        i = skip_angles(toks, i);
    }
    let mut ty: Option<String> = None;
    let mut angle = 0i64;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') if angle == 0 => return (ty, i),
            Tok::Punct(';') => return (ty, i),
            Tok::Punct('<') => {
                angle += 1;
                i += 1;
            }
            Tok::Punct('>') => {
                if punct(toks, i.wrapping_sub(1)) != Some('-') {
                    angle -= 1;
                }
                i += 1;
            }
            Tok::Ident(w) if w == "for" && angle == 0 => {
                // Everything before `for` was the trait; restart.
                ty = None;
                i += 1;
            }
            Tok::Ident(w) if w == "where" && angle == 0 => {
                // Type is complete; scan on to the `{`.
                i += 1;
            }
            Tok::Ident(w) if angle == 0 && !is_keyword(w) => {
                ty = Some(w.clone());
                i += 1;
            }
            _ => i += 1,
        }
    }
    (ty, i)
}

/// Expands a `use` tree token slice into leaf imports. Handles
/// `a::b::c`, `as` aliases, `{...}` groups (nested), and `*` globs.
fn parse_use_tree(toks: &[Spanned], out: &mut Vec<UseImport>) {
    expand_use(toks, &mut Vec::new(), out, 0);
}

/// Recursion depth bound: hostile input can nest `{` arbitrarily.
const MAX_USE_DEPTH: usize = 32;

fn expand_use(toks: &[Spanned], prefix: &mut Vec<String>, out: &mut Vec<UseImport>, depth: usize) {
    if depth > MAX_USE_DEPTH {
        return;
    }
    // Split the slice on top-level commas, expanding each element.
    let mut start = 0usize;
    let mut brace = 0i64;
    let mut i = 0usize;
    while i <= toks.len() {
        let at_comma = i < toks.len() && matches!(toks[i].tok, Tok::Punct(',')) && brace == 0;
        if i == toks.len() || at_comma {
            expand_use_element(&toks[start..i], prefix, out, depth);
            start = i + 1;
        } else if let Tok::Punct(c) = toks[i].tok {
            if c == '{' {
                brace += 1;
            } else if c == '}' {
                brace -= 1;
            }
        }
        i += 1;
    }
}

fn expand_use_element(
    toks: &[Spanned],
    prefix: &mut Vec<String>,
    out: &mut Vec<UseImport>,
    depth: usize,
) {
    let mut segs: Vec<String> = Vec::new();
    let mut i = 0usize;
    let mut alias: Option<String> = None;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(w) if w == "as" => {
                if let Some(Spanned {
                    tok: Tok::Ident(a), ..
                }) = toks.get(i + 1)
                {
                    alias = Some(a.clone());
                }
                i += 2;
            }
            Tok::Ident(w) => {
                segs.push(w.clone());
                i += 1;
            }
            Tok::Punct('{') => {
                // Find the matching close; recurse with the built prefix.
                let mut brace = 1i64;
                let mut j = i + 1;
                while j < toks.len() && brace > 0 {
                    if let Tok::Punct(c) = toks[j].tok {
                        if c == '{' {
                            brace += 1;
                        } else if c == '}' {
                            brace -= 1;
                        }
                    }
                    j += 1;
                }
                let inner_end = j.saturating_sub(1);
                let added = segs.len();
                prefix.extend(segs.iter().cloned());
                expand_use(&toks[i + 1..inner_end.max(i + 1)], prefix, out, depth + 1);
                prefix.truncate(prefix.len() - added);
                return;
            }
            Tok::Punct('*') => {
                let mut path = prefix.clone();
                path.extend(segs.iter().cloned());
                out.push(UseImport {
                    leaf: "*".to_string(),
                    path,
                });
                return;
            }
            _ => i += 1,
        }
    }
    if segs.is_empty() {
        return;
    }
    let mut path = prefix.clone();
    path.extend(segs.iter().cloned());
    let leaf = alias.unwrap_or_else(|| segs[segs.len() - 1].clone());
    out.push(UseImport { leaf, path });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(p: &ParsedFile) -> Vec<(&str, Option<&str>)> {
        p.fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect()
    }

    #[test]
    fn fns_mods_and_impls_are_extracted() {
        let src = "\
pub fn top() { helper(); }
fn helper() {}
mod inner {
    pub fn nested_fn() {}
}
struct T;
impl T {
    pub fn method(&self) { Self::assoc(); }
    fn assoc() {}
}
impl std::fmt::Display for T {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
";
        let p = parse_file("crates/x/src/lib.rs", src);
        assert_eq!(
            names(&p),
            vec![
                ("top", None),
                ("helper", None),
                ("nested_fn", None),
                ("method", Some("T")),
                ("assoc", Some("T")),
                ("fmt", Some("T")),
            ]
        );
        assert_eq!(p.fns[2].module, vec!["inner".to_string()]);
        // `Self::assoc()` resolves its qualifier to the impl type.
        assert_eq!(p.fns[3].calls.len(), 1);
        assert_eq!(p.fns[3].calls[0].qualifier, vec!["T".to_string()]);
        assert_eq!(p.fns[3].calls[0].name, "assoc");
    }

    #[test]
    fn body_line_ranges_cover_the_braces() {
        let src = "fn a() {\n    work();\n}\nfn b() {}\n";
        let p = parse_file("crates/x/src/lib.rs", src);
        assert_eq!(p.fns[0].body, Some((1, 3)));
        assert_eq!(p.fns[1].body, Some((4, 4)));
    }

    #[test]
    fn calls_capture_qualifiers_methods_and_skip_macros() {
        let src = "\
fn f(v: &mut Vec<u32>) {
    helper();
    cap_par::parallel_map(4, |i| i);
    v.push(1);
    println!(\"not a call\");
    let x: Vec<u32> = v.iter().copied().collect::<Vec<u32>>();
    if x.len() > 1 { helper(); }
}
";
        let p = parse_file("crates/x/src/lib.rs", src);
        let calls = &p.fns[0].calls;
        let brief: Vec<(String, bool)> = calls.iter().map(|c| (c.name.clone(), c.method)).collect();
        assert!(brief.contains(&("helper".to_string(), false)));
        assert!(brief.contains(&("parallel_map".to_string(), false)));
        assert!(brief.contains(&("push".to_string(), true)));
        assert!(brief.contains(&("collect".to_string(), true)));
        assert!(!brief.iter().any(|(n, _)| n == "println"));
        let pm = calls.iter().find(|c| c.name == "parallel_map").unwrap();
        assert_eq!(pm.qualifier, vec!["cap_par".to_string()]);
    }

    #[test]
    fn use_trees_expand_groups_aliases_and_globs() {
        let src = "\
use cap_obs::fsx::atomic_write;
use cap_obs::{clock, fsx::AppendFile as Af};
use std::collections::*;
fn f() {}
";
        let p = parse_file("crates/x/src/lib.rs", src);
        let find = |leaf: &str| p.uses.iter().find(|u| u.leaf == leaf).cloned();
        assert_eq!(
            find("atomic_write").unwrap().path,
            vec!["cap_obs", "fsx", "atomic_write"]
        );
        assert_eq!(find("clock").unwrap().path, vec!["cap_obs", "clock"]);
        assert_eq!(
            find("Af").unwrap().path,
            vec!["cap_obs", "fsx", "AppendFile"]
        );
        assert_eq!(find("*").unwrap().path, vec!["std", "collections"]);
    }

    #[test]
    fn test_regions_mark_fns() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let p = parse_file("crates/x/src/lib.rs", src);
        assert!(!p.fns[0].test);
        assert!(p.fns[1].test);
    }

    #[test]
    fn crate_dir_and_file_stem_derivation() {
        assert_eq!(crate_dir_of("crates/tensor/src/matmul.rs"), "tensor");
        assert_eq!(crate_dir_of("src/lib.rs"), "");
        assert_eq!(file_stem_of("crates/obs/src/fsx.rs"), "fsx");
        assert_eq!(file_stem_of("crates/obs/src/lib.rs"), "src");
        assert_eq!(file_stem_of("crates/nn/src/layer/conv.rs"), "conv");
    }

    #[test]
    fn truncated_and_garbage_input_never_panics() {
        for src in [
            "fn f(",
            "fn",
            "impl",
            "use a::{b, c",
            "fn f() { g(",
            "mod m { fn x() {",
            "}}}}",
            "fn f() -> Vec<",
            "impl<T> X<T> for",
        ] {
            let _ = parse_file("crates/x/src/lib.rs", src);
        }
    }
}
