//! `dlb-tidy`: a dependency-free, source-level lint for this
//! workspace's concurrency and robustness invariants.
//!
//! `cargo clippy` checks general Rust hygiene; this tool checks the
//! *repo-specific* contracts that keep the model-checking story sound:
//!
//! * **sync-facade** — `crates/core` must reach every synchronisation
//!   primitive through the `dlb_core::sync` facade, never `std::sync`
//!   or `std::thread` directly. One un-facaded `Mutex` is a blind spot
//!   the model checker cannot schedule around.
//! * **atomic-ordering** — every atomic access in `crates/core` names
//!   its `Ordering` *and* carries a justifying comment (same line or
//!   the three lines above) saying which Release/Acquire pair it
//!   belongs to. Orderings without written pairings rot into cargo-cult
//!   `SeqCst`.
//! * **unwrap** — no `.unwrap()` in non-test library code anywhere in
//!   `crates/*/src`; library errors must flow through `Result` (the
//!   engine's whole error-ordering contract depends on it).
//! * **kernel-assert** — the fused kernels (everything under
//!   `crates/core/src/kernel/` and the per-node kernels in
//!   `crates/core/src/schemes/`) use `debug_assert!` in hot paths; a
//!   release-mode `assert!` there needs an allowlist entry arguing it
//!   is outside the per-node loop.
//! * **vector-safety** — the SIMD-shaped vector module
//!   (`crates/core/src/kernel/vector.rs`) stays safe Rust: no `unsafe`
//!   at all (the crate-level `forbid` could be shadowed by a future
//!   attribute edit; this lint is the belt to that suspender), and
//!   every `#[allow(...)]` carries a justifying comment — the module
//!   exists to prove the autovectorizer needs no unsafety, so silent
//!   lint waivers defeat its purpose.
//! * **unsafe-code** — every `unsafe` block, `unsafe fn` or
//!   `unsafe impl` in library code (`crates/*/src`) needs an allowlist
//!   entry arguing why safe Rust will not do: the crates `deny` the
//!   keyword, and this lint keeps each `#[allow]` of it visible in one
//!   reviewed file.
//! * **metric-registry** — counters flow through `dlb-obs`, not past
//!   it: a raw `AtomicU64`/`AtomicI64` counter or an ad-hoc
//!   `struct …Stats` in library code (anywhere under `crates/*/src`
//!   except `crates/obs` itself) must carry a nearby comment naming
//!   `MetricRegistry` — stating how the numbers reach the registry —
//!   or an allowlist entry arguing why they never should. Without the
//!   lint, every new subsystem grows its own counter struct and the
//!   unified registry silently stops being unified.
//! * **pre-round** — one module owns a round's dynamics and rollback:
//!   outside `#[cfg(test)]`, only `crates/core/src/round.rs` may call
//!   `drive_events`, `undo_events`, `handoff_deltas` or the workload's
//!   `inject` anywhere in `crates/core/src`. The kernel's round loop
//!   calls that module instead, so the
//!   mutate → inject → handoff → negative-check → rollback sequence
//!   cannot drift back into two copies.
//! * **flow-body** — one round drives a scheme's rule: outside
//!   `#[cfg(test)]`, only `crates/core/src/kernel/mod.rs` may call
//!   `kernel_node` or `begin_round` anywhere in `crates/core/src`.
//!   Every path that applies a scheme's flows — reference, monitored
//!   and kernel rounds alike — runs the kernel's flow-buffer round, so
//!   a second loop over the rule cannot grow back beside it.
//!
//! Test regions (`#[cfg(test)]` modules) and comments are masked out
//! before linting, so tests may unwrap and assert freely. The masking
//! is a line-level heuristic (string-aware comment stripping, brace
//! counting for module extents), which is exactly as strong as this
//! codebase's conventional layout needs — it is a tidy check, not a
//! parser.
//!
//! Deliberate exceptions live in `tools/tidy/allowlist.txt`, one per
//! line: `<class> <path> <substring>`, where `<substring>` must occur
//! in the offending line. Entries that stop matching anything are
//! themselves reported (`stale-allow`), so the file cannot accumulate
//! dead grants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintClass {
    /// Direct `std::sync`/`std::thread` use in `crates/core` outside
    /// the facade module.
    SyncFacade,
    /// Atomic access without a justifying ordering comment.
    AtomicOrdering,
    /// `.unwrap()` in non-test library code.
    Unwrap,
    /// Release-mode `assert!` in kernel code.
    KernelAssert,
    /// `unsafe` or an unjustified `#[allow]` in the vector module.
    VectorSafety,
    /// The `unsafe` keyword anywhere in library code.
    UnsafeCode,
    /// Raw atomic counter or ad-hoc stats struct bypassing the
    /// `dlb-obs` metric registry.
    MetricRegistry,
    /// A pre-round primitive called outside the pre-round module.
    PreRound,
    /// A scheme's per-node rule or per-round hook called outside the
    /// kernel module.
    FlowBody,
    /// Allowlist entry that no longer matches anything.
    StaleAllow,
}

impl LintClass {
    /// The class name used in reports and in the allowlist file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintClass::SyncFacade => "sync-facade",
            LintClass::AtomicOrdering => "atomic-ordering",
            LintClass::Unwrap => "unwrap",
            LintClass::KernelAssert => "kernel-assert",
            LintClass::VectorSafety => "vector-safety",
            LintClass::UnsafeCode => "unsafe-code",
            LintClass::MetricRegistry => "metric-registry",
            LintClass::PreRound => "pre-round",
            LintClass::FlowBody => "flow-body",
            LintClass::StaleAllow => "stale-allow",
        }
    }

    fn from_name(name: &str) -> Option<LintClass> {
        match name {
            "sync-facade" => Some(LintClass::SyncFacade),
            "atomic-ordering" => Some(LintClass::AtomicOrdering),
            "unwrap" => Some(LintClass::Unwrap),
            "kernel-assert" => Some(LintClass::KernelAssert),
            "vector-safety" => Some(LintClass::VectorSafety),
            "unsafe-code" => Some(LintClass::UnsafeCode),
            "metric-registry" => Some(LintClass::MetricRegistry),
            "pre-round" => Some(LintClass::PreRound),
            "flow-body" => Some(LintClass::FlowBody),
            _ => None,
        }
    }
}

/// One broken invariant at one source line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which lint fired.
    pub class: LintClass,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// What went wrong, with the offending excerpt.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.class.name(),
            self.message
        )
    }
}

/// Strips comments from one line, tracking whether a `/* */` block
/// comment is open across lines. String literals are honoured so a
/// `//` inside one does not truncate the line.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    let mut in_string = false;
    while i < bytes.len() {
        if *in_block {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        let c = bytes[i];
        if in_string {
            // String bodies are dropped from the mask: literal text
            // must not look like code to any lint (or to the brace
            // counter).
            if c == b'\\' {
                i += 2;
                continue;
            }
            if c == b'"' {
                in_string = false;
                out.push('"');
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                in_string = true;
                out.push('"');
                i += 1;
            }
            // A double-quote *character literal* would otherwise open a
            // phantom string.
            b'\'' if i + 2 < bytes.len() && bytes[i + 1] == b'"' && bytes[i + 2] == b'\'' => {
                out.push_str("'\"'");
                i += 3;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block = true;
                i += 2;
            }
            _ => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Masks a source file for linting: comments stripped everywhere, and
/// every line belonging to a `#[cfg(test)]` item blanked. Returns one
/// entry per input line.
#[must_use]
pub fn mask_source(source: &str) -> Vec<String> {
    let mut in_block = false;
    let mut masked: Vec<String> = source
        .lines()
        .map(|l| strip_comments(l, &mut in_block))
        .collect();

    let mut i = 0;
    while i < masked.len() {
        if masked[i].contains("#[cfg(test)]") || masked[i].contains("#[cfg(all(test") {
            // Blank from the attribute through the end of the item it
            // gates: brace-count the item body, or stop at a `;` that
            // arrives before any brace (brace-less items).
            let start = i;
            let mut depth = 0usize;
            let mut opened = false;
            let mut end = masked.len() - 1;
            for (j, line) in masked.iter().enumerate().skip(start) {
                for b in line.bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                if opened && depth == 0 {
                    end = j;
                    break;
                }
                if !opened && line.contains(';') {
                    end = j;
                    break;
                }
            }
            for line in masked.iter_mut().take(end + 1).skip(start) {
                line.clear();
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    masked
}

fn excerpt(line: &str) -> String {
    let t = line.trim();
    let mut cut = t.len().min(90);
    while !t.is_char_boundary(cut) {
        cut -= 1;
    }
    if cut < t.len() {
        format!("{}…", &t[..cut])
    } else {
        t.to_string()
    }
}

/// Whether the raw line at `idx` carries a justifying comment: a
/// trailing `//` on the line itself, or a comment line within the
/// three lines above.
fn has_nearby_comment(raw: &[&str], idx: usize) -> bool {
    if raw[idx].contains("//") {
        return true;
    }
    raw[..idx]
        .iter()
        .rev()
        .take(3)
        .any(|l| l.trim_start().starts_with("//"))
}

/// Whether the raw line at `idx` (or one of the three lines above it)
/// carries a comment naming `needle` — the marker discipline the
/// metric-registry lint enforces.
fn has_nearby_marker(raw: &[&str], idx: usize, needle: &str) -> bool {
    if let Some(pos) = raw[idx].find("//") {
        if raw[idx][pos..].contains(needle) {
            return true;
        }
    }
    raw[..idx]
        .iter()
        .rev()
        .take(3)
        .any(|l| l.trim_start().starts_with("//") && l.contains(needle))
}

/// Whether the masked line uses the `unsafe` keyword (not merely a
/// longer identifier such as `unsafe_code`).
fn uses_unsafe_keyword(line: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices("unsafe").any(|(pos, word)| {
        let before = line[..pos].chars().next_back();
        let after = line[pos + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// Whether the masked line declares an ad-hoc statistics struct: a
/// `struct` whose name ends in `Stats`.
fn declares_stats_struct(line: &str) -> bool {
    line.match_indices("struct ").any(|(pos, _)| {
        let rest = &line[pos + "struct ".len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        name.ends_with("Stats")
    })
}

/// The primitives of a round's dynamics and rollback, which only the
/// pre-round module may call.
const PRE_ROUND_PRIMITIVES: [&str; 4] = ["drive_events", "undo_events", "handoff_deltas", "inject"];

/// The one file in `crates/core/src` allowed to call them.
const PRE_ROUND_MODULE: &str = "crates/core/src/round.rs";

/// A scheme's per-node rule and per-round hook, which only the flow
/// body may call.
const FLOW_BODY_CALLS: [&str; 2] = ["kernel_node", "begin_round"];

/// The one file in `crates/core/src` allowed to call them.
const FLOW_BODY_MODULE: &str = "crates/core/src/kernel/mod.rs";

/// Whether the masked line names `ident` as a whole identifier other
/// than in its own `fn` definition (a trait's default method body is
/// a definition, not a call).
fn uses_ident(line: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(ident).any(|(pos, word)| {
        let before = &line[..pos];
        let after = line[pos + word.len()..].chars().next();
        !before.chars().next_back().is_some_and(is_ident)
            && !after.is_some_and(is_ident)
            && !before.trim_end().ends_with("fn")
    })
}

const ATOMIC_OPS: [&str; 6] = [
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_",
    ".compare_exchange",
    ".compare_and_swap",
];

/// Lints one file's source. `rel` is the repo-relative path (forward
/// slashes), which decides which lint classes apply.
#[must_use]
pub fn lint_source(rel: &str, source: &str) -> Vec<Violation> {
    let masked = mask_source(source);
    let raw: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();

    let in_core = rel.starts_with("crates/core/src/");
    let is_facade = rel == "crates/core/src/sync.rs";
    let is_kernel =
        rel.starts_with("crates/core/src/kernel") || rel.starts_with("crates/core/src/schemes/");
    let is_vector = rel == "crates/core/src/kernel/vector.rs";
    // The registry implementation itself is exempt; everyone else's
    // counters must flow into it.
    let metric_scope = rel.starts_with("crates/") && !rel.starts_with("crates/obs/");

    for (i, line) in masked.iter().enumerate() {
        let lineno = i + 1;

        if in_core && !is_facade && (line.contains("std::sync") || line.contains("std::thread")) {
            out.push(Violation {
                class: LintClass::SyncFacade,
                file: rel.to_string(),
                line: lineno,
                message: format!(
                    "use crate::sync, not std, so the model checker sees this \
                     synchronisation: `{}`",
                    excerpt(raw[i])
                ),
            });
        }

        if in_core
            && line.contains("Ordering::")
            && ATOMIC_OPS.iter().any(|op| line.contains(op))
            && !has_nearby_comment(&raw, i)
        {
            out.push(Violation {
                class: LintClass::AtomicOrdering,
                file: rel.to_string(),
                line: lineno,
                message: format!(
                    "atomic access needs a justifying ordering comment (same line \
                     or the 3 lines above): `{}`",
                    excerpt(raw[i])
                ),
            });
        }

        if line.contains(".unwrap()") {
            out.push(Violation {
                class: LintClass::Unwrap,
                file: rel.to_string(),
                line: lineno,
                message: format!(
                    "no unwrap() in library code — return the error or use \
                     expect with an invariant message: `{}`",
                    excerpt(raw[i])
                ),
            });
        }

        if is_kernel {
            let fired = ["assert!(", "assert_eq!(", "assert_ne!("].iter().any(|m| {
                line.match_indices(m)
                    .any(|(pos, _)| !line[..pos].ends_with("debug_"))
            });
            if fired {
                out.push(Violation {
                    class: LintClass::KernelAssert,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "kernel code pays for assert! in release builds — use \
                         debug_assert! or allowlist with a hot-path argument: `{}`",
                        excerpt(raw[i])
                    ),
                });
            }
        }

        if metric_scope {
            let raw_atomic_counter = line.contains("AtomicU64") || line.contains("AtomicI64");
            if (raw_atomic_counter || declares_stats_struct(line))
                && !has_nearby_marker(&raw, i, "MetricRegistry")
            {
                out.push(Violation {
                    class: LintClass::MetricRegistry,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "counters belong in the dlb-obs MetricRegistry — add a \
                         nearby comment naming MetricRegistry that says how these \
                         numbers reach it (or allowlist with an argument): `{}`",
                        excerpt(raw[i])
                    ),
                });
            }
        }

        if in_core && rel != PRE_ROUND_MODULE {
            if let Some(name) = PRE_ROUND_PRIMITIVES
                .iter()
                .find(|name| uses_ident(line, name))
            {
                out.push(Violation {
                    class: LintClass::PreRound,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`{name}` belongs to the pre-round — call \
                         {PRE_ROUND_MODULE} instead of re-implementing a \
                         round's dynamics or rollback: `{}`",
                        excerpt(raw[i])
                    ),
                });
            }
        }

        if in_core && rel != FLOW_BODY_MODULE {
            if let Some(name) = FLOW_BODY_CALLS.iter().find(|name| uses_ident(line, name)) {
                out.push(Violation {
                    class: LintClass::FlowBody,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`{name}` belongs to the flow body — run the round \
                         through {FLOW_BODY_MODULE} instead of looping over a \
                         scheme's rule a second time: `{}`",
                        excerpt(raw[i])
                    ),
                });
            }
        }

        if rel.starts_with("crates/") && uses_unsafe_keyword(line) {
            out.push(Violation {
                class: LintClass::UnsafeCode,
                file: rel.to_string(),
                line: lineno,
                message: format!(
                    "`unsafe` needs an allowlist entry arguing why safe Rust \
                     will not do: `{}`",
                    excerpt(raw[i])
                ),
            });
        }

        if is_vector {
            if line.contains("unsafe") {
                out.push(Violation {
                    class: LintClass::VectorSafety,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "the vector module proves the autovectorizer needs no \
                         unsafety — keep it safe Rust: `{}`",
                        excerpt(raw[i])
                    ),
                });
            }
            if line.contains("#[allow(") && !has_nearby_comment(&raw, i) {
                out.push(Violation {
                    class: LintClass::VectorSafety,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "#[allow] in the vector module needs a justifying comment \
                         (same line or the 3 lines above): `{}`",
                        excerpt(raw[i])
                    ),
                });
            }
        }
    }
    out
}

struct AllowEntry {
    class: LintClass,
    file: String,
    needle: String,
    line_in_allowlist: usize,
    used: bool,
}

fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.splitn(3, ' ');
        let (class, file, needle) = match (parts.next(), parts.next(), parts.next()) {
            (Some(c), Some(f), Some(n)) => (c, f, n),
            _ => {
                return Err(format!(
                    "allowlist line {}: expected `<class> <path> <substring>`, got `{t}`",
                    i + 1
                ))
            }
        };
        let class = LintClass::from_name(class)
            .ok_or_else(|| format!("allowlist line {}: unknown lint class `{class}`", i + 1))?;
        entries.push(AllowEntry {
            class,
            file: file.to_string(),
            needle: needle.to_string(),
            line_in_allowlist: i + 1,
            used: false,
        });
    }
    Ok(entries)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every library source under `root/crates/*/src`, applies the
/// allowlist at `root/tools/tidy/allowlist.txt` (if present), and
/// returns the surviving violations plus the number of files scanned.
///
/// # Errors
///
/// I/O failures reading the tree, or an unparseable allowlist.
pub fn lint_tree(root: &Path) -> Result<(Vec<Violation>, usize), String> {
    let allow_path = root.join("tools/tidy/allowlist.txt");
    let mut allow = match fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", allow_path.display())),
    };

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for dir in &crate_dirs {
        walk(&dir.join("src"), &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        scanned += 1;
        let lines: Vec<&str> = source.lines().collect();
        'violation: for v in lint_source(&rel, &source) {
            // Multi-line statements fire on their first line; let the
            // allowlist needle match anywhere in a short window so it
            // can quote the distinctive part (the condition), not the
            // bare macro name.
            let start = v.line.saturating_sub(1);
            let offending = lines[start..lines.len().min(start + 3)].join("\n");
            for entry in &mut allow {
                if entry.class == v.class && entry.file == rel && offending.contains(&entry.needle)
                {
                    entry.used = true;
                    continue 'violation;
                }
            }
            violations.push(v);
        }
    }

    for entry in &allow {
        if !entry.used {
            violations.push(Violation {
                class: LintClass::StaleAllow,
                file: "tools/tidy/allowlist.txt".to_string(),
                line: entry.line_in_allowlist,
                message: format!(
                    "entry matches nothing — remove it ({} {} {})",
                    entry.class.name(),
                    entry.file,
                    entry.needle
                ),
            });
        }
    }

    Ok((violations, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(violations: &[Violation]) -> Vec<LintClass> {
        violations.iter().map(|v| v.class).collect()
    }

    #[test]
    fn facade_lint_fires_on_std_sync_in_core_and_nowhere_else() {
        let bad = "use std::sync::Mutex;\nfn f() { let _ = std::thread::spawn(|| ()); }\n";
        let v = lint_source("crates/core/src/parallel.rs", bad);
        assert_eq!(
            classes(&v),
            vec![LintClass::SyncFacade, LintClass::SyncFacade]
        );
        assert!(lint_source("crates/core/src/sync.rs", bad).is_empty());
        assert!(lint_source("crates/graph/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn ordering_lint_wants_a_nearby_comment() {
        let bare = "fn f(a: &AtomicBool) -> bool { a.load(Ordering::Acquire) }\n";
        let v = lint_source("crates/core/src/parallel.rs", bare);
        assert_eq!(classes(&v), vec![LintClass::AtomicOrdering]);

        let same_line =
            "fn f(a: &AtomicBool) -> bool { a.load(Ordering::Acquire) } // pairs with X\n";
        assert!(lint_source("crates/core/src/parallel.rs", same_line).is_empty());

        let above = "// Acquire: pairs with the Release store in g.\n\
                     fn f(a: &AtomicBool) -> bool { a.load(Ordering::Acquire) }\n";
        assert!(lint_source("crates/core/src/parallel.rs", above).is_empty());

        let too_far = "// Acquire: pairs with the Release store in g.\n\n\n\n\
                       fn f(a: &AtomicBool) -> bool { a.load(Ordering::Acquire) }\n";
        assert_eq!(
            classes(&lint_source("crates/core/src/parallel.rs", too_far)),
            vec![LintClass::AtomicOrdering]
        );
    }

    #[test]
    fn unwrap_lint_skips_tests_comments_and_strings() {
        let bad = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            classes(&lint_source("crates/graph/src/lib.rs", bad)),
            vec![LintClass::Unwrap]
        );

        let in_test = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/graph/src/lib.rs", in_test).is_empty());

        let in_comment = "/// let y = x.unwrap();\nfn f() {}\n// x.unwrap()\n";
        assert!(lint_source("crates/graph/src/lib.rs", in_comment).is_empty());

        let in_string = "fn f() -> &'static str { \"call .unwrap() at home\" }\n";
        assert!(lint_source("crates/graph/src/lib.rs", in_string).is_empty());
    }

    #[test]
    fn kernel_assert_lint_allows_debug_assert() {
        let bad = "fn kernel() { assert!(x > 0, \"hot\"); }\n";
        assert_eq!(
            classes(&lint_source("crates/core/src/kernel.rs", bad)),
            vec![LintClass::KernelAssert]
        );
        assert_eq!(
            classes(&lint_source("crates/core/src/schemes/send.rs", bad)),
            vec![LintClass::KernelAssert]
        );
        // Same text outside kernel scope: fine.
        assert!(lint_source("crates/core/src/flow.rs", bad).is_empty());

        let good = "fn kernel() { debug_assert!(x > 0); debug_assert_eq!(a, b); }\n";
        assert!(lint_source("crates/core/src/kernel.rs", good).is_empty());
    }

    #[test]
    fn kernel_assert_lint_covers_the_kernel_directory() {
        let bad = "fn kernel() { assert!(x > 0, \"hot\"); }\n";
        assert_eq!(
            classes(&lint_source("crates/core/src/kernel/mod.rs", bad)),
            vec![LintClass::KernelAssert]
        );
        assert_eq!(
            classes(&lint_source("crates/core/src/kernel/vector.rs", bad)),
            vec![LintClass::KernelAssert]
        );
    }

    #[test]
    fn vector_safety_lint_rejects_unsafe_and_bare_allow() {
        let unsafe_code = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        let v = lint_source("crates/core/src/kernel/vector.rs", unsafe_code);
        assert!(v.iter().any(|v| v.class == LintClass::VectorSafety));
        // Same text elsewhere: not this lint's business.
        assert!(lint_source("crates/core/src/kernel/mod.rs", unsafe_code)
            .iter()
            .all(|v| v.class != LintClass::VectorSafety));

        let bare_allow = "#[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        let v = lint_source("crates/core/src/kernel/vector.rs", bare_allow);
        assert_eq!(classes(&v), vec![LintClass::VectorSafety]);

        let justified = "// The round loop threads six buffers by design.\n\
                         #[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        assert!(lint_source("crates/core/src/kernel/vector.rs", justified).is_empty());

        // `unsafe` in a comment or string is masked out.
        let masked = "// unsafe would be faster but wrong\n\
                      fn f() -> &'static str { \"no unsafe here\" }\n";
        assert!(lint_source("crates/core/src/kernel/vector.rs", masked).is_empty());
    }

    #[test]
    fn unsafe_code_lint_fires_on_the_keyword_only() {
        let block = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(
            classes(&lint_source("crates/core/src/parallel.rs", block)),
            vec![LintClass::UnsafeCode]
        );
        let imp = "unsafe impl Sync for S {}\n";
        assert_eq!(
            classes(&lint_source("crates/serve/src/server.rs", imp)),
            vec![LintClass::UnsafeCode]
        );
        // The lint attribute names, comments and strings are not uses.
        let allowed = "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\n\
                       // unsafe would be faster\nfn f() -> &'static str { \"unsafe\" }\n";
        assert!(lint_source("crates/core/src/lib.rs", allowed).is_empty());
    }

    #[test]
    fn metric_registry_lint_wants_counters_routed_through_the_registry() {
        // Seeded violations: a raw atomic counter and an ad-hoc stats
        // struct, no marker comment.
        let atomic = "static HITS: AtomicU64 = AtomicU64::new(0);\n";
        assert_eq!(
            classes(&lint_source("crates/serve/src/server.rs", atomic)),
            vec![LintClass::MetricRegistry]
        );
        let stats = "pub struct FrobStats {\n    pub count: u64,\n}\n";
        assert_eq!(
            classes(&lint_source("crates/core/src/frob.rs", stats)),
            vec![LintClass::MetricRegistry]
        );

        // A marker comment naming MetricRegistry (same line or the
        // three lines above) satisfies the discipline.
        let marked = "// Exported into the MetricRegistry by fill_metrics.\n\
                      pub struct FrobStats {\n    pub count: u64,\n}\n";
        assert!(lint_source("crates/core/src/frob.rs", marked).is_empty());
        let same_line =
            "static HITS: AtomicU64 = AtomicU64::new(0); // mirrored into MetricRegistry\n";
        assert!(lint_source("crates/serve/src/server.rs", same_line).is_empty());

        // A comment that does not name the registry is not a marker.
        let vague = "// counts the hits\nstatic HITS: AtomicU64 = AtomicU64::new(0);\n";
        assert_eq!(
            classes(&lint_source("crates/serve/src/server.rs", vague)),
            vec![LintClass::MetricRegistry]
        );

        // The registry crate itself is exempt, as is non-crate code.
        assert!(lint_source("crates/obs/src/registry.rs", atomic).is_empty());
        assert!(lint_source("tools/tidy/src/lib.rs", stats).is_empty());

        // Struct names not ending in Stats are not this lint's
        // business, and test regions are masked.
        let other = "pub struct Statistics { x: u64 }\npub struct StatsRow { y: u64 }\n";
        assert!(lint_source("crates/core/src/frob.rs", other).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    struct TinyStats { n: u64 }\n}\n";
        assert!(lint_source("crates/core/src/frob.rs", in_test).is_empty());
    }

    #[test]
    fn pre_round_lint_keeps_dynamics_in_one_module() {
        // Seeded violations: a round driver outside the pre-round
        // module reaching for each primitive.
        let calls = [
            "fn f() { topology::drive_events(s, 1, g, a, b).ok(); }\n",
            "fn f() { topology::undo_events(g, &applied); }\n",
            "fn f() { mutate::handoff_deltas(g, loads, &mut deltas); }\n",
            "fn f() { w.inject(1, loads, &mut deltas); }\n",
        ];
        for bad in calls {
            for file in ["crates/core/src/engine.rs", "crates/core/src/kernel/mod.rs"] {
                assert_eq!(
                    classes(&lint_source(file, bad)),
                    vec![LintClass::PreRound],
                    "{file}: {bad}"
                );
            }
            // The pre-round module itself, and code outside
            // crates/core, may call them.
            assert!(lint_source("crates/core/src/round.rs", bad).is_empty());
            assert!(lint_source("crates/serve/src/tenant.rs", bad).is_empty());
        }

        // A definition is not a call: the trait and the workload
        // implementations define `inject`.
        let def = "pub trait W {\n    fn inject(&mut self);\n}\n";
        assert!(lint_source("crates/core/src/workload.rs", def).is_empty());

        // Longer identifiers, comments, strings and tests are not uses.
        let other = "fn f() { my_handoff_deltas(); drive_events_twice(); }\n\
                     fn h(injected: i64) -> Phase { reinject(injected); Phase::Inject }\n\
                     // drive_events(s) lives in round.rs\n\
                     fn g() -> &'static str { \"handoff_deltas(x)\" }\n";
        assert!(lint_source("crates/core/src/engine.rs", other).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { handoff_deltas(g, l, d); }\n}\n";
        assert!(lint_source("crates/core/src/engine.rs", in_test).is_empty());
    }

    #[test]
    fn flow_body_lint_keeps_the_rule_in_the_kernel() {
        // Seeded violations: a second round driver calling the rule or
        // the hook outside the kernel module.
        let calls = [
            "fn f() { balancer.kernel_node(gp, u, x, &mut row); }\n",
            "fn f() { balancer.begin_round(gp, cur); }\n",
            "fn f() { KernelBalancer::kernel_node(&mut b, gp, 0, 1, r); }\n",
        ];
        for bad in calls {
            for file in [
                "crates/core/src/engine.rs",
                "crates/core/src/schemes/rotor.rs",
            ] {
                assert_eq!(
                    classes(&lint_source(file, bad)),
                    vec![LintClass::FlowBody],
                    "{file}: {bad}"
                );
            }
            // The kernel module itself, and code outside crates/core,
            // may call them.
            assert!(lint_source("crates/core/src/kernel/mod.rs", bad).is_empty());
            assert!(lint_source("crates/bounds/src/fixed_flow.rs", bad).is_empty());
        }

        // A definition is not a call: every scheme defines the rule,
        // and the trait's default body defines the hook.
        let def = "impl KernelBalancer for S {\n    \
                   fn kernel_node(&mut self, gp: &G, u: usize) {}\n    \
                   fn begin_round(&mut self, gp: &G, l: &[i64]) {}\n}\n";
        assert!(lint_source("crates/core/src/schemes/send.rs", def).is_empty());

        // Longer identifiers, comments, strings and tests are not uses.
        let other = "fn f() { my_kernel_node(); begin_rounds(); }\n\
                     // kernel_node(gp, u, x, row) lives in kernel/mod.rs\n\
                     fn g() -> &'static str { \"begin_round(gp, x)\" }\n";
        assert!(lint_source("crates/core/src/engine.rs", other).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { s.kernel_node(g, 0, 1, r); }\n}\n";
        assert!(lint_source("crates/core/src/schemes/send.rs", in_test).is_empty());
    }

    #[test]
    fn test_region_masking_handles_nested_braces() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       mod inner { fn f() { if a { b() } } }\n\
                       fn g() { y.unwrap(); }\n\
                   }\n\
                   fn live2() { z.unwrap(); }\n";
        let v = lint_source("crates/graph/src/lib.rs", src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 7);
    }

    #[test]
    fn allowlist_grants_and_reports_stale_entries() {
        let entries =
            parse_allowlist("# comment\nunwrap crates/x/src/lib.rs .unwrap()\n").expect("parses");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].class, LintClass::Unwrap);
        assert!(parse_allowlist("nonsense-class a b\n").is_err());
        assert!(parse_allowlist("unwrap only-two-fields\n").is_err());
    }

    #[test]
    fn the_tree_is_clean() {
        // tools/tidy -> repo root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("tools/tidy sits two levels below the root");
        let (violations, scanned) = lint_tree(root).expect("tree lints");
        for v in &violations {
            eprintln!("{v}");
        }
        assert!(violations.is_empty(), "{} violation(s)", violations.len());
        assert!(
            scanned > 40,
            "expected to scan the whole workspace, saw {scanned}"
        );
    }
}
