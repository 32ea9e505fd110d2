//! The diagnostics framework: stable lint codes, severities, source
//! spans, and the machine/human renderers shared by every pass.
//!
//! A [`Diagnostic`] carries a stable `IC0xx` code (codes never change
//! meaning once published — CI greps for them), a [`Severity`], the
//! text it was raised against (`origin`: `schema`, `query`, or a rule
//! label like `R3`), an optional [`Span`] into that text, and free-form
//! notes (provenance such as the refuting rule of an empty query).

use intensio_obs::push_json_str;
use std::fmt;

/// How bad a finding is.
///
/// `Error` findings make the `check` CLI exit nonzero and make the
/// serve-side install gate reject a candidate rule set. `Warn` findings
/// fail only under `--deny-warnings`. `Info` findings never fail a run;
/// they surface structure worth knowing (for instance range gaps that
/// weaken backward inference, which are intrinsic to induction from
/// sparse data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious; fatal under `--deny-warnings`.
    Warn,
    /// Definite defect; always fatal.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// A half-open byte region of the checked text, with 1-based line and
/// column of its start for human rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based line of the first byte.
    pub line: usize,
    /// 1-based column (in bytes) of the first byte within its line.
    pub col: usize,
    /// Length of the region in bytes.
    pub len: usize,
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint code, e.g. `IC001`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// What text the span points into: `schema`, `query`, or a rule
    /// label such as `R3`.
    pub origin: String,
    /// One-line description of the finding.
    pub message: String,
    /// Where in the origin text, when locatable.
    pub span: Option<Span>,
    /// Supporting detail — e.g. the refuting rule, the subsuming rule,
    /// or the computed empty intersection.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new diagnostic with no span or notes.
    pub fn new(
        code: &'static str,
        severity: Severity,
        origin: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            origin: origin.into(),
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// Attach a span (builder style).
    pub fn with_span(mut self, span: Option<Span>) -> Diagnostic {
        self.span = span;
        self
    }

    /// Attach a note (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.code, self.severity, self.origin, self.message
        )?;
        if let Some(s) = &self.span {
            write!(f, "\n  --> {}:{}:{}", self.origin, s.line, s.col)?;
        }
        for n in &self.notes {
            write!(f, "\n  note: {n}")?;
        }
        Ok(())
    }
}

/// The outcome of one or more passes: an ordered list of findings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The findings, in pass order until [`Report::sort`].
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append every finding of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Sort by severity (errors first), then code, then subject
    /// (origin), then span position, then message and notes.
    ///
    /// The trailing keys make this a *total* order over every field a
    /// renderer prints, so two passes that found the same facts in a
    /// different order (for instance via hash-map iteration) render
    /// byte-identical reports — golden tests and `--deny-warnings` CI
    /// runs depend on that stability.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.origin.cmp(&b.origin))
                .then_with(|| {
                    let pos = |d: &Diagnostic| d.span.as_ref().map(|s| (s.line, s.col, s.len));
                    pos(a).cmp(&pos(b))
                })
                .then_with(|| a.message.cmp(&b.message))
                .then_with(|| a.notes.cmp(&b.notes))
        });
    }

    /// Number of findings at a given severity.
    pub fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether the report fails the run: errors always, warnings when
    /// `deny_warnings`.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.count(Severity::Warn) > 0)
    }

    /// Human rendering, one block per diagnostic plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "check: {} error(s), {} warning(s), {} info\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine rendering: a JSON array of diagnostic objects.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let members = [
                ("{\"code\":", d.code),
                (",\"severity\":", &d.severity.to_string()),
                (",\"origin\":", &d.origin),
                (",\"message\":", &d.message),
            ];
            for (key, value) in members {
                out.push_str(key);
                push_json_str(&mut out, value);
            }
            if let Some(s) = &d.span {
                out.push_str(&format!(
                    ",\"span\":{{\"line\":{},\"col\":{},\"len\":{}}}",
                    s.line, s.col, s.len
                ));
            }
            if !d.notes.is_empty() {
                out.push_str(",\"notes\":[");
                for (j, n) in d.notes.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, n);
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Locate the `n`-th (0-based) occurrence of `needle` in `src`,
/// returning its span. Used to point diagnostics at tokens the parsers
/// do not track positions for.
pub fn locate_nth(src: &str, needle: &str, n: usize) -> Option<Span> {
    if needle.is_empty() {
        return None;
    }
    let mut from = 0;
    let mut hit = None;
    for _ in 0..=n {
        let at = src[from..].find(needle)? + from;
        hit = Some(at);
        from = at + needle.len();
    }
    let at = hit?;
    let before = &src[..at];
    let line = before.bytes().filter(|b| *b == b'\n').count() + 1;
    let col = at - before.rfind('\n').map(|p| p + 1).unwrap_or(0) + 1;
    Some(Span {
        line,
        col,
        len: needle.len(),
    })
}

/// Locate the first occurrence of `needle` in `src`.
pub fn locate(src: &str, needle: &str) -> Option<Span> {
    locate_nth(src, needle, 0)
}

/// Locate a whole word: an occurrence not embedded in a larger
/// identifier. Falls back to the first plain occurrence.
pub fn locate_word(src: &str, needle: &str) -> Option<Span> {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut n = 0;
    loop {
        let span = locate_nth(src, needle, n)?;
        // Recover the byte offset to inspect the neighbours.
        let at = byte_offset(src, &span);
        let left_ok = at == 0 || !is_ident(src.as_bytes()[at - 1]);
        let right = at + needle.len();
        let right_ok = right >= src.len() || !is_ident(src.as_bytes()[right]);
        if left_ok && right_ok {
            return Some(span);
        }
        n += 1;
    }
}

fn byte_offset(src: &str, span: &Span) -> usize {
    let mut offset = 0;
    for (line, seg) in (1..).zip(src.split_inclusive('\n')) {
        if line == span.line {
            return offset + span.col - 1;
        }
        offset += seg.len();
    }
    offset + span.col - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_reports_line_and_col() {
        let src = "alpha\nbeta gamma\ngamma";
        let s = locate(src, "gamma").unwrap();
        assert_eq!((s.line, s.col, s.len), (2, 6, 5));
        let s = locate_nth(src, "gamma", 1).unwrap();
        assert_eq!((s.line, s.col), (3, 1));
        assert!(locate(src, "delta").is_none());
    }

    #[test]
    fn locate_word_skips_substrings() {
        let src = "SSBN_X then SSBN";
        let s = locate_word(src, "SSBN").unwrap();
        assert_eq!((s.line, s.col), (1, 13));
    }

    #[test]
    fn report_fails_and_renders() {
        let mut r = Report::new();
        r.push(Diagnostic::new("IC023", Severity::Warn, "R1", "low support").with_note("N_c = 3"));
        assert!(!r.fails(false));
        assert!(r.fails(true));
        r.push(
            Diagnostic::new("IC001", Severity::Error, "schema", "cycle").with_span(Some(Span {
                line: 2,
                col: 3,
                len: 4,
            })),
        );
        assert!(r.fails(false));
        r.sort();
        assert_eq!(r.diagnostics[0].code, "IC001");
        let text = r.render_text();
        assert!(text.contains("IC001 error [schema]: cycle"));
        assert!(text.contains("--> schema:2:3"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        let json = r.render_json();
        assert!(json.contains("\"code\":\"IC001\""));
        assert!(json.contains("\"span\":{\"line\":2,\"col\":3,\"len\":4}"));
        assert!(json.contains("\"notes\":[\"N_c = 3\"]"));
    }
}
