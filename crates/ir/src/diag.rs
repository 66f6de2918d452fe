//! Structured diagnostics with stable codes and source rendering.
//!
//! The analysis pipeline reports problems as [`Diagnostic`]s instead of
//! failing on the first error: each carries a stable code (`SL01xx` for
//! program-level checks, `SL02xx` for SDG-level lints), a severity, an
//! optional source [`Span`] and an optional explanatory note. A
//! [`Diagnostics`] sink collects them in source order, and
//! [`render_diagnostic`] / [`render_diagnostics`] produce a compiler-style
//! text report that underlines the offending source line:
//!
//! ```text
//! error[SL0101]: partial state read is never merged
//!   --> line 7, column 9
//!    |
//!  7 |     @Partial let totals = @Global counts.get(w);
//!    |         ^
//!    = note: every `@Partial let` must flow into an `@Collection` merge
//! ```

use std::fmt;

use sdg_common::error::SdgError;

use crate::ast::Span;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the program translates, but something looks wrong.
    Warning,
    /// The program (or graph) is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One reported problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `SL0101`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Position in the StateLang source, when one exists (SDG-level
    /// lints on generated tasks may have none).
    pub span: Option<Span>,
    /// Inclusive end of the offending region, when it extends past
    /// `span` (e.g. a whole loop). `None` for point diagnostics.
    pub end: Option<Span>,
    /// Human-readable, single-sentence description.
    pub message: String,
    /// Optional elaboration: the rule being enforced or a fix hint.
    pub note: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic at `span`.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span: Some(span),
            end: None,
            message: message.into(),
            note: None,
        }
    }

    /// Creates a warning diagnostic at `span`.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span: Some(span),
            end: None,
            message: message.into(),
            note: None,
        }
    }

    /// Creates an error diagnostic with no source position.
    pub fn error_nospan(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span: None,
            end: None,
            message: message.into(),
            note: None,
        }
    }

    /// Creates a warning diagnostic with no source position.
    pub fn warning_nospan(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span: None,
            end: None,
            message: message.into(),
            note: None,
        }
    }

    /// Attaches an explanatory note (builder-style).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// Extends the diagnostic over a region ending at `end`
    /// (builder-style). The renderer underlines both endpoints when the
    /// region crosses lines.
    pub fn with_end(mut self, end: Span) -> Self {
        self.end = Some(end);
        self
    }

    /// Converts to the fail-fast [`SdgError::Analysis`] form, carrying the
    /// span as line/column (0,0 when the diagnostic has no position).
    pub fn to_analysis_error(&self) -> SdgError {
        let (line, col) = self.span.map_or((0, 0), |s| (s.line, s.col));
        SdgError::analysis(line, col, self.message.clone())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = self.span {
            write!(f, " (line {}, column {})", span.line, span.col)?;
        }
        Ok(())
    }
}

/// An ordered collection of diagnostics.
#[derive(Debug, Default, Clone)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.items.push(diag);
    }

    /// Records an error at `span`.
    pub fn error(&mut self, code: &'static str, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::error(code, span, message));
    }

    /// Records a warning at `span`.
    pub fn warning(&mut self, code: &'static str, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::warning(code, span, message));
    }

    /// `true` when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of reported diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when at least one error (not warning) was reported.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// The first error, if any — used to bridge into fail-fast APIs.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.severity == Severity::Error)
    }

    /// Iterates the reported diagnostics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Consumes the sink, returning the diagnostics sorted by source
    /// position (span-less diagnostics sort last, in insertion order).
    pub fn into_sorted_vec(mut self) -> Vec<Diagnostic> {
        self.items.sort_by_key(|d| match d.span {
            Some(s) => (0u8, s.line, s.col),
            None => (1u8, 0, 0),
        });
        self.items
    }
}

impl Extend<Diagnostic> for Diagnostics {
    fn extend<I: IntoIterator<Item = Diagnostic>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// Renders one diagnostic against its source, compiler-style: header
/// line, the offending source line with a caret under the reported
/// column, then any note. A diagnostic whose region crosses lines
/// (`end` on a later line than `span`) renders both endpoint lines,
/// each with its caret aligned to that line's own column — the start
/// line's column must not be reused for the end line.
pub fn render_diagnostic(source: &str, diag: &Diagnostic) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{}[{}]: {}\n",
        diag.severity, diag.code, diag.message
    ));
    if let Some(span) = diag.span {
        let end = diag.end.filter(|e| e.line > span.line);
        match end {
            None => out.push_str(&format!("  --> line {}, column {}\n", span.line, span.col)),
            Some(e) => out.push_str(&format!(
                "  --> line {}, column {} .. line {}, column {}\n",
                span.line, span.col, e.line, e.col
            )),
        }
        // The gutter is sized for the widest line number shown.
        let gutter_width = end
            .map(|e| e.line.to_string().len())
            .unwrap_or(span.line.to_string().len())
            .max(span.line.to_string().len());
        let pad = " ".repeat(gutter_width);
        fn render_line(out: &mut String, source: &str, at: Span, pad: &str, gutter_width: usize) {
            if let Some(text) = source.lines().nth(at.line.saturating_sub(1) as usize) {
                let gutter = format!("{:>gutter_width$}", at.line);
                out.push_str(&format!(" {pad} |\n"));
                out.push_str(&format!(" {gutter} | {text}\n"));
                // The caret column: spans are 1-based; tabs count as one
                // column, matching the lexer.
                let caret_pad: String = text
                    .chars()
                    .take(at.col.saturating_sub(1) as usize)
                    .map(|c| if c == '\t' { '\t' } else { ' ' })
                    .collect();
                out.push_str(&format!(" {pad} | {caret_pad}^\n"));
            }
        }
        render_line(&mut out, source, span, &pad, gutter_width);
        if let Some(e) = end {
            if e.line > span.line + 1 {
                out.push_str(&format!(" {pad} | ...\n"));
            }
            render_line(&mut out, source, e, &pad, gutter_width);
        }
    }
    if let Some(note) = &diag.note {
        out.push_str(&format!("    = note: {note}\n"));
    }
    out
}

/// Renders a batch of diagnostics, separated by blank lines, followed by
/// a one-line summary (`N error(s), M warning(s)`). Returns an empty
/// string when there is nothing to report.
pub fn render_diagnostics(source: &str, diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_diagnostic(source, d));
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    match (errors, warnings) {
        (0, w) => out.push_str(&format!("{w} warning(s)\n")),
        (e, 0) => out.push_str(&format!("{e} error(s)\n")),
        (e, w) => out.push_str(&format!("{e} error(s), {w} warning(s)\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    #[test]
    fn sink_collects_and_classifies() {
        let mut diags = Diagnostics::new();
        assert!(diags.is_empty());
        diags.warning("SL0199", span(2, 1), "looks dubious");
        assert!(!diags.has_errors());
        diags.error("SL0101", span(1, 3), "definitely wrong");
        assert!(diags.has_errors());
        assert_eq!(diags.len(), 2);
        assert_eq!(diags.first_error().unwrap().code, "SL0101");
        let sorted = diags.into_sorted_vec();
        assert_eq!(sorted[0].code, "SL0101"); // line 1 before line 2
        assert_eq!(sorted[1].code, "SL0199");
    }

    #[test]
    fn render_underlines_the_offending_column() {
        let src = "Table counts;\nvoid f(int x) {\n    counts.get(x);\n}\n";
        let d = Diagnostic::error("SL0101", span(3, 5), "bad access")
            .with_note("state access rules are in DESIGN.md");
        let rendered = render_diagnostic(src, &d);
        assert!(rendered.contains("error[SL0101]: bad access"));
        assert!(rendered.contains("--> line 3, column 5"));
        assert!(rendered.contains(" 3 |     counts.get(x);"));
        // Caret sits under column 5 (the 'c' of counts).
        let caret_line = rendered
            .lines()
            .find(|l| l.trim_end().ends_with('^'))
            .expect("caret line");
        assert_eq!(
            caret_line.find('^').unwrap() - caret_line.find('|').unwrap(),
            6
        );
        assert!(rendered.contains("note: state access rules"));
    }

    #[test]
    fn multi_line_span_aligns_each_endpoint_to_its_own_column() {
        let src = "Table t;\nvoid f() {\n  foreach (x : xs) {\n    acc = append(acc, x);\n  }\n}\n";
        let d =
            Diagnostic::warning("SL0303", span(3, 3), "order-sensitive fold").with_end(span(4, 5));
        let rendered = render_diagnostic(src, &d);
        assert!(rendered.contains("--> line 3, column 3 .. line 4, column 5"));
        let carets: Vec<usize> = rendered
            .lines()
            .filter(|l| l.trim_end().ends_with('^'))
            .map(|l| l.find('^').unwrap() - l.find('|').unwrap())
            .collect();
        // Start line's caret under column 3, end line's under column 5 —
        // not both anchored to the start column.
        assert_eq!(carets, vec![4, 6]);
        // Single-line rendering is unchanged.
        let point = Diagnostic::warning("SL0303", span(3, 3), "order-sensitive fold");
        let rendered = render_diagnostic(src, &point);
        assert!(rendered.contains("--> line 3, column 3\n"));
        assert!(!rendered.contains(".."));
    }

    #[test]
    fn multi_line_span_elides_interior_lines() {
        let src = "a\nb\nc\nd\ne\n";
        let d = Diagnostic::error("SL0101", span(1, 1), "region").with_end(span(4, 1));
        let rendered = render_diagnostic(src, &d);
        assert!(rendered.contains("| ...\n"));
        assert!(rendered.contains(" 1 | a"));
        assert!(rendered.contains(" 4 | d"));
        assert!(!rendered.contains("| b"));
    }

    #[test]
    fn batch_render_summarises() {
        let src = "Table t;\n";
        let diags = vec![
            Diagnostic::error("SL0101", span(1, 1), "one"),
            Diagnostic::warning_nospan("SL0202", "two"),
        ];
        let rendered = render_diagnostics(src, &diags);
        assert!(rendered.contains("1 error(s), 1 warning(s)"));
        let empty = render_diagnostics(src, &[]);
        assert!(empty.is_empty());
    }
}
