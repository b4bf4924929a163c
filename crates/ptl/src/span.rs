//! Source spans for parsed formulas.
//!
//! [`Formula`](crate::Formula) derives `Eq`/`Hash` and is memoized by
//! structure throughout the evaluators, so spans are **not** embedded in the
//! AST (two occurrences of `once @e` must stay equal regardless of where
//! they were written). Instead the parser builds a parallel [`SpanNode`]
//! tree whose shape mirrors the formula tree node for node: static analyses
//! walk the formula and the span tree in lockstep and can point a diagnostic
//! at the exact byte range of any subformula.

/// A half-open byte range `[start, end)` into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The source slice this span covers, if it is in range.
    pub fn slice<'a>(&self, src: &'a str) -> Option<&'a str> {
        src.get(self.start..self.end)
    }

    /// 1-based `(line, column)` of the span start, counting bytes.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src.as_bytes()[..self.start.min(src.len())];
        let line = 1 + upto.iter().filter(|b| **b == b'\n').count();
        let col = 1 + upto.iter().rev().take_while(|b| **b != b'\n').count();
        (line, col)
    }
}

/// One node of the span tree built alongside a parsed [`Formula`](crate::Formula). The
/// children correspond to the formula node's subformulas, in order:
/// `Not`/`Lasttime`/`Previously`/`ThroughoutPast` have one child,
/// `And`/`Or` have one per conjunct/disjunct, `Since` has two (left, right),
/// `Assign` has one (the body), and atoms have none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub span: Span,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn leaf(start: usize, end: usize) -> SpanNode {
        SpanNode {
            span: Span::new(start, end),
            children: Vec::new(),
        }
    }

    pub fn child(&self, i: usize) -> Option<&SpanNode> {
        self.children.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_counts_newlines() {
        let src = "ab\ncdef\ng";
        assert_eq!(Span::new(0, 2).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 6).line_col(src), (2, 2));
        assert_eq!(Span::new(8, 9).line_col(src), (3, 1));
        assert_eq!(Span::new(4, 6).slice(src), Some("de"));
    }
}
