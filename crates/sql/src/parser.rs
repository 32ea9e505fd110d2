//! Lexer and parser for the SQL subset.

use crate::ast::{SelectItem, SelectQuery, TableRef};
use intensio_storage::expr::{ArithOp, AttrRef, CmpOp, Expr};
use intensio_storage::value::Value;
use std::borrow::Cow;
use std::fmt;

/// A SQL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlParseError {
    /// Description of the failure.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for SqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SQL parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for SqlParseError {}

/// A token, borrowing its text from the source.
#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    /// A quoted literal's bytes, each read as one `char` (so non-ASCII
    /// text is owned, ASCII borrowed).
    Str(Cow<'a, str>),
    Num {
        text: &'a str,
        value: f64,
        is_int: bool,
    },
    Star,
    LParen,
    RParen,
    Comma,
    Dot,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Slash,
}

fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>, SqlParseError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let start = i;
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '*' => {
                out.push((Tok::Star, start));
                i += 1;
            }
            '(' => {
                out.push((Tok::LParen, start));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, start));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, start));
                i += 1;
            }
            '.' => {
                out.push((Tok::Dot, start));
                i += 1;
            }
            '=' => {
                out.push((Tok::Eq, start));
                i += 1;
            }
            '+' => {
                out.push((Tok::Plus, start));
                i += 1;
            }
            '-' => {
                // `--` line comment.
                if b.get(i + 1) == Some(&b'-') {
                    while i < b.len() && b[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    out.push((Tok::Minus, start));
                    i += 1;
                }
            }
            '/' => {
                out.push((Tok::Slash, start));
                i += 1;
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ne, start));
                    i += 2;
                } else {
                    return Err(SqlParseError {
                        message: "expected `=` after `!`".into(),
                        offset: start,
                    });
                }
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Le, start));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push((Tok::Ne, start));
                    i += 2;
                } else {
                    out.push((Tok::Lt, start));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ge, start));
                    i += 2;
                } else {
                    out.push((Tok::Gt, start));
                    i += 1;
                }
            }
            '\'' | '"' => {
                let Some(len) = b[i + 1..].iter().position(|&q| q == b[i]) else {
                    return Err(SqlParseError {
                        message: "unterminated string".into(),
                        offset: start,
                    });
                };
                let body = &src[i + 1..i + 1 + len];
                i += len + 2;
                let text = match body.is_ascii() {
                    true => Cow::Borrowed(body),
                    false => Cow::Owned(body.bytes().map(char::from).collect()),
                };
                out.push((Tok::Str(text), start));
            }
            d if d.is_ascii_digit() => {
                let mut is_int = true;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    is_int = false;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let value: f64 = text.parse().map_err(|_| SqlParseError {
                    message: format!("bad number {text}"),
                    offset: start,
                })?;
                out.push((
                    Tok::Num {
                        text,
                        value,
                        is_int,
                    },
                    start,
                ));
            }
            a if a.is_ascii_alphabetic() || a == '_' => {
                while i < b.len() {
                    let ch = b[i];
                    if ch.is_ascii_alphanumeric() || ch == b'_' {
                        i += 1;
                    } else if ch == b'-'
                        && i + 1 < b.len()
                        && b[i + 1].is_ascii_alphanumeric()
                        && !is_keyword(&src[start..i])
                    {
                        // Hyphenated bare constants like BQS-04.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(&src[start..i]), start));
            }
            other => {
                return Err(SqlParseError {
                    message: format!("unexpected character {other:?}"),
                    offset: start,
                })
            }
        }
    }
    Ok(out)
}

const KEYWORDS: [&str; 11] = [
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "ORDER", "GROUP", "BY", "AS",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(s))
}

/// Parse a `SELECT` statement.
pub fn parse(src: &str) -> Result<SelectQuery, SqlParseError> {
    let _span = intensio_obs::Span::stage("parse.sql", intensio_obs::Stage::Parse);
    intensio_obs::inc("parse.sql");
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.select()?;
    if !p.at_end() {
        return Err(p.err("trailing input after query"));
    }
    Ok(q)
}

struct Parser<'a> {
    tokens: Vec<(Tok<'a>, usize)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn err(&self, msg: impl Into<String>) -> SqlParseError {
        SqlParseError {
            message: msg.into(),
            offset: self.tokens.get(self.pos).map(|(_, o)| *o).unwrap_or(0),
        }
    }

    /// Consume the next token (if any) and report `what` was expected
    /// where it stood, at the offset of the token after it.
    fn unexpected(&mut self, what: &str) -> SqlParseError {
        let found = format!("{:?}", self.peek());
        self.pos = (self.pos + 1).min(self.tokens.len());
        self.err(format!("expected {what}, found {found}"))
    }

    fn accept(&mut self, t: &Tok<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn accept_kw(&mut self, kw: &str) -> bool {
        match self.peek() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                true
            }
            _ => false,
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlParseError> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, SqlParseError> {
        match self.peek() {
            Some(&Tok::Ident(s)) if !is_keyword(s) => {
                self.pos += 1;
                Ok(s.to_string())
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn select(&mut self) -> Result<SelectQuery, SqlParseError> {
        self.expect_kw("select")?;
        let distinct = self.accept_kw("distinct");
        let mut targets = vec![self.select_item()?];
        while self.accept(&Tok::Comma) {
            targets.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        while self.accept(&Tok::Comma) {
            from.push(self.table_ref()?);
        }
        let where_clause = if self.accept_kw("where") {
            Some(self.disjunction()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.accept_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.attr_ref()?);
            while self.accept(&Tok::Comma) {
                group_by.push(self.attr_ref()?);
            }
        }
        let mut order_by = Vec::new();
        if self.accept_kw("order") {
            self.expect_kw("by")?;
            order_by.push(self.attr_ref()?);
            while self.accept(&Tok::Comma) {
                order_by.push(self.attr_ref()?);
            }
        }
        Ok(SelectQuery {
            distinct,
            targets,
            from,
            where_clause,
            group_by,
            order_by,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlParseError> {
        if self.accept(&Tok::Star) {
            return Ok(SelectItem::Star);
        }
        // Aggregate function call?
        use intensio_storage::ops::Aggregate;
        let func = match self.peek() {
            Some(Tok::Ident(s)) => [
                ("count", Aggregate::Count),
                ("sum", Aggregate::Sum),
                ("avg", Aggregate::Avg),
                ("min", Aggregate::Min),
                ("max", Aggregate::Max),
            ]
            .into_iter()
            .find_map(|(name, f)| name.eq_ignore_ascii_case(s).then_some(f)),
            _ => None,
        };
        if let Some(func) = func {
            if self.tokens.get(self.pos + 1).map(|(t, _)| t) == Some(&Tok::LParen) {
                self.pos += 2;
                let arg = if self.accept(&Tok::Star) {
                    None
                } else {
                    Some(self.attr_ref()?)
                };
                if !self.accept(&Tok::RParen) {
                    return Err(self.err("expected `)` after aggregate argument"));
                }
                let output = if self.accept_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                return Ok(SelectItem::Aggregate { func, arg, output });
            }
        }
        let attr = self.attr_ref()?;
        let output = if self.accept_kw("as") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Attr { attr, output })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlParseError> {
        let name = self.ident()?;
        // Optional alias: a following non-keyword identifier.
        let alias = match self.peek() {
            Some(&Tok::Ident(s)) if !is_keyword(s) => {
                self.pos += 1;
                s.to_string()
            }
            _ => name.clone(),
        };
        Ok(TableRef { name, alias })
    }

    fn attr_ref(&mut self) -> Result<AttrRef, SqlParseError> {
        let first = self.ident()?;
        if self.accept(&Tok::Dot) {
            let attr = self.ident()?;
            Ok(AttrRef::qualified(first, attr))
        } else {
            Ok(AttrRef::bare(first))
        }
    }

    // WHERE grammar: OR > AND > NOT > comparison.
    fn disjunction(&mut self) -> Result<Expr, SqlParseError> {
        let mut left = self.conjunction()?;
        while self.accept_kw("or") {
            let right = self.conjunction()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn conjunction(&mut self) -> Result<Expr, SqlParseError> {
        let mut left = self.negation()?;
        while self.accept_kw("and") {
            let right = self.negation()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn negation(&mut self) -> Result<Expr, SqlParseError> {
        if self.accept_kw("not") {
            return Ok(Expr::Not(Box::new(self.negation()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlParseError> {
        if self.peek() == Some(&Tok::LParen) {
            let save = self.pos;
            self.pos += 1;
            if let Ok(inner) = self.disjunction() {
                if self.accept(&Tok::RParen) && self.peek_cmp().is_none() {
                    return Ok(inner);
                }
            }
            self.pos = save;
        }
        let left = self.additive()?;
        let op = self
            .next_cmp()
            .ok_or_else(|| self.err("expected comparison operator"))?;
        let right = self.additive()?;
        Ok(Expr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn peek_cmp(&self) -> Option<CmpOp> {
        match self.peek() {
            Some(Tok::Eq) => Some(CmpOp::Eq),
            Some(Tok::Ne) => Some(CmpOp::Ne),
            Some(Tok::Lt) => Some(CmpOp::Lt),
            Some(Tok::Le) => Some(CmpOp::Le),
            Some(Tok::Gt) => Some(CmpOp::Gt),
            Some(Tok::Ge) => Some(CmpOp::Ge),
            _ => None,
        }
    }

    fn next_cmp(&mut self) -> Option<CmpOp> {
        let op = self.peek_cmp()?;
        self.pos += 1;
        Some(op)
    }

    fn additive(&mut self) -> Result<Expr, SqlParseError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => ArithOp::Add,
                Some(Tok::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlParseError> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => ArithOp::Mul,
                Some(Tok::Slash) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.primary()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<Expr, SqlParseError> {
        if self.accept(&Tok::Minus) {
            // Unary minus: negate the operand.
            let inner = self.primary()?;
            return Ok(match inner {
                Expr::Const(Value::Int(v)) => Expr::Const(Value::Int(-v)),
                Expr::Const(Value::Real(v)) => Expr::Const(Value::Real(-v)),
                other => Expr::Arith {
                    op: ArithOp::Sub,
                    left: Box::new(Expr::Const(Value::Int(0))),
                    right: Box::new(other),
                },
            });
        }
        let expr = match self.peek() {
            Some(&Tok::Num {
                text,
                value,
                is_int,
            }) => Expr::Const(num_value(text, value, is_int)),
            Some(Tok::Str(s)) => Expr::Const(Value::Str(s.to_string())),
            Some(&Tok::Ident(first)) if !is_keyword(first) => {
                self.pos += 1;
                return if self.accept(&Tok::Dot) {
                    let attr = self.ident()?;
                    Ok(Expr::Attr(AttrRef::qualified(first, attr)))
                } else {
                    Ok(Expr::Attr(AttrRef::bare(first)))
                };
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let inner = self.additive()?;
                if !self.accept(&Tok::RParen) {
                    return Err(self.err("expected `)`"));
                }
                return Ok(inner);
            }
            _ => return Err(self.unexpected("expression")),
        };
        self.pos += 1;
        Ok(expr)
    }
}

fn num_value(text: &str, value: f64, is_int: bool) -> Value {
    if is_int {
        if text.len() > 1 && text.starts_with('0') {
            Value::Str(text.to_string())
        } else {
            Value::Int(value as i64)
        }
    } else {
        Value::Real(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example1() {
        let q = parse(
            "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
             FROM SUBMARINE, CLASS \
             WHERE SUBMARINE.CLASS = CLASS.CLASS \
             AND CLASS.DISPLACEMENT > 8000",
        )
        .unwrap();
        assert_eq!(q.targets.len(), 4);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0], TableRef::named("SUBMARINE"));
        let w = q.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 2);
    }

    #[test]
    fn parses_paper_example3() {
        let q = parse(
            "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
             FROM SUBMARINE, CLASS, INSTALL \
             WHERE SUBMARINE.CLASS = CLASS.CLASS \
             AND SUBMARINE.ID = INSTALL.SHIP \
             AND INSTALL.SONAR = \"BQS-04\"",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        let w = q.where_clause.unwrap();
        let cs = w.conjuncts();
        assert_eq!(cs.len(), 3);
        match cs[2] {
            Expr::Cmp { right, .. } => {
                assert_eq!(**right, Expr::Const(Value::str("BQS-04")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_and_aliases() {
        let q = parse("SELECT * FROM CLASS c WHERE c.Type = 'SSN' ORDER BY c.Class").unwrap();
        assert_eq!(q.targets, vec![SelectItem::Star]);
        assert_eq!(q.from[0].alias, "c");
        assert_eq!(q.order_by.len(), 1);
    }

    #[test]
    fn distinct_and_as() {
        let q = parse("SELECT DISTINCT Type AS ShipType FROM CLASS").unwrap();
        assert!(q.distinct);
        match &q.targets[0] {
            SelectItem::Attr { output, .. } => assert_eq!(output.as_deref(), Some("ShipType")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_quoted_strings() {
        let q = parse("SELECT Name FROM S WHERE Type = 'SSBN'").unwrap();
        let w = q.where_clause.unwrap();
        match w {
            Expr::Cmp { right, .. } => assert_eq!(*right, Expr::Const(Value::str("SSBN"))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn or_not_parens() {
        let q = parse("SELECT A FROM T WHERE (A = 1 OR B = 2) AND NOT C = 3").unwrap();
        let w = q.where_clause.unwrap();
        match w {
            Expr::And(l, r) => {
                assert!(matches!(*l, Expr::Or(_, _)));
                assert!(matches!(*r, Expr::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn leading_zero_class_codes() {
        let q = parse("SELECT A FROM T WHERE Class = 0101").unwrap();
        match q.where_clause.unwrap() {
            Expr::Cmp { right, .. } => assert_eq!(*right, Expr::Const(Value::str("0101"))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ne_spellings() {
        for src in [
            "SELECT A FROM T WHERE A != 1",
            "SELECT A FROM T WHERE A <> 1",
        ] {
            let q = parse(src).unwrap();
            assert!(matches!(
                q.where_clause.unwrap(),
                Expr::Cmp { op: CmpOp::Ne, .. }
            ));
        }
    }

    #[test]
    fn missing_from_rejected() {
        assert!(parse("SELECT A WHERE A = 1").is_err());
        assert!(parse("SELECT FROM T").is_err());
        assert!(parse("SELECT A FROM T garbage extra +").is_err());
    }

    #[test]
    fn line_comments_skipped() {
        let q = parse("SELECT A -- the attribute\nFROM T").unwrap();
        assert_eq!(q.from[0].name, "T");
    }
}
