//! Expressions and predicates evaluated against tuples.
//!
//! Both the QUEL executor (paper §5.2.1) and the SQL executor (paper §6)
//! lower their qualification clauses to this AST. Expressions are
//! evaluated against an [`Env`]: a stack of `(alias, schema, tuple)`
//! frames, one per range variable / FROM relation.

use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether `ord` (left vs right) satisfies the operator.
    pub fn matches(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation (`NOT (a < b)` ⇔ `a >= b`).
    pub fn negate(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// A reference to an attribute, optionally qualified by a range variable
/// or relation alias (`r.Displacement` or bare `Displacement`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrRef {
    /// The range variable / relation alias, if written.
    pub qualifier: Option<String>,
    /// The attribute name.
    pub name: String,
}

impl AttrRef {
    /// A qualified reference `q.name`.
    pub fn qualified(q: impl Into<String>, name: impl Into<String>) -> AttrRef {
        AttrRef {
            qualifier: Some(q.into()),
            name: name.into(),
        }
    }

    /// An unqualified reference `name`.
    pub fn bare(name: impl Into<String>) -> AttrRef {
        AttrRef {
            qualifier: None,
            name: name.into(),
        }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// An attribute reference resolved at evaluation time.
    Attr(AttrRef),
    /// A comparison producing a boolean.
    #[allow(missing_docs)]
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic over numeric operands.
    #[allow(missing_docs)]
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
}

impl Expr {
    /// Shorthand: `attr op value`.
    pub fn cmp_value(attr: AttrRef, op: CmpOp, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(Expr::Attr(attr)),
            right: Box::new(Expr::Const(value.into())),
        }
    }

    /// Shorthand: `left_attr = right_attr` (a join condition).
    pub fn eq_attrs(left: AttrRef, right: AttrRef) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(Expr::Attr(left)),
            right: Box::new(Expr::Attr(right)),
        }
    }

    /// Conjoin a list of expressions; `None` for an empty list.
    pub fn conjoin(exprs: Vec<Expr>) -> Option<Expr> {
        exprs
            .into_iter()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
    }

    /// Collect the conjuncts of a chain of `And` nodes.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// All attribute references occurring in the expression.
    pub fn attr_refs(&self) -> Vec<&AttrRef> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a AttrRef>) {
            match e {
                Expr::Const(_) => {}
                Expr::Attr(a) => out.push(a),
                Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                Expr::And(a, b) | Expr::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Expr::Not(a) => walk(a, out),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Evaluate to a value under `env`.
    pub fn eval(&self, env: &Env<'_>) -> Result<Value> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Attr(a) => env.lookup(a).cloned(),
            Expr::Cmp { op, left, right } => {
                let l = left.operand(env)?;
                let r = right.operand(env)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(i64::from(op.matches(l.compare(&r)?))))
            }
            Expr::And(a, b) => {
                let l = a.eval_bool(env)?;
                let r = b.eval_bool(env)?;
                Ok(Value::Int(i64::from(l && r)))
            }
            Expr::Or(a, b) => {
                let l = a.eval_bool(env)?;
                let r = b.eval_bool(env)?;
                Ok(Value::Int(i64::from(l || r)))
            }
            Expr::Not(a) => Ok(Value::Int(i64::from(!a.eval_bool(env)?))),
            Expr::Arith { op, left, right } => {
                let l = left.eval(env)?;
                let r = right.eval(env)?;
                arith(*op, &l, &r)
            }
        }
    }

    /// Evaluate a comparison operand: an attribute or a constant is
    /// borrowed, anything else evaluated.
    fn operand<'v>(&'v self, env: &'v Env<'_>) -> Result<Cow<'v, Value>> {
        match self {
            Expr::Const(v) => Ok(Cow::Borrowed(v)),
            Expr::Attr(a) => env.lookup(a).map(Cow::Borrowed),
            other => other.eval(env).map(Cow::Owned),
        }
    }

    /// Evaluate as a predicate. `Null` results are false (a tuple with a
    /// missing value never satisfies a qualification).
    pub fn eval_bool(&self, env: &Env<'_>) -> Result<bool> {
        match self.eval(env)? {
            Value::Null => Ok(false),
            Value::Int(v) => Ok(v != 0),
            other => Err(StorageError::TypeMismatch {
                expected: "boolean".to_string(),
                found: other.to_string(),
                context: "predicate".to_string(),
            }),
        }
    }
}

fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let err = || StorageError::TypeMismatch {
        expected: "numeric operands".to_string(),
        found: format!("{l} {op} {r}"),
        context: "arithmetic".to_string(),
    };
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    return Err(StorageError::Invalid("division by zero".to_string()));
                }
                Value::Int(a / b)
            }
        }),
        _ => {
            let a = l.as_real().ok_or_else(err)?;
            let b = r.as_real().ok_or_else(err)?;
            Ok(Value::Real(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
            }))
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Attr(a) => write!(f, "{a}"),
            Expr::Cmp { op, left, right } => write!(f, "{left} {op} {right}"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(a) => write!(f, "not ({a})"),
            Expr::Arith { op, left, right } => write!(f, "({left} {op} {right})"),
        }
    }
}

/// One frame of an evaluation environment: a range variable bound to the
/// current tuple of a relation.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The range variable / alias.
    pub alias: &'a str,
    /// The relation's schema.
    pub schema: &'a Schema,
    /// The tuple currently bound.
    pub tuple: &'a Tuple,
}

/// An evaluation environment: an ordered set of frames.
#[derive(Debug, Default)]
pub struct Env<'a> {
    frames: Vec<Frame<'a>>,
}

impl<'a> Env<'a> {
    /// An environment with a single frame.
    pub fn single(alias: &'a str, schema: &'a Schema, tuple: &'a Tuple) -> Env<'a> {
        Env {
            frames: vec![Frame {
                alias,
                schema,
                tuple,
            }],
        }
    }

    /// An empty environment (constants only).
    pub fn empty() -> Env<'a> {
        Env { frames: Vec::new() }
    }

    /// Add a frame.
    pub fn push(&mut self, alias: &'a str, schema: &'a Schema, tuple: &'a Tuple) {
        self.frames.push(Frame {
            alias,
            schema,
            tuple,
        });
    }

    /// Bind frame `i` to another tuple of its relation, so a scan
    /// reuses one environment.
    pub fn rebind(&mut self, i: usize, tuple: &'a Tuple) {
        self.frames[i].tuple = tuple;
    }

    /// Resolve an attribute reference.
    ///
    /// A qualified reference looks up its alias (case-insensitive); a bare
    /// reference must resolve in exactly one frame, otherwise it is
    /// ambiguous.
    pub fn lookup(&self, attr: &AttrRef) -> Result<&Value> {
        match &attr.qualifier {
            Some(q) => {
                let frame = self
                    .frames
                    .iter()
                    .find(|f| f.alias.eq_ignore_ascii_case(q))
                    .ok_or_else(|| StorageError::UnknownRelation(q.clone()))?;
                let idx = frame.schema.require(frame.alias, &attr.name)?;
                Ok(frame.tuple.get(idx))
            }
            None => {
                let mut found: Option<&Value> = None;
                for f in &self.frames {
                    if let Some(idx) = f.schema.index_of(&attr.name) {
                        if found.is_some() {
                            return Err(StorageError::Invalid(format!(
                                "ambiguous attribute: {}",
                                attr.name
                            )));
                        }
                        found = Some(f.tuple.get(idx));
                    }
                }
                found.ok_or_else(|| StorageError::UnknownAttribute {
                    relation: "<any>".to_string(),
                    attribute: attr.name.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::{Attribute, Schema};
    use crate::tuple;
    use crate::value::ValueType;

    fn class_schema() -> Schema {
        Schema::new(vec![
            Attribute::key("Class", Domain::char_n(4)),
            Attribute::new("Type", Domain::char_n(4)),
            Attribute::new("Displacement", Domain::basic(ValueType::Int)),
        ])
        .unwrap()
    }

    #[test]
    fn comparison_predicate() {
        let schema = class_schema();
        let t = tuple!["0101", "SSBN", 16600];
        let env = Env::single("c", &schema, &t);
        let e = Expr::cmp_value(AttrRef::qualified("c", "Displacement"), CmpOp::Gt, 8000);
        assert!(e.eval_bool(&env).unwrap());
        let e2 = Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Eq, "SSN");
        assert!(!e2.eval_bool(&env).unwrap());
    }

    #[test]
    fn and_or_not() {
        let schema = class_schema();
        let t = tuple!["0101", "SSBN", 16600];
        let env = Env::single("c", &schema, &t);
        let a = Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Eq, "SSBN");
        let b = Expr::cmp_value(AttrRef::bare("Displacement"), CmpOp::Lt, 10000);
        let and = Expr::And(Box::new(a.clone()), Box::new(b.clone()));
        let or = Expr::Or(Box::new(a.clone()), Box::new(b.clone()));
        let not = Expr::Not(Box::new(b));
        assert!(!and.eval_bool(&env).unwrap());
        assert!(or.eval_bool(&env).unwrap());
        assert!(not.eval_bool(&env).unwrap());
    }

    #[test]
    fn null_never_satisfies() {
        let schema = Schema::new(vec![Attribute::new("X", Domain::basic(ValueType::Int))]).unwrap();
        let t = Tuple::new(vec![Value::Null]);
        let env = Env::single("r", &schema, &t);
        let e = Expr::cmp_value(AttrRef::bare("X"), CmpOp::Eq, Value::Null);
        assert!(!e.eval_bool(&env).unwrap());
        let e2 = Expr::cmp_value(AttrRef::bare("X"), CmpOp::Lt, 100);
        assert!(!e2.eval_bool(&env).unwrap());
    }

    #[test]
    fn borrowed_and_evaluated_operands_compare_alike() {
        let schema = class_schema();
        let t = tuple!["0101", "SSBN", 16600];
        let env = Env::single("c", &schema, &t);
        let attr = |n: &str| Box::new(Expr::Attr(AttrRef::qualified("c", n)));
        let plus_zero = |n: &str| {
            Box::new(Expr::Arith {
                op: ArithOp::Add,
                left: attr(n),
                right: Box::new(Expr::Const(Value::Int(0))),
            })
        };
        let cmp = |op, left, right: Value| Expr::Cmp {
            op,
            left,
            right: Box::new(Expr::Const(right)),
        };
        // An attribute operand is borrowed; `d + 0` is evaluated.
        for left in [attr("Displacement"), plus_zero("Displacement")] {
            assert!(cmp(CmpOp::Gt, left.clone(), Value::Int(8000))
                .eval_bool(&env)
                .unwrap());
            assert!(cmp(CmpOp::Eq, left.clone(), Value::Real(16600.0))
                .eval_bool(&env)
                .unwrap());
            assert_eq!(
                cmp(CmpOp::Eq, left.clone(), Value::Null)
                    .eval(&env)
                    .unwrap(),
                Value::Null
            );
            assert!(matches!(
                cmp(CmpOp::Eq, left, Value::str("x")).eval(&env),
                Err(StorageError::Incomparable { .. })
            ));
        }
        assert!(cmp(CmpOp::Lt, attr("Type"), Value::str("SSN"))
            .eval_bool(&env)
            .unwrap());
        assert!(matches!(
            cmp(CmpOp::Eq, attr("Type"), Value::Int(5)).eval(&env),
            Err(StorageError::Incomparable { .. })
        ));
        // A null attribute and a constant-only comparison.
        let null_schema =
            Schema::new(vec![Attribute::new("X", Domain::basic(ValueType::Int))]).unwrap();
        let null_row = Tuple::new(vec![Value::Null]);
        let env = Env::single("r", &null_schema, &null_row);
        let x = Box::new(Expr::Attr(AttrRef::bare("X")));
        assert_eq!(
            cmp(CmpOp::Ne, x, Value::Int(1)).eval(&env).unwrap(),
            Value::Null
        );
        let one = Box::new(Expr::Const(Value::Int(1)));
        assert!(cmp(CmpOp::Lt, one, Value::Real(1.5))
            .eval_bool(&env)
            .unwrap());
    }

    #[test]
    fn rebind_moves_a_frame_to_another_tuple() {
        let schema = class_schema();
        let (a, b) = (tuple!["0101", "SSBN", 16600], tuple!["0215", "SSN", 2145]);
        let mut env = Env::single("c", &schema, &a);
        let e = Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Eq, "SSN");
        assert!(!e.eval_bool(&env).unwrap());
        env.rebind(0, &b);
        assert!(e.eval_bool(&env).unwrap());
    }

    #[test]
    fn arithmetic() {
        let env = Env::empty();
        let e = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::Const(Value::Int(2))),
            right: Box::new(Expr::Const(Value::Real(0.5))),
        };
        assert_eq!(e.eval(&env).unwrap(), Value::Real(2.5));
        let div0 = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::Const(Value::Int(1))),
            right: Box::new(Expr::Const(Value::Int(0))),
        };
        assert!(div0.eval(&env).is_err());
    }

    #[test]
    fn multi_frame_lookup_and_ambiguity() {
        let sub_schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Class", Domain::char_n(4)),
        ])
        .unwrap();
        let cls_schema = class_schema();
        let sub = tuple!["SSBN730", "0101"];
        let cls = tuple!["0101", "SSBN", 16600];
        let mut env = Env::single("s", &sub_schema, &sub);
        env.push("c", &cls_schema, &cls);

        // Join condition SUBMARINE.CLASS = CLASS.CLASS.
        let join = Expr::eq_attrs(
            AttrRef::qualified("s", "Class"),
            AttrRef::qualified("c", "Class"),
        );
        assert!(join.eval_bool(&env).unwrap());

        // Bare "Class" is ambiguous across frames.
        let e = Expr::Attr(AttrRef::bare("Class"));
        assert!(e.eval(&env).is_err());
        // Bare "Displacement" is unique.
        let d = Expr::Attr(AttrRef::bare("Displacement"));
        assert_eq!(d.eval(&env).unwrap(), Value::Int(16600));
    }

    #[test]
    fn conjuncts_flatten() {
        let a = Expr::cmp_value(AttrRef::bare("A"), CmpOp::Eq, 1);
        let b = Expr::cmp_value(AttrRef::bare("B"), CmpOp::Eq, 2);
        let c = Expr::cmp_value(AttrRef::bare("C"), CmpOp::Eq, 3);
        let e = Expr::conjoin(vec![a, b, c]).unwrap();
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn op_flip_negate() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert!(CmpOp::Ge.matches(Ordering::Equal));
        assert!(!CmpOp::Ne.matches(Ordering::Equal));
    }
}
