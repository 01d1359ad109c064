//! A declarative exploration language — the tutorial's first open
//! problem made concrete.
//!
//! Section 2.4 of the paper: *"At the user interaction layer we still
//! lack declarative exploration languages to present and reason about
//! popular navigational idioms."* This module prototypes one: a small
//! statement language whose verbs are the exploration idioms the
//! tutorial surveys, compiled onto the [`ExploreDb`]
//! engine.
//!
//! ```text
//! USE sales;
//! SELECT avg(price) WHERE region = "region0" GROUP BY product TOP 5;
//! APPROX avg(price) WHERE qty >= 3 WITHIN 2% CONFIDENCE 95;
//! SAMPLES 0.01, 0.1 STRATIFY region CAP 100;
//! CRACK qty BETWEEN 3 AND 7;
//! RECOMMEND VIEWS FOR product = "product0" TOP 3;
//! FACETS FOR channel = "channel0" SUPPORT 20 TOP 5;
//! SYNOPSES BUCKETS 64;
//! ESTIMATE COUNT WHERE price BETWEEN 50 AND 250;
//! ESTIMATE DISTINCT product;
//! SEGMENT price BY discount INTO 3;
//! DIVERSIFY price BY price, discount, qty TOP 10 LAMBDA 0.4;
//! CHARTS TOP 5;
//! ```
//!
//! The grammar is deliberately tiny (single table, conjunctive
//! predicates) — the point is the *verb set*: exact querying, bounded
//! approximation, sampling setup, adaptive indexing, and view steering
//! as first-class statements of one language.

use explore_aqp::Bound;
use explore_storage::{AggFunc, CmpOp, Predicate, Query, SortOrder, StorageError, Value};

use crate::{ExploreDb, SessionCtx};

/// A parsed exploration statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `USE <table>` — set the session's active table.
    Use { table: String },
    /// `SELECT ...` — exact query.
    Select {
        aggregates: Vec<(AggFunc, String)>,
        projection: Vec<String>,
        predicate: Predicate,
        group_by: Vec<String>,
        top: Option<usize>,
    },
    /// `APPROX <agg>(col) [WHERE ...] WITHIN <p>% [CONFIDENCE <c>]`.
    Approx {
        func: AggFunc,
        column: String,
        predicate: Predicate,
        within_pct: f64,
        confidence: f64,
    },
    /// `SAMPLES <f1>, <f2>, ... [STRATIFY <col> CAP <n>]`.
    Samples {
        fractions: Vec<f64>,
        stratify: Option<(String, usize)>,
    },
    /// `CRACK <col> BETWEEN <lo> AND <hi>` — adaptive range index probe.
    Crack { column: String, low: i64, high: i64 },
    /// `RECOMMEND VIEWS FOR <col> = <value> TOP <k>`.
    RecommendViews {
        column: String,
        value: Value,
        top: usize,
    },
    /// `FACETS FOR <col> = <value> [SUPPORT <n>] [TOP <k>]`.
    Facets {
        column: String,
        value: Value,
        support: usize,
        top: usize,
    },
    /// `DIVERSIFY <rel_col> BY <f1>, <f2>... [WHERE ...] [TOP <k>] [LAMBDA <l>]`.
    Diversify {
        relevance: String,
        features: Vec<String>,
        predicate: Predicate,
        top: usize,
        lambda: f64,
    },
    /// `CHARTS [TOP <k>]` — VizDeck proposals for the active table.
    Charts { top: usize },
    /// `SYNOPSES [BUCKETS <n>]` — build the AQUA synopsis store.
    Synopses { buckets: usize },
    /// `ESTIMATE COUNT WHERE <col> BETWEEN a AND b | <col> = <v>`, or
    /// `ESTIMATE DISTINCT <col>` — answered from synopses only.
    Estimate(EstimateKind),
    /// `SEGMENT <measure> [BY <column>] INTO <k>` — Charles-style
    /// data-space segmentation advice; without BY, ranks every numeric
    /// column and reports the best.
    Segment {
        measure: String,
        column: Option<String>,
        k: usize,
    },
}

/// The estimation requests the synopsis store can serve.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateKind {
    RangeCount { column: String, low: f64, high: f64 },
    PointCount { column: String, value: String },
    Distinct { column: String },
}

/// The outcome of executing one statement.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A message (USE, SAMPLES).
    Message(String),
    /// A result table rendered for the terminal.
    Table(String),
    /// An approximate answer with its interval.
    Approximate {
        estimate: f64,
        low: f64,
        high: f64,
        fraction_used: f64,
    },
    /// Row ids from an adaptive-index probe (count reported).
    RowIds(usize),
    /// Ranked views.
    Views(Vec<(String, f64)>),
    /// Facet recommendations: (column, value, lift).
    Facets(Vec<(String, String, f64)>),
    /// Diversified row ids.
    Diversified(Vec<u32>),
    /// Chart proposals: (kind, columns, score).
    Charts(Vec<(String, Vec<String>, f64)>),
    /// A synopsis-only estimate with the synopsis that served it.
    Estimate { value: f64, source: &'static str },
    /// A proposed segmentation: column, variance explained, and per
    /// segment (low, high, rows, mean).
    Segmentation {
        column: String,
        variance_explained: f64,
        segments: Vec<(f64, f64, usize, f64)>,
    },
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Message(m) => write!(f, "{m}"),
            Outcome::Table(t) => write!(f, "{t}"),
            Outcome::Approximate {
                estimate,
                low,
                high,
                fraction_used,
            } => write!(
                f,
                "≈ {estimate:.4} ∈ [{low:.4}, {high:.4}] (sampled {:.2}%)",
                fraction_used * 100.0
            ),
            Outcome::RowIds(n) => write!(f, "{n} rows via adaptive index"),
            Outcome::Views(vs) => {
                for (label, u) in vs {
                    writeln!(f, "{label}  utility {u:.4}")?;
                }
                Ok(())
            }
            Outcome::Facets(fs) => {
                for (col, val, lift) in fs {
                    writeln!(f, "{col} = {val}  lift {lift:.2}")?;
                }
                Ok(())
            }
            Outcome::Diversified(ids) => write!(f, "diversified rows: {ids:?}"),
            Outcome::Charts(cs) => {
                for (kind, cols, score) in cs {
                    writeln!(f, "{kind:<8} {cols:?}  score {score:.2}")?;
                }
                Ok(())
            }
            Outcome::Estimate { value, source } => {
                write!(f, "≈ {value:.1} (from {source}, zero base-data access)")
            }
            Outcome::Segmentation {
                column,
                variance_explained,
                segments,
            } => {
                writeln!(
                    f,
                    "segment on {column} (variance explained {:.0}%):",
                    variance_explained * 100.0
                )?;
                for (lo, hi, rows, mean) in segments {
                    writeln!(f, "  [{lo:.2}, {hi:.2})  {rows} rows, mean {mean:.2}")?;
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Str(String),
    Number(f64),
    Symbol(char),
    Op(CmpOp),
}

fn lex(input: &str) -> Result<Vec<Token>, StorageError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => {
                            return Err(StorageError::InvalidQuery(
                                "unterminated string literal".into(),
                            ))
                        }
                    }
                }
                out.push(Token::Str(s));
            }
            '(' | ')' | ',' | ';' | '%' => {
                out.push(Token::Symbol(c));
                chars.next();
            }
            '=' => {
                chars.next();
                out.push(Token::Op(CmpOp::Eq));
            }
            '!' => {
                chars.next();
                if chars.next_if_eq(&'=').is_some() {
                    out.push(Token::Op(CmpOp::Ne));
                } else {
                    return Err(StorageError::InvalidQuery("expected != ".into()));
                }
            }
            '<' => {
                chars.next();
                if chars.next_if_eq(&'=').is_some() {
                    out.push(Token::Op(CmpOp::Le));
                } else {
                    out.push(Token::Op(CmpOp::Lt));
                }
            }
            '>' => {
                chars.next();
                if chars.next_if_eq(&'=').is_some() {
                    out.push(Token::Op(CmpOp::Ge));
                } else {
                    out.push(Token::Op(CmpOp::Gt));
                }
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let mut s = String::new();
                s.push(c);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' || d == 'e' || d == 'E' || d == '-' {
                        // Allow scientific notation; a trailing '-' only
                        // after an exponent marker.
                        if d == '-' && !s.ends_with('e') && !s.ends_with('E') {
                            break;
                        }
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v: f64 = s
                    .parse()
                    .map_err(|_| StorageError::InvalidQuery(format!("bad number {s:?}")))?;
                out.push(Token::Number(v));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Word(s));
            }
            other => {
                return Err(StorageError::InvalidQuery(format!(
                    "unexpected character {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> StorageError {
        StorageError::InvalidQuery(format!("{msg} (at token {})", self.pos))
    }

    /// Case-insensitive keyword match.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), StorageError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn expect_word(&mut self) -> Result<String, StorageError> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn expect_number(&mut self) -> Result<f64, StorageError> {
        match self.next() {
            Some(Token::Number(v)) => Ok(v),
            _ => Err(self.err("expected number")),
        }
    }

    /// A count (`TOP`, `SUPPORT`, `BUCKETS`, `INTO`, `CAP`): a whole
    /// number in `0..=u32::MAX`. Anything else is an error here, not a
    /// saturating cast that a later allocation would overflow on.
    fn expect_count(&mut self) -> Result<usize, StorageError> {
        let v = self.expect_number()?;
        if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX) {
            Ok(v as usize)
        } else {
            Err(self.err(&format!("expected a whole count, got {v}")))
        }
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        if self.peek() == Some(&Token::Symbol(c)) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn parse_statement(&mut self) -> Result<Statement, StorageError> {
        if self.eat_kw("use") {
            let table = self.expect_word()?;
            return Ok(Statement::Use { table });
        }
        if self.eat_kw("select") {
            return self.parse_select();
        }
        if self.eat_kw("approx") {
            return self.parse_approx();
        }
        if self.eat_kw("samples") {
            return self.parse_samples();
        }
        if self.eat_kw("crack") {
            let column = self.expect_word()?;
            self.expect_kw("between")?;
            let low = self.expect_number()? as i64;
            self.expect_kw("and")?;
            let high = self.expect_number()? as i64;
            return Ok(Statement::Crack { column, low, high });
        }
        if self.eat_kw("recommend") {
            self.expect_kw("views")?;
            self.expect_kw("for")?;
            let column = self.expect_word()?;
            if !matches!(self.next(), Some(Token::Op(CmpOp::Eq))) {
                return Err(self.err("expected ="));
            }
            let value = self.parse_value()?;
            let top = if self.eat_kw("top") {
                self.expect_count()?
            } else {
                5
            };
            return Ok(Statement::RecommendViews { column, value, top });
        }
        if self.eat_kw("facets") {
            self.expect_kw("for")?;
            let column = self.expect_word()?;
            if !matches!(self.next(), Some(Token::Op(CmpOp::Eq))) {
                return Err(self.err("expected ="));
            }
            let value = self.parse_value()?;
            let support = if self.eat_kw("support") {
                self.expect_count()?
            } else {
                10
            };
            let top = if self.eat_kw("top") {
                self.expect_count()?
            } else {
                5
            };
            return Ok(Statement::Facets {
                column,
                value,
                support,
                top,
            });
        }
        if self.eat_kw("diversify") {
            let relevance = self.expect_word()?;
            self.expect_kw("by")?;
            let mut features = Vec::new();
            loop {
                features.push(self.expect_word()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            let predicate = self.parse_where()?;
            let top = if self.eat_kw("top") {
                self.expect_count()?
            } else {
                10
            };
            let lambda = if self.eat_kw("lambda") {
                self.expect_number()?
            } else {
                0.5
            };
            return Ok(Statement::Diversify {
                relevance,
                features,
                predicate,
                top,
                lambda,
            });
        }
        if self.eat_kw("charts") {
            let top = if self.eat_kw("top") {
                self.expect_count()?
            } else {
                5
            };
            return Ok(Statement::Charts { top });
        }
        if self.eat_kw("synopses") {
            let buckets = if self.eat_kw("buckets") {
                self.expect_count()?
            } else {
                64
            };
            return Ok(Statement::Synopses { buckets });
        }
        if self.eat_kw("segment") {
            let measure = self.expect_word()?;
            let column = if self.eat_kw("by") {
                Some(self.expect_word()?)
            } else {
                None
            };
            self.expect_kw("into")?;
            let k = self.expect_count()?;
            return Ok(Statement::Segment { measure, column, k });
        }
        if self.eat_kw("estimate") {
            if self.eat_kw("distinct") {
                let column = self.expect_word()?;
                return Ok(Statement::Estimate(EstimateKind::Distinct { column }));
            }
            self.expect_kw("count")?;
            self.expect_kw("where")?;
            let column = self.expect_word()?;
            if self.eat_kw("between") {
                let low = self.expect_number()?;
                self.expect_kw("and")?;
                let high = self.expect_number()?;
                return Ok(Statement::Estimate(EstimateKind::RangeCount {
                    column,
                    low,
                    high,
                }));
            }
            if !matches!(self.next(), Some(Token::Op(CmpOp::Eq))) {
                return Err(self.err("expected BETWEEN or ="));
            }
            let value = match self.parse_value()? {
                Value::Str(s) => s,
                other => {
                    return Err(StorageError::InvalidQuery(format!(
                        "point-count estimates take a string value, got {other}"
                    )))
                }
            };
            return Ok(Statement::Estimate(EstimateKind::PointCount {
                column,
                value,
            }));
        }
        Err(self.err(
            "expected USE, SELECT, APPROX, SAMPLES, CRACK, RECOMMEND, FACETS, DIVERSIFY, CHARTS, SYNOPSES or ESTIMATE",
        ))
    }

    /// `<agg>(<col>)` or bare `<col>`.
    fn parse_select_item(&mut self) -> Result<(Option<AggFunc>, String), StorageError> {
        let word = self.expect_word()?;
        if self.eat_symbol('(') {
            let func = parse_agg(&word)
                .ok_or_else(|| StorageError::InvalidQuery(format!("unknown aggregate {word:?}")))?;
            let col = self.expect_word()?;
            if !self.eat_symbol(')') {
                return Err(self.err("expected )"));
            }
            Ok((Some(func), col))
        } else {
            Ok((None, word))
        }
    }

    fn parse_select(&mut self) -> Result<Statement, StorageError> {
        let mut aggregates = Vec::new();
        let mut projection = Vec::new();
        loop {
            let (func, col) = self.parse_select_item()?;
            match func {
                Some(f) => aggregates.push((f, col)),
                None => projection.push(col),
            }
            if !self.eat_symbol(',') {
                break;
            }
        }
        let predicate = self.parse_where()?;
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expect_word()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
        }
        let top = if self.eat_kw("top") {
            Some(self.expect_count()?)
        } else {
            None
        };
        Ok(Statement::Select {
            aggregates,
            projection,
            predicate,
            group_by,
            top,
        })
    }

    fn parse_approx(&mut self) -> Result<Statement, StorageError> {
        let (func, column) = self.parse_select_item()?;
        let func = func.ok_or_else(|| self.err("APPROX requires an aggregate"))?;
        let predicate = self.parse_where()?;
        self.expect_kw("within")?;
        let within_pct = self.expect_number()?;
        if !self.eat_symbol('%') {
            return Err(self.err("expected % after WITHIN bound"));
        }
        let confidence = if self.eat_kw("confidence") {
            self.expect_number()? / 100.0
        } else {
            0.95
        };
        Ok(Statement::Approx {
            func,
            column,
            predicate,
            within_pct,
            confidence,
        })
    }

    fn parse_samples(&mut self) -> Result<Statement, StorageError> {
        let mut fractions = Vec::new();
        loop {
            fractions.push(self.expect_number()?);
            if !self.eat_symbol(',') {
                break;
            }
        }
        let stratify = if self.eat_kw("stratify") {
            let col = self.expect_word()?;
            self.expect_kw("cap")?;
            let cap = self.expect_count()?;
            Some((col, cap))
        } else {
            None
        };
        Ok(Statement::Samples {
            fractions,
            stratify,
        })
    }

    /// Optional `WHERE <cond> [AND <cond>]*`.
    fn parse_where(&mut self) -> Result<Predicate, StorageError> {
        if !self.eat_kw("where") {
            return Ok(Predicate::True);
        }
        let mut pred = self.parse_condition()?;
        while self.eat_kw("and") {
            pred = pred.and(self.parse_condition()?);
        }
        Ok(pred)
    }

    fn parse_condition(&mut self) -> Result<Predicate, StorageError> {
        let column = self.expect_word()?;
        // `col BETWEEN a AND b`
        if self.eat_kw("between") {
            let low = self.parse_value()?;
            self.expect_kw("and")?;
            let high = self.parse_value()?;
            return Ok(Predicate::Range { column, low, high });
        }
        let op = match self.next() {
            Some(Token::Op(op)) => op,
            _ => return Err(self.err("expected comparison operator")),
        };
        let value = self.parse_value()?;
        Ok(Predicate::Cmp { column, op, value })
    }

    fn parse_value(&mut self) -> Result<Value, StorageError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            Some(Token::Number(v)) => {
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    Ok(Value::Int(v as i64))
                } else {
                    Ok(Value::Float(v))
                }
            }
            Some(Token::Word(w)) => Ok(Value::Str(w)),
            _ => Err(self.err("expected literal")),
        }
    }
}

fn parse_agg(word: &str) -> Option<AggFunc> {
    match word.to_ascii_lowercase().as_str() {
        "count" => Some(AggFunc::Count),
        "sum" => Some(AggFunc::Sum),
        "avg" => Some(AggFunc::Avg),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        "var" => Some(AggFunc::Var),
        "std" => Some(AggFunc::Std),
        _ => None,
    }
}

/// Parse one statement (a trailing `;` is accepted).
pub fn parse(input: &str) -> Result<Statement, StorageError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.eat_symbol(';');
    if p.peek().is_some() {
        return Err(p.err("trailing input after statement"));
    }
    Ok(stmt)
}

/// An interactive exploration session: an [`ExploreDb`] plus the active
/// table and session defaults, driven entirely by language statements.
#[derive(Debug, Default)]
pub struct ExplorationSession {
    db: ExploreDb,
    active: Option<String>,
}

impl ExplorationSession {
    /// A session over a fresh engine.
    pub fn new() -> Self {
        ExplorationSession::default()
    }

    /// A session over an existing engine.
    pub fn with_db(db: ExploreDb) -> Self {
        ExplorationSession { db, active: None }
    }

    /// The underlying engine. Shared, not exclusive — the engine is
    /// internally synchronized, so setup and inspection go through
    /// `&self` just like queries.
    pub fn db(&self) -> &ExploreDb {
        &self.db
    }

    /// Parse and execute one statement with the session's defaults.
    pub fn execute(&mut self, input: &str) -> Result<Outcome, StorageError> {
        let stmt = parse(input)?;
        run_stmt(&self.db, &mut self.active, stmt)
    }

    /// Parse and execute one statement under `ctx`'s overlay: the
    /// statement sees the overlay's cancel token, deadline budget, and
    /// policy overrides instead of the engine defaults. This is the
    /// session-scoped replacement for the old engine-global knob
    /// setters — per-statement budgets compose with other sessions on
    /// the same engine instead of racing them.
    pub fn execute_with(&mut self, ctx: &SessionCtx, input: &str) -> Result<Outcome, StorageError> {
        let stmt = parse(input)?;
        let ExplorationSession { db, active } = self;
        db.with_session(ctx, |db| run_stmt(db, active, stmt))
    }
}

fn active_table(active: &Option<String>) -> Result<&str, StorageError> {
    active
        .as_deref()
        .ok_or_else(|| StorageError::InvalidQuery("no active table; USE one first".into()))
}

fn run_stmt(
    db: &ExploreDb,
    active: &mut Option<String>,
    stmt: Statement,
) -> Result<Outcome, StorageError> {
    match stmt {
        Statement::Use { table } => {
            // Validate existence eagerly for a friendly error.
            if !db.tables().iter().any(|t| t == &table) {
                return Err(StorageError::UnknownTable(table));
            }
            *active = Some(table.clone());
            Ok(Outcome::Message(format!("using {table}")))
        }
        Statement::Select {
            aggregates,
            projection,
            predicate,
            group_by,
            top,
        } => {
            let table = active_table(active)?.to_owned();
            let mut q = Query::new().filter(predicate);
            for col in &projection {
                q.projection.push(col.clone());
            }
            for g in &group_by {
                q = q.group(g);
            }
            for (f, col) in &aggregates {
                q = q.agg(*f, col);
            }
            if let Some(k) = top {
                // TOP k orders by the first aggregate when present.
                if let Some((f, col)) = aggregates.first() {
                    let name = format!("{f}({col})");
                    q = q.order(&name, SortOrder::Desc);
                }
                q = q.take(k);
            }
            let result = db.query(&table, &q)?;
            Ok(Outcome::Table(result.pretty(20)))
        }
        Statement::Approx {
            func,
            column,
            predicate,
            within_pct,
            confidence,
        } => {
            let table = active_table(active)?.to_owned();
            let ans = db.approx_aggregate(
                &table,
                &predicate,
                func,
                &column,
                Bound::RelativeError {
                    target: within_pct / 100.0,
                    confidence,
                },
            )?;
            let (low, high) = ans.interval.bounds();
            Ok(Outcome::Approximate {
                estimate: ans.interval.estimate,
                low,
                high,
                fraction_used: ans.fraction_used,
            })
        }
        Statement::Samples {
            fractions,
            stratify,
        } => {
            let table = active_table(active)?.to_owned();
            let strat_ref: Vec<(&str, usize)> =
                stratify.iter().map(|(c, n)| (c.as_str(), *n)).collect();
            db.build_samples(&table, &fractions, &strat_ref, 42)?;
            Ok(Outcome::Message(format!(
                "built {} uniform sample(s){} on {table}",
                fractions.len(),
                if stratify.is_some() {
                    " + 1 stratified"
                } else {
                    ""
                }
            )))
        }
        Statement::Crack { column, low, high } => {
            let table = active_table(active)?.to_owned();
            let ids = db.cracked_range(&table, &column, low, high)?;
            Ok(Outcome::RowIds(ids.len()))
        }
        Statement::RecommendViews { column, value, top } => {
            let table = active_table(active)?.to_owned();
            let target = Predicate::Cmp {
                column,
                op: CmpOp::Eq,
                value,
            };
            let views = db.recommend_views(&table, &target, top)?;
            Ok(Outcome::Views(
                views
                    .into_iter()
                    .map(|v| (v.spec.label(), v.utility))
                    .collect(),
            ))
        }
        Statement::Facets {
            column,
            value,
            support,
            top,
        } => {
            let table = active_table(active)?.to_owned();
            let target = Predicate::Cmp {
                column,
                op: CmpOp::Eq,
                value,
            };
            let facets = db.facets(&table, &target, support, top)?;
            Ok(Outcome::Facets(
                facets
                    .into_iter()
                    .map(|f| (f.column, f.value, f.lift))
                    .collect(),
            ))
        }
        Statement::Diversify {
            relevance,
            features,
            predicate,
            top,
            lambda,
        } => {
            let table = active_table(active)?.to_owned();
            let feats: Vec<&str> = features.iter().map(String::as_str).collect();
            let ids = db.diversified_topk(&table, &predicate, &relevance, &feats, top, lambda)?;
            Ok(Outcome::Diversified(ids))
        }
        Statement::Synopses { buckets } => {
            let table = active_table(active)?.to_owned();
            db.build_synopses(&table, buckets)?;
            Ok(Outcome::Message(format!(
                "built synopses ({buckets} buckets) on {table}"
            )))
        }
        Statement::Estimate(kind) => {
            let table = active_table(active)?.to_owned();
            let ans = match &kind {
                EstimateKind::RangeCount { column, low, high } => {
                    db.estimate_range_count(&table, column, *low, *high)?
                }
                EstimateKind::PointCount { column, value } => {
                    db.estimate_point_count(&table, column, value)?
                }
                EstimateKind::Distinct { column } => db.estimate_distinct(&table, column)?,
            };
            let source = match ans.answered_by {
                explore_aqp::AnsweredBy::EquiDepthHistogram => "equi-depth histogram",
                explore_aqp::AnsweredBy::CountMinSketch => "count-min sketch",
                explore_aqp::AnsweredBy::HyperLogLog => "hyperloglog",
            };
            Ok(Outcome::Estimate {
                value: ans.estimate,
                source,
            })
        }
        Statement::Segment { measure, column, k } => {
            let table = active_table(active)?.to_owned();
            let t = db.table(&table)?;
            let seg = match column {
                Some(col) => explore_explore::segment(&t, &col, &measure, k)?,
                None => explore_explore::advise(&t, &measure, k)?
                    .into_iter()
                    .next()
                    .ok_or_else(|| {
                        StorageError::InvalidQuery("no numeric columns to segment on".into())
                    })?,
            };
            Ok(Outcome::Segmentation {
                column: seg.column,
                variance_explained: seg.variance_explained,
                segments: seg
                    .segments
                    .iter()
                    .map(|s| (s.low, s.high, s.rows, s.measure_mean))
                    .collect(),
            })
        }
        Statement::Charts { top } => {
            let table = active_table(active)?.to_owned();
            let deck = db.propose_charts(&table, top)?;
            Ok(Outcome::Charts(
                deck.into_iter()
                    .map(|p| {
                        let kind = match p.kind {
                            explore_viz::ChartKind::Bar => "bar",
                            explore_viz::ChartKind::HistogramChart => "hist",
                            explore_viz::ChartKind::Scatter => "scatter",
                        };
                        (kind.to_owned(), p.columns, p.score)
                    })
                    .collect(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn session() -> ExplorationSession {
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 20_000,
                ..SalesConfig::default()
            }),
        );
        ExplorationSession::with_db(db)
    }

    #[test]
    fn parse_select_variants() {
        let s =
            parse("SELECT avg(price) WHERE region = \"region0\" GROUP BY product TOP 5;").unwrap();
        match s {
            Statement::Select {
                aggregates,
                predicate,
                group_by,
                top,
                ..
            } => {
                assert_eq!(aggregates, vec![(AggFunc::Avg, "price".to_string())]);
                assert_eq!(group_by, vec!["product"]);
                assert_eq!(top, Some(5));
                assert!(matches!(predicate, Predicate::Cmp { .. }));
            }
            other => panic!("{other:?}"),
        }
        // Projection + multiple conditions + BETWEEN.
        let s = parse("select region, qty where price >= 10 and qty between 2 and 5").unwrap();
        match s {
            Statement::Select {
                projection,
                predicate,
                ..
            } => {
                assert_eq!(projection, vec!["region", "qty"]);
                assert_eq!(predicate.columns(), vec!["price", "qty"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_approx_and_samples() {
        let s = parse("APPROX avg(price) WITHIN 2% CONFIDENCE 99").unwrap();
        match s {
            Statement::Approx {
                within_pct,
                confidence,
                ..
            } => {
                assert_eq!(within_pct, 2.0);
                assert!((confidence - 0.99).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        let s = parse("SAMPLES 0.01, 0.1 STRATIFY region CAP 100").unwrap();
        assert_eq!(
            s,
            Statement::Samples {
                fractions: vec![0.01, 0.1],
                stratify: Some(("region".into(), 100)),
            }
        );
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(parse("").is_err());
        assert!(parse("SELECT").is_err());
        assert!(parse("FLY me TO the moon").is_err());
        assert!(parse("SELECT avg(price WHERE x = 1").is_err());
        assert!(parse("APPROX price WITHIN 2%").is_err(), "needs aggregate");
        assert!(parse("SELECT avg(price) extra junk").is_err(), "trailing");
        assert!(parse("SELECT frobnicate(price)").is_err(), "unknown agg");
        assert!(parse("CRACK qty BETWEEN 3").is_err());
        // Counts are whole and in range, or the parse fails.
        assert!(parse("SELECT avg(price) TOP -3").is_err(), "negative");
        assert!(parse("SELECT avg(price) TOP 2.5").is_err(), "fraction");
        assert!(parse("SYNOPSES BUCKETS 1e30").is_err(), "out of range");
        assert!(parse("SAMPLES 0.1 STRATIFY region CAP -1").is_err());
        assert!(parse("SEGMENT price INTO 2.7").is_err());
        assert!(parse("SYNOPSES BUCKETS 4294967295").is_ok(), "u32::MAX");
        assert!(parse("SELECT avg(price) WHERE region ! 3").is_err());
        assert!(parse("SELECT avg(price) WHERE region = \"unterminated").is_err());
    }

    #[test]
    fn session_full_flow() {
        let mut s = session();
        assert!(matches!(
            s.execute("USE sales;").unwrap(),
            Outcome::Message(_)
        ));
        // Exact query.
        let out = s
            .execute("SELECT avg(price) WHERE region = \"region0\" GROUP BY product TOP 3;")
            .unwrap();
        match out {
            Outcome::Table(t) => assert!(t.contains("avg(price)")),
            other => panic!("{other:?}"),
        }
        // Samples + approx.
        s.execute("SAMPLES 0.01, 0.1;").unwrap();
        let out = s.execute("APPROX avg(price) WITHIN 5%;").unwrap();
        match out {
            Outcome::Approximate {
                estimate,
                low,
                high,
                fraction_used,
            } => {
                assert!(low <= estimate && estimate <= high);
                assert!(fraction_used <= 0.1 + 1e-9);
            }
            other => panic!("{other:?}"),
        }
        // Adaptive index.
        let out = s.execute("CRACK qty BETWEEN 3 AND 7;").unwrap();
        let truth = Predicate::range("qty", 3i64, 7i64)
            .evaluate(&s.db().table("sales").unwrap())
            .unwrap()
            .len();
        assert!(matches!(out, Outcome::RowIds(n) if n == truth));
        // View steering.
        let out = s
            .execute("RECOMMEND VIEWS FOR product = \"product0\" TOP 3;")
            .unwrap();
        match out {
            Outcome::Views(vs) => {
                assert_eq!(vs.len(), 3);
                assert!(vs.windows(2).all(|w| w[0].1 >= w[1].1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn statements_require_active_table() {
        let mut s = session();
        assert!(s.execute("SELECT count(qty)").is_err());
        assert!(s.execute("USE nonexistent").is_err());
        s.execute("USE sales").unwrap();
        assert!(s.execute("SELECT count(qty)").is_ok());
    }

    #[test]
    fn select_matches_engine_query() {
        let mut s = session();
        s.execute("USE sales").unwrap();
        let via_lang = match s
            .execute("SELECT sum(qty) WHERE channel = \"channel1\"")
            .unwrap()
        {
            Outcome::Table(t) => t,
            other => panic!("{other:?}"),
        };
        let direct = Query::new()
            .filter(Predicate::eq("channel", "channel1"))
            .agg(AggFunc::Sum, "qty")
            .run(&s.db().table("sales").unwrap())
            .unwrap()
            .pretty(20);
        assert_eq!(via_lang, direct);
    }

    #[test]
    fn outcome_display() {
        let o = Outcome::Approximate {
            estimate: 1.0,
            low: 0.9,
            high: 1.1,
            fraction_used: 0.01,
        };
        assert!(o.to_string().contains('%'));
        assert_eq!(Outcome::RowIds(5).to_string(), "5 rows via adaptive index");
        let v = Outcome::Views(vec![("avg(x) by y".into(), 1.5)]);
        assert!(v.to_string().contains("utility"));
    }

    #[test]
    fn numeric_literal_typing() {
        // Integers stay Int (so int-column predicates work), floats stay
        // Float.
        match parse("SELECT count(qty) WHERE qty = 3").unwrap() {
            Statement::Select { predicate, .. } => match predicate {
                Predicate::Cmp { value, .. } => assert_eq!(value, Value::Int(3)),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        match parse("SELECT count(qty) WHERE price < 9.5").unwrap() {
            Statement::Select { predicate, .. } => match predicate {
                Predicate::Cmp { value, .. } => assert_eq!(value, Value::Float(9.5)),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod extended_verb_tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn session() -> ExplorationSession {
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 10_000,
                ..SalesConfig::default()
            }),
        );
        let mut s = ExplorationSession::with_db(db);
        s.execute("USE sales").unwrap();
        s
    }

    #[test]
    fn facets_verb() {
        let mut s = session();
        let out = s
            .execute("FACETS FOR channel = \"channel1\" SUPPORT 5 TOP 4;")
            .unwrap();
        match out {
            Outcome::Facets(fs) => {
                assert!(!fs.is_empty());
                assert!(fs.len() <= 4);
                let channel = fs.iter().find(|(c, _, _)| c == "channel").unwrap();
                assert_eq!(channel.1, "channel1");
            }
            other => panic!("{other:?}"),
        }
        // Defaults apply when SUPPORT/TOP omitted.
        assert!(matches!(
            s.execute("FACETS FOR region = \"region0\"").unwrap(),
            Outcome::Facets(_)
        ));
    }

    #[test]
    fn diversify_verb() {
        let mut s = session();
        let out = s
            .execute("DIVERSIFY price BY price, discount, qty WHERE qty >= 2 TOP 8 LAMBDA 0.3;")
            .unwrap();
        match out {
            Outcome::Diversified(ids) => {
                assert_eq!(ids.len(), 8);
                let set: std::collections::HashSet<u32> = ids.iter().copied().collect();
                assert_eq!(set.len(), 8);
            }
            other => panic!("{other:?}"),
        }
        // String feature column is a type error, surfaced not panicked.
        assert!(s.execute("DIVERSIFY price BY region TOP 5").is_err());
    }

    #[test]
    fn charts_verb() {
        let mut s = session();
        match s.execute("CHARTS TOP 3;").unwrap() {
            Outcome::Charts(cs) => {
                assert_eq!(cs.len(), 3);
                assert!(cs.windows(2).all(|w| w[0].2 >= w[1].2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extended_outcomes_display() {
        let f = Outcome::Facets(vec![("c".into(), "v".into(), 2.5)]);
        assert!(f.to_string().contains("lift"));
        let d = Outcome::Diversified(vec![1, 2, 3]);
        assert!(d.to_string().contains('1'));
        let c = Outcome::Charts(vec![("bar".into(), vec!["x".into()], 0.9)]);
        assert!(c.to_string().contains("bar"));
    }

    #[test]
    fn extended_parse_errors() {
        assert!(parse("FACETS channel = \"x\"").is_err(), "missing FOR");
        assert!(parse("DIVERSIFY price TOP 5").is_err(), "missing BY");
        assert!(parse("CHARTS TOP").is_err(), "missing number");
    }
}

#[cfg(test)]
mod estimate_verb_tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    fn session() -> ExplorationSession {
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 20_000,
                ..SalesConfig::default()
            }),
        );
        let mut s = ExplorationSession::with_db(db);
        s.execute("USE sales").unwrap();
        s
    }

    #[test]
    fn estimate_requires_synopses_first() {
        let mut s = session();
        assert!(s
            .execute("ESTIMATE COUNT WHERE price BETWEEN 50 AND 250")
            .is_err());
        s.execute("SYNOPSES BUCKETS 64").unwrap();
        let out = s
            .execute("ESTIMATE COUNT WHERE price BETWEEN 50 AND 250")
            .unwrap();
        match out {
            Outcome::Estimate { value, source } => {
                let truth = Predicate::range("price", 50.0, 250.0)
                    .evaluate(&s.db().table("sales").unwrap())
                    .unwrap()
                    .len() as f64;
                assert!((value - truth).abs() / truth < 0.15, "{value} vs {truth}");
                assert_eq!(source, "equi-depth histogram");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn estimate_point_and_distinct() {
        let mut s = session();
        s.execute("SYNOPSES").unwrap();
        let out = s
            .execute("ESTIMATE COUNT WHERE region = \"region0\"")
            .unwrap();
        match out {
            Outcome::Estimate { value, source } => {
                assert!(value > 0.0);
                assert_eq!(source, "count-min sketch");
            }
            other => panic!("{other:?}"),
        }
        let out = s.execute("ESTIMATE DISTINCT product").unwrap();
        match out {
            Outcome::Estimate { value, source } => {
                assert!((value - 20.0).abs() < 5.0, "products ≈ 20, got {value}");
                assert_eq!(source, "hyperloglog");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn estimate_parse_errors() {
        assert!(parse("ESTIMATE").is_err());
        assert!(parse("ESTIMATE COUNT price").is_err(), "missing WHERE");
        assert!(
            parse("ESTIMATE COUNT WHERE price = 3").is_err(),
            "numeric point"
        );
        assert!(parse("ESTIMATE COUNT WHERE price BETWEEN 3").is_err());
        assert!(parse("SYNOPSES BUCKETS").is_err());
        // Display of the outcome.
        let o = Outcome::Estimate {
            value: 42.0,
            source: "equi-depth histogram",
        };
        assert!(o.to_string().contains("histogram"));
    }
}

#[cfg(test)]
mod segment_verb_tests {
    use super::*;
    use explore_storage::gen::{sales_table, SalesConfig};

    #[test]
    fn segment_verb_with_and_without_by() {
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 10_000,
                ..SalesConfig::default()
            }),
        );
        let mut s = ExplorationSession::with_db(db);
        s.execute("USE sales").unwrap();
        match s.execute("SEGMENT price BY discount INTO 3").unwrap() {
            Outcome::Segmentation {
                column, segments, ..
            } => {
                assert_eq!(column, "discount");
                assert_eq!(segments.len(), 3);
                let rows: usize = segments.iter().map(|&(_, _, r, _)| r).sum();
                assert_eq!(rows, 10_000);
            }
            other => panic!("{other:?}"),
        }
        // Advisor mode picks a column itself.
        match s.execute("SEGMENT price INTO 4").unwrap() {
            Outcome::Segmentation { column, .. } => {
                assert!(column == "discount" || column == "qty");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("SEGMENT price BY discount").is_err(), "missing INTO");
        let o = s.execute("SEGMENT price BY qty INTO 2").unwrap();
        assert!(o.to_string().contains("variance explained"));
    }
}

#[cfg(test)]
mod session_scoped_tests {
    use super::*;
    use crate::CancelToken;
    use explore_storage::gen::{sales_table, SalesConfig};
    use std::time::Duration;

    fn session() -> ExplorationSession {
        let db = ExploreDb::new();
        db.register(
            "sales",
            sales_table(&SalesConfig {
                rows: 20_000,
                ..SalesConfig::default()
            }),
        );
        ExplorationSession::with_db(db)
    }

    /// `execute_with` scopes budgets to one statement: an expired
    /// deadline or a tripped cancel token cuts that statement and
    /// leaves no residue on the session or the engine.
    #[test]
    fn execute_with_scopes_budgets_to_the_statement() {
        let mut s = session();
        s.execute("USE sales;").unwrap();

        let expired = SessionCtx::default().with_deadline(Some(Duration::ZERO));
        let err = s
            .execute_with(&expired, "SELECT avg(price) GROUP BY region;")
            .unwrap_err();
        assert!(matches!(err, StorageError::DeadlineExceeded));

        let cancelled = SessionCtx::default().with_cancel(Some(CancelToken::after_checks(0)));
        let err = s
            .execute_with(&cancelled, "SELECT avg(price) GROUP BY region;")
            .unwrap_err();
        assert!(matches!(err, StorageError::Cancelled));

        // The default path is untouched: no global state was set.
        assert!(s.execute("SELECT avg(price) GROUP BY region;").is_ok());
        // And a roomy per-statement budget doesn't cut anything.
        let roomy = SessionCtx::default().with_deadline(Some(Duration::from_secs(3600)));
        assert!(s
            .execute_with(&roomy, "SELECT avg(price) GROUP BY region;")
            .is_ok());
    }

    /// Session state (the active table) still advances when a statement
    /// runs under an overlay.
    #[test]
    fn execute_with_still_tracks_the_active_table() {
        let mut s = session();
        let roomy = SessionCtx::default().with_deadline(Some(Duration::from_secs(3600)));
        s.execute_with(&roomy, "USE sales;").unwrap();
        assert!(s.execute_with(&roomy, "SELECT count(qty);").is_ok());
    }
}
