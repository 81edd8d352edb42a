//! The textual campaign DSL and the predicate expression parser.
//!
//! The TOREADOR front-end let users state campaigns in business terms; this
//! module is the textual equivalent: a line-oriented campaign language that
//! parses to [`CampaignSpec`], plus an infix expression grammar for filter
//! predicates that parses to the engine's [`Expr`].
//!
//! ```text
//! # revenue per country, purchases only
//! campaign revenue on clicks
//! prefer quality
//! mode batch
//! seed 42
//! goal filtering predicate="action == 'purchase'"
//! goal aggregation group_by=country agg=sum:price:revenue
//! objective runtime_ms <= 60000
//! ```

use std::collections::BTreeMap;

use toreador_catalog::descriptor::Capability;
use toreador_catalog::matching::Preferences;
use toreador_data::value::Value;
use toreador_dataflow::expr::{col, lit, Expr};

use crate::declarative::{CampaignSpec, Goal, Indicator, LateDataPolicy, ProcessingMode, Target};
use crate::error::{CoreError, Result};

/// Parse the DSL spelling of a capability.
pub fn parse_capability(s: &str) -> Option<Capability> {
    Some(match s {
        "normalization" => Capability::Normalization,
        "imputation" => Capability::Imputation,
        "encoding" => Capability::Encoding,
        "anonymization" => Capability::Anonymization,
        "feature_extraction" => Capability::FeatureExtraction,
        "text_vectorization" => Capability::TextVectorization,
        "transaction_encoding" => Capability::TransactionEncoding,
        "clustering" => Capability::Clustering,
        "classification" => Capability::Classification,
        "regression" => Capability::Regression,
        "association_rules" => Capability::AssociationRules,
        "anomaly_detection" => Capability::AnomalyDetection,
        "forecasting" => Capability::Forecasting,
        "similarity_search" => Capability::SimilaritySearch,
        "filtering" => Capability::Filtering,
        "aggregation" => Capability::Aggregation,
        "joining" => Capability::Joining,
        "sampling" => Capability::Sampling,
        "deduplication" => Capability::Deduplication,
        "ranking" => Capability::Ranking,
        "private_aggregation" => Capability::PrivateAggregation,
        "reporting" => Capability::Reporting,
        _ => return None,
    })
}

/// Split a line into tokens, honouring single/double-quoted spans and
/// `key=value` with quoted values.
fn split_tokens(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    for c in line.chars() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                } else {
                    cur.push(c);
                }
            }
            None => match c {
                '\'' | '"' => quote = Some(c),
                c if c.is_whitespace() => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                other => cur.push(other),
            },
        }
    }
    if quote.is_some() {
        return Err(CoreError::Parse {
            line: line_no,
            message: "unterminated quote".to_owned(),
        });
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

/// Parse `key=value` (value may have been quoted).
fn parse_kv(token: &str) -> Option<(String, String)> {
    token
        .split_once('=')
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
}

fn parse_objective_clause(tokens: &[String], line_no: usize) -> Result<(Indicator, Target)> {
    if tokens.len() != 3 {
        return Err(CoreError::Parse {
            line: line_no,
            message: format!("objective needs `<indicator> <=|>= <value>`, got {tokens:?}"),
        });
    }
    let indicator = Indicator::parse(&tokens[0]).ok_or_else(|| CoreError::Parse {
        line: line_no,
        message: format!("unknown indicator {:?}", tokens[0]),
    })?;
    let value: f64 = tokens[2].parse().map_err(|_| CoreError::Parse {
        line: line_no,
        message: format!("bad objective value {:?}", tokens[2]),
    })?;
    let target = match tokens[1].as_str() {
        ">=" => Target::AtLeast(value),
        "<=" => Target::AtMost(value),
        other => {
            return Err(CoreError::Parse {
                line: line_no,
                message: format!("objective operator must be >= or <=, got {other:?}"),
            })
        }
    };
    Ok((indicator, target))
}

/// Parse a campaign from DSL text. Named policies (`policy healthcare`)
/// resolve through the provided lookup.
pub fn parse_campaign(
    text: &str,
    policy_lookup: &dyn Fn(&str) -> Option<toreador_privacy::policy::Policy>,
) -> Result<CampaignSpec> {
    let mut spec: Option<CampaignSpec> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens = split_tokens(line, line_no)?;
        // A line of bare quotes ("" / '') tokenises to nothing: skip it.
        let Some(keyword) = tokens.first().map(String::as_str) else {
            continue;
        };
        if keyword == "campaign" {
            if spec.is_some() {
                return Err(CoreError::Parse {
                    line: line_no,
                    message: "duplicate campaign declaration".to_owned(),
                });
            }
            if tokens.len() != 4 || tokens[2] != "on" {
                return Err(CoreError::Parse {
                    line: line_no,
                    message: "expected `campaign <name> on <dataset>`".to_owned(),
                });
            }
            spec = Some(CampaignSpec::new(tokens[1].clone(), tokens[3].clone()));
            continue;
        }
        let current = spec.as_mut().ok_or(CoreError::Parse {
            line: line_no,
            message: "first statement must be `campaign <name> on <dataset>`".to_owned(),
        })?;
        match keyword {
            "prefer" => {
                current.preferences = match tokens.get(1).map(String::as_str) {
                    Some("quality") => Preferences::quality_first(),
                    Some("cost") => Preferences::cost_first(),
                    Some("balanced") => Preferences::default(),
                    other => {
                        return Err(CoreError::Parse {
                            line: line_no,
                            message: format!("prefer expects quality|cost|balanced, got {other:?}"),
                        })
                    }
                };
            }
            "mode" => match tokens.get(1).map(String::as_str) {
                Some("batch") => current.mode = ProcessingMode::Batch,
                Some("stream") => {
                    let mut window_ms = None;
                    for t in &tokens[2..] {
                        match parse_kv(t) {
                            Some((k, v)) if k == "window" => {
                                window_ms = Some(v.parse().map_err(|_| CoreError::Parse {
                                    line: line_no,
                                    message: format!("bad window {v:?}"),
                                })?)
                            }
                            Some((k, v)) if k == "lateness" => {
                                current.stream.allowed_lateness_ms =
                                    v.parse().map_err(|_| CoreError::Parse {
                                        line: line_no,
                                        message: format!("bad lateness {v:?}"),
                                    })?
                            }
                            Some((k, v)) if k == "late" => {
                                current.stream.late_policy =
                                    LateDataPolicy::parse(&v).ok_or(CoreError::Parse {
                                        line: line_no,
                                        message: format!(
                                            "late expects absorb|side-channel|drop, got {v:?}"
                                        ),
                                    })?
                            }
                            Some((k, v)) if k == "buffer" => {
                                let cap: usize = v.parse().map_err(|_| CoreError::Parse {
                                    line: line_no,
                                    message: format!("bad buffer {v:?}"),
                                })?;
                                if cap == 0 {
                                    return Err(CoreError::Parse {
                                        line: line_no,
                                        message: "buffer must be >= 1".to_owned(),
                                    });
                                }
                                current.stream.buffer = cap;
                            }
                            _ => {
                                return Err(CoreError::Parse {
                                    line: line_no,
                                    message: format!("unexpected stream option {t:?}"),
                                })
                            }
                        }
                    }
                    current.mode = ProcessingMode::Stream {
                        window_ms: window_ms.ok_or(CoreError::Parse {
                            line: line_no,
                            message: "stream mode needs window=<ms>".to_owned(),
                        })?,
                    };
                }
                other => {
                    return Err(CoreError::Parse {
                        line: line_no,
                        message: format!("mode expects batch|stream, got {other:?}"),
                    })
                }
            },
            "parallelism" => {
                current.parallelism = Some(parse_usize(&tokens, line_no)?);
            }
            "retries" => {
                current.max_task_retries = Some(parse_usize(&tokens, line_no)? as u32);
            }
            "seed" => {
                current.seed = parse_usize(&tokens, line_no)? as u64;
            }
            "policy" => {
                let name = tokens.get(1).ok_or(CoreError::Parse {
                    line: line_no,
                    message: "policy needs a name".to_owned(),
                })?;
                current.policy = Some(policy_lookup(name).ok_or_else(|| CoreError::Parse {
                    line: line_no,
                    message: format!("unknown policy {name:?}"),
                })?);
            }
            "objective" => {
                let (indicator, target) = parse_objective_clause(&tokens[1..], line_no)?;
                current
                    .objectives
                    .push(crate::declarative::Objective { indicator, target });
            }
            "goal" => {
                let cap_token = tokens.get(1).ok_or(CoreError::Parse {
                    line: line_no,
                    message: "goal needs a capability".to_owned(),
                })?;
                let capability = parse_capability(cap_token).ok_or_else(|| CoreError::Parse {
                    line: line_no,
                    message: format!("unknown capability {cap_token:?}"),
                })?;
                let mut goal = Goal::new(capability);
                let mut rest = &tokens[2..];
                // Params until `using` or `expect`.
                while let Some(t) = rest.first() {
                    match t.as_str() {
                        "using" => {
                            let id = rest.get(1).ok_or(CoreError::Parse {
                                line: line_no,
                                message: "using needs a service id".to_owned(),
                            })?;
                            goal.pinned_service = Some(id.clone());
                            rest = &rest[2..];
                        }
                        "expect" => {
                            let clause = rest.get(1..4).ok_or(CoreError::Parse {
                                line: line_no,
                                message: "expect needs `<indicator> <=|>= <value>`".to_owned(),
                            })?;
                            let (indicator, target) = parse_objective_clause(clause, line_no)?;
                            goal.objectives
                                .push(crate::declarative::Objective { indicator, target });
                            rest = &rest[4..];
                        }
                        other => match parse_kv(other) {
                            Some((k, v)) => {
                                goal.params.insert(k, v);
                                rest = &rest[1..];
                            }
                            None => {
                                return Err(CoreError::Parse {
                                    line: line_no,
                                    message: format!("expected key=value, got {other:?}"),
                                })
                            }
                        },
                    }
                }
                current.goals.push(goal);
            }
            other => {
                return Err(CoreError::Parse {
                    line: line_no,
                    message: format!("unknown keyword {other:?}"),
                })
            }
        }
    }
    let spec = spec.ok_or(CoreError::Parse {
        line: 1,
        message: "empty campaign text".to_owned(),
    })?;
    if spec.goals.is_empty() {
        return Err(CoreError::Parse {
            line: 1,
            message: "campaign declares no goals".to_owned(),
        });
    }
    Ok(spec)
}

fn parse_usize(tokens: &[String], line_no: usize) -> Result<usize> {
    tokens
        .get(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| CoreError::Parse {
            line: line_no,
            message: format!("{} needs a non-negative integer", tokens[0]),
        })
}

// ======================================================= expression parser

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Int(i64),
    Str(String),
    Op(&'static str),
    LParen,
    RParen,
}

fn lex_expr(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    let err = |m: String| CoreError::Parse {
        line: 0,
        message: m,
    };
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                out.push(Tok::RParen);
            }
            '\'' | '"' => {
                let q = c;
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some(c) if c == q => break,
                        Some(c) => s.push(c),
                        None => return Err(err("unterminated string".to_owned())),
                    }
                }
                out.push(Tok::Str(s));
            }
            '=' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                }
                out.push(Tok::Op("=="));
            }
            '!' => {
                chars.next();
                if chars.next() != Some('=') {
                    return Err(err("expected != ".to_owned()));
                }
                out.push(Tok::Op("!="));
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Tok::Op("<="));
                } else {
                    out.push(Tok::Op("<"));
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Tok::Op(">="));
                } else {
                    out.push(Tok::Op(">"));
                }
            }
            '+' => {
                chars.next();
                out.push(Tok::Op("+"));
            }
            '-' => {
                chars.next();
                out.push(Tok::Op("-"));
            }
            '*' => {
                chars.next();
                out.push(Tok::Op("*"));
            }
            '/' => {
                chars.next();
                out.push(Tok::Op("/"));
            }
            '%' => {
                chars.next();
                out.push(Tok::Op("%"));
            }
            c if c.is_ascii_digit() || c == '.' => {
                let mut s = String::new();
                let mut is_float = false;
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() {
                        s.push(c);
                        chars.next();
                    } else if c == '.' && !is_float {
                        is_float = true;
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if is_float {
                    out.push(Tok::Number(
                        s.parse().map_err(|_| err(format!("bad number {s:?}")))?,
                    ));
                } else {
                    out.push(Tok::Int(
                        s.parse().map_err(|_| err(format!("bad number {s:?}")))?,
                    ));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Ident(s));
            }
            other => return Err(err(format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

struct ExprParser {
    toks: Vec<Tok>,
    pos: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, m: impl Into<String>) -> CoreError {
        CoreError::Parse {
            line: 0,
            message: m.into(),
        }
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.expect_kw("or") {
            let right = self.and_expr()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.expect_kw("and") {
            let right = self.not_expr()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.expect_kw("not") {
            return Ok(self.not_expr()?.not());
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.sum()?;
        // `is null` / `is not null` postfix.
        if self.expect_kw("is") {
            if self.expect_kw("not") {
                if self.expect_kw("null") {
                    return Ok(left.is_not_null());
                }
                return Err(self.err("expected `null` after `is not`"));
            }
            if self.expect_kw("null") {
                return Ok(left.is_null());
            }
            return Err(self.err("expected `null` after `is`"));
        }
        let op = match self.peek() {
            Some(Tok::Op(op @ ("==" | "!=" | "<" | "<=" | ">" | ">="))) => *op,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.sum()?;
        Ok(match op {
            "==" => left.eq(right),
            "!=" => left.not_eq(right),
            "<" => left.lt(right),
            "<=" => left.lt_eq(right),
            ">" => left.gt(right),
            ">=" => left.gt_eq(right),
            _ => unreachable!(),
        })
    }

    fn sum(&mut self) -> Result<Expr> {
        let mut left = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Op("+")) => {
                    self.pos += 1;
                    left = left.add(self.term()?);
                }
                Some(Tok::Op("-")) => {
                    self.pos += 1;
                    left = left.sub(self.term()?);
                }
                _ => return Ok(left),
            }
        }
    }

    fn term(&mut self) -> Result<Expr> {
        let mut left = self.factor()?;
        loop {
            match self.peek() {
                Some(Tok::Op("*")) => {
                    self.pos += 1;
                    left = left.mul(self.factor()?);
                }
                Some(Tok::Op("/")) => {
                    self.pos += 1;
                    left = left.div(self.factor()?);
                }
                Some(Tok::Op("%")) => {
                    self.pos += 1;
                    left = left.modulo(self.factor()?);
                }
                _ => return Ok(left),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(lit(i)),
            Some(Tok::Number(x)) => Ok(lit(x)),
            Some(Tok::Str(s)) => Ok(lit(s.as_str())),
            Some(Tok::Op("-")) => Ok(self.factor()?.neg()),
            Some(Tok::Ident(s)) => match s.as_str() {
                "true" => Ok(lit(true)),
                "false" => Ok(lit(false)),
                "null" => Ok(Expr::Literal(Value::Null)),
                _ => Ok(col(s)),
            },
            Some(Tok::LParen) => {
                let inner = self.or_expr()?;
                match self.next() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(self.err("expected closing parenthesis")),
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

/// Parse an infix predicate/expression string into an engine [`Expr`].
pub fn parse_expr(input: &str) -> Result<Expr> {
    let toks = lex_expr(input)?;
    if toks.is_empty() {
        return Err(CoreError::Parse {
            line: 0,
            message: "empty expression".to_owned(),
        });
    }
    let mut p = ExprParser { toks, pos: 0 };
    let e = p.or_expr()?;
    if p.pos != p.toks.len() {
        return Err(CoreError::Parse {
            line: 0,
            message: format!("trailing tokens after expression: {:?}", &p.toks[p.pos..]),
        });
    }
    Ok(e)
}

/// Parse a comma-separated aggregation list `func:column:alias,...`.
pub fn parse_agg_list(input: &str) -> Result<Vec<toreador_dataflow::logical::AggExpr>> {
    use toreador_dataflow::logical::{AggExpr, AggFunc};
    let mut out = Vec::new();
    for part in input.split(',').filter(|p| !p.trim().is_empty()) {
        let bits: Vec<&str> = part.trim().split(':').collect();
        if bits.len() != 3 {
            return Err(CoreError::Parse {
                line: 0,
                message: format!("aggregation {part:?} must be func:column:alias"),
            });
        }
        let func = match bits[0] {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "mean" => AggFunc::Mean,
            "count_distinct" => AggFunc::CountDistinct,
            other => {
                return Err(CoreError::Parse {
                    line: 0,
                    message: format!("unknown aggregate function {other:?}"),
                })
            }
        };
        out.push(AggExpr::new(func, bits[1], bits[2]));
    }
    if out.is_empty() {
        return Err(CoreError::Parse {
            line: 0,
            message: "empty aggregation list".to_owned(),
        });
    }
    Ok(out)
}

/// Parse a comma-separated column list.
pub fn parse_column_list(input: &str) -> Vec<String> {
    input
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Render a `CampaignSpec` back to canonical DSL params (used in run
/// records for reproducibility). Not a full pretty-printer — parameters
/// only, sorted.
pub fn render_params(params: &BTreeMap<String, String>) -> String {
    params
        .iter()
        .map(|(k, v)| {
            if v.contains(' ') {
                format!("{k}=\"{v}\"")
            } else {
                format!("{k}={v}")
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::schema::{Field, Schema};
    use toreador_data::value::DataType;
    use toreador_privacy::policy::healthcare_default;

    fn no_policy(_: &str) -> Option<toreador_privacy::policy::Policy> {
        None
    }

    #[test]
    fn parses_full_campaign() {
        let text = r#"
# revenue per country
campaign revenue on clicks
prefer cost
mode batch
parallelism 4
retries 2
seed 7
goal filtering predicate="action == 'purchase'"
goal aggregation group_by=country agg=sum:price:revenue expect runtime_ms <= 60000
objective cost <= 100
"#;
        let spec = parse_campaign(text, &no_policy).unwrap();
        assert_eq!(spec.name, "revenue");
        assert_eq!(spec.dataset, "clicks");
        assert_eq!(spec.goals.len(), 2);
        assert_eq!(spec.parallelism, Some(4));
        assert_eq!(spec.max_task_retries, Some(2));
        assert_eq!(spec.seed, 7);
        assert_eq!(
            spec.goals[0].get_param("predicate"),
            Some("action == 'purchase'")
        );
        assert_eq!(spec.goals[1].objectives.len(), 1);
        assert_eq!(spec.objectives.len(), 1);
        assert_eq!(spec.preferences, Preferences::cost_first());
    }

    #[test]
    fn parses_stream_mode_and_pin() {
        let text = "campaign s on tel\nmode stream window=3600000\ngoal anomaly_detection column=kwh using analytics.anomaly.rolling\n";
        let spec = parse_campaign(text, &no_policy).unwrap();
        assert_eq!(
            spec.mode,
            ProcessingMode::Stream {
                window_ms: 3_600_000
            }
        );
        assert_eq!(
            spec.goals[0].pinned_service.as_deref(),
            Some("analytics.anomaly.rolling")
        );
        // Defaults when no continuous options are given.
        assert_eq!(spec.stream, crate::declarative::StreamOptions::default());
    }

    #[test]
    fn parses_stream_continuous_options() {
        let text = "campaign s on tel\n\
                    mode stream window=1000 lateness=250 late=drop buffer=4\n\
                    goal aggregation group_by=region agg=sum:kwh:load\n";
        let spec = parse_campaign(text, &no_policy).unwrap();
        assert_eq!(spec.mode, ProcessingMode::Stream { window_ms: 1000 });
        assert_eq!(spec.stream.allowed_lateness_ms, 250);
        assert_eq!(spec.stream.late_policy, LateDataPolicy::Drop);
        assert_eq!(spec.stream.buffer, 4);
        // Bad spellings fail with a line-anchored parse error.
        for bad in [
            "campaign s on t\nmode stream window=1000 late=whenever\n",
            "campaign s on t\nmode stream window=1000 buffer=0\n",
            "campaign s on t\nmode stream window=1000 lateness=soon\n",
        ] {
            assert!(parse_campaign(bad, &no_policy).is_err(), "{bad}");
        }
    }

    #[test]
    fn policy_resolution() {
        let text = "campaign h on health\npolicy healthcare\ngoal anonymization k=5\n";
        let spec = parse_campaign(text, &|name| {
            (name == "healthcare").then(healthcare_default)
        })
        .unwrap();
        assert!(spec.policy.is_some());
        let err = parse_campaign(text, &no_policy).unwrap_err();
        assert!(err.to_string().contains("unknown policy"));
    }

    #[test]
    fn bare_quote_lines_are_skipped_not_panicking() {
        // Regression: a line of only quotes tokenises to zero tokens.
        let text = "campaign a on b\n\"\"\ngoal filtering predicate=\"x > 1\"\n";
        assert!(parse_campaign(text, &no_policy).is_ok());
        let text = "''\n";
        assert!(
            parse_campaign(text, &no_policy).is_err(),
            "still needs a campaign header"
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "campaign a on b\nbogus keyword here\ngoal filtering predicate=x\n";
        match parse_campaign(text, &no_policy) {
            Err(CoreError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Missing campaign header.
        let text = "goal filtering predicate=x\n";
        assert!(parse_campaign(text, &no_policy).is_err());
        // No goals.
        let text = "campaign a on b\n";
        assert!(parse_campaign(text, &no_policy).is_err());
        // Unknown capability.
        let text = "campaign a on b\ngoal telepathy\n";
        assert!(parse_campaign(text, &no_policy).is_err());
        // Bad objective operator.
        let text = "campaign a on b\ngoal filtering p=x\nobjective cost == 5\n";
        assert!(parse_campaign(text, &no_policy).is_err());
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::new("country", DataType::Str),
            Field::new("qty", DataType::Int),
            Field::new("ok", DataType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn expression_parser_handles_precedence() {
        let e = parse_expr("price + qty * 2 > 10").unwrap();
        assert_eq!(e.to_string(), "((price + (qty * 2)) > 10)");
        let e = parse_expr("(price + qty) * 2 > 10").unwrap();
        assert_eq!(e.to_string(), "(((price + qty) * 2) > 10)");
    }

    #[test]
    fn expression_parser_boolean_logic() {
        let e = parse_expr("country == 'IT' and price > 5 or ok").unwrap();
        // and binds tighter than or.
        assert_eq!(
            e.to_string(),
            "(((country = \"IT\") AND (price > 5)) OR ok)"
        );
        let e = parse_expr("not ok").unwrap();
        assert_eq!(e.to_string(), "NOT ok");
        let e = parse_expr("price is null or qty is not null").unwrap();
        assert!(e.to_string().contains("IS NULL"));
        assert!(e.infer_type(&schema()).is_ok());
    }

    #[test]
    fn parsed_expressions_type_check_and_evaluate() {
        use toreador_data::table::Table;
        use toreador_dataflow::vexpr::BoundExpr;
        let row = vec![
            Value::Float(3.0),
            Value::Str("IT".into()),
            Value::Int(5),
            Value::Bool(true),
        ];
        let t = Table::from_rows(schema(), [row]).unwrap();
        let eval = |src: &str| {
            let e = parse_expr(src).unwrap();
            let c = BoundExpr::bind(&e, t.schema()).unwrap().eval_column(&t);
            c.unwrap().value(0).unwrap()
        };
        assert_eq!(
            eval("price * 2 >= qty and country != 'DE'"),
            Value::Bool(true)
        );
        assert_eq!(eval("-price"), Value::Float(-3.0));
    }

    #[test]
    fn expression_parser_rejects_garbage() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("price >").is_err());
        assert!(parse_expr("(price > 1").is_err());
        assert!(parse_expr("price > 1 extra").is_err());
        assert!(parse_expr("price @ 2").is_err());
        assert!(parse_expr("'unterminated").is_err());
    }

    #[test]
    fn agg_list_parsing() {
        let aggs = parse_agg_list("sum:price:revenue, count:event_id:n").unwrap();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].alias, "revenue");
        assert!(parse_agg_list("sum:price").is_err());
        assert!(parse_agg_list("median:price:x").is_err());
        assert!(parse_agg_list("").is_err());
    }

    #[test]
    fn column_list_parsing() {
        assert_eq!(parse_column_list("a, b ,c"), vec!["a", "b", "c"]);
        assert!(parse_column_list("  ").is_empty());
    }

    #[test]
    fn render_params_quotes_spaces() {
        let mut p = BTreeMap::new();
        p.insert("predicate".to_owned(), "a > 1".to_owned());
        p.insert("k".to_owned(), "5".to_owned());
        assert_eq!(render_params(&p), "k=5 predicate=\"a > 1\"");
    }
}
